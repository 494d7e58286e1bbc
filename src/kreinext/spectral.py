"""Point spectrum of an extension inside the free operator's resolvent set.

An eigenvalue of the extension away from the free spectrum is exactly a
real spectral parameter where the secular matrix becomes singular, and the
deficiency map carries its kernel bijectively onto the eigenspace. The Weyl
family is a Nevanlinna function (Gamma'(lambda) is a positive Gram matrix),
so every eigenvalue branch of the Hermitian secular matrix strictly
increases in lambda. On a pole-free segment [a, b] the number of
extension eigenvalues in (a, b], multiplicities included, is therefore
neg(a) - neg(b), where neg counts the negative eigenvalues of the secular
matrix. The search bisects on that count (Sturm bisection) down to
floating-point resolution; each final bracket is one eigenvalue whose
multiplicity is the size of the drop.

The search runs in rounds, breadth first: each round evaluates every point
that any live bracket of any searchable segment asks for, builds all their
secular matrices from one ``system.gamma`` call and counts with one stacked
``eigvalsh``. Every bracket walks the bisection's own dyadic path. Once
its count drops by one, its crossing branch is one increasing function
with one zero: a secant step (regula falsi) finds that zero, two probes
certify a window around it outside which rounding cannot change the
count, and only the midpoints inside the window are evaluated; a larger
drop evaluates every midpoint. Every bracket is therefore split, kept or
stopped exactly as a depth-first bisection would, so the roots are the
same to the bit, in about half the rounds. The kernel check at the roots
is one stacked ``eigh``.

Eigenvalues embedded in the free spectrum are invisible to this criterion;
the excluded subintervals of the window are therefore reported alongside
the results as unsearchable gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krein import ExtensionParams, Resolvent, WeylSystem, secular_matrix

__all__ = [
    "EigenResult",
    "SpectrumResult",
    "eigenvalue_search",
    "eigenfunction",
    "validate_eigenpair",
    "EigenpairReport",
]

KERNEL_RTOL = 1e-10
# Absolute ceiling on the secular eigenvalues that must vanish at a reported
# root; a count drop whose eigenvalues stay above it is counted in
# ``expected_count`` but not reported.
KERNEL_TOL = 1e-10
# Brackets narrower than this (relative to max(1, |lambda|)) are final.
BRACKET_FLOOR = 4.0 * np.finfo(float).eps
SCOPE_NOTE = (
    "point spectrum inside the resolvent set of the free operator; eigenvalues "
    "embedded in the excluded spectral set are not visible to the secular criterion"
)


@dataclass(frozen=True)
class EigenResult:
    """One eigenvalue found by the secular criterion."""

    lam: float
    sigma_min: float
    multiplicity: int
    null_basis: np.ndarray  # (n, multiplicity) columns spanning ker of the secular matrix


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple
    gaps: tuple
    metadata: dict

    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.eigenvalues])


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2 of a stack of matrices, formed in one new array."""
    h = np.conjugate(np.swapaxes(m, -1, -2), order="C")
    h += m
    h /= 2.0
    return h


def _complement(lo, hi, gaps):
    """The nonempty pieces of [lo, hi] between the sorted, disjoint ``gaps``
    (as ``gaps_in`` returns them), in one sweep."""
    segments, start = [], lo
    for glo, ghi in gaps:
        end = min(glo, hi)
        if end > start:
            segments.append((start, end))
        start = max(start, ghi)
    if hi > start:
        segments.append((start, hi))
    return segments


def _admissible_start(excluded, lo: float) -> float:
    """The first float at or above ``lo`` outside the excluded set.

    A half line (-inf, upper] is closed, so a segment cut at its gap starts
    on ``upper`` itself and must begin one float higher.
    """
    while excluded.contains(lo):
        lo = float(np.nextafter(lo, np.inf))
    return lo


def _final(lo, mid, hi) -> bool:
    """True when the bracket (lo, hi) with midpoint ``mid`` is as narrow as
    floating point allows: its midpoint is the root."""
    return hi - lo <= BRACKET_FLOOR * max(1.0, abs(lo), abs(hi)) or not lo < mid < hi


def _window(lo, hi, left, right):
    """The certified window of a bracket whose count drops by one, or None;
    a coroutine like :func:`_bracket`.

    ``left`` and ``right`` are the (eigenvalues, count, rounding) at lo and
    hi; on (lo, hi) the crossing branch f = w[clo - 1] increases through its
    one zero. A point with count clo and f < -8 R (R its rounding bound)
    certifies a window's left end, one with count clo - 1 and f > 8 R its
    right end: every point beyond such an end has that end's count, so only
    inside the window can rounding decide the count. Regula falsi narrows
    the window (a, b) until it lands on an x with |f| <= 8 R; the end it
    keeps twice in a row has its value rescaled (Anderson-Bjorck, or the
    Illinois halving when that factor is not positive), and a step that
    rounds onto an end is a bisection. Probes at x -+ delta, with delta =
    16 R / slope over the last two steps, then narrow the window from both
    sides, and delta grows 16 times until no probe falls inside it. None is
    returned when a count is neither clo nor clo - 1 or the probes disagree.
    """
    clo, k = left[1], left[1] - 1
    a, fa, b, fb = lo, left[0][k], hi, right[0][k]
    px, pf, side = a, fa, 0
    while True:
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                return a, b
        ((w, count, rounding),) = yield [x]
        if count not in (clo, k):
            return None
        fx = w[k]
        if abs(fx) <= 8.0 * rounding:
            break
        if fx < 0.0:
            if side < 0:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, side = x, fx, -1
        else:
            if side > 0:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, side = x, fx, 1
        px, pf = x, fx
    delta = 16.0 * rounding * (x - px) / (fx - pf)
    while delta > 0.0:
        probes = [p for p in (x - delta, x + delta) if a < p < b]
        if not probes:
            return a, b
        replies = yield probes
        for p, (w, count, r) in zip(probes, replies):
            if count == clo and w[k] < -8.0 * r:
                a = max(a, p)
            elif count == k and w[k] > 8.0 * r:
                b = min(b, p)
            elif count not in (clo, k):
                return None
        if not a < b:
            return None
        delta *= 16.0
    return None


def _bracket(lo, hi, left, right):
    """The bisection of one bracket, as a coroutine.

    ``left`` and ``right`` are the (eigenvalues, count, rounding) at lo and
    hi, with eigenvalues None at a point whose count was inferred. The
    coroutine yields the points it needs evaluated, is sent their
    (eigenvalues, count, rounding) and returns (roots, sub-brackets).

    Every drop walks the plain bisection's own path: a midpoint with count
    clo moves lo, one with count chi moves hi, and any other count splits
    the bracket. A drop of one evaluates only the midpoints inside its
    certified window (:func:`_window`), the others taking their side's
    count; a drop of several evaluates every midpoint and stops as a root
    once that many secular eigenvalues are within rounding there.
    """
    clo, chi = left[1], right[1]
    drop = clo - chi
    if drop == 0:
        return [], []
    window = None
    if drop == 1 and left[0] is not None and right[0] is not None:
        window = yield from _window(lo, hi, left, right)
    xl, xr = window or (lo, hi)
    while True:
        mid = 0.5 * (lo + hi)
        if _final(lo, mid, hi):
            return [(mid, drop)], []
        if mid <= xl:
            lo, left = mid, (None, clo, None)
        elif mid >= xr:
            hi, right = mid, (None, chi, None)
        else:
            (at_mid,) = yield [mid]
            w, count, rounding = at_mid
            if drop > 1 and np.sort(np.abs(w))[drop - 1] <= rounding:
                return [(mid, drop)], []
            if count == clo:
                lo, left = mid, at_mid
            elif count == chi:
                hi, right = mid, at_mid
            else:
                return [], [(lo, mid, left, at_mid), (mid, hi, at_mid, right)]


def _isolate(eigs, segments, theta_norm):
    """Brackets (midpoint, drop) of the count drops on pole-free segments.

    ``eigs(lams)`` gives the (m, r) secular eigenvalues at an array of m
    points; the count is how many are negative, and R = BRACKET_FLOOR r
    (max|w| + theta_norm) bounds the rounding error of forming and
    diagonalising V^*(theta + Gamma)V there. Every bracket whose count drops
    is bisected until it is as narrow as floating point allows or, for a
    drop of several, until that many secular eigenvalues are within R at
    its midpoint: errors of that size shift each branch's crossing, so the
    count cannot split such a root any further.

    Each bracket is a coroutine (:func:`_bracket`) that walks the
    bisection's path, through a certified window (:func:`_window`) for a
    drop of one, so each root is the midpoint of the same final bracket, to
    the bit. Every round evaluates the points all brackets ask for with one
    ``eigs`` call. Brackets come out in increasing lambda.
    """

    def measure(points):
        w = eigs(np.array(points))
        rounding = BRACKET_FLOOR * w.shape[1] * (np.max(np.abs(w), axis=1) + theta_norm)
        return list(zip(w, np.sum(w < 0.0, axis=1).tolist(), rounding.tolist()))

    out, waiting = [], []

    def advance(task, reply):
        try:
            waiting.append((task, task.send(reply)))
        except StopIteration as done:
            roots, children = done.value
            out.extend(roots)
            for child in children:
                advance(_bracket(*child), None)

    ends = measure([x for segment in segments for x in segment])
    for (lo, hi), left, right in zip(segments, ends[0::2], ends[1::2]):
        advance(_bracket(lo, hi, left, right), None)
    while waiting:
        batch = waiting[:]
        waiting.clear()
        replies = iter(measure([x for _, points in batch for x in points]))
        for task, points in batch:
            advance(task, [next(replies) for _ in points])
    return sorted(out)


def eigenvalue_search(system: WeylSystem, params: ExtensionParams, window) -> SpectrumResult:
    """Find the extension's eigenvalues in a real window.

    Returns a :class:`SpectrumResult` whose eigenvalues carry the refined
    lambda, the smallest |eigenvalue| of the Hermitian secular matrix there,
    the multiplicity (the size of the count drop) and an orthonormal kernel
    basis embedded in C^n; unsearchable excluded subintervals are reported
    in ``gaps``. ``metadata["expected_count"]`` is the total count drop over
    the searchable segments and ``metadata["found_count"]`` the sum of the
    reported multiplicities; they differ only when a drop failed the
    ``KERNEL_TOL`` check.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ValueError(f"empty or invalid search window [{lo}, {hi}]")
    basis = params.range_basis

    gaps = tuple(system.excluded.gaps_in(lo, hi))
    segments = [
        (_admissible_start(system.excluded, a), b) for a, b in _complement(lo, hi, gaps)
    ]
    metadata = {
        "scope": SCOPE_NOTE,
        "window": [lo, hi],
        "segments": [[a, b] for a, b in segments],
        "searchable": bool(segments) and basis.shape[1] > 0,
        "expected_count": 0,
        "found_count": 0,
    }
    if basis.shape[1] == 0 or not segments:
        return SpectrumResult((), gaps, metadata)

    def eigs(lams):
        return np.linalg.eigvalsh(
            _hermitian_part(secular_matrix(system, params, lams))
        )

    theta_norm = float(np.linalg.norm(params.theta, 2))
    roots = _isolate(eigs, segments, theta_norm)
    metadata["expected_count"] = sum(drop for _, drop in roots)
    results = []
    if roots:
        lams = np.array([lam for lam, _ in roots])
        ws, us = np.linalg.eigh(_hermitian_part(secular_matrix(system, params, lams)))
        for (lam, drop), w, u in zip(roots, ws, us):
            near = np.argsort(np.abs(w), kind="stable")[:drop]
            if np.max(np.abs(w[near])) > KERNEL_TOL:
                continue  # the drop did not close onto a kernel
            results.append(
                EigenResult(
                    lam=lam,
                    sigma_min=float(np.min(np.abs(w))),
                    multiplicity=drop,
                    null_basis=basis @ u[:, np.sort(near)],
                )
            )
    metadata["found_count"] = sum(r.multiplicity for r in results)
    return SpectrumResult(tuple(results), gaps, metadata)


def eigenfunction(system: WeylSystem, params: ExtensionParams, lam, zeta, grid):
    """Samples of the eigenfunction G(lambda) zeta attached to a secular kernel vector.

    ``zeta`` must lie in the numerical kernel of the secular matrix at
    ``lam`` (relative tolerance 1e-10), embedded in C^n.
    """
    zeta = np.asarray(zeta, dtype=complex)
    norm = np.linalg.norm(zeta)
    if norm == 0.0:
        raise ValueError("zero vector cannot define an eigenfunction")
    resolvent = Resolvent(system, params, lam)
    basis = params.range_basis
    off_range = np.linalg.norm(zeta - basis @ (basis.conj().T @ zeta))
    in_kernel = np.linalg.norm(resolvent.m @ (basis.conj().T @ zeta))
    if off_range + in_kernel > KERNEL_RTOL * (1.0 + resolvent.sigma_max) * norm:
        raise ValueError(
            "zeta is not in the numerical kernel of the secular matrix at lambda "
            f"(residual {(off_range + in_kernel) / norm:.3e})"
        )
    return system.g_apply(lam, zeta, grid)


@dataclass(frozen=True)
class EigenpairReport:
    sigma_min: float
    kernel_residual: float
    excluded_distance: float
    excluded: bool
    range_residual: float
    coupling_residual: float


def validate_eigenpair(system: WeylSystem, params: ExtensionParams, lam, zeta) -> EigenpairReport:
    """Self-consistency report for a claimed eigenpair.

    Reports the smallest singular value of the secular matrix at lambda,
    the kernel residual of zeta (normalised), the distance of lambda to the
    excluded set (with a flag when lambda sits inside it), and the boundary
    condition residuals of the synthesized eigenfunction G(lambda) zeta,
    which hold for every model through pi Gamma(lambda) zeta + theta zeta.
    A zero zeta raises ``ValueError``, as in :func:`eigenfunction`.
    """
    lam = float(lam)
    zeta = np.asarray(zeta, dtype=complex)
    norm = np.linalg.norm(zeta)
    if norm == 0.0:
        raise ValueError("zero vector cannot define an eigenfunction")
    zeta = zeta / norm
    excluded = bool(system.excluded.contains(lam))
    distance = float(system.excluded.distance(lam))
    if excluded:
        return EigenpairReport(np.inf, np.inf, distance, True, np.inf, np.inf)
    resolvent = Resolvent(system, params, lam)
    m, gamma, v, pi = resolvent.m, resolvent.gamma, params.range_basis, params.pi
    return EigenpairReport(
        sigma_min=resolvent.sigma_min,
        kernel_residual=float(np.linalg.norm(m @ (v.conj().T @ zeta)) if m.size else np.inf),
        excluded_distance=distance,
        excluded=False,
        range_residual=float(np.linalg.norm(zeta - pi @ zeta)),
        coupling_residual=float(np.linalg.norm(pi @ (gamma @ zeta) + params.theta @ zeta)),
    )
