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
secular matrices from one ``system.gamma`` call, counts with one stacked
``eigvalsh`` and updates every bracket, kept as flat state, in one loop.
Gamma(lambda) is Hermitian to the bit at real lambda and every label's
theta is too, so for a label with pi = 1 the stack goes to ``eigvalsh`` as
it is; a compressed label's stack is replaced by its Hermitian part first.
Every bracket walks the bisection's own dyadic path. Once its count drops
by one, its crossing branch is one increasing function with one zero: a
secant step (regula falsi) finds that zero, one round of two probes narrows
the secant's certified bracket to a window outside which rounding cannot
change the count, and only the midpoints inside the window are evaluated,
the walk passing the others in the same update; a larger drop evaluates
every midpoint. Every bracket is therefore split, kept or stopped exactly
as a depth-first bisection would, so the roots are the same to the bit, in
about half the rounds. The kernel check at the roots is one stacked
``eigh`` of matrices formed as in the rounds; its vectors are the null bases.

Eigenvalues embedded in the free spectrum are invisible to this criterion;
the excluded subintervals of the window are therefore reported alongside
the results as unsearchable gaps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .krein import ExtensionParams, Resolvent, WeylSystem, secular_matrix
from .linalg import RANK_RTOL

__all__ = [
    "EigenResult",
    "SpectrumResult",
    "eigenvalue_search",
    "eigenfunction",
    "validate_eigenpair",
    "EigenpairReport",
]

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


def _segments(excluded, lo, hi, gaps):
    """The pieces of [lo, hi] between the ``gaps``, each from its first float
    outside the excluded set, with one ``contains`` call for all the starts:
    the closed half line (-inf, upper] leaves a start on ``upper`` itself."""
    pieces = _complement(lo, hi, gaps)
    inside = excluded.contains(np.array([start for start, _ in pieces])).tolist()
    segments = []
    for (a, b), hit in zip(pieces, inside):
        while hit:
            a = float(np.nextafter(a, np.inf))
            hit = excluded.contains(a)
        segments.append((a, b))
    return segments


SECANT, PROBE, WALK = range(3)


class _Bracket:
    """The flat state of one live bracket (lo, hi) of :func:`_isolate`: the
    counts ``clo``, ``chi`` and rows ``left``, ``right`` at its ends (None
    where a walk inferred the count), the points it ``asks`` for in its
    ``phase``, the window search's ends (a, fa), (b, fb), previous step
    (px, pf), last moved ``side`` and secant point ``x``, and the walk's
    window (xl, xr), (-inf, inf) if there is none, and width ``floor``,
    above which no walked bracket is final."""

    __slots__ = ("lo", "hi", "clo", "chi", "left", "right", "phase", "asks", "a", "fa",
                 "b", "fb", "px", "pf", "side", "x", "xl", "xr", "floor")

    def __init__(self, lo, hi, clo, chi, left, right):
        self.lo, self.hi, self.clo, self.chi, self.left, self.right = lo, hi, clo, chi, left, right


def _isolate(eigs, segments, theta_norm):
    """Brackets (midpoint, drop) of the count drops on pole-free segments.

    ``eigs(lams)`` gives the (m, r) secular eigenvalues at an array of m
    points, each row ascending; the count is how many are negative, and
    R = BRACKET_FLOOR r (max|w| + theta_norm) bounds the rounding error of
    forming and diagonalising V^*(theta + Gamma)V there. Every bracket whose
    count drops is bisected until it is as narrow as floating point allows
    or, for a drop of several, until that many secular eigenvalues are
    within R at its midpoint, where the count cannot split it any further.

    A midpoint with count clo moves lo, one with count chi moves hi, and any
    other count splits the bracket. A drop of one with both rows known first
    finds a window: its branch f = row[chi] increases through one zero, a
    point with count clo and f < -8 R certifies a left end, one with count
    chi and f > 8 R a right end, and every point beyond such an end has its
    count. Regula falsi narrows the window (a, b) until |f(x)| <= 8 R,
    rescaling the value of an end kept twice (Anderson-Bjorck, or Illinois
    halving when that factor is not positive); a step rounding onto an end
    bisects. One round of probes at x -+ delta, delta = 16 R / slope of the
    last two steps, narrows it from both sides, a probe that certifies no
    end leaving its side as it was, and the bracket then walks inside the
    window (a, b). A foreign count, crossed probes or a delta that is not
    positive give the window up. So each root, in increasing lambda, is the
    midpoint of the same final bracket as in a plain bisection, to the bit.
    """
    roots, live = [], []

    def bound(row):  # R of an ascending row: max|w| is -row[0] or row[-1]
        return BRACKET_FLOOR * len(row) * (max(-row[0], row[-1]) + theta_norm)

    def start(lo, hi, clo, chi, left, right):
        s = _Bracket(lo, hi, clo, chi, left, right)
        if clo - chi == 1 and left is not None and right is not None:
            s.a, s.fa = s.px, s.pf = lo, left[chi]
            s.b, s.fb, s.side = hi, right[chi], 0
            secant(s)
        elif clo != chi:
            walk(s, -np.inf, np.inf)

    def secant(s):
        a, b = s.a, s.b
        x = b - s.fb * (b - a) / (s.fb - s.fa)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                return walk(s, a, b)
        s.phase, s.x, s.asks = SECANT, x, [x]
        live.append(s)

    def probe(s, delta):
        if not delta > 0.0:
            return walk(s, -np.inf, np.inf)
        x, a, b = s.x, s.a, s.b
        s.asks = [p for p in (x - delta, x + delta) if a < p < b]
        if not s.asks:
            return walk(s, a, b)
        s.phase = PROBE
        live.append(s)

    def walk(s, xl, xr):
        s.phase, s.xl, s.xr, s.floor = WALK, xl, xr, BRACKET_FLOOR * max(1.0, abs(s.lo), abs(s.hi))
        step(s, s.lo, s.hi)

    def step(s, lo, hi):
        # every walked bracket lies in the one the walk started from, so
        # one wider than that one's floor is not final
        xl, xr, floor = s.xl, s.xr, s.floor
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= floor:
                if hi - lo <= BRACKET_FLOOR * max(1.0, abs(lo), abs(hi)) or not lo < mid < hi:
                    return roots.append((mid, s.clo - s.chi))
            if mid <= xl:
                lo, s.left = mid, None
            elif mid >= xr:
                hi, s.right = mid, None
            else:
                break
        s.lo, s.hi, s.asks = lo, hi, [mid]
        live.append(s)

    rows = eigs(np.array([x for segment in segments for x in segment])).tolist()
    for (lo, hi), left, right in zip(segments, rows[0::2], rows[1::2]):
        start(lo, hi, bisect_left(left, 0.0), bisect_left(right, 0.0), left, right)
    while live:
        batch, live = live, []
        rows = iter(eigs(np.array([x for s in batch for x in s.asks])).tolist())
        for s in batch:
            clo, chi = s.clo, s.chi
            if s.phase == WALK:
                row = next(rows)
                count, mid = bisect_left(row, 0.0), s.asks[0]
                if clo - chi > 1 and sorted(map(abs, row))[clo - chi - 1] <= bound(row):
                    roots.append((mid, clo - chi))
                elif count == clo:
                    s.left = row
                    step(s, mid, s.hi)
                elif count == chi:
                    s.right = row
                    step(s, s.lo, mid)
                else:
                    start(s.lo, mid, clo, count, s.left, row)
                    start(mid, s.hi, count, chi, row, s.right)
            elif s.phase == SECANT:
                row = next(rows)
                count, rounding, x, fx = bisect_left(row, 0.0), bound(row), s.x, row[chi]
                if count != clo and count != chi:
                    walk(s, -np.inf, np.inf)
                elif abs(fx) <= 8.0 * rounding:
                    # numpy's division: an unchanged f gives an infinite or NaN delta
                    probe(s, float(16.0 * rounding * (x - s.px) / np.float64(fx - s.pf)))
                else:
                    if fx < 0.0:
                        if s.side < 0:
                            m = 1.0 - fx / s.fa
                            s.fb *= m if m > 0.0 else 0.5
                        s.a, s.fa, s.side = x, fx, -1
                    else:
                        if s.side > 0:
                            m = 1.0 - fx / s.fb
                            s.fa *= m if m > 0.0 else 0.5
                        s.b, s.fb, s.side = x, fx, 1
                    s.px, s.pf = x, fx
                    secant(s)
            else:
                a, b = s.a, s.b
                for p, row in zip(s.asks, [next(rows) for _ in s.asks]):
                    count, rounding = bisect_left(row, 0.0), bound(row)
                    if count == clo and row[chi] < -8.0 * rounding:
                        a = max(a, p)
                    elif count == chi and row[chi] > 8.0 * rounding:
                        b = min(b, p)
                    elif count != clo and count != chi:
                        a = b  # the window is given up
                        break
                if not a < b:  # crossed ends or a foreign count
                    a, b = -np.inf, np.inf
                walk(s, a, b)
    return sorted(roots)


def eigenvalue_search(system: WeylSystem, params: ExtensionParams, window) -> SpectrumResult:
    """Find the extension's eigenvalues in a real window.

    Returns a :class:`SpectrumResult` whose eigenvalues carry the refined
    lambda, the smallest |eigenvalue| of the Hermitian secular matrix there,
    the multiplicity (the size of the count drop) and an orthonormal kernel
    basis embedded in C^n; unsearchable excluded subintervals are reported
    in ``gaps``. ``metadata["expected_count"]`` is the total count drop over
    the searchable segments and ``metadata["found_count"]`` the sum of the
    reported multiplicities. A drop of m is reported when its m smallest
    |eigenvalues| are at most ``RANK_RTOL (1 + max|w|)``, the scale
    :func:`eigenfunction` uses; the counts differ only when a drop fails
    that check.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ValueError(f"empty or invalid search window [{lo}, {hi}]")
    basis = params.range_basis

    gaps = tuple(system.excluded.gaps_in(lo, hi))
    segments = _segments(system.excluded, lo, hi, gaps)
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

    # Gamma(lambda) and every label's theta are Hermitian to the bit, so an
    # uncompressed theta + Gamma is too: eigvalsh and eigh read only the lower
    # triangle, which the Hermitian part would copy without changing it
    def hermitian(lams):
        m = secular_matrix(system, params, lams)
        return m if params._uncompressed else _hermitian_part(m)

    roots = _isolate(lambda lams: np.linalg.eigvalsh(hermitian(lams)), segments, params.theta_norm)
    metadata["expected_count"] = sum(drop for _, drop in roots)
    results = []
    if roots:
        ws, us = np.linalg.eigh(hermitian(np.array([lam for lam, _ in roots])))
        size = np.abs(ws)
        order = np.argsort(size, axis=1, kind="stable")
        least = np.take_along_axis(size, order, axis=1).tolist()
        for (lam, drop), near, small, u in zip(roots, order.tolist(), least, us):
            if small[drop - 1] > RANK_RTOL * (1.0 + small[-1]):
                continue  # the drop did not close onto a kernel
            results.append(EigenResult(lam, small[0], drop, basis @ u[:, sorted(near[:drop])]))
    metadata["found_count"] = sum(r.multiplicity for r in results)
    return SpectrumResult(tuple(results), gaps, metadata)


def eigenfunction(system: WeylSystem, params: ExtensionParams, lam, zeta, grid):
    """Samples of the eigenfunction G(lambda) zeta attached to a secular kernel vector.

    ``zeta`` must lie in the numerical kernel of the secular matrix at
    ``lam`` (residual at most ``RANK_RTOL (1 + sigma_max)`` times its norm),
    embedded in C^n.
    """
    zeta = np.asarray(zeta, dtype=complex)
    norm = np.linalg.norm(zeta)
    if norm == 0.0:
        raise ValueError("zero vector cannot define an eigenfunction")
    resolvent = Resolvent(system, params, lam)
    basis = params.range_basis
    off_range = np.linalg.norm(zeta - basis @ (basis.conj().T @ zeta))
    in_kernel = np.linalg.norm(resolvent.m @ (basis.conj().T @ zeta))
    if off_range + in_kernel > RANK_RTOL * (1.0 + resolvent.sigma_max) * norm:
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
