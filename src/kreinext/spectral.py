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

Eigenvalues embedded in the free spectrum are invisible to this criterion;
the excluded subintervals of the window are therefore reported alongside
the results as unsearchable gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .krein import (
    ExcludedPointError,
    ExtensionParams,
    WeylSystem,
    range_basis,
    require_valid,
    secular_matrix,
)

__all__ = [
    "EigenResult",
    "SpectrumResult",
    "SearchOptions",
    "eigenvalue_search",
    "eigenfunction",
    "validate_eigenpair",
    "EigenpairReport",
]

KERNEL_RTOL = 1e-10
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


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of the spectral search.

    ``kernel_tol``: absolute ceiling on the secular eigenvalues that must
    vanish at a reported root; a count drop whose eigenvalues stay above it
    is counted in ``expected_count`` but not reported. ``skip_excluded``:
    report excluded subintervals as gaps instead of erroring.
    """

    kernel_tol: float = 1e-10
    skip_excluded: bool = True


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _subtract_gaps(lo, hi, gaps):
    segments = [(lo, hi)]
    for glo, ghi in gaps:
        new = []
        for slo, shi in segments:
            if ghi <= slo or glo >= shi:
                new.append((slo, shi))
                continue
            if glo > slo:
                new.append((slo, glo))
            if ghi < shi:
                new.append((ghi, shi))
        segments = new
    return [(a, b) for a, b in segments if b > a]


def _isolate(eigs, lo, hi, theta_norm):
    """Brackets (midpoint, drop) of the count drops on a pole-free [lo, hi].

    ``eigs(lam)`` gives the secular eigenvalues; the count is how many are
    negative. Every bracket whose count drops is bisected until it is as
    narrow as floating point allows or, for a drop of several, until that
    many secular eigenvalues are within the rounding error of forming and
    diagonalising V^*(theta + Gamma)V at its midpoint: errors of that size
    shift each branch's crossing, so the count cannot split such a root any
    further. Brackets come out in increasing lambda.
    """

    def count(w):
        return int(np.sum(w < 0.0))

    out = []
    stack = [(lo, hi, count(eigs(lo)), count(eigs(hi)))]
    while stack:
        lo, hi, clo, chi = stack.pop()
        drop = clo - chi
        if drop == 0:
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= BRACKET_FLOOR * max(1.0, abs(lo), abs(hi)) or not lo < mid < hi:
            out.append((mid, drop))
            continue
        w = eigs(mid)
        rounding = BRACKET_FLOOR * w.size * (np.max(np.abs(w)) + theta_norm)
        if drop > 1 and np.sort(np.abs(w))[drop - 1] <= rounding:
            out.append((mid, drop))
            continue
        cmid = count(w)
        stack.append((mid, hi, cmid, chi))
        stack.append((lo, mid, clo, cmid))
    return out


def eigenvalue_search(
    system: WeylSystem,
    params: ExtensionParams,
    window,
    opts: SearchOptions | None = None,
) -> SpectrumResult:
    """Find the extension's eigenvalues in a real window.

    Returns a :class:`SpectrumResult` whose eigenvalues carry the refined
    lambda, the smallest |eigenvalue| of the Hermitian secular matrix there,
    the multiplicity (the size of the count drop) and an orthonormal kernel
    basis embedded in C^n; unsearchable excluded subintervals are reported
    in ``gaps``. ``metadata["expected_count"]`` is the total count drop over
    the searchable segments and ``metadata["found_count"]`` the sum of the
    reported multiplicities; they differ only when a drop failed the
    ``kernel_tol`` check.
    """
    opts = opts or SearchOptions()
    lo, hi = float(window[0]), float(window[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ValueError(f"empty or invalid search window [{lo}, {hi}]")
    require_valid(params)
    basis = range_basis(params.pi)

    gaps = tuple(system.excluded.gaps_in(lo, hi))
    if gaps and not opts.skip_excluded:
        raise ExcludedPointError(
            f"window [{lo}, {hi}] touches the excluded set and gap skipping is disabled"
        )
    segments = _subtract_gaps(lo, hi, gaps)
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

    def eigs(lam):
        return np.linalg.eigvalsh(_hermitian_part(secular_matrix(system, params, lam)))

    theta_norm = float(np.linalg.norm(params.theta, 2))
    results = []
    for slo, shi in segments:
        for lam, drop in _isolate(eigs, slo, shi, theta_norm):
            metadata["expected_count"] += drop
            w, u = np.linalg.eigh(_hermitian_part(secular_matrix(system, params, lam)))
            near = np.argsort(np.abs(w), kind="stable")[:drop]
            if np.max(np.abs(w[near])) > opts.kernel_tol:
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
    m = secular_matrix(system, params, lam)
    basis = range_basis(params.pi)
    scale = 1.0 + (np.linalg.norm(m, 2) if m.size else 0.0)
    off_range = np.linalg.norm(zeta - basis @ (basis.conj().T @ zeta))
    in_kernel = np.linalg.norm(m @ (basis.conj().T @ zeta)) if m.size else 0.0
    if off_range + in_kernel > KERNEL_RTOL * scale * norm:
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
    """
    lam = float(lam)
    zeta = np.asarray(zeta, dtype=complex)
    norm = np.linalg.norm(zeta)
    if norm > 0:
        zeta = zeta / norm
    excluded = bool(system.excluded.contains(lam))
    distance = float(system.excluded.distance(lam))
    if excluded:
        return EigenpairReport(np.inf, np.inf, distance, True, np.inf, np.inf)
    m = secular_matrix(system, params, lam)
    smin = linalg.min_singular(m) if m.size else np.inf
    basis = range_basis(params.pi)
    kernel_residual = float(
        np.linalg.norm(m @ (basis.conj().T @ zeta)) if m.size else np.inf
    )
    pi, theta = params.pi, params.theta
    range_residual = float(np.linalg.norm(zeta - pi @ zeta))
    coupling_residual = float(
        np.linalg.norm(pi @ (system.gamma(lam) @ zeta) + theta @ zeta)
    )
    return EigenpairReport(
        sigma_min=float(smin),
        kernel_residual=kernel_residual,
        excluded_distance=distance,
        excluded=False,
        range_residual=range_residual,
        coupling_residual=coupling_residual,
    )
