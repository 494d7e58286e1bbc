"""Identity suite of a model's Weyl family, and the inputs it shares with the CLI.

Every input is fixed (:func:`z_grid`, :data:`PRESETS`), so a report is
deterministic. Edge inputs come in the shape the system's maps take.
"""

from __future__ import annotations

import functools

import numpy as np

from .krein import (
    EdgeWeylSystem,
    ExtensionParams,
    WeylSystem,
    _conjugation,
    apply_resolvent,
    difference_identity_residual,
    green_identity_residual,
)
from .models import poly_bump, sine_mode
from .oracle import simpson_gram
from .parametrize import _defect_gram, _von_neumann_block

__all__ = ["PRESETS", "run_verify", "z_grid", "edge_grids", "preset_samples"]


def z_grid(system: WeylSystem):
    """(complex points, real points) of the suite: offsets from 0 on edge
    models and from the top of the excluded half line on point models."""
    base = 0.0 if isinstance(system, EdgeWeylSystem) else system.excluded.upper
    complex_points = [
        base + w
        for w in (
            0.5 + 0.8j, 1.5 - 0.6j, 2.0 + 2.0j, -3.0 + 0.5j, 0.1 + 0.4j,
            4.0 - 3.0j, 0.7 + 0.05j, 2.5 - 1.5j, -1.0 + 1.0j, 3.3 + 0.9j,
            -5.0 - 0.7j, 1.1 + 3.0j, 0.2 - 0.2j, 6.0 + 1.0j,
        )
    ]
    real_points = [base + t for t in (0.3, 0.7, 1.3, 2.9, 4.7, 6.1)]
    return complex_points, real_points


def edge_grids(system: EdgeWeylSystem, nodes: int):
    """Uniform grids of ``nodes`` nodes on every edge, in the system's shape."""
    return system.shaped([np.linspace(0.0, length, nodes) for length in system.lengths])


def _green_column(length: float, z: complex, center: float, x: np.ndarray) -> np.ndarray:
    """The free resolvent kernel of the edge (0, length) at z, one end at ``center``."""
    lo = np.minimum(x, center)
    hi = np.maximum(x, center)
    if z == 0:
        return (lo * (length - hi) / length).astype(complex)
    k = np.sqrt(complex(-z))
    return np.sin(k * lo) * np.sin(k * (length - hi)) / (k * np.sin(k * length))


# Sample inputs by name: (spec, edge length, z, grid) -> samples on the edge.
PRESETS = {
    "sin_k": lambda spec, a, z, x: np.sin(int(spec.get("k", 1)) * np.pi * x / a).astype(complex),
    "poly_bump": lambda spec, a, z, x: poly_bump(a)(x),
    "green_at_center": lambda spec, a, z, x: _green_column(a, z, a / 2.0, x),
}


def preset_samples(system: EdgeWeylSystem, spec: dict, z: complex, grids):
    """Samples of ``PRESETS[spec["preset"]]`` on ``grids``, in the system's shape."""
    preset = PRESETS[spec.get("preset")]
    return system.shaped(
        [preset(spec, a, z, x) for a, x in zip(system.lengths, system.edges(grids))]
    )


def _check(residual, tolerance) -> dict:
    return {"residual": residual, "tolerance": tolerance, "passed": residual <= tolerance}


def run_verify(system: WeylSystem, params: ExtensionParams) -> dict:
    """Identity suite of a model's Weyl family, one residual report per check.

    Every model gets the conjugation and difference identities, a positive
    defect Gram matrix and a unitary von Neumann block. Edge models add the
    determinant, Green and resolvent identities, point models Hermitian
    symmetry on the real axis.
    """
    edge = isinstance(system, EdgeWeylSystem)
    checks = {}
    complex_points, real_points = z_grid(system)
    grid20 = (complex_points + real_points)[:20]

    # one Gamma call serves the conjugation, Hermiticity and determinant checks
    conj, gammas = _conjugation(system, np.asarray(grid20))
    checks["conjugation"] = _check(max(conj.tolist()), 1e-12)

    # seven pairs of complex points; edge models: Simpson quadrature,
    # independent of their closed-form Gram
    gram = functools.partial(simpson_gram, system.lengths) if edge else None
    diff = difference_identity_residual(system, complex_points[0::2], complex_points[1::2], gram)
    checks["difference_identity"] = _check(max(diff.tolist()), 1e-8 if edge else 1e-12)

    # one Gamma(i) serves the defect Gram check and the von Neumann block
    qmat = _defect_gram(system)
    qmin = float(np.linalg.eigvalsh(qmat).min())
    checks["defect_gram_positive"] = {
        "residual": -min(qmin, 0.0),
        "tolerance": 0.0,
        "passed": qmin > 0.0,
        "smallest_eigenvalue": qmin,
    }

    unit = _von_neumann_block(params, qmat).unitarity_residual() if qmin > 0.0 else float("inf")
    checks["gram_unitarity"] = {
        "residual": unit if np.isfinite(unit) else 1.0,
        "tolerance": 1e-8,
        "passed": bool(np.isfinite(unit) and unit <= 1e-8),
        "skipped_degenerate_gram": not np.isfinite(unit),
    }

    if not edge:
        # at real lambda the conjugation identity is Hermiticity
        herm = max(conj[len(complex_points) :].tolist())
        checks["hermitian_on_reals"] = _check(herm, 1e-12)
        return checks

    # each edge's 2 x 2 diagonal block of Gamma(z) has determinant z
    blocks = np.stack([gammas[:, k : k + 2, k : k + 2] for k in range(0, system.n, 2)], axis=1)
    det_res = max(
        abs(det - z) / (1.0 + abs(z)) for z, dets in zip(grid20, np.linalg.det(blocks)) for det in dets
    )
    checks["determinant_identity"] = _check(det_res, 1e-10)

    n = system.n
    zeta = np.array([(0.4 + 0.3j) ** (i + 1) for i in range(n)])
    xi = np.array([(0.7 - 0.2j) ** (i + 1) + 0.1 for i in range(n)])
    lengths = list(enumerate(system.lengths))
    phi_star = system.shaped([sine_mode(np.pi / a) * (1.0 / (e + 1)) for e, a in lengths])
    psi_star = system.shaped([sine_mode(2 * np.pi / a) * (0.5 + 0.25 * e) for e, a in lengths])
    green = green_identity_residual(system, (phi_star, zeta), (psi_star, xi))
    checks["green_identity"] = _check(green, 1e-4)

    grids = edge_grids(system, 2000)
    psi = preset_samples(system, {"preset": "poly_bump"}, 1 + 1j, grids)
    za, wb = 1 + 1j, 2 - 1j
    r_z = apply_resolvent(system, params, za, psi, grids)
    r_w = apply_resolvent(system, params, wb, psi, grids)
    r_wz = apply_resolvent(system, params, wb, r_z, grids)
    lhs = (za - wb) * np.concatenate(system.edges(r_wz))
    rhs = np.concatenate(system.edges(r_w)) - np.concatenate(system.edges(r_z))
    scale = np.max(np.abs(np.concatenate(system.edges(psi))))
    checks["resolvent_identity"] = _check(float(np.max(np.abs(lhs - rhs)) / scale), 1e-3)
    return checks
