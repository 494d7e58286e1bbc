"""The one place that checks a model's identities.

The residual probes of the identities a Weyl family and an extension must
satisfy, the identity suite :func:`run_verify` built from them, and the
inputs the suite shares with the CLI. Every input is fixed (:func:`z_grid`,
:data:`PRESETS`), so a report is deterministic. Edge inputs come in the
shape the system's maps take.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .krein import ExtensionParams, Resolvent, UnsupportedModelError, WeylSystem, apply_resolvent
from .models import EdgeWeylSystem, PointWeylSystem, poly_bump, sine_mode
from .oracle import simpson_gram
from .parametrize import VonNeumannBlock, defect_gram
from .quad import simpson

__all__ = [
    "PRESETS", "run_verify", "z_grid", "edge_grids", "preset_samples", "BoundaryReport",
    "difference_identity_residual", "conjugation_residual", "green_identity_residual",
    "boundary_condition_residuals",
]


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


def difference_identity_residual(system: WeylSystem, z, v, gram=None):
    """|| (Gamma(z) - Gamma(v)) - (z - v) * gram(z, v) ||_2, a correctness probe.

    Scalars z, v give a float, equal-length 1-D arrays one residual per pair,
    all from one ``system.gamma`` call, which checks every point; a pair with
    z == v gives 0. ``gram`` replaces ``system.gram``: pass an independent
    one (such as :func:`kreinext.oracle.simpson_gram`) so that a closed-form
    Gram matrix is not checked against itself.
    """
    zs, vs = np.atleast_1d(z).astype(complex), np.atleast_1d(v).astype(complex)
    if zs.ndim != 1 or zs.shape != vs.shape:
        raise ValueError(f"need scalars or 1-D arrays of one length, got {zs.shape}, {vs.shape}")
    at_z, at_v = np.split(system.gamma(np.concatenate([zs, vs])), 2)
    gram = gram or system.gram
    res = np.array([
        0.0 if a == b else np.linalg.norm(ga - gb - (a - b) * gram(a, b), 2)
        for a, b, ga, gb in zip(zs.tolist(), vs.tolist(), at_z, at_v)
    ])
    return float(res[0]) if np.ndim(z) == 0 else res


def conjugation_residual(system: WeylSystem, z):
    """|| Gamma(z)^* - Gamma(conj(z)) ||_2, the conjugation identity probe.

    A scalar z gives a float, a 1-D array of m values the m residuals, all
    from one ``system.gamma`` call on z and its conjugates, which checks
    every point. At real z the residual measures the Hermiticity of Gamma.
    """
    res = _conjugation(system, np.atleast_1d(z))[0]
    return float(res[0]) if np.ndim(z) == 0 else res


def _conjugation(system: WeylSystem, zs):
    """(conjugation residuals, Gamma(zs)) at the 1-D array zs."""
    zs = np.asarray(zs, dtype=complex)
    m = zs.shape[0]
    g = system.gamma(np.concatenate([zs, zs.conj()]))
    res = np.linalg.norm(np.swapaxes(g[:m], -2, -1).conj() - g[m:], 2, axis=(-2, -1))
    return res, g[:m]


def green_identity_residual(system: WeylSystem, phi, psi) -> float:
    """Residual of the abstract Lagrange (Green) identity on the doubled boundary space.

    ``phi`` and ``psi`` are pairs ``(regular_part, charge)``: a closed-form
    element of the free operator domain (per edge, for graphs) and the
    boundary vector multiplying the reference deficiency element
    G_* = (G(i) + G(-i)) / 2. The two boundary maps of the triple are the
    charge and the trace of the regular part; the identity pairs the trace
    of one side with the charge of the other. The volume integrals use
    Simpson's rule on 4001 nodes per edge.
    """
    if not isinstance(system, EdgeWeylSystem):
        raise UnsupportedModelError(
            f"model kind {system.kind!r} carries no quadrature trace maps"
        )
    (phi_star, zeta), (psi_star, xi) = phi, psi
    # per side, per edge: (f_*, G(i) charge, G(-i) charge)
    sides = [
        zip(*(system.edges(f) for f in (star, system.g_closed(1j, c), system.g_closed(-1j, c))))
        for star, c in ((phi_star, zeta), (psi_star, xi))
    ]
    lhs = 0.0 + 0.0j
    for length, phi_e, psi_e in zip(system.lengths, *sides):
        x = np.linspace(0.0, length, 4001)
        dx = x[1] - x[0]
        phi_full, phi_image = _lagrange_samples(*phi_e, x)
        psi_full, psi_image = _lagrange_samples(*psi_e, x)
        lhs += simpson(np.conj(phi_full) * psi_image, dx)
        lhs -= simpson(np.conj(phi_image) * psi_full, dx)

    tau_phi = np.asarray(system.traces(phi_star)[1], dtype=complex)
    tau_psi = np.asarray(system.traces(psi_star)[1], dtype=complex)
    rhs = np.vdot(tau_phi, xi) - np.vdot(zeta, tau_psi)
    return float(abs(lhs - rhs))


def _lagrange_samples(star, plus, minus, x):
    """Samples on x of f = f_* + G_* zeta and of its image f_*'' + R(i) G(-i) zeta on
    one edge, from f_* and ``plus`` = G(i) zeta, ``minus`` = G(-i) zeta, each sampled once."""
    gp, gm = plus.f(x), minus.f(x)
    return star.f(x) + 0.5 * (gp + gm), star.d2f(x) + (1.0 / 2j) * (gm - gp)


@dataclass(frozen=True)
class BoundaryReport:
    """Residuals of the two halves of an extension's boundary condition."""

    range_residual: float     # component of the boundary datum outside range(pi)
    coupling_residual: float  # || pi (derivative-type trace) - theta (value-type datum) ||


def boundary_condition_residuals(
    system: WeylSystem, params: ExtensionParams, part, zeta
) -> BoundaryReport:
    """Check the boundary condition of A_{pi,theta} on a decomposed function.

    Interval/graph models: for psi = part + G_* zeta with ``part`` in the
    free domain, reports ||(1 - pi) rho(psi)|| and ||pi tau(psi) - theta rho(psi)||.
    Point models: ``part`` is the continuous part of psi = part + G(0) zeta;
    reports ||(1 - pi) zeta|| and ||pi tau0(psi) - theta zeta|| with tau0 the
    renormalised trace.
    """
    zeta = np.asarray(zeta, dtype=complex)
    pi, theta = params.pi, params.theta
    if isinstance(system, EdgeWeylSystem):
        rho, tau = system.traces(part)
        rho = np.asarray(rho, dtype=complex) + zeta
        at_i, at_minus_i = system.gamma(np.array([1j, -1j]))
        reg = 0.5 * (at_i + at_minus_i)
        tau = np.asarray(tau, dtype=complex) - reg @ zeta
        return BoundaryReport(
            float(np.linalg.norm(rho - pi @ rho)),
            float(np.linalg.norm(pi @ tau - theta @ rho)),
        )
    if isinstance(system, PointWeylSystem):
        tau0 = np.asarray(system.renorm_trace(part, zeta), dtype=complex)
        return BoundaryReport(
            float(np.linalg.norm(zeta - pi @ zeta)),
            float(np.linalg.norm(pi @ tau0 - theta @ zeta)),
        )
    raise UnsupportedModelError(f"model kind {system.kind!r} carries no trace data")


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
    q = defect_gram(system)
    qmin = float(np.linalg.eigvalsh(q).min())
    checks["defect_gram_positive"] = {
        "residual": -min(qmin, 0.0),
        "tolerance": 0.0,
        "passed": qmin > 0.0,
        "smallest_eigenvalue": qmin,
    }

    unit = VonNeumannBlock.from_gram(params, q).unitarity_residual() if qmin > 0.0 else float("inf")
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
    # one resolvent at wb: one Gamma, SVD and solve serve both of its applications
    at_wb = Resolvent(system, params, wb)
    r_w, r_wz = at_wb.apply(psi, grids), at_wb.apply(r_z, grids)
    lhs = (za - wb) * np.concatenate(system.edges(r_wz))
    rhs = np.concatenate(system.edges(r_w)) - np.concatenate(system.edges(r_z))
    scale = np.max(np.abs(np.concatenate(system.edges(psi))))
    checks["resolvent_identity"] = _check(float(np.max(np.abs(lhs - rhs)) / scale), 1e-3)
    return checks
