"""Model-independent self-adjoint extension machinery.

Two objects carry everything: :class:`ExtensionParams`, the pair of an
orthogonal boundary projector and a self-adjoint operator on its range
that labels one extension, and :class:`WeylSystem`, the analytic data of
a concrete model (the Weyl family z -> Gamma(z), the deficiency-element
map G(z), the free resolvent and the boundary traces). On top of those
this module evaluates the Krein resolvent correction, decides which
spectral parameters are regular for a given extension, and provides the
residual probes for the identities the Weyl family must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .quad import simpson

__all__ = [
    "SINGULARITY_RTOL",
    "PARAMS_RTOL",
    "MIN_EDGE_NODES",
    "ExcludedPointError",
    "ExtensionSingularError",
    "ModelConsistencyError",
    "UnsupportedModelError",
    "GridTooCoarseError",
    "SmoothFunction",
    "TraceMaps",
    "WeylSystem",
    "ExtensionParams",
    "ValidationReport",
    "BoundaryReport",
    "GreenCombination",
    "DirichletExclusions",
    "HalfLineExclusions",
    "validate_params",
    "range_basis",
    "kernel_basis",
    "secular_matrix",
    "is_regular_point",
    "krein_correction",
    "apply_resolvent",
    "apply_resolvent_green",
    "green_norm",
    "difference_identity_residual",
    "conjugation_residual",
    "green_identity_residual",
    "boundary_condition_residuals",
]

SINGULARITY_RTOL = 1e-12
PARAMS_RTOL = 1e-12
MIN_EDGE_NODES = 501


class ExcludedPointError(ValueError):
    """Spectral parameter lies in (or hugs) the excluded spectrum of the free operator."""


class ExtensionSingularError(ValueError):
    """z is not a regular point of the extension: the secular matrix is singular."""

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = float(sigma_min)


class ModelConsistencyError(RuntimeError):
    """A structural guarantee of the theory failed numerically; the model is buggy."""


class UnsupportedModelError(ValueError):
    """The requested operation needs analytic data this model does not carry."""


class GridTooCoarseError(ValueError):
    """Sample grid below the documented quadrature floor."""


# ---------------------------------------------------------------------------
# closed-form scalar functions


@dataclass(frozen=True)
class SmoothFunction:
    """A function given by value, derivative and second-derivative callables.

    Used wherever an operation needs exact traces or exact images under the
    differential operator (Green identity probes, boundary residuals);
    supports the linear arithmetic needed to assemble such inputs.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.f(x)

    def __add__(self, other: "SmoothFunction") -> "SmoothFunction":
        return SmoothFunction(
            lambda x, a=self, b=other: a.f(x) + b.f(x),
            lambda x, a=self, b=other: a.df(x) + b.df(x),
            lambda x, a=self, b=other: a.d2f(x) + b.d2f(x),
        )

    def __sub__(self, other: "SmoothFunction") -> "SmoothFunction":
        return self + (-1.0) * other

    def __mul__(self, c) -> "SmoothFunction":
        c = complex(c)
        return SmoothFunction(
            lambda x, a=self: c * a.f(x),
            lambda x, a=self: c * a.df(x),
            lambda x, a=self: c * a.d2f(x),
        )

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# excluded spectral sets


class DirichletExclusions:
    """Union of edge Dirichlet spectra {-(n pi / a_e)^2 : n >= 1}.

    Each pole carries a guard radius of ``guard_rel`` times the local pole
    spacing; evaluation inside a guard ball is refused to avoid the
    catastrophic cancellation of sin(sqrt(-z) a) near its zeros.
    """

    guard_rel = 1e-8

    def __init__(self, lengths: Sequence[float]):
        self.lengths = tuple(float(a) for a in lengths)
        if not self.lengths or any(a <= 0 for a in self.lengths):
            raise ValueError("edge lengths must be positive")

    def _candidates(self, z: complex, a: float):
        base = np.sqrt(max(-z.real, 0.0)) * a / np.pi
        for n in {max(1, int(np.floor(base))), max(1, int(np.ceil(base))), 1}:
            yield n, -((n * np.pi / a) ** 2)

    def _guard(self, n: int, a: float) -> float:
        return self.guard_rel * (2 * n + 1) * (np.pi / a) ** 2

    def distance(self, z) -> float:
        z = complex(z)
        return min(
            abs(z - pole) for a in self.lengths for _, pole in self._candidates(z, a)
        )

    def contains(self, z) -> bool:
        z = complex(z)
        for a in self.lengths:
            for n, pole in self._candidates(z, a):
                if abs(z - pole) <= self._guard(n, a):
                    return True
        return False

    def gaps_in(self, lo: float, hi: float):
        # reported gaps are twice the evaluation guard, so scanning up to a
        # gap edge can never land inside a guard ball
        gaps = []
        for a in self.lengths:
            n_lo = max(1, int(np.ceil(np.sqrt(max(-hi, 0.0)) * a / np.pi - 1e-12)))
            n_hi = int(np.floor(np.sqrt(max(-lo, 0.0)) * a / np.pi + 1e-12))
            for n in range(max(1, n_lo - 1), n_hi + 2):
                pole = -((n * np.pi / a) ** 2)
                g = 2.0 * self._guard(n, a)
                if pole + g >= lo and pole - g <= hi:
                    gaps.append((max(lo, pole - g), min(hi, pole + g)))
        return _merge_intervals(gaps)

    def describe(self) -> str:
        return "union of edge Dirichlet spectra {-(n*pi/a)^2, n>=1} for a in " + str(
            self.lengths
        )


class HalfLineExclusions:
    """The half line (-inf, upper] on the real axis."""

    def __init__(self, upper: float):
        self.upper = float(upper)

    def distance(self, z) -> float:
        z = complex(z)
        if z.real <= self.upper:
            return abs(z.imag)
        return abs(z - self.upper)

    def contains(self, z) -> bool:
        z = complex(z)
        return z.imag == 0.0 and z.real <= self.upper

    def gaps_in(self, lo: float, hi: float):
        if lo <= self.upper:
            return [(lo, min(hi, self.upper))]
        return []

    def describe(self) -> str:
        return f"the half line (-inf, {self.upper!r}]"


def _merge_intervals(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# model data


@dataclass(frozen=True)
class TraceMaps:
    """Boundary value (rho) and boundary derivative (tau) maps on closed forms."""

    rho: Callable
    tau: Callable


@dataclass(frozen=True)
class WeylSystem:
    """Analytic engine of one model.

    Fields
    ------
    n : boundary-space dimension.
    kind : "interval" | "graph" | "points" | "spin_points".
    excluded : the spectrum of the free operator, as an exclusion set object.
    gamma : z -> n x n Weyl matrix.
    gram : (z, w) -> n x n Gram matrix G(conj(w))^* G(z) of deficiency elements.
    g_apply : (z, zeta, grid) -> samples of the deficiency element G(z) zeta.
    r_apply : (z, samples, grid) -> samples of the free resolvent (quadrature models).
    g_adjoint_apply : (z, samples, grid) -> C^n, the map G(conj(z))^* on samples.
    trace_maps : rho/tau on closed-form functions (interval and graph models).
    g_closed : (z, zeta) -> per-edge closed forms of G(z) zeta (interval/graph).
    renorm_trace : renormalised trace (point-interaction models).
    edge_lengths : per-edge lengths for grid construction (interval/graph).

    Instances are immutable; every callable is pure, so systems may be
    evaluated concurrently over spectral or sample grids without restriction.
    """

    n: int
    kind: str
    excluded: object
    gamma: Callable[[complex], np.ndarray]
    gram: Callable[[complex, complex], np.ndarray]
    g_apply: Callable
    r_apply: Optional[Callable] = None
    g_adjoint_apply: Optional[Callable] = None
    trace_maps: Optional[TraceMaps] = None
    g_closed: Optional[Callable] = None
    renorm_trace: Optional[Callable] = None
    edge_lengths: Optional[tuple] = None

    def require_admissible(self, z) -> complex:
        z = complex(z)
        if self.excluded.contains(z):
            raise ExcludedPointError(
                f"z={z} lies in the excluded spectral set: {self.excluded.describe()}"
            )
        return z


# ---------------------------------------------------------------------------
# extension parameters


@dataclass(frozen=True)
class ExtensionParams:
    """Label of one self-adjoint extension: projector ``pi`` and operator ``theta``.

    ``theta`` is stored embedded in C^n with ``pi @ theta @ pi == theta``;
    compression to the projector range happens inside the operations that
    need it, so parameter pairs stay composable without carrying basis data.
    """

    pi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", linalg.as_square(self.pi))
        object.__setattr__(self, "theta", linalg.as_square(self.theta))
        if self.pi.shape != self.theta.shape:
            raise ValueError(
                f"projector and operator dimensions differ: {self.pi.shape} vs {self.theta.shape}"
            )

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @classmethod
    def full(cls, theta) -> "ExtensionParams":
        """Relatively prime extension: pi = identity."""
        theta = linalg.as_square(theta)
        return cls(np.eye(theta.shape[0], dtype=complex), theta)

    @classmethod
    def trivial(cls, n: int) -> "ExtensionParams":
        """pi = 0: the extension is the free operator itself."""
        z = np.zeros((n, n), dtype=complex)
        return cls(z, z.copy())

    @classmethod
    def from_range_basis(cls, vectors, theta_block, dim: int | None = None) -> "ExtensionParams":
        """Build (pi, theta) from spanning vectors and the operator block on their span."""
        pi = linalg.projector_from_span(vectors, dim=dim)
        v = linalg.orthonormal_span(
            vectors if isinstance(vectors, np.ndarray) else np.stack(
                [np.asarray(x, dtype=complex) for x in vectors], axis=1
            )
        )
        tb = linalg.as_square(theta_block)
        if tb.shape[0] != v.shape[1]:
            raise ValueError("operator block does not match the span dimension")
        return cls(pi, v @ tb @ v.conj().T)


@dataclass(frozen=True)
class ValidationReport:
    residuals: dict
    tolerance: float
    passed: bool

    def __str__(self):
        lines = [f"valid={self.passed} (tolerance {self.tolerance:g})"]
        lines += [f"  {k}: {v:.3e}" for k, v in self.residuals.items()]
        return "\n".join(lines)


def validate_params(params: ExtensionParams) -> ValidationReport:
    """Check the defining invariants of an extension label.

    Reports Frobenius residuals of: projector idempotence, projector
    self-adjointness, operator self-adjointness, and the range condition
    pi theta pi = theta. Passes iff every residual is at most
    ``1e-12 * (1 + ||.||_F)`` of the matrix it constrains.
    """
    pi, theta = params.pi, params.theta
    scale_pi = 1.0 + np.linalg.norm(pi)
    scale_th = 1.0 + np.linalg.norm(theta)
    residuals = {
        "projector_idempotent": np.linalg.norm(pi @ pi - pi) / scale_pi,
        "projector_selfadjoint": np.linalg.norm(pi - pi.conj().T) / scale_pi,
        "operator_selfadjoint": np.linalg.norm(theta - theta.conj().T) / scale_th,
        "operator_on_range": np.linalg.norm(pi @ theta @ pi - theta) / scale_th,
    }
    passed = all(v <= PARAMS_RTOL for v in residuals.values())
    return ValidationReport(residuals, PARAMS_RTOL, passed)


def require_valid(params: ExtensionParams) -> None:
    report = validate_params(params)
    if not report.passed:
        raise ValueError(f"invalid extension parameters:\n{report}")


def range_basis(pi) -> np.ndarray:
    """Orthonormal basis (columns) of the range of an orthogonal projector."""
    vals, vecs = linalg.hermitian_eig(pi)
    return vecs[:, vals > 0.5]


def kernel_basis(pi) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of an orthogonal projector."""
    vals, vecs = linalg.hermitian_eig(pi)
    return vecs[:, vals <= 0.5]


# ---------------------------------------------------------------------------
# secular matrix, regular points, Krein correction


def secular_matrix(system: WeylSystem, params: ExtensionParams, z) -> np.ndarray:
    """Compression of theta + pi Gamma(z) pi to an orthonormal basis of range(pi).

    The vanishing of its determinant at real admissible lambda is the
    secular equation for the point spectrum; its inverse drives the Krein
    correction. For pi = 0 the 0 x 0 matrix is returned. A non-finite
    matrix raises :class:`ModelConsistencyError`, so no NaN reaches LAPACK.
    """
    z = system.require_admissible(z)
    v = range_basis(params.pi)
    if v.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    m = v.conj().T @ (params.theta + system.gamma(z)) @ v
    if not np.all(np.isfinite(m)):
        raise ModelConsistencyError(f"secular matrix is not finite at z={z}")
    return m


def _secular_sigma(system, params, z):
    m = secular_matrix(system, params, z)
    if m.shape[0] == 0:
        return m, np.inf, 0.0
    smin = linalg.min_singular(m)
    return m, smin, float(np.linalg.norm(m, 2))


def is_regular_point(system: WeylSystem, params: ExtensionParams, z) -> bool:
    """True iff the Krein formula holds at z for this extension.

    Nonreal z are regular for every valid parameter pair; a singular
    secular matrix off the real axis therefore raises
    :class:`ModelConsistencyError` instead of returning False.
    """
    z = complex(z)
    _, smin, norm = _secular_sigma(system, params, z)
    ok = smin > SINGULARITY_RTOL * (1.0 + norm)
    if not ok and z.imag != 0.0:
        raise ModelConsistencyError(
            f"secular matrix singular at nonreal z={z} (sigma_min={smin:.3e}); "
            "the Weyl family violates its defining identities"
        )
    return ok


def krein_correction(system: WeylSystem, params: ExtensionParams, z) -> np.ndarray:
    """The boundary-space factor pi (theta + pi Gamma(z) pi)^{-1} pi, embedded in C^n."""
    z = complex(z)
    v = range_basis(params.pi)
    n = params.n
    if v.shape[1] == 0:
        return np.zeros((n, n), dtype=complex)
    m, smin, norm = _secular_sigma(system, params, z)
    if smin <= SINGULARITY_RTOL * (1.0 + norm):
        if z.imag != 0.0:
            raise ModelConsistencyError(
                f"secular matrix singular at nonreal z={z} (sigma_min={smin:.3e})"
            )
        raise ExtensionSingularError(
            f"z={z} is in the extension's point spectrum to working precision "
            f"(sigma_min={smin:.3e})",
            smin,
        )
    return v @ np.linalg.solve(m, v.conj().T)


# ---------------------------------------------------------------------------
# resolvent application


def _is_edge_list(obj):
    return isinstance(obj, (list, tuple))


def _check_grid(system: WeylSystem, grid) -> None:
    grids = grid if _is_edge_list(grid) else [grid]
    for g in grids:
        if np.shape(g)[0] < MIN_EDGE_NODES:
            raise GridTooCoarseError(
                f"need at least {MIN_EDGE_NODES} nodes per edge, got {np.shape(g)[0]}"
            )


def _combine(a, b):
    if _is_edge_list(a):
        return [x + y for x, y in zip(a, b)]
    return a + b


def apply_resolvent(system: WeylSystem, params: ExtensionParams, z, psi, grid):
    """Samples of the extension resolvent applied to sampled input.

    Computes free-resolvent samples plus the rank-<= n Krein correction
    G(z) C(z) G(conj(z))^* psi. Available for models with quadrature trace
    data (interval, graph); point-interaction models use
    :func:`apply_resolvent_green`.
    """
    if system.r_apply is None or system.g_adjoint_apply is None:
        raise UnsupportedModelError(
            f"model kind {system.kind!r} has no sampled resolvent; "
            "use apply_resolvent_green with a Green-function combination"
        )
    require_valid(params)
    _check_grid(system, grid)
    z = system.require_admissible(z)
    free = system.r_apply(z, psi, grid)
    if range_basis(params.pi).shape[1] == 0:
        return free
    corr = krein_correction(system, params, z)
    weights = corr @ system.g_adjoint_apply(z, psi, grid)
    return _combine(free, system.g_apply(z, weights, grid))


@dataclass(frozen=True)
class GreenCombination:
    """Finite combination sum_j G(z_j) c_j of deficiency elements."""

    terms: tuple  # of (z_j, coefficient vector in C^n)

    def coefficient(self, z) -> np.ndarray | None:
        for zj, cj in self.terms:
            if zj == z:
                return cj
        return None


def apply_resolvent_green(
    system: WeylSystem, params: ExtensionParams, z, combo: GreenCombination
) -> GreenCombination:
    """Extension resolvent applied to a Green-function combination, in closed form.

    Uses the resolvent difference identity R(z) G(w) = (G(z) - G(w)) / (w - z)
    and the Gram matrix for the adjoint factor, so no volume quadrature is
    needed; this is the supported route for point-interaction models. z must
    differ from every combination node.
    """
    require_valid(params)
    z = system.require_admissible(z)
    n = system.n
    adjoint = np.zeros(n, dtype=complex)
    new_terms: dict = {}
    for zj, cj in combo.terms:
        zj = system.require_admissible(zj)
        cj = np.asarray(cj, dtype=complex)
        if zj == z:
            raise ValueError(
                "the spectral parameter must differ from every node of the combination"
            )
        adjoint += system.gram(zj, z) @ cj
        new_terms[z] = new_terms.get(z, 0) + cj / (zj - z)
        new_terms[zj] = new_terms.get(zj, 0) - cj / (zj - z)
    corr = krein_correction(system, params, z)
    new_terms[z] = new_terms.get(z, 0) + corr @ adjoint
    return GreenCombination(tuple((zk, np.asarray(ck)) for zk, ck in new_terms.items()))


def green_norm(system: WeylSystem, combo: GreenCombination) -> float:
    """Hilbert-space norm of a Green-function combination via the Gram matrix."""
    total = 0.0 + 0.0j
    for zi, ci in combo.terms:
        for zj, cj in combo.terms:
            total += np.vdot(ci, system.gram(zj, np.conj(zi)) @ cj)
    return float(np.sqrt(max(total.real, 0.0)))


# ---------------------------------------------------------------------------
# identity residual probes


def difference_identity_residual(system: WeylSystem, z, v) -> float:
    """|| (Gamma(z) - Gamma(v)) - (z - v) * gram(z, v) ||, a correctness probe."""
    z = system.require_admissible(z)
    v = system.require_admissible(v)
    if z == v:
        return 0.0
    return float(
        np.linalg.norm(system.gamma(z) - system.gamma(v) - (z - v) * system.gram(z, v), 2)
    )


def conjugation_residual(system: WeylSystem, z) -> float:
    """|| Gamma(z)^* - Gamma(conj(z)) ||."""
    z = system.require_admissible(z)
    system.require_admissible(np.conj(z))
    return float(
        np.linalg.norm(system.gamma(z).conj().T - system.gamma(np.conj(z)), 2)
    )


def _edge_parts(system: WeylSystem, obj):
    if system.kind == "interval":
        return [obj]
    return list(obj)


def green_identity_residual(system: WeylSystem, phi, psi, n_nodes: int = 4001) -> float:
    """Residual of the abstract Lagrange (Green) identity on the doubled boundary space.

    ``phi`` and ``psi`` are pairs ``(regular_part, charge)``: a closed-form
    element of the free operator domain (per edge, for graphs) and the
    boundary vector multiplying the reference deficiency element
    G_* = (G(i) + G(-i)) / 2. The two boundary maps of the triple are the
    charge and the trace of the regular part; the identity pairs the trace
    of one side with the charge of the other.
    """
    if system.g_closed is None or system.trace_maps is None or system.edge_lengths is None:
        raise UnsupportedModelError(
            f"model kind {system.kind!r} carries no quadrature trace maps"
        )
    (phi_star, zeta), (psi_star, xi) = phi, psi
    zeta = np.asarray(zeta, dtype=complex)
    xi = np.asarray(xi, dtype=complex)

    def assemble(star, charge):
        star_edges = _edge_parts(system, star)
        plus = system.g_closed(1j, charge)
        minus = system.g_closed(-1j, charge)
        full, image = [], []
        for fs, gp, gm in zip(star_edges, plus, minus):
            g_star = 0.5 * (gp + gm)
            rg = (1.0 / 2j) * (gm - gp)  # free resolvent at i applied to G(-i) charge
            full.append(fs + g_star)
            image.append(lambda x, a=fs, b=rg: a.d2f(x) + b.f(x))
        return full, image

    phi_full, s_phi = assemble(phi_star, zeta)
    psi_full, s_psi = assemble(psi_star, xi)

    lhs = 0.0 + 0.0j
    for length, pf, sp_, qf, sq in zip(
        system.edge_lengths, phi_full, s_phi, psi_full, s_psi
    ):
        x = np.linspace(0.0, length, n_nodes)
        dx = x[1] - x[0]
        lhs += simpson(np.conj(pf(x)) * sq(x), dx)
        lhs -= simpson(np.conj(sp_(x)) * qf(x), dx)

    tau_phi = np.asarray(system.trace_maps.tau(phi_star), dtype=complex)
    tau_psi = np.asarray(system.trace_maps.tau(psi_star), dtype=complex)
    rhs = np.vdot(tau_phi, xi) - np.vdot(zeta, tau_psi)
    return float(abs(lhs - rhs))


@dataclass(frozen=True)
class BoundaryReport:
    """Residuals of the two halves of an extension's boundary condition."""

    range_residual: float     # component of the boundary datum outside range(pi)
    coupling_residual: float  # || pi (derivative-type trace) - theta (value-type datum) ||

    def passes(self, tol: float = 1e-10) -> bool:
        return self.range_residual <= tol and self.coupling_residual <= tol


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
    if system.trace_maps is not None:
        rho = np.asarray(system.trace_maps.rho(part), dtype=complex) + zeta
        reg = 0.5 * (system.gamma(1j) + system.gamma(-1j))
        tau = np.asarray(system.trace_maps.tau(part), dtype=complex) - reg @ zeta
        return BoundaryReport(
            float(np.linalg.norm(rho - pi @ rho)),
            float(np.linalg.norm(pi @ tau - theta @ rho)),
        )
    if system.renorm_trace is not None:
        tau0 = np.asarray(system.renorm_trace(part, zeta), dtype=complex)
        return BoundaryReport(
            float(np.linalg.norm(zeta - pi @ zeta)),
            float(np.linalg.norm(pi @ tau0 - theta @ zeta)),
        )
    raise UnsupportedModelError(f"model kind {system.kind!r} carries no trace data")
