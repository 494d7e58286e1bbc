"""Model-independent self-adjoint extension machinery: the Krein formula.

Two objects carry the data: :class:`ExtensionParams`, the pair of an
orthogonal boundary projector and a self-adjoint operator on its range
that labels one extension (checked when it is built, and carrying the
range and kernel bases of the projector), and :class:`WeylSystem`, the
analytic data of a concrete model (the Weyl family z -> Gamma(z) and the
deficiency-element map G(z)). Its two subclasses add what one model family has:
:class:`EdgeWeylSystem` the free resolvent and the boundary traces of
intervals and graphs, :class:`PointWeylSystem` the renormalised trace of
point interactions. On top of those, :class:`Resolvent` is the extension's
resolvent at one spectral parameter by the Krein formula: it judges whether
z is regular, forms the correction and applies the resolvent. The probes of
the identities the Weyl family must satisfy live in :mod:`kreinext.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg
# unused here: bench/tracer.py wraps it, and bench/test_bench.py reads it back
from .quad import simpson  # noqa: F401

__all__ = [
    "SINGULARITY_RTOL",
    "PARAMS_RTOL",
    "MIN_EDGE_NODES",
    "ExcludedPointError",
    "ExtensionSingularError",
    "ModelConsistencyError",
    "UnsupportedModelError",
    "GridTooCoarseError",
    "GridMismatchError",
    "SmoothFunction",
    "WeylSystem",
    "EdgeWeylSystem",
    "PointWeylSystem",
    "ExtensionParams",
    "ValidationReport",
    "GreenCombination",
    "Resolvent",
    "DirichletExclusions",
    "HalfLineExclusions",
    "check_admissible",
    "validate_params",
    "secular_matrix",
    "is_regular_point",
    "krein_correction",
    "apply_resolvent",
    "apply_resolvent_green",
    "green_norm",
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


class GridMismatchError(ValueError):
    """Sample grid that does not span its edge uniformly, or samples of another length."""


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
        self._a = np.array(self.lengths)
        self._unit = np.float_power(np.pi / self._a, 2)  # (pi / a)^2 as Python computes it

    def _nearest(self, z):
        """Distances to the candidate poles nearest z, with their indices n.

        Per edge the candidates are n = floor and ceil of sqrt(-Re z) a / pi,
        raised to 1, for all edges and points at once; the arrays have shape
        (*z.shape, 2, edges). Below n = 2 the floor is the pole n = 1, so
        that pole needs no candidate of its own. Squares go through
        ``float_power`` (C ``pow``) and moduli through ``hypot``, as in
        Python float arithmetic, so an array gets the same answers as its
        entries one by one.
        """
        z = np.asarray(z, dtype=complex)
        zr, zi = z.real[..., None, None], z.imag[..., None, None]
        base = np.sqrt(np.maximum(-zr, 0.0)) * self._a / np.pi
        n = np.maximum(np.concatenate([np.floor(base), np.ceil(base)], -2), 1.0)
        pole = -np.float_power(n * np.pi / self._a, 2)
        return np.hypot(zr - pole, zi), n

    def distance(self, z) -> float:
        """Distance from the scalar z to the nearest edge Dirichlet eigenvalue."""
        return float(np.min(self._nearest(complex(z))[0]))

    def contains(self, z):
        """True where z (a scalar or an array) lies in a guard ball."""
        dist, n = self._nearest(z)
        hit = (dist <= self.guard_rel * (2 * n + 1) * self._unit).any(axis=(-2, -1))
        return hit if hit.ndim else bool(hit)

    def gaps_in(self, lo: float, hi: float):
        # reported gaps are twice the evaluation guard, so scanning up to a
        # gap edge can never land inside a guard ball; each edge's candidate
        # poles are one array, squared by float_power (C pow, as Python's **)
        gaps = []
        for a, unit in zip(self.lengths, self._unit.tolist()):
            n_lo = max(1, int(np.ceil(np.sqrt(max(-hi, 0.0)) * a / np.pi - 1e-12)))
            n_hi = int(np.floor(np.sqrt(max(-lo, 0.0)) * a / np.pi + 1e-12))
            n = np.arange(max(1, n_lo - 1), n_hi + 2, dtype=float)
            pole = -np.float_power(n * np.pi / a, 2)
            g = 2.0 * (self.guard_rel * (2 * n + 1) * unit)
            meets = (pole + g >= lo) & (pole - g <= hi)
            gaps += zip(np.maximum(lo, pole - g)[meets].tolist(), np.minimum(hi, pole + g)[meets].tolist())
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

    def contains(self, z):
        """True where z (a scalar or an array) lies on the half line."""
        z = np.asarray(z, dtype=complex)
        hit = (z.imag == 0.0) & (z.real <= self.upper)
        return hit if hit.ndim else bool(hit)

    def gaps_in(self, lo: float, hi: float):
        if lo <= self.upper:
            return [(lo, min(hi, self.upper))]
        return []

    def describe(self) -> str:
        return f"the half line (-inf, {self.upper!r}]"


def check_admissible(excluded, z) -> None:
    """Raise :class:`ExcludedPointError` naming the first entry of z inside ``excluded``.

    ``z`` is a scalar or an array; every entry is checked by one vectorised
    ``excluded.contains`` call. A NaN or infinite entry is no spectral
    parameter: it raises ``ValueError`` naming it, before the exclusion test.
    """
    finite = np.isfinite(z)
    if not finite.all():
        bad = complex(np.ravel(z)[np.argmin(np.ravel(finite))])
        raise ValueError(f"z={bad} is not a finite spectral parameter")
    hit = np.asarray(excluded.contains(z))
    if hit.any():
        bad = complex(np.ravel(z)[np.argmax(np.ravel(hit))])
        raise ExcludedPointError(
            f"z={bad} lies in the excluded spectral set: {excluded.describe()}"
        )


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
class WeylSystem:
    """Analytic engine of one model: what every model carries.

    Fields
    ------
    n : boundary-space dimension.
    kind : "interval", "graph", "points" or "spin_points"; a label only.
    excluded : the spectrum of the free operator, as an exclusion set object.
    gamma : the Weyl family. A scalar z gives the n x n matrix Gamma(z); a 1-D
        array of m values gives the (m, n, n) stack Gamma(z_0), ..., Gamma(z_m-1),
        bit-for-bit equal to m scalar calls. Every z is checked against
        ``excluded`` first; one excluded entry raises :class:`ExcludedPointError`
        naming it.
    gram : (z, w) -> n x n Gram matrix G(conj(w))^* G(z) of deficiency elements,
        a closed form in every model (it feeds the Green-combination route).
    g_apply : (z, zeta, grid) -> samples of the deficiency element G(z) zeta.

    :class:`EdgeWeylSystem` and :class:`PointWeylSystem` add each family's
    data. Instances are immutable and every callable is pure, so systems may
    be evaluated concurrently without restriction.
    """

    n: int
    kind: str
    excluded: object
    gamma: Callable[[complex], np.ndarray]
    gram: Callable[[complex, complex], np.ndarray]
    g_apply: Callable


@dataclass(frozen=True)
class EdgeWeylSystem(WeylSystem):
    """Weyl system of a metric graph, or of the interval as its one edge.

    Functions on the edges are lists with one entry per edge (edge k owns
    boundary coordinates 2k and 2k + 1); with ``bare`` set, on the interval,
    they are that one entry itself. :meth:`edges` and :meth:`shaped` convert,
    and :meth:`edges` raises :class:`GridMismatchError` for any number of
    entries but one per edge. Every map below takes edge functions, samples
    and grids in that shape and returns edge functions and samples in it.

    ``sampled_kernels(z, grid)`` builds the one
    :class:`~kreinext.models.SampledKernels` of z on the edge grids: it
    checks z, evaluates sin(kx) and sin(k(a - x)), k = sqrt(-z), once per
    edge, and serves the free resolvent, G(conj(z))^* and G(z) as its
    methods ``resolvent``, ``adjoint`` and ``apply``; ``g_apply(z, zeta,
    grid)`` is its ``apply``. Its quadrature methods raise
    :class:`GridMismatchError` unless each grid runs uniformly from 0 to the
    edge length and the samples have its length; ``apply`` and ``g_apply``
    take any points. ``traces(parts, grid=None)`` is the pair (rho, tau) in
    C^n of boundary values and inward derivatives: of closed forms, or of
    uniform samples on ``grid`` by one-sided fourth-order stencils.
    ``g_closed(z, zeta)`` checks z and gives the closed form of G(z) zeta on
    each edge, in the system's shape. A zeta whose length is not n raises
    ``ValueError``.
    """

    lengths: tuple
    sampled_kernels: Callable
    traces: Callable
    g_closed: Callable
    bare: bool = False

    def edges(self, obj) -> list:
        """``obj`` (samples, grids or closed forms) as a list with one entry per edge.

        Raises :class:`GridMismatchError` unless ``obj`` has one entry per edge.
        """
        if self.bare:
            return [obj]
        parts = list(obj)
        if len(parts) != len(self.lengths):
            raise GridMismatchError(
                f"need one entry per edge: {len(parts)} for {len(self.lengths)} edges"
            )
        return parts

    def shaped(self, parts):
        """A list with one entry per edge, in the shape this system takes and returns."""
        return parts[0] if self.bare else list(parts)


@dataclass(frozen=True)
class PointWeylSystem(WeylSystem):
    """Weyl system of a point-interaction model; no volume quadrature.

    ``renorm_trace(part, zeta)`` is the renormalised trace at the centres of
    psi = part + G(0) zeta, which realises the boundary condition. It and
    ``g_apply`` raise ``ValueError`` for a zeta whose length is not n.
    """

    renorm_trace: Callable


# ---------------------------------------------------------------------------
# extension parameters


@dataclass(frozen=True)
class ExtensionParams:
    """Label of one self-adjoint extension: projector ``pi`` and operator ``theta``.

    A label is valid by construction: building one runs
    :func:`validate_params` and raises ``ValueError`` with its report unless
    ``pi`` is an orthogonal projector and ``theta`` a self-adjoint operator
    on its range, stored embedded in C^n with ``pi @ theta @ pi == theta``.
    The label also carries its frame, from one eigendecomposition of ``pi``:
    ``range_basis`` and ``kernel_basis`` are orthonormal columns spanning
    the range and the kernel of ``pi``. They are read-only arrays and no
    init, repr or compare fields; every operation that compresses to the
    range reads them instead of diagonalising ``pi`` again. The private
    attribute ``_uncompressed`` records whether ``range_basis`` is exactly
    the identity, as for every label of :meth:`full`, and ``theta`` has no
    -0.0 part: for such a label V^*(theta + gamma)V is theta + gamma to
    the bit, so it needs no compression. (With V = I the products only add
    zeros, which keep every part but a -0.0; theta + gamma has one only
    where theta has.)
    """

    pi: np.ndarray
    theta: np.ndarray
    range_basis: np.ndarray = field(init=False, repr=False, compare=False)
    kernel_basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pi, theta = linalg.as_square(self.pi), linalg.as_square(self.theta)
        if pi.shape != theta.shape:
            raise ValueError(
                f"projector and operator dimensions differ: {pi.shape} vs {theta.shape}"
            )
        report = validate_params(pi, theta)
        if not report.passed:
            raise ValueError(f"invalid extension parameters:\n{report}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)
        vals, vecs = linalg.hermitian_eig(pi)
        frame = (("range_basis", vecs[:, vals > 0.5]), ("kernel_basis", vecs[:, vals <= 0.5]))
        for name, basis in frame:
            basis.setflags(write=False)
            object.__setattr__(self, name, basis)
        identity = np.array_equal(self.range_basis, np.eye(pi.shape[0]))
        # theta + 0.0 turns exactly the -0.0 parts into +0.0
        unsigned = (theta + 0.0).tobytes() == theta.tobytes()
        object.__setattr__(self, "_uncompressed", identity and unsigned)

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


@dataclass(frozen=True)
class ValidationReport:
    residuals: dict
    tolerance: float
    passed: bool

    def __str__(self):
        lines = [f"valid={self.passed} (tolerance {self.tolerance:g})"]
        lines += [f"  {k}: {v:.3e}" for k, v in self.residuals.items()]
        return "\n".join(lines)


def validate_params(pi, theta) -> ValidationReport:
    """Check the defining invariants of an extension label (pi, theta).

    Reports Frobenius residuals of: projector idempotence, projector
    self-adjointness, operator self-adjointness, and the range condition
    pi theta pi = theta. Passes iff every residual is at most
    ``1e-12 * (1 + ||.||_F)`` of the matrix it constrains.
    :class:`ExtensionParams` runs it on every label it builds.
    """
    pi, theta = linalg.as_square(pi), linalg.as_square(theta)
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


# ---------------------------------------------------------------------------
# secular matrix


def secular_matrix(system: WeylSystem, params: ExtensionParams, z) -> np.ndarray:
    """Compression V^*(theta + Gamma(z))V of theta + pi Gamma(z) pi to range(pi).

    V is the label's ``range_basis``. The vanishing of the determinant at
    real admissible lambda is the secular equation for the point spectrum;
    the inverse drives the Krein correction. A scalar z gives one r x r
    matrix, a 1-D array of m values the (m, r, r) stack from one
    ``system.gamma`` call; for pi = 0, r = 0 and the stack is empty. Every z
    is checked against the excluded set by ``system.gamma``, and a
    non-finite matrix raises :class:`ModelConsistencyError` naming its z,
    so no NaN reaches LAPACK.
    """
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    return _compress(params, z, system.gamma(z))


def _compress(params, z, gamma):
    """V^*(theta + gamma)V for gamma = Gamma(z) already evaluated, formed as
    theta + gamma for a label that needs no compression; a non-finite
    matrix raises :class:`ModelConsistencyError` naming its z."""
    if params._uncompressed:
        m = params.theta + gamma
    else:
        v = params.range_basis
        m = v.conj().T @ (params.theta + gamma) @ v
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        bad = complex(np.ravel(z)[np.argmin(np.ravel(finite))])
        raise ModelConsistencyError(f"secular matrix is not finite at z={bad}")
    return m


# ---------------------------------------------------------------------------
# the extension resolvent at one z


@dataclass(frozen=True)
class GreenCombination:
    """Finite combination sum_j G(z_j) c_j of deficiency elements."""

    terms: tuple  # of (z_j, coefficient vector in C^n)

    def coefficient(self, z) -> np.ndarray | None:
        for zj, cj in self.terms:
            if zj == z:
                return cj
        return None


class Resolvent:
    """The extension resolvent (-A_{pi,theta} + z)^{-1} at one spectral parameter z.

    By the Krein formula it is R_0(z) + G(z) C(z) G(conj(z))^*, with C(z) =
    V m^{-1} V^* and V the label's ``range_basis``. Each attribute is formed
    when it is first read, and once: ``gamma`` is Gamma(z), from one
    ``system.gamma`` call, which checks z; ``m`` is the :func:`secular_matrix`
    formed from it; ``sigma_min``, ``sigma_max`` and ``regular`` are the
    verdict on m from one SVD, the one place a secular matrix is judged at a
    scalar z (inf, 0.0 and True for pi = 0); ``correction`` is C(z). A
    singular m raises :class:`ModelConsistencyError` off the real axis, where
    every valid label is regular, and ``correction`` raises
    :class:`ExtensionSingularError` at a singular real z.
    """

    def __init__(self, system: WeylSystem, params: ExtensionParams, z):
        self.system, self.params, self.z = system, params, complex(z)

    @cached_property
    def gamma(self) -> np.ndarray:
        return self.system.gamma(self.z)

    @cached_property
    def m(self) -> np.ndarray:
        return _compress(self.params, self.z, self.gamma)

    @cached_property
    def _verdict(self) -> tuple:
        s = np.linalg.svd(self.m, compute_uv=False)
        smin, smax = float(s.min(initial=np.inf)), float(s.max(initial=0.0))
        regular = smin > SINGULARITY_RTOL * (1.0 + smax)
        if not regular and self.z.imag != 0.0:
            raise ModelConsistencyError(
                f"secular matrix singular at nonreal z={self.z} (sigma_min={smin:.3e}); "
                "the Weyl family violates its defining identities"
            )
        return smin, smax, regular

    sigma_min = property(lambda self: self._verdict[0])
    sigma_max = property(lambda self: self._verdict[1])
    regular = property(lambda self: self._verdict[2])

    @cached_property
    def correction(self) -> np.ndarray:
        if not self.regular:
            raise ExtensionSingularError(
                f"z={self.z} is in the extension's point spectrum to working precision "
                f"(sigma_min={self.sigma_min:.3e})",
                self.sigma_min,
            )
        v = self.params.range_basis
        return v @ np.linalg.solve(self.m, v.conj().T)

    def apply(self, psi, grid):
        """Samples of the resolvent applied to the samples ``psi`` on ``grid``.

        The free resolvent, G(conj(z))^* and G(z) come from one
        ``system.sampled_kernels(z, grid)`` call, which checks z. Samples that
        are not finite on some edge raise :class:`ModelConsistencyError`. Only
        edge models (:class:`EdgeWeylSystem`) have samples; point models use
        :meth:`apply_green`.
        """
        system = self.system
        if not isinstance(system, EdgeWeylSystem):
            raise UnsupportedModelError(
                f"model kind {system.kind!r} has no sampled resolvent; "
                "use apply_resolvent_green with a Green-function combination"
            )
        # an entry that is not a 1-D grid is left to sampled_kernels, which names the mismatch
        for g in system.edges(grid):
            if np.ndim(g) == 1 and len(g) < MIN_EDGE_NODES:
                raise GridTooCoarseError(
                    f"need at least {MIN_EDGE_NODES} nodes per edge, got {len(g)}"
                )
        kernels = system.sampled_kernels(self.z, grid)
        parts = system.edges(kernels.resolvent(psi))
        if self.params.range_basis.shape[1]:
            applied = system.edges(kernels.apply(self.correction @ kernels.adjoint(psi)))
            parts = [f + g for f, g in zip(parts, applied)]
        for e, part in enumerate(parts):
            if not np.isfinite(part).all():
                raise ModelConsistencyError(
                    f"resolvent samples at z = {self.z} are not finite on edge {e}"
                )
        return system.shaped(parts)

    def apply_green(self, combo: GreenCombination) -> GreenCombination:
        """The resolvent applied to a Green-function combination, in closed form.

        Uses the resolvent difference identity R(z) G(w) = (G(z) - G(w)) / (w - z)
        and the Gram matrix for the adjoint factor, so no volume quadrature is
        needed; this is the supported route for point-interaction models. z must
        differ from every combination node; each node is checked by ``system.gram``.
        """
        system, z = self.system, self.z
        check_admissible(system.excluded, z)
        adjoint = np.zeros(system.n, dtype=complex)
        new_terms: dict = {}
        for zj, cj in combo.terms:
            zj = complex(zj)
            cj = np.asarray(cj, dtype=complex)
            if zj == z:
                raise ValueError(
                    "the spectral parameter must differ from every node of the combination"
                )
            adjoint += system.gram(zj, z) @ cj
            new_terms[z] = new_terms.get(z, 0) + cj / (zj - z)
            new_terms[zj] = new_terms.get(zj, 0) - cj / (zj - z)
        new_terms[z] = new_terms.get(z, 0) + self.correction @ adjoint
        return GreenCombination(tuple((zk, np.asarray(ck)) for zk, ck in new_terms.items()))


def is_regular_point(system: WeylSystem, params: ExtensionParams, z) -> bool:
    """True iff the Krein formula holds at z: :attr:`Resolvent.regular`."""
    return Resolvent(system, params, z).regular


def krein_correction(system: WeylSystem, params: ExtensionParams, z) -> np.ndarray:
    """pi (theta + pi Gamma(z) pi)^{-1} pi, embedded in C^n: :attr:`Resolvent.correction`."""
    return Resolvent(system, params, z).correction


def apply_resolvent(system: WeylSystem, params: ExtensionParams, z, psi, grid):
    """Samples of the extension resolvent applied to samples: :meth:`Resolvent.apply`."""
    return Resolvent(system, params, z).apply(psi, grid)


def apply_resolvent_green(system: WeylSystem, params: ExtensionParams, z, combo: GreenCombination):
    """The extension resolvent applied to a Green combination: :meth:`Resolvent.apply_green`."""
    return Resolvent(system, params, z).apply_green(combo)


def green_norm(system: WeylSystem, combo: GreenCombination) -> float:
    """Hilbert-space norm of a Green-function combination via the Gram matrix."""
    total = 0.0 + 0.0j
    for zi, ci in combo.terms:
        for zj, cj in combo.terms:
            total += np.vdot(ci, system.gram(zj, np.conj(zi)) @ cj)
    return float(np.sqrt(max(total.real, 0.0)))
