"""Model-independent self-adjoint extension machinery: the Krein recipe.

Two objects carry the data: :class:`ExtensionParams`, the pair of an
orthogonal boundary projector and a self-adjoint operator on its range
that labels one extension (checked when it is built, and carrying the
range and kernel bases of the projector), and :class:`WeylSystem`, the
analytic data every model carries (its excluded spectrum, the Weyl family
z -> Gamma(z), the Gram matrix and the deficiency-element map G(z)). From
those alone the secular matrix gives every extension's point spectrum, and
:class:`Resolvent` its resolvent at one z by the Krein formula. All model
data (each family's systems, excluded spectra, closed-form edge functions
and grid rules) live in :mod:`kreinext.models`, which this module does not
import. The probes of the identities the Weyl family must satisfy live in
:mod:`kreinext.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg
# unused here: bench/tracer.py wraps it, and bench/test_bench.py reads it back
from .quad import simpson  # noqa: F401

__all__ = [
    "SINGULARITY_RTOL",
    "PARAMS_RTOL",
    "ExcludedPointError",
    "ExtensionSingularError",
    "ModelConsistencyError",
    "UnsupportedModelError",
    "WeylSystem",
    "ExtensionParams",
    "ValidationReport",
    "GreenCombination",
    "Resolvent",
    "check_admissible",
    "validate_params",
    "secular_matrix",
    "krein_correction",
    "apply_resolvent",
    "apply_resolvent_green",
    "green_norm",
]

SINGULARITY_RTOL = 1e-12
PARAMS_RTOL = 1e-12


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


def check_admissible(excluded, z) -> None:
    """Raise :class:`ExcludedPointError` naming the first entry of z inside ``excluded``.

    ``excluded`` is an exclusion set of :mod:`kreinext.models`, or any object
    with a vectorised ``contains`` and a ``describe``. ``z`` is a scalar or an
    array; every entry is checked by one ``excluded.contains`` call. A NaN or
    infinite entry is no spectral parameter: it raises ``ValueError`` naming
    it, before the exclusion test.
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


# ---------------------------------------------------------------------------
# the Weyl system every model carries


@dataclass(frozen=True)
class WeylSystem:
    """Analytic engine of one model: what every model carries.

    Fields
    ------
    n : boundary-space dimension.
    kind : "interval", "graph", "points" or "spin_points"; a label only.
    excluded : the spectrum of the free operator, as an exclusion set: an
        object with ``contains``, ``distance``, ``gaps_in`` and ``describe``,
        such as those of :mod:`kreinext.models`.
    gamma : the Weyl family. A scalar z gives the n x n matrix Gamma(z); a 1-D
        array of m values gives the (m, n, n) stack Gamma(z_0), ..., Gamma(z_m-1),
        bit-for-bit equal to m scalar calls. Every z is checked against
        ``excluded`` first; one excluded entry raises :class:`ExcludedPointError`
        naming it. At a real admissible lambda, Gamma(lambda) equals its
        conjugate transpose to the bit (Gamma(z)^* = Gamma(conj z)), and the
        spectral search relies on that: it diagonalises theta + Gamma(lambda)
        as it is when theta is Hermitian to the bit.
    gram : (z, w) -> n x n Gram matrix G(conj(w))^* G(z) of deficiency elements,
        a closed form in every model (it feeds the Green-combination route).
    g_apply : (z, zeta, grid) -> samples of the deficiency element G(z) zeta.

    The three maps are fields, not methods, so that a copy made with
    ``dataclasses.replace`` can swap one (a fault injection, a counter or a
    tracer) and every operation on the copy reads the swapped map. The edge
    and point systems of :mod:`kreinext.models` add their family's data as
    fields and its other maps as methods. Instances are immutable and every
    callable is pure, so systems may be evaluated concurrently without
    restriction.
    """

    n: int
    kind: str
    excluded: object
    gamma: Callable[[complex], np.ndarray]
    gram: Callable[[complex, complex], np.ndarray]
    g_apply: Callable


# ---------------------------------------------------------------------------
# extension parameters


@dataclass(frozen=True)
class ExtensionParams:
    """Label of one self-adjoint extension: projector ``pi`` and operator ``theta``.

    A label is valid by construction: building one runs
    :func:`validate_params` and raises ``ValueError`` with its report unless
    ``pi`` is an orthogonal projector and ``theta`` a self-adjoint operator
    on its range, stored embedded in C^n with ``pi @ theta @ pi == theta``.
    It stores the Hermitian parts (m + m^*) / 2 of the given matrices, which
    are Hermitian to the bit. It also carries its frame, from one
    eigendecomposition of ``pi``:
    ``range_basis`` and ``kernel_basis`` are orthonormal columns spanning
    the range and the kernel of ``pi``. They are read-only arrays and no
    init, repr or compare fields; every operation that compresses to the
    range reads them instead of diagonalising ``pi`` again. The private
    attribute ``_uncompressed`` records whether ``range_basis`` is exactly
    the identity, as for every label of :meth:`full`: such a label's
    secular matrix is theta + Gamma(z), with no products by V.
    ``theta_norm``, the spectral norm of ``theta``, is computed once, on
    first use.
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
        # both are Hermitian within the report's tolerance; their Hermitian parts are exactly so
        pi, theta = (pi + pi.conj().T) / 2.0, (theta + theta.conj().T) / 2.0
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)
        vals, vecs = np.linalg.eigh(pi)
        frame = (("range_basis", vecs[:, vals > 0.5]), ("kernel_basis", vecs[:, vals <= 0.5]))
        for name, basis in frame:
            basis.setflags(write=False)
            object.__setattr__(self, name, basis)
        identity = np.array_equal(self.range_basis, np.eye(pi.shape[0]))
        object.__setattr__(self, "_uncompressed", identity)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    @cached_property
    def theta_norm(self) -> float:
        return float(np.linalg.norm(self.theta, 2))

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

    V is the label's ``range_basis``; for the identity frame (pi = 1) the
    matrix is theta + Gamma(z). The vanishing of the determinant at
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
    theta + gamma for the identity frame; a non-finite matrix raises
    :class:`ModelConsistencyError` naming its z."""
    if params._uncompressed:
        m = params.theta + gamma
    else:
        v = params.range_basis
        m = v.conj().T @ (params.theta + gamma) @ v
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(-2, -1))
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
    singular m raises :class:`ModelConsistencyError` off the real axis (z within
    working precision of an embedded eigenvalue, or a faulty Weyl family),
    and ``correction`` raises :class:`ExtensionSingularError` at a singular real z.
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
                f"secular matrix singular at nonreal z={self.z} (sigma_min={smin:.3e}, "
                f"sigma_max={smax:.3e}); either z is within working precision of an "
                "eigenvalue embedded in the free spectrum, or the Weyl family violates "
                "its defining identities"
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
        ``system.sampled_kernels(z, grid)`` call, which checks z and the grid;
        its kernels check the samples as they integrate. Each call builds its
        own kernels. Samples that are not finite on some edge raise
        :class:`ModelConsistencyError`. Only edge models (the systems with
        ``sampled_kernels``) have samples; point models use :meth:`apply_green`.
        """
        system = self.system
        if not hasattr(system, "sampled_kernels"):
            raise UnsupportedModelError(
                f"model kind {system.kind!r} has no sampled resolvent; "
                "use apply_resolvent_green with a Green-function combination"
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
