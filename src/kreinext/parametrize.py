"""Conversions among the four extension pictures.

Every self-adjoint extension can be labelled four ways: by the projector
pair (pi, theta), by a boundary matrix pair (B1, B2) subject to a
commutation and a nondegeneracy condition, by the self-adjoint relation it
cuts out of the doubled boundary space, and by the von Neumann unitary
between the deficiency spaces. This module converts between them and
checks the defining conditions of each picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .krein import ExtensionParams, ModelConsistencyError, WeylSystem

__all__ = [
    "BoundaryPair",
    "SelfAdjointRelation",
    "VonNeumannBlock",
    "PairConditions",
    "PairConditionError",
    "pair_from_params",
    "params_from_pair",
    "check_pair_conditions",
    "relation_from_params",
    "relation_from_pair",
    "relation_gap",
    "subspace_equal",
    "is_selfadjoint_relation",
    "von_neumann_block",
    "defect_gram",
]

PAIR_COMM_RTOL = 1e-12
PAIR_SIGMA_MIN = 1e-10
PAIRING_TOL = 1e-12
ANGLE_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryPair:
    """Matrix pair (b1, b2) describing the relation b1 zeta_1 = b2 zeta_2.

    Building a pair checks it once: ``conditions`` holds the
    :class:`PairConditions` of :func:`check_pair_conditions`. It is no
    init, repr or compare field, and every conversion reads it. A pair that
    fails its conditions can still be built, so that its report can be
    shown; the conversions from it raise :class:`PairConditionError`.
    """

    b1: np.ndarray
    b2: np.ndarray
    conditions: PairConditions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b1", linalg.as_square(self.b1))
        object.__setattr__(self, "b2", linalg.as_square(self.b2))
        if self.b1.shape != self.b2.shape:
            raise ValueError("boundary pair matrices must share one dimension")
        object.__setattr__(self, "conditions", check_pair_conditions(self))

    @property
    def n(self) -> int:
        return self.b1.shape[0]


@dataclass(frozen=True)
class SelfAdjointRelation:
    """Subspace of C^n + C^n stored as spanning columns (top block, bottom block)."""

    dim_h: int
    basis: np.ndarray

    def __post_init__(self):
        basis = linalg.as_matrix(self.basis)
        if basis.shape[0] != 2 * self.dim_h:
            raise ValueError("relation basis must have 2 * dim_h rows")
        object.__setattr__(self, "basis", basis)

    @property
    def top(self) -> np.ndarray:
        return self.basis[: self.dim_h]

    @property
    def bottom(self) -> np.ndarray:
        return self.basis[self.dim_h :]


@dataclass(frozen=True)
class VonNeumannBlock:
    """Matrix data of the unitary between deficiency spaces.

    ``m`` is the matrix of (minus) the unitary in the canonical deficiency
    bases {G(i) e_k} -> {G(-i) e_k}; both bases share the Gram matrix ``q``
    (the Hermitian positive part Im Gamma(i)), so unitarity reads
    m^* q m = q rather than m^* m = 1. ``gamma_hat`` = i q is the
    skew-adjoint reference Weyl offset.
    """

    m: np.ndarray
    q: np.ndarray
    gamma_hat: np.ndarray

    def unitarity_residual(self) -> float:
        return float(np.linalg.norm(self.m.conj().T @ self.q @ self.m - self.q, 2))

    @classmethod
    def from_gram(cls, params: ExtensionParams, q: np.ndarray) -> VonNeumannBlock:
        """:func:`von_neumann_block` of ``params`` from a positive definite :func:`defect_gram`."""
        gamma_hat = 1j * q
        v, w = params.range_basis, params.kernel_basis
        n = params.n
        k = v.shape[1]
        theta_c = v.conj().T @ params.theta @ v
        hat_c = v.conj().T @ gamma_hat @ v
        try:
            block = np.eye(k) + 2.0 * np.linalg.solve(theta_c - hat_c, hat_c)
        except np.linalg.LinAlgError as exc:  # impossible for q > 0
            raise ModelConsistencyError(
                "compressed (theta - gamma_hat) singular despite positive Gram matrix"
            ) from exc
        if k == n:
            m = v @ block @ v.conj().T
        else:
            # coordinates of the splitting range(pi) + q^{-1} ker(pi)
            frame = np.hstack([v, np.linalg.solve(q, w)])
            range_coords = np.linalg.inv(frame)[:k, :]
            m = np.eye(n, dtype=complex) + v @ (block - np.eye(k)) @ range_coords
        return cls(m=m, q=q, gamma_hat=gamma_hat)


class PairConditionError(ValueError):
    """Boundary pair rejected: one of the defining ``conditions`` failed."""

    def __init__(self, conditions: PairConditions):
        self.conditions = conditions
        self.failed = conditions.failed
        super().__init__(f"boundary pair conditions failed: {', '.join(self.failed)}")


@dataclass(frozen=True)
class PairConditions:
    """Residuals and verdicts for the boundary-pair conditions.

    ``comm``: commutation B1 B2^* = B2 B1^*. ``nondeg``: invertibility of the
    doubled block matrix [[B1, -B2], [B2, B1]]. ``joint_kernel`` and
    ``normalization`` are the two finite-dimensional equivalents of
    ``nondeg`` (trivial common kernel of the adjoints; invertibility of
    B1 B1^* + B2 B2^*); ``consistent`` records that the three agree.
    """

    comm_residual: float
    comm_ok: bool
    nondeg_sigma: float
    nondeg_ok: bool
    joint_kernel_ok: bool
    normalization_sigma: float
    normalization_ok: bool

    @property
    def consistent(self) -> bool:
        return self.nondeg_ok == self.joint_kernel_ok == self.normalization_ok

    @property
    def all_ok(self) -> bool:
        return self.comm_ok and self.nondeg_ok

    @property
    def failed(self):
        names = []
        if not self.comm_ok:
            names.append("comm")
        if not self.nondeg_ok:
            names.append("nondeg")
        if not self.joint_kernel_ok:
            names.append("joint_kernel")
        if not self.normalization_ok:
            names.append("normalization")
        return tuple(names)


def check_pair_conditions(pair: BoundaryPair) -> PairConditions:
    """Residuals and verdicts of the pair conditions of (pair.b1, pair.b2).

    :class:`BoundaryPair` runs it once, when it is built, and stores the
    result as ``pair.conditions``.
    """
    b1, b2 = pair.b1, pair.b2
    n = pair.n
    scale = 1.0 + np.linalg.norm(b1, 2) * np.linalg.norm(b2, 2)
    comm_residual = float(np.linalg.norm(b1 @ b2.conj().T - b2 @ b1.conj().T, 2))
    block = np.block([[b1, -b2], [b2, b1]])
    nondeg_sigma = linalg.min_singular(block) if n else 0.0
    stacked = np.vstack([b1.conj().T, b2.conj().T])
    svals = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(svals > linalg.RANK_RTOL * svals[0])) if svals.size and svals[0] else 0
    normalization_sigma = (
        linalg.min_singular(b1 @ b1.conj().T + b2 @ b2.conj().T) if n else 0.0
    )
    return PairConditions(
        comm_residual=comm_residual,
        comm_ok=comm_residual <= PAIR_COMM_RTOL * scale,
        nondeg_sigma=float(nondeg_sigma),
        nondeg_ok=nondeg_sigma > PAIR_SIGMA_MIN,
        joint_kernel_ok=rank == n,
        normalization_sigma=float(normalization_sigma),
        normalization_ok=normalization_sigma > PAIR_SIGMA_MIN,
    )


def pair_from_params(params: ExtensionParams) -> BoundaryPair:
    """Boundary pair of an extension label.

    On the projector range: B1 = theta (-theta + i)^{-1}, B2 = (-theta + i)^{-1};
    on its orthogonal complement: B1 = 1, B2 = 0. The Cayley-type factor
    (-theta + i) is always invertible, so the construction never branches.
    """
    v, w = params.range_basis, params.kernel_basis
    k = v.shape[1]
    theta_c = v.conj().T @ params.theta @ v
    cayley = np.linalg.inv(-theta_c + 1j * np.eye(k))
    b1 = w @ w.conj().T + v @ (theta_c @ cayley) @ v.conj().T
    b2 = v @ cayley @ v.conj().T
    return BoundaryPair(b1, b2)


def params_from_pair(pair: BoundaryPair) -> ExtensionParams:
    """Extension label of a boundary pair satisfying the pair conditions.

    The projector is the orthogonal projection onto the orthogonal
    complement of ker(B2); the operator is pi B1^* (B2^* pi~)^{-1} pi with
    pi~ projecting onto the complement of ker(B2^*), the inverse taken as a
    pseudo-inverse restricted to the range of B2^*. The pair's stored
    ``conditions`` must hold, or :class:`PairConditionError` names those
    that failed.
    """
    conditions = pair.conditions
    if not conditions.all_ok:
        raise PairConditionError(conditions)
    b1, b2 = pair.b1, pair.b2
    # range(B2^*) = ker(B2)^perp; range(B2) = ker(B2^*)^perp
    v = linalg.orthonormal_span(b2.conj().T)
    u = linalg.orthonormal_span(b2)
    pi = v @ v.conj().T
    pi_tilde = u @ u.conj().T
    theta = pi @ b1.conj().T @ np.linalg.pinv(b2.conj().T @ pi_tilde, rcond=1e-10) @ pi
    theta = pi @ ((theta + theta.conj().T) / 2.0) @ pi
    return ExtensionParams(pi, theta)


def relation_from_params(params: ExtensionParams) -> SelfAdjointRelation:
    """The relation {(v, theta v) : v in range(pi)} + {(0, u) : u in ker(pi)}."""
    v, w = params.range_basis, params.kernel_basis
    n = params.n
    top = np.hstack([v, np.zeros((n, w.shape[1]), dtype=complex)])
    bottom = np.hstack([params.theta @ v, w])
    return SelfAdjointRelation(n, np.vstack([top, bottom]))


def relation_from_pair(pair: BoundaryPair) -> SelfAdjointRelation:
    """The relation {(B2^* zeta, B1^* zeta) : zeta in C^n}."""
    conditions = pair.conditions
    if not conditions.all_ok:
        raise PairConditionError(conditions)
    return SelfAdjointRelation(
        pair.n, np.vstack([pair.b2.conj().T, pair.b1.conj().T])
    )


def relation_gap(r1: SelfAdjointRelation, r2: SelfAdjointRelation) -> float:
    """Spectral norm of the difference of the orthogonal projectors onto the two spans.

    It is the sine of the largest principal angle between spans of equal
    dimension, and 1 between spans of different dimension.
    """
    if r1.dim_h != r2.dim_h:
        raise ValueError("relations live in different boundary spaces")
    q1 = linalg.orthonormal_span(r1.basis)
    q2 = linalg.orthonormal_span(r2.basis)
    return float(np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T, 2))


def subspace_equal(r1: SelfAdjointRelation, r2: SelfAdjointRelation, tol: float = ANGLE_TOL) -> bool:
    """True iff the two column spans agree to within principal angle ``tol``."""
    return relation_gap(r1, r2) < tol


def is_selfadjoint_relation(rel: SelfAdjointRelation) -> bool:
    """Maximal symmetric test: n-dimensional span with vanishing symmetry pairing."""
    q = linalg.orthonormal_span(rel.basis)
    if q.shape[1] != rel.dim_h:
        return False
    top, bottom = q[: rel.dim_h], q[rel.dim_h :]
    residual = np.linalg.norm(top.conj().T @ bottom - bottom.conj().T @ top, 2)
    return bool(residual <= PAIRING_TOL)


def von_neumann_block(system: WeylSystem, params: ExtensionParams) -> VonNeumannBlock:
    """Matrix of the von Neumann unitary attached to an extension label.

    The Gram matrix q = Im Gamma(i) of the canonical deficiency bases must
    be positive definite (it is, for every consistent model, by injectivity
    of the deficiency map). On the projector range the unitary acts as
    1 + 2 (theta_c - gamma_hat_c)^{-1} gamma_hat_c; it acts as the identity
    on the complement q^{-1} ker(pi), the image of the extension's free
    sector in the deficiency space. The two pieces split the boundary space
    as a direct (not orthogonal) sum, and only along that splitting is the
    resulting map q-unitary.
    """
    q = defect_gram(system)
    if np.linalg.eigvalsh(q).min() <= 0.0:
        raise ModelConsistencyError(
            "Im Gamma(i) is not positive definite; deficiency Gram matrix degenerate"
        )
    return VonNeumannBlock.from_gram(params, q)


def defect_gram(system: WeylSystem) -> np.ndarray:
    """The deficiency Gram matrix q = Im Gamma(i), symmetrised, from one Gamma call."""
    gi = system.gamma(1j)
    q = (gi - gi.conj().T) / 2j
    return (q + q.conj().T) / 2.0
