"""Concrete boundary models.

One private builder per model family carries the models; the public ones
call it:

* :func:`graph_weyl` -- the edgewise direct sum of intervals (a metric graph
  before any vertex identification); boundary space C^{2K}.
* :func:`interval_weyl` -- the second-derivative operator on (0, a) restricted
  below its Dirichlet realisation: the one-edge graph from the same builder,
  taking bare sample arrays where the graph takes one-element lists;
  boundary space C^2.
* :func:`spin_weyl` -- the vector-valued point model with an internal
  Hermitian term, block diagonal over its eigenchannels at shifted energies.
* :func:`point_weyl` -- the 3-D Laplacian restricted off n centres: the spin
  model with the single internal eigenvalue 0; boundary space C^n of point
  charges, Weyl matrix with sqrt(z)/(4 pi) diagonal.

The systems are the only door to a model quantity: Gamma, the Gram matrix,
G(z) zeta (sampled, or in closed form on edges), the boundary traces and
the renormalised trace are fields of the system a builder returns, which
checks z and shapes before the private kernels below run.

Spectral-parameter conventions: the free operator is the second derivative
(respectively the 3-D Laplacian), not its negative, so interval Dirichlet
spectra sit at -(n pi / a)^2 and point models exclude the half line
(-inf, 0]. The principal branch of the square root is used throughout,
applied to -z for interval kernels and to z for point kernels.

Every ``gamma`` follows the :class:`WeylSystem` contract: a scalar z gives
the n x n matrix, a 1-D array of m values the (m, n, n) stack. The kernels
below broadcast over the shape of z, so the scalar is the 0-d case of the
same arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .krein import (
    DirichletExclusions,
    EdgeWeylSystem,
    ExtensionParams,
    GridMismatchError,
    HalfLineExclusions,
    ModelConsistencyError,
    PointWeylSystem,
    SmoothFunction,
    check_admissible,
)
from .quad import cumulative_simpson, simpson

__all__ = [
    "IntervalModel",
    "GraphModel",
    "PointModel",
    "SpinPointModel",
    "SampledKernels",
    "VertexGroup",
    "interval_weyl",
    "graph_weyl",
    "vertex_params",
    "point_weyl",
    "point_green_regular_part",
    "spin_weyl",
    "sine_mode",
    "cosine_mode",
    "poly_bump",
    "zero_function",
]

FOUR_PI = 4.0 * np.pi
MIN_CENTER_DISTANCE = 1e-9
# A quadrature grid must start at 0 and end at the edge length to this
# fraction of the length, with every step equal to the first to this fraction.
GRID_END_RTOL = 1e-12
GRID_STEP_RTOL = 1e-9


# ---------------------------------------------------------------------------
# model descriptors


@dataclass(frozen=True)
class IntervalModel:
    """The operator d^2/dx^2 on (0, a) with Dirichlet free realisation."""

    a: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"interval length must be positive, got {self.a}")


@dataclass(frozen=True)
class GraphModel:
    """Edgewise second derivative on K segments [0, a_k]."""

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(a) for a in self.lengths)
        if not lengths or any(not np.isfinite(a) or a <= 0 for a in lengths):
            raise ValueError("all edge lengths must be positive")
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class PointModel:
    """3-D Laplacian restricted off n pairwise distinct centres.

    The pairwise centre distances are kept in private attributes (not
    fields), which the kernels read: ``_distances`` the (n, n) matrix d,
    ``_upper_index`` and ``_lower_index`` the flat indices of the entries
    above its diagonal and of their mirrors, ``_upper_distances`` those
    entries and ``_upper_scale`` 4 pi times them. d is symmetric to the bit.
    """

    centers: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 1:
            raise ValueError("centers must be an (n, 3) array of points")
        if not np.isfinite(c).all():
            raise ValueError("centers must be finite")
        object.__setattr__(self, "centers", c)
        d = _pairwise_distances(c)
        rows, cols = np.triu_indices(len(c), 1)
        off = d[rows, cols]
        for name, value in (
            ("_distances", d),
            ("_upper_index", rows * len(c) + cols),
            ("_lower_index", cols * len(c) + rows),
            ("_upper_distances", off),
            ("_upper_scale", FOUR_PI * off),
        ):
            object.__setattr__(self, name, value)
        if off.size and off.min() <= MIN_CENTER_DISTANCE:
            raise ValueError(
                f"centers must be pairwise separated by more than {MIN_CENTER_DISTANCE}"
            )

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class SpinPointModel:
    """Point model with an internal Hermitian term, given by its eigenvalues b."""

    centers: np.ndarray
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "centers", PointModel(self.centers).centers)
        b = tuple(float(x) for x in self.b)
        if not b:
            raise ValueError("need at least one internal eigenvalue")
        if not np.isfinite(b).all():
            raise ValueError(f"internal eigenvalues must be finite, got {b}")
        object.__setattr__(self, "b", b)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]


# ---------------------------------------------------------------------------
# closed-form building blocks (shared by tests and presets)


def sine_mode(freq: float) -> SmoothFunction:
    freq = float(freq)
    return SmoothFunction(
        lambda x: np.sin(freq * x) + 0j,
        lambda x: freq * np.cos(freq * x) + 0j,
        lambda x: -(freq**2) * np.sin(freq * x) + 0j,
    )


def cosine_mode(freq: float) -> SmoothFunction:
    freq = float(freq)
    return SmoothFunction(
        lambda x: np.cos(freq * x) + 0j,
        lambda x: -freq * np.sin(freq * x) + 0j,
        lambda x: -(freq**2) * np.cos(freq * x) + 0j,
    )


def poly_bump(length: float) -> SmoothFunction:
    """x (length - x): vanishes at both endpoints, curvature -2."""
    length = float(length)
    return SmoothFunction(
        lambda x: x * (length - x) + 0j,
        lambda x: length - 2.0 * x + 0j,
        lambda x: -2.0 * np.ones_like(np.asarray(x, dtype=float)) + 0j,
    )


def zero_function() -> SmoothFunction:
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float)) + 0j
    return SmoothFunction(zero, zero, zero)


def _block_diag(blocks) -> np.ndarray:
    """The (..., K b, K b) block-diagonal matrices of a (..., K, b, b) stack.

    Every boundary space here is such a direct sum (edges of C^2, spin
    channels of C^n); its vectors are split by ``reshape(K, b)``.
    """
    blocks = np.asarray(blocks, dtype=complex)
    *lead, K, b, _ = blocks.shape
    if K == 1:
        return blocks[..., 0, :, :]
    out = np.zeros((*lead, K, b, K, b), dtype=complex)
    # the repeated index k makes einsum return a writeable view of the diagonal blocks
    np.einsum("...kikj->...kij", out)[...] = blocks
    return out.reshape(*lead, K * b, K * b)


def _boundary_vector(zeta, n: int) -> np.ndarray:
    """zeta as a complex vector of the boundary space C^n; any other shape
    raises ``ValueError`` naming n."""
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (n,):
        raise ValueError(f"need a boundary vector of length {n}, got shape {zeta.shape}")
    return zeta


# ---------------------------------------------------------------------------
# edge building blocks


def _sqrt_minus(z: complex) -> complex:
    return complex(np.sqrt(complex(-z)))


def _edge_gammas(lengths, z) -> np.ndarray:
    """Gamma blocks of the edges (0, a_k): shape (*z.shape, K, 2, 2)."""
    a = np.array(lengths, dtype=float)
    z = np.asarray(z)
    zero = z == 0
    # z is negated before it is made complex, as in _sqrt_minus; z = 0 is filled in below
    k = np.sqrt(np.asarray(-np.where(zero, -1.0, z), dtype=complex))[..., None]
    ratio = k / np.sin(k * a)
    out = np.empty(ratio.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = ratio * np.cos(k * a)
    out[..., 0, 1] = out[..., 1, 0] = ratio * -1.0  # times -1 + 0j; -ratio flips signed zeros
    out[zero] = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex) / a[:, None, None]
    return out


def _edge_green(a: float, z: complex, zeta) -> SmoothFunction:
    """Closed form of the deficiency element G(z) zeta on the edge (0, a).

    Solves u'' = z u with boundary values u(0) = zeta_1, u(a) = zeta_2; the
    z = 0 case uses the explicit linear interpolant rather than a limit.
    """
    z1, z2 = complex(zeta[0]), complex(zeta[1])
    if z == 0:
        return SmoothFunction(
            lambda x: (z1 * (a - x) + z2 * x) / a,
            lambda x: np.full(np.shape(x), (z2 - z1) / a, dtype=complex),
            lambda x: np.zeros(np.shape(x), dtype=complex),
        )
    k = _sqrt_minus(z)
    s = np.sin(k * a)
    value = lambda x: (z1 * np.sin(k * (a - x)) + z2 * np.sin(k * x)) / s
    return SmoothFunction(
        value,
        lambda x: k * (-z1 * np.cos(k * (a - x)) + z2 * np.cos(k * x)) / s,
        lambda x: complex(z) * value(x),
    )


def _grid_problem(a: float, x: np.ndarray):
    """Why x is not a uniform grid from 0 to a, or None when it is one."""
    if x.ndim != 1 or x.shape[0] < 2:
        return f"need a 1-D grid of at least 2 nodes, got shape {x.shape}"
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        return f"grid node {bad[0]} is {float(x[bad[0]])!r}, not finite"
    if abs(x[0]) > GRID_END_RTOL * a or abs(x[-1] - a) > GRID_END_RTOL * a:
        return f"grid runs from {float(x[0])} to {float(x[-1])}, not from 0 to the edge length {a!r}"
    dx = x[1] - x[0]
    deviation = np.max(np.abs(np.diff(x) - dx))
    if deviation > GRID_STEP_RTOL * dx:
        return f"grid spacing is not uniform (steps deviate by {deviation / dx:.1e} of the first)"
    return None


def _sample_step(a: float, x: np.ndarray, samples, edge: int, problem) -> float:
    """The step of the grid x of edge ``edge`` (length a), unless ``problem``
    (from :func:`_grid_problem`) is set or the samples do not have its
    length; then :class:`GridMismatchError` naming the edge."""
    if problem is None and np.shape(samples)[:1] != x.shape:
        problem = f"{np.shape(samples)[0]} samples on a grid of {x.shape[0]} nodes"
    if problem is not None:
        raise GridMismatchError(f"edge {edge} (length {a!r}): {problem}")
    return x[1] - x[0]


class SampledKernels:
    """The Krein formula's three sampled factors on the edges of one system,
    bound to one z and one grid.

    Building one checks z and, on each edge (0, a) with k = sqrt(-z) and
    s = sin(ka), evaluates sin(kx), sin(k(a - x)), k s and the deficiency
    columns [sin(k(a - x)) / s, sin(kx) / s] once; z = 0 keeps its linear
    kernels. ``resolvent(psi)`` gives R_0(z) psi, ``adjoint(psi)``
    G(conj(z))^* psi in C^n and ``apply(zeta)`` G(z) zeta, each taking and
    returning edge functions in the system's shape. ``apply`` takes any
    points and raises ``ValueError`` for a zeta whose length is not n; the
    other two integrate by Simpson's rule and raise
    :class:`GridMismatchError`, naming the edge, unless its grid runs
    uniformly from 0 to its length and psi has the grid's length.
    """

    def __init__(self, system: EdgeWeylSystem, z, grid):
        check_admissible(system.excluded, z)
        self._system, self._edges = system, []
        for a, x in zip(system.lengths, system.edges(grid)):
            x = np.asarray(x, dtype=float)
            # the free resolvent kernel is u(x_<) v(x_>) / w, with w None at z = 0
            if z == 0:
                sines = (x, a - x, None)
                columns = np.stack([(a - x) / a, x / a], axis=1).astype(complex)
            else:
                k = _sqrt_minus(z)
                s = np.sin(k * a)
                sx, sax = np.sin(k * x), np.sin(k * (a - x))
                sines, columns = (sx, sax, k * s), np.stack([sax / s, sx / s], axis=1)
            self._edges.append((a, x, _grid_problem(a, x), sines, columns))

    def _samples(self, psi):
        """(a, sines, columns, samples, step) of each edge, or GridMismatchError."""
        parts = self._system.edges(psi)
        for edge, ((a, x, problem, sines, columns), part) in enumerate(zip(self._edges, parts)):
            part = np.asarray(part)
            yield a, sines, columns, part, _sample_step(a, x, part, edge, problem)

    def resolvent(self, psi):
        """Samples of the free resolvent applied to the samples psi."""
        out = []
        for a, (u, v, w), _, psi, dx in self._samples(psi):
            left = cumulative_simpson(u * psi, dx)
            f2 = v * psi
            right = simpson(f2, dx) - cumulative_simpson(f2, dx)
            out.append(v / a * left + u / a * right if w is None else (v * left + u * right) / w)
        return self._system.shaped(out)

    def adjoint(self, psi) -> np.ndarray:
        """G(conj(z))^* psi: the integrals of the z-columns against psi."""
        edges = self._samples(psi)
        return np.array([simpson(col * psi, dx) for _, _, cols, psi, dx in edges for col in cols.T])

    def apply(self, zeta):
        """Samples of G(z) zeta for zeta in C^n."""
        pairs = _boundary_vector(zeta, self._system.n).reshape(len(self._edges), 2)
        return self._system.shaped([cols @ pair for (*_, cols), pair in zip(self._edges, pairs)])


def _inward_derivative(samples: np.ndarray, h: float, left: bool) -> complex:
    """Derivative at the left or right end pointing into the edge, to fourth order.

    The right end reads the samples backwards, so the one stencil gives
    psi'(0+) on the left and -psi'(a-) on the right.
    """
    if samples.shape[0] < 5:
        raise ValueError("sampled traces need at least 5 nodes next to each endpoint")
    f = samples[:5] if left else samples[-1:-6:-1]
    return (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)


def _edge_traces(a: float, psi, grid, edge: int):
    """Boundary value and inward derivative traces (rho, tau) on the edge (0, a).

    rho psi = (psi(0+), psi(a-)); tau psi = (psi'(0+), -psi'(a-)), i.e. the
    derivatives pointing into the edge. Accepts a closed-form
    :class:`SmoothFunction` or uniform samples with their grid; sampled
    derivatives use one-sided fourth-order stencils. A grid that does not run
    uniformly from 0 to a, or samples of another length, raise
    :class:`GridMismatchError` naming ``edge``.
    """
    if isinstance(psi, SmoothFunction):
        ends = np.array([0.0, a])
        vals = psi.f(ends)
        ders = psi.df(ends)
        rho = np.array([vals[0], vals[1]], dtype=complex)
        tau = np.array([ders[0], -ders[1]], dtype=complex)
        return rho, tau
    samples = np.asarray(psi)
    if grid is None:
        raise ValueError("sampled traces need the sample grid")
    x = np.asarray(grid, dtype=float)
    h = _sample_step(a, x, samples, edge, _grid_problem(a, x))
    rho = np.array([samples[0], samples[-1]], dtype=complex)
    tau = np.array(
        [
            _inward_derivative(samples, h, left=True),
            _inward_derivative(samples, h, left=False),
        ],
        dtype=complex,
    )
    return rho, tau


# sin(kx)/k = sum_m z^m x^(2m+1)/(2m+1)! for k^2 = -z, so near z = w = 0 the
# integrals of (sin(kx)/k)(sin(qx)/q) and (sin(k(a-x))/k)(sin(qx)/q) over
# (0, a) are a^3 sum_mn (z a^2)^m (w a^2)^n c_mn with the coefficients c_mn
# below. Ten terms reach rounding for |z| a^2, |w| a^2 <= 1.
_SERIES = np.arange(10)
_ODD_FACTORIALS = np.array([float(factorial(2 * m + 1)) for m in _SERIES])
_SERIES_SAME_END = 1.0 / (
    np.outer(_ODD_FACTORIALS, _ODD_FACTORIALS)
    * (2 * _SERIES[:, None] + 2 * _SERIES[None, :] + 3)
)
_SERIES_OPPOSITE_END = np.array(
    [[1.0 / factorial(2 * m + 2 * n + 3) for n in _SERIES] for m in _SERIES]
)


def _sinc(x: complex) -> complex:
    return cmath.sin(x) / x if x != 0 else 1.0


def _sin_over(k: complex, a: float) -> complex:
    """sin(k a) / k, which is a at k = 0."""
    return cmath.sin(k * a) / k if k != 0 else a


def _edge_gram(a: float, z: complex, w: complex) -> tuple:
    """Entries (A, B) of one edge's Gram block [[A, B], [B, A]].

    With k = sqrt(-z), q = sqrt(-w), s = sin(ka) and t = sin(qa),
    A = int_0^a sin(kx) sin(qx) dx / (s t) and
    B = int_0^a sin(k(a - x)) sin(qx) dx / (s t). Each of three closed forms
    is used where it does not cancel:

    * |ka|, |qa| <= 1: the double power series over (s/k)(t/q);
    * |ka|, |qa| >= 1/2: the half-angle form in sigma = k + q and
      delta = q - k, which has no branch at z = w;
    * otherwise |z - w| a^2 >= 3/4, and the difference quotient
      (Gamma(z) - Gamma(w)) / (z - w) loses nothing.

    A sine that overflows (|Im ka| or |Im qa| above about 710) or an entry
    that is not finite raises :class:`ModelConsistencyError` naming z and w.
    """
    z, w = complex(z), complex(w)
    try:
        same, opposite = _edge_gram_entries(a, z, w)
        if cmath.isfinite(same) and cmath.isfinite(opposite):
            return same, opposite
    except OverflowError:
        pass
    raise ModelConsistencyError(
        f"edge Gram matrix is not finite at z={z}, w={w} (edge length {a!r})"
    )


def _edge_gram_entries(a: float, z: complex, w: complex) -> tuple:
    k, q = cmath.sqrt(-z), cmath.sqrt(-w)
    lo, hi = sorted((abs(k) * a, abs(q) * a))
    if hi <= 1.0:
        zp, wp = (z * a * a) ** _SERIES, (w * a * a) ** _SERIES
        scale = a**3 / (_sin_over(k, a) * _sin_over(q, a))
        return scale * (zp @ _SERIES_SAME_END @ wp), scale * (zp @ _SERIES_OPPOSITE_END @ wp)
    if lo >= 0.5:
        sigma, delta, h = k + q, q - k, 0.5 * a
        scale = h / (cmath.sin(k * a) * cmath.sin(q * a))
        same = _sinc(delta * a) - _sinc(sigma * a)
        opposite = cmath.cos(sigma * h) * _sinc(delta * h) - cmath.cos(delta * h) * _sinc(sigma * h)
        return scale * same, -scale * opposite
    at_z, at_w = _edge_gammas((a,), (z, w))[:, 0]
    quotient = (at_z - at_w) / (z - w)
    return quotient[0, 0], quotient[0, 1]


def _edge_gram_blocks(lengths, z, w) -> np.ndarray:
    """Block-diagonal Gram matrix G(conj(w))^* G(z) of the edgewise model."""
    entries = [_edge_gram(a, z, w) for a in lengths]
    return _block_diag(np.array([((A, B), (B, A)) for A, B in entries], dtype=complex))


# ---------------------------------------------------------------------------
# graph model and the interval as its one edge


def graph_weyl(model: GraphModel) -> EdgeWeylSystem:
    """Weyl system of the edgewise model: every map acts block by block.

    Sampled functions are lists with one uniform sample array per edge, in
    the same edge order as the boundary indexing (edge k owns boundary
    coordinates 2k and 2k+1 for its left and right endpoints). Gamma and the
    Gram matrix are block-diagonal closed forms, one 2 x 2 block per edge;
    the free resolvent and the adjoint deficiency map act on uniform samples
    by Simpson quadrature.
    """
    return _edge_system(model.lengths, "graph", bare=False)


def interval_weyl(model: IntervalModel) -> EdgeWeylSystem:
    """Weyl system of the interval model: the one-edge graph (0, a).

    Only the shapes differ from the graph's: sample arrays and grids are
    bare where the graph takes and returns one-element lists.
    """
    return _edge_system((model.a,), "interval", bare=True)


def _edge_system(lengths: tuple, kind: str, bare: bool) -> EdgeWeylSystem:
    """The Weyl system of the edges (0, a_k); with ``bare``, of the one edge.

    The maps take and return edge functions through the ``edges`` and
    ``shaped`` methods of the system they are bound into, which own the
    shape rule, and every map that takes z checks it first.
    """
    graph = GraphModel(lengths)
    lengths, K = graph.lengths, graph.n_edges
    excluded = DirichletExclusions(lengths)

    def gamma(z):
        check_admissible(excluded, z)
        return _block_diag(_edge_gammas(lengths, z))

    def gram(z, w):
        check_admissible(excluded, (z, w))
        return _edge_gram_blocks(lengths, z, w)

    def sampled_kernels(z, grid):
        return SampledKernels(system, z, grid)

    def g_apply(z, zeta, grid):
        return SampledKernels(system, z, grid).apply(zeta)

    def g_closed(z, zeta):
        check_admissible(excluded, z)
        pairs = _boundary_vector(zeta, 2 * K).reshape(K, 2)
        return system.shaped([_edge_green(a, z, pair) for a, pair in zip(lengths, pairs)])

    def traces(parts, grid=None):
        parts = system.edges(parts)
        grids = [None] * K if grid is None else system.edges(grid)
        rho, tau = zip(*(_edge_traces(a, parts[k], grids[k], k) for k, a in enumerate(lengths)))
        return np.concatenate(rho), np.concatenate(tau)

    system = EdgeWeylSystem(
        n=2 * K,
        kind=kind,
        excluded=excluded,
        gamma=gamma,
        gram=gram,
        g_apply=g_apply,
        lengths=lengths,
        sampled_kernels=sampled_kernels,
        traces=traces,
        g_closed=g_closed,
        bare=bare,
    )
    return system


@dataclass(frozen=True)
class VertexGroup:
    """One vertex of a glued graph: its endpoints and a delta coupling strength.

    ``endpoints`` are (edge index, side) pairs with side "left" or "right";
    coupling 0 is the Kirchhoff condition (continuity plus vanishing sum of
    inward derivatives), a single free endpoint with coupling theta is the
    Robin condition psi' = theta psi at that end.
    """

    endpoints: tuple
    coupling: float = 0.0


def _endpoint_index(model: GraphModel, edge: int, side: str) -> int:
    if not (0 <= edge < model.n_edges):
        raise ValueError(f"edge index {edge} out of range")
    if side not in ("left", "right"):
        raise ValueError(f"endpoint side must be 'left' or 'right', got {side!r}")
    return 2 * edge + (0 if side == "left" else 1)


def vertex_params(model: GraphModel, groups: Sequence[VertexGroup]) -> ExtensionParams:
    """Extension parameters encoding vertex gluing with delta couplings.

    The projector range consists of boundary vectors constant on each
    vertex group (value continuity); the operator acts on each group's
    constant direction as coupling/(group size), which makes the coupled
    condition read "sum of inward derivatives = coupling * common value".
    Every endpoint must belong to exactly one group.
    """
    n = 2 * model.n_edges
    seen: set = set()
    pi = np.zeros((n, n), dtype=complex)
    theta = np.zeros((n, n), dtype=complex)
    for group in groups:
        idx = [_endpoint_index(model, e, s) for e, s in group.endpoints]
        for i in idx:
            if i in seen:
                raise ValueError(f"endpoint {i} assigned to more than one vertex group")
            seen.add(i)
        m = len(idx)
        if m == 0:
            raise ValueError("empty vertex group")
        indicator = np.zeros(n, dtype=complex)
        indicator[idx] = 1.0
        proj = np.outer(indicator, indicator) / m
        pi += proj
        theta += (float(group.coupling) / m) * proj
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"endpoints {missing} not assigned to any vertex group")
    return ExtensionParams(pi, theta)


# ---------------------------------------------------------------------------
# point-interaction model


def _pairwise_distances(centers: np.ndarray) -> np.ndarray:
    diff = centers[:, None, :] - centers[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _point_gamma(model: PointModel, z) -> np.ndarray:
    """Weyl matrix of the point model: sqrt(z)/(4 pi) on the diagonal,
    -exp(-sqrt(z) d)/(4 pi d) off it, principal branch Re sqrt(z) > 0.

    A scalar z gives the (n, n) matrix, an array the (*z.shape, n, n) stack.
    z is not checked; the system's ``gamma`` checks it first.
    """
    z = np.asarray(z, dtype=complex)
    sq = np.sqrt(z)[..., None]
    n = model.n_centers
    out = np.empty(z.shape + (n * n,), dtype=complex)
    off = -np.exp(-sq * model._upper_distances) / model._upper_scale
    out[..., model._upper_index] = out[..., model._lower_index] = off
    out[..., :: n + 1] = sq / FOUR_PI
    return out.reshape(z.shape + (n, n))


def _point_gram(model: PointModel, z: complex, w: complex) -> np.ndarray:
    """Gram matrix G(conj(w))^* G(z) of the point model; neither argument is checked.

    With a, b the roots of w and z, ordered so that Re a <= Re b, and d the
    centre distances, entry (j, k) is exp(-a d) E(x) / (4 pi (a + b)) with
    x = (b - a) d = (z_b - z_a) d / (a + b) and E(x) = (1 - exp(-x)) / x,
    E(0) = 1. One formula covers the diagonal and z = w, nothing cancels
    near z = w, and exp(-x) stays bounded; it does not read Gamma.
    """
    z, w = complex(z), complex(w)
    (za, a), (zb, b) = sorted([(w, np.sqrt(w)), (z, np.sqrt(z))], key=lambda root: root[1].real)
    d = model._distances
    x = (zb - za) / (a + b) * d
    quotient = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    return np.exp(-a * d) * quotient / (FOUR_PI * (a + b))


def _point_g_values(model: PointModel, z: complex, zeta, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    zeta = np.asarray(zeta, dtype=complex)
    sq = np.sqrt(complex(z))
    r = np.sqrt(
        np.sum((pts[:, None, :] - model.centers[None, :, :]) ** 2, axis=-1)
    )
    if np.any(r <= MIN_CENTER_DISTANCE):
        raise ValueError("evaluation points must stay away from the centers")
    return (np.exp(-sq * r) / (FOUR_PI * r)) @ zeta


def _renormalized_trace(model: PointModel, vals: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Renormalised trace of psi = part + G(0) zeta at the centers, from the
    values ``vals`` of the continuous part there.

    Component k is the limit of psi(x) - zeta_k / (4 pi |x - y_k|) as
    x -> y_k, which evaluates to part(y_k) plus the cross terms
    zeta_j / (4 pi |y_k - y_j|), j != k.
    """
    n = model.n_centers
    coeff = np.zeros(n * n, dtype=complex)
    coeff[model._upper_index] = coeff[model._lower_index] = 1.0 / model._upper_scale
    return vals + coeff.reshape(n, n) @ zeta


def point_green_regular_part(model: PointModel, lam, coeff):
    """Callable for G(lam) c - G(0) c, continuous across the centers.

    Away from the centers this is the plain kernel difference; at a center
    y_k it takes the limit value -sqrt(lam) c_k / (4 pi) plus the smooth
    cross terms, so it can feed the point system's ``renorm_trace`` directly.
    ``lam`` in (-inf, 0] raises :class:`ExcludedPointError`, as in ``gamma``.
    """
    check_admissible(HalfLineExclusions(0.0), lam)
    lam = complex(lam)
    coeff = np.asarray(coeff, dtype=complex)
    sq = np.sqrt(lam)

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.sqrt(
            np.sum((pts[:, None, :] - model.centers[None, :, :]) ** 2, axis=-1)
        )
        near = r <= MIN_CENTER_DISTANCE
        smooth = np.where(near, 1.0, r)
        term = np.expm1(-sq * smooth) / (FOUR_PI * smooth)
        term = np.where(near, -sq / FOUR_PI, term)
        return term @ coeff

    return evaluate


def point_weyl(model: PointModel) -> PointWeylSystem:
    """Weyl system of the point-interaction model: the spin model with b = (0,).

    One spin-builder call; ``g_apply`` samples G(z) zeta on (m, 3) point
    grids. Only two shapes differ from the one-channel spin system's:
    ``g_apply`` returns (m,), not (1, m), and ``renorm_trace`` takes a
    continuous part of shape (n,), not (1, n).
    """
    return _spin_system(model, (0.0,), "points", bare=True)


# ---------------------------------------------------------------------------
# spin (vector-valued) point model


def spin_weyl(model: SpinPointModel) -> PointWeylSystem:
    """Weyl system of the vector-valued point model.

    The boundary space is the direct sum over internal eigenchannels of one
    C^n charge block per channel (channel-major ordering: block i covers
    indices i*n .. i*n + n - 1); channel i evaluates the scalar point model
    at the shifted parameter z - b_i, and z is admissible only when every
    shift avoids (-inf, 0].
    """
    return _spin_system(PointModel(model.centers), model.b, "spin_points")


def _spin_system(point: PointModel, b: tuple, kind: str, bare: bool = False) -> PointWeylSystem:
    """The Weyl system of the channels z - b_i; with ``bare``, of the one
    channel b = (0,), whose samples and continuous parts drop the channel axis."""
    n, d = point.n_centers, len(b)
    # z off (-inf, max b] puts every shifted z - b_i off (-inf, 0]: one check per call
    excluded = HalfLineExclusions(max(b))
    shifts = np.array(b)

    def gamma(z):
        check_admissible(excluded, z)
        return _block_diag(_point_gamma(point, np.asarray(z)[..., None] - shifts))

    def gram(z, w):
        check_admissible(excluded, (z, w))
        return _block_diag(np.array([_point_gram(point, z - shift, w - shift) for shift in b]))

    def g_apply(z, zeta, grid):
        check_admissible(excluded, z)
        charges = _boundary_vector(zeta, n * d).reshape(d, n)
        pts = np.atleast_2d(np.asarray(grid, dtype=float))
        out = np.array([_point_g_values(point, z - shift, c, pts) for shift, c in zip(b, charges)])
        return out[0] if bare else out

    def renorm_trace(part, zeta):
        charges = _boundary_vector(zeta, n * d).reshape(d, n)
        if callable(part):
            vals = np.asarray(part(point.centers), dtype=complex)
        else:
            vals = np.asarray(part, dtype=complex)
        vals = vals[None] if bare else vals
        if vals.shape != (d, n):
            raise ValueError("continuous part must give a (channels, centers) array")
        return np.concatenate([_renormalized_trace(point, v, c) for v, c in zip(vals, charges)])

    return PointWeylSystem(
        n=n * d,
        kind=kind,
        excluded=excluded,
        gamma=gamma,
        gram=gram,
        g_apply=g_apply,
        renorm_trace=renorm_trace,
    )
