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

The systems are the only door to a model quantity, and their classes,
:class:`EdgeWeylSystem` and :class:`PointWeylSystem`, live here beside
their kernels. Gamma, the Gram matrix and sampled G(z) zeta are fields
(closures a builder binds to the model, which a copy may swap); the
sampled kernels, the boundary traces, G(z) zeta in closed form, the
renormalised trace and the regular part of G(lam) zeta are methods that
read the system's model data. Each checks z and shapes before the private
kernels below run.

The rest of a family's data lives here too, so that a new family needs no
change to :mod:`kreinext.krein`: the excluded spectra (the ``excluded``
of a system), the closed-form edge functions (:class:`SmoothFunction`) and
the edge grid rules (``MIN_EDGE_NODES`` and the two grid errors).

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
from typing import Callable, Sequence

import numpy as np

from .krein import ExcludedPointError, ExtensionParams, ModelConsistencyError, WeylSystem, check_admissible
from .quad import cumulative_simpson, simpson

__all__ = [
    "MIN_EDGE_NODES",
    "MAX_WINDOW_POLES",
    "GridTooCoarseError",
    "GridMismatchError",
    "SmoothFunction",
    "DirichletExclusions",
    "HalfLineExclusions",
    "IntervalModel",
    "GraphModel",
    "PointModel",
    "SpinPointModel",
    "SampledKernels",
    "EdgeWeylSystem",
    "PointWeylSystem",
    "VertexGroup",
    "interval_weyl",
    "graph_weyl",
    "vertex_params",
    "point_weyl",
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
# The sampled kernels integrate only on grids of at least this many nodes per edge.
MIN_EDGE_NODES = 501
# A search window may hold at most this many Dirichlet poles of one edge.
MAX_WINDOW_POLES = 10**6


class GridTooCoarseError(ValueError):
    """Sample grid below the documented quadrature floor."""


class GridMismatchError(ValueError):
    """Sample grid that does not span its edge uniformly, or samples of another length."""


# ---------------------------------------------------------------------------
# model descriptors


@dataclass(frozen=True)
class IntervalModel:
    """The operator d^2/dx^2 on (0, a) with Dirichlet free realisation."""

    a: float

    def __post_init__(self):
        GraphModel((self.a,))  # the one-edge graph's rule on its length


@dataclass(frozen=True)
class GraphModel:
    """Edgewise second derivative on K segments [0, a_k]."""

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(a) for a in self.lengths)
        with np.errstate(all="ignore"):  # (pi / a)^2, the Dirichlet pole unit DirichletExclusions forms
            units = np.float_power(np.pi / np.array(lengths), 2)
        if not lengths or any(not np.isfinite(a) or a <= 0 for a in lengths) or not np.isfinite(units).all():
            raise ValueError(f"edge lengths must be positive with a finite (pi / a)^2, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class PointModel:
    """3-D Laplacian restricted off n pairwise distinct centres.

    The pairwise centre distances are kept in private attributes (not
    fields), which the kernels read: ``_upper_distances`` the entries of
    the distance matrix above the diagonal, in the order of
    ``np.triu_indices``, ``_upper_scale`` 4 pi times them, and ``_mirror``
    the (n n,) flat index that :func:`_symmetric` gathers through: 0 on the
    diagonal, 1 + p at entry p above it and at its mirror below it. Models
    compare and hash by the centres' shape and bytes, so a model is a value.
    """

    centers: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 1:
            raise ValueError("centers must be an (n, 3) array of points")
        if not np.isfinite(c).all():
            raise ValueError("centers must be finite")
        object.__setattr__(self, "centers", c)
        d = _pairwise_distances(c, c)
        rows, cols = np.triu_indices(len(c), 1)
        off = d[rows, cols]
        mirror = np.zeros(d.shape, dtype=np.intp)
        mirror[rows, cols] = mirror[cols, rows] = np.arange(1, off.size + 1)
        for name, value in (
            ("_mirror", mirror.ravel()),
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

    def _data(self):
        return self.centers.shape, self.centers.tobytes()

    def __eq__(self, other):
        return type(other) is type(self) and self._data() == other._data()

    def __hash__(self):
        return hash(self._data())


@dataclass(frozen=True)
class SpinPointModel:
    """Point model with an internal Hermitian term, given by its eigenvalues b.

    Models compare and hash by the centres' shape and bytes and by b.
    """

    centers: np.ndarray
    b: tuple

    def __post_init__(self):
        point = PointModel(self.centers)
        object.__setattr__(self, "centers", point.centers)
        object.__setattr__(self, "_point", point)  # not a field; spin_weyl reads it
        b = tuple(float(x) for x in self.b)
        if not b:
            raise ValueError("need at least one internal eigenvalue")
        if not np.isfinite(b).all():
            raise ValueError(f"internal eigenvalues must be finite, got {b}")
        object.__setattr__(self, "b", b)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    def _data(self):
        return self._point._data(), self.b

    __eq__ = PointModel.__eq__
    __hash__ = PointModel.__hash__


# ---------------------------------------------------------------------------
# closed-form building blocks (shared by tests and presets)


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
# excluded spectral sets


class DirichletExclusions:
    """Union of edge Dirichlet spectra {-(n pi / a_e)^2 : n >= 1}.

    Each pole carries a guard radius of ``guard_rel`` times the local pole
    spacing; evaluation inside a guard ball is refused to avoid the
    catastrophic cancellation of sin(sqrt(-z) a) near its zeros.
    """

    guard_rel = 1e-8

    def __init__(self, lengths: Sequence[float]):
        self.lengths = GraphModel(lengths).lengths
        self._a = np.array(self.lengths)
        self._unit = np.float_power(np.pi / self._a, 2)  # (pi / a)^2 as Python computes it
        # a candidate n of z is at most sqrt(max(-Re z, 0)) a / pi + 1, so no guard
        # radius guard_rel (2 n + 1) (pi / a)^2 of z exceeds the bound
        # guard_rel (2 sqrt(max(-Re z, 0)) max a / pi + 3) max (pi / a)^2;
        # contains rejects beyond twice the bound, which _reject carries
        self._slope = 2.0 * self._a.max() / np.pi
        self._reject = 2.0 * self.guard_rel * self._unit.max()

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
        """True where z (a scalar or an array) lies in a guard ball.

        A z whose |Im z| exceeds twice the bound on its guard radii,
        guard_rel (2 sqrt(max(-Re z, 0)) max a / pi + 3) max (pi / a)^2,
        lies in none. One vectorised test rejects those, and only the rest go
        through the nearest-pole test; a call whose z are all real skips the
        rejection. The answers are the nearest-pole test's, and a scalar z
        gives a bool.
        """
        z = np.asarray(z, dtype=complex)
        # count_nonzero costs a fraction of any() and all() on small arrays
        if np.count_nonzero(z.imag):
            odd = self._slope * np.sqrt(np.maximum(-z.real, 0.0)) + 3.0  # >= 2 n + 1
            near = np.abs(z.imag) <= self._reject * odd
            count = np.count_nonzero(near)
            if count < near.size:
                hit = np.zeros(z.shape, dtype=bool)
                if count:
                    hit[near] = self._in_guard(z[near])
                return hit if hit.ndim else bool(hit)
        hit = self._in_guard(z)
        return hit if hit.ndim else bool(hit)

    def _in_guard(self, z):
        """The nearest-pole test of :meth:`contains` at every entry of z."""
        dist, n = self._nearest(z)
        return (dist <= self.guard_rel * (2 * n + 1) * self._unit).any(axis=(-2, -1))

    def gaps_in(self, lo: float, hi: float):
        # reported gaps are twice the evaluation guard, so scanning up to a
        # gap edge can never land inside a guard ball; each edge's candidate
        # poles are one array, squared by float_power (C pow, as Python's **)
        gaps = []
        for a, unit in zip(self.lengths, self._unit.tolist()):
            n_lo = max(1, int(np.ceil(np.sqrt(max(-hi, 0.0)) * a / np.pi - 1e-12)))
            n_hi = int(np.floor(np.sqrt(max(-lo, 0.0)) * a / np.pi + 1e-12))
            if n_hi - n_lo >= MAX_WINDOW_POLES:
                raise ExcludedPointError(
                    f"the window [{lo!r}, {hi!r}] holds {n_hi - n_lo + 1} Dirichlet poles of the edge of "
                    f"length {a!r}, more than the {MAX_WINDOW_POLES} a search lists"
                )
            n = np.arange(max(1, n_lo - 1), n_hi + 2, dtype=float)
            pole = -np.float_power(n * np.pi / a, 2)
            g = 2.0 * (self.guard_rel * (2 * n + 1) * unit)
            meets = (pole + g >= lo) & (pole - g <= hi)
            gaps += zip(np.maximum(lo, pole - g)[meets].tolist(), np.minimum(hi, pole + g)[meets].tolist())
        return _merge_intervals(gaps)

    def describe(self) -> str:
        return f"union of edge Dirichlet spectra {{-(n*pi/a)^2, n>=1}} for a in {self.lengths}"


class HalfLineExclusions:
    """The half line (-inf, upper] on the real axis."""

    def __init__(self, upper: float):
        self.upper = float(upper)

    def distance(self, z) -> float:
        z = complex(z)
        return abs(z.imag) if z.real <= self.upper else abs(z - self.upper)

    def contains(self, z):
        """True where z (a scalar or an array) lies on the half line."""
        z = np.asarray(z, dtype=complex)
        hit = (z.imag == 0.0) & (z.real <= self.upper)
        return hit if hit.ndim else bool(hit)

    def gaps_in(self, lo: float, hi: float):
        return [(lo, min(hi, self.upper))] if lo <= self.upper else []

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
    ka = k * a
    ratio = k / np.sin(ka)
    out = np.empty(ratio.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = ratio * np.cos(ka)
    out[..., 0, 1] = out[..., 1, 0] = ratio * -1.0  # times -1 + 0j; -ratio flips signed zeros
    if zero.any():
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


def _edge_columns(a: float, z, x: np.ndarray):
    """((u, v, w), columns) of the edge (0, a) at the points x; z is not checked.

    With k = sqrt(-z) and s = sin(ka), u = sin(kx), v = sin(k(a - x)) and
    w = k s give the free resolvent kernel u(x_<) v(x_>) / w, and the
    deficiency columns [v / s, u / s] are one (*x.shape, 2) array. z = 0
    keeps its linear kernels u = x, v = a - x and s = a, with w None.
    """
    if z == 0:
        u, v, s, w = x, a - x, a, None
    else:
        k = _sqrt_minus(z)
        s = np.sin(k * a)
        u, v, w = np.sin(k * x), np.sin(k * (a - x)), k * s
    columns = np.empty(x.shape + (2,), dtype=complex)
    np.divide(v, s, out=columns[..., 0])
    np.divide(u, s, out=columns[..., 1])
    return (u, v, w), columns


def _grid_step(a: float, x: np.ndarray, edge: int) -> float:
    """The step of x, unless x is not a uniform grid from 0 to a; then
    :class:`GridMismatchError` naming the edge ``edge`` (length a)."""
    if x.ndim != 1 or x.shape[0] < 2:
        problem = f"need a 1-D grid of at least 2 nodes, got shape {x.shape}"
    elif (bad := np.flatnonzero(~np.isfinite(x))).size:
        problem = f"grid node {bad[0]} is {float(x[bad[0]])!r}, not finite"
    elif abs(x[0]) > GRID_END_RTOL * a or abs(x[-1] - a) > GRID_END_RTOL * a:
        problem = f"grid runs from {float(x[0])} to {float(x[-1])}, not from 0 to the edge length {a!r}"
    else:
        dx = x[1] - x[0]
        deviation = np.max(np.abs(np.diff(x) - dx))
        if deviation <= GRID_STEP_RTOL * dx:
            return dx
        problem = f"grid spacing is not uniform (steps deviate by {deviation / dx:.1e} of the first)"
    raise GridMismatchError(f"edge {edge} (length {a!r}): {problem}")


def _fitted(a: float, nodes: int, samples, edge: int) -> np.ndarray:
    """The samples as an array; :class:`GridMismatchError` naming the edge unless they are ``nodes`` long."""
    samples = np.atleast_1d(samples)  # a scalar counts as one sample
    if samples.shape[:1] != (nodes,):
        problem = f"{samples.shape[0]} samples on a grid of {nodes} nodes"
        raise GridMismatchError(f"edge {edge} (length {a!r}): {problem}")
    return samples


class SampledKernels:
    """The Krein formula's three sampled factors on the edges of one system,
    bound to one z and one grid.

    Building one checks z, then the grid: :class:`GridTooCoarseError` if
    some edge's grid has fewer than ``MIN_EDGE_NODES`` nodes, then
    :class:`GridMismatchError`, naming the edge, unless each edge's grid
    runs uniformly from 0 to its length. It keeps each edge's step and
    evaluates its kernel and deficiency columns once (:func:`_edge_columns`).
    ``resolvent(psi)`` gives R_0(z) psi, ``adjoint(psi)`` G(conj(z))^* psi
    in C^n and ``apply(zeta)`` G(z) zeta, each taking and returning edge
    functions in the system's shape. The first two integrate by Simpson's
    rule and raise :class:`GridMismatchError` for samples that do not have
    the grid's length; ``apply`` raises ``ValueError`` for a zeta whose
    length is not n.
    """

    def __init__(self, system: EdgeWeylSystem, z, grid):
        check_admissible(system.excluded, z)
        grids = [np.asarray(x, dtype=float) for x in system.edges(grid)]
        coarse = [len(x) for x in grids if x.ndim == 1 and len(x) < MIN_EDGE_NODES]
        if coarse:
            raise GridTooCoarseError(f"need at least {MIN_EDGE_NODES} nodes per edge, got {coarse[0]}")
        self._system, self._edges = system, []  # each edge's (a, step, kernel, columns)
        for edge, (a, x) in enumerate(zip(system.lengths, grids)):
            self._edges.append((a, _grid_step(a, x, edge), *_edge_columns(a, z, x)))

    def _samples(self, psi):
        """(a, kernel, columns, samples, step) of each edge; samples of another
        length than the grid's raise GridMismatchError naming the edge."""
        for edge, ((a, dx, kernel, columns), part) in enumerate(zip(self._edges, self._system.edges(psi))):
            yield a, kernel, columns, _fitted(a, len(columns), part, edge), dx

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
        vals, ders = psi.f(ends), psi.df(ends)
        return np.array([vals[0], vals[1]], dtype=complex), np.array([ders[0], -ders[1]], dtype=complex)
    samples = np.asarray(psi)
    if grid is None:
        raise ValueError("sampled traces need the sample grid")
    x = np.asarray(grid, dtype=float)
    h = _grid_step(a, x, edge)
    samples = _fitted(a, len(x), samples, edge)
    rho = np.array([samples[0], samples[-1]], dtype=complex)
    tau = np.array([_inward_derivative(samples, h, left) for left in (True, False)], dtype=complex)
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
    entries = np.array([_edge_gram(a, z, w) for a in lengths], dtype=complex)
    # each edge's (A, B) gives the block [[A, B], [B, A]]
    return _block_diag(entries[:, [[0, 1], [1, 0]]])


# ---------------------------------------------------------------------------
# graph model and the interval as its one edge


@dataclass(frozen=True)
class EdgeWeylSystem(WeylSystem):
    """Weyl system of a metric graph, or of the interval as its one edge.

    Functions on the edges are lists with one entry per edge (edge k owns
    boundary coordinates 2k and 2k + 1); with ``bare`` set, on the interval,
    they are that one entry itself. :meth:`edges` and :meth:`shaped`
    convert, and :meth:`edges` raises :class:`GridMismatchError` for any
    number of entries but one per edge. Every map takes and returns edge
    functions, samples and grids in that shape, and a zeta whose length is
    not n raises ``ValueError``. ``g_apply(z, zeta, grid)`` evaluates the
    deficiency columns of :class:`SampledKernels` at any points and builds no
    kernels. The methods read only the model data ``lengths`` and ``bare``.
    """

    lengths: tuple
    bare: bool

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

    def sampled_kernels(self, z, grid) -> SampledKernels:
        """The one :class:`SampledKernels` of z on the edge grids; it checks z and the grids."""
        return SampledKernels(self, z, grid)

    def traces(self, parts, grid=None):
        """The pair (rho, tau) in C^n of boundary values and inward derivatives:
        of closed forms, or of uniform samples on ``grid`` by one-sided
        fourth-order stencils."""
        parts = self.edges(parts)
        grids = [None] * len(parts) if grid is None else self.edges(grid)
        rho, tau = zip(*(_edge_traces(a, parts[k], grids[k], k) for k, a in enumerate(self.lengths)))
        return np.concatenate(rho), np.concatenate(tau)

    def g_closed(self, z, zeta):
        """The closed form of G(z) zeta on each edge; it checks z."""
        check_admissible(self.excluded, z)
        pairs = _boundary_vector(zeta, self.n).reshape(len(self.lengths), 2)
        return self.shaped([_edge_green(a, z, pair) for a, pair in zip(self.lengths, pairs)])


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

    The closures are the maps a copy may swap, and each checks z first.
    """
    lengths = GraphModel(lengths).lengths
    excluded = DirichletExclusions(lengths)

    def gamma(z):
        check_admissible(excluded, z)
        return _block_diag(_edge_gammas(lengths, z))

    def gram(z, w):
        check_admissible(excluded, (z, w))
        return _edge_gram_blocks(lengths, z, w)

    def g_apply(z, zeta, grid):
        check_admissible(excluded, z)
        pairs = _boundary_vector(zeta, system.n).reshape(len(lengths), 2)
        points = [np.asarray(x, dtype=float) for x in system.edges(grid)]
        return system.shaped([_edge_columns(a, z, x)[1] @ pair for a, x, pair in zip(lengths, points, pairs)])

    system = EdgeWeylSystem(2 * len(lengths), kind, excluded, gamma, gram, g_apply, lengths, bare)
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


def _pairwise_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (m, n) distances |x_i - y_j| of m points x_i from n centres y_j."""
    diff = points[:, None, :] - centers[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _symmetric(model: PointModel, values: np.ndarray) -> np.ndarray:
    """The (..., n, n) matrices over the centres from ``values`` (..., 1 + p):
    along its last axis the diagonal's one value, then a value per pair in
    the order of ``_upper_distances``, set above the diagonal and mirrored
    below it. One gather through ``model._mirror``."""
    n = model.n_centers
    return values.take(model._mirror, axis=-1).reshape(values.shape[:-1] + (n, n))


def _point_gamma(model: PointModel, z) -> np.ndarray:
    """Weyl matrix of the point model: sqrt(z)/(4 pi) on the diagonal,
    -exp(-sqrt(z) d)/(4 pi d) off it, principal branch Re sqrt(z) > 0.

    A scalar z gives the (n, n) matrix, an array the (*z.shape, n, n) stack.
    z is not checked; the system's ``gamma`` checks it first.
    """
    z = np.asarray(z, dtype=complex)
    sq = np.sqrt(z)[..., None]
    values = np.empty(z.shape + (1 + model._upper_distances.size,), dtype=complex)
    values[..., :1] = sq / FOUR_PI
    np.divide(-np.exp(-sq * model._upper_distances), model._upper_scale, out=values[..., 1:])
    return _symmetric(model, values)


def _point_gram(model: PointModel, z: complex, w: complex) -> np.ndarray:
    """Gram matrix G(conj(w))^* G(z) of the point model; neither argument is checked.

    With a, b the roots of w and z, ordered so that Re a <= Re b, and d the
    centre distances, entry (j, k) is exp(-a d) E(x) / (4 pi (a + b)) with
    x = (b - a) d = (z_b - z_a) d / (a + b) and E(x) = (1 - exp(-x)) / x,
    E(0) = 1. One formula covers the diagonal and z = w, nothing cancels
    near z = w, and exp(-x) stays bounded; it does not read Gamma.

    d is symmetric to the bit and 0 on the diagonal, so the formula runs on
    one 0 and the entries above the diagonal: :func:`_symmetric` fills the
    diagonal with the first value and mirrors the others, as the full matrix
    would give them.
    """
    z, w = complex(z), complex(w)
    (za, a), (zb, b) = sorted([(w, np.sqrt(w)), (z, np.sqrt(z))], key=lambda root: root[1].real)
    d = np.concatenate(([0.0], model._upper_distances))
    x = (zb - za) / (a + b) * d
    quotient = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    values = np.exp(-a * d) * quotient / (FOUR_PI * (a + b))
    return _symmetric(model, values)


def _point_g_values(model: PointModel, z: complex, zeta, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    zeta = np.asarray(zeta, dtype=complex)
    sq = np.sqrt(complex(z))
    r = _pairwise_distances(pts, model.centers)
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
    return vals + _symmetric(model, np.concatenate(([0j], 1.0 / model._upper_scale))) @ zeta


@dataclass(frozen=True)
class PointWeylSystem(WeylSystem):
    """Weyl system of a point-interaction model; no volume quadrature.

    Its model data are ``point``, the :class:`PointModel` of the centres,
    ``b``, the shifts of the channels, and ``bare``, set on the one-channel
    point model. ``g_apply``, :meth:`renorm_trace` and
    :meth:`green_regular_part` raise ``ValueError`` for a zeta whose length
    is not n.
    """

    point: PointModel
    b: tuple
    bare: bool

    def renorm_trace(self, part, zeta):
        """The renormalised trace at the centres of psi = part + G(0) zeta,
        which realises the boundary condition; ``part`` gives the continuous
        part at the centres, as values or as a callable."""
        point, d = self.point, len(self.b)
        charges = _boundary_vector(zeta, self.n).reshape(d, point.n_centers)
        vals = np.asarray(part(point.centers) if callable(part) else part, dtype=complex)
        vals = vals[None] if self.bare else vals
        if vals.shape != charges.shape:
            raise ValueError("continuous part must give a (channels, centers) array")
        return np.concatenate([_renormalized_trace(point, v, c) for v, c in zip(vals, charges)])

    def green_regular_part(self, lam, zeta):
        """Callable for G(lam) zeta - G(0) zeta, continuous across the centres.

        Channel i is G(lam - b_i) c_i - G(0) c_i for its block c_i of zeta:
        the plain kernel difference away from the centres, and at a centre
        y_k the limit value -sqrt(lam - b_i) c_ik / (4 pi) plus the smooth
        cross terms. It maps (m, 3) points to values of the shape
        :meth:`renorm_trace` takes, (channels, m), or (m,) on the point
        model, so it can feed it directly. ``lam`` in ``excluded`` raises
        :class:`ExcludedPointError`, as in ``gamma``.
        """
        check_admissible(self.excluded, lam)
        point = self.point
        charges = _boundary_vector(zeta, self.n).reshape(len(self.b), point.n_centers)
        roots = [np.sqrt(complex(lam) - shift) for shift in self.b]

        def evaluate(points):
            r = _pairwise_distances(np.atleast_2d(np.asarray(points, dtype=float)), point.centers)
            near = r <= MIN_CENTER_DISTANCE
            smooth = np.where(near, 1.0, r)
            out = np.array([
                np.where(near, -sq / FOUR_PI, np.expm1(-sq * smooth) / (FOUR_PI * smooth)) @ c
                for sq, c in zip(roots, charges)
            ])
            return out[0] if self.bare else out

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
    return _spin_system(model._point, model.b, "spin_points")


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

    return PointWeylSystem(n * d, kind, excluded, gamma, gram, g_apply, point, b, bare)
