"""Independent reference spectra for cross-validation.

The graph oracle, whose one-edge case is the interval, discretizes the
quadratic form of the extension: lumped piecewise-linear elements on each
edge, the projector range constraint imposed by restricting the trial
space at the endpoints, and the coupling operator entering as a boundary
form. The result is a Hermitian pencil (form, mass), real symmetric for
real coupling matrices and second-order accurate, independent of the
Weyl-family route it validates; its spectrum is a generalized eigenproblem, and a solve of
form + z mass is a reference resolvent. The point-interaction bound state
has a closed form.
The Gram matrix of the interval and graph deficiency elements is integrated
by composite Simpson quadrature of columns sampled here; it reads neither
the models' closed form nor their sampled kernels, so the difference
identity Gamma(z) - Gamma(w) = (z - w) G(conj(w))^* G(z) is checked
against quadrature, not against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krein import ExtensionParams, check_admissible
from .models import DirichletExclusions, GraphModel
from .quad import simpson

__all__ = [
    "FDSpec",
    "fd_graph_spectrum",
    "single_point_eigenvalue",
    "simpson_gram",
    "bisect_root",
]


@dataclass(frozen=True)
class FDSpec:
    """Discretization control: nodes per edge (uniform, endpoints included)."""

    n_nodes: int = 2000

    def __post_init__(self):
        if self.n_nodes < 100:
            raise ValueError(f"need at least 100 nodes, got {self.n_nodes}")


def _assemble_constrained(lengths, n_nodes, params: ExtensionParams):
    """Hermitian pencil ``(form, mass)`` of the constrained quadratic form.

    The unknowns are the k range coordinates c, whose endpoint values are
    ``range_basis @ c``, then the interior nodes edge by edge. ``form`` is
    ||u'||^2 + <theta c, c> and ``mass`` the lumped L^2 mass; both are real
    for a real label.
    """
    import scipy.sparse as sp  # imported here to keep scipy out of the CLI start-up

    basis, theta = params.range_basis, params.theta  # basis is 2K x k
    if not (basis.imag.any() or theta.imag.any()):
        basis, theta = basis.real, theta.real
    n_edges, k = len(lengths), basis.shape[1]
    h = np.asarray(lengths, dtype=float) / (n_nodes - 1)
    first = np.arange(n_edges)[:, None] * n_nodes
    ends = (first + [0, n_nodes - 1]).ravel()  # left and right end of each edge
    interior = (first + np.arange(1, n_nodes - 1)).ravel()
    dim = k + interior.size
    # node values = expand @ unknowns: basis rows at the ends, identity inside
    rows = np.concatenate([np.repeat(ends, k), interior])
    cols = np.concatenate([np.tile(np.arange(k), 2 * n_edges), k + np.arange(interior.size)])
    vals = np.concatenate([basis.ravel(), np.ones(interior.size)])
    expand = sp.csr_matrix((vals, (rows, cols)), shape=(n_edges * n_nodes, dim))
    main, lumped = np.repeat(2.0 / h, n_nodes), np.repeat(h, n_nodes)
    off = np.repeat(-1.0 / h, n_nodes)[:-1]
    main[ends] /= 2.0
    lumped[ends] /= 2.0
    off[n_nodes - 1 :: n_nodes] = 0.0  # no stiffness coupling across edge boundaries
    stiffness = sp.diags([off, main, off], [-1, 0, 1])
    # theta compressed onto the range, as the top-left k x k block
    theta_c = basis.conj().T @ theta @ basis
    coupling = sp.coo_matrix((theta_c.ravel(), np.indices((k, k)).reshape(2, -1)), shape=(dim, dim))
    form = expand.conj().T @ stiffness @ expand + coupling
    mass = expand.conj().T @ sp.diags(lumped) @ expand
    return tuple(((x + x.conj().T) / 2.0).tocsc() for x in (form, mass))


def _top_eigenvalues(lengths, n_nodes, params, count):
    import scipy.sparse.linalg as spla

    form, mass = _assemble_constrained(lengths, n_nodes, params)
    if count >= form.shape[0] - 1:
        raise ValueError("requested more eigenvalues than the discretization carries")
    theta_norm = params.theta_norm
    sigma = -(8.0 * theta_norm**2 + 8.0 * theta_norm / min(lengths) + 10.0)
    start = np.ones(form.shape[0])  # a fixed ARPACK start vector, so equal inputs give equal bits
    vals = spla.eigsh(
        form, k=count, M=mass, sigma=sigma, which="LM", v0=start, return_eigenvectors=False
    )
    return np.sort(-vals.real)  # form eigenvalues mu; operator eigenvalues are -mu


def fd_graph_spectrum(
    model: GraphModel, params: ExtensionParams, spec: FDSpec = FDSpec(), count: int = 5
) -> np.ndarray:
    """The ``count`` eigenvalues nearest the top of the spectrum, ascending.

    Every edge carries ``spec.n_nodes`` nodes; the interval of length a is
    ``GraphModel((a,))``. Convergence is O(h^2) in the node spacing;
    boundary conditions of any coupled (pi, theta) form are honoured exactly
    at the discrete level.
    """
    return _top_eigenvalues(model.lengths, spec.n_nodes, params, count)


def single_point_eigenvalue(alpha: float):
    """Bound state of a single point interaction with diagonal strength alpha.

    The secular condition alpha + sqrt(lam)/(4 pi) = 0 has the root
    lam = 16 pi^2 alpha^2 when alpha < 0 (the branch with positive real
    square root); for alpha >= 0 there is none.
    """
    alpha = float(alpha)
    if alpha >= 0.0:
        return None
    return 16.0 * np.pi**2 * alpha**2


def _default_gram_nodes(length: float) -> int:
    n = max(501, int(round(2001 * length)))
    return n if n % 2 == 1 else n + 1


def _deficiency_columns(a: float, z, x) -> np.ndarray:
    """The solutions of u'' = z u on (0, a) with boundary values (1, 0) and (0, 1),
    G(z) e_1 and G(z) e_2, sampled on x as two columns (linear at z = 0)."""
    if z == 0:
        return np.stack([(a - x) / a, x / a], axis=1).astype(complex)
    k = complex(np.sqrt(complex(-z)))
    s = np.sin(k * a)
    return np.stack([np.sin(k * (a - x)) / s, np.sin(k * x) / s], axis=1)


def simpson_gram(lengths, z, w, nodes: int | None = None) -> np.ndarray:
    """Gram matrix G(conj(w))^* G(z) of the edgewise model by Simpson quadrature.

    ``lengths`` are the edge lengths (one for the interval). Each edge block
    integrates products of the deficiency columns, sampled here, on
    ``nodes`` nodes (default 2001 per unit length, at least 501, odd).
    """
    excluded = DirichletExclusions(lengths)
    check_admissible(excluded, (z, w))
    n = 2 * len(excluded.lengths)
    out = np.zeros((n, n), dtype=complex)
    for k, a in enumerate(excluded.lengths):
        xq = np.linspace(0.0, a, nodes or _default_gram_nodes(a))
        dxq = xq[1] - xq[0]
        gz, gw = _deficiency_columns(a, z, xq), _deficiency_columns(a, w, xq)
        for i in range(2):
            for j in range(2):
                out[2 * k + i, 2 * k + j] = simpson(gw[:, i] * gz[:, j], dxq)
    return out


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection for a bracketed sign change of a scalar function, at most 200 halvings."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection needs a sign change over the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
