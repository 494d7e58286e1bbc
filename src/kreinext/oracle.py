"""Independent reference spectra for cross-validation.

The interval and graph oracles discretize the quadratic form of the
extension: lumped piecewise-linear elements on each edge, the projector
range constraint imposed by restricting the trial space at the endpoints,
and the coupling operator entering as a boundary form. That keeps the
discrete problem genuinely Hermitian (real symmetric for real coupling
matrices) and second-order accurate, independently of the Weyl-family
route it validates. The point-interaction bound state has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .krein import ExtensionParams, range_basis, require_valid
from .models import GraphModel, IntervalModel

__all__ = [
    "FDSpec",
    "fd_interval_spectrum",
    "fd_graph_spectrum",
    "single_point_eigenvalue",
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
    """Hermitian matrix of the mass-normalised constrained quadratic form."""
    import scipy.sparse as sp  # imported here to keep scipy out of the CLI start-up

    require_valid(params)
    n_edges = len(lengths)
    theta = params.theta
    basis = range_basis(params.pi)  # 2K x k
    k = basis.shape[1]
    real_case = bool(
        np.allclose(params.theta.imag, 0.0, atol=0.0)
        and np.allclose(basis.imag, 0.0, atol=0.0)
    )
    dtype = float if real_case else complex
    basis = basis.real.astype(float) if real_case else basis

    sizes = [n_nodes] * n_edges
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    steps = [length / (n_nodes - 1) for length in lengths]

    main = np.empty(total)
    mass = np.empty(total)
    off = np.empty(total - 1)
    for e, h in enumerate(steps):
        lo, hi = offsets[e], offsets[e + 1]
        main[lo:hi] = 2.0 / h
        main[lo] = main[hi - 1] = 1.0 / h
        mass[lo:hi] = h
        mass[lo] = mass[hi - 1] = h / 2.0
        off[lo : hi - 1] = -1.0 / h
        if e + 1 < n_edges:
            off[hi - 1] = 0.0  # no stiffness coupling across edge boundaries
    stiffness = sp.diags([off, main, off], [-1, 0, 1], format="csr", dtype=dtype)

    endpoint_nodes = []
    for e in range(n_edges):
        endpoint_nodes.extend([int(offsets[e]), int(offsets[e + 1] - 1)])
    interior = np.setdiff1d(np.arange(total), endpoint_nodes)

    # unknowns: k range coordinates, then the interior nodes
    reduced_dim = k + interior.size
    rows, cols, vals = [], [], []
    for b, node in enumerate(endpoint_nodes):
        for j in range(k):
            rows.append(node)
            cols.append(j)
            vals.append(basis[b, j])
    for pos, node in enumerate(interior):
        rows.append(int(node))
        cols.append(k + pos)
        vals.append(1.0)
    expand = sp.csr_matrix(
        (np.asarray(vals, dtype=dtype), (rows, cols)), shape=(total, reduced_dim)
    )

    reduced = (expand.conj().T @ stiffness @ expand).tocsr()
    if k:
        theta_c = basis.conj().T @ theta @ basis
        if real_case:
            theta_c = theta_c.real
        pad = sp.csr_matrix((reduced_dim - k, reduced_dim - k), dtype=dtype)
        bump = sp.bmat(
            [[sp.csr_matrix(theta_c.astype(dtype)), None], [None, pad]], format="csr"
        )
        reduced = (reduced + bump).tocsr()

    mass_reduced = (
        expand.conj().T @ sp.diags(mass.astype(dtype)) @ expand
    ).tocsr()
    # mass is diagonal on interiors and a small Hermitian block on the range
    # coordinates; invert its square root blockwise
    tail = sp.diags(1.0 / np.sqrt(mass_reduced.diagonal()[k:].real))
    if k:
        w, u = np.linalg.eigh(mass_reduced[:k, :k].toarray())
        block_inv_sqrt = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
        scale = sp.bmat(
            [[sp.csr_matrix(block_inv_sqrt.astype(dtype)), None], [None, tail]],
            format="csr",
        )
    else:
        scale = tail.tocsr().astype(dtype)

    ham = (scale @ reduced @ scale).tocsc()
    ham = (ham + ham.conj().T) / 2.0
    return ham


def _top_eigenvalues(lengths, n_nodes, params, count):
    import scipy.sparse.linalg as spla

    ham = _assemble_constrained(lengths, n_nodes, params)
    dim = ham.shape[0]
    if count >= dim - 1:
        raise ValueError("requested more eigenvalues than the discretization carries")
    theta_norm = np.linalg.norm(params.theta, 2)
    sigma = -(8.0 * theta_norm**2 + 8.0 * theta_norm / min(lengths) + 10.0)
    vals = spla.eigsh(
        ham, k=count, sigma=sigma, which="LM", return_eigenvectors=False
    )
    lam = -np.sort(vals.real)  # form eigenvalues mu; operator eigenvalues are -mu
    return np.sort(lam[:count])


def fd_interval_spectrum(
    model: IntervalModel, params: ExtensionParams, spec: FDSpec = FDSpec(), count: int = 5
) -> np.ndarray:
    """The ``count`` interval eigenvalues nearest the top of the spectrum, ascending.

    Convergence is O(h^2) in the node spacing; boundary conditions of any
    coupled (pi, theta) form are honoured exactly at the discrete level.
    """
    return _top_eigenvalues((model.a,), spec.n_nodes, params, count)


def fd_graph_spectrum(
    model: GraphModel, params: ExtensionParams, spec: FDSpec = FDSpec(), count: int = 5
) -> np.ndarray:
    """Edgewise analogue of :func:`fd_interval_spectrum` (same node count per edge)."""
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


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Plain bisection for a bracketed sign change of a scalar function."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection needs a sign change over the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
