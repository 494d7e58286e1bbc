"""Dense complex linear algebra on small boundary-space matrices.

Everything operates on plain 2-D numpy arrays (boundary dimensions stay
below ~64, so dense LAPACK routines are the right tool). Rank and
hermiticity thresholds are centralised here so subspace comparisons stay
consistent across the package.
"""

import numpy as np

__all__ = [
    "HERMITICITY_RTOL",
    "RANK_RTOL",
    "as_matrix",
    "as_square",
    "hermitian_eig",
    "min_singular",
    "projector_from_span",
    "orthonormal_span",
]

HERMITICITY_RTOL = 1e-12
RANK_RTOL = 1e-10


def as_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_square(mat) -> np.ndarray:
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_eig(mat):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    mat : array_like
        Square matrix, Hermitian within ``1e-12 * (1 + ||M||_F)``.

    Returns
    -------
    values : ndarray
        Real eigenvalues in ascending order.
    vectors : ndarray
        Orthonormal eigenvector columns, ``vectors[:, i]`` for ``values[i]``.

    The input is symmetrised before the solve so that matrices Hermitian
    only up to roundoff (e.g. Weyl matrices at real spectral parameters)
    decompose cleanly.
    """
    m = as_square(mat)
    res = np.linalg.norm(m - m.conj().T)
    if res > HERMITICITY_RTOL * (1.0 + np.linalg.norm(m)):
        raise ValueError(f"matrix is not Hermitian: asymmetry {res:.3e}")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return vals, vecs


def min_singular(mat) -> float:
    """Smallest singular value; 0.0 for an all-zero matrix."""
    m = as_matrix(mat)
    if m.size == 0:
        raise ValueError("min_singular needs a non-empty matrix")
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def orthonormal_span(columns, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at ``rtol * sigma_max``."""
    m = as_matrix(columns)
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


def projector_from_span(vectors, dim: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors in C^n.

    ``vectors`` may be linearly dependent or empty (then ``dim`` is required
    and the zero matrix is returned). Accepts a sequence of 1-D vectors or a
    2-D array of columns.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = vectors.astype(complex)
    else:
        veclist = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not veclist:
            if dim is None:
                raise ValueError("empty span needs an explicit ambient dimension")
            return np.zeros((dim, dim), dtype=complex)
        cols = np.stack(veclist, axis=1)
    if cols.shape[1] == 0:
        if dim is None:
            dim = cols.shape[0]
        return np.zeros((dim, dim), dtype=complex)
    q = orthonormal_span(cols)
    return q @ q.conj().T
