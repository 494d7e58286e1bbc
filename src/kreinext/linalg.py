"""Dense complex linear algebra on small boundary-space matrices.

Everything operates on plain 2-D numpy arrays (boundary dimensions stay
below ~64, so dense LAPACK routines are the right tool). The rank
threshold is centralised here so subspace comparisons stay consistent
across the package. ``RANK_RTOL`` is the one rule for a
numerical zero: a singular value, or the modulus of a Hermitian
eigenvalue, counts as zero when it is at most ``RANK_RTOL`` times its
matrix's scale (the largest singular value, or 1 + max|w| for a secular
matrix).
"""

import numpy as np

__all__ = [
    "RANK_RTOL",
    "as_matrix",
    "as_square",
    "orthonormal_span",
]

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


def orthonormal_span(columns) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at ``RANK_RTOL * sigma_max``."""
    u, s, _ = np.linalg.svd(as_matrix(columns), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return u[:, :rank]

