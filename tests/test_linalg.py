import numpy as np
import pytest

from kreinext.linalg import as_matrix, as_square, orthonormal_span


def test_as_matrix_takes_only_finite_matrices():
    assert as_matrix([[1, 2]]).dtype == complex
    with pytest.raises(ValueError, match=r"^expected a matrix, got ndim=1$"):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError, match=r"^matrix has non-finite entries$"):
        as_matrix([[1.0, np.nan]])
    assert as_matrix(np.empty((0, 2))).shape == (0, 2)  # no entries, nothing to refuse


def test_as_square_rejects_a_rectangle():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        as_square(np.ones((2, 3)))


def test_orthonormal_span_of_no_columns_and_of_zero():
    empty = orthonormal_span(np.empty((3, 0)))
    assert empty.shape == (3, 0) and empty.dtype == complex
    assert orthonormal_span(np.zeros((3, 2))).shape == (3, 0)


def test_orthonormal_span_cuts_the_rank_relative_to_the_largest_value():
    columns = np.array([[1.0, 1.0, 0.0], [0.0, 1e-12, 0.0], [0.0, 0.0, 1e-9]])
    span = orthonormal_span(columns)
    assert span.shape == (3, 2)
    assert np.allclose(span.conj().T @ span, np.eye(2), atol=1e-14)
