import numpy as np
import pytest

from kreinext.linalg import hermitian_eig

from helpers import random_hermitian


def test_hermitian_eig_identity():
    vals, vecs = hermitian_eig(np.eye(3))
    assert np.allclose(vals, [1, 1, 1])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)


def test_hermitian_eig_swap_matrix():
    vals, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_rank_one_projector_like():
    m = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)  # interval Weyl matrix at 0, a=2
    vals, _ = hermitian_eig(m)
    assert np.allclose(vals, [0.0, 1.0], atol=1e-14)


def test_hermitian_eig_rejects_non_square_and_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        m = random_hermitian(rng, n, scale=rng.uniform(0.1, 10))
        vals, vecs = hermitian_eig(m)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        norm = np.linalg.norm(m)
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(norm, 1e-30)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-12
        assert np.all(np.diff(vals) >= -1e-15)

