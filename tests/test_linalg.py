import numpy as np
import pytest

from kreinext.linalg import (
    hermitian_eig,
    min_singular,
    projector_from_span,
)

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


def test_min_singular_cases():
    assert abs(min_singular(np.eye(4)) - 1.0) < 1e-14
    rank1 = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    assert min_singular(rank1) <= 1e-12
    assert abs(min_singular(np.diag([3.0, 1e-4])) - 1e-4) < 1e-12
    assert min_singular(np.zeros((3, 3))) == 0.0


def test_projector_single_unit_vector():
    p = projector_from_span([np.array([1.0, 0.0])])
    assert np.allclose(p, [[1, 0], [0, 0]])


def test_projector_full_basis_is_identity():
    p = projector_from_span([e for e in np.eye(3)])
    assert np.allclose(p, np.eye(3), atol=1e-14)


def test_projector_dependent_vectors():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([2.0, 2.0]) / np.sqrt(8)
    p = projector_from_span([v1, v2])
    assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-14)


def test_projector_empty_span():
    assert np.allclose(projector_from_span([], dim=3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        projector_from_span([])


def test_projector_properties_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(k)]
        p = projector_from_span(vecs)
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p - p.conj().T) <= 1e-12
        for v in vecs:
            assert np.linalg.norm(p @ v - v) <= 1e-12 * max(1.0, np.linalg.norm(v))
