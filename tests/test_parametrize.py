import dataclasses

import numpy as np
import pytest

import kreinext as kx
from kreinext import BoundaryPair, ExtensionParams, PairConditionError

from helpers import random_params

PI = np.pi


# ---------------------------------------------------------------------------
# pair from params


def test_pair_scalar_zero_operator():
    pair = kx.pair_from_params(ExtensionParams.full([[0.0]]))
    assert np.allclose(pair.b1, [[0.0]])
    assert np.allclose(pair.b2, [[-1j]])


def test_pair_trivial_projector():
    pair = kx.pair_from_params(ExtensionParams.trivial(2))
    assert np.allclose(pair.b1, np.eye(2))
    assert np.allclose(pair.b2, np.zeros((2, 2)))


def test_pair_diagonal_operator():
    theta = np.diag([1.0, -1.0]).astype(complex)
    pair = kx.pair_from_params(ExtensionParams.full(theta))
    assert np.allclose(pair.b1, np.diag([1 / (-1 + 1j), -1 / (1 + 1j)]))
    assert np.allclose(pair.b2, np.diag([1 / (-1 + 1j), 1 / (1 + 1j)]))


def test_generated_pairs_normalization_identity():
    # B1 B1^* + B2 B2^* is exactly the identity for pairs built from params
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        pair = kx.pair_from_params(random_params(rng, n, scale=3.0))
        total = pair.b1 @ pair.b1.conj().T + pair.b2 @ pair.b2.conj().T
        assert np.linalg.norm(total - np.eye(n)) < 1e-12


# ---------------------------------------------------------------------------
# params from pair


def test_params_from_pair_round_trips_examples():
    params = kx.params_from_pair(BoundaryPair([[0.0]], [[-1j]]))
    assert np.allclose(params.pi, [[1.0]])
    assert np.allclose(params.theta, [[0.0]], atol=1e-14)

    params = kx.params_from_pair(BoundaryPair(np.eye(2), np.zeros((2, 2))))
    assert np.allclose(params.pi, np.zeros((2, 2)))


def test_conditions_examples():
    ok = kx.check_pair_conditions(BoundaryPair(np.eye(2), np.eye(2)))
    assert ok.all_ok and ok.consistent

    bad = kx.check_pair_conditions(BoundaryPair(np.zeros((2, 2)), np.zeros((2, 2))))
    assert not bad.nondeg_ok and not bad.joint_kernel_ok and not bad.normalization_ok
    assert bad.consistent

    noncomm = kx.check_pair_conditions(
        BoundaryPair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    )
    assert not noncomm.comm_ok
    assert noncomm.comm_residual > 0.5


@pytest.mark.parametrize("s", [1e-11, 1e-6, 1.0, 1e6])
def test_a_scaled_pair_names_the_same_extension(s):
    # every verdict is relative to its matrix's scale, so s (B1, B2) passes
    # exactly when (B1, B2) does
    pair = BoundaryPair(s * np.eye(2), s * np.diag([0.5, 0.0]))
    assert pair.conditions.all_ok and pair.conditions.consistent
    label = kx.params_from_pair(BoundaryPair(np.eye(2), np.diag([0.5, 0.0])))
    got = kx.params_from_pair(pair)
    assert np.array_equal(got.pi, label.pi)
    assert np.abs(got.theta - label.theta).max() <= 4 * np.finfo(float).eps * np.abs(label.theta).max()


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-7])
def test_a_non_commuting_pair_fails_comm_at_every_scale(s):
    # B1 B2^* - B2 B1^* = 2 s^2 [[0, 1], [-1, 0]], against PAIR_COMM_RTOL ||B1|| ||B2||
    b1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    b2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    conditions = BoundaryPair(s * b1, s * b2).conditions
    assert not conditions.comm_ok and "comm" in conditions.failed
    assert conditions.comm_residual == pytest.approx(2 * s * s, rel=1e-15)


def _negated_gamma():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    return dataclasses.replace(system, gamma=lambda z, gamma=system.gamma: -gamma(z))


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: BoundaryPair(np.eye(2), np.eye(3)), ValueError, "boundary pair matrices must share one dimension"),
        (lambda: kx.SelfAdjointRelation(2, np.ones((3, 2))), ValueError, "relation basis must have 2 * dim_h rows"),
        (
            lambda: kx.relation_gap(
                kx.relation_from_params(ExtensionParams.trivial(1)),
                kx.relation_from_params(ExtensionParams.trivial(2)),
            ),
            ValueError,
            "relations live in different boundary spaces",
        ),
        (
            lambda: kx.von_neumann_block(_negated_gamma(), ExtensionParams.trivial(2)),
            kx.ModelConsistencyError,
            "Im Gamma(i) is not positive definite; deficiency Gram matrix degenerate",
        ),
    ],
)
def test_malformed_inputs_are_refused_by_name(refused, error, message):
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


def test_relation_from_params_spans():
    rel = kx.relation_from_params(ExtensionParams.full(np.zeros((2, 2))))
    assert rel.basis.shape == (4, 2)
    assert np.allclose(rel.bottom, 0.0)

    rel = kx.relation_from_params(ExtensionParams.trivial(2))
    assert np.allclose(rel.top, 0.0)
    assert np.linalg.matrix_rank(rel.bottom) == 2

    rel = kx.relation_from_params(ExtensionParams.full([[3.0]]))
    assert np.allclose(rel.basis[:, 0] / rel.basis[0, 0], [1.0, 3.0])


def test_relation_from_pair_examples():
    rel = kx.relation_from_pair(BoundaryPair([[0.0]], [[-1j]]))
    col = rel.basis[:, 0]
    assert abs(col[1]) < 1e-14 and abs(col[0]) > 0.5  # graph of the zero operator

    rel = kx.relation_from_pair(BoundaryPair(np.eye(2), np.zeros((2, 2))))
    assert np.allclose(rel.top, 0.0)

    degenerate = BoundaryPair(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(PairConditionError) as info:
        kx.relation_from_pair(degenerate)
    assert info.value.conditions is degenerate.conditions
    assert info.value.failed == degenerate.conditions.failed == ("nondeg", "joint_kernel", "normalization")


def test_subspace_equal_cases():
    rel1 = kx.relation_from_params(ExtensionParams.full(np.zeros((2, 2))))
    assert kx.subspace_equal(rel1, rel1)
    flipped = kx.SelfAdjointRelation(2, rel1.basis[:, ::-1] * (2.0 - 1j))
    assert kx.subspace_equal(rel1, flipped)
    orth = kx.relation_from_params(ExtensionParams.trivial(2))
    assert not kx.subspace_equal(rel1, orth)


def test_is_selfadjoint_relation_cases():
    rng = np.random.default_rng(17)
    herm = kx.relation_from_params(random_params(rng, 3, rank=3))
    assert kx.is_selfadjoint_relation(herm)

    non_herm = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    assert not kx.is_selfadjoint_relation(kx.SelfAdjointRelation(2, non_herm))

    undersized = kx.SelfAdjointRelation(2, np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert not kx.is_selfadjoint_relation(undersized)


def test_round_trip_random_sweep():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        params = random_params(rng, n, scale=rng.uniform(0.3, 3.0))
        pair = kx.pair_from_params(params)
        back = kx.params_from_pair(pair)
        assert np.linalg.norm(back.pi - params.pi) <= 1e-10
        assert np.linalg.norm(back.theta - params.theta) <= 1e-10
        cond = kx.check_pair_conditions(pair)
        assert cond.comm_residual <= 1e-12
        assert cond.all_ok and cond.consistent
        rel_p = kx.relation_from_params(params)
        rel_b = kx.relation_from_pair(pair)
        assert kx.is_selfadjoint_relation(rel_p)
        assert rel_p.basis.shape[1] == n
        assert kx.subspace_equal(rel_p, rel_b, tol=1e-10)


def test_condition_agreement_on_corrupted_pairs():
    rng = np.random.default_rng(23)
    agree = 0
    total = 0
    for trial in range(200):
        n = int(rng.integers(1, 7))
        if trial % 2 == 0:
            pair = kx.pair_from_params(random_params(rng, n))
        else:
            # shared adjoint kernel: all three nondegeneracy forms must fail
            cut = np.eye(n)
            cut[-1, -1] = 0.0
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            b1 = q @ cut @ q.conj().T
            pair = BoundaryPair(b1, b1)
        cond = kx.check_pair_conditions(pair)
        total += 1
        agree += int(cond.nondeg_ok == cond.joint_kernel_ok == cond.normalization_ok)
        if trial % 2 == 1:
            assert not cond.nondeg_ok
    assert agree == total


# ---------------------------------------------------------------------------
# von Neumann block


def test_von_neumann_trivial_projector_identity():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    block = kx.von_neumann_block(system, ExtensionParams.trivial(2))
    assert np.allclose(block.m, np.eye(2))
    assert block.unitarity_residual() < 1e-12


def test_von_neumann_gram_unitarity_interval_and_points():
    rng = np.random.default_rng(31)
    interval = kx.interval_weyl(kx.IntervalModel(PI))
    points = kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]]))
    for system in (interval, points):
        for _ in range(25):
            params = random_params(rng, system.n, scale=rng.uniform(0.2, 4.0))
            block = kx.von_neumann_block(system, params)
            assert block.unitarity_residual() <= 1e-8
            assert np.linalg.norm(block.gamma_hat + block.gamma_hat.conj().T) < 1e-12
            assert np.linalg.eigvalsh(block.q).min() > 0


def test_von_neumann_alternative_form():
    rng = np.random.default_rng(41)
    system = kx.interval_weyl(kx.IntervalModel(1.4))
    for _ in range(10):
        params = random_params(rng, 2, rank=2)
        block = kx.von_neumann_block(system, params)
        v = params.range_basis
        theta_c = v.conj().T @ params.theta @ v
        hat_c = v.conj().T @ block.gamma_hat @ v
        primary = v.conj().T @ block.m @ v
        alternative = np.linalg.solve(theta_c - hat_c, theta_c + hat_c)
        assert np.linalg.norm(primary - alternative) <= 1e-12
