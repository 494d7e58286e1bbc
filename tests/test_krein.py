import ast
import dataclasses
import functools
import inspect
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kreinext as kx
from kreinext import (
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    GreenCombination,
)
from kreinext import krein, models, oracle, verify
from kreinext.quad import simpson

from helpers import one_sided_derivatives, random_hermitian, random_params

PI = np.pi
FOUR_PI = 4 * np.pi


@pytest.fixture(scope="module")
def interval_pi():
    return kx.interval_weyl(kx.IntervalModel(PI))


@pytest.fixture(scope="module")
def point_one():
    return kx.point_weyl(kx.PointModel([[0.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# parameter validation


def test_validate_params_passes_full_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert kx.validate_params(np.eye(2), swap).passed
    p = ExtensionParams(np.eye(2), swap)
    assert np.array_equal(p.range_basis @ p.range_basis.conj().T, np.eye(2))
    assert p.kernel_basis.shape == (2, 0)


def test_validate_params_range_violation():
    pi, theta = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    report = kx.validate_params(pi, theta)
    assert not report.passed
    assert report.residuals["operator_on_range"] > 1e-6
    with pytest.raises(ValueError, match="operator_on_range") as excinfo:
        ExtensionParams(pi, theta)
    assert str(excinfo.value) == f"invalid extension parameters:\n{report}"


def test_a_label_needs_one_dimension():
    with pytest.raises(ValueError) as excinfo:
        ExtensionParams(np.eye(2), np.zeros((3, 3)))
    assert str(excinfo.value) == "projector and operator dimensions differ: (2, 2) vs (3, 3)"


def test_validate_params_non_selfadjoint_projector():
    pi, theta = np.array([[1, 1], [0, 0]], dtype=complex), np.zeros((2, 2))
    report = kx.validate_params(pi, theta)
    assert not report.passed
    assert report.residuals["projector_selfadjoint"] > 1e-6
    with pytest.raises(ValueError, match="projector_selfadjoint") as excinfo:
        ExtensionParams(pi, theta)
    assert str(excinfo.value) == f"invalid extension parameters:\n{report}"


@given(n=st.integers(1, 8), rank=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_label_bases_are_those_of_its_projector(n, rank, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, n, rank=min(rank, n))
    vals, vecs = kx.hermitian_eig(params.pi)
    for got, want in (
        (params.range_basis, vecs[:, vals > 0.5]),
        (params.kernel_basis, vecs[:, vals <= 0.5]),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert params.range_basis.shape[1] == min(rank, n)
    assert params.kernel_basis.shape[1] == n - min(rank, n)


# ---------------------------------------------------------------------------
# secular matrix


def test_secular_matrix_trivial_projector(interval_pi):
    p = ExtensionParams.trivial(2)
    m = kx.secular_matrix(interval_pi, p, 1.5 + 0.5j)
    assert m.shape == (0, 0)


def test_secular_matrix_interval_closed_form(interval_pi):
    p = ExtensionParams.full(np.zeros((2, 2)))
    m = kx.secular_matrix(interval_pi, p, 1.0)
    expected = np.array(
        [[1 / np.tanh(PI), -1 / np.sinh(PI)], [-1 / np.sinh(PI), 1 / np.tanh(PI)]]
    )
    assert np.allclose(m, expected, atol=1e-12)
    assert abs(m[0, 0] - 1.003742) < 1e-6
    assert abs(m[0, 1] + 0.086589) < 1e-6


def test_secular_matrix_point_scalar(point_one):
    alpha = -0.25
    p = ExtensionParams.full([[alpha]])
    m = kx.secular_matrix(point_one, p, 1.0)
    assert np.allclose(m, [[alpha + 1 / FOUR_PI]])


def test_secular_matrix_batch_equals_scalar_calls():
    rng = np.random.default_rng(9)
    system = kx.graph_weyl(kx.GraphModel((1.0, 1.6, 0.7)))
    params = random_params(rng, 6, rank=4)
    zs = np.array([-3.5, 0.0, 2.0, 1.0 + 2.0j, -20.0 - 0.5j])
    stack = kx.secular_matrix(system, params, zs)
    assert stack.shape == (5, 4, 4)
    assert np.array_equal(stack, np.stack([kx.secular_matrix(system, params, z) for z in zs]))
    assert kx.secular_matrix(system, ExtensionParams.trivial(6), zs).shape == (5, 0, 0)


def test_secular_matrix_batch_names_the_failing_point(interval_pi):
    params = ExtensionParams.full(np.zeros((2, 2)))
    with pytest.raises(ExcludedPointError, match=r"z=\(-1\+0j\)"):
        kx.secular_matrix(interval_pi, params, np.array([0.5, -1.0, 2.0]))

    def gamma(z):  # not finite at z = 2 only
        out = interval_pi.gamma(z)
        out[np.asarray(z) == 2.0] = np.nan
        return out

    broken = dataclasses.replace(interval_pi, gamma=gamma)
    with pytest.raises(kx.ModelConsistencyError, match=r"z=\(2\+0j\)"):
        kx.secular_matrix(broken, params, np.array([0.5, 1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# regular points


def test_regular_point_nonreal(interval_pi):
    p = ExtensionParams.full(np.zeros((2, 2)))
    assert kx.is_regular_point(interval_pi, p, 1j)


def test_regular_point_fails_at_secular_root(interval_pi):
    p = ExtensionParams.full(np.zeros((2, 2)))
    assert not kx.is_regular_point(interval_pi, p, 0.0)


def test_regular_point_point_model_bound_state(point_one):
    p = ExtensionParams.full([[-1 / FOUR_PI]])
    assert not kx.is_regular_point(point_one, p, 1.0)


def test_nonreal_always_regular_all_models():
    rng = np.random.default_rng(5)
    systems = [
        kx.interval_weyl(kx.IntervalModel(1.7)),
        kx.graph_weyl(kx.GraphModel((1.0, 2.0))),
        kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]])),
        kx.spin_weyl(kx.SpinPointModel([[0, 0, 0]], (0.0, 5.0))),
    ]
    for system in systems:
        for _ in range(50):
            params = random_params(rng, system.n, scale=rng.uniform(0.2, 4.0))
            z = complex(rng.uniform(-20, 20), rng.choice([-1, 1]) * rng.uniform(0.05, 10))
            assert kx.is_regular_point(system, params, z)


def test_singular_nonreal_point_is_a_model_fault():
    # every valid label is regular off the real axis, so a zero Weyl family,
    # which breaks Im Gamma(z) / Im z > 0, is a faulty model, not a spectrum
    gamma = lambda z: np.zeros((1, 1), dtype=complex)
    zero = kx.WeylSystem(1, "custom", kx.HalfLineExclusions(0.0), gamma, None, None)
    params = ExtensionParams.full([[0.0]])
    message = r"^secular matrix singular at nonreal z=1j \(sigma_min=0\.000e\+00\); the Weyl family violates"
    with pytest.raises(kx.ModelConsistencyError, match=message):
        kx.is_regular_point(zero, params, 1j)
    with pytest.raises(kx.ModelConsistencyError, match=message):
        kx.krein_correction(zero, params, 1j)


# ---------------------------------------------------------------------------
# Krein correction


def test_correction_trivial_projector(interval_pi):
    p = ExtensionParams.trivial(2)
    assert np.allclose(kx.krein_correction(interval_pi, p, 2j), np.zeros((2, 2)))
    # -1 is a Dirichlet pole of the interval: the empty label still checks z
    with pytest.raises(kx.ExcludedPointError, match=re.escape("z=(-1+0j)")):
        kx.krein_correction(interval_pi, p, -1.0)


def test_correction_is_secular_inverse(interval_pi):
    p = ExtensionParams.full(np.zeros((2, 2)))
    c = kx.krein_correction(interval_pi, p, 1.0)
    m = kx.secular_matrix(interval_pi, p, 1.0)
    assert np.allclose(c, np.linalg.inv(m), atol=1e-12)


def test_resolvent_computes_the_range_basis_once(monkeypatch, interval_pi):
    params = ExtensionParams.full(np.diag([0.3, -0.2]).astype(complex))
    calls = []
    original = krein.linalg.hermitian_eig
    monkeypatch.setattr(krein.linalg, "hermitian_eig", lambda m: calls.append(m) or original(m))
    x = np.linspace(0.0, PI, 801)
    kx.apply_resolvent(interval_pi, params, 1.0 + 1.0j, np.sin(x) + 0j, x)
    kx.krein_correction(interval_pi, params, 1.0 + 1.0j)
    assert len(calls) == 0  # the label carries its range basis


def test_correction_point_scalar(point_one):
    alpha = 0.3
    p = ExtensionParams.full([[alpha]])
    c = kx.krein_correction(point_one, p, 4.0)
    assert np.allclose(c, [[1.0 / (alpha + 1.0 / (2 * np.pi))]])


def test_correction_raises_extension_singular(point_one):
    p = ExtensionParams.full([[-1 / FOUR_PI]])
    with pytest.raises(ExtensionSingularError) as excinfo:
        kx.krein_correction(point_one, p, 1.0)
    assert excinfo.value.sigma_min < 1e-12


def test_correction_conjugation_random(interval_pi):
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_params(rng, 2)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        c = kx.krein_correction(interval_pi, params, z)
        cbar = kx.krein_correction(interval_pi, params, np.conj(z))
        assert np.linalg.norm(c.conj().T - cbar) <= 1e-10


# ---------------------------------------------------------------------------
# resolvent application


def test_resolvent_trivial_projector_is_free(interval_pi):
    x = np.linspace(0, PI, 1200)
    psi = np.sin(2 * x) + 0j
    p = ExtensionParams.trivial(2)
    phi = kx.apply_resolvent(interval_pi, p, 1 + 1j, psi, x)
    free = interval_pi.sampled_kernels(1 + 1j, x).resolvent(psi)
    assert np.allclose(phi, free)


def test_resolvent_neumann_boundary_derivatives(interval_pi):
    x = np.linspace(0, PI, 2000)
    psi = np.sin(x) + 0j
    p = ExtensionParams.full(np.zeros((2, 2)))
    phi = kx.apply_resolvent(interval_pi, p, 1.0, psi, x)
    d0, da_in = one_sided_derivatives(phi, x[1] - x[0])
    assert abs(d0) < 1e-6
    assert abs(da_in) < 1e-6


def test_resolvent_fd_residual_random_coupling(interval_pi):
    rng = np.random.default_rng(2)
    theta = random_hermitian(rng, 2)
    p = ExtensionParams.full(theta)
    z = 1 + 1j
    n = 2000
    x = np.linspace(0, PI, n)
    psi = x * (PI - x) + 0j
    phi = kx.apply_resolvent(interval_pi, p, z, psi, x)
    h = x[1] - x[0]
    residual = -(phi[:-2] - 2 * phi[1:-1] + phi[2:]) / h**2 + z * phi[1:-1] - psi[1:-1]
    assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-3


def test_resolvent_identity_probe(interval_pi):
    rng = np.random.default_rng(4)
    p = ExtensionParams.full(random_hermitian(rng, 2))
    x = np.linspace(0, PI, 2000)
    psi = x * (PI - x) + 0j
    za, wb = 1 + 1j, 2 - 1j
    rz = kx.apply_resolvent(interval_pi, p, za, psi, x)
    rw = kx.apply_resolvent(interval_pi, p, wb, psi, x)
    rwz = kx.apply_resolvent(interval_pi, p, wb, rz, x)
    lhs = (za - wb) * rwz
    assert np.max(np.abs(lhs - (rw - rz))) <= 1e-3 * np.max(np.abs(psi))


def test_resolvent_grid_too_coarse(interval_pi):
    x = np.linspace(0, PI, 100)
    with pytest.raises(kx.GridTooCoarseError):
        kx.apply_resolvent(
            interval_pi, ExtensionParams.trivial(2), 1j, np.sin(x), x
        )


@pytest.mark.parametrize("params", [ExtensionParams.trivial(4), ExtensionParams.full(np.zeros((4, 4)))])
def test_resolvent_non_finite_samples_raise(params):
    # sinh(k a) overflows on the 500-long edge at z = 0.5 + i; the samples
    # there are not finite, and that is a numerical failure, not bad input
    system = kx.graph_weyl(kx.GraphModel((1.0, 500.0)))
    grids = verify.edge_grids(system, 2001)
    psi = verify.preset_samples(system, {"preset": "sin_k", "k": 1}, 0.5 + 1j, grids)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(kx.ModelConsistencyError, match=r"z = \(0\.5\+1j\) .* on edge 1$"):
            kx.apply_resolvent(system, params, 0.5 + 1j, psi, grids)


def test_interval_resolvent_takes_a_list_or_tuple_grid(interval_pi):
    params = ExtensionParams.full(np.diag([0.3, -0.2]).astype(complex))
    x = np.linspace(0.0, PI, 801)
    psi = np.sin(x) + 0j
    want = kx.apply_resolvent(interval_pi, params, 1.0 + 1.0j, psi, x)
    for grid in (x.tolist(), tuple(x)):
        got = kx.apply_resolvent(interval_pi, params, 1.0 + 1.0j, psi, grid)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    coarse = np.linspace(0.0, PI, 100)
    with pytest.raises(kx.GridTooCoarseError):
        kx.apply_resolvent(interval_pi, params, 1j, np.sin(coarse), coarse.tolist())


def test_resolvent_green_combination(point_one):
    # apply the resolvent to psi = G(z0) eta in closed form and check the
    # result against the defining algebra
    alpha = 0.5
    p = ExtensionParams.full([[alpha]])
    z0, z = 2.0, 1 + 1j
    combo = GreenCombination(((z0, np.array([1.0 + 0j])),))
    out = kx.apply_resolvent_green(point_one, p, z, combo)
    coeff_z = out.coefficient(z)
    coeff_z0 = out.coefficient(z0)
    # free part: (G(z) - G(z0)) / (z0 - z)
    assert np.allclose(coeff_z0, -1.0 / (z0 - z))
    corr = kx.krein_correction(point_one, p, z)
    expected_z = 1.0 / (z0 - z) + corr @ point_one.gram(z0, z) @ np.array([1.0])
    assert np.allclose(coeff_z, expected_z)


def test_green_norm_matches_direct_integral(point_one):
    # || G(z) ||^2 for one center has the closed form 1 / (8 pi Re sqrt(z))
    z = 2.0 + 0j
    combo = GreenCombination(((z, np.array([1.0 + 0j])),))
    norm = kx.green_norm(point_one, combo)
    exact = np.sqrt(1.0 / (8 * np.pi * np.sqrt(2.0)))
    assert abs(norm - exact) < 1e-12


def test_green_route_on_a_graph_matches_sampled_resolvent():
    # the closed-form route (both Gram call sites: the adjoint factor and the
    # norm) against the sampled route on the same input G(w) c
    model = kx.GraphModel((1.0, 2.0))
    system = kx.graph_weyl(model)
    params = kx.vertex_params(
        model,
        [
            kx.VertexGroup(((0, "left"),), -0.4),
            kx.VertexGroup(((0, "right"), (1, "left")), 0.7),
            kx.VertexGroup(((1, "right"),), 1.5),
        ],
    )
    w, z = 2.0 - 1.0j, 0.5 + 1.5j
    c = np.array([1.0, -0.5 + 0.2j, 0.3j, 0.8])
    grids = [np.linspace(0.0, a, 2001) for a in model.lengths]
    image = kx.apply_resolvent_green(system, params, z, GreenCombination(((w, c),)))
    green = [
        sum(edge)
        for edge in zip(*(system.g_apply(zk, ck, grids) for zk, ck in image.terms))
    ]
    sampled = kx.apply_resolvent(system, params, z, system.g_apply(w, c, grids), grids)
    for g, r in zip(green, sampled):
        assert np.max(np.abs(g - r)) <= 1e-8
    norm = np.sqrt(
        sum(simpson(np.abs(g) ** 2, x[1] - x[0]) for g, x in zip(green, grids))
    )
    assert abs(kx.green_norm(system, image) - norm) <= 1e-8 * norm


@pytest.mark.parametrize("rank", [6, 4, 0])
def test_one_resolvent_serves_every_use_from_one_gamma(monkeypatch, rank):
    # nothing is formed until read; then Gamma(z), one SVD and one solve serve
    # the verdict, the correction and both applications, and each result has
    # the bits of its one-line wrapper
    system = kx.graph_weyl(kx.GraphModel((1.0, 1.3, 0.8)))
    params = random_params(np.random.default_rng(4), system.n, rank)
    z = 1.5 + 0.7j
    grids = verify.edge_grids(system, 701)
    psi = verify.preset_samples(system, {"preset": "poly_bump"}, z, grids)
    combo = GreenCombination(((2j, np.arange(1.0, 7.0)),))
    want = (
        kx.is_regular_point(system, params, z),
        kx.krein_correction(system, params, z),
        np.concatenate(kx.apply_resolvent(system, params, z, psi, grids)),
        kx.apply_resolvent_green(system, params, z, combo).coefficient(z),
    )
    calls = []
    counted = dataclasses.replace(system, gamma=lambda w: calls.append("gamma") or system.gamma(w))
    for name in ("svd", "solve"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    resolvent = kx.Resolvent(counted, params, z)
    assert calls == []
    got = (
        resolvent.regular,
        resolvent.correction,
        np.concatenate(resolvent.apply(psi, grids)),
        resolvent.apply_green(combo).coefficient(z),
    )
    assert resolvent.m.shape == (rank, rank) and resolvent.gamma.shape == (6, 6)
    assert calls == ["gamma", "svd", "solve"]
    assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# Weyl family identities


def test_difference_identity_same_point(interval_pi):
    assert kx.difference_identity_residual(interval_pi, 1j, 1j) == 0.0


def test_difference_identity_interval_quadrature():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    gram = functools.partial(kx.simpson_gram, (PI,), nodes=2001)
    assert kx.difference_identity_residual(system, 1j, -1j, gram) < 1e-8


def test_difference_identity_point_closed_form(point_one):
    assert kx.difference_identity_residual(point_one, 1 + 1j, 3 - 2j) < 1e-12


@pytest.mark.parametrize("name", ["edge", "points", "spin"])
def test_difference_identity_residual_takes_arrays(name):
    system = _probe_systems()[name]
    complex_points, _ = verify.z_grid(system)
    z, v = np.array(complex_points[0::2]), np.array(complex_points[1::2])
    z[3] = v[3]  # a pair with z == v gives 0
    gram = functools.partial(kx.simpson_gram, system.lengths) if name == "edge" else None
    calls = []

    def gamma(zs):
        calls.append(np.shape(zs))
        return system.gamma(zs)

    got = kx.difference_identity_residual(dataclasses.replace(system, gamma=gamma), z, v, gram)
    assert calls == [(14,)]
    want = np.array([kx.difference_identity_residual(system, a, b, gram) for a, b in zip(z, v)])
    assert got.shape == (7,) and got.tobytes() == want.tobytes()
    assert got[3] == 0.0 and max(got) < (1e-8 if name == "edge" else 1e-12)
    with pytest.raises(ValueError, match="one length"):
        kx.difference_identity_residual(system, z, v[:6], gram)


def test_conjugation_residuals(interval_pi, point_one):
    # real admissible points: hermitian
    assert kx.conjugation_residual(interval_pi, 0.7) < 1e-12
    system1 = kx.interval_weyl(kx.IntervalModel(1.0))
    assert kx.conjugation_residual(system1, 2 + 3j) < 1e-12
    assert kx.conjugation_residual(point_one, 1 + 1j) < 1e-12


def test_excluded_point_rejected(interval_pi):
    with pytest.raises(ExcludedPointError):
        interval_pi.gamma(-1.0)  # Dirichlet point for a = pi
    with pytest.raises(ExcludedPointError):
        kx.secular_matrix(interval_pi, ExtensionParams.full(np.zeros((2, 2))), -4.0)
    # the probes check z through Gamma, before any shortcut
    with pytest.raises(ExcludedPointError, match=r"^z=\(-1\+0j\) lies"):
        kx.difference_identity_residual(interval_pi, -1.0, -1.0)
    with pytest.raises(ExcludedPointError, match=r"^z=\(-4\+0j\) lies"):
        kx.conjugation_residual(interval_pi, np.array([1j, -4.0]))


NON_FINITE = [complex(np.nan, 0.0), complex(np.inf, 1.0), complex(-np.inf, 1.0), complex(1.0, np.nan)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf+1j", "-inf+1j", "1+nanj"])
@pytest.mark.parametrize("name", ["edge", "points"])
def test_non_finite_spectral_parameter_is_refused(name, bad):
    # refused as bad input, before the exclusion test lets it through to NaN matrices
    system = _probe_systems()[name]
    params = ExtensionParams.full(np.eye(system.n))
    refused = pytest.raises(ValueError, match=r"is not a finite spectral parameter")
    for call in (
        lambda: system.gamma(bad),
        lambda: system.gamma(np.array([1j, bad])),
        lambda: system.gram(bad, 1 + 1j),
        lambda: system.gram(1 + 1j, bad),
        lambda: kx.secular_matrix(system, params, bad),
        lambda: kx.secular_matrix(system, params, np.array([1j, bad])),
        lambda: kx.apply_resolvent_green(system, params, bad, GreenCombination(((1j, np.ones(system.n)),))),
        lambda: kx.green_norm(system, GreenCombination(((1j, np.ones(system.n)), (bad, np.ones(system.n))))),
    ):
        with refused:
            call()
    if name == "edge":
        grid = [np.linspace(0.0, a, 501) for a in system.lengths]
        with refused:
            kx.apply_resolvent(system, params, bad, [np.ones(501)] * 2, grid)
        with refused:
            oracle.simpson_gram(system.lengths, bad, 1j)
        with refused:
            oracle.simpson_gram(system.lengths, 1j, bad)


def _probe_systems():
    return {
        "edge": kx.graph_weyl(kx.GraphModel((PI, 1.3))),
        "points": kx.point_weyl(kx.PointModel([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]])),
        "spin": kx.spin_weyl(kx.SpinPointModel([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]], (0.0, 1.5))),
    }


@pytest.mark.parametrize("name", ["edge", "points", "spin"])
def test_conjugation_residual_takes_an_array(name):
    system = _probe_systems()[name]
    complex_points, real_points = verify.z_grid(system)
    grid20 = np.array(complex_points + real_points)
    calls = []

    def gamma(z):
        calls.append(np.shape(z))
        return system.gamma(z)

    got = kx.conjugation_residual(dataclasses.replace(system, gamma=gamma), grid20)
    assert calls == [(40,)]
    want = np.array([kx.conjugation_residual(system, z) for z in grid20])
    assert got.shape == (20,) and got.tobytes() == want.tobytes()
    assert max(got) < 1e-12


def _count_verify_calls(monkeypatch, system, params):
    calls = {"gamma": 0, "contains": 0, "kernels": 0}
    gamma, contains, kernels = system.gamma, system.excluded.contains, models.SampledKernels

    def counted_gamma(z):
        calls["gamma"] += 1
        return gamma(z)

    def counted_contains(z):
        calls["contains"] += 1
        return contains(z)

    def counted_kernels(*args):
        calls["kernels"] += 1
        return kernels(*args)

    monkeypatch.setattr(system.excluded, "contains", counted_contains)
    monkeypatch.setattr(models, "SampledKernels", counted_kernels)
    checks = verify.run_verify(dataclasses.replace(system, gamma=counted_gamma), params)
    assert all(check["passed"] for check in checks.values())
    return calls


def test_run_verify_checks_each_point_once(monkeypatch):
    # one Gamma call per identity, the conjugation probe's call also serves
    # the determinant and Hermiticity checks, and one Gamma(i) serves the
    # defect Gram check and the von Neumann block; only gamma, the Gram
    # matrices and the sampled kernels check z (probes that check z
    # themselves and take one point per Gamma call make 61/122 and 69/130
    # here). One SampledKernels is built for each of the three sampled
    # resolvents, none for the quadrature Gram, and the two resolvents at
    # 2 - i on the same grids share one Gamma call.
    rng = np.random.default_rng(3)
    graph = kx.graph_weyl(kx.GraphModel([0.8 + 0.1 * k for k in range(8)]))
    params = ExtensionParams.full(random_hermitian(rng, 16, 0.5))
    want = {"gamma": 5, "contains": 12, "kernels": 3}
    assert _count_verify_calls(monkeypatch, graph, params) == want
    points = kx.point_weyl(kx.PointModel(rng.normal(size=(20, 3)) * 3))
    params = ExtensionParams.full(np.diag(np.linspace(-1.0, 1.0, 20)))
    want = {"gamma": 3, "contains": 10, "kernels": 0}
    assert _count_verify_calls(monkeypatch, points, params) == want


def test_a_resolvent_keeps_no_grid_state():
    # a Resolvent holds system, params, z and what its cached properties
    # form; each application builds the kernels of its own grid
    system = kx.graph_weyl(kx.GraphModel((1.0, 1.7, 2.2)))
    params = ExtensionParams.full(random_hermitian(np.random.default_rng(4), 6, 0.5))
    resolvent = krein.Resolvent(system, params, 0.4 + 1.1j)
    for nodes in (1001, 1201):
        grids = verify.edge_grids(system, nodes)
        resolvent.apply([np.sin(g) for g in grids], grids)
    cached = {name for name, value in vars(krein.Resolvent).items() if isinstance(value, functools.cached_property)}
    assert set(vars(resolvent)) <= {"system", "params", "z"} | cached


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_verify_and_the_von_neumann_block_read_one_defect_gram(sign):
    # q = Im Gamma(i), symmetrised, as the defect Gram check forms it; a
    # negated Gamma fails that check and skips the block
    system = kx.graph_weyl(kx.GraphModel((PI, 1.3)))
    system = dataclasses.replace(system, gamma=lambda z, gamma=system.gamma: sign * gamma(z))
    at_i = system.gamma(1j)
    q = (at_i - at_i.conj().T) / 2j
    q = (q + q.conj().T) / 2
    params = ExtensionParams(np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([0.3, 0.0, -0.2, 0.0]))
    checks = verify.run_verify(system, params)
    assert checks["defect_gram_positive"]["smallest_eigenvalue"] == np.linalg.eigvalsh(q).min()
    assert checks["gram_unitarity"]["skipped_degenerate_gram"] is (sign < 0)
    if sign > 0:
        assert kx.von_neumann_block(system, params).q.tobytes() == q.tobytes()


# ---------------------------------------------------------------------------
# Green identity


def test_green_identity_zero_charges(interval_pi):
    phi = (kx.sine_mode(1.0), np.zeros(2))
    psi = (kx.sine_mode(2.0), np.zeros(2))
    assert kx.green_identity_residual(interval_pi, phi, psi) < 1e-10


def test_green_identity_manufactured(interval_pi):
    phi = (kx.sine_mode(1.0), np.array([1.0, 0.0], dtype=complex))
    psi = (kx.sine_mode(2.0), np.array([0.0, 1.0], dtype=complex))
    assert kx.green_identity_residual(interval_pi, phi, psi) < 1e-4


def test_green_identity_antisymmetry(interval_pi):
    phi = (kx.sine_mode(1.0), np.array([0.3 + 1j, -0.2], dtype=complex))
    assert kx.green_identity_residual(interval_pi, phi, phi) < 1e-12


def test_green_identity_samples_each_charge_once_per_edge(monkeypatch):
    system = kx.graph_weyl(kx.GraphModel((PI, 1.3)))
    zeta, xi = np.array([0.3 + 1j, -0.2, 0.5, 1j]), np.array([1.0, 0.5j, -0.4, 0.2])
    phi = (system.shaped([kx.sine_mode(1.0), kx.sine_mode(PI / 1.3)]), zeta)
    psi = (system.shaped([kx.sine_mode(2.0), kx.poly_bump(1.3)]), xi)
    green, samples = models._edge_green, []

    def counted_green(a, z, pair):
        closed = green(a, z, pair)

        def f(x):
            samples.append((a, z))
            return closed.f(x)

        return kx.SmoothFunction(f, closed.df, closed.d2f)

    monkeypatch.setattr(models, "_edge_green", counted_green)
    assert kx.green_identity_residual(system, phi, psi) < 1e-4
    # G(i) and G(-i) of both charges, on each of the two edges
    assert Counter(samples) == Counter([(a, z) for a in (PI, 1.3) for z in (1j, -1j)] * 2)


def test_quadrature_gram_reads_no_model_kernel():
    # the oracles take model data and label checks from the library and
    # evaluate no model map; names compare exactly ("_default_gram_nodes")
    source = inspect.getsource(oracle)
    bound = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in ("models", "krein", "kreinext.models", "kreinext.krein")
        for alias in node.names
    }
    assert bound <= {"GraphModel", "IntervalModel", "DirichletExclusions", "ExtensionParams", "check_admissible"}

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if inspect.iscode(const):
                yield from names(const)

    read = set(names(compile(source, oracle.__file__, "exec")))
    assert not read & {"gamma", "gram", "sampled_kernels", "g_apply", "g_closed", "SampledKernels"}


def test_green_identity_unsupported_for_points(point_one):
    with pytest.raises(kx.UnsupportedModelError):
        kx.green_identity_residual(point_one, (None, [0.0]), (None, [0.0]))


def test_model_data_is_chosen_by_system_type(point_one):
    # the sampled resolvent needs an edge system, the traces an edge or point system
    x = np.linspace(0.0, 1.0, 601)
    params = ExtensionParams.full([[0.5]])
    with pytest.raises(kx.UnsupportedModelError, match="no sampled resolvent"):
        kx.apply_resolvent(point_one, params, 1 + 1j, x, x)
    bare = kx.WeylSystem(
        point_one.n, "custom", point_one.excluded, point_one.gamma, point_one.gram, point_one.g_apply
    )
    with pytest.raises(kx.UnsupportedModelError, match="no trace data"):
        kx.boundary_condition_residuals(bare, params, np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# boundary condition residuals


def test_boundary_residuals_neumann_cosine(interval_pi):
    # psi = cos(x) satisfies the Neumann condition on (0, pi); decompose with
    # charge = its boundary values and regular part cos - G_* charge
    zeta = np.array([1.0, -1.0], dtype=complex)
    g_star = 0.5 * (interval_pi.g_closed(1j, zeta) + interval_pi.g_closed(-1j, zeta))
    part = kx.cosine_mode(1.0) - g_star
    p = ExtensionParams.full(np.zeros((2, 2)))
    report = kx.boundary_condition_residuals(interval_pi, p, part, zeta)
    assert report.range_residual < 1e-12
    assert report.coupling_residual < 1e-12


def test_boundary_residuals_trivial_projector(interval_pi):
    p = ExtensionParams.trivial(2)
    ok = kx.boundary_condition_residuals(interval_pi, p, kx.sine_mode(1.0), np.zeros(2))
    assert ok.range_residual < 1e-14 and ok.coupling_residual < 1e-14
    bad = kx.boundary_condition_residuals(
        interval_pi, p, kx.sine_mode(1.0), np.array([1.0, 0.0])
    )
    assert bad.range_residual > 0.5


def test_boundary_residuals_point_eigenfunction(point_one):
    alpha = -1.0 / FOUR_PI
    lam = 16 * np.pi**2 * alpha**2
    model = kx.PointModel([[0.0, 0.0, 0.0]])
    zeta = np.array([1.0], dtype=complex)
    part = kx.point_green_regular_part(model, lam, zeta)
    p = ExtensionParams.full([[alpha]])
    report = kx.boundary_condition_residuals(point_one, p, part, zeta)
    assert report.range_residual < 1e-10
    assert report.coupling_residual < 1e-10


# ---------------------------------------------------------------------------
# interval determinant identity


def test_interval_determinant_identity_random():
    rng = np.random.default_rng(12)
    system = kx.interval_weyl(kx.IntervalModel(PI))
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-40, 25), rng.uniform(-15, 15))
        if system.excluded.contains(z):
            continue
        det = np.linalg.det(system.gamma(z))
        assert abs(det - z) <= 1e-10 * (1 + abs(z))
        checked += 1


def test_boundary_residuals_graph_kirchhoff():
    # ground state of two glued Neumann edges is the constant function; its
    # charge is the boundary-value vector and the regular part is
    # G(0) zeta - G_* zeta edge by edge
    lengths = (1.0, 2.0)
    graph = kx.GraphModel(lengths)
    system = kx.graph_weyl(graph)
    params = kx.vertex_params(
        graph,
        [
            kx.VertexGroup(((0, "left"),), 0.0),
            kx.VertexGroup(((0, "right"), (1, "left")), 0.0),
            kx.VertexGroup(((1, "right"),), 0.0),
        ],
    )
    zeta = np.ones(4, dtype=complex)
    closed = [system.g_closed(z, zeta) for z in (0.0, 1j, -1j)]
    parts = [g0 - 0.5 * (gp + gm) for g0, gp, gm in zip(*closed)]
    report = kx.boundary_condition_residuals(system, params, parts, zeta)
    assert report.range_residual < 1e-12
    assert report.coupling_residual < 1e-10


def test_green_identity_on_graph():
    system = kx.graph_weyl(kx.GraphModel((1.0, 2.0)))
    phi = (
        [kx.sine_mode(np.pi), kx.sine_mode(np.pi / 2.0)],
        np.array([1.0, 0.0, 0.5j, 0.0]),
    )
    psi = (
        [kx.sine_mode(2 * np.pi), kx.sine_mode(np.pi)],
        np.array([0.0, 1.0, 0.0, -0.3]),
    )
    assert kx.green_identity_residual(system, phi, psi) < 1e-4


def test_resolvent_green_rejects_matching_node(point_one):
    combo = GreenCombination(((2.0 + 0j, np.array([1.0 + 0j])),))
    with pytest.raises(ValueError):
        kx.apply_resolvent_green(
            point_one, ExtensionParams.full([[0.5]]), 2.0 + 0j, combo
        )


def test_graph_resolvent_vertex_conditions():
    # glued edges: the resolvent output must be continuous across the vertex
    # with matching derivatives (Kirchhoff) and Neumann outer ends
    lengths = (1.0, 2.0)
    graph = kx.GraphModel(lengths)
    system = kx.graph_weyl(graph)
    params = kx.vertex_params(
        graph,
        [
            kx.VertexGroup(((0, "left"),), 0.0),
            kx.VertexGroup(((0, "right"), (1, "left")), 0.0),
            kx.VertexGroup(((1, "right"),), 0.0),
        ],
    )
    z = 1 + 1j
    grids = [np.linspace(0, a, 2001) for a in lengths]
    psi = [np.sin(np.pi * x / a) + 0j for a, x in zip(lengths, grids)]
    phi = kx.apply_resolvent(system, params, z, psi, grids)

    for k, (a, x) in enumerate(zip(lengths, grids)):
        h = x[1] - x[0]
        res = -(phi[k][:-2] - 2 * phi[k][1:-1] + phi[k][2:]) / h**2 + z * phi[k][1:-1]
        res -= psi[k][1:-1]
        assert np.max(np.abs(res)) < 1e-3 * np.max(np.abs(psi[k]))

    d_left = []
    d_right = []
    for k, x in enumerate(grids):
        h = x[1] - x[0]
        f = phi[k]
        d0 = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
        da = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
        d_left.append(d0)
        d_right.append(da)
    # continuity and Kirchhoff at the shared vertex
    assert abs(phi[0][-1] - phi[1][0]) < 1e-8
    assert abs(-d_right[0] + d_left[1]) < 1e-6
    # Neumann outer ends
    assert abs(d_left[0]) < 1e-6
    assert abs(d_right[1]) < 1e-6


def test_resolvent_green_spin_blocks():
    # the channel shifts cancel inside the resolvent difference quotient, so
    # the spin route must agree blockwise with two scalar point models
    model = kx.SpinPointModel([[0.0, 0.0, 0.0]], (0.0, 5.0))
    spin = kx.spin_weyl(model)
    point = kx.point_weyl(kx.PointModel([[0.0, 0.0, 0.0]]))
    alpha = 0.4
    params_spin = ExtensionParams.full(np.diag([alpha, alpha]).astype(complex))
    params_point = ExtensionParams.full([[alpha]])
    z0, z = 7.0 + 0j, 6.0 + 2j
    combo_spin = kx.apply_resolvent_green(
        spin, params_spin, z, GreenCombination(((z0, np.array([1.0, 1.0 + 0j])),))
    )
    for channel, b in enumerate(model.b):
        scalar = kx.apply_resolvent_green(
            point,
            params_point,
            z - b,
            GreenCombination(((z0 - b, np.array([1.0 + 0j])),)),
        )
        spin_z = combo_spin.coefficient(z)[channel]
        spin_z0 = combo_spin.coefficient(z0)[channel]
        assert np.allclose(spin_z, scalar.coefficient(z - b)[0])
        assert np.allclose(spin_z0, scalar.coefficient(z0 - b)[0])
