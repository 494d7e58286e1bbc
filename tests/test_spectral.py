import dataclasses
import math

import numpy as np
import pytest

import kreinext as kx
from kreinext import ExtensionParams, FDSpec, SearchOptions

from helpers import random_hermitian

PI = np.pi
FOUR_PI = 4 * np.pi


@pytest.fixture(scope="module")
def neumann_interval():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    params = ExtensionParams.full(np.zeros((2, 2)))
    return system, params


def test_neumann_zero_mode(neumann_interval):
    system, params = neumann_interval
    result = kx.eigenvalue_search(system, params, (-0.5, 0.5))
    assert len(result.eigenvalues) == 1
    hit = result.eigenvalues[0]
    assert abs(hit.lam) < 1e-8
    assert hit.multiplicity == 1
    assert hit.sigma_min < 1e-10
    grid = np.linspace(0, PI, 801)
    mode = kx.eigenfunction(system, params, hit.lam, hit.null_basis[:, 0], grid)
    mode = mode / mode[0]
    assert np.max(np.abs(mode - 1.0)) < 1e-6


def test_search_reports_gap_at_embedded_eigenvalue(neumann_interval):
    # lambda = -4 is a Neumann eigenvalue embedded at a Dirichlet point of
    # a = pi: invisible to the secular criterion and reported as a gap
    system, params = neumann_interval
    result = kx.eigenvalue_search(system, params, (-4.5, -3.5))
    assert len(result.eigenvalues) == 0
    assert len(result.gaps) == 1
    lo, hi = result.gaps[0]
    assert lo <= -4.0 <= hi


def test_point_bound_state_single_center():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    params = ExtensionParams.full([[-1.0 / FOUR_PI]])
    result = kx.eigenvalue_search(system, params, (0.5, 2.0))
    assert len(result.eigenvalues) == 1
    assert abs(result.eigenvalues[0].lam - 1.0) < 1e-10


def test_empty_and_invalid_windows(neumann_interval):
    system, params = neumann_interval
    with pytest.raises(ValueError):
        kx.eigenvalue_search(system, params, (1.0, 1.0))
    with pytest.raises(ValueError):
        kx.eigenvalue_search(system, params, (2.0, -2.0))


def test_trivial_projector_has_no_point_spectrum(neumann_interval):
    system, _ = neumann_interval
    result = kx.eigenvalue_search(system, ExtensionParams.trivial(2), (-20.0, 5.0))
    assert result.eigenvalues == ()
    assert result.metadata["searchable"] is False


def test_gap_skipping_can_be_disabled(neumann_interval):
    system, params = neumann_interval
    with pytest.raises(kx.ExcludedPointError):
        kx.eigenvalue_search(
            system, params, (-4.5, -3.5), SearchOptions(skip_excluded=False)
        )


def test_robin_completeness_against_fd_oracle():
    # every oracle eigenvalue away from the excluded set is found and vice
    # versa; oracle values are Richardson-extrapolated to beat 1e-6 matching
    model = kx.IntervalModel(PI)
    system = kx.interval_weyl(model)
    theta = 0.8
    params = ExtensionParams.full(np.diag([theta, theta]).astype(complex))
    window = (-30.0, 2.0)
    found = kx.eigenvalue_search(system, params, window)
    lams = found.lambdas()

    count = 8
    coarse = kx.fd_interval_spectrum(model, params, FDSpec(2000), count)
    fine = kx.fd_interval_spectrum(model, params, FDSpec(4000), count)
    oracle = (4.0 * fine - coarse) / 3.0
    oracle = oracle[(oracle > window[0]) & (oracle < window[1])]
    oracle = np.array(
        [lam for lam in oracle if system.excluded.distance(lam) > 1e-6]
    )
    assert len(lams) == len(oracle)
    assert np.max(np.abs(np.sort(lams) - np.sort(oracle))) < 1e-6
    assert found.metadata["expected_count"] == found.metadata["found_count"] == len(lams)


def test_multiplicity_double_root_disconnected_edges():
    # two identical Neumann edges: every eigenvalue doubles, and the secular
    # determinant touches zero without a sign change
    system = kx.graph_weyl(kx.GraphModel((PI, PI)))
    params = ExtensionParams.full(np.zeros((4, 4)))
    result = kx.eigenvalue_search(system, params, (-0.5, 0.5))
    assert len(result.eigenvalues) == 1
    assert result.eigenvalues[0].multiplicity == 2
    assert result.metadata["expected_count"] == result.metadata["found_count"] == 2
    basis = result.eigenvalues[0].null_basis
    assert basis.shape == (4, 2)


def test_multiplicity_double_root_symmetric_star():
    # three equal edges, Kirchhoff centre, Neumann tips: the modes vanishing
    # at the centre form a 2-dimensional eigenspace at -(pi/2)^2, which no
    # block structure of the secular matrix separates
    graph = kx.GraphModel((1.0, 1.0, 1.0))
    system = kx.graph_weyl(graph)
    params = kx.vertex_params(
        graph,
        [kx.VertexGroup(((0, "left"), (1, "left"), (2, "left")), 0.0)]
        + [kx.VertexGroup(((e, "right"),), 0.0) for e in range(3)],
    )
    result = kx.eigenvalue_search(system, params, (-3.0, -2.0))
    assert len(result.eigenvalues) == 1
    hit = result.eigenvalues[0]
    assert hit.multiplicity == 2
    assert abs(hit.lam + PI**2 / 4) <= 1e-12 * PI**2 / 4
    assert hit.null_basis.shape == (6, 2)
    assert result.metadata["expected_count"] == result.metadata["found_count"] == 2


def _robin_edge_roots(a, theta, window):
    """Roots of one Robin edge from its even and odd scalar equations."""
    h = a / 2.0

    def even(lam):
        k = math.sqrt(-lam)
        return theta * math.cos(k * h) - k * math.sin(k * h)

    def odd(lam):
        k = math.sqrt(-lam)
        return theta * math.sin(k * h) / k + math.cos(k * h)

    grid = np.linspace(window[0], window[1], 901)[:-1]  # both need lam < 0
    roots = []
    for f in (even, odd):
        vals = [f(lam) for lam in grid]
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0:
                roots.append(kx.bisect_root(f, grid[i], grid[i + 1], tol=1e-15))
    return roots


def test_near_coincident_roots_are_both_found():
    # two decoupled Robin edges whose lengths differ by 1e-9: their ground
    # states are 4.7e-10 apart, and each is a simple eigenvalue
    lengths = (PI, PI * (1 + 1e-9))
    theta, window = 0.8, (-0.9, 0.0)
    system = kx.graph_weyl(kx.GraphModel(lengths))
    params = ExtensionParams.full(theta * np.eye(4, dtype=complex))
    expected = sorted(r for a in lengths for r in _robin_edge_roots(a, theta, window))
    assert len(expected) == 2
    result = kx.eigenvalue_search(system, params, window)
    assert [hit.multiplicity for hit in result.eigenvalues] == [1, 1]
    for hit, ref in zip(result.eigenvalues, expected):
        assert abs(hit.lam - ref) <= 1e-12 * max(1.0, abs(ref))
    assert result.metadata["expected_count"] == result.metadata["found_count"] == 2


def test_non_finite_gamma_is_a_model_failure(neumann_interval):
    system, params = neumann_interval
    broken = dataclasses.replace(system, gamma=lambda z: np.full((2, 2), np.nan + 0j))
    with pytest.raises(kx.ModelConsistencyError):
        kx.eigenvalue_search(broken, params, (-0.5, 0.5))


def test_eigenfunction_rejects_non_kernel_vector(neumann_interval):
    system, params = neumann_interval
    grid = np.linspace(0, PI, 801)
    with pytest.raises(ValueError):
        kx.eigenfunction(system, params, 0.0, np.array([1.0, -1.0]), grid)
    with pytest.raises(ValueError):
        kx.eigenfunction(system, params, 0.0, np.zeros(2), grid)


def test_eigenfunction_fd_residual_interval():
    model = kx.IntervalModel(PI)
    system = kx.interval_weyl(model)
    theta = -0.4
    params = ExtensionParams.full(np.diag([theta, theta]).astype(complex))
    result = kx.eigenvalue_search(system, params, (0.0, 1.0))
    assert len(result.eigenvalues) == 1
    lam = result.eigenvalues[0].lam
    zeta = result.eigenvalues[0].null_basis[:, 0]
    x = np.linspace(0, PI, 4001)
    u = kx.eigenfunction(system, params, lam, zeta, x)
    h = x[1] - x[0]
    fd = -(u[:-2] - 2 * u[1:-1] + u[2:]) / h**2 + lam * u[1:-1]
    assert np.max(np.abs(fd)) <= 1e-5 * (1 + abs(lam)) * np.max(np.abs(u))


def test_point_eigenfunction_closed_form():
    model = kx.PointModel([[0.0, 0.0, 0.0]])
    system = kx.point_weyl(model)
    alpha = -1.0 / FOUR_PI
    params = ExtensionParams.full([[alpha]])
    pts = np.array([[0.3, 0, 0], [0, 0.9, 0], [1.2, -0.4, 0.1]])
    vals = kx.eigenfunction(system, params, 1.0, np.array([1.0]), pts)
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(vals, np.exp(-r) / (FOUR_PI * r))


def test_validate_eigenpair_reports(neumann_interval):
    system, params = neumann_interval
    zeta = np.array([1.0, 1.0]) / np.sqrt(2)
    good = kx.validate_eigenpair(system, params, 0.0, zeta)
    assert good.sigma_min < 1e-10
    assert good.kernel_residual < 1e-10
    assert good.range_residual < 1e-12
    assert good.coupling_residual < 1e-10
    assert not good.excluded

    perturbed = kx.validate_eigenpair(system, params, 1e-3, zeta)
    assert perturbed.kernel_residual > 1e-6

    at_pole = kx.validate_eigenpair(system, params, -1.0, zeta)
    assert at_pole.excluded


def test_pole_blowup_probe_interval():
    # the Krein correction norm must blow up approaching a found eigenvalue
    model = kx.IntervalModel(PI)
    system = kx.interval_weyl(model)
    params = ExtensionParams.full(np.diag([0.8, 0.8]).astype(complex))
    result = kx.eigenvalue_search(system, params, (-1.0, 0.0))
    assert result.eigenvalues
    lam = result.eigenvalues[0].lam
    x = np.linspace(0, PI, 800)
    psi = x * (PI - x) + 0j

    def correction_norm(z):
        corr = kx.krein_correction(system, params, z)
        weights = corr @ system.g_adjoint_apply(z, psi, x)
        return np.max(np.abs(system.g_apply(z, weights, x)))

    near = correction_norm(lam + 1e-6j)
    far = correction_norm(lam + 0.1j)
    assert near >= 1e4 * far


def test_pole_blowup_probe_point():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    alpha = -1.0 / FOUR_PI
    params = ExtensionParams.full([[alpha]])
    combo = kx.GreenCombination(((4.0 + 0j, np.array([1.0 + 0j])),))

    def correction_norm(z):
        out = kx.apply_resolvent_green(system, params, z, combo)
        # the correction lives on the z-node beyond the free part
        free_z = 1.0 / (4.0 - z)
        coeff = out.coefficient(z) - free_z
        piece = kx.GreenCombination(((z, np.asarray([coeff[0]])),))
        return kx.green_norm(system, piece)

    near = correction_norm(1.0 + 1e-6j)
    far = correction_norm(1.0 + 0.1j)
    assert near >= 1e4 * far


def test_random_coupling_roots_are_validated():
    rng = np.random.default_rng(77)
    system = kx.interval_weyl(kx.IntervalModel(PI))
    for _ in range(5):
        params = ExtensionParams.full(random_hermitian(rng, 2))
        result = kx.eigenvalue_search(system, params, (-12.0, 4.0))
        for hit in result.eigenvalues:
            report = kx.validate_eigenpair(
                system, params, hit.lam, hit.null_basis[:, 0]
            )
            assert report.sigma_min < 1e-10
            assert report.coupling_residual < 1e-8


def test_spin_model_shifted_bound_states():
    # one center, two internal channels: each carries the scalar bound state
    # shifted by its channel energy
    alpha = -1.0 / np.pi
    model = kx.SpinPointModel([[0.0, 0.0, 0.0]], (0.0, 5.0))
    system = kx.spin_weyl(model)
    params = ExtensionParams.full(np.diag([alpha, alpha]).astype(complex))
    base = 16 * PI**2 * alpha**2  # = 16
    result = kx.eigenvalue_search(system, params, (6.0, 30.0))
    assert np.allclose(np.sort(result.lambdas()), [base, base + 5.0], atol=1e-8)
    for hit in result.eigenvalues:
        assert hit.multiplicity == 1
    assert result.metadata["expected_count"] == result.metadata["found_count"] == 2
