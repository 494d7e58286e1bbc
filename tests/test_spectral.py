import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinext as kx
from kreinext import ExtensionParams, FDSpec, spectral
from kreinext.cli import _weyl_for

from helpers import (
    assert_same_search,
    depth_first_isolate,
    depth_first_search,
    random_hermitian,
    random_params,
    reference_gamma,
    reference_gaps_in,
    reference_hermitian_part,
    reference_secular_matrix,
    reference_subtract_gaps,
)

PI = np.pi
FOUR_PI = 4 * np.pi
BENCH_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs"


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


def test_wide_window_gaps_and_segments_tile_it():
    # 3162 Dirichlet poles of a = pi lie in the window: the gaps and the
    # searchable pieces between them alternate and cover it exactly
    lo, hi = -1e7, -0.1
    gaps = kx.interval_weyl(kx.IntervalModel(PI)).excluded.gaps_in(lo, hi)
    segments = spectral._complement(lo, hi, gaps)
    assert (len(gaps), len(segments)) == (3162, 3163)
    pieces = [piece for pair in zip(segments, gaps) for piece in pair] + segments[-1:]
    assert pieces[0][0] == lo and pieces[-1][1] == hi
    assert all(a < b for a, b in pieces)
    assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:]))


def test_gaps_and_split_match_their_loop_versions():
    # windows that start, end or sit on a pole and its gap, and wide ones
    windows = [(-1e4, -0.1), (-30.0, 5.0), (-1.0, 0.0), (-4.0, -1.0), (-1.0 - 1e-9, -1.0 + 1e-9)]
    windows += [(lo, lo + 7.5) for lo in np.linspace(-500.0, -3.0, 40)]
    for lengths in [(PI,), (0.3, 1.0, PI), (1.0, 1.0, 2.0), (0.05, 7.0, 13.3, 20.0)]:
        excluded = kx.DirichletExclusions(lengths)
        for lo, hi in windows:
            gaps = excluded.gaps_in(lo, hi)
            assert gaps == reference_gaps_in(excluded, lo, hi)
            assert spectral._complement(lo, hi, gaps) == reference_subtract_gaps(lo, hi, gaps)
    for lo, hi in [(-1.0, 2.0), (0.0, 1.0), (-5.0, -1.0), (2.0, 5.0)]:
        gaps = kx.HalfLineExclusions(0.0).gaps_in(lo, hi)
        assert spectral._complement(lo, hi, gaps) == reference_subtract_gaps(lo, hi, gaps)


def test_point_bound_state_single_center():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    params = ExtensionParams.full([[-1.0 / FOUR_PI]])
    result = kx.eigenvalue_search(system, params, (0.5, 2.0))
    assert len(result.eigenvalues) == 1
    assert abs(result.eigenvalues[0].lam - 1.0) < 1e-10


def test_window_straddling_the_excluded_half_line():
    # the segment left of the half line's gap starts one float above its
    # closed end, not on it
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    params = ExtensionParams.full([[-0.1]])
    result = kx.eigenvalue_search(system, params, (-1.0, 2.0))
    assert result.gaps == ((-1.0, 0.0),)
    assert len(result.eigenvalues) == 1
    assert abs(result.eigenvalues[0].lam - kx.single_point_eigenvalue(-0.1)) <= 1e-12
    assert result.metadata["expected_count"] == result.metadata["found_count"] == 1


def test_spin_window_straddling_the_excluded_half_line():
    # the half line ends at max(b) = 5; the second channel's bound state
    # sits at 5 + 16 pi^2 0.1^2
    system = kx.spin_weyl(kx.SpinPointModel([[0, 0, 0]], (0.0, 5.0)))
    params = ExtensionParams.full(-0.1 * np.eye(2))
    straddling = kx.eigenvalue_search(system, params, (4.0, 8.0))
    inside = kx.eigenvalue_search(system, params, (5.0 + 1e-12, 8.0))
    assert straddling.gaps == ((4.0, 5.0),)
    expected = 5.0 + kx.single_point_eigenvalue(-0.1)
    assert abs(inside.eigenvalues[0].lam - expected) <= 1e-12
    assert straddling.lambdas() == pytest.approx(inside.lambdas(), abs=1e-12)
    assert straddling.metadata["expected_count"] == straddling.metadata["found_count"] == 1


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
    # for pi = 0 every nonzero zeta lies off the (empty) range
    with pytest.raises(ValueError):
        kx.eigenfunction(system, ExtensionParams.trivial(2), 0.0, np.array([1.0, -1.0]), grid)


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

    with pytest.raises(ValueError, match="zero vector"):
        kx.validate_eigenpair(system, params, -0.5, np.zeros(2))


def test_validate_eigenpair_reads_gamma_once(neumann_interval):
    # the verdict and the coupling residual share one Gamma(lambda)
    system, params = neumann_interval
    calls = []

    def gamma(z):
        calls.append(z)
        return system.gamma(z)

    counted = dataclasses.replace(system, gamma=gamma)
    zeta = np.array([1.0, 0.3 + 0.2j])
    for lam in (0.0, 1e-3, -0.5, 2.0):
        calls.clear()
        report = kx.validate_eigenpair(counted, params, lam, zeta)
        assert len(calls) == 1
        assert report.coupling_residual > 0.0


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
        weights = corr @ system.sampled_kernels(z, x).adjoint(psi)
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


# ---------------------------------------------------------------------------
# the batched search against a depth-first bisection, bit for bit; each case
# builds a (model, label) pair


def _star(lengths, centre=0.0, tips=None):
    graph = kx.GraphModel(lengths)
    tips = tips or [0.0] * len(lengths)
    params = kx.vertex_params(
        graph,
        [kx.VertexGroup(tuple((e, "left") for e in range(len(lengths))), centre)]
        + [kx.VertexGroup(((e, "right"),), t) for e, t in enumerate(tips)],
    )
    return graph, params


def _random_graph():
    rng = np.random.default_rng(31)
    graph = kx.GraphModel((0.3, 0.6, 0.9, 1.0, 1.4, 2.0, 2.5, 3.0))
    return graph, ExtensionParams.full(random_hermitian(rng, 16, 1.5))


def _partial_projector_graph():
    rng = np.random.default_rng(8)
    return kx.GraphModel((1.0, 1.7, 2.2)), random_params(rng, 6, rank=3, scale=2.0)


def _points():
    rng = np.random.default_rng(12)
    model = kx.PointModel(rng.uniform(-1.5, 1.5, (20, 3)))
    alpha = rng.uniform(-0.6, -0.05, 20)
    return model, ExtensionParams.full(np.diag(alpha).astype(complex))


def _spin():
    model = kx.SpinPointModel([[0.0, 0.0, 0.0], [0.8, 0.0, 0.0]], (0.0, 1.5))
    theta = np.diag([-0.1, -0.12, -0.1, -0.12]).astype(complex)
    return model, ExtensionParams.full(theta)


def _stored_near_pole_graph():
    # the benchmark's stored graph whose root -15.7892640 lies 8.8e-4 from
    # the Dirichlet pole -(pi / 0.7906)^2 of its first edge
    graphs = json.loads((BENCH_REFS / "graphs.json").read_text())["instances"]
    inst = next(g for g in graphs if g["lengths"][0] == 0.7906)
    theta = np.array(inst["theta_re"]) + 1j * np.array(inst["theta_im"])
    return kx.GraphModel(tuple(inst["lengths"])), ExtensionParams.full(theta)


SEARCH_CASES = {
    "interval_robin": (
        lambda: (kx.IntervalModel(PI), ExtensionParams.full(-1.2 * np.eye(2, dtype=complex))),
        (-50.0, 5.0),
    ),
    "graph_random_theta": (_random_graph, (-30.0, 5.0)),
    "star_partial_projector": (lambda: _star((1.0, 1.3, 0.8), 0.7, [0.0, -0.4, -0.8]), (-40.0, 3.0)),
    "graph_random_partial_projector": (_partial_projector_graph, (-25.0, 4.0)),
    "star_double_root": (lambda: _star((1.0, 1.0, 1.0)), (-60.0, 2.0)),
    "near_coincident_roots": (
        lambda: (kx.GraphModel((PI, PI * (1 + 1e-9))), ExtensionParams.full(0.8 * np.eye(4, dtype=complex))),
        (-0.9, 0.0),
    ),
    "points_20": (_points, (0.01, 6.0)),
    "spin": (_spin, (-1.0, 8.0)),
    "graph_stored_near_pole": (_stored_near_pole_graph, (-30.0, 5.0)),
    "long_interval_unreported_drops": (
        lambda: (kx.IntervalModel(1000.0), ExtensionParams.full(0.5 * np.eye(2))),
        (-1e-4, -1e-6),
    ),
}


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_batched_search_equals_depth_first_bisection(name):
    build, window = SEARCH_CASES[name]
    model, params = build()
    got = kx.eigenvalue_search(_weyl_for(model), params, window)
    assert got.eigenvalues, "the case must have roots"
    assert_same_search(got, depth_first_search(model, params, window))


def _formation_points(system, window):
    # real points across the window, off the excluded set, and the same
    # points moved off the axis
    lams = np.linspace(*window, 23)
    lams = lams[~system.excluded.contains(lams)]
    return np.concatenate([lams, lams + 0.37j * (1.0 + np.abs(lams))])


def _signed_zeros(build):
    # the full label of the conjugate of the real part of the case's theta:
    # every imaginary part is -0.0, as from a JSON theta or theta.conj()
    def signed():
        model, params = build()
        return model, ExtensionParams.full(np.conj(params.theta.real + 0j))

    return signed


FORMATION_CASES = dict(
    SEARCH_CASES,
    graph_trivial=(lambda: (kx.GraphModel((0.3, 0.6, 0.9, 1.0)), ExtensionParams.trivial(8)), (-30.0, 5.0)),
    graph_signed_zero_theta=(_signed_zeros(_random_graph), (-30.0, 5.0)),
    star_signed_zero_theta=(_signed_zeros(SEARCH_CASES["star_double_root"][0]), (-60.0, 2.0)),
    points_signed_zero_theta=(_signed_zeros(_points), (0.01, 6.0)),
)


def _frozen_formation(model, params, z):
    # the frozen formation, but theta + Gamma for the identity frame: there
    # V^*(theta + Gamma)V only adds products by zeros, which can turn a -0.0
    # part into +0.0 (the two compare equal)
    if np.array_equal(params.range_basis, np.eye(params.n)):
        return params.theta + reference_gamma(model, z)
    return reference_secular_matrix(model, params, z)


@pytest.mark.parametrize("name", sorted(FORMATION_CASES))
def test_secular_stack_equals_the_frozen_formation(name):
    build, window = FORMATION_CASES[name]
    model, params = build()
    system = _weyl_for(model)
    zs = _formation_points(system, window)
    assert zs.size >= 30
    m = kx.secular_matrix(system, params, zs)
    want = _frozen_formation(model, params, zs)
    assert m.tobytes() == want.tobytes()
    stack = spectral._hermitian_part(m)
    assert stack.shape == (zs.size, params.range_basis.shape[1], params.range_basis.shape[1])
    assert stack.tobytes() == reference_hermitian_part(want).tobytes()
    for z in zs[:: zs.size // 4]:
        assert kx.secular_matrix(system, params, z).tobytes() == _frozen_formation(model, params, z).tobytes()


@pytest.mark.parametrize("zeros", [(0.0,), (0.0, -0.0)])
def test_hermitian_part_keeps_the_bits_of_the_division_by_two(zeros):
    # parts drawn from signed zeros, subnormals and ordinary values
    values = np.array(zeros + (1.0, -1.5, 5e-324, -5e-324, 1e-310, -2.5e-308, 3.0))
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = np.empty((6, 3, 3), dtype=complex)
        m.real, m.imag = rng.choice(values, m.shape), rng.choice(values, m.shape)
        assert spectral._hermitian_part(m).tobytes() == reference_hermitian_part(m).tobytes()


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_full_label_secular_matrix_is_theta_plus_gamma(name):
    build, window = SEARCH_CASES[name]
    model, params = build()
    system = _weyl_for(model)
    zs = _formation_points(system, window)
    identity = np.eye(system.n)
    assert params._uncompressed == np.array_equal(params.range_basis, identity)
    assert not ExtensionParams.trivial(system.n)._uncompressed
    # theta as built (interval_robin's -1.2 * np.eye(2, dtype=complex) has
    # -0.0 parts), with -0.0 parts made +0.0, and with every imaginary part
    # -0.0, as from a JSON theta or theta.conj()
    for theta in (params.theta, params.theta + 0.0, np.conj(params.theta.real + 0j)):
        expected = theta + system.gamma(zs)
        for label in (ExtensionParams.full(theta), ExtensionParams(identity, theta)):
            assert label._uncompressed
            assert kx.secular_matrix(system, label, zs).tobytes() == expected.tobytes()
            assert kx.secular_matrix(system, label, zs[0]).tobytes() == expected[0].tobytes()


@settings(max_examples=20)
@given(
    lengths=st.tuples(*[st.floats(0.3, 2.5)] * 3),
    centre=st.floats(-4.0, 4.0),
    tip=st.floats(-4.0, 4.0),
)
def test_robin_star_search_equals_depth_first_bisection(lengths, centre, tip):
    graph, params = _star(lengths, centre, [tip] * 3)
    window = (-40.0, 3.0)
    got = kx.eigenvalue_search(kx.graph_weyl(graph), params, window)
    assert_same_search(got, depth_first_search(graph, params, window))


def _same_search(model, params, window):
    got = kx.eigenvalue_search(_weyl_for(model), params, window)
    assert_same_search(got, depth_first_search(model, params, window))


@settings(max_examples=60)
@given(
    a=st.floats(0.5, 4.0),
    theta=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    lo=st.floats(-80.0, -2.0),
    width=st.floats(4.0, 80.0),
)
def test_random_robin_interval_search_equals_depth_first_bisection(a, theta, lo, width):
    params = ExtensionParams.full(np.diag(theta).astype(complex))
    _same_search(kx.IntervalModel(a), params, (lo, lo + width))


@settings(max_examples=60)
@given(
    lengths=st.lists(st.floats(0.3, 2.5), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(-40.0, 0.0),
    width=st.floats(1.0, 45.0),
)
def test_random_graph_search_equals_depth_first_bisection(lengths, seed, lo, width):
    theta = random_hermitian(np.random.default_rng(seed), 2 * len(lengths), 2.0)
    _same_search(kx.GraphModel(tuple(lengths)), ExtensionParams.full(theta), (lo, lo + width))


@settings(max_examples=60)
@given(
    centres=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(-1.0, 2.0),
    width=st.floats(1.0, 10.0),
)
def test_random_point_model_search_equals_depth_first_bisection(centres, seed, lo, width):
    rng = np.random.default_rng(seed)
    model = kx.PointModel(rng.uniform(-1.5, 1.5, (centres, 3)))
    params = ExtensionParams.full(np.diag(rng.uniform(-0.25, 0.1, centres)).astype(complex))
    _same_search(model, params, (lo, lo + width))


@settings(max_examples=40)
@given(
    edges=st.integers(2, 6),
    a=st.floats(0.3, 2.5),
    centre=st.floats(-4.0, 4.0),
    tip=st.floats(-4.0, 4.0),
    lo=st.floats(-40.0, 0.0),
    width=st.floats(1.0, 45.0),
)
def test_random_equal_length_star_search_equals_depth_first_bisection(edges, a, centre, tip, lo, width):
    # equal edges with equal Robin tips: the modes that vanish at the centre
    # are (edges - 1)-fold, so count drops larger than one are drawn
    graph, params = _star((a,) * edges, centre, [tip] * edges)
    _same_search(graph, params, (lo, lo + width))


def test_long_interval_counts_the_drops_it_cannot_report():
    # two of the three count drops in this window close at 1.2e-10 and
    # 1.7e-10 of their secular scale, above RANK_RTOL: below |lambda| = 1
    # the bracket floor is absolute and too wide for them (ROADMAP item 3),
    # so they are counted in expected_count, not reported
    build, window = SEARCH_CASES["long_interval_unreported_drops"]
    model, params = build()
    result = kx.eigenvalue_search(_weyl_for(model), params, window)
    assert (result.metadata["expected_count"], result.metadata["found_count"]) == (3, 1)


def _robin_interval_step(a, theta, lam):
    """Relative Newton step |f / f'| / |lam| at lam < 0 of the scalar secular
    equation of the interval (0, a) with Robin constants theta = (t1, t2):
    f = t1 t2 sin(ka) + k (t1 + t2) cos(ka) - k^2 sin(ka), k = sqrt(-lam),
    which for t1 = t2 is twice the product of the even and odd equations."""
    (t1, t2), k = theta, math.sqrt(-lam)
    s, c = math.sin(k * a), math.cos(k * a)
    f = t1 * t2 * s + k * (t1 + t2) * c - k * k * s
    df = (t1 * t2 * a * c + (t1 + t2) * (c - k * a * s) - 2 * k * s - k * k * a * c) * -0.5 / k
    return abs(f / df) / abs(lam)


@pytest.mark.parametrize(
    "a, theta, window, count, tol",
    [
        (PI, (0.5, 0.5), (-1e6, -9.9e5), 5, 2e-15),
        (PI, (0.5, 0.5), (-1e6, -9e5), 51, 2e-15),
        (PI, (0.5, 0.5), (-3e5, -0.1), 548, 2e-15),
        (PI, (0.5, 0.5), (-1e6, -0.1), 1000, 2e-15),
        # 1e-5 from the Dirichlet pole -pi^2, where the secular matrix is about 1e6
        (2.0, (0.0, 1e-5), (-10.0, -6.0), 1, 1e-11),
    ],
)
def test_search_reports_every_counted_root_at_any_secular_scale(a, theta, window, count, tol):
    # a root is accepted when its secular eigenvalues vanish relative to
    # 1 + max|w|, the scale eigenfunction uses, here up to about 1e6
    system = kx.interval_weyl(kx.IntervalModel(a))
    result = kx.eigenvalue_search(system, ExtensionParams.full(np.diag(theta).astype(complex)), window)
    assert result.metadata["expected_count"] == result.metadata["found_count"] == count
    lams = result.lambdas()
    assert len(lams) == count and np.all(np.diff(lams) > 0.0)
    assert max(_robin_interval_step(a, theta, lam) for lam in lams) <= tol


def test_search_evaluates_gamma_once_per_round():
    # all live brackets share one Gamma call per round, and the secant and
    # the walked window need about half the rounds of a bisection to the
    # floor (55 on the interval); one call per lambda makes about 400 here
    ceilings = {"interval_robin": 24, "graph_random_theta": 30, "points_20": 30}
    for name, ceiling in ceilings.items():
        build, window = SEARCH_CASES[name]
        model, params = build()
        system = _weyl_for(model)
        calls = []

        def gamma(z, gamma=system.gamma):
            calls.append(np.shape(z))
            return gamma(z)

        result = kx.eigenvalue_search(dataclasses.replace(system, gamma=gamma), params, window)
        assert result.metadata["expected_count"] == result.metadata["found_count"] >= 5
        assert len(calls) <= ceiling, name
        assert all(len(shape) == 1 for shape in calls)


# ---------------------------------------------------------------------------
# the secant's fallbacks, on synthetic secular eigenvalues: R is the rounding
# bound _isolate derives from them, about 2.7e-12 with the constant branch


BIG = 1e3
R = spectral.BRACKET_FLOOR * 3 * BIG


def _hashed(lams, salt):
    """Deterministic noise in [0, 1) from the bits of each lambda."""
    bits = np.asarray(lams, dtype=float).view(np.uint64)
    mixed = (bits * np.uint64(0x9E3779B97F4A7C15 + salt)) >> np.uint64(40)
    return mixed.astype(float) / 2.0**24


def _flicker(lams):
    # the crossing branch jitters by R/2 around lam = 1.3 and a second branch
    # dips below zero within 4R of it: counts 1, 2, 1, 0 inside the band
    d = np.asarray(lams, dtype=float) - 1.3
    w = [d + R * (_hashed(lams, 1) - 0.5), np.abs(d) - 4.0 * R * _hashed(lams, 2), np.full_like(d, BIG)]
    return np.sort(np.stack(w, axis=-1), axis=-1)


def _kink(lams):
    # slope 1 away from the root and 1e-2 within 1000 R of it: the secant's
    # slope is too steep, so the first probes land inside the band
    d = np.asarray(lams, dtype=float) - 1.2345678901234
    c = 1e3 * R
    f = np.where(np.abs(d) <= c, 1e-2 * d, np.sign(d) * (1e-2 * c + np.abs(d) - c))
    return np.sort(np.stack([f, np.full_like(d, BIG), np.full_like(d, BIG)], axis=-1), axis=-1)


def _isolate_against_plain_bisection(eigs):
    calls = []

    def batched(lams):
        calls.append(np.asarray(lams))
        return eigs(lams)

    got = spectral._isolate(batched, [(0.0, 3.0)], 0.0)
    assert got == sorted(depth_first_isolate(lambda lam: eigs(np.array([lam]))[0], 0.0, 3.0, 0.0))
    return calls


def test_count_outside_the_drop_falls_back_to_plain_bisection():
    calls = _isolate_against_plain_bisection(_flicker)
    counts = np.sum(_flicker(np.concatenate(calls)) < 0.0, axis=1)
    assert 2 in counts  # the walk met a count that is neither clo nor chi


def test_failed_probes_widen_the_window():
    calls = _isolate_against_plain_bisection(_kink)
    spreads = [points[1] - points[0] for points in calls[1:] if len(points) == 2]
    assert len(spreads) >= 2  # the first probes failed and were repeated
    assert spreads[1] == pytest.approx(16.0 * spreads[0])


# each of the four ways to give a window up, on the branch w = lam - 1.5 of
# (0, 3), whose first secant step lands exactly on the root: the bracket
# then evaluates every midpoint of the plain bisection, whose roots it
# must still give to the bit


def _line_with(bands):
    """The branch lam - 1.5 beside two constant ones, with the secular
    eigenvalues replaced by ``row`` within 4 R of each band's centre."""

    def eigs(lams):
        lams = np.asarray(lams, dtype=float)
        w = np.stack([lams - 1.5, np.full_like(lams, BIG), np.full_like(lams, BIG)], axis=-1)
        for centre, row in bands:
            w[np.abs(lams - centre) <= 4.0 * R] = row
        return np.sort(w, axis=-1)

    return eigs


def _abandoned_window(monkeypatch, eigs):
    """The points of each round, once the first window was given up: the
    first bracket, (0, 3), then walks with no window."""
    brackets = []

    class Recorded(spectral._Bracket):
        def __init__(self, *args):
            super().__init__(*args)
            brackets.append(self)

    monkeypatch.setattr(spectral, "_Bracket", Recorded)
    calls = _isolate_against_plain_bisection(eigs)
    assert (brackets[0].xl, brackets[0].xr) == (-np.inf, np.inf)
    assert len(calls) > 50  # the midpoints the window would have skipped
    return calls


def _counts(eigs, points):
    return np.sum(eigs(points) < 0.0, axis=1).tolist()


def test_secant_point_with_a_foreign_count_abandons_the_window(monkeypatch):
    eigs = _line_with([(1.5, [-1.0, -1.0, BIG])])
    calls = _abandoned_window(monkeypatch, eigs)
    assert calls[1].tolist() == [1.5] and _counts(eigs, calls[1]) == [2]


def test_probe_with_a_foreign_count_abandons_the_window(monkeypatch):
    eigs = _line_with([(1.5 - 16.0 * R, [-1.0, -1.0, BIG])])
    calls = _abandoned_window(monkeypatch, eigs)
    assert calls[1].tolist() == [1.5] and _counts(eigs, calls[2]) == [2, 0]


def test_crossed_probes_abandon_the_window(monkeypatch):
    # the left probe certifies a right end and the right probe a left end
    eigs = _line_with([(1.5 - 16.0 * R, [1.0, BIG, BIG]), (1.5 + 16.0 * R, [-1.0, BIG, BIG])])
    calls = _abandoned_window(monkeypatch, eigs)
    assert calls[1].tolist() == [1.5] and _counts(eigs, calls[2]) == [0, 1]


def test_zero_rounding_at_the_root_abandons_the_window(monkeypatch):
    # one branch and theta_norm = 0: R = 0 where the secant hits w = 0, so
    # the probe distance is 0 and no probe is made
    eigs = lambda lams: (np.asarray(lams, dtype=float) - 1.5)[:, None]
    calls = _abandoned_window(monkeypatch, eigs)
    assert calls[1].tolist() == [1.5] and all(len(points) == 1 for points in calls[1:])
