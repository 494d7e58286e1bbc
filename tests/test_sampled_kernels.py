"""Shared edge kernels: one pair of sines per edge and z feeds all three sampled factors."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kreinext as kx
from kreinext import ExcludedPointError, ExtensionParams, GridMismatchError, models
from kreinext.verify import edge_grids

from helpers import reference_g_adjoint, reference_g_columns, reference_r_apply

PI = np.pi
EIGHT_EDGES = (0.79, 1.23, 0.95, 1.41, 0.62, 1.08, 1.3, 0.88)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _samples(rng, x):
    return rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)


def _check_edge(system, a, z, x, psi, zeta):
    """The shared maps and ``g_apply`` against the per-field reference kernels."""
    kernels = system.sampled_kernels(z, x)
    _same(kernels.resolvent(psi), reference_r_apply(a, z, psi, x))
    _same(kernels.adjoint(psi), reference_g_adjoint(a, z, psi, x))
    _same(kernels.apply(zeta), reference_g_columns(a, z, x) @ zeta)
    _same(system.g_apply(z, zeta, x), reference_g_columns(a, z, x) @ zeta)


# ---------------------------------------------------------------------------
# bit-for-bit against the per-field kernels


@pytest.mark.parametrize("z", [0.0, 0j, -2.5, -2.5 + 0j, 3.0, 1 + 1j, -7.3 - 0.2j])
@pytest.mark.parametrize("nodes", [501, 2000, 2001])
def test_interval_kernels_bit_identical(z, nodes):
    system = kx.interval_weyl(kx.IntervalModel(PI))
    x = np.linspace(0.0, PI, nodes)
    rng = np.random.default_rng(nodes)
    psi = _samples(rng, x)
    zeta = np.array([0.7 - 0.2j, -0.3 + 0.4j])
    _check_edge(system, PI, z, x, psi, zeta)


def _polar(magnitude, angle):
    if angle in (0.0, np.pi):
        return complex(np.cos(angle) * magnitude, 0.0)
    return complex(magnitude * np.cos(angle), magnitude * np.sin(angle))


# |z| log-uniform in [1e-8, 1e4], on either real half axis or at any angle
spectral_parameters = st.builds(
    _polar,
    st.floats(-8.0, 4.0).map(lambda e: 10.0**e),
    st.one_of(st.sampled_from((0.0, np.pi)), st.floats(-np.pi, np.pi)),
)


@given(z=spectral_parameters)
def test_interval_kernels_bit_identical_log_uniform(z):
    system = kx.interval_weyl(kx.IntervalModel(PI))
    assume(not system.excluded.contains(z))
    x = np.linspace(0.0, PI, 2001)
    psi = kx.poly_bump(PI)(x) * (1 + 0.5j)
    _check_edge(system, PI, z, x, psi, np.array([1.0, -2j]))


@pytest.mark.parametrize("nodes", [501, 2000, 2001])
@pytest.mark.parametrize("z", [0j, -4.1, 2.0, 1 + 1j])
def test_graph_kernels_bit_identical(nodes, z):
    system = kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))
    grids = [np.linspace(0.0, a, nodes) for a in EIGHT_EDGES]
    rng = np.random.default_rng(nodes)
    psis = [_samples(rng, x) for x in grids]
    zeta = rng.normal(size=16) + 1j * rng.normal(size=16)
    kernels = system.sampled_kernels(z, grids)
    free, adjoint, applied = kernels.resolvent(psis), kernels.adjoint(psis), kernels.apply(zeta)
    for k, (a, x, psi) in enumerate(zip(EIGHT_EDGES, grids, psis)):
        _same(free[k], reference_r_apply(a, z, psi, x))
        _same(adjoint[2 * k : 2 * k + 2], reference_g_adjoint(a, z, psi, x))
        _same(applied[k], reference_g_columns(a, z, x) @ zeta[2 * k : 2 * k + 2])
    for got, want in zip(system.g_apply(z, zeta, grids), applied):
        _same(got, want)


# ---------------------------------------------------------------------------
# work count: one SampledKernels, every edge's kernels, per apply_resolvent


def _count_builds(monkeypatch):
    built = []

    class Counting(models.SampledKernels):
        def __init__(self, system, *args):
            built.append(system.lengths)
            super().__init__(system, *args)

    monkeypatch.setattr(models, "SampledKernels", Counting)
    return built


def test_apply_resolvent_builds_each_edge_once(monkeypatch):
    built = _count_builds(monkeypatch)
    interval = kx.interval_weyl(kx.IntervalModel(PI))
    x = np.linspace(0.0, PI, 2001)
    params = ExtensionParams.full(np.diag([0.3, 0.3]))
    kx.apply_resolvent(interval, params, 1 + 1j, kx.poly_bump(PI)(x), x)
    assert built == [(PI,)]

    built.clear()
    graph = kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))
    grids = [np.linspace(0.0, a, 2001) for a in EIGHT_EDGES]
    psis = [kx.poly_bump(a)(g) for a, g in zip(EIGHT_EDGES, grids)]
    params = ExtensionParams.full(0.2 * np.eye(16))
    kx.apply_resolvent(graph, params, 1 + 1j, psis, grids)
    assert built == [tuple(EIGHT_EDGES)]


# ---------------------------------------------------------------------------
# grids that do not fit the edge


def _bad_grids():
    t = np.linspace(0.0, 1.0, 2001)
    # a NaN node compares False with every bound the other checks test
    nan_first, nan_inside = PI * t, PI * t
    nan_first[0] = nan_inside[1000] = np.nan
    return {
        "too_long": np.linspace(0.0, 2.0, 2001),
        "shifted": np.linspace(1.0, 1.0 + PI, 2001),
        "non_uniform": PI * t * t,
        "nan_first": nan_first,
        "nan_inside": nan_inside,
    }


@pytest.mark.parametrize("name", sorted(_bad_grids()))
def test_apply_resolvent_rejects_a_grid_that_does_not_fit(name):
    grid = _bad_grids()[name]
    system = kx.interval_weyl(kx.IntervalModel(PI))
    params = ExtensionParams.full(np.diag([0.3, 0.3]))
    psi = kx.poly_bump(PI)(grid)
    with pytest.raises(GridMismatchError, match="edge 0"):
        kx.apply_resolvent(system, params, 1 + 1j, psi, grid)
    with pytest.raises(GridMismatchError, match="edge 0"):
        system.sampled_kernels(1 + 1j, grid)


def test_fitting_grid_passes_and_samples_must_match_it():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    params = ExtensionParams.full(np.diag([0.3, 0.3]))
    x = np.linspace(0.0, PI, 2001)
    phi = kx.apply_resolvent(system, params, 1 + 1j, kx.poly_bump(PI)(x), x)
    assert phi.shape == x.shape and np.all(np.isfinite(phi))
    with pytest.raises(GridMismatchError, match="2000 samples on a grid of 2001 nodes"):
        kx.apply_resolvent(system, params, 1 + 1j, kx.poly_bump(PI)(x)[:-1], x)
    assert issubclass(GridMismatchError, ValueError)  # the CLI reports invalid-config


def test_graph_grid_mismatch_names_the_edge():
    system = kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))
    grids = [np.linspace(0.0, a, 1001) for a in EIGHT_EDGES]
    grids[3] = np.linspace(0.0, 1.0, 1001)
    psis = [np.ones(1001, dtype=complex) for _ in EIGHT_EDGES]
    params = ExtensionParams.full(0.2 * np.eye(16))
    with pytest.raises(GridMismatchError, match="edge 3 "):
        kx.apply_resolvent(system, params, 1 + 1j, psis, grids)
    with pytest.raises(GridMismatchError, match="need one entry per edge: 7 for 8 edges"):
        kx.apply_resolvent(system, params, 1 + 1j, psis[:7], grids[:7])
    grids[3] = np.linspace(0.0, EIGHT_EDGES[3], 1001)
    with pytest.raises(GridMismatchError, match="need one entry per edge: 7 for 8 edges"):
        kx.apply_resolvent(system, params, 1 + 1j, psis[:7], grids)


def test_edge_maps_take_one_entry_per_edge_and_n_boundary_values():
    system = kx.graph_weyl(kx.GraphModel((1.0, 2.0)))
    f = kx.sine_mode(PI)
    params = ExtensionParams.full(np.zeros((4, 4)))
    grids = edge_grids(system, 601)
    for parts in ([f, f, f], [f]):
        message = f"need one entry per edge: {len(parts)} for 2 edges"
        with pytest.raises(GridMismatchError, match=message):
            system.traces(parts)
        with pytest.raises(GridMismatchError, match=message):
            kx.boundary_condition_residuals(system, params, parts, np.zeros(4))
        with pytest.raises(GridMismatchError, match=message):
            system.traces([np.sin(PI * x) + 0j for x in grids], grids[:1] * len(parts))
    for m in (2, 6):
        message = re.escape(f"need a boundary vector of length 4, got shape ({m},)")
        with pytest.raises(ValueError, match=message):
            system.g_closed(1j, np.ones(m))
        with pytest.raises(ValueError, match=message):
            system.sampled_kernels(1j, grids).apply(np.ones(m))


def test_the_kernels_integrate_only_on_grids_of_min_edge_nodes():
    # the kernels refuse a grid when they are built: z first, then the node
    # floor on every edge, then each edge's span; g_apply takes any points
    system = kx.graph_weyl(kx.GraphModel((1.0, 2.0)))
    grids = [np.linspace(0.0, 1.0, 1001), np.linspace(1.0, 3.0, kx.models.MIN_EDGE_NODES - 1)]
    psi = [np.ones_like(x) + 0j for x in grids]
    message = f"^need at least 501 nodes per edge, got {kx.models.MIN_EDGE_NODES - 1}$"
    with pytest.raises(kx.GridTooCoarseError, match=message):
        system.sampled_kernels(1j, grids)
    with pytest.raises(kx.GridTooCoarseError, match=message):
        kx.apply_resolvent(system, ExtensionParams.trivial(4), 1j, psi, grids)
    # edge 0 does not span its edge, edge 1 is coarse: the floor comes first
    with pytest.raises(kx.GridTooCoarseError, match=message):
        system.sampled_kernels(1j, [np.linspace(0.5, 1.5, 1001), grids[1]])
    with pytest.raises(GridMismatchError, match="^edge 0 "):
        system.sampled_kernels(1j, [np.linspace(0.5, 1.5, 1001), np.linspace(1.0, 3.0, 501)])
    assert [part.shape for part in system.g_apply(1j, np.ones(4), grids)] == [(1001,), (500,)]
    pole = -((PI / 2.0) ** 2)
    with pytest.raises(ExcludedPointError, match=re.escape(f"z={complex(pole)}")):
        system.sampled_kernels(pole, grids)
    with pytest.raises(ExcludedPointError, match=re.escape(f"z={complex(pole)}")):
        kx.apply_resolvent(system, ExtensionParams.trivial(4), pole, psi, grids)


@pytest.mark.parametrize("name", sorted(_bad_grids()))
def test_sampled_traces_reject_a_grid_that_does_not_fit(name):
    # the boundary values are the end samples only on a grid from 0 to a
    grid = _bad_grids()[name]
    with pytest.raises(GridMismatchError, match="edge 0"):
        kx.interval_weyl(kx.IntervalModel(PI)).traces(np.sin(grid) + 0j, grid)


def test_grid_ends_are_named_as_plain_floats():
    message = (
        "edge 0 (length 3.141592653589793): grid runs from 1.0 to 4.0, "
        "not from 0 to the edge length 3.141592653589793"
    )
    with pytest.raises(GridMismatchError) as info:
        kx.interval_weyl(kx.IntervalModel(PI)).traces(np.zeros(501), np.linspace(1, 4, 501))
    assert str(info.value) == message


def test_sampled_traces_need_one_sample_per_node():
    x = np.linspace(0.0, PI, 2001)
    system = kx.interval_weyl(kx.IntervalModel(PI))
    with pytest.raises(GridMismatchError, match="1500 samples on a grid of 2001 nodes"):
        system.traces(np.sin(x[:1500]) + 0j, x)
    # a scalar is one sample, for the traces and the kernels alike
    with pytest.raises(GridMismatchError, match="1 samples on a grid of 2001 nodes"):
        system.traces(1.0, x)
    with pytest.raises(GridMismatchError, match="1 samples on a grid of 2001 nodes"):
        system.sampled_kernels(1j, x).adjoint(1.0)


def test_graph_traces_name_the_edge():
    system = kx.graph_weyl(kx.GraphModel((1.0, 2.0)))
    grids = [np.linspace(0.0, 1.0, 1001), np.linspace(1.0, 3.0, 1001)]
    parts = [np.sin(PI * g) + 0j for g in grids]
    with pytest.raises(GridMismatchError, match="edge 1 "):
        system.traces(parts, grids)
    grids[1] = np.linspace(0.0, 2.0, 1001)
    parts[1] = np.sin(0.5 * PI * grids[1]) + 0j
    rho, tau = system.traces(parts, grids)
    assert np.max(np.abs(rho)) < 1e-12
    assert np.allclose(tau, [PI, PI, 0.5 * PI, 0.5 * PI], rtol=1e-8)


def test_g_apply_takes_arbitrary_points(monkeypatch):
    # g_apply evaluates the deficiency columns pointwise and builds no kernels
    def no_kernels(*args):
        raise AssertionError("g_apply built a SampledKernels")

    monkeypatch.setattr(models, "SampledKernels", no_kernels)
    system = kx.interval_weyl(kx.IntervalModel(PI))
    zeta = np.array([1.0, 0.5j])
    for pts in (np.array([0.1, 2.0, 0.5, 3.0]), np.array([0.0, PI])):
        for z in (1 + 1j, 0.0):
            _same(system.g_apply(z, zeta, pts), reference_g_columns(PI, z, pts) @ zeta)
    graph = kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))
    coarse = [np.linspace(0.0, a, 11) for a in EIGHT_EDGES]
    zeta = np.arange(16) * (1 - 0.5j)
    for got, a, x, pair in zip(graph.g_apply(2 - 1j, zeta, coarse), EIGHT_EDGES, coarse, zeta.reshape(8, 2)):
        _same(got, reference_g_columns(a, 2 - 1j, x) @ pair)


# ---------------------------------------------------------------------------
# each z is checked once, and still checked


@pytest.mark.parametrize(
    "system",
    [kx.interval_weyl(kx.IntervalModel(PI)), kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))],
    ids=["interval", "graph"],
)
def test_sampled_kernels_reject_a_dirichlet_pole(system):
    z = -((PI / system.lengths[0]) ** 2)  # the first pole of edge 0: -1.0 on the interval
    grid = edge_grids(system, 2001)
    message = re.escape(f"z={complex(z)} lies in the excluded spectral set: {system.excluded.describe()}")
    with pytest.raises(ExcludedPointError, match=message):
        system.sampled_kernels(z, grid)
    with pytest.raises(ExcludedPointError, match=message):
        system.g_apply(z, np.ones(system.n), grid)
    with pytest.raises(ExcludedPointError, match=message):
        system.g_closed(z, np.ones(system.n))
    # z is checked before the grids are
    with pytest.raises(ExcludedPointError, match=message):
        system.sampled_kernels(z, [np.linspace(0.0, 1.0, 11)] * 3)


def test_secular_matrix_still_rejects_excluded_points():
    system = kx.interval_weyl(kx.IntervalModel(PI))
    message = re.escape(f"z={complex(-1.0)} lies in the excluded spectral set")
    for params in (ExtensionParams.trivial(2), ExtensionParams.full(np.eye(2))):
        with pytest.raises(ExcludedPointError, match=message):
            kx.secular_matrix(system, params, -1.0)
        with pytest.raises(ExcludedPointError, match=message):
            kx.secular_matrix(system, params, np.array([-0.5, -1.0]))


@pytest.mark.parametrize(
    "system, node",
    [
        (kx.point_weyl(kx.PointModel([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])), -1.0),
        (kx.graph_weyl(kx.GraphModel((PI, 2.0))), -1.0),
    ],
)
def test_green_route_rejects_an_excluded_node(system, node):
    combo = kx.GreenCombination(((2j, np.ones(system.n)), (node, np.ones(system.n))))
    message = f"z={complex(node)} lies in the excluded spectral set: {system.excluded.describe()}"
    params = ExtensionParams.full(np.eye(system.n))
    with pytest.raises(ExcludedPointError, match=re.escape(message)):
        kx.apply_resolvent_green(system, params, 1 + 1j, combo)


def test_point_model_keeps_its_distances(monkeypatch):
    centers = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.5]]
    model = kx.PointModel(centers)
    spin = kx.SpinPointModel(centers, (0.0, 1.5))
    assert "_upper_distances" not in {f.name for f in dataclasses.fields(model)}
    assert not hasattr(model, "_distances")  # the kernels read only the pairs above the diagonal
    assert "_point" not in {f.name for f in dataclasses.fields(spin)}
    rows, cols = np.triu_indices(3, 1)
    _same(model._upper_distances, models._pairwise_distances(model.centers, model.centers)[rows, cols])
    # the point values and the regular part read |x - y| from this helper,
    # which squares by diff * diff where they squared by ** 2: same bytes
    rng = np.random.default_rng(5)
    pts, far = rng.normal(size=(500, 3)) * 4, rng.normal(size=(20, 3)) * 3
    squared = np.sum((pts[:, None, :] - far[None, :, :]) ** 2, axis=-1)
    _same(models._pairwise_distances(pts, far), np.sqrt(squared))

    def recompute(*_):
        raise AssertionError("pairwise distances recomputed")

    monkeypatch.setattr(models, "_pairwise_distances", recompute)
    for system in (kx.point_weyl(model), kx.spin_weyl(spin)):
        system.gamma(np.array([2.0, 2 + 1j]))
        system.gram(2.0, 2.0)
        system.gram(3.0, 2.5)
    assert kx.spin_weyl(spin).point is spin._point
