import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import kreinext as kx
from kreinext import ExcludedPointError, ExtensionParams, VertexGroup, models

from helpers import (
    reference_block_diag,
    reference_dirichlet_contains,
    reference_dirichlet_distance,
    reference_point_gamma,
    reference_point_gram,
)

PI = np.pi
FOUR_PI = 4 * np.pi


# ---------------------------------------------------------------------------
# interval


def test_interval_gamma_zero_branch():
    system = kx.interval_weyl(kx.IntervalModel(2.0))
    assert np.allclose(system.gamma(0.0), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_interval_rejects_bad_length():
    with pytest.raises(ValueError):
        kx.IntervalModel(0.0)
    with pytest.raises(ValueError):
        kx.IntervalModel(-1.0)


def test_a_length_whose_pole_spacing_overflows_is_refused():
    # (pi / a)^2 is inf for a = 1e-320; built, such a model once sent the
    # spectral search stepping by nextafter through an endless excluded set
    for build in (
        lambda: kx.IntervalModel(1e-320),
        lambda: kx.GraphModel((1.0, 1e-200)),
        lambda: kx.DirichletExclusions((1e-320,)),
    ):
        with pytest.raises(ValueError, match=r"finite \(pi / a\)\^2"):
            build()
    assert kx.IntervalModel(1e-150).a == 1e-150  # (pi / a)^2 is still finite here


def test_a_window_holding_too_many_poles_is_refused(monkeypatch):
    # counted before any array is built: 1e16 poles of a = pi, 3e11 of a = 1e12
    for length, lo, hi in ((PI, -1e308, 1.0), (1e12, -1.0, 1.0)):
        with pytest.raises(ExcludedPointError, match=r"^the window \[.+\] holds \d+ Dirichlet poles"):
            kx.DirichletExclusions((1.0, length)).gaps_in(lo, hi)
    monkeypatch.setattr(models, "MAX_WINDOW_POLES", 10)
    edge = kx.DirichletExclusions((PI,))
    assert len(edge.gaps_in(-(10.5**2), 0.0)) == 10  # poles -1, -4, ..., -100
    with pytest.raises(ExcludedPointError, match=r"holds 11 Dirichlet poles of the edge of length 3.14"):
        edge.gaps_in(-(11.5**2), 0.0)


def test_interval_g_apply_zero_energy():
    a = 2.0
    system = kx.interval_weyl(kx.IntervalModel(a))
    x = np.linspace(0, a, 101)
    first = system.g_apply(0.0, np.array([1.0, 0.0]), x)
    assert np.allclose(first, (a - x) / a)
    flat = system.g_apply(0.0, np.array([1.0, 1.0]), x)
    assert np.allclose(flat, np.ones_like(x))


def test_interval_green_solves_ode():
    a = PI
    model = kx.IntervalModel(a)
    system = kx.interval_weyl(model)
    x = np.linspace(0, a, 4001)
    h = x[1] - x[0]
    for z in (1 + 1j, -0.5, 3.0):
        u = system.g_apply(z, np.array([0.7, -0.3 + 0.4j]), x)
        fd = -(u[:-2] - 2 * u[1:-1] + u[2:]) / h**2 + z * u[1:-1]
        assert np.max(np.abs(fd)) <= 1e-5 * (1 + abs(z)) * np.max(np.abs(u))


def test_interval_traces_closed_form():
    a = 2.0
    system = kx.interval_weyl(kx.IntervalModel(a))
    rho, tau = system.traces(kx.sine_mode(PI / a))
    assert np.allclose(rho, [0.0, 0.0], atol=1e-15)
    assert np.allclose(tau, [PI / a, PI / a], atol=1e-12)


def test_interval_traces_green_samples():
    a = PI
    system = kx.interval_weyl(kx.IntervalModel(a))
    x = np.linspace(0, a, 2001)
    samples = system.g_apply(1 + 1j, np.array([1.0, 0.0]), x)
    rho, _ = system.traces(samples, x)
    assert np.linalg.norm(rho - np.array([1.0, 0.0])) < 1e-8


def test_interval_sampled_traces_match_closed_form():
    # both ends of tau are inward derivatives, sampled or closed form
    system = kx.interval_weyl(kx.IntervalModel(2.0))
    x = np.linspace(0.0, 2.0, 2001)
    for fn in (kx.sine_mode(PI / 2.0), kx.cosine_mode(1.3), kx.poly_bump(2.0)):
        rho, tau = system.traces(fn(x), x)
        exact_rho, exact_tau = system.traces(fn)
        assert np.allclose(rho, exact_rho, atol=1e-14)
        assert np.allclose(tau, exact_tau, atol=1e-9)


def test_interval_traces_constant():
    system = kx.interval_weyl(kx.IntervalModel(1.5))
    one = kx.zero_function() + kx.cosine_mode(0.0)
    rho, tau = system.traces(one)
    assert np.allclose(rho, [1.0, 1.0])
    assert np.allclose(tau, [0.0, 0.0])


def test_interval_traces_need_grid_for_samples():
    with pytest.raises(ValueError):
        kx.interval_weyl(kx.IntervalModel(1.0)).traces(np.ones(10))


def test_interval_rho_of_green_is_identity_exactly():
    system = kx.interval_weyl(kx.IntervalModel(1.3))
    for z in (0.0, 1 + 2j, -0.7):
        for zeta in (np.array([1.0, 0.0]), np.array([0.3, -1j])):
            fn = system.g_closed(z, zeta)
            rho, _ = system.traces(fn)
            assert np.allclose(rho, zeta, atol=1e-12)


# ---------------------------------------------------------------------------
# graph


def test_graph_single_edge_matches_interval():
    graph = kx.graph_weyl(kx.GraphModel((1.3,)))
    interval = kx.interval_weyl(kx.IntervalModel(1.3))
    for z in (0.5 + 0.5j, -0.3, 2.0):
        assert np.allclose(graph.gamma(z), interval.gamma(z), atol=1e-14)


def test_graph_equal_edges_block_structure():
    system = kx.graph_weyl(kx.GraphModel((1.0, 1.0)))
    g = system.gamma(0.7 + 0.1j)
    assert np.allclose(g[:2, :2], g[2:, 2:])
    assert np.allclose(g[:2, 2:], 0.0)


def test_graph_excluded_union():
    system = kx.graph_weyl(kx.GraphModel((1.0, 2.0)))
    for bad in (-(PI) ** 2, -((PI / 2) ** 2), -((2 * PI / 2) ** 2)):
        assert system.excluded.contains(bad)
    assert not system.excluded.contains(-2.0)


def test_graph_permutation_commutes_for_equal_edges():
    system = kx.graph_weyl(kx.GraphModel((1.0, 1.0, 1.0)))
    perm = np.zeros((6, 6))
    order = [2, 3, 4, 5, 0, 1]  # cycle the three edges
    for i, j in enumerate(order):
        perm[i, j] = 1.0
    for z in (1j, 2.0, -0.4 + 0.9j):
        g = system.gamma(z)
        assert np.linalg.norm(perm @ g - g @ perm) <= 1e-12


def test_vertex_params_single_edge_neumann():
    model = kx.GraphModel((1.0,))
    params = kx.vertex_params(
        model,
        [VertexGroup(((0, "left"),), 0.0), VertexGroup(((0, "right"),), 0.0)],
    )
    assert np.allclose(params.pi, np.eye(2))
    assert np.allclose(params.theta, np.zeros((2, 2)))


def test_vertex_params_robin_strengths():
    model = kx.GraphModel((1.0,))
    params = kx.vertex_params(
        model,
        [VertexGroup(((0, "left"),), 2.5), VertexGroup(((0, "right"),), -0.5)],
    )
    assert np.allclose(params.pi, np.eye(2))
    assert np.allclose(params.theta, np.diag([2.5, -0.5]))


def test_vertex_params_gluing_projector():
    model = kx.GraphModel((1.0, 2.0))
    params = kx.vertex_params(
        model,
        [
            VertexGroup(((0, "left"),), 0.0),
            VertexGroup(((0, "right"), (1, "left")), 0.0),
            VertexGroup(((1, "right"),), 0.0),
        ],
    )
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[3, 3] = 1.0
    expected[1:3, 1:3] = 0.5
    assert np.allclose(params.pi, expected)
    assert np.allclose(params.theta, 0.0)
    assert kx.validate_params(params.pi, params.theta).passed


def test_vertex_params_rejects_bad_partitions():
    model = kx.GraphModel((1.0, 2.0))
    with pytest.raises(ValueError):
        kx.vertex_params(model, [VertexGroup(((0, "left"), (0, "left")), 0.0)])
    with pytest.raises(ValueError):
        kx.vertex_params(model, [VertexGroup(((0, "left"),), 0.0)])


# ---------------------------------------------------------------------------
# closed-form Gram against the Simpson oracle

EIGHT_EDGES = (0.3, 0.6, 0.9, 1.0, 1.4, 2.0, 2.5, 3.0)
GRAM_SYSTEMS = {
    "interval_1": (kx.interval_weyl(kx.IntervalModel(1.0)), (1.0,)),
    "interval_pi": (kx.interval_weyl(kx.IntervalModel(PI)), (PI,)),
    "graph_8": (kx.graph_weyl(kx.GraphModel(EIGHT_EDGES)), EIGHT_EDGES),
}
GRAM_RTOL = 1e-9


def _gram_error(name, z, w):
    system, lengths = GRAM_SYSTEMS[name]
    oracle = kx.simpson_gram(lengths, z, w)
    return np.linalg.norm(system.gram(z, w) - oracle, 2) / np.linalg.norm(oracle, 2)


@pytest.mark.parametrize("name", sorted(GRAM_SYSTEMS))
@pytest.mark.parametrize(
    "z, w",
    [
        (0.7, 0.7),
        (-0.5, -0.5),
        (40.0, 40.0),
        (2 + 1j, 2 + 1j),
        (-3 + 0.5j, -3 + 0.5j),
        (1 + 1j, 1 + 1j + 1e-9),
        (0.3, 0.3 + 1e-9),
        (0.0, 0.0),
        (0.0, 2 - 1j),
        (5.0, 0.0),
        (1e-9, 1e-9),
        (1j, -1j),
    ],
)
def test_closed_form_gram_matches_simpson(name, z, w):
    assert _gram_error(name, z, w) <= GRAM_RTOL


def _polar(magnitude, angle):
    # exact zero imaginary part on the real axis (sin(pi) is not 0)
    if angle in (0.0, np.pi):
        return complex(np.cos(angle) * magnitude, 0.0)
    return complex(magnitude * np.cos(angle), magnitude * np.sin(angle))


# |z| log-uniform in [1e-8, 1e2], on either real half axis or at any angle
spectral_parameters = st.builds(
    _polar,
    st.floats(-8.0, 2.0).map(lambda e: 10.0**e),
    st.one_of(st.sampled_from((0.0, np.pi)), st.floats(-np.pi, np.pi)),
)


@pytest.mark.parametrize("name", sorted(GRAM_SYSTEMS))
@given(z=spectral_parameters, w=spectral_parameters)
def test_closed_form_gram_matches_simpson_log_uniform(name, z, w):
    excluded = GRAM_SYSTEMS[name][0].excluded
    assume(not excluded.contains(z) and not excluded.contains(w))
    assert _gram_error(name, z, w) <= GRAM_RTOL


# ---------------------------------------------------------------------------
# point interactions


def test_point_gamma_single_center():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    assert np.allclose(system.gamma(1.0), [[1.0 / FOUR_PI]])
    assert abs(system.gamma(1.0)[0, 0] - 0.0795775) < 1e-6


def test_point_gamma_two_centers_off_diagonal():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]]))
    g = system.gamma(1.0)
    assert np.allclose(g[0, 1], -np.exp(-1.0) / FOUR_PI)
    assert np.allclose(g[1, 0], g[0, 1])


def test_point_gram_coincident_argument():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    for z in (1.0, 4.0, 2 + 1j):
        got = system.gram(z, z)
        assert np.allclose(got, [[1.0 / (8 * np.pi * np.sqrt(complex(z)))]])


@pytest.mark.parametrize("w", [2.0, 0.5 + 1.5j, 40.0 - 3.0j])
def test_point_gram_is_its_own_closed_form(w):
    # the difference quotient of Gamma lost about 1e-4 of relative accuracy at z - w = 1e-12
    centres = np.array([[0, 0, 0], [0.6, 0, 0], [0, 1.1, 0.3]])
    system = kx.point_weyl(kx.PointModel(centres))
    d = np.linalg.norm(centres[:, None] - centres[None], axis=-1)
    sq = np.sqrt(complex(w))
    derivative = np.exp(-sq * d) / (8 * np.pi * sq)  # Gamma'(w)
    near = system.gram(w + 1e-12, w)
    assert np.all(np.abs(near - derivative) <= 1e-9 * np.abs(derivative))
    for z in (np.conj(w), 3.0 + 1.0j, w + 1e-8):
        assert np.allclose(system.gram(z, w), system.gram(w, z), rtol=1e-14, atol=0.0)
    assert np.all(np.isfinite(system.gram(1e-6, 1e8)))
    assert np.all(np.isfinite(system.gram(1e8, 1e-6)))


def test_point_green_regular_part_near_a_centre():
    # (exp(-x) - 1) / (4 pi r) cancelled to about 3e-9 at r = 1e-8
    lam, r = 2.0, 1e-8
    regular = kx.point_green_regular_part(kx.PointModel([[0, 0, 0]]), lam, [1.0])
    x = np.sqrt(lam) * r
    series = np.sqrt(lam) / FOUR_PI * (-1 + x / 2 - x**2 / 6)
    assert abs(regular([[r, 0, 0]])[0] - series) <= 1e-13 * abs(series)


def test_point_gamma_hermitian_on_positive_reals():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0], [0.6, 0, 0], [0, 1.1, 0]]))
    for lam in (0.3, 1.0, 7.5):
        g = system.gamma(lam)
        assert np.linalg.norm(g - g.conj().T) < 1e-14



def _point_draws(count):
    # 2-24 centres, one pair 1e-6 apart in every third model; |z| log-uniform
    # in [1e-8, 1e9], at any angle and on the positive real axis
    rng = np.random.default_rng(45)
    for k in range(count):
        centers = rng.uniform(-3.0, 3.0, (rng.integers(2, 25), 3))
        if k % 3 == 0:
            step = rng.normal(size=3)
            centers[1] = centers[0] + 1e-6 * step / np.linalg.norm(step)
        mag = 10.0 ** rng.uniform(-8.0, 9.0, 16)
        yield centers, np.concatenate([mag[:12] * np.exp(1j * rng.uniform(-PI, PI, 12)), mag[12:] + 0j])


def test_point_gamma_equals_the_frozen_kernel():
    # the kernel evaluates each pair once and mirrors it; the reference
    # evaluates every off-diagonal entry
    for centers, zs in _point_draws(150):
        system = kx.point_weyl(kx.PointModel(centers))
        want = reference_point_gamma(centers, zs)
        assert system.gamma(zs).tobytes() == want.tobytes()
        assert system.gamma(zs[-1]).tobytes() == want[-1].tobytes()

@st.composite
def _gram_draws(draw):
    """(centres, b, z, w): 1-24 centres with one pair 1e-6 apart in every
    third draw; b None (the point model) or 1-3 internal eigenvalues; z = w,
    w = conj(z), real z above the excluded half line or two free points,
    each |z - max b| log-uniform in [1e-8, 1e9]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-3.0, 3.0, (draw(st.integers(1, 24)), 3))
    if len(centers) > 1 and draw(st.integers(0, 2)) == 0:
        step = rng.normal(size=3)
        centers[1] = centers[0] + 1e-6 * step / np.linalg.norm(step)
    b = draw(st.none() | st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
    base = 0.0 if b is None else max(b)

    def point():
        return 10.0 ** draw(st.floats(-8.0, 9.0)) * np.exp(1j * draw(st.floats(-PI, PI)))

    kind = draw(st.sampled_from(["same", "conjugate", "real", "free"]))
    z = base + (abs(point()) if kind == "real" else point())
    w = {"same": z, "conjugate": np.conj(z), "real": base + abs(point())}.get(kind, base + point())
    return centers, b, complex(z), complex(w)


@given(_gram_draws())
def test_point_gram_equals_the_frozen_copy(draw):
    # the kernel evaluates the pairs above the diagonal and one diagonal entry
    # and mirrors them; the reference evaluates all n^2 entries
    centers, b, z, w = draw
    if b is None:
        model = kx.PointModel(centers)
        want = reference_point_gram(model, z, w)
        assert kx.models._point_gram(model, z, w).tobytes() == want.tobytes()
        return
    spin = kx.spin_weyl(kx.SpinPointModel(centers, tuple(b)))
    point = kx.PointModel(centers)
    want = reference_block_diag(np.array([reference_point_gram(point, z - s, w - s) for s in b]))
    assert spin.gram(z, w).tobytes() == want.tobytes()


def test_point_defect_gram_positive_definite():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0], [0.8, 0, 0]]))
    gi = system.gamma(1j)
    q = (gi - gi.conj().T) / 2j
    assert np.linalg.eigvalsh((q + q.conj().T) / 2).min() > 0


def test_point_model_validation():
    with pytest.raises(ValueError):
        kx.PointModel([[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        kx.PointModel([[0, 0]])
    with pytest.raises(ExcludedPointError):
        kx.point_weyl(kx.PointModel([[0, 0, 0]])).gamma(-1.0)


CENTRES = [[0.0, 0.0, 0.0], [1.0, 0.2, 0.0]]
TWO_EDGES = kx.GraphModel((1.0, 2.0))


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: kx.PointModel([[0, 0, 0], [0, np.nan, 0]]), "centers must be finite"),
        (lambda: kx.SpinPointModel(CENTRES, ()), "need at least one internal eigenvalue"),
        (lambda: kx.SpinPointModel(CENTRES, (0.0, np.inf)), "internal eigenvalues must be finite, got (0.0, inf)"),
        (lambda: kx.vertex_params(TWO_EDGES, [VertexGroup(((2, "left"),))]), "edge index 2 out of range"),
        (
            lambda: kx.vertex_params(TWO_EDGES, [VertexGroup(((0, "middle"),))]),
            "endpoint side must be 'left' or 'right', got 'middle'",
        ),
        (lambda: kx.vertex_params(TWO_EDGES, [VertexGroup(())]), "empty vertex group"),
        (
            lambda: kx.point_weyl(kx.PointModel(CENTRES)).g_apply(1j, np.ones(2), [[1.0, 0.2, 0.0]]),
            "evaluation points must stay away from the centers",
        ),
    ],
)
def test_malformed_model_inputs_are_refused_by_name(refused, message):
    with pytest.raises(ValueError) as excinfo:
        refused()
    assert str(excinfo.value) == message


def test_point_models_are_values():
    # equal data in different arrays make equal models with equal hashes
    centres = np.array(CENTRES)
    for make in (kx.PointModel, lambda c: kx.SpinPointModel(c, (0.0, 1.5))):
        model, twin = make(centres), make(centres.copy())
        assert model == twin and hash(model) == hash(twin) and {model: 1}[twin] == 1
        assert model != make(centres + 1.0)
    assert kx.SpinPointModel(centres, (0.0, 1.5)) != kx.SpinPointModel(centres, (0.0, 2.5))
    assert kx.SpinPointModel(centres, (0.0,)) != kx.PointModel(centres)
    system = kx.point_weyl(kx.PointModel(centres))
    assert system.point == kx.point_weyl(kx.PointModel(centres.copy())).point
    assert system == dataclasses.replace(system) and hash(system) == hash(dataclasses.replace(system))


def test_point_renormalized_trace_cases():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    vals = system.renorm_trace(np.array([2.5 + 1j]), np.zeros(1))
    assert np.allclose(vals, [2.5 + 1j])
    vals = system.renorm_trace(np.array([0.0]), np.array([1.0]))
    assert np.allclose(vals, [0.0])
    system2 = kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]]))
    vals = system2.renorm_trace(np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(vals, [0.0, 1.0 / FOUR_PI])


def test_point_maps_take_n_boundary_values():
    system = kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]]))
    pts = np.array([[0.3, 0.2, 0.1], [2.0, 0.0, 0.0]])
    for m in (1, 3):
        message = re.escape(f"need a boundary vector of length 2, got shape ({m},)")
        with pytest.raises(ValueError, match=message):
            system.g_apply(1j, np.ones(m), pts)
        with pytest.raises(ValueError, match=message):
            system.renorm_trace(np.zeros(2), np.ones(m))


def test_point_green_samples_match_kernel():
    model = kx.PointModel([[0, 0, 0]])
    system = kx.point_weyl(model)
    pts = np.array([[0.5, 0, 0], [0, 1.0, 0], [1, 1, 1]])
    vals = system.g_apply(1.0, np.array([1.0]), pts)
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(vals, np.exp(-r) / (FOUR_PI * r))


# ---------------------------------------------------------------------------
# spin model


def test_spin_single_channel_matches_point():
    centers = [[0, 0, 0], [1.0, 0, 0]]
    spin = kx.spin_weyl(kx.SpinPointModel(centers, (0.0,)))
    point = kx.point_weyl(kx.PointModel(centers))
    for z in (1.0, 2 + 1j):
        assert np.allclose(spin.gamma(z), point.gamma(z))


def test_spin_shifted_blocks():
    spin = kx.spin_weyl(kx.SpinPointModel([[0, 0, 0]], (0.0, 5.0)))
    point = kx.point_weyl(kx.PointModel([[0, 0, 0]]))
    g = spin.gamma(6.0)
    assert np.allclose(g[0, 0], point.gamma(6.0)[0, 0])
    assert np.allclose(g[1, 1], point.gamma(1.0)[0, 0])
    with pytest.raises(ExcludedPointError):
        spin.gamma(1.0)  # second channel shifts to -4


def test_spin_difference_identity_blockwise():
    spin = kx.spin_weyl(kx.SpinPointModel([[0, 0, 0], [0.7, 0, 0]], (0.0, 2.0)))
    assert kx.difference_identity_residual(spin, 3 + 1j, 5 - 2j) < 1e-12


def test_spin_renormalized_trace_shape():
    model = kx.SpinPointModel([[0, 0, 0], [1.0, 0, 0]], (0.0, 3.0))
    spin = kx.spin_weyl(model)
    part = np.zeros((2, 2), dtype=complex)
    zeta = np.array([1.0, 0, 0, 0], dtype=complex)
    out = spin.renorm_trace(part, zeta)
    assert out.shape == (4,)
    assert np.allclose(out[:2], [0.0, 1.0 / FOUR_PI])
    assert np.allclose(out[2:], 0.0)


@pytest.mark.parametrize("lam", [-1.0, 0.0])
def test_point_green_regular_part_rejects_the_half_line(lam):
    # G(lam) is no deficiency element on (-inf, 0]; at -1 this was the outgoing wave
    model = kx.PointModel([[0, 0, 0]])
    with pytest.raises(ExcludedPointError, match=re.escape(f"z={complex(lam)}")):
        kx.point_green_regular_part(model, lam, [1.0])


# ---------------------------------------------------------------------------
# direct sums: every graph and spin map is the block diagonal or the
# concatenation of its one-edge or one-channel maps, bit for bit


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1, 2, 2), (8, 2, 2), (5, 8, 2, 2), (3, 4, 4), (6, 3, 5, 5), (2, 1, 3, 3)])
def test_block_diag_equals_the_slice_copies(shape):
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = kx.models._block_diag(blocks)
    assert got.tobytes() == reference_block_diag(blocks).tobytes()
    assert got.shape == reference_block_diag(blocks).shape


def _block_diagonals(stacks):
    """scipy's block_diag of the i-th matrix of every stack, for each i."""
    return np.stack([block_diag(*blocks) for blocks in zip(*stacks)])


def test_graph_maps_are_the_direct_sum_of_their_edges():
    graph = kx.graph_weyl(kx.GraphModel(EIGHT_EDGES))
    edges = [kx.graph_weyl(kx.GraphModel((a,))) for a in EIGHT_EDGES]
    zs = np.array([0.0, 0.7, -0.3, 2 + 3j, 1j, -2.5 + 1e-3j, 40.0 - 2j])
    assert _same(graph.gamma(zs), _block_diagonals([edge.gamma(zs) for edge in edges]))
    for z in zs:
        for w in (0.5 - 1j, -0.2, 3.0):
            assert _same(graph.gram(z, w), block_diag(*[edge.gram(z, w) for edge in edges]))

    rng = np.random.default_rng(8)
    zeta = rng.normal(size=graph.n) + 1j * rng.normal(size=graph.n)
    pairs = zeta.reshape(-1, 2)
    grids = [np.linspace(0.0, a, 601) for a in EIGHT_EDGES]
    psi = [np.sin(3.0 * x) * (1 + 0.5j) + x for x in grids]
    for z in (0.0, 0.7, 2 + 3j, -2.5 + 1e-3j):
        kernels = graph.sampled_kernels(z, grids)
        one = [edge.sampled_kernels(z, [x]) for edge, x in zip(edges, grids)]
        got = kernels.resolvent(psi)
        for k, (kernel, part) in enumerate(zip(one, psi)):
            assert _same(got[k], kernel.resolvent([part])[0])
        assert _same(kernels.adjoint(psi), np.concatenate([e.adjoint([p]) for e, p in zip(one, psi)]))
        got = kernels.apply(zeta)
        for k, (kernel, pair) in enumerate(zip(one, pairs)):
            assert _same(got[k], kernel.apply(pair)[0])
        closed = graph.g_closed(z, zeta)
        for k, (edge, pair, x) in enumerate(zip(edges, pairs, grids)):
            part = edge.g_closed(z, pair)[0]
            for name in ("f", "df", "d2f"):
                assert _same(getattr(closed[k], name)(x), getattr(part, name)(x))
        for parts, grid in ((closed, None), (psi, grids)):
            rho, tau = graph.traces(parts, grid)
            singles = [
                edge.traces([p], None if grid is None else [x])
                for edge, p, x in zip(edges, parts, grids)
            ]
            assert _same(rho, np.concatenate([r for r, _ in singles]))
            assert _same(tau, np.concatenate([t for _, t in singles]))


def test_spin_maps_are_the_direct_sum_of_their_shifted_channels():
    b = (0.0, -0.7, 1.3)
    centers = np.random.default_rng(9).uniform(-1.0, 1.0, (3, 3))
    spin = kx.spin_weyl(kx.SpinPointModel(centers, b))
    point = kx.point_weyl(kx.PointModel(centers))
    zs = np.array([2.0, 1.31, 2 + 3j, 1j, -5.0 - 0.1j, 40.0 + 2j])
    assert _same(spin.gamma(zs), _block_diagonals([point.gamma(zs - shift) for shift in b]))

    rng = np.random.default_rng(10)
    zeta = rng.normal(size=spin.n) + 1j * rng.normal(size=spin.n)
    charges = zeta.reshape(len(b), -1)
    pts = rng.uniform(-3.0, 3.0, (40, 3))
    part = rng.normal(size=charges.shape) + 1j * rng.normal(size=charges.shape)
    for z in zs:
        for w in (3.0 - 1j, 2.5):
            want = block_diag(*[point.gram(z - shift, w - shift) for shift in b])
            assert _same(spin.gram(z, w), want)
        want = np.stack([point.g_apply(z - shift, c, pts) for shift, c in zip(b, charges)])
        assert _same(spin.g_apply(z, zeta, pts), want)
    want = np.concatenate([point.renorm_trace(v, c) for v, c in zip(part, charges)])
    assert _same(spin.renorm_trace(part, zeta), want)


# ---------------------------------------------------------------------------
# batched Gamma and the vectorised exclusion guard

_rng = np.random.default_rng(2024)
BATCH_SYSTEMS = {
    "interval_pi": kx.interval_weyl(kx.IntervalModel(PI)),
    "graph_8": kx.graph_weyl(kx.GraphModel(EIGHT_EDGES)),
    "points_20": kx.point_weyl(kx.PointModel(_rng.uniform(-2.0, 2.0, (20, 3)))),
    "spin": kx.spin_weyl(kx.SpinPointModel(_rng.uniform(-1.0, 1.0, (3, 3)), (0.0, 0.7, -1.3))),
}


def _batch_points(excluded):
    # real of either sign, non-real at any angle, |z| log-uniform in [1e-8, 1e4], and z = 0
    rng = np.random.default_rng(5)
    mag = 10.0 ** rng.uniform(-8.0, 4.0, 40)
    zs = np.concatenate([mag, -mag, mag * np.exp(1j * rng.uniform(-PI, PI, 40)), [0.0]])
    zs = zs.astype(complex)
    return zs[~excluded.contains(zs)]


@pytest.mark.parametrize("name", sorted(BATCH_SYSTEMS))
def test_batched_gamma_equals_scalar_calls_bit_for_bit(name):
    system = BATCH_SYSTEMS[name]
    zs = _batch_points(system.excluded)
    assert zs.size > 50
    stack = system.gamma(zs)
    one_by_one = np.stack([system.gamma(complex(z)) for z in zs])
    assert stack.shape == (zs.size, system.n, system.n)
    assert np.array_equal(stack, one_by_one)
    assert stack.tobytes() == one_by_one.tobytes()
    if name == "interval_pi":
        assert 0.0 in zs
        assert np.array_equal(system.gamma(zs[zs == 0]), [[[1, -1], [-1, 1]]] / np.float64(PI))
    assert system.gamma(zs[:1]).shape == (1, system.n, system.n)


def _scalar_dirichlet_poles(excluded, z):
    # the candidate poles (n, a, pole) of one point, in Python floats
    for a in excluded.lengths:
        base = np.sqrt(max(-z.real, 0.0)) * a / np.pi
        for n in {max(1, int(np.floor(base))), max(1, int(np.ceil(base))), 1}:
            yield n, a, -((n * np.pi / a) ** 2)


def _scalar_dirichlet_contains(excluded, z):
    # the guard evaluated one point at a time in Python floats
    z = complex(z)
    return any(
        abs(z - pole) <= excluded.guard_rel * (2 * n + 1) * (np.pi / a) ** 2
        for n, a, pole in _scalar_dirichlet_poles(excluded, z)
    )


def _scalar_dirichlet_distance(excluded, z):
    z = complex(z)
    return min(abs(z - pole) for _, _, pole in _scalar_dirichlet_poles(excluded, z))


def _around(centre, radius):
    # at the radius and 1e-9 (relative) inside and outside it, on and off the axis
    out = []
    for r in (radius, radius * (1 - 1e-9), radius * (1 + 1e-9)):
        out += [centre - r, centre + r, complex(centre, r), complex(centre, -r)]
    return out


def test_vectorised_dirichlet_guard_matches_scalar():
    excluded = kx.DirichletExclusions((0.3, 1.0, PI))
    points = []
    for a in excluded.lengths:
        for n in range(1, 6):
            pole = -((n * np.pi / a) ** 2)
            points += _around(pole, excluded.guard_rel * (2 * n + 1) * (np.pi / a) ** 2)
    zs = np.array(points + [0.0, 1.0, 1j], dtype=complex)
    hit = excluded.contains(zs)
    assert np.array_equal(hit, [excluded.contains(complex(z)) for z in zs])
    assert np.array_equal(hit, [_scalar_dirichlet_contains(excluded, z) for z in zs])
    assert hit.any() and not hit.all()
    distances = [excluded.distance(z) for z in zs]
    assert distances == [_scalar_dirichlet_distance(excluded, z) for z in zs]


GUARD_LENGTHS = (0.3, 1.0, PI, 7.5)
# multiples of a guard radius: on the sphere, 1e-6 inside and outside it, and
# 1e-8 inside and outside, about the float spacing at the pole
GUARD_SCALES = (1.0, 1 - 1e-6, 1 + 1e-6, 1 - 1e-8, 1 + 1e-8)


@st.composite
def _guard_points(draw):
    """z real or complex with |z| in [1e-8, 1e9], or on, just inside or just
    outside the guard ball of the pole n = 1 or 2 of one edge."""
    if draw(st.booleans()):
        mag = 10.0 ** draw(st.floats(-8.0, 9.0))
        turn = draw(st.sampled_from([1.0, -1.0]) | st.floats(-PI, PI).map(lambda t: np.exp(1j * t)))
        return complex(mag * turn)
    a = draw(st.sampled_from(GUARD_LENGTHS))
    n = draw(st.sampled_from([1, 2]))
    pole = -((n * np.pi / a) ** 2)
    radius = kx.DirichletExclusions.guard_rel * (2 * n + 1) * (np.pi / a) ** 2
    r = radius * draw(st.sampled_from(GUARD_SCALES))
    return pole + r * draw(st.sampled_from([1.0, -1.0, 1j, -1j, np.exp(0.7j)]))


@settings(derandomize=True, max_examples=150)
@given(zs=st.lists(_guard_points(), min_size=1, max_size=8), k=st.integers(1, len(GUARD_LENGTHS)))
def test_two_candidate_guard_equals_the_three_candidate_reference(zs, k):
    # dropping the candidate n = 1 changes no answer of the guard, to the bit
    excluded = kx.DirichletExclusions(GUARD_LENGTHS[:k])
    batch = np.array(zs, dtype=complex)
    assert np.array_equal(excluded.contains(batch), reference_dirichlet_contains(excluded, batch))
    for z in zs:
        assert excluded.contains(z) == reference_dirichlet_contains(excluded, z)
        assert excluded.distance(z) == reference_dirichlet_distance(excluded, z)


def _rejection_bound(excluded, x):
    """The bound on every guard radius of the points with real part x."""
    a = np.array(excluded.lengths)
    unit = np.max((np.pi / a) ** 2)
    return excluded.guard_rel * (2.0 * np.sqrt(max(-x, 0.0)) * a.max() / np.pi + 3.0) * unit


@st.composite
def _rejection_points(draw, excluded):
    """On, 1e-9 inside or 1e-9 outside the guard ball of any pole of any edge,
    along or off the real axis; or at 0.5, 1 or 2 times the off-axis
    rejection bound above or below a pole or a real point of any magnitude."""
    a = draw(st.sampled_from(excluded.lengths))
    n = draw(st.integers(1, 10**4))
    pole = -((n * np.pi / a) ** 2)
    if draw(st.booleans()):
        radius = excluded.guard_rel * (2 * n + 1) * (np.pi / a) ** 2
        r = radius * draw(st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-9]))
        return complex(pole + r * draw(st.sampled_from([1.0, -1.0, 1j, -1j, np.exp(0.7j)])))
    magnitude = st.floats(-9.0, 9.0).map(lambda e: 10.0**e)
    x = draw(st.just(pole) | magnitude | magnitude.map(lambda m: -m))
    scale = draw(st.sampled_from([0.5, 1.0, 2.0])) * draw(st.sampled_from([1.0, -1.0]))
    return complex(x, scale * 2.0 * _rejection_bound(excluded, x))


@given(data=st.data(), k=st.integers(1, len(GUARD_LENGTHS)))
def test_off_axis_rejection_equals_the_three_candidate_reference(data, k):
    excluded = kx.DirichletExclusions(GUARD_LENGTHS[:k])
    zs = data.draw(st.lists(_rejection_points(excluded), min_size=1, max_size=8))
    batch = np.array(zs, dtype=complex)
    assert np.array_equal(excluded.contains(batch), reference_dirichlet_contains(excluded, batch))
    for z in zs:
        got = excluded.contains(z)
        assert type(got) is bool and got == reference_dirichlet_contains(excluded, z)


def test_off_axis_rejection_skips_the_nearest_pole_test(monkeypatch):
    excluded = kx.DirichletExclusions(GUARD_LENGTHS)
    pole = -((3 * np.pi / PI) ** 2)
    calls = []
    nearest = kx.DirichletExclusions._nearest

    def counted(self, z):
        calls.append(np.shape(z))
        return nearest(self, z)

    monkeypatch.setattr(kx.DirichletExclusions, "_nearest", counted)
    far = complex(pole, 4.0 * _rejection_bound(excluded, pole))
    assert excluded.contains(far) is False and calls == []
    assert excluded.contains(np.array([far, -far.conjugate()])).tolist() == [False, False]
    assert calls == []
    # the real axis and points within the bound still take the nearest-pole test
    assert excluded.contains(pole) is True and calls == [()]
    mixed = np.array([far, pole + 1e-12j, 2.0])
    assert excluded.contains(mixed).tolist() == [False, True, False]
    assert calls == [(), (2,)]


def test_guard_points_reach_both_sides_of_the_balls():
    # the strategy above lands inside and outside every guard ball it aims at
    excluded = kx.DirichletExclusions(GUARD_LENGTHS)
    inside, outside = [], []
    for a in GUARD_LENGTHS:
        for n in (1, 2):
            pole = -((n * np.pi / a) ** 2)
            radius = excluded.guard_rel * (2 * n + 1) * (np.pi / a) ** 2
            for turn in (1.0, -1.0, 1j, -1j, np.exp(0.7j)):
                inside.append(pole + radius * GUARD_SCALES[1] * turn)
                outside.append(pole + radius * GUARD_SCALES[2] * turn)
    assert excluded.contains(np.array(inside)).all()
    assert not excluded.contains(np.array(outside)).any()


def test_vectorised_half_line_guard_matches_scalar():
    excluded = kx.HalfLineExclusions(0.7)
    zs = np.array(_around(0.7, 1e-9) + _around(0.7, 0.0) + [-5.0, 5.0], dtype=complex)
    hit = excluded.contains(zs)
    assert np.array_equal(hit, [excluded.contains(complex(z)) for z in zs])
    assert np.array_equal(hit, [z.imag == 0.0 and z.real <= 0.7 for z in zs])
    assert hit.any() and not hit.all()


@pytest.mark.parametrize(
    "name, bad",
    [("interval_pi", -1.0 + 1e-12), ("graph_8", -((PI / 3.0) ** 2)), ("points_20", -0.5), ("spin", 0.5)],
)
def test_batch_with_one_excluded_point_names_it(name, bad):
    system = BATCH_SYSTEMS[name]
    zs = np.array([2.0 + 1j, 3.0, bad, 1.5 - 2j], dtype=complex)
    with pytest.raises(ExcludedPointError, match=re.escape(f"z={complex(bad)} ")):
        system.gamma(zs)


@pytest.mark.parametrize("name", ["points_20", "spin"])
def test_point_systems_check_z_once_per_call(monkeypatch, name):
    system = BATCH_SYSTEMS[name]
    calls = []
    contains = kx.HalfLineExclusions.contains
    monkeypatch.setattr(
        kx.HalfLineExclusions, "contains", lambda self, z: calls.append(z) or contains(self, z)
    )
    zs = np.array([2.0 + 1j, 3.0, 1.5 - 2j])
    system.gamma(zs)
    system.gamma(2.5)
    assert len(calls) == 2
    system.gram(2.0 + 1j, 3.0)
    system.gram(3.0, 3.0)
    assert len(calls) == 4


def test_edge_gram_overflow_is_a_model_failure():
    # sin(sqrt(-z) a) overflows once |Im sqrt(-z)| a exceeds about 710
    system = kx.interval_weyl(kx.IntervalModel(1.0))
    with pytest.raises(kx.ModelConsistencyError, match=re.escape("z=(1000000+0j), w=(1000000+0j)")):
        system.gram(1e6, 1e6)
    params = ExtensionParams.full(np.eye(2))
    combo = kx.GreenCombination(((1j, np.array([1.0, 0.5])),))
    with pytest.raises(kx.ModelConsistencyError, match=re.escape("w=(1000000+1j)")):
        kx.apply_resolvent_green(system, params, 1e6 + 1j, combo)
