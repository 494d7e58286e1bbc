import numpy as np
import pytest

import kreinext as kx
from kreinext import ExtensionParams, FDSpec, VertexGroup

from helpers import random_params

PI = np.pi


def robin_truth(theta, a, lo, hi):
    """Transcendental Robin eigenvalues via shooting, independent of everything else."""

    def residual(lam):
        mu = np.sqrt(complex(lam))
        if abs(mu) < 1e-12:
            val, der = 1.0 + theta * a, theta
        else:
            val = np.cosh(mu * a) + theta / mu * np.sinh(mu * a)
            der = mu * np.sinh(mu * a) + theta * np.cosh(mu * a)
        return (der + theta * val).real

    lams = np.linspace(lo, hi, 20001)
    roots = []
    vals = [residual(t) for t in lams]
    for i in range(len(lams) - 1):
        if vals[i] * vals[i + 1] < 0:
            roots.append(kx.bisect_root(residual, lams[i], lams[i + 1], tol=1e-14))
    return np.array(sorted(roots, reverse=True))


def test_fdspec_validates():
    with pytest.raises(ValueError):
        FDSpec(50)


def test_dirichlet_spectrum():
    model = kx.GraphModel((PI,))
    got = kx.fd_graph_spectrum(model, ExtensionParams.trivial(2), FDSpec(2000), 3)
    assert np.allclose(got, [-9.0, -4.0, -1.0], atol=2e-4)


def test_neumann_spectrum():
    model = kx.GraphModel((PI,))
    params = ExtensionParams.full(np.zeros((2, 2)))
    got = kx.fd_graph_spectrum(model, params, FDSpec(2000), 3)
    assert np.allclose(got, [-4.0, -1.0, 0.0], atol=2e-4)


def test_fd_spectrum_is_bit_reproducible():
    # ARPACK starts from a fixed vector, so one label gives the same bits twice
    model = kx.GraphModel((PI,))
    params = ExtensionParams.full(np.diag([0.7, -0.3]).astype(complex))
    first, again = (kx.fd_graph_spectrum(model, params, FDSpec(400)) for _ in range(2))
    assert first.tobytes() == again.tobytes()


@pytest.mark.parametrize("theta", [1.0, -0.3, 2.7])
def test_robin_matches_transcendental(theta):
    model = kx.GraphModel((PI,))
    params = ExtensionParams.full(np.diag([theta, theta]).astype(complex))
    truth = robin_truth(theta, PI, -12.0, 5.0)[:3]
    got = np.sort(kx.fd_graph_spectrum(model, params, FDSpec(4000), 3))
    assert np.allclose(got, np.sort(truth), rtol=1e-3)


def test_richardson_reduction_factor():
    theta = 1.0
    model = kx.GraphModel((PI,))
    params = ExtensionParams.full(np.diag([theta, theta]).astype(complex))
    truth = np.sort(robin_truth(theta, PI, -12.0, 5.0)[:3])
    err = {}
    for nodes in (500, 1000):
        got = np.sort(kx.fd_graph_spectrum(model, params, FDSpec(nodes), 3))
        err[nodes] = np.abs(got - truth) / np.abs(truth)
    assert np.all(err[500] / err[1000] >= 3.5)


def test_graph_single_edge_matches_interval():
    # the oracle of the one-edge graph against the interval's secular search
    params = ExtensionParams.full(np.diag([0.5, -0.2]).astype(complex))
    found = kx.eigenvalue_search(kx.interval_weyl(kx.IntervalModel(1.4)), params, (-60.0, 5.0))
    top = np.sort(found.lambdas())[-4:]
    got = kx.fd_graph_spectrum(kx.GraphModel((1.4,)), params, FDSpec(1500), 4)
    assert np.allclose(got, top, rtol=1e-3, atol=1e-6)


def test_graph_gluing_equals_long_interval():
    lengths = (1.0, np.sqrt(2.0))
    graph = kx.GraphModel(lengths)
    params = kx.vertex_params(
        graph,
        [
            VertexGroup(((0, "left"),), 0.0),
            VertexGroup(((0, "right"), (1, "left")), 0.0),
            VertexGroup(((1, "right"),), 0.0),
        ],
    )
    total = sum(lengths)
    got = kx.fd_graph_spectrum(graph, params, FDSpec(3000), 4)
    expected = np.sort([-((n * PI / total) ** 2) for n in range(4)])
    assert np.allclose(got, expected, atol=2e-4)


def test_graph_disconnected_union():
    graph = kx.GraphModel((1.0, 2.0))
    params = ExtensionParams.full(np.zeros((4, 4)))
    got = kx.fd_graph_spectrum(graph, params, FDSpec(2000), 5)
    per_edge = sorted(
        [0.0, -(PI**2), -((2 * PI) ** 2)] + [0.0, -((PI / 2) ** 2), -(PI**2)],
        reverse=True,
    )[:5]
    assert np.allclose(got, np.sort(per_edge), atol=2e-3)


def test_complex_hermitian_coupling_cross_validates_secular():
    # an endpoint-coupling operator with complex off-diagonal entries: the
    # oracle's complex path against the secular search
    model = kx.IntervalModel(PI)
    theta = np.array([[0.6, 0.4 - 0.3j], [0.4 + 0.3j, -0.2]])
    params = ExtensionParams.full(theta)
    system = kx.interval_weyl(model)
    found = kx.eigenvalue_search(system, params, (-9.5, 3.0))
    lams = found.lambdas()
    assert len(lams) >= 3
    oracle = kx.fd_graph_spectrum(kx.GraphModel((PI,)), params, FDSpec(4000), len(lams))
    sel = oracle[(oracle > -9.5) & (oracle < 3.0)]
    assert len(sel) == len(lams)
    assert np.max(np.abs(np.sort(lams) - np.sort(sel)) / np.abs(np.sort(lams))) < 1e-3


def test_single_point_eigenvalue_cases():
    assert kx.single_point_eigenvalue(0.0) is None
    assert kx.single_point_eigenvalue(1.3) is None
    alpha = -1.0 / (4 * PI)
    assert abs(kx.single_point_eigenvalue(alpha) - 1.0) < 1e-14
    assert abs(kx.single_point_eigenvalue(-1.0 / (2 * PI)) - 4.0) < 1e-13


def test_bisect_root_basics():
    f = lambda x: x**2 - 2.0
    assert abs(kx.bisect_root(f, 0.0, 2.0) - np.sqrt(2)) < 1e-11
    with pytest.raises(ValueError):
        kx.bisect_root(f, 2.0, 3.0)


def test_bisect_root_at_an_end_and_without_a_tolerance():
    assert kx.bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert kx.bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    # x^2 - 2 has no zero among the floats, so tol = 0 runs all 200 halvings
    calls = []
    root = kx.bisect_root(lambda x: calls.append(x) or x * x - 2.0, 1.0, 2.0, tol=0.0)
    assert len(calls) == 2 + 200
    assert abs(root - np.sqrt(2.0)) <= np.spacing(np.sqrt(2.0))


def test_fd_spectrum_refuses_more_eigenvalues_than_unknowns():
    # one edge of 100 nodes: 98 interior values and 2 range coordinates
    params = ExtensionParams.full(np.zeros((2, 2)))
    assert kx.fd_graph_spectrum(kx.GraphModel((1.0,)), params, FDSpec(100), 98).shape == (98,)
    with pytest.raises(ValueError, match="^requested more eigenvalues than the discretization carries$"):
        kx.fd_graph_spectrum(kx.GraphModel((1.0,)), params, FDSpec(100), 99)


def test_assembled_matrix_is_hermitian():
    from kreinext.oracle import _assemble_constrained

    # real coupling: real symmetric; complex coupling: complex Hermitian
    theta = np.array([[0.2, 0.5 - 0.25j], [0.5 + 0.25j, -0.1]])
    cases = [
        ((PI,), ExtensionParams.full(np.diag([0.4, -0.7]).astype(complex)), "f"),
        ((PI,), ExtensionParams.full(theta), "c"),
        ((1.0, 1.3, 0.8), random_params(np.random.default_rng(7), 6, rank=3), "c"),
    ]
    for lengths, params, kind in cases:
        pencil = _assemble_constrained(lengths, 300, params)
        for mat in pencil:
            assert mat.dtype.kind == kind
            assert abs(mat - mat.conj().T).max() == 0.0
        form, mass = pencil
        assert np.all(mass.diagonal().real > 0.0)
        vals = np.linalg.eigvalsh(form.toarray())
        assert np.all(np.abs(vals.imag) <= 1e-10)


def test_graph_resolvent_matches_pencil_solve():
    # (A - z)^{-1} psi against a direct solve of (form + z mass) u = mass psi,
    # for a rank-deficient complex label; psi vanishes at every end, so it
    # lives on the interior unknowns only
    import scipy.sparse.linalg as spla

    from kreinext.oracle import _assemble_constrained

    lengths = (1.0, 1.3, 0.8)
    params = random_params(np.random.default_rng(7), 6, rank=3)
    k = params.range_basis.shape[1]
    z = 1.5 + 1j
    system = kx.graph_weyl(kx.GraphModel(lengths))
    err = {}
    for n in (1001, 2001):
        grids = [np.linspace(0.0, a, n) for a in lengths]
        psi = [np.sin(PI * x / a) ** 2 * (1 + 0.3j * e) for e, (a, x) in enumerate(zip(lengths, grids))]
        want = np.concatenate([part[1:-1] for part in kx.apply_resolvent(system, params, z, psi, grids)])
        form, mass = _assemble_constrained(lengths, n, params)
        rhs = mass @ np.concatenate([np.zeros(k)] + [part[1:-1] for part in psi])
        got = spla.spsolve((form + z * mass).tocsc(), rhs)[k:]
        err[n] = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err[2001] < 1e-6
    assert err[1001] / err[2001] >= 3.5


def test_pencil_is_the_discrete_quadratic_form():
    # y^H form y and y^H mass y against sums over each edge's node values,
    # whose ends are range_basis @ c, for random unknowns y = (c, interiors)
    from kreinext.oracle import _assemble_constrained

    lengths, n = (1.0, 1.3, 0.8), 9
    rng = np.random.default_rng(3)
    params = random_params(rng, 6, rank=3)
    form, mass = _assemble_constrained(lengths, n, params)
    for _ in range(3):
        y = rng.standard_normal(form.shape[0]) + 1j * rng.standard_normal(form.shape[0])
        ends = params.range_basis @ y[:3]
        energy, weight = np.vdot(ends, params.theta @ ends), 0.0
        for e, a in enumerate(lengths):
            h = a / (n - 1)
            v = np.concatenate([[ends[2 * e]], y[3 + e * (n - 2) : 3 + (e + 1) * (n - 2)], [ends[2 * e + 1]]])
            energy += np.sum(np.abs(np.diff(v)) ** 2) / h
            weight += h * (np.sum(np.abs(v) ** 2) - (abs(v[0]) ** 2 + abs(v[-1]) ** 2) / 2)
        assert np.vdot(y, form @ y) == pytest.approx(energy, rel=1e-12)
        assert np.vdot(y, mass @ y) == pytest.approx(weight, rel=1e-12)
