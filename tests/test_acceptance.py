"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line with its runtime (visible with ``pytest -s``)
and enforces both the numeric tolerance and the runtime budget of its
criterion.
"""

import json
import time

import numpy as np
import pytest

import kreinext as kx
from kreinext import ExtensionParams, FDSpec, VertexGroup
from kreinext import serialize as ser
from kreinext.cli import main as cli_main

from helpers import one_sided_derivatives, random_params

PI = np.pi
FOUR_PI = 4 * np.pi


class criterion:
    def __init__(self, number, budget, label):
        self.number, self.budget, self.label = number, budget, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} {elapsed:7.2f}s  {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_weyl_matrix_at_zero_exact():
    with criterion(1, 1.0, "interval Weyl matrix at z=0 is exact for a in {1, 2, pi}"):
        for a in (1.0, 2.0, PI):
            system = kx.interval_weyl(kx.IntervalModel(a))
            expected = np.array([[1.0, -1.0], [-1.0, 1.0]]) / a
            assert np.linalg.norm(system.gamma(0.0) - expected) <= 1e-15


def test_criterion_02_interval_determinant_identity():
    with criterion(2, 1.0, "det Gamma(z) = z on 100 random admissible z"):
        rng = np.random.default_rng(2024)
        system = kx.interval_weyl(kx.IntervalModel(PI))
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-50, 30), rng.uniform(-20, 20))
            if system.excluded.contains(z):
                continue
            assert abs(np.linalg.det(system.gamma(z)) - z) <= 1e-10 * (1 + abs(z))
            checked += 1


def test_criterion_03_weyl_family_laws():
    with criterion(3, 10.0, "conjugation and difference identities, all models"):
        quad_systems = [
            kx.interval_weyl(kx.IntervalModel(PI), gram_nodes=2001),
            kx.graph_weyl(kx.GraphModel((1.0, 2.0)), gram_nodes=2001),
        ]
        closed_systems = [
            kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]])),
            kx.spin_weyl(kx.SpinPointModel([[0, 0, 0], [1.0, 0, 0]], (0.0, 5.0))),
        ]
        offsets = (
            0.5 + 0.8j, 1.5 - 0.6j, 2.0 + 2.0j, -3.0 + 0.5j, 0.1 + 0.4j,
            4.0 - 3.0j, 0.7 + 0.05j, 2.5 - 1.5j, -1.0 + 1.0j, 3.3 + 0.9j,
        )
        for system in quad_systems + closed_systems:
            base = 0.0 if system.kind in ("interval", "graph") else 5.0
            grid = [base + w for w in offsets] + [base + np.conj(w) for w in offsets]
            assert len(grid) == 20
            for z in grid:
                assert kx.conjugation_residual(system, z) <= 1e-12
        for system in quad_systems:
            for z, v in ((1j, -1j), (1 + 1j, 2 - 0.5j), (0.5 + 0.2j, 3.0 + 1j)):
                assert kx.difference_identity_residual(system, z, v) <= 1e-8
        for system in closed_systems:
            for z, v in ((6 + 1j, 5.5 - 1j), (7 + 2j, 9 - 0.5j)):
                assert kx.difference_identity_residual(system, z, v) <= 1e-12


def test_criterion_04_neumann_zero_mode():
    with criterion(4, 2.0, "Neumann zero mode: eigenvalue, multiplicity, flat mode"):
        system = kx.interval_weyl(kx.IntervalModel(PI))
        params = ExtensionParams.full(np.zeros((2, 2)))
        result = kx.eigenvalue_search(system, params, (-0.5, 0.5))
        assert len(result.eigenvalues) == 1
        hit = result.eigenvalues[0]
        assert abs(hit.lam) <= 1e-8
        assert hit.multiplicity == 1
        grid = np.linspace(0, PI, 1001)
        mode = kx.eigenfunction(system, params, 0.0, np.array([1.0, 1.0]), grid)
        assert np.max(np.abs(mode - 1.0)) <= 1e-6


def test_criterion_05_robin_cross_validation():
    with criterion(5, 30.0, "Robin spectra: secular vs finite differences, order >= 1.9"):
        model = kx.IntervalModel(PI)
        system = kx.interval_weyl(model)
        for theta in (1.0, -0.3, 2.7):
            params = ExtensionParams.full(np.diag([theta, theta]).astype(complex))
            found = kx.eigenvalue_search(system, params, (-12.5, 9.0))
            secular = np.sort(found.lambdas())[::-1][:3]  # three lowest modes
            fd = np.sort(kx.fd_interval_spectrum(model, params, FDSpec(4000), 3))[::-1]
            assert np.all(np.abs(fd - secular) <= 1e-3 * np.abs(secular))
            errs = {}
            for nodes in (1000, 2000):
                coarse = np.sort(
                    kx.fd_interval_spectrum(model, params, FDSpec(nodes), 3)
                )[::-1]
                errs[nodes] = np.abs(coarse - secular)
            order = np.log2(errs[1000] / errs[2000])
            assert np.all(order >= 1.9)


def test_criterion_06_point_bound_state_sweep():
    with criterion(6, 2.0, "single point interaction bound state, 20 strength sweep"):
        system = kx.point_weyl(kx.PointModel([[0.0, 0.0, 0.0]]))
        params = ExtensionParams.full([[-1.0 / FOUR_PI]])
        result = kx.eigenvalue_search(system, params, (0.5, 2.0))
        assert len(result.eigenvalues) == 1
        assert abs(result.eigenvalues[0].lam - 1.0) <= 1e-10
        rng = np.random.default_rng(6)
        for alpha in -np.exp(rng.uniform(np.log(0.01), np.log(1.0), size=20)):
            expected = kx.single_point_eigenvalue(alpha)
            assert expected == 16 * PI**2 * alpha**2
            window = (0.5 * expected, 1.5 * expected)
            found = kx.eigenvalue_search(system, ExtensionParams.full([[alpha]]), window)
            assert len(found.eigenvalues) == 1
            assert abs(found.eigenvalues[0].lam - expected) <= 1e-10 * expected


def test_criterion_07_two_center_secular_roots():
    with criterion(7, 5.0, "two-center point model vs scalar bisection roots"):
        alpha = -1.0 / FOUR_PI
        system = kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]]))
        params = ExtensionParams.full(np.diag([alpha, alpha]).astype(complex))
        window = (0.05, 4.0)
        found = np.sort(kx.eigenvalue_search(system, params, window).lambdas())

        roots = []
        for sign in (-1.0, 1.0):
            f = lambda s: alpha + (s + sign * np.exp(-s)) / FOUR_PI
            s_grid = np.linspace(np.sqrt(window[0]), np.sqrt(window[1]), 4001)
            vals = f(s_grid)
            for i in range(len(s_grid) - 1):
                if vals[i] == 0.0:
                    roots.append(s_grid[i] ** 2)
                elif vals[i] * vals[i + 1] < 0:
                    s = kx.bisect_root(f, s_grid[i], s_grid[i + 1], tol=1e-14)
                    roots.append(s**2)
        roots = np.sort(roots)
        assert len(found) == len(roots) == 1
        assert np.max(np.abs(found - roots)) <= 1e-8


def test_criterion_08_graph_gluing():
    with criterion(8, 30.0, "glued edges (1, sqrt 2) reproduce the long Neumann interval"):
        lengths = (1.0, np.sqrt(2.0))
        total = sum(lengths)
        graph = kx.GraphModel(lengths)
        system = kx.graph_weyl(graph)
        params = kx.vertex_params(
            graph,
            [
                VertexGroup(((0, "left"),), 0.0),
                VertexGroup(((0, "right"), (1, "left")), 0.0),
                VertexGroup(((1, "right"),), 0.0),
            ],
        )
        window = (-16.0, 0.5)
        found = np.sort(kx.eigenvalue_search(system, params, window).lambdas())
        expected = np.sort([-((n * PI / total) ** 2) for n in range(4)])
        assert len(found) == 4
        assert np.max(np.abs(found - expected) / (1 + np.abs(expected))) <= 1e-6
        fd = kx.fd_graph_spectrum(graph, params, FDSpec(3000), 4)
        assert np.max(np.abs(found - fd) / (1 + np.abs(found))) <= 1e-3


def test_criterion_09_krein_resolvent_pde_check():
    with criterion(9, 10.0, "Krein resolvent: PDE residual, boundary law, resolvent identity"):
        theta_val = 0.7
        system = kx.interval_weyl(kx.IntervalModel(PI))
        theta = np.diag([theta_val, theta_val]).astype(complex)
        params = ExtensionParams.full(theta)
        z = 1 + 1j
        n = 2000
        x = np.linspace(0, PI, n)
        h = x[1] - x[0]
        psi = x * (PI - x) + 0j
        phi = kx.apply_resolvent(system, params, z, psi, x)
        residual = -(phi[:-2] - 2 * phi[1:-1] + phi[2:]) / h**2 + z * phi[1:-1] - psi[1:-1]
        assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-3

        rho = np.array([phi[0], phi[-1]])
        tau = np.array(one_sided_derivatives(phi, h))
        assert np.linalg.norm(tau - theta @ rho) < 1e-6

        rz = phi
        rw = kx.apply_resolvent(system, params, 2 - 1j, psi, x)
        rwz = kx.apply_resolvent(system, params, 2 - 1j, rz, x)
        probe = (z - (2 - 1j)) * rwz - (rw - rz)
        assert np.max(np.abs(probe)) <= 1e-3 * np.max(np.abs(psi))


def test_criterion_10_parametrization_round_trips():
    with criterion(10, 20.0, "pair/relation round trips and condition agreement"):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            params = random_params(rng, n, scale=rng.uniform(0.3, 3.0))
            pair = kx.pair_from_params(params)
            back = kx.params_from_pair(pair)
            assert np.linalg.norm(back.pi - params.pi) <= 1e-10
            assert np.linalg.norm(back.theta - params.theta) <= 1e-10
            cond = kx.check_pair_conditions(pair)
            assert cond.comm_residual <= 1e-12
            assert cond.normalization_sigma >= 1e-8 / (
                1 + np.linalg.norm(params.theta, 2) ** 2
            )
            rel_p = kx.relation_from_params(params)
            rel_b = kx.relation_from_pair(pair)
            assert kx.subspace_equal(rel_p, rel_b, tol=1e-8)
        agreement = 0
        for trial in range(200):
            n = int(rng.integers(1, 7))
            if trial % 2 == 0:
                pair = kx.pair_from_params(random_params(rng, n))
            else:
                cut = np.eye(n)
                cut[-1, -1] = 0.0
                q, _ = np.linalg.qr(
                    rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                )
                b = q @ cut @ q.conj().T
                pair = kx.BoundaryPair(b, b)
            cond = kx.check_pair_conditions(pair)
            agreement += int(
                cond.nondeg_ok == cond.joint_kernel_ok == cond.normalization_ok
            )
        assert agreement == 200


def test_criterion_11_von_neumann_unitarity():
    with criterion(11, 10.0, "Gram unitarity of the von Neumann block, both models"):
        rng = np.random.default_rng(11)
        systems = [
            kx.interval_weyl(kx.IntervalModel(PI)),
            kx.point_weyl(kx.PointModel([[0, 0, 0], [1.0, 0, 0]])),
        ]
        for system in systems:
            for _ in range(25):
                params = random_params(rng, system.n, scale=rng.uniform(0.2, 4.0))
                block = kx.von_neumann_block(system, params)
                assert block.unitarity_residual() <= 1e-8
                v = kx.range_basis(params.pi)
                if v.shape[1]:
                    theta_c = v.conj().T @ params.theta @ v
                    hat_c = v.conj().T @ block.gamma_hat @ v
                    primary = v.conj().T @ block.m @ v
                    alt = np.linalg.solve(theta_c - hat_c, theta_c + hat_c)
                    assert np.linalg.norm(primary - alt) <= 1e-12


def test_criterion_12_green_identity_quadruples():
    with criterion(12, 10.0, "Lagrange identity on 10 manufactured quadruples"):
        system = kx.interval_weyl(kx.IntervalModel(PI))
        rng = np.random.default_rng(12)
        for k in range(10):
            k_phi = int(rng.integers(1, 4))
            k_psi = int(rng.integers(1, 4))
            phi_star = kx.sine_mode(k_phi) * complex(rng.normal(), rng.normal())
            psi_star = kx.sine_mode(k_psi) * complex(rng.normal(), rng.normal())
            zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            residual = kx.green_identity_residual(
                system, (phi_star, zeta), (psi_star, xi), n_nodes=4001
            )
            assert residual < 1e-4


def test_criterion_13_cli_determinism(tmp_path):
    with criterion(13, 10.0, "CLI artifacts byte-identical across repeated runs"):
        neumann = ser.params_to_obj(ExtensionParams.full(np.zeros((2, 2))))
        neumann["kind"] = "params"
        point = ser.params_to_obj(ExtensionParams.full([[-1.0 / FOUR_PI]]))
        point["kind"] = "params"
        jobs = [
            {
                "model": {"type": "interval", "a": PI},
                "extension": neumann,
                "task": {"name": "spectrum", "window": [-0.5, 0.5]},
            },
            {
                "model": {"type": "points", "centers": [[0.0, 0.0, 0.0]]},
                "extension": point,
                "task": {"name": "spectrum", "window": [0.5, 2.0]},
            },
            {
                "model": {"type": "interval", "a": PI},
                "extension": neumann,
                "task": {"name": "resolvent", "z": [1.0, 1.0], "grid": 900},
            },
            {
                "model": {"type": "interval", "a": PI},
                "extension": neumann,
                "task": {"name": "convert"},
            },
            {
                "model": {"type": "interval", "a": PI},
                "extension": neumann,
                "task": {"name": "verify"},
            },
        ]
        for i, doc in enumerate(jobs):
            cfg = tmp_path / f"job{i}.json"
            cfg.write_text(json.dumps(doc))
            snapshots = []
            for run in ("a", "b"):
                out = tmp_path / f"out{i}{run}"
                assert cli_main([str(cfg), "--out", str(out)]) == 0
                snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert snapshots[0] == snapshots[1]
