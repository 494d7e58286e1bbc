import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import kreinext as kx
from kreinext import cli, parametrize, verify
from kreinext import serialize as ser
from kreinext.cli import main

from helpers import random_hermitian

PI = np.pi


def write_job(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def neumann_extension(n=2):
    params = kx.ExtensionParams.full(np.zeros((n, n), dtype=complex))
    obj = ser.params_to_obj(params)
    obj["kind"] = "params"
    return obj


def complex_array(lists):
    """An artifact's nested [re, im] pairs as a complex array."""
    pairs = np.array(lists, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def interval_job(task):
    return {"model": {"type": "interval", "a": PI}, "extension": neumann_extension(), "task": task}


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_neumann_interval(tmp_path):
    job = write_job(
        tmp_path / "job.json",
        interval_job({"name": "spectrum", "window": [-0.5, 0.5]}),
    )
    code = main([job, "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "lambda,multiplicity,sigma_min"
    assert len(lines) == 2
    lam = float(lines[1].split(",")[0])
    assert abs(lam) < 1e-8
    doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert doc["eigenvalues"][0]["multiplicity"] == 1


def test_spectrum_point_bound_state(tmp_path):
    alpha = -1.0 / (4 * PI)
    params = kx.ExtensionParams.full([[alpha]])
    ext = ser.params_to_obj(params)
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0.0, 0.0, 0.0]]},
            "extension": ext,
            "task": {"name": "spectrum", "window": [0.5, 2.0]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[1].split(",")[0]) - 1.0) < 1e-8


def test_spectrum_window_straddling_the_half_line(tmp_path):
    ext = ser.params_to_obj(kx.ExtensionParams.full([[-0.1]]))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0, 0, 0]]},
            "extension": ext,
            "task": {"name": "spectrum", "window": [-1, 2]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[1].split(",")[0]) - 1.5791367041742976) <= 1e-12


def test_spectrum_csv_parses_back_to_the_search(tmp_path):
    theta = np.diag([0.3, -0.2]).astype(complex)
    ext = ser.params_to_obj(kx.ExtensionParams.full(theta))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": PI},
            "extension": ext,
            "task": {"name": "spectrum", "window": [-30.0, 5.0]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0

    system = kx.interval_weyl(kx.IntervalModel(PI))
    result = kx.eigenvalue_search(system, kx.ExtensionParams.full(theta), [-30.0, 5.0])
    assert result.eigenvalues and result.gaps
    header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert header == ["lambda", "multiplicity", "sigma_min"]
    assert [(float(lam), int(mult), float(sigma)) for lam, mult, sigma in rows] == [
        (r.lam, r.multiplicity, r.sigma_min) for r in result.eigenvalues
    ]
    header, rows = read_csv(tmp_path / "out" / "spectrum_gaps.csv")
    assert header == ["lo", "hi"]
    assert [(float(lo), float(hi)) for lo, hi in rows] == [tuple(g) for g in result.gaps]


def test_spectrum_window_without_eigenvalues_writes_headers(tmp_path):
    job = write_job(
        tmp_path / "job.json", interval_job({"name": "spectrum", "window": [0.5, 5.0]})
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    assert (out / "spectrum.csv").read_text() == "lambda,multiplicity,sigma_min\n"
    assert (out / "spectrum_gaps.csv").read_text() == "lo,hi\n"
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["eigenvalues"] == [] and doc["gaps"] == []


def test_spectrum_empty_window_is_config_error(tmp_path, capsys):
    job = write_job(
        tmp_path / "job.json", interval_job({"name": "spectrum", "window": [0.5, 0.5]})
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "invalid-config"


def test_spectrum_unsearchable_window(tmp_path, capsys):
    # point model: the whole window sits inside the excluded half line
    ext = ser.params_to_obj(kx.ExtensionParams.full([[0.5]]))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0.0, 0.0, 0.0]]},
            "extension": ext,
            "task": {"name": "spectrum", "window": [-3.0, -1.0]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "unsearchable-window"
    gaps = (tmp_path / "out" / "spectrum_gaps.csv").read_text().splitlines()
    assert len(gaps) == 2


@pytest.mark.parametrize(
    "a, theta, window, count",
    [(PI, (0.5, 0.5), [-1e6, -9.9e5], 5), (2.0, (0.0, 1e-5), [-10.0, -6.0], 1)],
)
def test_spectrum_reports_every_counted_root_at_any_secular_scale(tmp_path, a, theta, window, count):
    # secular matrices of about 1e6 at the roots: a kernel is judged relative to that scale
    ext = ser.params_to_obj(kx.ExtensionParams.full(np.diag(theta).astype(complex)))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": a},
            "extension": ext,
            "task": {"name": "spectrum", "window": window},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "spectrum.json").read_text())["metadata"]
    assert meta["expected_count"] == meta["found_count"] == count
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + count


def test_spectrum_that_misses_a_counted_eigenvalue_exits_5(tmp_path, capsys):
    # on a long interval two counted drops close at 1.2e-10 and 1.7e-10 of
    # their secular scale: the bracket floor, absolute below |lambda| = 1,
    # stops them too wide (ROADMAP item 3)
    ext = ser.params_to_obj(kx.ExtensionParams.full(0.5 * np.eye(2)))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": 1000.0},
            "extension": ext,
            "task": {"name": "spectrum", "window": [-10.0, -1e-6]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL == 5
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "incomplete-spectrum"
    assert err["detail"] == {"expected_count": 1007, "found_count": 1005}
    meta = json.loads((tmp_path / "out" / "spectrum.json").read_text())["metadata"]
    assert (meta["expected_count"], meta["found_count"]) == (1007, 1005)
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + 1005


def _nan_gamma(z):
    return np.full((2, 2), np.nan + 0j)


def _lapack_breakdown(z):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("gamma", [_nan_gamma, _lapack_breakdown])
def test_numerical_failure_exits_5(tmp_path, capsys, monkeypatch, gamma):
    build = cli._weyl_for
    monkeypatch.setattr(
        cli, "_weyl_for", lambda model: dataclasses.replace(build(model), gamma=gamma)
    )
    job = write_job(
        tmp_path / "job.json", interval_job({"name": "spectrum", "window": [-0.5, 0.5]})
    )
    assert main([job, "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERICAL == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "numerical-failure"


# ---------------------------------------------------------------------------
# resolvent


def test_resolvent_free_branch(tmp_path):
    params = kx.ExtensionParams.trivial(2)
    ext = ser.params_to_obj(params)
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": PI},
            "extension": ext,
            "task": {
                "name": "resolvent",
                "z": [1.0, 1.0],
                "grid": 800,
                "input": {"preset": "sin_k", "k": 1},
            },
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "x,re_phi,im_phi"
    assert len(lines) == 801
    meta = json.loads((tmp_path / "out" / "resolvent.json").read_text())
    assert meta["sigma_min"] is None  # trivial projector: empty secular matrix


def test_resolvent_robin_fd_residual(tmp_path):
    theta = np.diag([0.7, 0.7]).astype(complex)
    ext = ser.params_to_obj(kx.ExtensionParams.full(theta))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": PI},
            "extension": ext,
            "task": {
                "name": "resolvent",
                "z": [1.0, 1.0],
                "grid": 2000,
                "input": {"preset": "poly_bump"},
            },
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()[1:]
    data = np.array([[float(c) for c in row.split(",")] for row in rows])
    x, phi = data[:, 0], data[:, 1] + 1j * data[:, 2]
    h = x[1] - x[0]
    z = 1 + 1j
    psi = x * (PI - x)
    residual = -(phi[:-2] - 2 * phi[1:-1] + phi[2:]) / h**2 + z * phi[1:-1] - psi[1:-1]
    assert np.max(np.abs(residual)) / np.max(np.abs(psi)) < 1e-3


def test_resolvent_job_forms_the_secular_verdict_once(tmp_path, monkeypatch):
    # sigma_min and the Krein correction share one Gamma(z) and one SVD
    calls = {"gamma": 0, "svd": 0}
    build, svd = cli._weyl_for, np.linalg.svd

    def counted_system(model):
        system = build(model)

        def gamma(z):
            calls["gamma"] += 1
            return system.gamma(z)

        return dataclasses.replace(system, gamma=gamma)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(cli, "_weyl_for", counted_system)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(5)
    ext = ser.params_to_obj(kx.ExtensionParams.full(random_hermitian(rng, 6)))
    ext["kind"] = "params"
    doc = {
        "model": {"type": "graph", "lengths": [1.0, 1.3, 0.8]},
        "extension": ext,
        "task": {"name": "resolvent", "z": [1.5, 1.0], "grid": 600},
    }
    assert main([write_job(tmp_path / "job.json", doc), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"gamma": 1, "svd": 1}
    assert json.loads((tmp_path / "out" / "resolvent.json").read_text())["sigma_min"] > 0.0


# the kernels overflow on the 500-long edge at z = 0.5+1j
NON_FINITE_JOB = {
    "model": {"type": "graph", "lengths": [1.0, 500.0]},
    "task": {"name": "resolvent", "z": [0.5, 1.0], "grid": 2001},
}


def test_resolvent_non_finite_samples_exit_5(tmp_path):
    # a subprocess, so the kernels' overflow warnings stay warnings
    job = write_job(tmp_path / "job.json", NON_FINITE_JOB)
    proc = subprocess.run(
        [sys.executable, "-m", "kreinext.cli", job, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_NUMERICAL == 5
    err = json.loads(proc.stderr)  # the JSON error and nothing else
    assert err["error"]["code"] == "numerical-failure"
    assert "z = (0.5+1j)" in err["error"]["message"] and "edge 1" in err["error"]["message"]
    assert not (tmp_path / "out" / "resolvent.csv").exists()


def test_job_too_large_to_allocate_exits_1(tmp_path):
    # the child's address space is capped, so the 16 GB grid fails to
    # allocate at once; the failure is the one JSON error, not a traceback
    import resource

    job = write_job(
        tmp_path / "job.json", interval_job({"name": "resolvent", "z": [1.0, 1.0], "grid": 2_000_000_000})
    )
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 3_000_000_000 if hard == resource.RLIM_INFINITY else min(3_000_000_000, hard)
    proc = subprocess.run(
        [sys.executable, "-m", "kreinext.cli", job, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
    )
    assert proc.returncode == cli.EXIT_CONFIG == 1
    err = json.loads(proc.stderr)["error"]
    assert err["code"] == "invalid-config"
    assert err["message"].startswith("MemoryError")
    assert not (tmp_path / "out").exists()


def test_recorded_warnings_still_raise_under_an_error_filter(tmp_path):
    # main records RuntimeWarnings instead of printing them; the suite's
    # error::RuntimeWarning filter still raises them out of main
    job = write_job(tmp_path / "job.json", NON_FINITE_JOB)
    with pytest.raises(RuntimeWarning):
        main([job, "--out", str(tmp_path / "out")])


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_resolvent_csv_parses_back_to_the_samples(tmp_path):
    lengths = [1.0, 2.5, 0.75]
    theta = np.diag(np.linspace(-0.4, 0.6, 6)).astype(complex)
    ext = ser.params_to_obj(kx.ExtensionParams.full(theta))
    ext["kind"] = "params"
    spec = {"preset": "poly_bump"}
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "graph", "lengths": lengths},
            "extension": ext,
            "task": {"name": "resolvent", "z": [-1.5, 0.5], "grid": 601, "input": spec},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0

    system = kx.graph_weyl(kx.GraphModel(tuple(lengths)))
    grids = verify.edge_grids(system, 601)
    z = -1.5 + 0.5j
    psi = verify.preset_samples(system, spec, z, grids)
    phi = kx.apply_resolvent(system, kx.ExtensionParams.full(theta), z, psi, grids)
    header, rows = read_csv(tmp_path / "out" / "resolvent.csv")
    assert header == ["edge", "x", "re_phi", "im_phi"]
    assert len(rows) == sum(len(xs) for xs in grids) == 3 * 601
    edge = np.array([int(r[0]) for r in rows])
    data = np.array([[float(c) for c in r[1:]] for r in rows])
    bounds = np.cumsum([0] + [len(xs) for xs in grids])
    for e, (xs, vs) in enumerate(zip(grids, phi)):
        part = slice(bounds[e], bounds[e + 1])
        assert np.all(edge[part] == e)
        assert data[part, 0].tobytes() == np.asarray(xs, dtype=float).tobytes()
        assert data[part, 1].tobytes() == vs.real.tobytes()
        assert data[part, 2].tobytes() == vs.imag.tobytes()


def test_resolvent_at_extension_eigenvalue_exits_2(tmp_path, capsys):
    job = write_job(
        tmp_path / "job.json",
        interval_job({"name": "resolvent", "z": [0.0, 0.0], "grid": 800}),
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "extension-singular"


def test_resolvent_rejects_point_models(tmp_path, capsys):
    ext = ser.params_to_obj(kx.ExtensionParams.full([[0.5]]))
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0.0, 0.0, 0.0]]},
            "extension": ext,
            "task": {"name": "resolvent", "z": [1.0, 1.0]},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 1


# ---------------------------------------------------------------------------
# convert


def test_convert_trivial_projector(tmp_path):
    params = kx.ExtensionParams.trivial(2)
    ext = ser.params_to_obj(params)
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": PI},
            "extension": ext,
            "task": {"name": "convert"},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "convert.json").read_text())
    b1 = complex_array(doc["pair"]["b1"])
    b2 = complex_array(doc["pair"]["b2"])
    assert np.allclose(b1, np.eye(2))
    assert np.allclose(b2, 0.0)
    rel = complex_array(doc["relation_from_params"]["basis"])
    assert np.allclose(rel[:2], 0.0)
    assert doc["relation_gap"] < 1e-10
    assert doc["von_neumann"]["unitarity_residual"] < 1e-10


def test_convert_scalar_pair_kind(tmp_path):
    pair = kx.pair_from_params(kx.ExtensionParams.full([[0.0]]))
    ext = ser.pair_to_obj(pair)
    ext["kind"] = "pair"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0.0, 0.0, 0.0]]},
            "extension": ext,
            "task": {"name": "convert"},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "convert.json").read_text())
    assert np.allclose(complex_array(doc["params"]["pi"]), [[1.0]])
    b2 = complex_array(doc["pair"]["b2"])
    assert np.allclose(b2, [[-1j]])


def test_convert_pair_of_tiny_entries(tmp_path):
    # a pair names its extension at any scale: 1e-11 (B1, B2) is (B1, B2)
    pair = kx.BoundaryPair(np.eye(2), np.diag([0.5, 0.0]))
    ext = {
        "kind": "pair",
        "b1": ser.matrix_to_lists(1e-11 * pair.b1),
        "b2": ser.matrix_to_lists(1e-11 * pair.b2),
    }
    job = write_job(
        tmp_path / "job.json",
        {"model": {"type": "interval", "a": PI}, "extension": ext, "task": {"name": "convert"}},
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "convert.json").read_text())
    label = kx.params_from_pair(pair)
    assert np.array_equal(complex_array(doc["params"]["pi"]), label.pi)
    assert np.allclose(complex_array(doc["params"]["theta"]), label.theta, rtol=0.0, atol=1e-15)


def test_convert_corrupted_pair_exits_3(tmp_path, capsys):
    ext = {
        "kind": "pair",
        "b1": ser.matrix_to_lists(np.zeros((2, 2))),
        "b2": ser.matrix_to_lists(np.zeros((2, 2))),
    }
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "interval", "a": PI},
            "extension": ext,
            "task": {"name": "convert"},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "pair-conditions-failed"
    assert "nondeg" in err["error"]["detail"]["failed"]


def test_failing_pair_reports_the_same_error_from_every_task(tmp_path, capsys):
    ext = {
        "kind": "pair",
        "b1": ser.matrix_to_lists(np.zeros((2, 2))),
        "b2": ser.matrix_to_lists(np.zeros((2, 2))),
    }
    tasks = [
        {"name": "spectrum", "window": [-0.5, 0.5]},
        {"name": "resolvent", "z": [1.0, 1.0], "grid": 800},
        {"name": "convert"},
        {"name": "verify"},
    ]
    errors = []
    for task in tasks:
        doc = {"model": {"type": "interval", "a": PI}, "extension": ext, "task": task}
        job = write_job(tmp_path / f"{task['name']}.json", doc)
        assert main([job, "--out", str(tmp_path / task["name"])]) == cli.EXIT_PAIR == 3
        errors.append(json.loads(capsys.readouterr().err)["error"])
        assert not (tmp_path / task["name"]).exists()
    assert all(err == errors[0] for err in errors)
    err = errors[0]
    assert err["code"] == "pair-conditions-failed"
    assert err["message"] == "boundary pair conditions failed: nondeg, joint_kernel, normalization"
    assert sorted(err["detail"]) == ["conditions", "failed"]
    assert err["detail"]["failed"] == ["nondeg", "joint_kernel", "normalization"]
    assert err["detail"]["conditions"]["nondeg_ok"] is False
    assert err["detail"]["conditions"]["consistent"] is True


def robin_convert_job(tmp_path, kind):
    """A convert job for the interval pair B1 = diag(0.3, 1), B2 = diag(1, 0.5)."""
    pair = kx.BoundaryPair(np.diag([0.3, 1.0]), np.diag([1.0, 0.5]))
    if kind == "pair":
        ext = ser.pair_to_obj(pair)
    else:
        ext = ser.params_to_obj(kx.params_from_pair(pair))
    ext["kind"] = kind
    doc = {"model": {"type": "interval", "a": PI}, "extension": ext, "task": {"name": "convert"}}
    return write_job(tmp_path / f"{kind}.json", doc)


@pytest.mark.parametrize("kind, pairs_built", [("params", 1), ("pair", 2)])
def test_convert_checks_each_pair_once(tmp_path, monkeypatch, kind, pairs_built):
    # params: the pair of the label; pair: the input and the round trip's pair
    job = robin_convert_job(tmp_path, kind)
    checked = []
    check = parametrize.check_pair_conditions

    def counting(pair):
        checked.append(pair)
        return check(pair)

    monkeypatch.setattr(parametrize, "check_pair_conditions", counting)
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    assert len(checked) == len({id(pair) for pair in checked}) == pairs_built


def test_convert_round_trip_of_a_pair_goes_through_params(tmp_path, monkeypatch):
    job = robin_convert_job(tmp_path, "pair")
    assert main([job, "--out", str(tmp_path / "exact")]) == 0
    exact = json.loads((tmp_path / "exact" / "convert.json").read_text())["round_trip"]
    assert exact["pi_residual"] < 1e-12 and exact["theta_residual"] < 1e-12

    convert = cli.pair_from_params

    def perturbed(params):
        return convert(kx.ExtensionParams(params.pi, params.theta + 1e-3 * params.pi))

    monkeypatch.setattr(cli, "pair_from_params", perturbed)
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "convert.json").read_text())
    assert doc["round_trip"]["theta_residual"] > 1e-4


# ---------------------------------------------------------------------------
# verify


def test_verify_interval_passes(tmp_path):
    job = write_job(tmp_path / "job.json", interval_job({"name": "verify"}))
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert doc["passed"] is True
    for name in (
        "conjugation",
        "difference_identity",
        "determinant_identity",
        "green_identity",
        "gram_unitarity",
        "resolvent_identity",
        "defect_gram_positive",
    ):
        assert doc["checks"][name]["passed"], name


def test_verify_point_model_passes(tmp_path):
    ext = ser.params_to_obj(
        kx.ExtensionParams.full(np.diag([0.5, -0.5]).astype(complex))
    )
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "points", "centers": [[0, 0, 0], [1.0, 0, 0]]},
            "extension": ext,
            "task": {"name": "verify"},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert doc["checks"]["hermitian_on_reals"]["passed"]


def test_verify_fault_injection_fails(tmp_path, capsys):
    job = write_job(
        tmp_path / "job.json", interval_job({"name": "verify", "fault": "negate_gamma"})
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "verification-failed"
    assert "difference_identity" in err["error"]["detail"]["failed"]


# ---------------------------------------------------------------------------
# error handling and determinism


INVALID_INPUTS = {
    "nan-centre": (
        {"model": {"type": "points", "centers": [[0, 0, 0], [1, 0, float("nan")]]}, "task": {"name": "verify"}},
        [],
        "ConfigError: model.centers[1][2]: expected a real in [-1000000, 1000000], got nan",
    ),
    "infinite-b": (
        {
            "model": {"type": "spin_points", "centers": [[0, 0, 0]], "b": [0, float("inf")]},
            "task": {"name": "spectrum", "window": [0.1, 3.0]},
        },
        [],
        "ConfigError: model.b[1]: expected a real in [-1e+12, 1e+12], got inf",
    ),
    "grid-0": (
        interval_job({"name": "resolvent", "z": [1.0, 1.0], "grid": 0}),
        [],
        "GridTooCoarseError: need at least 501 nodes per edge, got 0",
    ),
    "grid-float": (
        interval_job({"name": "resolvent", "grid": 2001.7}),
        [],
        "ConfigError: task.grid: expected an integer in [0, 2147483647], got 2001.7",
    ),
    "grid-bool": (
        interval_job({"name": "resolvent", "grid": True}),
        [],
        "ConfigError: task.grid: expected an integer in [0, 2147483647], got True",
    ),
    "grid-string": (
        interval_job({"name": "resolvent", "grid": "2001"}),
        [],
        "ConfigError: task.grid: expected an integer in [0, 2147483647], got '2001'",
    ),
    "k-float": (
        interval_job({"name": "resolvent", "input": {"preset": "sin_k", "k": 1.5}}),
        [],
        "ConfigError: task.input.k: expected an integer in [-1e+12, 1e+12], got 1.5",
    ),
    "window-string": (
        interval_job({"name": "spectrum", "window": ["a", 1.0]}),
        [],
        "ConfigError: task.window[0]: expected a real in [-1e+12, 1e+12], got 'a'",
    ),
    "window-null": (
        interval_job({"name": "spectrum", "window": [None, 1.0]}),
        [],
        "ConfigError: task.window[0]: expected a real in [-1e+12, 1e+12], got None",
    ),
    "window-bool": (
        interval_job({"name": "spectrum", "window": [False, True]}),
        [],
        "ConfigError: task.window[0]: expected a real in [-1e+12, 1e+12], got False",
    ),
    "z-string": (
        interval_job({"name": "resolvent", "z": "x"}),
        [],
        "ConfigError: task.z: expected [re, im] with reals in [-1e+12, 1e+12], got 'x'",
    ),
    "z-null-part": (
        interval_job({"name": "resolvent", "z": [1.0, None]}),
        [],
        "ConfigError: task.z: expected [re, im] with reals in [-1e+12, 1e+12], got [1.0, None]",
    ),
    "extension-not-object": (
        {**interval_job({"name": "spectrum", "window": [-0.5, 0.5]}), "extension": [1, 2]},
        [],
        "ConfigError: extension: expected an object, got [1, 2]",
    ),
    "input-not-object": (
        interval_job({"name": "resolvent", "input": "sin_k"}),
        [],
        "ConfigError: task.input: expected an object, got 'sin_k'",
    ),
    "extension-kind": (
        {**interval_job({"name": "spectrum", "window": [-0.5, 0.5]}), "extension": {"kind": "robin"}},
        [],
        "ConfigError: extension.kind: expected one of 'params', 'pair', got 'robin'",
    ),
    "extension-dimension": (
        {**interval_job({"name": "spectrum", "window": [-0.5, 0.5]}), "extension": neumann_extension(1)},
        [],
        "ConfigError: extension: dimension 1 does not match the model boundary dimension 2",
    ),
    "preset-not-string": (
        interval_job({"name": "resolvent", "input": {"preset": ["sin_k"]}}),
        [],
        "ConfigError: task.input.preset: expected one of 'sin_k', 'poly_bump', 'green_at_center', got ['sin_k']",
    ),
    "unknown-preset": (
        interval_job({"name": "resolvent", "input": {"preset": "gauss"}}),
        [],
        "ConfigError: task.input.preset: expected one of 'sin_k', 'poly_bump', 'green_at_center', got 'gauss'",
    ),
    "convert-without-extension": (
        {"model": {"type": "interval", "a": PI}, "task": {"name": "convert"}},
        [],
        "ConfigError: extension: expected an object, got nothing",
    ),
    "unknown-fault": (
        interval_job({"name": "verify", "fault": "drop_gram"}),
        [],
        "ConfigError: task.fault: expected one of 'negate_gamma', got 'drop_gram'",
    ),
    "job-not-object": (
        [interval_job({"name": "verify"})],
        [],
        "ConfigError: job: expected an object, got [{'extension': {'kind': 'params', 'pi': [[[1.0, 0.0], "
        "[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], 'theta': [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, "
        "'model': {'a': 3.141592653589793, 'type': 'interval'}, 'task': {'name': 'verify'}}]",
    ),
    "task-without-name": (
        interval_job({"window": [-0.5, 0.5]}),
        [],
        "ConfigError: task.name: expected one of 'spectrum', 'resolvent', 'convert', 'verify', got nothing",
    ),
    "task-name-not-string": (
        interval_job({"name": ["spectrum"], "window": [-0.5, 0.5]}),
        [],
        "ConfigError: task.name: expected one of 'spectrum', 'resolvent', 'convert', 'verify', got ['spectrum']",
    ),
    "no-model": (
        {"extension": neumann_extension(), "task": {"name": "verify"}},
        [],
        "ConfigError: model: expected an object, got nothing",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_exits_1(tmp_path, capsys, case):
    doc, flags, message = INVALID_INPUTS[case]
    job = write_job(tmp_path / "job.json", doc)
    assert main([job, "--out", str(tmp_path / "out"), *flags]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"code": "invalid-config", "message": message}
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "invalid-config"


def test_unknown_task(tmp_path, capsys):
    job = write_job(tmp_path / "job.json", interval_job({"name": "frobnicate"}))
    assert main([job]) == 1


def test_artifacts_are_byte_identical(tmp_path):
    jobs = [
        interval_job({"name": "spectrum", "window": [-0.5, 0.5]}),
        interval_job({"name": "resolvent", "z": [1.0, 1.0], "grid": 900}),
        interval_job({"name": "convert"}),
        interval_job({"name": "verify"}),
    ]
    for i, doc in enumerate(jobs):
        job = write_job(tmp_path / f"job{i}.json", doc)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"out{i}{run}"
            assert main([job, "--out", str(out)]) == 0
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                }
            )
        assert outs[0] == outs[1]


def test_console_entry_point_smoke(tmp_path):
    job = write_job(
        tmp_path / "job.json", interval_job({"name": "spectrum", "window": [-0.5, 0.5]})
    )
    proc = subprocess.run(
        [sys.executable, "-m", "kreinext.cli", job, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_cli_task_grid_sets_the_density_and_spectrum_ignores_grid_and_tol(tmp_path):
    # task.grid sets the resolvent sample density; spectrum jobs ignore their
    # grid and tol keys and report the search's completeness counts
    job = write_job(
        tmp_path / "r.json",
        interval_job({"name": "resolvent", "z": [1.0, 1.0], "grid": 501}),
    )
    out = tmp_path / "r"
    assert main([job, "--out", str(out)]) == 0
    assert json.loads((out / "resolvent.json").read_text())["grid"] == 501
    assert len((out / "resolvent.csv").read_text().splitlines()) == 1 + 501

    job = write_job(
        tmp_path / "s.json",
        interval_job({"name": "spectrum", "window": [-0.5, 0.5], "grid": 4000, "tol": 1e-10}),
    )
    out = tmp_path / "s"
    assert main([job, "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.json").read_text())["metadata"]
    assert "nodes" not in meta
    assert meta["expected_count"] == meta["found_count"] == 1


def test_cli_import_loads_no_scipy():
    code = "import sys, kreinext.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_graph_resolvent_and_verify(tmp_path):
    graph = kx.GraphModel((1.0, 2.0))
    params = kx.vertex_params(
        graph,
        [
            kx.VertexGroup(((0, "left"),), 0.0),
            kx.VertexGroup(((0, "right"), (1, "left")), 0.0),
            kx.VertexGroup(((1, "right"),), 0.0),
        ],
    )
    ext = ser.params_to_obj(params)
    ext["kind"] = "params"
    base = {"model": {"type": "graph", "lengths": [1.0, 2.0]}, "extension": ext}

    job = write_job(
        tmp_path / "r.json",
        {**base, "task": {"name": "resolvent", "z": [1.0, 0.5], "grid": 600}},
    )
    assert main([job, "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "edge,x,re_phi,im_phi"
    assert len(lines) == 1 + 2 * 600

    job = write_job(tmp_path / "v.json", {**base, "task": {"name": "verify"}})
    assert main([job, "--out", str(tmp_path / "v")]) == 0
    doc = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert doc["passed"] is True


def test_cli_green_at_center_preset(tmp_path):
    job = write_job(
        tmp_path / "job.json",
        interval_job(
            {
                "name": "resolvent",
                "z": [1.0, 1.0],
                "grid": 800,
                "input": {"preset": "green_at_center"},
            }
        ),
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("z", [1e-12, -1e-12, 1e-10, 1e-9, 1e-9j])
def test_green_at_center_preset_at_zero_is_the_limit_of_small_z(z):
    # z = 0 takes the linear kernel of its own branch, real with peak a / 4 at
    # the centre; the sine kernel at small z agrees with it to |z| a^2
    system = kx.graph_weyl(kx.GraphModel((1.7, 0.6)))
    grids = verify.edge_grids(system, 2001)
    spec = {"preset": "green_at_center"}
    at_zero = verify.preset_samples(system, spec, 0.0, grids)
    near = verify.preset_samples(system, spec, z, grids)
    for a, f, g in zip(system.lengths, at_zero, near):
        scale = np.max(np.abs(f))
        assert f.dtype == complex and not f.imag.any() and abs(scale - a / 4) <= 1e-12 * a
        assert np.max(np.abs(g - f)) <= abs(z) * a**2 * scale


def test_cli_spin_verify(tmp_path):
    params = kx.ExtensionParams.full(np.diag([-0.5, -0.5]).astype(complex))
    ext = ser.params_to_obj(params)
    ext["kind"] = "params"
    job = write_job(
        tmp_path / "job.json",
        {
            "model": {"type": "spin_points", "centers": [[0.0, 0.0, 0.0]], "b": [0.0, 5.0]},
            "extension": ext,
            "task": {"name": "verify"},
        },
    )
    assert main([job, "--out", str(tmp_path / "out")]) == 0
