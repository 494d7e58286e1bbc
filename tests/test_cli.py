import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import kreinext as kx
from kreinext import cli
from kreinext import serialize as ser
from kreinext.cli import main

PI = np.pi


def write_job(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def neumann_extension(n=2):
    params = kx.ExtensionParams.full(np.zeros((n, n), dtype=complex))
    obj = ser.params_to_obj(params)
    obj["kind"] = "params"
    return obj


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
    b1 = ser.matrix_from_lists(doc["pair"]["b1"])
    b2 = ser.matrix_from_lists(doc["pair"]["b2"])
    assert np.allclose(b1, np.eye(2))
    assert np.allclose(b2, 0.0)
    rel = ser.matrix_from_lists(doc["relation_from_params"]["basis"], square=False)
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
    assert np.allclose(ser.matrix_from_lists(doc["params"]["pi"]), [[1.0]])
    b2 = ser.matrix_from_lists(doc["pair"]["b2"])
    assert np.allclose(b2, [[-1j]])


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


def test_cli_grid_and_tol_overrides(tmp_path):
    # --grid sets the resolvent sample density; spectrum jobs ignore their
    # grid and tol keys and report the search's completeness counts
    job = write_job(
        tmp_path / "r.json",
        interval_job({"name": "resolvent", "z": [1.0, 1.0], "grid": 900}),
    )
    out = tmp_path / "r"
    assert main([job, "--out", str(out), "--grid", "501"]) == 0
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
