"""Tests of the benchmark itself: smoke runs, the gate and the tracer.

    python3 -m pytest bench -q

Run from the repository root. Scratch files go under ``.bench_out/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out" / "tests"
sys.path.insert(0, str(ROOT / "src"))

import kreinext as kx  # noqa: E402


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(cwd, workload, trace, seconds="0.2"):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["spectrum", "resolvent", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_op_passes(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_a_directory_without_the_package(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "bench", scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["spectrum", "resolvent", "cli"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in tr.PER_LAYER
    ]


# ---------------------------------------------------------------------------
# the gate trips


def gated(workload, i, result):
    gate = run.Gate(workload)
    gate(i, result, None)
    return gate.failed


def test_spectrum_gate_trips_on_a_perturbed_or_dropped_eigenvalue():
    graph = wl.load_refs("graphs")["instances"][0]
    theta = 0.7
    workload = wl.SpectrumWorkload([("interval", {"theta": theta}), ("graph", graph)])
    workload.build(kx)
    workload.prepare(kx)
    found = workload.run(0)
    assert gated(workload, 0, found) == 0
    stored = [list(pair) for pair in graph["eigenvalues"]]
    assert gated(workload, 1, stored) == 0

    for i, good in ((0, found), (1, stored)):
        perturbed = [list(pair) for pair in good]
        perturbed[2][0] += 1e-10 * max(1.0, abs(perturbed[2][0]))
        assert gated(workload, i, perturbed) == 1
        assert gated(workload, i, good[:1] + good[2:]) == 1


def test_interval_reference_agrees_with_the_closed_form_limits():
    # theta -> 0 is Neumann: roots -(n)^2 for a = pi, n = 0, 1, ...
    roots = [lam for lam, _ in wl.interval_reference(kx, 1e-9, (-50.0, 0.5))]
    assert len(roots) == 8
    assert max(abs(r + n * n) for n, r in enumerate(reversed(roots))) < 1e-6


def test_resolvent_gate_trips_on_a_perturbed_sample():
    refs = wl.load_refs("resolvent")
    workload = wl.ResolventWorkload(
        refs["ops"][:1], refs["rtol"],
        wl.load_refs("graphs")["instances"], wl.load_refs("points")["instances"],
    )
    workload.build(kx)
    out = workload.run(0)
    assert gated(workload, 0, out) == 0
    re, im = out["graph"][3]["samples"][2]
    out["graph"][3]["samples"][2] = [re * (1 + 1e-8), im]
    assert gated(workload, 0, out) == 1


def cli_workload(scratch, tasks):
    refs = wl.load_refs("cli")
    jobs = [next(j for j in refs["jobs"] if j["task"] == t) for t in tasks]
    workload = wl.CliWorkload(jobs, refs["rtol"], wl.load_refs("graphs")["instances"], ROOT, scratch)
    workload.build(kx)
    workload.prepare(kx)
    return workload


def tamper(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def scale_value(path: Path, row: int, column: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = f"{float(cells[column]) * factor:.17g}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_cli_gate_trips_on_tampered_artifacts(scratch):
    workload = cli_workload(scratch, ["resolvent", "verify", "spectrum"])
    gate = run.Gate(workload)
    result = workload.run(0)  # one value of the resolvent CSV off by 1e-3
    scale_value(workload.out_dir(0) / "resolvent.csv", 1234, 2, 1.001)
    gate(0, result, None)
    result = workload.run(1)  # verify reports a failed check
    tamper(workload.out_dir(1) / "verify.json", '"passed":true', '"passed":false')
    gate(1, result, None)
    result = workload.run(2)  # the last eigenvalue dropped
    csv = workload.out_dir(2) / "spectrum.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
    gate(2, result, None)
    assert (gate.attempted, gate.failed) == (3, 3)
    assert not any("earlier run" in reason for reason in gate.reasons)
    assert workload.seed_bytes_match == 0


def test_cli_gate_trips_on_changed_bytes_of_a_repeated_job(scratch):
    workload = cli_workload(scratch, ["resolvent"])
    gate = run.Gate(workload)
    gate(0, workload.run(0), None)
    assert (gate.failed, workload.seed_bytes_match) == (0, 1)
    result = workload.run(1)  # same job; one value moves by an ulp-sized step
    scale_value(workload.out_dir(1) / "resolvent.csv", 1234, 2, 1 + 1e-15)
    gate(1, result, None)
    assert gate.failed == 1 and "earlier run" in gate.reasons[0]


def test_cli_gate_trips_on_a_failed_exit(scratch):
    workload = cli_workload(scratch, ["convert"])
    (workload.job_files[0]).write_text(json.dumps({"model": {"type": "graph"}, "task": {"name": "convert"}}))
    assert gated(workload, 0, workload.run(0)) == 1


# ---------------------------------------------------------------------------
# the tracer


def test_traced_run_reports_layers_and_drops_missing_targets(scratch, monkeypatch):
    refs = wl.load_refs("resolvent")
    workload = wl.ResolventWorkload(
        refs["ops"][:2], refs["rtol"],
        wl.load_refs("graphs")["instances"], wl.load_refs("points")["instances"],
    )
    workload.trace_ops = 2
    workload.build(kx)
    targets = [t for t in tr.MODULE_TARGETS if t[2] != "quad.simpson"]
    targets.append(("kreinext.models", "no_longer_here", "quad.simpson"))
    monkeypatch.setattr(tr, "MODULE_TARGETS", targets)
    gate = run.Gate(workload)
    metrics, details = run.traced_run(workload, 0.0, gate, scratch / "spans.json")
    assert gate.failed == 0
    assert "kreinext.models.no_longer_here" in details["missing_targets"]
    assert "quad.simpson.calls" not in metrics
    # per family: 2 Gram calls in apply_resolvent_green, 9 in green_norm
    assert metrics["models.gram.calls"] == 22
    assert metrics["models.gamma.calls.graph"] > 0 and "trace.overhead_ms" in metrics
    spans = json.loads((scratch / "spans.json").read_text())
    assert spans["fields"] == ["name", "family", "start_ns", "end_ns", "parent"]
    assert kx.krein.simpson is kx.quad.simpson  # wrappers are removed afterwards
