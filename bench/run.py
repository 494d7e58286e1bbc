"""kreinext benchmark: one command runs a workload, gates every op and prints
every metric by name with its unit.

    python3 bench/run.py --workload {spectrum,resolvent,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` is the timed run, with tracing off. Its op latencies are
given at the host's reference speed: the benchmark times a fixed burst of
work (``hostspeed.py``) right before and after each op and scales the op's
measured time by ``REFERENCE_S / burst``, because the shared host changes
speed by up to half for minutes at a time. The measured figures go to the
``details:`` line. It reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from process
  start through ``import kreinext`` and building the workload's systems and
  extension labels, as measured (the burst, timed in this process, did not
  follow the host's speed in the children: scaled medians spread wider);
* ``ops_per_s``: ops completed per second of their summed latencies (the
  gate's work and the bursts between ops are not counted);
* ``op_p50_ms`` and ``op_tail_ms``: median op latency and the latency at
  the workload's fixed tail percentile, the highest with at least ten
  samples beyond it at the run length of ``BENCHMARK.json``;
* ``peak_rss_mb``: peak resident memory of this process, plus the largest
  child on ``cli``.

``--trace 1`` is the traced run. It repeats a fixed set of ops in process,
once plain and once with the wrappers of ``tracer.py`` in place, for as
many rounds as fit in ``--seconds``, and reports the per-layer metrics
(``tracer.PER_LAYER``) per op, plus the tracing overhead per op. The spans
of the first traced round go to ``.bench_out/trace-<workload>-<seed>.json``.

An op fails if it raises or if its answer fails the gate in
``workloads.py``; failed ops are counted against attempted ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import probe  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Fixed per workload from the op counts a 30 s run completes on a 2-core
# machine (about 60 spectrum, 250 resolvent and 33 cli ops).
TAIL_PERCENTILE = {"spectrum": 80, "resolvent": 95, "cli": 60}
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
MAX_REASONS = 5


class Gate:
    """Counts attempted and failed ops and keeps the first failure reasons."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def __call__(self, i: int, result, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                self.workload.check(i, result)
            except wl.GateError as exc:
                error = f"gate: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"op {i}: {error}")


def run_op(fn, i: int):
    """(result, error, seconds) of one op; an op that raises has failed."""
    start = time.perf_counter()
    try:
        result, error = fn(i), None
    except Exception as exc:  # any exception is a failed op, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def run_probe(args: list, root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=root, env=wl.child_env(root), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, root: Path, scratch: Path) -> list:
    samples = []
    for k in range(SETUP_REPEATS):
        spawn = time.monotonic()
        out = run_probe(["setup", workload, str(seed), str(scratch / f"probe{k}")], root)
        samples.append(out["end"] - spawn - out["plan_s"])
    return samples


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    index = int(min(rank, len(sorted_values)) - 1)
    return sorted_values[index], len(sorted_values) - index - 1


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KREIN_EXT_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in thread_vars},
        "commit": git_commit(root),
    }


def timed_run(workload: wl.Workload, name: str, seconds: float, gate: Gate) -> tuple:
    """Closed loop until ``seconds`` of op time; returns metrics and details.

    Each op sits between two host-speed bursts, which scale its latency to
    the reference speed."""
    result, error, _ = run_op(workload.run, 0)  # warm-up: gated, not timed
    gate(0, result, error)
    latencies, scaled, busy, i = [], [], 0.0, 1
    before = hostspeed.burst()
    while busy < seconds:
        result, error, dt = run_op(workload.run, i)
        gate(i, result, error)
        after = hostspeed.burst()
        latencies.append(dt)
        scaled.append(dt * hostspeed.scale(before, after))
        busy += dt
        before = after
        i += 1
    p = TAIL_PERCENTILE[name]
    tail, beyond = percentile(sorted(scaled), p)
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    details = {
        "samples": len(scaled),
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "measured_busy_s": busy,
        "measured_op_p50_ms": statistics.median(latencies) * 1e3,
        "measured_op_tail_ms": percentile(sorted(latencies), p)[0] * 1e3,
        "host_speed_p50": statistics.median(s / t for s, t in zip(latencies, scaled)),
    }
    return metrics, details


def traced_run(workload: wl.Workload, seconds: float, gate: Gate, trace_path: Path) -> tuple:
    """Plain and traced passes over ``workload.trace_ops`` ops, in process."""
    tracer = tr.Tracer()
    if isinstance(workload, wl.CliWorkload):
        import kreinext.cli

        main, traced_main = kreinext.cli.main, tracer.wrap(kreinext.cli.main, tr.CLI_MAIN)
        plain = lambda i: workload.run_inprocess(i, main)  # noqa: E731
        traced = lambda i: workload.run_inprocess(i, traced_main)  # noqa: E731
    else:
        plain = workload.run
        traced = lambda i: workload.run(i, tracer.wrap_system)  # noqa: E731
    ops = range(workload.trace_ops)
    expected = sum(workload.expected_roots(i) for i in ops)
    rounds, overheads = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        plain_s = 0.0
        for i in ops:
            result, error, dt = run_op(plain, i)
            plain_s += dt
            gate(i, result, error)
        tracer.reset()
        traced_s = 0.0
        with tracer.installed_wrappers():
            for i in ops:
                with tracer.op(workload.family(i)):
                    result, error, dt = run_op(traced, i)
                traced_s += dt
                gate(i, result, error)
        if not rounds:
            tracer.write(trace_path)
        rounds.append(tr.layer_values(tracer, expected))
        overheads.append((traced_s - plain_s) / len(ops) * 1e3)
    keep = tr.available(tracer)
    metrics = {
        name: statistics.median(r[name] for r in rounds)
        for name, *_ in tr.PER_LAYER
        if name in keep and name in rounds[0]
    }
    metrics["trace.overhead_ms"] = statistics.median(overheads)
    repeat = all(r[c] == rounds[0][c] for r in rounds for c in tr.COUNTERS if c in r)
    details = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "counters_repeat": repeat,
        "missing_targets": sorted(set(tracer.missing)),
        "spans_file": str(trace_path),
    }
    return metrics, details


def units() -> dict:
    table = END_TO_END + [(name, unit, better) for name, unit, better, *_ in tr.PER_LAYER]
    return {name: unit for name, unit, _ in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectrum", "resolvent", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kreinext" / "__init__.py").is_file():
        print(f"bench/run.py: no src/kreinext under {root}; run it from a checkout's root", file=sys.stderr)
        return 2
    # The workloads must not depend on the scan thread-pool knob.
    os.environ.pop("KREIN_EXT_THREADS", None)
    scratch = root / ".bench_out" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, root: Path, scratch: Path) -> int:
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics: dict = {}
    if args.trace == 0:
        samples = setup_seconds(args.workload, args.seed, root, scratch)
        metrics["setup_s"] = statistics.median(samples)
        details["setup_samples_s"] = samples
    else:
        imports = [run_probe(["import"], root) for _ in range(IMPORT_REPEATS)]
        metrics["cli.import_ms"] = statistics.median(p["import_s"] for p in imports) * 1e3
        metrics["cli.scipy_modules"] = imports[0]["scipy_modules"]
        details["scipy_modules_repeat"] = len({p["scipy_modules"] for p in imports}) == 1

    kx = probe.import_checked("kreinext")
    workload = wl.make_workload(args.workload, args.seed, root, scratch)
    workload.build(kx)
    workload.prepare(kx)
    gate = Gate(workload)
    if args.trace == 0:
        timed, extra = timed_run(workload, args.workload, args.seconds, gate)
        metrics.update(timed)
        metrics["peak_rss_mb"] = peak_rss_mb(with_children=args.workload == "cli")
    else:
        spans = Path(".bench_out") / f"trace-{args.workload}-{args.seed}.json"
        traced, extra = traced_run(workload, args.seconds, gate, spans)
        metrics.update(traced)
    details.update(extra)
    if isinstance(workload, wl.CliWorkload):
        details["seed_bytes_match"] = f"{workload.seed_bytes_match} of {gate.attempted - gate.failed} passing ops"
    details["failures"] = gate.reasons
    details["machine"] = machine_facts(root)

    unit = units()
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6g} {unit[name]}")
    print("details: " + json.dumps(details))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
