"""Record the benchmark's stored instances and references from the current code.

Run once from the repository root, on the code the references should pin:

    python3 bench/record_refs.py

It writes ``bench/refs/{graphs,points,resolvent,cli}.json``. Instances are
drawn from fixed generator seeds and kept only when they are well posed:
every eigenvalue simple and clear of the window ends, the search's count
equal to the inertia (Sturm) count of the secular matrix over each
searchable segment, and, for graphs, the eigenvalues within 1e-3 of the
finite-difference oracle ``fd_graph_spectrum``. The run's own ``--seed`` later
picks among these instances.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import kreinext as kx  # noqa: E402
import workloads as wl  # noqa: E402

N_GRAPHS = 32
N_POINTS = 32
N_RESOLVENT = 48
CLI_PER_TASK = 8
EDGE_MARGIN = 0.05  # eigenvalues this close to a window end are rejected
FD_RTOL = 1e-3
# Floor of the resolvent tolerance; raised to 100x the seed's own Gram
# quadrature error when that is larger.
RESOLVENT_RTOL_FLOOR = 1e-10


def rounded_hermitian(rng: random.Random, n: int, scale: float):
    a_re = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    a_im = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    re = [[round(scale * (a_re[r][c] + a_re[c][r]) / 2, 6) for c in range(n)] for r in range(n)]
    im = [[round(scale * (a_im[r][c] - a_im[c][r]) / 2, 6) for c in range(n)] for r in range(n)]
    return re, im


def sturm_count(system, params, segments) -> int:
    def neg(lam):
        m = params.theta + system.gamma(lam)
        return int(np.sum(np.linalg.eigvalsh((m + m.conj().T) / 2) < 0.0))

    return sum(neg(a) - neg(b) for a, b in segments)


def searched(system, params, window):
    """Eigenvalues as [lam, multiplicity] pairs, or None if ill posed."""
    result = kx.eigenvalue_search(system, params, window)
    pairs = [[r.lam, r.multiplicity] for r in result.eigenvalues]
    lo, hi = window
    if any(m != 1 for _, m in pairs):
        return None
    if any(lam - lo < EDGE_MARGIN or hi - lam < EDGE_MARGIN for lam, _ in pairs):
        return None
    if sturm_count(system, params, result.metadata["segments"]) != len(pairs):
        return None
    return pairs


def record_graphs() -> dict:
    rng = random.Random("kreinext-bench/record/graphs")
    window = wl.WINDOWS["graph"]
    instances, rejected = [], 0
    while len(instances) < N_GRAPHS:
        lengths = [round(rng.uniform(0.5, 2.0), 4) for _ in range(8)]
        re, im = rounded_hermitian(rng, 16, 0.25)
        inst = {"lengths": lengths, "theta_re": re, "theta_im": im}
        system, params = wl.graph_system(kx, inst)
        pairs = searched(system, params, window)
        if pairs is None:
            rejected += 1
            continue
        lams = np.array([lam for lam, _ in pairs])
        fd = np.sort(kx.fd_graph_spectrum(kx.GraphModel(tuple(lengths)), params, kx.FDSpec(2000), len(pairs) + 1))
        fd_in, fd_below = fd[1:], fd[0]
        dev = float(np.max(np.abs(fd_in - lams) / np.maximum(1.0, np.abs(lams))))
        if dev > FD_RTOL or fd_below > window[0] - EDGE_MARGIN:
            rejected += 1
            continue
        inst.update(eigenvalues=pairs, fd_max_rel_dev=dev)
        instances.append(inst)
    return {"window": list(window), "rejected": rejected, "instances": instances}


def record_points() -> dict:
    rng = random.Random("kreinext-bench/record/points")
    window = wl.WINDOWS["points"]
    instances, rejected = [], 0
    while len(instances) < N_POINTS:
        centers = []
        while len(centers) < 20:
            p = [round(rng.uniform(0.0, 4.0), 4) for _ in range(3)]
            if all(math.dist(p, q) > 0.6 for q in centers):
                centers.append(p)
        alpha = [round(rng.uniform(-1.5, -0.5) / (4 * math.pi), 6) for _ in range(20)]
        inst = {"centers": centers, "alpha": alpha}
        pairs = searched(*wl.points_system(kx, inst), window)
        if pairs is None:
            rejected += 1
            continue
        inst["eigenvalues"] = pairs
        instances.append(inst)
    return {"window": list(window), "rejected": rejected, "instances": instances}


def random_terms(rng: random.Random, n: int, re_range) -> list:
    terms = []
    for _ in range(2):
        w = [round(rng.uniform(*re_range), 4), round(rng.choice((-1, 1)) * rng.uniform(0.5, 4.0), 4)]
        c = [[round(rng.gauss(0, 1), 4), round(rng.gauss(0, 1), 4)] for _ in range(n)]
        terms.append([w, c])
    return terms


def record_resolvent(graphs: list, points: list) -> dict:
    rng = random.Random("kreinext-bench/record/resolvent")
    ops = []
    for _ in range(N_RESOLVENT):
        ops.append(
            {
                "z": [round(rng.uniform(-25.0, 5.0), 4), round(rng.choice((-1, 1)) * rng.uniform(0.5, 5.0), 4)],
                "theta": wl.draw_theta(rng),
                "graph": rng.randrange(len(graphs)),
                "points": rng.randrange(len(points)),
                "graph_terms": random_terms(rng, 16, (-25.0, 5.0)),
                "points_terms": random_terms(rng, 20, (0.5, 6.0)),
            }
        )
    # The Green ops on graphs integrate the Gram matrix by Simpson's rule;
    # its error against an 8x finer rule sets how much later code may move.
    gram_dev = 0.0
    for op in ops[:8]:
        inst = graphs[op["graph"]]
        coarse, params = wl.graph_system(kx, inst)
        fine = kx.graph_weyl(kx.GraphModel(tuple(inst["lengths"])), gram_nodes=32001)
        z = complex(*op["z"])
        combo = wl.ResolventWorkload._combo(kx, op["graph_terms"])
        a = kx.apply_resolvent_green(coarse, params, z, combo)
        b = kx.apply_resolvent_green(fine, params, z, combo)
        ca, cb = a.coefficient(z), b.coefficient(z)
        gram_dev = max(gram_dev, float(np.max(np.abs(ca - cb)) / np.max(np.abs(cb))))
        na, nb = kx.green_norm(coarse, a), kx.green_norm(fine, b)
        gram_dev = max(gram_dev, abs(na - nb) / nb)
    refs = {
        "rtol": max(RESOLVENT_RTOL_FLOOR, 100.0 * gram_dev),
        "gram_quadrature_rel_dev": gram_dev,
        "ops": ops,
    }
    workload = wl.ResolventWorkload(ops, refs["rtol"], graphs, points)
    workload.build(kx)
    for i, op in enumerate(ops):
        op["ref"] = workload.run(i)
    return refs


def record_cli(graphs: list) -> dict:
    rng = random.Random("kreinext-bench/record/cli")
    jobs = []
    for task in wl.CLI_TASKS:
        for k in range(CLI_PER_TASK):
            job = {"name": f"{task}-{k}", "task": task}
            if task == "spectrum":
                job["theta"] = wl.draw_theta(rng)
            else:
                job["graph"] = rng.randrange(len(graphs))
            if task == "resolvent":
                job["z"] = [round(rng.uniform(-25.0, 5.0), 4), round(rng.choice((-1, 1)) * rng.uniform(0.5, 5.0), 4)]
            jobs.append(job)
    env = wl.child_env(ROOT)
    tmp = ROOT / ".bench_out" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for job in jobs:
            path = tmp / f"{job['name']}.json"
            path.write_text(json.dumps(wl.job_document(job, graphs)))
            out = tmp / job["name"]
            proc = subprocess.run(
                [sys.executable, "-m", "kreinext.cli", str(path), "--out", str(out)],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{job['name']} failed: {proc.stderr}")
            job["sha256"] = wl.read_artifacts(out)
            if job["task"] == "resolvent":
                job["ref"] = wl.resolvent_csv_summaries(out / "resolvent.csv")
            elif job["task"] == "convert":
                job["ref"] = wl.digest_numbers(json.loads((out / "convert.json").read_text()))
            elif job["task"] == "verify":
                doc = json.loads((out / "verify.json").read_text())
                if not doc["passed"]:
                    raise SystemExit(f"{job['name']}: verify did not pass")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"rtol": RESOLVENT_RTOL_FLOOR, "jobs": jobs}


def dump(name: str, doc: dict) -> None:
    wl.REFS_DIR.mkdir(exist_ok=True)
    with open(wl.REFS_DIR / f"{name}.json", "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote refs/{name}.json", flush=True)


def main() -> None:
    graphs = record_graphs()
    dump("graphs", graphs)
    points = record_points()
    dump("points", points)
    dump("resolvent", record_resolvent(graphs["instances"], points["instances"]))
    dump("cli", record_cli(graphs["instances"]))


if __name__ == "__main__":
    main()
