"""The resolvent path keeps its bits on every op of the resolvent benchmark.

``bench/workloads.py`` is loaded read-only and builds the inputs of every
op of the ``resolvent`` workload's seed-3 plan (all 48 stored ops). Each op
runs ``apply_resolvent`` on the interval and on the 8-edge graph, then
``apply_resolvent_green`` and ``green_norm`` on the graph and on the point
model, and the sha256 of every returned array's bytes must equal the one
stored in ``stored_resolvent_hashes.json`` beside this file. This pins the
Simpson sums, the sampled kernels, both closed-form Gram matrices and the
exclusion guard on the path, bit for bit.

Run this file as a script to print the hashes of the current code.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinext as kx

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
SEED = 3
N_OPS = 48


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _workload():
    workload = _workloads().make_workload("resolvent", SEED, HERE.parent, HERE.parent)
    workload.build(kx)
    return workload


def op_hashes(workload, i: int) -> dict:
    """sha256 of every array the resolvent path returns on op i."""
    op = workload.plan[i]
    z, (isys, iparams), graph_combo, points_combo = workload.ops[i]
    gsys, gparams = workload.graphs[op["graph"]]
    psys, pparams = workload.points[op["points"]]
    got = {"interval": _digest(kx.apply_resolvent(isys, iparams, z, workload.psi_interval, workload.grid_interval))}
    edges = kx.apply_resolvent(gsys, gparams, z, workload.psis[op["graph"]], workload.grids[op["graph"]])
    got.update({f"graph/{e}": _digest(part) for e, part in enumerate(edges)})
    for key, system, params, combo in (
        ("graph_green", gsys, gparams, graph_combo),
        ("points_green", psys, pparams, points_combo),
    ):
        image = kx.apply_resolvent_green(system, params, z, combo)
        for k, (zk, ck) in enumerate(image.terms):
            got[f"{key}/{k}"] = _digest(np.array([zk, *ck], dtype=complex))
        got[f"{key}/norm"] = _digest(np.float64(kx.green_norm(system, image)))
    return got


def current_hashes() -> list:
    workload = _workload()
    return [op_hashes(workload, i) for i in range(len(workload.plan))]


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def stored():
    return json.loads((HERE / "stored_resolvent_hashes.json").read_text())


def test_every_resolvent_op_is_pinned(workload, stored):
    assert len(stored) == len(workload.plan) == N_OPS


@pytest.mark.parametrize("i", range(N_OPS))
def test_resolvent_op_keeps_its_bits(workload, stored, i):
    assert op_hashes(workload, i) == stored[i]


if __name__ == "__main__":
    json.dump(current_hashes(), sys.stdout, indent=1)
    sys.stdout.write("\n")
