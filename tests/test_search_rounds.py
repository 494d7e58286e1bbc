"""Every search evaluates the same points in the same rounds.

Each ``system.gamma`` call of a search is one round (the final ``eigh`` of
the roots included). For the 72 searches of the benchmark's seed-3
spectrum plan (``bench/workloads.py`` is loaded read-only) and every case
of ``test_spectral.SEARCH_CASES``, the sha256 of each round's sorted
lambda array must equal the one stored in ``stored_search_rounds.json``
beside this file. Equal rounds mean equal Gamma, LAPACK and guard counts,
and the points of a round may be gathered in any order.

The interval searches of the spectrum plans of seeds 1-10 whose theta has
a -0.0 part (a negative Robin constant times a complex identity) are pinned
too, by one sha256 per search over the hashes of its rounds.

Run this file as a script to print the hashes of the current code.
"""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kreinext as kx
from kreinext.cli import _weyl_for

from test_spectral import SEARCH_CASES

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
SEED = 3
N_SEARCHES = 72
SIGNED_ZERO_SEEDS = range(1, 11)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def search_rounds(system, params, window) -> list:
    """sha256 of the sorted lambda array of each ``gamma`` call of one search."""
    rounds = []

    def gamma(z, gamma=system.gamma):
        rounds.append(hashlib.sha256(np.sort(np.asarray(z)).tobytes()).hexdigest())
        return gamma(z)

    kx.eigenvalue_search(dataclasses.replace(system, gamma=gamma), params, window)
    return rounds


def plan_searches(tmp):
    workload = WORKLOADS.make_workload("spectrum", SEED, HERE.parent, tmp)
    workload.build(kx)
    return [
        (system, params, WORKLOADS.WINDOWS[family])
        for (family, _), (system, params) in zip(workload.plan, workload.systems)
    ]


def _has_signed_zero(theta) -> bool:
    parts = np.asarray(theta, dtype=complex).view(float)
    return bool(np.any((parts == 0.0) & np.signbit(parts)))


def signed_zero_searches(tmp) -> dict:
    """The plans' interval searches whose theta has a -0.0 part, by "seed:index"."""
    searches = {}
    for seed in SIGNED_ZERO_SEEDS:
        workload = WORKLOADS.make_workload("spectrum", seed, HERE.parent, tmp)
        for i, (family, inst) in enumerate(workload.plan):
            if family == "interval":
                system, params = WORKLOADS.interval_system(kx, inst["theta"])
                if _has_signed_zero(params.theta):
                    searches[f"{seed}:{i}"] = (system, params, WORKLOADS.WINDOWS[family])
    return searches


def search_digest(system, params, window) -> str:
    """One sha256 over the round hashes of one search."""
    return hashlib.sha256("".join(search_rounds(system, params, window)).encode()).hexdigest()


def case_search(name):
    build, window = SEARCH_CASES[name]
    model, params = build()
    return _weyl_for(model), params, window


def current_rounds(tmp) -> dict:
    return {
        "plan": [search_rounds(*search) for search in plan_searches(tmp)],
        "cases": {name: search_rounds(*case_search(name)) for name in sorted(SEARCH_CASES)},
        "signed_zero": {key: search_digest(*search) for key, search in signed_zero_searches(tmp).items()},
    }


@pytest.fixture(scope="module")
def stored():
    return json.loads((HERE / "stored_search_rounds.json").read_text())


def test_every_search_is_pinned(stored):
    assert len(stored["plan"]) == N_SEARCHES
    assert sorted(stored["cases"]) == sorted(SEARCH_CASES)


def test_seed_3_plan_searches_keep_their_rounds(stored, tmp_path):
    searches = plan_searches(tmp_path)
    assert len(searches) == N_SEARCHES
    for i, search in enumerate(searches):
        assert search_rounds(*search) == stored["plan"][i], i


def test_signed_zero_interval_searches_keep_their_rounds(stored, tmp_path):
    searches = signed_zero_searches(tmp_path)
    assert len(searches) >= 100
    assert sorted(searches) == sorted(stored["signed_zero"])
    for key, search in searches.items():
        assert search_digest(*search) == stored["signed_zero"][key], key


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_case_keeps_its_rounds(stored, name):
    assert search_rounds(*case_search(name)) == stored["cases"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current_rounds(Path(tmp)), sys.stdout, indent=1)
    sys.stdout.write("\n")
