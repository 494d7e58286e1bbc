"""The golden corpus: one record for each output the tests pin, in golden.json.

This is the one module under ``tests`` that loads ``bench/workloads.py``,
read-only. Outputs are named by group: ``resolvent/<op>/<part>`` (every
array of the resolvent workload's 48 seed-3 ops), ``plan/<i>/result`` and
``plan/<i>/rounds`` (the spectrum workload's 72 seed-3 searches),
``cases/<name>`` (rounds of ``test_spectral.SEARCH_CASES``),
``signed_zero/<seed>:<i>`` (rounds of the seed 1-10 plans' interval searches
whose theta, as the workload builds it, has a -0.0 part) and
``jobs/<job>/<file>`` (artifacts of the 32 jobs of ``bench/refs/cli.json``,
run in process). A round is one
``system.gamma`` call of a search, so equal rounds mean equal Gamma, LAPACK
and guard counts.

A record is a sha256 of the output's bytes and a summary: an array's shape,
dtype and max|x|; a search's lambda and sigma_min values (its sha256 covers
multiplicities, null bases, gaps and metadata too); a round count (its
sha256 is over each round's sha256 of its sorted lambdas); a file's size.

``python tests/golden.py`` rewrites golden.json from the current code and
prints a line for each output whose record changed: whether its bytes
changed, the largest relative move of each summary value and the change in
round count. A failing pin test prints the same lines.
"""

import dataclasses
import functools
import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np

import kreinext as kx
from kreinext.cli import _weyl_for, main

from test_spectral import SEARCH_CASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "golden.json"
SEED = 3
SIGNED_ZERO_SEEDS = range(1, 11)


@functools.cache
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_record(x) -> dict:
    x = np.ascontiguousarray(x)
    size = float(np.max(np.abs(x), initial=0.0))
    return {"sha256": _sha(x.tobytes()), "shape": list(x.shape), "dtype": str(x.dtype), "max": size}


def result_record(result) -> dict:
    hits = result.eigenvalues
    head = [result.gaps, result.metadata, [[r.lam, r.multiplicity, r.sigma_min] for r in hits]]
    data = json.dumps(head, sort_keys=True).encode() + b"".join(r.null_basis.tobytes() for r in hits)
    lams, sigmas = [float(r.lam) for r in hits], [float(r.sigma_min) for r in hits]
    return {"sha256": _sha(data), "lambda": lams, "sigma_min": sigmas}


def searched(system, params, window):
    """The result of one search and its rounds record."""
    rounds = []

    def gamma(z, gamma=system.gamma):
        rounds.append(_sha(np.sort(np.asarray(z)).tobytes()))
        return gamma(z)

    result = kx.eigenvalue_search(dataclasses.replace(system, gamma=gamma), params, window)
    return result, {"rounds": len(rounds), "sha256": _sha("".join(rounds).encode())}


@functools.cache
def resolvent_workload():
    workload = workloads().make_workload("resolvent", SEED, ROOT, ROOT)
    workload.build(kx)
    return workload


def resolvent_arrays(i: int) -> dict:
    """Every array the resolvent path returns on op i, by part."""
    workload = resolvent_workload()
    op = workload.plan[i]
    z, (isys, iparams), graph_combo, points_combo = workload.ops[i]
    gsys, gparams = workload.graphs[op["graph"]]
    psys, pparams = workload.points[op["points"]]
    got = {"interval": kx.apply_resolvent(isys, iparams, z, workload.psi_interval, workload.grid_interval)}
    edges = kx.apply_resolvent(gsys, gparams, z, workload.psis[op["graph"]], workload.grids[op["graph"]])
    got.update({f"graph/{e}": part for e, part in enumerate(edges)})
    for key, system, params, combo in (
        ("graph_green", gsys, gparams, graph_combo),
        ("points_green", psys, pparams, points_combo),
    ):
        image = kx.apply_resolvent_green(system, params, z, combo)
        terms = enumerate(image.terms)
        got.update({f"{key}/{k}": np.array([zk, *ck], dtype=complex) for k, (zk, ck) in terms})
        got[f"{key}/norm"] = np.float64(kx.green_norm(system, image))
    return got


@functools.cache
def plan_searches() -> list:
    """(family, instance, system, params, window, result, rounds) of each seed-3 plan search."""
    w = workloads()
    workload = w.make_workload("spectrum", SEED, ROOT, ROOT)
    workload.build(kx)
    out = []
    for (family, inst), (system, params) in zip(workload.plan, workload.systems):
        window = w.WINDOWS[family]
        out.append((family, inst, system, params, window, *searched(system, params, window)))
    return out


def _resolvent():
    for i in range(len(resolvent_workload().plan)):
        for part, x in resolvent_arrays(i).items():
            yield f"resolvent/{i}/{part}", array_record(x)


def _plan():
    for i, (*_, result, rounds) in enumerate(plan_searches()):
        yield f"plan/{i}/result", result_record(result)
        yield f"plan/{i}/rounds", rounds


def _cases():
    for name, (build, window) in SEARCH_CASES.items():
        model, params = build()
        yield f"cases/{name}", searched(_weyl_for(model), params, window)[1]


def _signed_zero():
    w = workloads()
    for seed in SIGNED_ZERO_SEEDS:
        for i, (family, inst) in enumerate(w.make_workload("spectrum", seed, ROOT, ROOT).plan):
            if family == "interval":
                # the theta the workload builds; the label stores its Hermitian part
                parts = (inst["theta"] * np.eye(2, dtype=complex)).view(float)
                if np.any((parts == 0.0) & np.signbit(parts)):
                    system, params = w.interval_system(kx, inst["theta"])
                    yield f"signed_zero/{seed}:{i}", searched(system, params, w.WINDOWS[family])[1]


def _jobs():
    w = workloads()
    graphs = w.load_refs("graphs")["instances"]
    with tempfile.TemporaryDirectory() as tmp:
        for job in w.load_refs("cli")["jobs"]:
            path, artifacts = Path(tmp) / f"{job['name']}.json", Path(tmp) / job["name"]
            path.write_text(json.dumps(w.job_document(job, graphs)))
            assert main([str(path), "--out", str(artifacts)]) == 0, job["name"]
            for p in sorted(artifacts.iterdir()):
                data = p.read_bytes()
                yield f"jobs/{job['name']}/{p.name}", {"sha256": _sha(data), "size": len(data)}


GROUPS = {"resolvent": _resolvent, "plan": _plan, "cases": _cases, "signed_zero": _signed_zero, "jobs": _jobs}


@functools.cache
def outputs(group: str) -> dict:
    return dict(GROUPS[group]())


@functools.cache
def stored() -> dict:
    return json.loads(CORPUS.read_text())


def stored_keys(group: str) -> set:
    """The second name parts of the outputs of ``group`` in golden.json (op, search, case or job)."""
    return {n.split("/")[1] for n in stored() if n.startswith(group + "/")}


def canonical(corpus: dict) -> str:
    """The layout of golden.json: sorted names, one output's compact record per line."""
    lines = (
        f"{json.dumps(name)}: {json.dumps(corpus[name], sort_keys=True, separators=(',', ':'))}"
        for name in sorted(corpus)
    )
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _move(old, new) -> float:
    if isinstance(old, list):
        return max(map(_move, old, new), default=0.0)
    return abs(new - old) / (abs(old) or 1.0)


def report(name: str, old, new):
    """One line on how the record of output ``name`` moved, or None if it did not."""
    if old == new:
        return None
    if old is None or new is None:
        return f"{name}: {'new output' if old is None else 'no longer produced'}"
    parts = ["bytes changed" if old["sha256"] != new["sha256"] else "summary changed"]
    changed = [k for k in ("shape", "dtype", "size") if old.get(k) != new.get(k)]
    parts += [f"{k} {old.get(k)} -> {new.get(k)}" for k in changed]
    for key in ("max", "lambda", "sigma_min"):
        a, b = old.get(key), new.get(key)
        if isinstance(a, list) and len(a) != len(b):
            parts.append(f"{len(a)} -> {len(b)} {key} values")
        elif a is not None:
            parts.append(f"{key} moved by {_move(a, b):.2g}")
    if "rounds" in old:
        parts.append(f"rounds {old['rounds']} -> {new['rounds']} ({new['rounds'] - old['rounds']:+d})")
    return f"{name}: " + ", ".join(parts)


def moves(old: dict, new: dict, names) -> list:
    """The report lines of the outputs ``names`` whose record moved from ``old`` to ``new``."""
    return [line for n in sorted(names) if (line := report(n, old.get(n), new.get(n)))]


def check(*prefixes: str, got=None) -> None:
    """Assert that every output named by a prefix, or under it, keeps its record.

    ``got`` replaces the current outputs of the prefixes' groups.
    """
    want = stored()
    got = {n: r for p in prefixes for n, r in outputs(p.split("/")[0]).items()} if got is None else got
    named = {n for n in {*got, *want} if any(n == p or n.startswith(p + "/") for p in prefixes)}
    lines = moves(want, got, named)
    assert not lines, "\n".join(lines)


def record() -> None:
    """Rewrite golden.json from the current code and print the move report."""
    old = stored() if CORPUS.exists() else {}
    new = {name: rec for group in GROUPS for name, rec in outputs(group).items()}
    CORPUS.write_text(canonical(new))
    print("\n".join(moves(old, new, {*old, *new})) or f"all {len(new)} outputs kept their records")


if __name__ == "__main__":
    record()
