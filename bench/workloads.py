"""Workloads of the kreinext benchmark: seeded op plans, op runners and the gate.

Every workload is a closed loop with one client: the next op starts only
after the previous one ended. The plan of a run is a pure function of the
workload name and ``--seed``; the program only sees the generated inputs.

* ``spectrum``: one op is one ``eigenvalue_search``. Ops rotate through an
  interval (a = pi) with a seeded Robin theta, an 8-edge graph with a full
  random 16x16 theta, and a 20-centre point model with attractive diagonal
  couplings. Gamma evaluation, the exclusion guard, ``eigvalsh`` and the
  scan/bisection/golden-section logic carry almost all of the time.
* ``resolvent``: one op is one seeded off-axis z. It runs ``apply_resolvent``
  on the interval and on the graph (2001 nodes per edge), then
  ``apply_resolvent_green`` and ``green_norm`` on the graph and on the point
  model. Few z values with many samples each: the Simpson sums, the sampled
  kernels and the Simpson Gram carry the time, the search none of it.
* ``cli``: one op is one fresh ``python -m kreinext.cli job.json --out dir``
  process. Jobs rotate through spectrum, resolvent, convert and verify, so
  cold start, serialization and the parametrization conversions count.

The timed ops call only names the package exports (the README's entry
points) plus the command line, so internal refactors do not break them.

Graph, point, resolvent and cli references were recorded once from the seed
code by ``record_refs.py`` and live in ``refs/``; interval eigenvalues come
from the scalar secular equations solved with ``kreinext.bisect_root``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

INTERVAL_A = math.pi
WINDOWS = {"interval": (-50.0, 5.0), "graph": (-30.0, 5.0), "points": (0.01, 6.0)}
FAMILIES = ("interval", "graph", "points")
THETA_RANGE = (-1.5, 1.5)

# ROADMAP's eigenvalue bar: |lam - ref| <= 1e-12 max(1, |ref|).
EIG_RTOL = 1e-12
# A sampled output is gated through its values at these nodes and a few
# fixed projections (see ``summarize``).
SAMPLE_NODES = (0, 250, 500, 1000, 1500, 1750, 2000)
N_PROJECTIONS = 3

GRID_NODES = 2001
CLI_GRID = 2000
CLI_TASKS = ("spectrum", "resolvent", "convert", "verify")


class GateError(Exception):
    """An op's answer failed the correctness gate."""


# ---------------------------------------------------------------------------
# plain-data helpers (no numpy, so plans cost nothing against set-up time)


def load_refs(name: str) -> dict:
    with open(REFS_DIR / f"{name}.json") as handle:
        return json.load(handle)


def plan_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kreinext-bench/{workload}/{seed}")


def draw_theta(rng: random.Random) -> float:
    """Robin coupling away from 0, where the interval search is degenerate."""
    while True:
        theta = round(rng.uniform(*THETA_RANGE), 6)
        if abs(theta) >= 0.05:
            return theta


def to_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def from_pairs(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# model builders (public API only)


def interval_system(kx, theta: float):
    import numpy as np

    system = kx.interval_weyl(kx.IntervalModel(INTERVAL_A))
    return system, kx.ExtensionParams.full(theta * np.eye(2, dtype=complex))


def graph_system(kx, inst: dict):
    import numpy as np

    theta = np.array(inst["theta_re"]) + 1j * np.array(inst["theta_im"])
    system = kx.graph_weyl(kx.GraphModel(tuple(inst["lengths"])))
    return system, kx.ExtensionParams.full(theta)


def points_system(kx, inst: dict):
    import numpy as np

    system = kx.point_weyl(kx.PointModel(np.array(inst["centers"])))
    return system, kx.ExtensionParams.full(np.diag(inst["alpha"]).astype(complex))


# ---------------------------------------------------------------------------
# references and checks


def interval_reference(kx, theta: float, window=WINDOWS["interval"]) -> list:
    """Interval eigenvalues in ``window`` from the scalar secular equations.

    With theta times the identity, det(theta + Gamma(lam)) splits into an
    even and an odd factor. Written as entire functions of lam they have no
    poles, so each sign change on a fine grid brackets one root, which
    ``bisect_root`` polishes.
    """
    import numpy as np

    h = INTERVAL_A / 2.0

    def even(lam):
        if lam < 0.0:
            k = math.sqrt(-lam)
            return theta * math.cos(k * h) - k * math.sin(k * h)
        q = math.sqrt(lam)
        return theta * math.cosh(q * h) + q * math.sinh(q * h)

    def odd(lam):
        if lam < 0.0:
            k = math.sqrt(-lam)
            return theta * math.sin(k * h) / k + math.cos(k * h)
        if lam == 0.0:
            return theta * h + 1.0
        q = math.sqrt(lam)
        return theta * math.sinh(q * h) / q + math.cosh(q * h)

    grid = np.linspace(window[0], window[1], 5501)
    roots = []
    for f in (even, odd):
        values = [f(float(x)) for x in grid]
        for i in range(len(grid) - 1):
            if values[i] == 0.0:
                roots.append(float(grid[i]))
            elif values[i] * values[i + 1] < 0.0:
                roots.append(kx.bisect_root(f, float(grid[i]), float(grid[i + 1]), tol=1e-16))
    return [[lam, 1] for lam in sorted(roots)]


def check_eigenvalues(expected, found) -> None:
    """Raise GateError unless ``found`` matches ``expected`` root for root."""
    if len(found) != len(expected):
        raise GateError(f"found {len(found)} eigenvalues, expected {len(expected)}")
    for (lam, mult), (ref, ref_mult) in zip(sorted(found), sorted(expected)):
        if int(mult) != int(ref_mult):
            raise GateError(f"multiplicity {mult} at {lam!r}, expected {ref_mult}")
        if not abs(lam - ref) <= EIG_RTOL * max(1.0, abs(ref)):
            raise GateError(f"eigenvalue {lam!r} is off the reference {ref!r}")


def summarize(samples) -> dict:
    """Scale, fixed projections and a few node values of one sampled output."""
    import numpy as np

    phi = np.asarray(samples, dtype=complex)
    j = np.arange(phi.size)
    proj = [complex(np.dot(np.cos(0.731 * (k + 1) * j + k), phi)) for k in range(N_PROJECTIONS)]
    return {
        "n": int(phi.size),
        "scale": float(np.max(np.abs(phi))),
        "proj": to_pairs(proj),
        "samples": to_pairs([phi[i] for i in SAMPLE_NODES if i < phi.size]),
    }


def check_summary(ref: dict, got: dict, rtol: float, what: str) -> None:
    if got["n"] != ref["n"]:
        raise GateError(f"{what}: {got['n']} samples, expected {ref['n']}")
    scale = ref["scale"]
    if not abs(got["scale"] - scale) <= rtol * scale:
        raise GateError(f"{what}: scale {got['scale']!r}, expected {scale!r}")
    for key, bound in (("proj", rtol * scale * ref["n"]), ("samples", rtol * scale)):
        for a, b in zip(from_pairs(got[key]), from_pairs(ref[key])):
            if not abs(a - b) <= bound:
                raise GateError(f"{what}: {key} {a!r} off the reference {b!r}")


def check_vector(ref, got, rtol: float, what: str) -> None:
    ref = from_pairs(ref)
    got = from_pairs(got)
    scale = max(abs(v) for v in ref)
    if len(got) != len(ref) or any(not abs(a - b) <= rtol * scale for a, b in zip(got, ref)):
        raise GateError(f"{what}: coefficients off the reference")


def check_scalar(ref: float, got: float, rtol: float, what: str) -> None:
    if not abs(got - ref) <= rtol * abs(ref):
        raise GateError(f"{what}: {got!r} off the reference {ref!r}")


def flat_numbers(value) -> list:
    """All numbers of a parsed JSON document, in sorted-key order."""
    if isinstance(value, bool):
        return [float(value)]
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in flat_numbers(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in flat_numbers(item)]
    return []


def digest_numbers(doc: dict) -> dict:
    """Per top-level key: count, absolute sum and one fixed projection."""
    out = {}
    for key in sorted(doc):
        xs = flat_numbers(doc[key])
        out[key] = {
            "count": len(xs),
            "abs": sum(abs(x) for x in xs),
            "proj": sum(math.cos(0.731 * j + 0.5) * x for j, x in enumerate(xs)),
        }
    return out


def check_digest(ref: dict, got: dict, rtol: float, what: str) -> None:
    if sorted(ref) != sorted(got):
        raise GateError(f"{what}: keys {sorted(got)} differ from {sorted(ref)}")
    for key, r in ref.items():
        g = got[key]
        if g["count"] != r["count"]:
            raise GateError(f"{what}.{key}: {g['count']} numbers, expected {r['count']}")
        if not abs(g["proj"] - r["proj"]) <= rtol * (1.0 + r["abs"]):
            raise GateError(f"{what}.{key}: values off the reference")


# ---------------------------------------------------------------------------
# workloads


def _identity(system):
    return system


class Workload:
    """One benchmark workload: its op plan, set-up, op runner and gate.

    The ``plan`` (plain data, drawn by :func:`make_workload` from the seed
    and the stored references) needs neither numpy nor the package.
    ``build(kx)`` is the program's set-up (systems and extension labels);
    ``prepare(kx)`` writes inputs and computes run-time references. ``run(i, wrap)`` performs op
    ``i`` and returns a compact result, passing every Weyl system through
    ``wrap``; ``check(i, result)`` raises :class:`GateError` on a wrong answer.
    """

    trace_ops = 0  # fixed op count of one traced pass

    def build(self, kx) -> None:
        raise NotImplementedError

    def prepare(self, kx) -> None:
        pass

    def run(self, i: int, wrap=_identity):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def family(self, i: int) -> tuple:
        """Model families op ``i`` uses."""
        raise NotImplementedError

    def expected_roots(self, i: int) -> int:
        """Eigenvalues op ``i`` should find (0 for ops without a search)."""
        return len(self.expected[i % len(self.plan)] or ())


class SpectrumWorkload(Workload):
    trace_ops = 6
    per_family = 24

    def __init__(self, plan: list):
        """``plan``: (family, instance) pairs; graph and point instances
        carry their stored eigenvalues."""
        self.plan = plan
        self.systems = []
        self.expected = [inst.get("eigenvalues") for _, inst in plan]

    def build(self, kx) -> None:
        builders = {
            "interval": lambda inst: interval_system(kx, inst["theta"]),
            "graph": lambda inst: graph_system(kx, inst),
            "points": lambda inst: points_system(kx, inst),
        }
        self.kx = kx
        self.systems = [builders[fam](inst) for fam, inst in self.plan]

    def prepare(self, kx) -> None:
        for i, (fam, inst) in enumerate(self.plan):
            if fam == "interval":
                self.expected[i] = interval_reference(kx, inst["theta"])

    def run(self, i: int, wrap=_identity):
        i %= len(self.plan)
        system, params = self.systems[i]
        result = self.kx.eigenvalue_search(wrap(system), params, WINDOWS[self.plan[i][0]])
        return [[r.lam, r.multiplicity] for r in result.eigenvalues]

    def check(self, i: int, result) -> None:
        check_eigenvalues(self.expected[i % len(self.plan)], result)

    def family(self, i: int) -> tuple:
        return (self.plan[i % len(self.plan)][0],)


class ResolventWorkload(Workload):
    trace_ops = 8

    def __init__(self, ops: list, rtol: float, graphs: list, points: list):
        self.plan = ops
        self.rtol = rtol
        self.expected = [None] * len(ops)
        self.instances = {
            "graph": {op["graph"]: graphs[op["graph"]] for op in ops},
            "points": {op["points"]: points[op["points"]] for op in ops},
        }

    def build(self, kx) -> None:
        import numpy as np

        self.kx = kx
        self.graphs = {k: graph_system(kx, inst) for k, inst in self.instances["graph"].items()}
        self.points = {k: points_system(kx, inst) for k, inst in self.instances["points"].items()}
        self.grid_interval = np.linspace(0.0, INTERVAL_A, GRID_NODES)
        self.psi_interval = kx.poly_bump(INTERVAL_A)(self.grid_interval)
        self.grids, self.psis = {}, {}
        for k, inst in self.instances["graph"].items():
            grids = [np.linspace(0.0, a, GRID_NODES) for a in inst["lengths"]]
            self.grids[k] = grids
            self.psis[k] = [kx.poly_bump(a)(x) for a, x in zip(inst["lengths"], grids)]
        self.ops = [
            (
                complex(*op["z"]),
                interval_system(kx, op["theta"]),
                self._combo(kx, op["graph_terms"]),
                self._combo(kx, op["points_terms"]),
            )
            for op in self.plan
        ]

    @staticmethod
    def _combo(kx, terms):
        import numpy as np

        return kx.GreenCombination(
            tuple((complex(*w), np.array(from_pairs(c))) for w, c in terms)
        )

    def run(self, i: int, wrap=_identity):
        kx = self.kx
        i %= len(self.plan)
        op = self.plan[i]
        z, (isys, iparams), graph_combo, points_combo = self.ops[i]
        gsys, gparams = self.graphs[op["graph"]]
        psys, pparams = self.points[op["points"]]
        isys, gsys, psys = wrap(isys), wrap(gsys), wrap(psys)
        out = {}
        phi = kx.apply_resolvent(isys, iparams, z, self.psi_interval, self.grid_interval)
        out["interval"] = summarize(phi)
        phis = kx.apply_resolvent(gsys, gparams, z, self.psis[op["graph"]], self.grids[op["graph"]])
        out["graph"] = [summarize(p) for p in phis]
        for key, system, params, combo in (
            ("graph_green", gsys, gparams, graph_combo),
            ("points_green", psys, pparams, points_combo),
        ):
            image = kx.apply_resolvent_green(system, params, z, combo)
            out[key] = {
                "coeff": to_pairs(image.coefficient(z)),
                "norm": kx.green_norm(system, image),
            }
        return out

    def check(self, i: int, result) -> None:
        ref = self.plan[i % len(self.plan)]["ref"]
        check_summary(ref["interval"], result["interval"], self.rtol, "interval")
        if len(result["graph"]) != len(ref["graph"]):
            raise GateError("graph: wrong number of edges")
        for e, (r, g) in enumerate(zip(ref["graph"], result["graph"])):
            check_summary(r, g, self.rtol, f"graph edge {e}")
        for key in ("graph_green", "points_green"):
            check_vector(ref[key]["coeff"], result[key]["coeff"], self.rtol, key)
            check_scalar(ref[key]["norm"], result[key]["norm"], self.rtol, key)

    def family(self, i: int) -> tuple:
        return FAMILIES


def _pairs_matrix(re, im) -> list:
    return [[[a, b] for a, b in zip(row_re, row_im)] for row_re, row_im in zip(re, im)]


def job_document(job: dict, graphs: list) -> dict:
    """The JSON job file a user would write for one stored cli job."""
    if job["task"] == "spectrum":
        theta = job["theta"]
        return {
            "model": {"type": "interval", "a": INTERVAL_A},
            "extension": {
                "kind": "params",
                "pi": _pairs_matrix([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
                "theta": _pairs_matrix([[theta, 0.0], [0.0, theta]], [[0.0, 0.0], [0.0, 0.0]]),
            },
            "task": {"name": "spectrum", "window": list(WINDOWS["interval"])},
        }
    inst = graphs[job["graph"]]
    n = 2 * len(inst["lengths"])
    eye = [[float(r == c) for c in range(n)] for r in range(n)]
    zero = [[0.0] * n for _ in range(n)]
    doc = {
        "model": {"type": "graph", "lengths": inst["lengths"]},
        "extension": {
            "kind": "params",
            "pi": _pairs_matrix(eye, zero),
            "theta": _pairs_matrix(inst["theta_re"], inst["theta_im"]),
        },
        "task": {"name": job["task"]},
    }
    if job["task"] == "resolvent":
        doc["task"].update({"z": job["z"], "grid": CLI_GRID, "input": {"preset": "poly_bump"}})
    return doc


def read_artifacts(out_dir: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


class CliWorkload(Workload):
    """Fresh ``python -m kreinext.cli`` processes with ``src`` on the path."""

    trace_ops = 8
    per_task = 2

    def __init__(self, jobs: list, rtol: float, graphs: list, root: Path, scratch: Path):
        self.plan = jobs
        self.rtol = rtol
        self.graphs = graphs
        self.root = root
        self.scratch = scratch
        self.env = child_env(root)
        self.expected = [job.get("eigenvalues") for job in jobs]
        self.first_bytes: dict = {}
        self.seed_bytes_match = 0

    def build(self, kx) -> None:
        import kreinext.cli  # noqa: F401  -- the entry point the ops run

        # Each child builds its own; building them here too keeps setup_s
        # comparable with the in-process workloads.
        self.kx = kx
        self.systems = []
        for job in self.plan:
            if job["task"] == "spectrum":
                self.systems.append(interval_system(kx, job["theta"]))
            else:
                self.systems.append(graph_system(kx, self.graphs[job["graph"]]))

    def prepare(self, kx) -> None:
        jobs_dir = self.scratch / "jobs"
        jobs_dir.mkdir(parents=True, exist_ok=True)
        self.job_files = []
        for i, job in enumerate(self.plan):
            path = jobs_dir / f"{job['name']}.json"
            path.write_text(json.dumps(job_document(job, self.graphs)))
            self.job_files.append(path)
            if job["task"] == "spectrum":
                self.expected[i] = interval_reference(kx, job["theta"])

    def out_dir(self, i: int) -> Path:
        return self.scratch / f"out{i}"

    def command(self, i: int) -> list:
        job = self.job_files[i % len(self.plan)]
        return [sys.executable, "-m", "kreinext.cli", str(job), "--out", str(self.out_dir(i))]

    def run(self, i: int, wrap=_identity):
        """One cold-start job; ``wrap`` is unused, a child cannot be traced."""
        proc = subprocess.run(
            self.command(i), cwd=self.root, env=self.env, capture_output=True, text=True
        )
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}

    def run_inprocess(self, i: int, main):
        code = main(self.command(i)[3:])
        return {"returncode": code, "stderr": ""}

    def check(self, i: int, result) -> None:
        out = self.out_dir(i)
        try:
            self._check(i, result, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, i: int, result, out: Path) -> None:
        job = self.plan[i % len(self.plan)]
        if result["returncode"] != 0:
            raise GateError(f"{job['name']} exited {result['returncode']}: {result['stderr']}")
        hashes = read_artifacts(out)
        first = self.first_bytes.setdefault(job["name"], hashes)
        if hashes != first:
            raise GateError(f"{job['name']}: artifacts differ from an earlier run of the job")
        task = job["task"]
        if task == "spectrum":
            found = []
            lines = (out / "spectrum.csv").read_text().splitlines()
            if lines[0] != "lambda,multiplicity,sigma_min":
                raise GateError("spectrum.csv: unexpected header")
            for line in lines[1:]:
                lam, mult, _ = line.split(",")
                found.append([float(lam), int(mult)])
            check_eigenvalues(self.expected[i % len(self.plan)], found)
        elif task == "resolvent":
            got = resolvent_csv_summaries(out / "resolvent.csv")
            if len(got) != len(job["ref"]):
                raise GateError("resolvent.csv: wrong number of edges")
            for e, (r, g) in enumerate(zip(job["ref"], got)):
                check_summary(r, g, self.rtol, f"resolvent.csv edge {e}")
        elif task == "convert":
            doc = json.loads((out / "convert.json").read_text())
            check_digest(job["ref"], digest_numbers(doc), self.rtol, "convert.json")
        else:
            doc = json.loads((out / "verify.json").read_text())
            flags = [doc.get("passed")] + [c.get("passed") for c in doc.get("checks", {}).values()]
            if not doc.get("checks") or not all(flag is True for flag in flags):
                raise GateError("verify.json: a check did not pass")
        if hashes == job["sha256"]:
            self.seed_bytes_match += 1

    def family(self, i: int) -> tuple:
        return ("interval",) if self.plan[i % len(self.plan)]["task"] == "spectrum" else ("graph",)


def resolvent_csv_summaries(path: Path) -> list:
    """Per-edge summaries of a graph ``resolvent.csv``."""
    edges: dict = {}
    with open(path) as handle:
        if handle.readline().strip() != "edge,x,re_phi,im_phi":
            raise GateError("resolvent.csv: unexpected header")
        for line in handle:
            edge, _, re, im = line.split(",")
            edges.setdefault(int(edge), []).append(complex(float(re), float(im)))
    return [summarize(edges[e]) for e in sorted(edges)]


def child_env(root: Path) -> dict:
    """Environment of a CLI child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env.pop("KREIN_EXT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def make_workload(name: str, seed: int, root: Path, scratch: Path) -> Workload:
    """The workload's op plan for ``seed``, drawn from the stored instances."""
    rng = plan_rng(name, seed)
    graphs = load_refs("graphs")["instances"]
    if name == "spectrum":
        points = load_refs("points")["instances"]
        count = SpectrumWorkload.per_family
        thetas = [draw_theta(rng) for _ in range(count)]
        g_pick = rng.sample(graphs, count)
        p_pick = rng.sample(points, count)
        plan = []
        for k in range(count):
            plan += [("interval", {"theta": thetas[k]}), ("graph", g_pick[k]), ("points", p_pick[k])]
        return SpectrumWorkload(plan)
    if name == "resolvent":
        refs = load_refs("resolvent")
        ops = rng.sample(refs["ops"], len(refs["ops"]))
        return ResolventWorkload(ops, refs["rtol"], graphs, load_refs("points")["instances"])
    if name == "cli":
        refs = load_refs("cli")
        per_task = CliWorkload.per_task
        picks = {t: rng.sample([j for j in refs["jobs"] if j["task"] == t], per_task) for t in CLI_TASKS}
        jobs = [picks[t][k] for k in range(per_task) for t in CLI_TASKS]
        return CliWorkload(jobs, refs["rtol"], graphs, root, scratch)
    raise ValueError(f"unknown workload {name!r}")
