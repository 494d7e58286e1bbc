"""Batch front door: ``kreinext job.json --out results/``.

One JSON job file describes a model, an extension and a task. The command
reads it, hands the task to the library and writes deterministic CSV/JSON
artifacts. The tasks are ``spectrum`` (a search over a real window),
``resolvent`` (its resolvent on a preset input of :mod:`kreinext.verify`),
``convert`` (all four extension parametrizations plus residuals) and
``verify`` (the identity suite of the model's Weyl family).

:data:`FIELDS` declares each job field once, with its JSON path, type,
range and default, and :func:`read_job`, the one reader of a job, walks it.
A field it rejects raises :class:`ConfigError` with a message that starts
with the field's path, as does a ``ValueError`` of the model or label built
from the fields. Keys the table does not name are ignored.

Exit codes: 0 success; 1 invalid configuration (a job too large to
allocate included); 2 unsearchable window or spectral-point z; 3
boundary-pair conditions failed; 4 verification failed; 5 numerical
failure (a non-finite Weyl matrix, a LAPACK breakdown, non-finite
resolvent samples or a spectrum that found fewer eigenvalues than it
counted). A task's handler returns its artifacts and a :class:`JobFailure`
or None; :func:`failure_of` maps each typed exception of a job onto one,
and any other exception propagates. On failure stderr holds that one JSON
error and nothing else: numpy's RuntimeWarnings are recorded, not printed,
and the library's own finiteness checks refuse the values they announce.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import reprlib
import sys
import warnings
from pathlib import Path

import numpy as np

from . import serialize, verify
from .krein import (
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    ModelConsistencyError,
    Resolvent,
    UnsupportedModelError,
    WeylSystem,
)
from .models import (
    GraphModel, GridMismatchError, GridTooCoarseError, IntervalModel, PointModel, SpinPointModel,
    graph_weyl, interval_weyl, point_weyl, spin_weyl,
)
from .parametrize import (
    BoundaryPair,
    PairConditionError,
    pair_from_params,
    params_from_pair,
    relation_from_pair,
    relation_from_params,
    relation_gap,
    von_neumann_block,
)
from .spectral import eigenvalue_search

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SPECTRAL = 2
EXIT_PAIR = 3
EXIT_VERIFY = 4
EXIT_NUMERICAL = 5


class ConfigError(ValueError):
    """Job file rejected before any computation; the message starts with the field's JSON path."""


@dataclasses.dataclass(frozen=True)
class JobFailure:
    """A job's typed failure: exit status, error code, message and optional detail."""

    status: int
    code: str
    message: str
    detail: dict | None = None

    def to_json(self) -> str:
        err = {"code": self.code, "message": self.message}
        if self.detail is not None:
            err["detail"] = self.detail
        return serialize.canonical_json({"error": err})


def failure_of(exc: Exception) -> JobFailure | None:
    """The failure a job's exception stands for, or None for one that is not typed."""
    if isinstance(exc, PairConditionError):
        detail = {"failed": list(exc.failed), "conditions": _conditions_obj(exc.conditions)}
        return JobFailure(EXIT_PAIR, "pair-conditions-failed", str(exc), detail)
    if isinstance(exc, ExtensionSingularError):
        return JobFailure(
            EXIT_SPECTRAL,
            "extension-singular",
            "z lies in the extension's spectrum to working precision",
            {"sigma_min": exc.sigma_min},
        )
    if isinstance(exc, (ModelConsistencyError, np.linalg.LinAlgError)):
        return JobFailure(EXIT_NUMERICAL, "numerical-failure", f"{type(exc).__name__}: {exc}")
    if isinstance(exc, MemoryError):  # numpy raises a private subclass; name the builtin
        return JobFailure(EXIT_CONFIG, "invalid-config", f"MemoryError: {exc}")
    if isinstance(exc, (ConfigError, json.JSONDecodeError, UnicodeDecodeError, OSError, ExcludedPointError,
                        UnsupportedModelError, GridTooCoarseError, GridMismatchError)):
        return JobFailure(EXIT_CONFIG, "invalid-config", f"{type(exc).__name__}: {exc}")
    return None


def _conditions_obj(cond) -> dict:
    return {**dataclasses.asdict(cond), "consistent": cond.consistent}


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(fields, system, params, given):
    result = eigenvalue_search(system, params, fields["task.window"])

    eigs = result.eigenvalues
    columns = [
        np.array([r.lam for r in eigs], dtype=float),
        np.array([r.multiplicity for r in eigs], dtype=int),
        np.array([r.sigma_min for r in eigs], dtype=float),
    ]
    gaps = np.reshape(np.asarray(result.gaps, dtype=float), (-1, 2))
    doc = {
        "eigenvalues": [
            {
                "lambda": r.lam,
                "multiplicity": r.multiplicity,
                "sigma_min": r.sigma_min,
                "null_basis": r.null_basis.T,
            }
            for r in eigs
        ],
        "gaps": gaps,
        "metadata": result.metadata,
    }
    files = {
        "spectrum.csv": serialize.csv_text(["lambda", "multiplicity", "sigma_min"], columns),
        "spectrum_gaps.csv": serialize.csv_text(["lo", "hi"], gaps.T),
        "spectrum.json": serialize.canonical_json(doc),
    }
    meta = result.metadata
    if not meta["segments"]:
        return files, JobFailure(
            EXIT_SPECTRAL, "unsearchable-window", "the whole window lies in the excluded spectral set"
        )
    if meta["expected_count"] != meta["found_count"]:
        counts = {key: meta[key] for key in ("expected_count", "found_count")}
        message = "the search found fewer eigenvalues than it counted"
        return files, JobFailure(EXIT_NUMERICAL, "incomplete-spectrum", message, counts)
    return files, None


# ---------------------------------------------------------------------------
# resolvent


def cmd_resolvent(fields, system, params, given):
    z, nodes, spec = fields["task.z"], fields["task.grid"], fields["task.input"]
    grids = verify.edge_grids(system, nodes)
    psi = verify.preset_samples(system, spec, z, grids)

    resolvent = Resolvent(system, params, z)
    sigma_min = resolvent.sigma_min if resolvent.m.size else None
    phi = resolvent.apply(psi, grids)

    # the interval's samples are one bare array, a graph's one array per edge
    if system.bare:
        header, columns = ["x", "re_phi", "im_phi"], [grids, phi.real, phi.imag]
    else:
        edge = np.repeat(np.arange(len(grids)), [len(xs) for xs in grids])
        phi = np.concatenate(phi)
        header = ["edge", "x", "re_phi", "im_phi"]
        columns = [edge, np.concatenate(grids), phi.real, phi.imag]
    doc = {
        "z": serialize.complex_to_pair(z),
        "sigma_min": sigma_min,
        "grid": nodes,
        "input": spec,
    }
    return {
        "resolvent.csv": serialize.csv_text(header, columns),
        "resolvent.json": serialize.canonical_json(doc),
    }, None


# ---------------------------------------------------------------------------
# convert


def cmd_convert(fields, system, params, given):
    round_pair = pair_from_params(params)
    pair = given or round_pair

    # both kinds go round params -> pair -> params
    round_params = params_from_pair(round_pair)
    rel_params = relation_from_params(params)
    rel_pair = relation_from_pair(pair)
    gap = relation_gap(rel_params, rel_pair)
    block = von_neumann_block(system, params)

    doc = {
        "params": {"pi": params.pi, "theta": params.theta},
        "pair": {"b1": pair.b1, "b2": pair.b2},
        "conditions": _conditions_obj(pair.conditions),
        "relation_from_params": {"dim_h": rel_params.dim_h, "basis": rel_params.basis},
        "relation_from_pair": {"dim_h": rel_pair.dim_h, "basis": rel_pair.basis},
        "relation_gap": gap,
        "round_trip": {
            "pi_residual": float(np.linalg.norm(round_params.pi - params.pi, 2)),
            "theta_residual": float(np.linalg.norm(round_params.theta - params.theta, 2)),
        },
        "von_neumann": {
            "m": block.m,
            "q": block.q,
            "gamma_hat": block.gamma_hat,
            "unitarity_residual": block.unitarity_residual(),
        },
    }
    return {"convert.json": serialize.canonical_json(doc)}, None


# ---------------------------------------------------------------------------
# verify


def cmd_verify(fields, system, params, given):
    checks = verify.run_verify(system, params)
    passed = all(c["passed"] for c in checks.values())
    doc = {"checks": checks, "passed": passed}
    files = {"verify.json": serialize.canonical_json(doc)}
    if not passed:
        failed = sorted(k for k, c in checks.items() if not c["passed"])
        return files, JobFailure(
            EXIT_VERIFY, "verification-failed", "identity checks failed", {"failed": failed}
        )
    return files, None


# ---------------------------------------------------------------------------
# entry point


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "resolvent": cmd_resolvent,
    "convert": cmd_convert,
    "verify": cmd_verify,
}


REQUIRED = object()  # the default of a field that a job must give
MODELS = {"interval": IntervalModel, "graph": GraphModel, "points": PointModel, "spin_points": SpinPointModel}
LABELS = {"params": ExtensionParams, "pair": BoundaryPair}
# closed ranges of the job's numbers; a complex range holds each part
LENGTHS = (1e-6, 1e6)  # interval and edge lengths
COORDINATES = (-1e6, 1e6)  # point-model centre coordinates
LARGE = (-1e12, 1e12)  # window ends, spin shifts b, the sin_k preset's k, complex parts
MAX_GRID_SAMPLES = 2**20  # edges x nodes of a resolvent grid; about 0.6 GB at the cap
NODES = (0, MAX_GRID_SAMPLES)  # resolvent grid nodes per edge; below 501 the sampled kernels refuse it

# Every job field, as (JSON path, the choice it belongs to as (path, values)
# or None, type, range, default); :func:`read_job` says how they are read.
FIELDS = (
    ("task", None, "object", None, REQUIRED),
    ("task.name", None, "choice", tuple(_HANDLERS), REQUIRED),
    ("task.window", ("task.name", ("spectrum",)), "window", LARGE, REQUIRED),
    ("task.z", ("task.name", ("resolvent",)), "complex", LARGE, [1.0, 1.0]),
    ("task.grid", ("task.name", ("resolvent",)), "integer", NODES, 2000),
    ("task.input", ("task.name", ("resolvent",)), "object", None, {"preset": "sin_k", "k": 1}),
    ("task.input.preset", None, "choice", tuple(verify.PRESETS), REQUIRED),
    ("task.input.k", ("task.input.preset", ("sin_k",)), "integer", LARGE, 1),
    ("model", None, "object", None, REQUIRED),
    ("model.type", ("task.name", ("resolvent",)), "choice", ("interval", "graph"), REQUIRED),
    ("model.type", ("task.name", ("spectrum", "convert", "verify")), "choice", tuple(MODELS), REQUIRED),
    ("model.a", ("model.type", ("interval",)), "real", LENGTHS, REQUIRED),
    ("model.lengths", ("model.type", ("graph",)), "reals", LENGTHS, REQUIRED),
    ("model.centers", ("model.type", ("points", "spin_points")), "points", COORDINATES, REQUIRED),
    ("model.b", ("model.type", ("spin_points",)), "reals", LARGE, REQUIRED),
    ("extension", ("task.name", ("spectrum", "resolvent", "verify")), "object", None, None),
    ("extension", ("task.name", ("convert",)), "object", None, REQUIRED),
    ("extension.kind", None, "choice", tuple(LABELS), REQUIRED),
    ("extension.pi", ("extension.kind", ("params",)), "matrix", LARGE, REQUIRED),
    ("extension.theta", ("extension.kind", ("params",)), "matrix", LARGE, REQUIRED),
    ("extension.b1", ("extension.kind", ("pair",)), "matrix", LARGE, REQUIRED),
    ("extension.b2", ("extension.kind", ("pair",)), "matrix", LARGE, REQUIRED),
)


def _in(value, limits) -> bool:
    """True for a JSON number in the closed range ``limits``; a bool is no number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and limits[0] <= value <= limits[1]


def _checked(ok: bool, value, path: str, expected: str):
    """``value`` if ``ok``, else the ConfigError that names ``path``."""
    if not ok:
        got = "nothing" if value is REQUIRED else reprlib.repr(value)
        raise ConfigError(f"{path}: expected {expected}, got {got}")
    return value


def _span(limits) -> str:
    return "[{:.10g}, {:.10g}]".format(*limits)


def _object(value, path, _):
    return _checked(isinstance(value, dict), value, path, "an object")


def _choice(value, path, choices):
    expected = "one of " + ", ".join(map(repr, choices))
    return _checked(isinstance(value, str) and value in choices, value, path, expected)


def _integer(value, path, limits):
    ok = isinstance(value, int) and _in(value, limits)
    return _checked(ok, value, path, f"an integer in {_span(limits)}")


def _real(value, path, limits):
    return float(_checked(_in(value, limits), value, path, f"a real in {_span(limits)}"))


def _reals(value, path, limits, count=None):
    ok = isinstance(value, list) and (len(value) == count if count else len(value) > 0)
    _checked(ok, value, path, f"a list of {count or 'one or more'} reals")
    return [_real(x, f"{path}[{i}]", limits) for i, x in enumerate(value)]


def _points(value, path, limits):
    _checked(isinstance(value, list) and len(value) > 0, value, path, "a list of one or more points")
    return [_reals(point, f"{path}[{i}]", limits, 3) for i, point in enumerate(value)]


def _window(value, path, limits):
    lo, hi = _reals(value, path, limits, 2)
    return _checked(lo < hi, value, path, "[lo, hi] with lo < hi")


def complex_from_pair(obj, path: str, limits) -> complex:
    """The complex number of an [re, im] pair of JSON numbers in ``limits``."""
    ok = isinstance(obj, list) and len(obj) == 2 and all(_in(x, limits) for x in obj)
    _checked(ok, obj, path, f"[re, im] with reals in {_span(limits)}")
    return complex(float(obj[0]), float(obj[1]))


def matrix_from_lists(obj, path: str, limits) -> np.ndarray:
    """The complex square matrix of a list of n rows of n [re, im] entries."""
    rows = obj if isinstance(obj, list) and all(isinstance(row, list) for row in obj) else []
    square = rows and all(len(row) == len(rows) for row in rows)
    _checked(square, obj, path, "a square matrix of [re, im] entries")
    entries = [
        [complex_from_pair(v, f"{path}[{i}][{j}]", limits) for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return np.array(entries, dtype=complex)


_READERS = {
    "object": _object, "choice": _choice, "integer": _integer, "real": _real, "reals": _reals,
    "window": _window, "points": _points, "complex": complex_from_pair, "matrix": matrix_from_lists,
}


def _built(values: dict, path: str, choice: str, classes: dict):
    """The object of the class that field ``path.choice`` names, from the other fields under ``path``."""
    prefix = path + "."
    fields = {p[len(prefix):]: v for p, v in values.items() if p.startswith(prefix) and p != prefix + choice}
    try:
        return classes[values[prefix + choice]](**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _weyl_for(model) -> WeylSystem:
    """The model's Weyl system, by the builder its class names (looked up when a job runs)."""
    builders = {IntervalModel: interval_weyl, GraphModel: graph_weyl, PointModel: point_weyl,
                SpinPointModel: spin_weyl}
    return builders[type(model)](model)


def read_job(doc):
    """The job document ``doc`` read by :data:`FIELDS`: (fields, system, params, given).

    Each row is read in order when its parent object is not null and its
    choice holds, and a field whose default is None may be null. ``fields``
    maps each path read to its value. A resolvent grid holds at most
    :data:`MAX_GRID_SAMPLES` nodes over all its edges. No extension is the Neumann-type
    label; ``given`` is a pair-kind extension's boundary pair, else None.
    """
    values = {"": _object(doc, "job", None)}
    for path, when, kind, limits, default in FIELDS:
        parent, _, key = path.rpartition(".")
        if values.get(parent) is None or (when and values.get(when[0]) not in when[1]):
            continue
        value = values[parent].get(key, default)
        values[path] = None if value is None and default is None else _READERS[kind](value, path, limits)
    system = _weyl_for(_built(values, "model", "type", MODELS))
    if "task.grid" in values:  # a resolvent job, so an edge model
        edges, nodes = len(system.lengths), values["task.grid"]
        if edges * nodes > MAX_GRID_SAMPLES:
            raise ConfigError(f"task.grid: expected edges x nodes at most {MAX_GRID_SAMPLES}, got {edges} x {nodes}")
    n = system.n
    label = None if values["extension"] is None else _built(values, "extension", "kind", LABELS)
    given = label if isinstance(label, BoundaryPair) else None
    if label is None:
        params = ExtensionParams.full(np.zeros((n, n), dtype=complex))
    else:
        params = label if given is None else params_from_pair(given)
    if params.n != n:
        raise ConfigError(f"extension: dimension {params.n} does not match the model boundary dimension {n}")
    return values, system, params, given


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kreinext",
        description="Self-adjoint extension toolkit: spectra, resolvents, parametrizations.",
    )
    parser.add_argument("config", help="JSON job description")
    parser.add_argument("--out", default=".", help="artifact directory (default: .)")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.config).read_text())
        with warnings.catch_warnings(record=True):
            fields, system, params, given = read_job(doc)
            files, failure = _HANDLERS[fields["task.name"]](fields, system, params, given)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with open(Path(args.out, name), "w", newline="\n") as handle:
                handle.write(text)
    except Exception as exc:
        failure = failure_of(exc)
        if failure is None:
            raise
    if failure is None:
        return EXIT_OK
    sys.stderr.write(failure.to_json())
    return failure.status


if __name__ == "__main__":
    raise SystemExit(main())
