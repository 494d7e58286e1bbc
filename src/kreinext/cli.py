"""Batch front door.

One JSON job file describes a model, an extension and a task; the command
parses it, hands the task to the library and writes deterministic CSV/JSON
artifacts::

    kreinext job.json --out results/

Tasks: ``spectrum`` (:func:`kreinext.spectral.eigenvalue_search` over a real
window), ``resolvent`` (:class:`kreinext.krein.Resolvent` applied to a preset
input of :mod:`kreinext.verify`), ``convert`` (all four extension
parametrizations plus residuals) and ``verify``
(:func:`kreinext.verify.run_verify`, the identity suite of the model's Weyl
family).

Exit codes: 0 success; 1 invalid configuration (a job too large to
allocate included); 2 unsearchable window or spectral-point z; 3
boundary-pair conditions failed; 4 verification failed; 5 numerical
failure (a non-finite Weyl matrix, a LAPACK breakdown, non-finite
resolvent samples or a spectrum that found fewer eigenvalues than it
counted). :func:`main` builds the job's Weyl system and extension label
once and hands them, with the boundary pair a pair-kind job gave, to the
task's handler. A handler returns its artifacts and a
:class:`JobFailure` or None; :func:`failure_of` maps every exception a job
raises onto one. On failure stderr holds that one JSON error and nothing
else: numpy's RuntimeWarnings are recorded, not printed, and the library's
own finiteness checks refuse the values they announce.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import serialize, verify
from .krein import (
    EdgeWeylSystem,
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    ModelConsistencyError,
    Resolvent,
    UnsupportedModelError,
    WeylSystem,
)
from .models import GraphModel, IntervalModel, PointModel, graph_weyl, interval_weyl, point_weyl, spin_weyl
from .parametrize import (
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
    """Job file rejected before any computation."""


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
    """The failure a job's exception stands for, or None for an unexpected one."""
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
    # before the config rule: LinAlgError subclasses ValueError
    if isinstance(exc, (ModelConsistencyError, np.linalg.LinAlgError)):
        return JobFailure(EXIT_NUMERICAL, "numerical-failure", f"{type(exc).__name__}: {exc}")
    if isinstance(exc, MemoryError):  # numpy raises a private subclass; name the builtin
        return JobFailure(EXIT_CONFIG, "invalid-config", f"MemoryError: {exc}")
    if isinstance(exc, (ExcludedPointError, UnsupportedModelError, KeyError, TypeError, ValueError, OSError)):
        return JobFailure(EXIT_CONFIG, "invalid-config", f"{type(exc).__name__}: {exc}")
    return None


def _conditions_obj(cond) -> dict:
    return {**dataclasses.asdict(cond), "consistent": cond.consistent}


def _weyl_for(model) -> WeylSystem:
    if isinstance(model, IntervalModel):
        return interval_weyl(model)
    if isinstance(model, GraphModel):
        return graph_weyl(model)
    if isinstance(model, PointModel):
        return point_weyl(model)
    return spin_weyl(model)


def _load_extension(obj, n: int):
    """The job's extension label, and the boundary pair a pair-kind job gave (else None).

    No extension is the Neumann-type label (pi = 1, theta = 0).
    """
    if obj is None:
        return ExtensionParams.full(np.zeros((n, n), dtype=complex)), None
    if not isinstance(obj, dict):
        raise ConfigError(f"extension must be an object with a 'kind', got {obj!r}")
    kind = obj.get("kind")
    pair = None
    if kind == "params":
        params = serialize.params_from_obj(obj)
    elif kind == "pair":
        pair = serialize.pair_from_obj(obj)
        params = params_from_pair(pair)
    else:
        raise ConfigError(f"extension kind must be 'params' or 'pair', got {kind!r}")
    if params.n != n:
        raise ConfigError(
            f"extension dimension {params.n} does not match the model boundary dimension {n}"
        )
    return params, pair


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(config, system, params, given):
    task = config["task"]
    window = task.get("window")
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not float(window[0]) < float(window[1])
    ):
        raise ConfigError(f"spectrum task needs a real window [lo, hi], got {window!r}")
    result = eigenvalue_search(system, params, window)

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


def cmd_resolvent(config, system, params, given):
    task = config["task"]
    if not isinstance(system, EdgeWeylSystem):
        raise ConfigError(
            "resolvent task needs a quadrature model (interval or graph); "
            "point models support Green-function combinations in-process only"
        )
    z = serialize.complex_from_pair(task.get("z", [1.0, 1.0]))
    nodes = int(task.get("grid", 2000))
    grids = verify.edge_grids(system, nodes)
    spec = task.get("input", {"preset": "sin_k", "k": 1})
    if not isinstance(spec, dict):
        raise ConfigError(f"resolvent input must be an object with a 'preset', got {spec!r}")
    if spec.get("preset") not in verify.PRESETS:
        raise ConfigError(f"unknown input preset {spec.get('preset')!r}")
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


def cmd_convert(config, system, params, given):
    if config.get("extension") is None:
        raise ConfigError("convert task needs an extension")
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


def cmd_verify(config, system, params, given):
    task = config["task"]
    fault = task.get("fault")
    if fault == "negate_gamma":
        original = system.gamma
        system = dataclasses.replace(system, gamma=lambda z: -original(z))
    elif fault is not None:
        raise ConfigError(f"unknown fault flag {fault!r}")

    checks = verify.run_verify(system, params)
    passed = all(c["passed"] for c in checks.values())
    doc = {"checks": checks, "passed": passed, "fault": fault}
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


def _read_job(path, grid) -> dict:
    """The job file's object, with a known task and a model; ``--grid`` goes into the task."""
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ConfigError("job file must hold a JSON object")
    task = config.get("task")
    if not isinstance(task, dict) or "name" not in task:
        raise ConfigError("job needs a task object with a 'name'")
    if task["name"] not in _HANDLERS:
        raise ConfigError(f"unknown task {task['name']!r}")
    if "model" not in config:
        raise ConfigError("job needs a model descriptor")
    if grid is not None:
        task["grid"] = grid
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kreinext",
        description="Self-adjoint extension toolkit: spectra, resolvents, parametrizations.",
    )
    parser.add_argument("config", help="JSON job description")
    parser.add_argument("--out", default=".", help="artifact directory (default: .)")
    parser.add_argument(
        "--grid", type=int, default=None,
        help="override the resolvent sample density (nodes per edge)",
    )
    args = parser.parse_args(argv)

    try:
        config = _read_job(args.config, args.grid)
        with warnings.catch_warnings(record=True):
            system = _weyl_for(serialize.model_from_obj(config["model"]))
            params, given = _load_extension(config.get("extension"), system.n)
            files, failure = _HANDLERS[config["task"]["name"]](config, system, params, given)
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
