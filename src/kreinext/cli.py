"""Batch front door.

One JSON job file describes a model, an extension and a task; the command
parses it, hands the task to the library and writes deterministic CSV/JSON
artifacts::

    kreinext job.json --out results/

Tasks: ``spectrum`` (:func:`kreinext.spectral.eigenvalue_search` over a real
window), ``resolvent`` (:func:`kreinext.krein.apply_resolvent` on a preset
input of :mod:`kreinext.verify`), ``convert`` (all four extension
parametrizations plus residuals) and ``verify``
(:func:`kreinext.verify.run_verify`, the identity suite of the model's Weyl
family).

Exit codes: 0 success; 1 invalid configuration; 2 unsearchable window or
spectral-point z; 3 boundary-pair conditions failed; 4 verification failed;
5 numerical failure (a non-finite Weyl matrix, a LAPACK breakdown or
non-finite resolvent samples).
Errors are mirrored as machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize, verify
from .krein import (
    EdgeWeylSystem,
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    ModelConsistencyError,
    UnsupportedModelError,
    WeylSystem,
    apply_resolvent,
    secular_matrix,
)
from .linalg import min_singular
from .models import GraphModel, IntervalModel, PointModel, graph_weyl, interval_weyl, point_weyl, spin_weyl
from .parametrize import (
    PairConditionError,
    check_pair_conditions,  # noqa: F401  unused here; the benchmark's tracer wraps this name
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


def _fail(code: str, message: str, detail=None) -> dict:
    err = {"code": code, "message": message}
    if detail is not None:
        err["detail"] = detail
    return {"error": err}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _weyl_for(model) -> WeylSystem:
    if isinstance(model, IntervalModel):
        return interval_weyl(model)
    if isinstance(model, GraphModel):
        return graph_weyl(model)
    if isinstance(model, PointModel):
        return point_weyl(model)
    return spin_weyl(model)


def _load_extension(obj, n: int) -> ExtensionParams:
    if obj is None:
        return ExtensionParams.full(np.zeros((n, n), dtype=complex))
    kind = obj.get("kind")
    if kind == "params":
        params = serialize.params_from_obj(obj)
    elif kind == "pair":
        params = params_from_pair(serialize.pair_from_obj(obj))
    else:
        raise ConfigError(f"extension kind must be 'params' or 'pair', got {kind!r}")
    if params.n != n:
        raise ConfigError(
            f"extension dimension {params.n} does not match the model boundary dimension {n}"
        )
    return params


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(config, out_dir: Path, grid_override) -> int:
    task = config["task"]
    window = task.get("window")
    if (
        not isinstance(window, (list, tuple))
        or len(window) != 2
        or not float(window[0]) < float(window[1])
    ):
        raise ConfigError(f"spectrum task needs a real window [lo, hi], got {window!r}")
    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    params = _load_extension(config.get("extension"), system.n)
    result = eigenvalue_search(system, params, window)

    eigs = result.eigenvalues
    columns = [
        np.array([r.lam for r in eigs], dtype=float),
        np.array([r.multiplicity for r in eigs], dtype=int),
        np.array([r.sigma_min for r in eigs], dtype=float),
    ]
    gaps = np.reshape(np.asarray(result.gaps, dtype=float), (-1, 2))
    _write(out_dir / "spectrum.csv", serialize.csv_text(["lambda", "multiplicity", "sigma_min"], columns))
    _write(out_dir / "spectrum_gaps.csv", serialize.csv_text(["lo", "hi"], gaps.T))
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
    _write(out_dir / "spectrum.json", serialize.canonical_json(doc))
    if not result.metadata["segments"]:
        sys.stderr.write(
            serialize.canonical_json(
                _fail("unsearchable-window", "the whole window lies in the excluded spectral set")
            )
        )
        return EXIT_SPECTRAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# resolvent


def cmd_resolvent(config, out_dir: Path, grid_override) -> int:
    task = config["task"]
    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    if not isinstance(system, EdgeWeylSystem):
        raise ConfigError(
            "resolvent task needs a quadrature model (interval or graph); "
            "point models support Green-function combinations in-process only"
        )
    params = _load_extension(config.get("extension"), system.n)
    z = serialize.complex_from_pair(task.get("z", [1.0, 1.0]))
    nodes = int(grid_override if grid_override is not None else task.get("grid", 2000))
    grids = verify.edge_grids(system, nodes)
    spec = task.get("input", {"preset": "sin_k", "k": 1})
    if spec.get("preset") not in verify.PRESETS:
        raise ConfigError(f"unknown input preset {spec.get('preset')!r}")
    psi = verify.preset_samples(system, spec, z, grids)

    m = secular_matrix(system, params, z)
    sigma = min_singular(m) if m.size else None
    phi = apply_resolvent(system, params, z, psi, grids)

    # the interval's samples are one bare array, a graph's one array per edge
    if system.bare:
        header, columns = ["x", "re_phi", "im_phi"], [grids, phi.real, phi.imag]
    else:
        edge = np.repeat(np.arange(len(grids)), [len(xs) for xs in grids])
        phi = np.concatenate(phi)
        header = ["edge", "x", "re_phi", "im_phi"]
        columns = [edge, np.concatenate(grids), phi.real, phi.imag]
    _write(out_dir / "resolvent.csv", serialize.csv_text(header, columns))
    doc = {
        "z": serialize.complex_to_pair(z),
        "sigma_min": sigma,
        "grid": nodes,
        "input": spec,
    }
    _write(out_dir / "resolvent.json", serialize.canonical_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert


def _conditions_obj(cond) -> dict:
    return {
        "comm_residual": cond.comm_residual,
        "comm_ok": cond.comm_ok,
        "nondeg_sigma": cond.nondeg_sigma,
        "nondeg_ok": cond.nondeg_ok,
        "joint_kernel_ok": cond.joint_kernel_ok,
        "normalization_sigma": cond.normalization_sigma,
        "normalization_ok": cond.normalization_ok,
        "consistent": cond.consistent,
    }


def cmd_convert(config, out_dir: Path, grid_override) -> int:
    ext = config.get("extension")
    if ext is None:
        raise ConfigError("convert task needs an extension")
    if ext.get("kind") == "pair":
        pair = serialize.pair_from_obj(ext)
        conditions = pair.conditions
        if not conditions.all_ok:
            sys.stderr.write(
                serialize.canonical_json(
                    _fail(
                        "pair-conditions-failed",
                        "boundary pair violates its defining conditions",
                        {"failed": list(conditions.failed), "conditions": _conditions_obj(conditions)},
                    )
                )
            )
            return EXIT_PAIR
        params = params_from_pair(pair)
        round_pair = pair_from_params(params)
    elif ext.get("kind") == "params":
        params = serialize.params_from_obj(ext)
        pair = round_pair = pair_from_params(params)
    else:
        raise ConfigError(f"extension kind must be 'params' or 'pair', got {ext.get('kind')!r}")

    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    if params.n != system.n:
        raise ConfigError(
            f"extension dimension {params.n} does not match model boundary dimension {system.n}"
        )

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
    _write(out_dir / "convert.json", serialize.canonical_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config, out_dir: Path, grid_override) -> int:
    task = config["task"]
    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    fault = task.get("fault")
    if fault == "negate_gamma":
        original = system.gamma
        system = dataclasses.replace(system, gamma=lambda z: -original(z))
    elif fault is not None:
        raise ConfigError(f"unknown fault flag {fault!r}")
    params = _load_extension(config.get("extension"), system.n)

    checks = verify.run_verify(system, params)
    passed = all(c["passed"] for c in checks.values())
    doc = {"checks": checks, "passed": passed, "fault": fault}
    _write(out_dir / "verify.json", serialize.canonical_json(doc))
    if not passed:
        failed = sorted(k for k, c in checks.items() if not c["passed"])
        sys.stderr.write(
            serialize.canonical_json(
                _fail("verification-failed", "identity checks failed", {"failed": failed})
            )
        )
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "resolvent": cmd_resolvent,
    "convert": cmd_convert,
    "verify": cmd_verify,
}


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
        with open(args.config) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigError("job file must hold a JSON object")
        task = config.get("task")
        if not isinstance(task, dict) or "name" not in task:
            raise ConfigError("job needs a task object with a 'name'")
        name = task["name"]
        if name not in _HANDLERS:
            raise ConfigError(f"unknown task {name!r}")
        if "model" not in config:
            raise ConfigError("job needs a model descriptor")
        return _HANDLERS[name](config, Path(args.out), args.grid)
    except PairConditionError as exc:
        sys.stderr.write(
            serialize.canonical_json(
                _fail("pair-conditions-failed", str(exc), {"failed": list(exc.failed)})
            )
        )
        return EXIT_PAIR
    except ExtensionSingularError as exc:
        sys.stderr.write(
            serialize.canonical_json(
                _fail(
                    "extension-singular",
                    "z lies in the extension's spectrum to working precision",
                    {"sigma_min": exc.sigma_min},
                )
            )
        )
        return EXIT_SPECTRAL
    except (ModelConsistencyError, np.linalg.LinAlgError) as exc:
        # before the ValueError clause: LinAlgError subclasses ValueError
        sys.stderr.write(
            serialize.canonical_json(_fail("numerical-failure", f"{type(exc).__name__}: {exc}"))
        )
        return EXIT_NUMERICAL
    except (ConfigError, ExcludedPointError, UnsupportedModelError, KeyError, TypeError, ValueError, OSError) as exc:
        sys.stderr.write(
            serialize.canonical_json(_fail("invalid-config", f"{type(exc).__name__}: {exc}"))
        )
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
