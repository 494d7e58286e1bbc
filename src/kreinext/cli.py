"""Batch front door.

One JSON job file describes a model, an extension and a task; the command
runs it and writes deterministic CSV/JSON artifacts::

    kreinext job.json --out results/

Tasks: ``spectrum`` (secular eigenvalue search over a real window),
``resolvent`` (sampled resolvent application for a preset input),
``convert`` (all four extension parametrizations plus residuals) and
``verify`` (the identity suite of the model's Weyl family).

Exit codes: 0 success; 1 invalid configuration; 2 unsearchable window or
spectral-point z; 3 boundary-pair conditions failed; 4 verification failed;
5 numerical failure (a non-finite Weyl matrix or a LAPACK breakdown).
Errors are mirrored as machine-readable JSON on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .krein import (
    ExcludedPointError,
    ExtensionParams,
    ExtensionSingularError,
    ModelConsistencyError,
    UnsupportedModelError,
    WeylSystem,
    apply_resolvent,
    conjugation_residual,
    difference_identity_residual,
    green_identity_residual,
    secular_matrix,
)
from .linalg import min_singular
from .models import (
    GraphModel,
    IntervalModel,
    PointModel,
    _interval_gamma,
    graph_weyl,
    interval_weyl,
    point_weyl,
    poly_bump,
    sine_mode,
    spin_weyl,
)
from .oracle import simpson_gram
from .parametrize import (
    PairConditionError,
    check_pair_conditions,
    pair_from_params,
    params_from_pair,
    relation_from_pair,
    relation_from_params,
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


def _edge_grids(system: WeylSystem, nodes: int):
    grids = [np.linspace(0.0, length, nodes) for length in system.edge_lengths]
    return grids[0] if system.kind == "interval" else grids


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

    rows = [(r.lam, r.multiplicity, r.sigma_min) for r in result.eigenvalues]
    _write(out_dir / "spectrum.csv", serialize.csv_text(["lambda", "multiplicity", "sigma_min"], rows))
    _write(out_dir / "spectrum_gaps.csv", serialize.csv_text(["lo", "hi"], list(result.gaps)))
    doc = {
        "eigenvalues": [
            {
                "lambda": r.lam,
                "multiplicity": r.multiplicity,
                "sigma_min": r.sigma_min,
                "null_basis": [
                    serialize.vector_to_lists(r.null_basis[:, j])
                    for j in range(r.multiplicity)
                ],
            }
            for r in result.eigenvalues
        ],
        "gaps": [[a, b] for a, b in result.gaps],
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


def _kernel_column(length: float, z: complex, center: float, x: np.ndarray) -> np.ndarray:
    if z == 0:
        lo = np.minimum(x, center)
        hi = np.maximum(x, center)
        return (lo * (length - hi) / length).astype(complex)
    k = np.sqrt(complex(-z))
    lo = np.minimum(x, center)
    hi = np.maximum(x, center)
    return np.sin(k * lo) * np.sin(k * (length - hi)) / (k * np.sin(k * length))


def _preset_samples(system: WeylSystem, task, z: complex, grids):
    spec = task.get("input", {"preset": "sin_k", "k": 1})
    preset = spec.get("preset")
    glist = [grids] if system.kind == "interval" else grids
    out = []
    for length, x in zip(system.edge_lengths, glist):
        if preset == "sin_k":
            k = int(spec.get("k", 1))
            out.append(np.sin(k * np.pi * x / length).astype(complex))
        elif preset == "poly_bump":
            out.append(poly_bump(length)(x))
        elif preset == "green_at_center":
            out.append(_kernel_column(length, z, length / 2.0, x))
        else:
            raise ConfigError(f"unknown input preset {preset!r}")
    return out[0] if system.kind == "interval" else out


def cmd_resolvent(config, out_dir: Path, grid_override) -> int:
    task = config["task"]
    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    if system.r_apply is None:
        raise ConfigError(
            "resolvent task needs a quadrature model (interval or graph); "
            "point models support Green-function combinations in-process only"
        )
    params = _load_extension(config.get("extension"), system.n)
    z = serialize.complex_from_pair(task.get("z", [1.0, 1.0]))
    nodes = int(grid_override or task.get("grid", 2000))
    grids = _edge_grids(system, nodes)
    psi = _preset_samples(system, task, z, grids)

    m = secular_matrix(system, params, z)
    sigma = min_singular(m) if m.size else None
    phi = apply_resolvent(system, params, z, psi, grids)

    if system.kind == "interval":
        rows = [(x, v.real, v.imag) for x, v in zip(grids, phi)]
        _write(out_dir / "resolvent.csv", serialize.csv_text(["x", "re_phi", "im_phi"], rows))
    else:
        rows = [
            (e, x, v.real, v.imag)
            for e, (xs, vs) in enumerate(zip(grids, phi))
            for x, v in zip(xs, vs)
        ]
        _write(
            out_dir / "resolvent.csv",
            serialize.csv_text(["edge", "x", "re_phi", "im_phi"], rows),
        )
    doc = {
        "z": serialize.complex_to_pair(z),
        "sigma_min": sigma,
        "grid": nodes,
        "input": task.get("input", {"preset": "sin_k", "k": 1}),
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
        conditions = check_pair_conditions(pair)
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
    elif ext.get("kind") == "params":
        params = serialize.params_from_obj(ext)
        pair = pair_from_params(params)
        conditions = check_pair_conditions(pair)
    else:
        raise ConfigError(f"extension kind must be 'params' or 'pair', got {ext.get('kind')!r}")

    model = serialize.model_from_obj(config["model"])
    system = _weyl_for(model)
    if params.n != system.n:
        raise ConfigError(
            f"extension dimension {params.n} does not match model boundary dimension {system.n}"
        )

    round_params = params_from_pair(pair)
    rel_params = relation_from_params(params)
    rel_pair = relation_from_pair(pair)
    from .linalg import orthonormal_span

    q1 = orthonormal_span(rel_params.basis)
    q2 = orthonormal_span(rel_pair.basis)
    gap = float(np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T, 2))
    block = von_neumann_block(system, params)

    doc = {
        "params": serialize.params_to_obj(params),
        "pair": serialize.pair_to_obj(pair),
        "conditions": _conditions_obj(conditions),
        "relation_from_params": serialize.relation_to_obj(rel_params),
        "relation_from_pair": serialize.relation_to_obj(rel_pair),
        "relation_gap": gap,
        "round_trip": {
            "pi_residual": float(np.linalg.norm(round_params.pi - params.pi, 2)),
            "theta_residual": float(np.linalg.norm(round_params.theta - params.theta, 2)),
        },
        "von_neumann": {
            "m": serialize.matrix_to_lists(block.m),
            "q": serialize.matrix_to_lists(block.q),
            "gamma_hat": serialize.matrix_to_lists(block.gamma_hat),
            "unitarity_residual": block.unitarity_residual(),
        },
    }
    _write(out_dir / "convert.json", serialize.canonical_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_z_grid(system: WeylSystem):
    if system.kind in ("interval", "graph"):
        base = 0.0
    else:
        base = system.excluded.upper
    complex_points = [
        base + w
        for w in (
            0.5 + 0.8j, 1.5 - 0.6j, 2.0 + 2.0j, -3.0 + 0.5j, 0.1 + 0.4j,
            4.0 - 3.0j, 0.7 + 0.05j, 2.5 - 1.5j, -1.0 + 1.0j, 3.3 + 0.9j,
            -5.0 - 0.7j, 1.1 + 3.0j, 0.2 - 0.2j, 6.0 + 1.0j,
        )
    ]
    real_points = [base + t for t in (0.3, 0.7, 1.3, 2.9, 4.7, 6.1)]
    return complex_points, real_points


def run_verify(system: WeylSystem, params: ExtensionParams) -> dict:
    """Identity suite of a model's Weyl family; deterministic inputs only."""
    checks = {}
    complex_points, real_points = _verify_z_grid(system)
    grid20 = (complex_points + real_points)[:20]

    conj = max(conjugation_residual(system, z) for z in grid20)
    checks["conjugation"] = {"residual": conj, "tolerance": 1e-12, "passed": conj <= 1e-12}

    pairs = list(zip(complex_points[0::2], complex_points[1::2]))[:7]
    diff_tol = 1e-8 if system.kind in ("interval", "graph") else 1e-12
    # edge models: Simpson quadrature, independent of their closed-form Gram
    gram = None
    if system.kind in ("interval", "graph"):
        gram = functools.partial(simpson_gram, system.edge_lengths)
    diff = max(difference_identity_residual(system, z, v, gram) for z, v in pairs)
    checks["difference_identity"] = {
        "residual": diff,
        "tolerance": diff_tol,
        "passed": diff <= diff_tol,
    }

    qmat = (system.gamma(1j) - system.gamma(1j).conj().T) / 2j
    qmin = float(np.linalg.eigvalsh((qmat + qmat.conj().T) / 2).min())
    checks["defect_gram_positive"] = {
        "residual": -min(qmin, 0.0),
        "tolerance": 0.0,
        "passed": qmin > 0.0,
        "smallest_eigenvalue": qmin,
    }

    if qmin > 0.0:
        unit = von_neumann_block(system, params).unitarity_residual()
    else:
        unit = float("inf")
    checks["gram_unitarity"] = {
        "residual": unit if np.isfinite(unit) else 1.0,
        "tolerance": 1e-8,
        "passed": bool(np.isfinite(unit) and unit <= 1e-8),
        "skipped_degenerate_gram": not np.isfinite(unit),
    }

    if system.kind in ("interval", "graph"):
        det_res = 0.0
        for z in grid20:
            for length in system.edge_lengths:
                det = np.linalg.det(_interval_gamma(length, z))
                det_res = max(det_res, abs(det - z) / (1.0 + abs(z)))
        checks["determinant_identity"] = {
            "residual": det_res,
            "tolerance": 1e-10,
            "passed": det_res <= 1e-10,
        }

        n = system.n
        zeta = np.array([(0.4 + 0.3j) ** (i + 1) for i in range(n)])
        xi = np.array([(0.7 - 0.2j) ** (i + 1) + 0.1 for i in range(n)])
        phi_star = [
            sine_mode(np.pi / length) * (1.0 / (e + 1))
            for e, length in enumerate(system.edge_lengths)
        ]
        psi_star = [
            sine_mode(2 * np.pi / length) * (0.5 + 0.25 * e)
            for e, length in enumerate(system.edge_lengths)
        ]
        if system.kind == "interval":
            phi_star, psi_star = phi_star[0], psi_star[0]
        green = green_identity_residual(system, (phi_star, zeta), (psi_star, xi))
        checks["green_identity"] = {
            "residual": green,
            "tolerance": 1e-4,
            "passed": green <= 1e-4,
        }

        grids = _edge_grids(system, 2000)
        psi = _preset_samples(system, {"input": {"preset": "poly_bump"}}, 1 + 1j, grids)
        za, wb = 1 + 1j, 2 - 1j
        r_z = apply_resolvent(system, params, za, psi, grids)
        r_w = apply_resolvent(system, params, wb, psi, grids)
        r_wz = apply_resolvent(
            system, params, wb, r_z, grids
        )
        def flat(v):
            return np.concatenate([np.ravel(p) for p in v]) if isinstance(v, list) else v
        lhs = (za - wb) * flat(r_wz)
        rhs = flat(r_w) - flat(r_z)
        scale = np.max(np.abs(flat(psi)))
        res_ident = float(np.max(np.abs(lhs - rhs)) / scale)
        checks["resolvent_identity"] = {
            "residual": res_ident,
            "tolerance": 1e-3,
            "passed": res_ident <= 1e-3,
        }
    else:
        herm = max(
            float(np.linalg.norm(system.gamma(lam) - system.gamma(lam).conj().T, 2))
            for lam in real_points
        )
        checks["hermitian_on_reals"] = {
            "residual": herm,
            "tolerance": 1e-12,
            "passed": herm <= 1e-12,
        }

    return checks


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

    checks = run_verify(system, params)
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
