"""File formats: complex entries as [re, im] pairs, canonical JSON and CSV.

Artifacts must be byte-reproducible, so JSON is emitted by a small local
writer (sorted keys, fixed 17-significant-digit floats, LF endings) instead
of relying on library float repr, and CSV numbers go through the same
float formatting.
"""

from __future__ import annotations

import json

import numpy as np

from .krein import ExtensionParams
from .models import GraphModel, IntervalModel, PointModel, SpinPointModel
from .parametrize import BoundaryPair, SelfAdjointRelation

__all__ = [
    "format_float",
    "complex_to_pair",
    "complex_from_pair",
    "matrix_to_lists",
    "matrix_from_lists",
    "vector_to_lists",
    "params_to_obj",
    "params_from_obj",
    "pair_to_obj",
    "pair_from_obj",
    "relation_to_obj",
    "model_to_obj",
    "model_from_obj",
    "canonical_json",
    "csv_text",
]


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_pair(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValueError(f"complex scalars serialize as [re, im], got {obj!r}")
    z = complex(float(obj[0]), float(obj[1]))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("non-finite complex entry")
    return z


def matrix_to_lists(mat) -> list:
    m = np.asarray(mat, dtype=complex)
    return [[complex_to_pair(v) for v in row] for row in m]


def vector_to_lists(vec) -> list:
    return [complex_to_pair(v) for v in np.asarray(vec, dtype=complex)]


def matrix_from_lists(obj, square: bool = True) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a non-empty list of rows")
    rows = [[complex_from_pair(v) for v in row] for row in obj]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("matrix rows have inconsistent lengths")
    m = np.array(rows, dtype=complex)
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    return m


def params_to_obj(params: ExtensionParams) -> dict:
    return {"pi": matrix_to_lists(params.pi), "theta": matrix_to_lists(params.theta)}


def params_from_obj(obj) -> ExtensionParams:
    return ExtensionParams(matrix_from_lists(obj["pi"]), matrix_from_lists(obj["theta"]))


def pair_to_obj(pair: BoundaryPair) -> dict:
    return {"b1": matrix_to_lists(pair.b1), "b2": matrix_to_lists(pair.b2)}


def pair_from_obj(obj) -> BoundaryPair:
    return BoundaryPair(matrix_from_lists(obj["b1"]), matrix_from_lists(obj["b2"]))


def relation_to_obj(rel: SelfAdjointRelation) -> dict:
    return {"dim_h": rel.dim_h, "basis": matrix_to_lists(rel.basis)}


def model_to_obj(model) -> dict:
    if isinstance(model, IntervalModel):
        return {"type": "interval", "a": model.a}
    if isinstance(model, GraphModel):
        return {"type": "graph", "lengths": list(model.lengths)}
    if isinstance(model, PointModel):
        return {"type": "points", "centers": [list(c) for c in model.centers]}
    if isinstance(model, SpinPointModel):
        return {
            "type": "spin_points",
            "centers": [list(c) for c in model.centers],
            "b": list(model.b),
        }
    raise ValueError(f"unknown model object {model!r}")


def model_from_obj(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("model descriptor must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "interval":
        return IntervalModel(float(obj["a"]))
    if kind == "graph":
        return GraphModel(tuple(float(a) for a in obj["lengths"]))
    if kind == "points":
        return PointModel(np.asarray(obj["centers"], dtype=float))
    if kind == "spin_points":
        return SpinPointModel(
            np.asarray(obj["centers"], dtype=float),
            tuple(float(b) for b in obj["b"]),
        )
    raise ValueError(f"unknown model type {kind!r}")


# ---------------------------------------------------------------------------
# canonical emitters


def _emit(value, pieces: list) -> None:
    if value is None or isinstance(value, (bool, np.bool_)):
        pieces.append("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(float(value)))
    elif isinstance(value, complex):
        _emit(complex_to_pair(value), pieces)
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces)
    elif isinstance(value, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            _emit(value[key], pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _emit(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, LF ending."""
    pieces: list = []
    _emit(value, pieces)
    return "".join(pieces) + "\n"


def csv_text(header, rows) -> str:
    """CSV with '.' decimals, ',' delimiters and LF endings; floats at 17 digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell)))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
