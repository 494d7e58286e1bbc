"""Artifact formats: complex entries as [re, im] pairs, canonical JSON and CSV.

Artifacts must be byte-reproducible, so JSON is emitted by a small local
writer (sorted keys, fixed 17-significant-digit floats, LF endings) instead
of relying on library float repr, and CSV numbers go through the same
float formatting. Both writers take arrays whole: a float or complex array
gets one finiteness check and one formatting pass over its values, and
writes the same bytes as formatting each value on its own.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .krein import ExtensionParams
from .parametrize import BoundaryPair

__all__ = [
    "format_float",
    "complex_to_pair",
    "matrix_to_lists",
    "params_to_obj",
    "pair_to_obj",
    "canonical_json",
    "csv_text",
]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def complex_to_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_lists(mat) -> list:
    m = np.asarray(mat, dtype=complex)
    return [[complex_to_pair(v) for v in row] for row in m]


def params_to_obj(params: ExtensionParams) -> dict:
    return {"pi": matrix_to_lists(params.pi), "theta": matrix_to_lists(params.theta)}


def pair_to_obj(pair: BoundaryPair) -> dict:
    return {"b1": matrix_to_lists(pair.b1), "b2": matrix_to_lists(pair.b2)}


# ---------------------------------------------------------------------------
# canonical emitters


def _float_cells(values: np.ndarray) -> list:
    """17-digit text of each value of a float array, flattened in C order.

    One finiteness check covers the whole array; a non-finite value raises
    the :func:`format_float` error for the first one in that order.
    """
    values = values.astype(float, copy=False).ravel()
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values[~finite][0])  # raises, naming the value
    return [f"{x:.17g}" for x in values.tolist()]


def _emit_array(value: np.ndarray, pieces: list) -> None:
    """A float or complex array as the nested lists of ``value.tolist()``.

    Complex entries become [re, im] pairs, so a complex array is written as
    its float view with a trailing axis of 2.
    """
    if value.dtype.kind == "c":
        value = value.astype(complex, copy=False)
        value = np.stack([value.real, value.imag], axis=-1)
    cells = _float_cells(value)
    for axis in range(value.ndim - 1, -1, -1):
        width = value.shape[axis]
        cells = [
            "[" + ",".join(cells[g * width : (g + 1) * width]) + "]"
            for g in range(math.prod(value.shape[:axis]))
        ]
    pieces.append(cells[0])


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
    elif isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        _emit_array(value, pieces)
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
    """Deterministic JSON: sorted keys, 17-significant-digit floats, LF ending.

    A float or complex ``ndarray`` is written as the nested lists of its
    ``tolist()``, complex entries as [re, im]; other arrays go through
    ``tolist()`` itself.
    """
    pieces: list = []
    _emit(value, pieces)
    return "".join(pieces) + "\n"


def _column_cells(column) -> list:
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"a CSV column must be 1-D, got shape {values.shape}")
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    if values.dtype.kind == "f":
        return _float_cells(values)
    raise TypeError(f"cannot serialize a column of dtype {values.dtype}")


def csv_text(header, columns) -> str:
    """CSV of equal-length 1-D columns: '.' decimals, ',' delimiters, LF endings.

    An integer column prints as integers; a float column gets one finiteness
    check and prints at 17 significant digits, as :func:`format_float` does.
    A non-finite value raises its ``ValueError``, and so do columns of
    unequal length and a header that does not name each column once.
    Zero-row columns give the header line alone.
    """
    cells = [_column_cells(c) for c in columns]
    if len(cells) != len(header):
        raise ValueError(f"CSV header names {len(header)} columns, got {len(cells)}")
    lengths = {len(c) for c in cells}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns have unequal lengths {sorted(lengths)}")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"
