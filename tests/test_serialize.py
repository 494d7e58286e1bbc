import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kreinext as kx
from kreinext import serialize as ser
from kreinext import cli
from kreinext.cli import ConfigError, complex_from_pair, matrix_from_lists, read_job


def test_float_formatting():
    assert ser.format_float(1.0) == "1"
    assert ser.format_float(np.pi) == "3.1415926535897931"
    with pytest.raises(ValueError):
        ser.format_float(float("nan"))
    with pytest.raises(ValueError):
        ser.format_float(float("inf"))


def test_complex_pair_round_trip():
    # the job reader's complex type reads what the writer writes, and names its path
    z = 1.5 - 2.25j
    assert complex_from_pair(ser.complex_to_pair(z), "task.z", cli.LARGE) == z
    for bad in ([1.0], [1.0, float("nan")], [True, 0.0], ["1", 0.0], [1e13, 0.0]):
        with pytest.raises(ConfigError, match=r"^task\.z: expected \[re, im\]"):
            complex_from_pair(bad, "task.z", cli.LARGE)


def test_matrix_round_trip():
    m = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]])
    again = matrix_from_lists(ser.matrix_to_lists(m), "extension.pi", cli.LARGE)
    assert np.array_equal(m, again)
    with pytest.raises(ConfigError, match=r"^extension\.pi: expected a square matrix"):
        matrix_from_lists([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], "extension.pi", cli.LARGE)
    with pytest.raises(ConfigError, match=r"^extension\.pi\[1\]\[0\]: expected \[re, im\]"):
        matrix_from_lists([[[1.0, 0.0], [0, 0]], [[False, 0.0], [2.0, 0.0]]], "extension.pi", cli.LARGE)


def _job(model, extension=None):
    return {"model": model, "extension": extension, "task": {"name": "verify"}}


def test_params_round_trip_validates():
    params = kx.ExtensionParams.full(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    obj = {"kind": "params", **ser.params_to_obj(params)}
    _, _, again, given = read_job(_job({"type": "interval", "a": 2.5}, obj))
    assert np.array_equal(again.pi, params.pi)
    assert np.array_equal(again.theta, params.theta)
    assert given is None
    obj["pi"][0][1] = [1.0, 0.0]  # not a projector any more
    with pytest.raises(ConfigError, match="^extension: invalid extension parameters"):
        read_job(_job({"type": "interval", "a": 2.5}, obj))


def test_model_round_trips():
    # each model type reads into its own system, with the model's data
    for model, kind in (
        ({"type": "interval", "a": 2.5}, "interval"),
        ({"type": "graph", "lengths": [1.0, 2.0]}, "graph"),
        ({"type": "points", "centers": [[0, 0, 0], [1, 0, 0]]}, "points"),
        ({"type": "spin_points", "centers": [[0, 0, 0]], "b": [0.0, 2.0]}, "spin_points"),
    ):
        _, system, params, _ = read_job(_job(model))
        assert system.kind == kind and params.n == system.n
    assert read_job(_job({"type": "graph", "lengths": [1, 2]}))[1].lengths == (1.0, 2.0)
    with pytest.raises(ConfigError, match="^model.type: expected one of 'interval', "):
        read_job(_job({"type": "torus"}))
    with pytest.raises(ConfigError, match=r"^model: expected an object, got \[1, 2\]"):
        read_job(_job([1, 2]))


def test_canonical_json_sorted_and_stable():
    doc = {"b": 1.0, "a": [1, 2.5, None, True, "x"], "c": {"z": 0.1, "y": -0.0}}
    text = ser.canonical_json(doc)
    assert text == ser.canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert text.endswith("\n")
    assert "2.5" in text and "0.10000000000000001" in text


def test_csv_text_format():
    text = ser.csv_text(["x", "re", "n"], [[0.5], [1.0 / 3.0], [2]])
    lines = text.splitlines()
    assert lines[0] == "x,re,n"
    assert lines[1] == "0.5,0.33333333333333331,2"
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# the writers take whole arrays and keep the per-value bytes

EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
EXTREMES_TEXT = "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001"


def test_csv_text_golden():
    columns = [
        np.array([0, -3, 7]),
        np.array([-0.0, 5e-324, 0.1]),
        np.array([1.7976931348623157e308, 1.0, -2.5]),
    ]
    assert ser.csv_text(["n", "x", "y"], columns) == (
        "n,x,y\n"
        "0,-0,1.7976931348623157e+308\n"
        "-3,4.9406564584124654e-324,1\n"
        "7,0.10000000000000001,-2.5\n"
    )
    assert ser.csv_text(["v"], [EXTREMES]) == "v\n" + EXTREMES_TEXT.replace(",", "\n") + "\n"


def test_csv_text_zero_rows_is_the_header():
    assert ser.csv_text(["lo", "hi"], np.empty((0, 2)).T) == "lo,hi\n"
    assert ser.csv_text(["n", "x"], [np.array([], dtype=int), np.array([])]) == "n,x\n"


@pytest.mark.parametrize(
    "value, text",
    [
        (np.array(0.1), "0.10000000000000001"),
        (np.array(1 - 0.5j), "[1,-0.5]"),
        (np.empty(0), "[]"),
        (np.empty((2, 0)), "[[],[]]"),
        (np.empty((0, 3), dtype=complex), "[]"),
        (EXTREMES, "[" + EXTREMES_TEXT + "]"),
        (np.array([[1.0, -0.0], [5e-324, 3.0]]), "[[1,-0],[4.9406564584124654e-324,3]]"),
        (
            np.array([[1 + 2j, -0.5j], [0.1, -0.0]]),
            "[[[1,2],[-0,-0.5]],[[0.10000000000000001,0],[-0,0]]]",
        ),
        (np.arange(8.0).reshape(2, 2, 2) / 4, "[[[0,0.25],[0.5,0.75]],[[1,1.25],[1.5,1.75]]]"),
        (np.array([[[1j, -1.0]]]), "[[[[0,1],[-1,0]]]]"),
        ({"b": np.array([0.5, 2.0]), "a": np.array([[1j]])}, '{"a":[[[0,1]]],"b":[0.5,2]}'),
    ],
)
def test_canonical_json_array_golden(value, text):
    assert ser.canonical_json(value) == text + "\n"


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 0), (0, 3), (2, 3), (2, 3, 2), (1, 2, 0, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
def test_canonical_json_array_equals_its_list(shape, dtype):
    rng = np.random.default_rng(len(shape))
    decades = int(np.log10(np.finfo(dtype).max)) - 1
    value = rng.normal(size=shape) * 10.0 ** rng.integers(-decades, decades, size=shape)
    if np.dtype(dtype).kind == "c":
        value = value - 1j * rng.normal(size=shape)
    value = np.asarray(value).astype(dtype)
    assert ser.canonical_json(value) == ser.canonical_json(value.tolist())


@given(
    st.integers(0, 12).flatmap(
        lambda rows: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=rows, max_size=rows),
            min_size=1,
            max_size=4,
        )
    )
)
def test_csv_text_equals_a_row_by_row_join(columns):
    header = [f"c{j}" for j in range(len(columns))]
    rows = [",".join(ser.format_float(x) for x in row) for row in zip(*columns)]
    expected = "\n".join([",".join(header), *rows]) + "\n"
    assert ser.csv_text(header, [np.array(c, dtype=float) for c in columns]) == expected


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [0, 1])
def test_csv_text_rejects_non_finite(bad, where):
    columns = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
    columns[where][1] = bad
    with pytest.raises(ValueError, match=f"non-finite value {bad}"):
        ser.csv_text(["a", "b"], columns)


def test_csv_text_rejects_unequal_columns():
    with pytest.raises(ValueError, match="unequal lengths"):
        ser.csv_text(["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="unequal lengths"):
        ser.csv_text(["a", "b"], [np.arange(2), np.zeros(0)])
    with pytest.raises(ValueError, match="names 3 columns, got 1"):
        ser.csv_text(["x", "re", "n"], [(0.5, 1.0 / 3.0, 2)])  # a row, not columns
    with pytest.raises(ValueError, match="must be 1-D"):
        ser.csv_text(["a", "b"], [np.zeros((2, 2)), np.zeros(2)])


@pytest.mark.parametrize(
    "value, named",
    [
        (np.array(float("nan")), "nan"),
        (np.array([1.0, float("inf"), float("nan")]), "inf"),
        (np.array([[0.0, 1.0], [float("-inf"), 2.0]]), "-inf"),
        (np.array([complex(1.0, float("nan")), complex(float("inf"), 0.0)]), "nan"),
        (np.array([[complex(0.0, 1.0)], [complex(float("-inf"), float("nan"))]]), "-inf"),
        ({"a": [np.zeros(2), np.array([float("inf")])]}, "inf"),
    ],
)
def test_canonical_json_rejects_the_first_non_finite_entry(value, named):
    with pytest.raises(ValueError, match=f"non-finite value {named}$"):
        ser.canonical_json(value)


def test_canonical_json_writes_other_arrays_as_lists_and_refuses_other_objects():
    assert ser.canonical_json({"n": np.array([[1, -2]]), "b": np.array([True])}) == '{"b":[true],"n":[[1,-2]]}\n'
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        ser.canonical_json([1.0, object()])


def test_csv_text_refuses_a_complex_column():
    with pytest.raises(TypeError, match="^cannot serialize a column of dtype complex128$"):
        ser.csv_text(["z"], [np.array([1j])])
