"""The job reader of the command line: one declared table, typed failures only.

Every field of a job file is declared once in ``kreinext.cli.FIELDS``; a bad
field raises a ``ConfigError`` whose message starts with its JSON path, and
``failure_of`` maps only typed exceptions onto a JSON error. The contract
test changes one leaf of five small valid jobs at a time and runs each job
through ``main`` in-process.
"""

import contextlib
import copy
import inspect
import io
import json
import re
import shutil
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinext as kx
from kreinext import cli
from kreinext import serialize as ser
from kreinext.cli import main

PI = np.pi


def _params(theta):
    return {"kind": "params", **ser.params_to_obj(kx.ExtensionParams.full(theta))}


SMALL_JOBS = {
    "spectrum-interval": {
        "model": {"type": "interval", "a": PI},
        "extension": _params(0.5 * np.eye(2)),
        "task": {"name": "spectrum", "window": [-0.5, 0.5]},
    },
    "spectrum-graph": {
        "model": {"type": "graph", "lengths": [1.0, 2.0]},
        "task": {"name": "spectrum", "window": [-5.0, 0.5]},
    },
    "verify-points": {
        "model": {"type": "points", "centers": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
        "task": {"name": "verify"},
    },
    "resolvent": {
        "model": {"type": "interval", "a": PI},
        "task": {"name": "resolvent", "z": [1.0, 1.0], "grid": 501, "input": {"preset": "sin_k", "k": 1}},
    },
    "convert": {
        "model": {"type": "interval", "a": PI},
        "extension": {"kind": "pair", **ser.pair_to_obj(kx.BoundaryPair(np.diag([0.3, 1.0]), np.diag([1.0, 0.5])))},
        "task": {"name": "convert"},
    },
}
VALUES = [None, True, "x", [], {}, -1, 0, 1.5, 1e308, -1e308, 1e-320, [1, 2], [[1]]]
TYPED = {"ConfigError", "GridTooCoarseError", "GridMismatchError", "ExcludedPointError", "UnsupportedModelError"}


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _json_path(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


LEAVES = [(name, path) for name, job in SMALL_JOBS.items() for path in _leaves(job)]


def _run(doc, directory, *flags):
    """main's exit code and stderr for the job ``doc``."""
    job = directory / "job.json"
    job.write_text(json.dumps(doc))
    shutil.rmtree(directory / "out", ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(job), "--out", str(directory / "out"), *flags])
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_the_small_jobs_run(tmp_path, name):
    assert _run(SMALL_JOBS[name], tmp_path) == (0, "")


@settings(max_examples=300)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(VALUES))
def test_a_job_with_one_leaf_changed_exits_0_or_with_one_typed_error(tmp_path_factory, leaf, value):
    name, path = leaf
    code, err = _run(_replaced(SMALL_JOBS[name], path, value), tmp_path_factory.mktemp("job"))
    if code == 0:
        assert err == ""
        return
    error = json.loads(err)["error"]  # one JSON document and nothing else
    assert err.count("\n") == 1
    if error["code"] != "invalid-config":
        assert (code, error["code"]) in {
            (2, "unsearchable-window"), (2, "extension-singular"), (3, "pair-conditions-failed"),
            (4, "verification-failed"), (5, "numerical-failure"), (5, "incomplete-spectrum"),
        }
        return
    assert code == 1
    kind, _, message = error["message"].partition(": ")
    assert kind in TYPED, error["message"]
    if kind == "ConfigError":
        named = message.split(":")[0]
        changed = _json_path(path)
        # the message names the changed field, a field inside it or the object it belongs to
        assert changed.startswith(named) or named.startswith(changed), (changed, error["message"])
        assert re.sub(r"\[\d+\]", "", named) in {row[0] for row in cli.FIELDS}


REPRODUCED = {
    # (document change, JSON path the message starts with)
    "a-true": ({"model": {"type": "interval", "a": True}}, "model.a"),
    "a-string": ({"model": {"type": "interval", "a": "x"}}, "model.a"),
    "a-huge": ({"model": {"type": "interval", "a": 1e308}}, "model.a"),
    "a-subnormal": ({"model": {"type": "interval", "a": 1e-320}}, "model.a"),
    "lengths-null": ({"model": {"type": "graph", "lengths": [1.0, None]}, "extension": None}, "model.lengths[1]"),
    "theta-string": (
        {"extension": {"kind": "params", "pi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                       "theta": [[["a", 0], [0, 0]], [[0, 0], [0, 0]]]}},
        "extension.theta[0][0]",
    ),
    "centres-ragged": ({"model": {"type": "points", "centers": [[0, 0, 0], [1, 0]]}, "extension": None},
                       "model.centers"),
    "centre-huge": ({"model": {"type": "points", "centers": [[0, 0, 0], [-1e308, 0, 0]]}, "extension": None},
                    "model.centers"),
    "pi-missing": ({"extension": {"kind": "params", "theta": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}}, "extension.pi"),
    "window-huge": ({"task": {"name": "spectrum", "window": [-1e308, 1.0]}}, "task.window"),
    "grid-negative": ({"task": {"name": "resolvent", "grid": -1}}, "task.grid"),
}


@pytest.mark.parametrize("case", sorted(REPRODUCED))
def test_each_reproduced_bad_field_exits_1_naming_its_path(tmp_path, case):
    change, path = REPRODUCED[case]
    doc = {**copy.deepcopy(SMALL_JOBS["spectrum-interval"]), **change}
    start = time.perf_counter()
    code, err = _run(doc, tmp_path)
    assert time.perf_counter() - start < 1.0
    error = json.loads(err)["error"]
    assert (code, error["code"]) == (1, "invalid-config")
    assert error["message"].startswith(f"ConfigError: {path}")


def test_the_task_grid_is_the_one_source_of_the_grid(tmp_path):
    # the command line has no --grid, and read_job reads only the document
    with pytest.raises(SystemExit) as info:
        _run(SMALL_JOBS["resolvent"], tmp_path, "--grid", "501")
    assert info.value.code == 2
    assert list(inspect.signature(cli.read_job).parameters) == ["doc"]
    doc = copy.deepcopy(SMALL_JOBS["resolvent"])
    doc["task"]["grid"] = -1
    code, err = _run(doc, tmp_path)
    assert code == 1
    assert json.loads(err)["error"]["message"].startswith("ConfigError: task.grid: expected an integer")


def test_a_window_with_too_many_poles_is_refused_before_any_array(tmp_path):
    doc = {**SMALL_JOBS["spectrum-graph"], "model": {"type": "graph", "lengths": [1e6, 1.0]}}
    doc["task"] = {"name": "spectrum", "window": [-1e12, 0.5]}
    code, err = _run(doc, tmp_path)
    error = json.loads(err)["error"]
    assert (code, error["code"]) == (1, "invalid-config")
    assert error["message"].startswith("ExcludedPointError: the window [-1000000000000.0, 0.5] holds")


def test_an_untyped_exception_of_a_handler_propagates(tmp_path, monkeypatch):
    def broken(*args):
        raise KeyError("spectrum")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", broken)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(SMALL_JOBS["spectrum-graph"]))
    with pytest.raises(KeyError):
        main([str(job), "--out", str(tmp_path / "out")])
    assert cli.failure_of(KeyError("x")) is None
    assert cli.failure_of(TypeError("x")) is None
    assert cli.failure_of(ValueError("x")) is None


def test_undeclared_keys_are_ignored(tmp_path):
    doc = copy.deepcopy(SMALL_JOBS["spectrum-graph"])
    doc["comment"] = {"anything": [1, None]}
    doc["task"]["tol"] = "x"
    doc["model"]["b"] = "not read for a graph"
    assert _run(doc, tmp_path) == (0, "")


def test_model_and_label_errors_name_their_object():
    doc = copy.deepcopy(SMALL_JOBS["spectrum-interval"])
    doc["model"] = {"type": "points", "centers": [[0, 0, 0], [0, 0, 1e-10]]}
    with pytest.raises(cli.ConfigError, match=r"^model: centers must be pairwise separated"):
        cli.read_job(doc)
    doc = copy.deepcopy(SMALL_JOBS["spectrum-interval"])
    doc["extension"]["theta"][0][1] = [1.0, 0.0]  # not self-adjoint
    with pytest.raises(cli.ConfigError, match=r"^extension: invalid extension parameters"):
        cli.read_job(doc)
