"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracer.py`` patches module functions, the model builders the CLI
calls and the callable fields of the Weyl systems by name, and lists a name
it cannot find as missing instead of failing. A library change that renames
or removes one of them therefore leaves its spans empty without any error.
This test reads the tracer (the benchmark is only read) and fails when a
target goes missing beyond the ones listed below, which the tracer still
names although the package dropped them.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from kreinext import EdgeWeylSystem, PointWeylSystem

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# targets the tracer names that the package no longer has
STALE = {
    "kreinext.cli.apply_resolvent",
    "kreinext.cli.secular_matrix",
    "kreinext.cli.check_pair_conditions",
    "r_apply",
    "g_adjoint_apply",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing_targets(tracer) -> set:
    missing = set()
    module_targets = [(module, attr) for module, attr, _ in tracer.MODULE_TARGETS]
    module_targets += [("kreinext.cli", attr) for attr in tracer.CLI_BUILDERS]
    for module, attr in module_targets:
        if not hasattr(importlib.import_module(module), attr):
            missing.add(f"{module}.{attr}")
    for cls in (EdgeWeylSystem, PointWeylSystem):
        fields = {f.name for f in dataclasses.fields(cls)}
        missing |= {attr for attr, _ in tracer.SYSTEM_TARGETS if attr not in fields}
    return missing


def test_every_traced_target_exists():
    missing = _missing_targets(_tracer())
    assert missing <= STALE, sorted(missing - STALE)


def test_a_stranded_target_is_reported(monkeypatch):
    tracer = _tracer()
    monkeypatch.setattr(tracer, "MODULE_TARGETS", [("kreinext.models", "no_such_kernel", "x")])
    monkeypatch.setattr(tracer, "SYSTEM_TARGETS", [("gamma", "models.gamma"), ("no_such_field", "x")])
    assert _missing_targets(tracer) == {"kreinext.models.no_such_kernel", "no_such_field"}
