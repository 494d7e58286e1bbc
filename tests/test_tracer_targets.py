"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracer.py`` patches module functions, the model builders the CLI
calls and the callable fields of the Weyl systems by name, and lists a name
it cannot find as missing instead of failing. A library change that renames
or removes one of them therefore leaves its spans empty without any error.
This test reads the tracer (the benchmark is only read) and fails when the
missing targets are not exactly the ones listed below, which the tracer
still names although the package dropped them: a target that goes missing
fails it, and so does a listed one that exists again, so the list shrinks
with the package.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import kreinext as kx
from kreinext import EdgeWeylSystem, PointWeylSystem, verify

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
    assert STALE <= missing, f"found again, drop from STALE: {sorted(STALE - missing)}"


def test_a_stranded_target_is_reported(monkeypatch):
    tracer = _tracer()
    monkeypatch.setattr(tracer, "MODULE_TARGETS", [("kreinext.models", "no_such_kernel", "x")])
    monkeypatch.setattr(tracer, "SYSTEM_TARGETS", [("gamma", "models.gamma"), ("no_such_field", "x")])
    assert _missing_targets(tracer) == {"kreinext.models.no_such_kernel", "no_such_field"}


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_wrapped_systems_are_traced_and_keep_every_bit():
    # the tracer swaps the callable fields of each system with
    # dataclasses.replace; the copy must lose no target and compute the same
    tracer = _tracer().Tracer()
    centres = [[0.0, 0.0, 0.0], [1.0, 0.2, 0.0]]
    systems = [
        (kx.interval_weyl(kx.IntervalModel(np.pi)), (-30.0, 3.0)),
        (kx.graph_weyl(kx.GraphModel((1.0, 2.0))), (-30.0, 3.0)),
        (kx.point_weyl(kx.PointModel(centres)), (-1.0, 40.0)),
        (kx.spin_weyl(kx.SpinPointModel(centres, (0.0, 1.5))), (-1.0, 40.0)),
    ]
    for system, window in systems:
        wrapped = tracer.wrap_system(system)
        assert tracer.missing == []
        assert type(wrapped) is type(system) and wrapped.gamma is not system.gamma
        params = kx.ExtensionParams.full(-0.3 * np.eye(system.n))
        got, want = (kx.eigenvalue_search(s, params, window) for s in (wrapped, system))
        assert got.metadata == want.metadata and got.metadata["found_count"] >= 1
        for a, b in zip(got.eigenvalues, want.eigenvalues, strict=True):
            assert (a.lam, a.sigma_min, a.multiplicity) == (b.lam, b.sigma_min, b.multiplicity)
            _same(a.null_basis, b.null_basis)
        zeta = np.linspace(1.0, 2.0, system.n) + 0j
        edge = isinstance(system, EdgeWeylSystem)
        grids = verify.edge_grids(system, 601) if edge else [[0.5, 0.5, 0.5]]
        flat = (lambda out: np.concatenate(system.edges(out))) if edge else np.asarray
        _same(*(flat(s.g_apply(1 + 1j, zeta, grids)) for s in (wrapped, system)))
        if edge:
            psi = verify.preset_samples(system, {"preset": "poly_bump"}, 1 + 1j, grids)
            _same(*(flat(kx.apply_resolvent(s, params, 1 + 1j, psi, grids)) for s in (wrapped, system)))
        else:
            combo = kx.GreenCombination(((2.0 + 1j, zeta),))
            got, want = (kx.apply_resolvent_green(s, params, 1 + 1j, combo) for s in (wrapped, system))
            assert [z for z, _ in got.terms] == [z for z, _ in want.terms]
            for (_, a), (_, b) in zip(got.terms, want.terms):
                _same(a, b)
            assert kx.green_norm(wrapped, got) == kx.green_norm(system, want)
    traced = {span[0] for span in tracer.spans}
    assert {"models.gamma", "models.gram", "models.sampled", "krein.exclusion"} <= traced
