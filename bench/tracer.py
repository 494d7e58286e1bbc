"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by wrappers the benchmark installs around the package's
callables; nothing inside ``src/`` changes. Wrapped are:

* the ``WeylSystem`` callables, through ``dataclasses.replace``;
* ``excluded.contains`` on each system's exclusion set (the models' guards
  call it on that instance);
* module-level functions, in the namespaces that call them;
* the ``numpy.linalg`` entry points the package calls.

Each span is (name, family, start, end, parent) and stays in memory until
the run writes it out. A target that no longer exists is listed as missing,
and the metrics that depend only on missing targets are left out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import time

LAPACK = ("eigvalsh", "eigh", "svd", "solve", "inv", "det", "pinv")
PARAMETRIZE = (
    "pair_from_params",
    "params_from_pair",
    "relation_from_params",
    "relation_from_pair",
    "check_pair_conditions",
    "von_neumann_block",
)
# (module, attribute, span name): functions wrapped where their callers look them up.
MODULE_TARGETS = (
    [
        ("kreinext", "eigenvalue_search", "spectral.search"),
        ("kreinext.cli", "eigenvalue_search", "spectral.search"),
        ("kreinext", "apply_resolvent", "krein.apply_resolvent"),
        ("kreinext.cli", "apply_resolvent", "krein.apply_resolvent"),
        ("kreinext", "apply_resolvent_green", "krein.apply_resolvent_green"),
        ("kreinext", "green_norm", "krein.green_norm"),
        ("kreinext.krein", "krein_correction", "krein.krein_correction"),
        ("kreinext.krein", "secular_matrix", "krein.secular_matrix"),
        ("kreinext.spectral", "secular_matrix", "krein.secular_matrix"),
        ("kreinext.cli", "secular_matrix", "krein.secular_matrix"),
        ("kreinext.models", "simpson", "quad.simpson"),
        ("kreinext.models", "cumulative_simpson", "quad.simpson"),
        ("kreinext.krein", "simpson", "quad.simpson"),
        ("kreinext.serialize", "canonical_json", "serialize.write"),
        ("kreinext.serialize", "csv_text", "serialize.write"),
    ]
    + [(mod, f, "parametrize.convert") for mod in ("kreinext.cli", "kreinext.parametrize") for f in PARAMETRIZE]
    + [("numpy.linalg", f, "linalg.lapack") for f in LAPACK]
)
# WeylSystem fields wrapped on every system the traced ops use.
SYSTEM_TARGETS = (
    ("gamma", "models.gamma"),
    ("gram", "models.gram"),
    ("g_apply", "models.sampled"),
    ("r_apply", "models.sampled"),
    ("g_adjoint_apply", "models.sampled"),
)
# Model constructors the CLI calls; their systems get wrapped too.
CLI_BUILDERS = ("interval_weyl", "graph_weyl", "point_weyl", "spin_weyl")
FAMILY_OF_KIND = {"interval": "interval", "graph": "graph", "points": "points", "spin_points": "points"}
FAMILIES = ("interval", "graph", "points")

OP, CLI_MAIN = "op", "cli.main"
LAYERS = (
    "models.gamma", "models.gram", "models.sampled", "krein.exclusion",
    "krein.secular_matrix", "krein.krein_correction", "krein.apply_resolvent",
    "krein.apply_resolvent_green", "krein.green_norm", "spectral.search",
    "linalg.lapack", "quad.simpson", "parametrize.convert", "serialize.write",
)

# name, unit, better, what it should move; the span names it needs.
PER_LAYER = [
    ("models.gamma.calls", "count", "lower", "spectrum: ops_per_s, op_p50_ms", ("models.gamma",)),
    ("models.gamma.self_ms", "ms", "lower", "spectrum: ops_per_s, op_p50_ms", ("models.gamma",)),
]
for _fam in FAMILIES:
    PER_LAYER += [
        (f"models.gamma.calls.{_fam}", "count", "lower", "spectrum: ops_per_s, op_p50_ms", ("models.gamma",)),
        (f"models.gamma.self_ms.{_fam}", "ms", "lower", "spectrum: ops_per_s, op_p50_ms", ("models.gamma",)),
    ]
PER_LAYER += [
    ("models.gram.calls", "count", "lower", "resolvent, cli verify: op_p50_ms; 0 on spectrum", ("models.gram",)),
    ("models.gram.ms", "ms", "lower", "resolvent, cli verify: op_p50_ms; 0 on spectrum", ("models.gram",)),
    ("models.sampled.ms", "ms", "lower", "resolvent: op_p50_ms, ops_per_s", ("models.sampled",)),
    ("krein.exclusion.calls", "count", "lower", "spectrum on interval and graph, not points", ("krein.exclusion",)),
    ("krein.exclusion.ms", "ms", "lower", "spectrum on interval and graph, not points", ("krein.exclusion",)),
]
for _fam in FAMILIES:
    PER_LAYER += [
        (f"krein.exclusion.calls.{_fam}", "count", "lower", "spectrum on interval and graph, not points", ("krein.exclusion",)),
        (f"krein.exclusion.ms.{_fam}", "ms", "lower", "spectrum on interval and graph, not points", ("krein.exclusion",)),
    ]
PER_LAYER += [
    ("krein.secular_matrix.calls", "count", "lower", "resolvent: op_p50_ms", ("krein.secular_matrix",)),
    ("krein.krein_correction.ms", "ms", "lower", "resolvent: op_p50_ms", ("krein.krein_correction",)),
    ("krein.apply_resolvent.ms", "ms", "lower", "resolvent: op_p50_ms", ("krein.apply_resolvent",)),
    ("spectral.search.ms", "ms", "lower", "spectrum: ops_per_s, op_p50_ms, op_tail_ms", ("spectral.search",)),
    ("spectral.search.self_ms", "ms", "lower", "spectrum: ops_per_s, op_p50_ms, op_tail_ms", ("spectral.search",)),
    ("spectral.roots_per_kgamma", "roots/kcall", "higher", "spectrum: ops_per_s", ("spectral.search", "models.gamma")),
    ("spectral.found_over_expected", "ratio", "higher", "must stay 1 on spectrum and cli", ("spectral.search",)),
    ("linalg.lapack.calls", "count", "lower", "spectrum, resolvent: op_p50_ms", ("linalg.lapack",)),
    ("linalg.lapack.ms", "ms", "lower", "spectrum, resolvent: op_p50_ms", ("linalg.lapack",)),
    ("quad.simpson.calls", "count", "lower", "resolvent, cli verify: op_p50_ms; 0 on spectrum", ("quad.simpson",)),
    ("quad.simpson.ms", "ms", "lower", "resolvent, cli verify: op_p50_ms; 0 on spectrum", ("quad.simpson",)),
    ("parametrize.convert.ms", "ms", "lower", "cli: op_p50_ms", ("parametrize.convert",)),
    ("serialize.write.ms", "ms", "lower", "cli: op_p50_ms", ("serialize.write",)),
    ("serialize.bytes", "bytes", "lower", "cli: op_p50_ms", ("serialize.write",)),
    ("cli.import_ms", "ms", "lower", "cli: op_p50_ms; setup_s everywhere", ()),
    ("cli.scipy_modules", "count", "lower", "cli: op_p50_ms; setup_s everywhere", ()),
    ("cli.self_ms", "ms", "lower", "cli: op_p50_ms", ()),
    ("trace.overhead_ms", "ms", "lower", "nothing: cost of tracing per op", ()),
]
# Deterministic work counters: they must repeat exactly for one seed.
COUNTERS = ("models.gamma.calls", "models.gram.calls", "linalg.lapack.calls", "quad.simpson.calls")


class Tracer:
    """Installs the wrappers and records spans while they are in place."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.roots: list = []  # (span index, families) of each traced op
        self.installed: set = set()
        self.missing: list = []
        self.found_roots = 0
        self.bytes = 0
        self._undo: list = []
        self._wrapped: dict = {}

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name, family=None, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, family, start, end, parent)
            if measure is not None:
                measure(out)
            return out

        return traced

    @contextlib.contextmanager
    def op(self, families):
        """Root span of one op; every span it causes descends from it."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.roots.append((index, tuple(families)))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index] = (OP, None, start, time.perf_counter_ns(), -1)

    def reset(self) -> None:
        """Forget recorded spans; wrappers made earlier keep recording."""
        for records in (self.spans, self.stack, self.roots):
            records.clear()
        self.found_roots = self.bytes = 0
        self._wrapped = {}

    # -- installing -----------------------------------------------------

    def _patch(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._undo.append(lambda: setattr(module, attr, original))

    def _measure(self, name):
        if name == "spectral.search":
            def count(result):
                self.found_roots += len(getattr(result, "eigenvalues", ()))
            return count
        if name == "serialize.write":
            def size(text):
                self.bytes += len(text.encode()) if isinstance(text, str) else 0
            return size
        return None

    def wrap_system(self, system):
        """A copy of ``system`` whose callables and exclusion guard record spans."""
        key = id(system)
        if key in self._wrapped:
            return self._wrapped[key][1]
        family = FAMILY_OF_KIND.get(getattr(system, "kind", None), "other")
        try:
            fields = {f.name for f in dataclasses.fields(system)}
            changes = {
                attr: self.wrap(getattr(system, attr), name, family)
                for attr, name in SYSTEM_TARGETS
                if attr in fields and getattr(system, attr) is not None
            }
            wrapped = dataclasses.replace(system, **changes)
        except (TypeError, ValueError):
            self.missing.append(f"{type(system).__name__} callables")
            wrapped = system
        self._patch_exclusion(getattr(system, "excluded", None), family)
        self._wrapped[key] = (system, wrapped)  # keep system alive so ids stay unique
        return wrapped

    def _patch_exclusion(self, excluded, family) -> None:
        contains = getattr(excluded, "contains", None)
        if contains is None:
            self.missing.append("excluded.contains")
            return
        if "contains" in getattr(excluded, "__dict__", {}):
            return
        try:
            excluded.contains = self.wrap(contains, "krein.exclusion", family)
        except AttributeError:
            self.missing.append(f"{type(excluded).__name__}.contains")
            return
        self._undo.append(lambda: excluded.__dict__.pop("contains", None))

    @contextlib.contextmanager
    def installed_wrappers(self):
        """Install every module-level wrapper for the duration of a traced pass."""
        for module, attr, name in MODULE_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self.wrap(fn, name, measure=self._measure(name)))
        for attr in CLI_BUILDERS:
            self._patch(
                "kreinext.cli", attr,
                lambda fn: functools.wraps(fn)(lambda *a, **k: self.wrap_system(fn(*a, **k))),
            )
        try:
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    # -- analysis -------------------------------------------------------

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans if s})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "family", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans if s],
            "missing": sorted(set(self.missing)),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def span_tree(spans):
    """Children lists and the op root of every span (-1 outside any op)."""
    children = [[] for _ in spans]
    root = [-1] * len(spans)
    for i, (name, _, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            root[i] = root[parent]
        elif name == OP:
            root[i] = i
    return children, root


def covered_ns(spans, children, index, names) -> int:
    """Time under span ``index`` spent in its topmost descendants named ``names``."""
    total, todo = 0, list(children[index])
    while todo:
        i = todo.pop()
        name, _, start, end, _ = spans[i]
        if name in names:
            total += end - start
        else:
            todo.extend(children[i])
    return total


def layer_values(tracer: Tracer, expected_roots: int) -> dict:
    """Per-op values of the span-based per-layer metrics of one traced pass."""
    spans = tracer.spans
    children, root = span_tree(spans)
    n_ops = max(1, len(tracer.roots))
    ops_with = {f: sum(1 for _, fams in tracer.roots if f in fams) for f in FAMILIES}

    calls: dict = {}
    ns: dict = {}
    top_ns: dict = {}
    gamma_self: dict = {}
    search_self = main_self = 0
    for i, (name, family, start, end, parent) in enumerate(spans):
        if root[i] < 0 or name == OP:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        calls[(name, family)] = calls.get((name, family), 0) + 1
        ns[(name, family)] = ns.get((name, family), 0) + dur
        j = parent
        while j >= 0 and spans[j][0] != name:
            j = spans[j][4]
        if j < 0:  # topmost span of this name
            top_ns[name] = top_ns.get(name, 0) + dur
        if name == "models.gamma":
            own = dur - covered_ns(spans, children, i, {"krein.exclusion"})
            gamma_self[family] = gamma_self.get(family, 0) + own
        elif name == "spectral.search":
            search_self += dur - covered_ns(spans, children, i, {"models.gamma", "linalg.lapack"})
        elif name == CLI_MAIN:
            main_self += dur - covered_ns(spans, children, i, set(LAYERS))

    def per_op(x, count=n_ops):
        return x / count if count else 0.0

    ms = 1e-6
    gamma_calls = calls.get("models.gamma", 0)
    v = {
        "models.gamma.calls": per_op(gamma_calls),
        "models.gamma.self_ms": per_op(sum(gamma_self.values())) * ms,
        "models.gram.calls": per_op(calls.get("models.gram", 0)),
        "models.gram.ms": per_op(top_ns.get("models.gram", 0)) * ms,
        "models.sampled.ms": per_op(top_ns.get("models.sampled", 0)) * ms,
        "krein.exclusion.calls": per_op(calls.get("krein.exclusion", 0)),
        "krein.exclusion.ms": per_op(top_ns.get("krein.exclusion", 0)) * ms,
        "krein.secular_matrix.calls": per_op(calls.get("krein.secular_matrix", 0)),
        "krein.krein_correction.ms": per_op(top_ns.get("krein.krein_correction", 0)) * ms,
        "krein.apply_resolvent.ms": per_op(top_ns.get("krein.apply_resolvent", 0)) * ms,
        "spectral.search.ms": per_op(top_ns.get("spectral.search", 0)) * ms,
        "spectral.search.self_ms": per_op(search_self) * ms,
        "spectral.roots_per_kgamma": 1000.0 * tracer.found_roots / gamma_calls if gamma_calls else 0.0,
        "spectral.found_over_expected": tracer.found_roots / expected_roots if expected_roots else 1.0,
        "linalg.lapack.calls": per_op(calls.get("linalg.lapack", 0)),
        "linalg.lapack.ms": per_op(top_ns.get("linalg.lapack", 0)) * ms,
        "quad.simpson.calls": per_op(calls.get("quad.simpson", 0)),
        "quad.simpson.ms": per_op(top_ns.get("quad.simpson", 0)) * ms,
        "parametrize.convert.ms": per_op(top_ns.get("parametrize.convert", 0)) * ms,
        "serialize.write.ms": per_op(top_ns.get("serialize.write", 0)) * ms,
        "serialize.bytes": per_op(tracer.bytes),
        "cli.self_ms": per_op(main_self) * ms,
    }
    for f in FAMILIES:
        v[f"models.gamma.calls.{f}"] = per_op(calls.get(("models.gamma", f), 0), ops_with[f])
        v[f"models.gamma.self_ms.{f}"] = per_op(gamma_self.get(f, 0), ops_with[f]) * ms
        v[f"krein.exclusion.calls.{f}"] = per_op(calls.get(("krein.exclusion", f), 0), ops_with[f])
        v[f"krein.exclusion.ms.{f}"] = per_op(ns.get(("krein.exclusion", f), 0), ops_with[f]) * ms
    return v


def available(tracer: Tracer) -> set:
    """Names of the per-layer metrics whose wrappers could be installed."""
    return {
        name for name, _, _, _, needs in PER_LAYER
        if all(n in tracer.installed for n in needs)
    }

