"""The public names of the package, and the models built as special cases of others.

The name lists are pinned so that adding, renaming or removing a public name
shows up in the diff of this file. The interval is the one-edge graph and the
scalar point model is the spin model with the single internal eigenvalue 0;
their shared data must agree bit for bit.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import kreinext as kx
from kreinext import verify

KREINEXT = [
    "BoundaryPair", "BoundaryReport", "DirichletExclusions", "EdgeWeylSystem",
    "EigenResult", "EigenpairReport", "ExcludedPointError", "ExtensionParams",
    "ExtensionSingularError", "FDSpec", "GraphModel", "GreenCombination",
    "GridMismatchError", "GridTooCoarseError", "HalfLineExclusions", "IntervalModel",
    "ModelConsistencyError", "PairConditionError", "PairConditions", "PointModel",
    "PointWeylSystem", "Resolvent", "SampledKernels", "SelfAdjointRelation",
    "SmoothFunction", "SpectrumResult", "SpinPointModel", "UnsupportedModelError",
    "ValidationReport", "VertexGroup", "VonNeumannBlock", "WeylSystem",
    "apply_resolvent", "apply_resolvent_green", "bisect_root",
    "boundary_condition_residuals", "check_pair_conditions", "conjugation_residual",
    "cosine_mode", "defect_gram", "difference_identity_residual", "eigenfunction",
    "eigenvalue_search", "fd_graph_spectrum", "fd_interval_spectrum", "graph_weyl",
    "green_identity_residual", "green_norm", "hermitian_eig",
    "interval_weyl", "is_regular_point", "is_selfadjoint_relation",
    "krein_correction", "pair_from_params",
    "params_from_pair", "point_green_regular_part",
    "point_weyl", "poly_bump",
    "relation_from_pair", "relation_from_params", "relation_gap",
    "secular_matrix", "simpson_gram", "sine_mode", "single_point_eigenvalue",
    "spin_weyl", "subspace_equal", "validate_eigenpair", "validate_params",
    "vertex_params", "von_neumann_block", "zero_function",
]
VERIFY = [
    "BoundaryReport", "PRESETS", "boundary_condition_residuals", "conjugation_residual",
    "difference_identity_residual", "edge_grids", "green_identity_residual",
    "preset_samples", "run_verify", "z_grid",
]

PI = np.pi
CENTERS = [[0.0, 0.0, 0.0], [1.0, 0.2, 0.0], [0.3, 1.1, 0.4]]


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_kreinext_public_names():
    public = sorted(
        name
        for name, value in vars(kx).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == KREINEXT


def test_module_exports_are_honest():
    # every exported name exists, and each public name of the package is
    # exported by exactly one module, the one it comes from
    names = [info.name for info in pkgutil.iter_modules(kx.__path__)]
    modules = [importlib.import_module(f"kreinext.{name}") for name in names]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    for name in KREINEXT:
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        assert getattr(homes[0], name) is getattr(kx, name)


def _imported_names(tree):
    # (module, name) of every import from a kreinext module, relative or absolute
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "kreinext"):
            yield from ((node.module or ".", alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, alias.name) for alias in node.names if alias.name.startswith("kreinext."))


def test_no_module_imports_private_names_of_another():
    # a name that starts with "_" belongs to its module alone
    private = [
        f"{path.name}: {module} {name}"
        for path in sorted(Path(kx.__file__).parent.glob("*.py"))
        for module, name in _imported_names(ast.parse(path.read_text(), str(path)))
        if any(part.startswith("_") for part in name.split("."))
    ]
    assert not private


def test_label_signatures_and_frame():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(kx.validate_params) == ["pi", "theta"]
    assert params(kx.secular_matrix) == ["system", "params", "z"]
    assert params(kx.krein_correction) == ["system", "params", "z"]
    fields = dataclasses.fields(kx.ExtensionParams)
    assert [f.name for f in fields if f.init] == ["pi", "theta"]
    assert [(f.name, f.repr, f.compare) for f in fields if not f.init] == [
        ("range_basis", False, False),
        ("kernel_basis", False, False),
    ]
    label = kx.ExtensionParams(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))
    assert label.range_basis.shape == (2, 1) and label.kernel_basis.shape == (2, 1)
    assert "basis" not in repr(label)


def test_edge_system_fields_and_pair_conditions():
    protocol = ["n", "kind", "excluded", "gamma", "gram", "g_apply"]
    assert [f.name for f in dataclasses.fields(kx.EdgeWeylSystem)] == protocol + ["lengths", "bare"]
    assert [f.name for f in dataclasses.fields(kx.PointWeylSystem)] == protocol + ["point", "b", "bare"]
    interval = kx.interval_weyl(kx.IntervalModel(PI))
    assert not hasattr(interval, "r_apply") and not hasattr(interval, "g_adjoint_apply")
    assert not hasattr(kx.WeylSystem, "require_admissible")  # gamma checks z
    [conditions] = [f for f in dataclasses.fields(kx.BoundaryPair) if not f.init]
    assert (conditions.name, conditions.repr, conditions.compare) == ("conditions", False, False)
    pair = kx.BoundaryPair(np.eye(2), np.diag([0.5, 0.0]))
    assert pair.conditions == kx.check_pair_conditions(pair)
    assert "conditions" not in repr(pair)


def test_model_systems_carry_their_maps_as_methods():
    # the maps nothing swaps are methods that read model data, defined in models.py
    for cls, methods in (
        (kx.EdgeWeylSystem, ("edges", "shaped", "sampled_kernels", "traces", "g_closed")),
        (kx.PointWeylSystem, ("renorm_trace",)),
    ):
        assert cls.__module__ == "kreinext.models" and issubclass(cls, kx.WeylSystem)
        assert all(inspect.isfunction(vars(cls)[name]) for name in methods)
    # the builders bind no closure besides the three swappable fields
    for system in (
        kx.interval_weyl(kx.IntervalModel(PI)),
        kx.graph_weyl(kx.GraphModel((1.0, 2.0))),
        kx.point_weyl(kx.PointModel(CENTERS)),
        kx.spin_weyl(kx.SpinPointModel(CENTERS, (0.0, 1.5))),
    ):
        values = [getattr(system, f.name) for f in dataclasses.fields(system)]
        assert [v.__name__ for v in values if callable(v)] == ["gamma", "gram", "g_apply"]
        assert hash(system) == hash(dataclasses.replace(system))  # a system stays hashable


KREIN_CLASSES = [
    "ExcludedPointError", "ExtensionSingularError", "ModelConsistencyError",
    "UnsupportedModelError", "WeylSystem", "ExtensionParams", "ValidationReport",
    "GreenCombination", "Resolvent",
]


def test_krein_knows_no_concrete_model():
    # krein.py keeps the model-independent recipe: it imports nothing from
    # models, defines no subclass of WeylSystem, and defines exactly the
    # recipe's classes (no exclusion set, closed form or grid error)
    tree = ast.parse(Path(kx.krein.__file__).read_text())
    imported = [(m, name) for m, name in _imported_names(tree) if "models" in (m.split(".")[-1], name)]
    assert not imported
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    subclasses = [
        node.name
        for node in classes
        if any(ast.unparse(base).split(".")[-1] == "WeylSystem" for base in node.bases)
    ]
    assert not subclasses
    assert [node.name for node in classes] == KREIN_CLASSES
    assert "MIN_EDGE_NODES" not in vars(kx.krein)


def test_verify_public_names():
    assert sorted(verify.__all__) == VERIFY
    assert all(hasattr(verify, name) for name in VERIFY)


def test_interval_is_the_one_edge_graph():
    interval = kx.interval_weyl(kx.IntervalModel(PI))
    graph = kx.graph_weyl(kx.GraphModel((PI,)))
    assert isinstance(interval, kx.EdgeWeylSystem) and interval.kind == "interval"
    zs = np.array([1 + 1j, -0.5, 0.0, 3.0 - 2j, -30.0 + 1e-3j])
    for z in zs:
        _same(interval.gamma(z), graph.gamma(z))
    _same(interval.gamma(zs), graph.gamma(zs))
    for z, w in ((1 + 1j, 2 - 1j), (0.0, 0.5j), (-4.0 + 1j, -4.0 + 1j)):
        _same(interval.gram(z, w), graph.gram(z, w))

    x = np.linspace(0.0, PI, 2001)
    psi = np.exp(1j * x) * x * (PI - x)
    zeta = np.array([0.7, -0.3 + 0.4j])
    for z in (1 + 1j, 0.0):
        bare, boxed = interval.sampled_kernels(z, x), graph.sampled_kernels(z, [x])
        _same(bare.resolvent(psi), boxed.resolvent([psi])[0])
        _same(bare.adjoint(psi), boxed.adjoint([psi]))
        _same(bare.apply(zeta), boxed.apply(zeta)[0])


def test_point_model_is_the_zero_shift_spin_model():
    point = kx.point_weyl(kx.PointModel(CENTERS))
    spin = kx.spin_weyl(kx.SpinPointModel(CENTERS, (0.0,)))
    assert isinstance(point, kx.PointWeylSystem) and point.kind == "points"
    zs = np.array([1 + 1j, 0.5, 2.0 - 3j, 1e-6 + 1e-6j])
    for z in zs:
        _same(point.gamma(z), spin.gamma(z))
    _same(point.gamma(zs), spin.gamma(zs))
    for z, w in ((1 + 1j, 2 - 1j), (0.5, 0.5), (3.0 + 1j, 0.2)):
        _same(point.gram(z, w), spin.gram(z, w))

    # only the channel axis of samples and continuous parts differs
    pts = np.array([[0.5, 0.5, 0.5], [2.0, -1.0, 0.3]])
    zeta = np.array([1.0, -0.5j, 0.25])
    for z in (1 + 1j, 0.5):
        _same(point.g_apply(z, zeta, pts), spin.g_apply(z, zeta, pts)[0])
        regular = kx.point_green_regular_part(kx.PointModel(CENTERS), z, zeta)
        _same(point.renorm_trace(regular, zeta), spin.renorm_trace(lambda x: regular(x)[None], zeta))
    values = np.array([0.3, -1.0j, 2.0])
    _same(point.renorm_trace(values, zeta), spin.renorm_trace(values[None], zeta))
    with pytest.raises(ValueError, match=r"^continuous part must give a \(channels, centers\) array$"):
        point.renorm_trace(values[None], zeta)
