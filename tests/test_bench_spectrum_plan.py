"""The benchmark's spectrum plan gives the same searches with the frozen formation.

The 72 searches of the seed-3 spectrum plan are rebuilt with the
benchmark's own ``make_workload`` (the benchmark is only read) and run
twice: as they are, and with ``spectral.secular_matrix`` and
``spectral._hermitian_part`` replaced by the frozen formation of
``helpers.reference_secular_matrix``, which compresses every label and
builds Gamma with the kernels as first written. Every root, multiplicity,
sigma_min, null basis, gap and metadata field must agree to the bit.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kreinext as kx
from kreinext import spectral

from helpers import assert_same_search, reference_hermitian_part, reference_secular_matrix

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _model(family, inst):
    if family == "interval":
        return kx.IntervalModel(WORKLOADS.INTERVAL_A)
    if family == "graph":
        return kx.GraphModel(tuple(inst["lengths"]))
    return kx.PointModel(np.array(inst["centers"]))


def test_seed_3_spectrum_plan_keeps_its_bits_under_the_frozen_formation(monkeypatch, tmp_path):
    workload = WORKLOADS.make_workload("spectrum", 3, BENCH.parent, tmp_path)
    workload.build(kx)
    assert len(workload.plan) == 72
    roots = 0
    for (family, inst), (system, params) in zip(workload.plan, workload.systems):
        window = WORKLOADS.WINDOWS[family]
        got = kx.eigenvalue_search(system, params, window)
        model = _model(family, inst)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_hermitian_part", reference_hermitian_part)
            patch.setattr(
                spectral,
                "secular_matrix",
                lambda system, params, z: reference_secular_matrix(model, params, z),
            )
            frozen = kx.eigenvalue_search(system, params, window)
        assert_same_search(got, frozen)
        roots += len(got.eigenvalues)
    assert roots >= 72 * 3
