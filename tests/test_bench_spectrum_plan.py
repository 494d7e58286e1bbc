"""The benchmark's spectrum plan gives the same searches with the frozen formation.

The 72 searches of the seed-3 spectrum plan, as the golden corpus ran them
(``golden.plan_searches``), are run again with ``spectral.secular_matrix``
replaced by the frozen Hermitian stack, ``helpers.reference_hermitian_part``
of ``helpers.reference_secular_matrix``, which compresses every label and
builds Gamma with the kernels as first written, and ``spectral._hermitian_part``
by the identity. So every ``eigvalsh`` and the final ``eigh`` see the frozen
Hermitian stack, whether or not the search forms a Hermitian part for the
label. Every root, multiplicity, sigma_min, null basis, gap and metadata
field must agree to the bit.
"""

import numpy as np

import kreinext as kx
from kreinext import spectral

import golden
from helpers import assert_same_search, reference_hermitian_part, reference_secular_matrix


def _model(family, inst):
    if family == "interval":
        return kx.IntervalModel(golden.workloads().INTERVAL_A)
    if family == "graph":
        return kx.GraphModel(tuple(inst["lengths"]))
    return kx.PointModel(np.array(inst["centers"]))


def test_seed_3_spectrum_plan_keeps_its_bits_under_the_frozen_formation(monkeypatch):
    searches = golden.plan_searches()
    assert len(searches) == 72
    roots = 0
    for family, inst, system, params, window, got, _ in searches:
        model = _model(family, inst)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_hermitian_part", lambda m: m)
            patch.setattr(
                spectral,
                "secular_matrix",
                lambda system, params, z: reference_hermitian_part(reference_secular_matrix(model, params, z)),
            )
            frozen = kx.eigenvalue_search(system, params, window)
        assert_same_search(got, frozen)
        roots += len(got.eigenvalues)
    assert roots >= 72 * 3
