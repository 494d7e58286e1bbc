"""Every array of the resolvent workload's 48 seed-3 ops keeps its golden record.

This pins the Simpson sums, the sampled kernels, both closed-form Gram
matrices and the exclusion guard on the resolvent path, bit for bit.
"""

import pytest

import golden

N_OPS = 48


def test_every_resolvent_op_is_pinned():
    assert golden.stored_keys("resolvent") == {str(i) for i in range(N_OPS)}
    assert len(golden.resolvent_workload().plan) == N_OPS


@pytest.mark.parametrize("i", range(N_OPS))
def test_resolvent_op_keeps_its_bits(i):
    golden.check(f"resolvent/{i}")
