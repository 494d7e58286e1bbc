"""Every search evaluates the same points in the same rounds (see ``golden.py``)."""

import pytest

import golden
from test_spectral import SEARCH_CASES

N_SEARCHES = 72


def test_every_search_is_pinned():
    assert golden.stored_keys("plan") == {str(i) for i in range(N_SEARCHES)}
    assert golden.stored_keys("cases") == set(SEARCH_CASES)


def test_seed_3_plan_searches_keep_their_rounds():
    golden.check(*(f"plan/{i}/rounds" for i in range(N_SEARCHES)))


def test_signed_zero_interval_searches_keep_their_rounds():
    golden.check("signed_zero")


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_case_keeps_its_rounds(name):
    golden.check(f"cases/{name}")
