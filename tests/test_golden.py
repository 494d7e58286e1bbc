"""The golden corpus (``golden.py``) is whole, canonical and reports a one-ulp move.

The plan results are checked here; ``test_stored_resolvent.py``,
``test_stored_jobs.py`` and ``test_search_rounds.py`` check the other groups
and that the corpus holds each of their outputs.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import golden

N_SEARCHES = 72


def test_golden_json_is_its_own_canonical_dump():
    text = golden.CORPUS.read_text()
    assert text == golden.canonical(json.loads(text))


def test_the_corpus_covers_every_pinned_output():
    assert {n.split("/")[0] for n in golden.stored()} == set(golden.GROUPS)
    signed_zero = golden.stored_keys("signed_zero")
    assert signed_zero == {n.split("/")[1] for n in golden.outputs("signed_zero")}
    assert len(signed_zero) >= 100


@pytest.mark.parametrize("i", range(N_SEARCHES))
def test_plan_search_keeps_its_result(i):
    golden.check(f"plan/{i}/result")


def test_a_one_ulp_move_fails_and_is_reported():
    x = golden.resolvent_arrays(0)["interval"].copy()
    k = np.argmax(np.abs(x))
    x.real[k] = np.nextafter(x.real[k], np.inf)
    *_, result, _ = golden.plan_searches()[0]
    first = result.eigenvalues[0]
    hit = dataclasses.replace(first, lam=np.nextafter(first.lam, np.inf))
    moved = dataclasses.replace(result, eigenvalues=(hit, *result.eigenvalues[1:]))
    for name, record in (
        ("resolvent/0/interval", golden.array_record(x)),
        ("plan/0/result", golden.result_record(moved)),
    ):
        with pytest.raises(AssertionError) as failure:
            golden.check(name, got={name: record})
        message = str(failure.value)
        assert message.startswith(f"{name}: bytes changed, ")
        assert 0.0 < float(re.search(r"moved by ([^,\s]+)", message)[1]) <= 2.3e-16
