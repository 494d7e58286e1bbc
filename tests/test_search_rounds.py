"""Every search evaluates the same points in the same rounds (see ``golden.py``), and
each root of the spectrum plan takes one probe round."""

import pytest

import golden
import kreinext as kx
from kreinext import spectral
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


def test_each_root_of_the_seed_3_plan_searches_takes_one_probe_round(monkeypatch):
    probed, roots = [], []

    class Recorded(spectral._Bracket):
        def __setattr__(self, name, value):
            if name == "phase" and value == spectral.PROBE:
                probed.append(self)
            super().__setattr__(name, value)

    def isolate(*args, isolate=spectral._isolate):
        found = isolate(*args)
        roots.extend(found)
        return found

    monkeypatch.setattr(spectral, "_Bracket", Recorded)
    monkeypatch.setattr(spectral, "_isolate", isolate)
    for _, _, system, params, window, *_ in golden.plan_searches():
        kx.eigenvalue_search(system, params, window)
    assert len(roots) == 1038 and all(drop == 1 for _, drop in roots)
    assert len(probed) == len(set(map(id, probed))) == len(roots)
