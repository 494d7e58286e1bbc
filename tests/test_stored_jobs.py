"""Every artifact of the 32 command-line jobs of ``bench/refs/cli.json`` keeps its golden record."""

import pytest

import golden

JOBS = golden.workloads().load_refs("cli")["jobs"]


def test_every_stored_resolvent_convert_and_verify_job_is_checked():
    checked = [job for job in JOBS if job["task"] != "spectrum"]
    assert len(checked) == 24
    assert {job["task"] for job in checked} == {"resolvent", "convert", "verify"}
    assert {job["name"] for job in checked} <= golden.stored_keys("jobs")


def test_every_stored_spectrum_job_is_pinned():
    spectrum = {job["name"] for job in JOBS if job["task"] == "spectrum"}
    assert len(spectrum) == 8
    assert golden.stored_keys("jobs") == spectrum | {job["name"] for job in JOBS}


@pytest.mark.parametrize("name", [job["name"] for job in JOBS])
def test_stored_job_artifacts_keep_their_bytes(name):
    golden.check(f"jobs/{name}")
