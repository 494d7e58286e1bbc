"""The 32 command-line jobs stored with the benchmark still give their bytes.

``bench/refs/cli.json`` holds 32 command-line jobs and the sha256 of every
artifact. Each job is rebuilt with the benchmark's own ``job_document``
(the benchmark is only read), run in this process through
``kreinext.cli.main`` and hashed. A refactor that moves one written digit
fails here. The 24 resolvent, convert and verify jobs are checked against
the stored hashes. The 8 stored spectrum hashes are older than the current
search, so ``stored_spectrum_hashes.json`` beside this file pins the
spectrum artifacts of the current search instead.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from kreinext.cli import main

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
STORED = WORKLOADS.load_refs("cli")["jobs"]
JOBS = [job for job in STORED if job["task"] != "spectrum"]
SPECTRUM_HASHES = json.loads((HERE / "stored_spectrum_hashes.json").read_text())
SPECTRUM_JOBS = [
    {**job, "sha256": SPECTRUM_HASHES[job["name"]]} for job in STORED if job["task"] == "spectrum"
]
CHECKED = JOBS + SPECTRUM_JOBS
GRAPHS = WORKLOADS.load_refs("graphs")["instances"]


def test_every_stored_resolvent_convert_and_verify_job_is_checked():
    assert len(JOBS) == 24
    assert {job["task"] for job in JOBS} == {"resolvent", "convert", "verify"}


def test_every_stored_spectrum_job_is_pinned():
    assert len(SPECTRUM_JOBS) == 8
    assert sorted(SPECTRUM_HASHES) == sorted(job["name"] for job in SPECTRUM_JOBS)


@pytest.mark.parametrize("job", CHECKED, ids=[job["name"] for job in CHECKED])
def test_stored_job_artifacts_keep_their_bytes(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(WORKLOADS.job_document(job, GRAPHS)))
    out = tmp_path / "out"
    assert main([str(path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == job["sha256"]
