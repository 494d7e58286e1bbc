"""The resolvent, convert and verify jobs stored with the benchmark still give their bytes.

``bench/refs/cli.json`` holds the sha256 of every artifact of 32 command-line
jobs. The 24 resolvent, convert and verify jobs are rebuilt with the
benchmark's own ``job_document`` (the benchmark is only read), run in this
process through ``kreinext.cli.main`` and hashed. A refactor that moves one
written digit fails here. The 8 spectrum hashes are older than the current
search and are left to the benchmark.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from kreinext.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
JOBS = [job for job in WORKLOADS.load_refs("cli")["jobs"] if job["task"] != "spectrum"]
GRAPHS = WORKLOADS.load_refs("graphs")["instances"]


def test_every_stored_resolvent_convert_and_verify_job_is_checked():
    assert len(JOBS) == 24
    assert {job["task"] for job in JOBS} == {"resolvent", "convert", "verify"}


@pytest.mark.parametrize("job", JOBS, ids=[job["name"] for job in JOBS])
def test_stored_job_artifacts_keep_their_bytes(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(WORKLOADS.job_document(job, GRAPHS)))
    out = tmp_path / "out"
    assert main([str(path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == job["sha256"]
