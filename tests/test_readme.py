"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_in_order(tmp_path):
    # one fresh interpreter runs every block in order, so later blocks may use earlier names
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr


def test_readme_job_example_runs(tmp_path):
    from kreinext.cli import main

    blocks = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    job = tmp_path / "job.json"
    job.write_text(blocks[0])
    assert main([str(job), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


def _field_rows():
    """The README table of job fields, rendered from ``kreinext.cli.FIELDS``."""
    import json

    from kreinext import cli

    yield "| path | read when | type | range | default |"
    yield "|------|-----------|------|-------|---------|"
    for path, when, kind, limits, default in cli.FIELDS:
        cond = "" if when is None else f"`{when[0]}` is " + " or ".join(f"`{v}`" for v in when[1])
        if limits is None:
            shown_range = ""
        elif isinstance(limits[0], str):
            shown_range = ", ".join(f"`{choice}`" for choice in limits)
        else:
            shown_range = cli._span(limits)
        shown_default = "required" if default is cli.REQUIRED else f"`{json.dumps(default)}`"
        yield f"| `{path}` | {cond} | {kind} | {shown_range} | {shown_default} |"


def test_readme_field_table_is_the_declaration():
    assert "\n".join(_field_rows()) + "\n" in (ROOT / "README.md").read_text()
