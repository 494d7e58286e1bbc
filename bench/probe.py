"""Fresh-interpreter probes started by ``run.py``; not meant to be run by hand.

    python3 bench/probe.py setup WORKLOAD SEED SCRATCH
        Imports kreinext and builds every system and extension label the
        workload uses, then prints the CLOCK_MONOTONIC time it finished and
        how long the (program-independent) plan took.
    python3 bench/probe.py import
        Times ``import kreinext.cli`` and counts the scipy modules it loads.

The working directory must be the checkout's root; ``src`` goes first on
the path, and the probe refuses a kreinext imported from anywhere else.
"""

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def import_checked(name: str):
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(name)
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"{name} was imported from {module.__file__}, not from {SRC}")
    return module


def main(argv) -> None:
    if argv[0] == "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import workloads

        t0 = time.monotonic()
        workload = workloads.make_workload(argv[1], int(argv[2]), ROOT, Path(argv[3]))
        plan_s = time.monotonic() - t0
        kx = import_checked("kreinext")
        workload.build(kx)
        print(json.dumps({"end": time.monotonic(), "plan_s": plan_s}))
    elif argv[0] == "import":
        t0 = time.perf_counter()
        import_checked("kreinext.cli")
        import_s = time.perf_counter() - t0
        scipy = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"import_s": import_s, "scipy_modules": scipy}))
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
