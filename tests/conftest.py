import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and stay inside the
# suite's runtime budgets.
settings.register_profile(
    "kreinext", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("kreinext")
