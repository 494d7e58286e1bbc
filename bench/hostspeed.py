"""Host speed reference: a fixed burst of work timed next to every op.

The shared 2-core host the benchmark runs on changes speed by up to half
for seconds to minutes at a time: a fixed loop of 500 ``eigvalsh`` calls on
a 16x16 matrix took between 10 and 16 ms per batch within one minute,
with process CPU time equal to wall time (no steal shows). No run length
averages that out, so two sets of runs of the same code disagree by more
than any useful bound.

``burst()`` times a fixed mix of what the program itself spends its time
on (small LAPACK calls, numpy vector ops and interpreted Python loops).
The benchmark times it right before and right after each op and scales
the op's latency by ``REFERENCE_S / burst``: the result is the latency at
the reference speed, the host's quiet speed, at which one burst takes
``REFERENCE_S``. The burst does not touch the program, so a change to the
program cannot move it.
"""

import time

import numpy as np

# One burst's time on the benchmark's 2-core host at its quiet speed.
REFERENCE_S = 1.25e-3
PARTS = 3
ROUNDS = 40

_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_MATRIX = _MATRIX + _MATRIX.T
_VECTOR = np.linspace(0.0, 1.0, 256)


def _part() -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        np.linalg.eigvalsh(_MATRIX)
        np.exp(_VECTOR).sum()
        x = 0.0
        for k in range(150):
            x += k * 0.5
    return time.perf_counter() - start


def burst() -> float:
    """Seconds of one burst: the fastest of a few back-to-back parts, so an
    interrupt in one part does not count as a slow host."""
    return min(_part() for _ in range(PARTS))


def scale(before: float, after: float) -> float:
    """Factor that turns a latency measured between two bursts into one at
    the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


burst()  # the first LAPACK call loads the library; keep it out of the timing
