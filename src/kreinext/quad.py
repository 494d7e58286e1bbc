"""Composite Simpson quadrature on uniform grids, safe for complex samples."""

import math
from functools import lru_cache

import numpy as np

__all__ = ["simpson_weights", "simpson", "cumulative_simpson"]


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Composite Simpson weights for ``n`` uniformly spaced nodes (``n`` odd, >= 3)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


@lru_cache(maxsize=32, typed=True)
def _shared_weights(n: int, dx: float, sign: float) -> np.ndarray:
    """``simpson_weights(n, dx)`` as one read-only array per key. ``sign`` is
    the sign of dx: it keeps -0.0 and 0.0, which compare equal, apart; the
    type of dx is part of the key, as a float32 step rounds dx / 3 otherwise."""
    w = simpson_weights(n, dx)
    w.setflags(write=False)
    return w


def _weights(n: int, dx: float) -> np.ndarray:
    return _shared_weights(n, dx, math.copysign(1.0, dx))


def simpson(values, dx: float):
    """Integrate uniformly sampled values over the whole grid.

    Even node counts are handled by a cubic end-interval patch, so both
    parities stay fourth order for smooth integrands. The weights come from
    a small cache of read-only arrays keyed by (node count, dx), so repeated
    sums on one grid do not rebuild them; the sum is the one of
    :func:`simpson_weights`, to the bit.
    """
    f = np.asarray(values)
    n = f.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples")
    if n % 2 == 1:
        return np.sum(_weights(n, dx) * f)
    head = np.sum(_weights(n - 1, dx) * f[:-1])
    tail = dx / 24.0 * (9.0 * f[-1] + 19.0 * f[-2] - 5.0 * f[-3] + f[-4])
    return head + tail


def cumulative_simpson(values, dx: float) -> np.ndarray:
    """Running integral from the first node, local quadratic rule.

    Each interval contribution integrates the parabola through the three
    nearest samples; unlike the scipy counterpart this keeps complex input
    complex. The contributions are formed and summed in the output buffer,
    by the same operations in the same order as in
    dx / 12 (-f[i-2] + 8 f[i-1] + 5 f[i]), so no step rounds differently.
    """
    f = np.asarray(values)
    if f.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, 1.0))
    out[0] = 0.0
    out[1] = dx / 12.0 * (5.0 * f[0] + 8.0 * f[1] - f[2])
    steps = out[2:]
    np.negative(f[:-2], out=steps)
    steps += 8.0 * f[1:-1]
    steps += 5.0 * f[2:]
    steps *= dx / 12.0
    # cumsum with no axis runs over the flattened samples, so out is passed flat
    return np.cumsum(out, out=out.reshape(-1))
