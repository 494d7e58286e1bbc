import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreinext import quad
from kreinext.quad import cumulative_simpson, simpson, simpson_weights

from helpers import reference_cumulative_simpson, reference_simpson, reference_simpson_weights


def test_weights_reject_even_counts():
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)
    with pytest.raises(ValueError):
        simpson_weights(1, 0.1)


@pytest.mark.parametrize("n", [501, 502, 2001])
def test_simpson_smooth_accuracy(n):
    x = np.linspace(0.0, np.pi, n)
    val = simpson(np.sin(x), x[1] - x[0])
    assert abs(val - 2.0) < 1e-10


def test_simpson_complex():
    x = np.linspace(0.0, 1.0, 1001)
    val = simpson(np.exp(1j * x), x[1] - x[0])
    exact = (np.exp(1j) - 1.0) / 1j
    assert abs(val - exact) < 1e-12


def test_cumulative_simpson_stays_complex_and_accurate():
    x = np.linspace(0.0, np.pi, 2001)
    f = lambda t: np.sin(t) * np.exp(1j * t)
    got = cumulative_simpson(f(x), x[1] - x[0])
    assert got.dtype.kind == "c"
    # reference: fine trapezoid on a grid that contains the coarse nodes
    fine = np.linspace(0.0, np.pi, 200001)
    vals = f(fine)
    ref = np.concatenate(
        [[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0) * (fine[1] - fine[0])]
    )
    assert np.max(np.abs(got - ref[::100])) < 1e-9
    assert abs(got[0]) == 0.0


# ---------------------------------------------------------------------------
# the cached weights and the in-place running integral keep the bits of the
# frozen copies in helpers.py


@given(
    n=st.integers(3, 4001),
    log_dx=st.floats(-6.0, 1.0),
    complex_samples=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_simpson_sums_equal_the_frozen_copies(n, log_dx, complex_samples, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_samples else 0.0)
    for dx in (10.0**log_dx, np.float64(10.0**log_dx)):
        want = np.asarray(reference_simpson(f, dx))
        # the second call reads the cached weights
        for _ in range(2):
            got = np.asarray(simpson(f, dx))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got, want = cumulative_simpson(f, dx), reference_cumulative_simpson(f, dx)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_simpson_weights_are_a_new_writable_array():
    first = simpson_weights(5, 0.1)
    assert first.flags.writeable
    assert first.tobytes() == reference_simpson_weights(5, 0.1).tobytes()
    f = np.arange(5.0)
    want = np.asarray(reference_simpson(f, 0.1)).tobytes()
    simpson(f, 0.1)
    first[:] = 7.0
    second = simpson_weights(5, 0.1)
    assert second is not first and second.flags.writeable
    assert second.tobytes() == reference_simpson_weights(5, 0.1).tobytes()
    assert np.asarray(simpson(f, 0.1)).tobytes() == want


@pytest.mark.parametrize("rule", [simpson, cumulative_simpson])
def test_quadrature_needs_three_samples(rule):
    with pytest.raises(ValueError, match="^need at least 3 samples$"):
        rule(np.ones(2), 0.1)
    assert np.allclose(rule(np.ones(3), 0.5), 1.0 if rule is simpson else [0.0, 0.5, 1.0])


def test_cached_weights_keep_the_sign_and_type_of_the_step():
    # -0.0 == 0.0 and float32(1) == 1.0, but their weights differ, so they are cached apart
    for dx in (0.0, -0.0, 0.0, 1.0, np.float32(1.0), 1.0):
        assert quad._weights(5, dx).tobytes() == reference_simpson_weights(5, dx).tobytes()
        assert not quad._weights(5, dx).flags.writeable
