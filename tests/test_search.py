"""Unit tests of the shared searches and the distance grid."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkd_eve_lab.search import MAX_SWEEP_POINTS, bisect, distance_grid, golden_max


def _loop_grid(d_min, d_max, step):
    """Every d_min + i * step with i * step within the span and its 1e-9 slack."""
    grid, i = [], 0
    while i * step <= (d_max - d_min) * (1.0 + 1e-9):
        grid.append(d_min + i * step)
        i += 1
    return grid


@pytest.mark.parametrize("d_min,d_max,step", [
    (0, 200, 1), (0, 120, 5), (0.5, 10, 0.3), (0, 10, 6), (0, 0.3, 0.1), (2.5, 61, 1.3),
])
def test_distance_grid_matches_the_sweep_loop(d_min, d_max, step):
    grid = distance_grid(d_min, d_max, step)
    assert grid.dtype == float
    assert grid.tolist() == _loop_grid(float(d_min), float(d_max), float(step))
    assert grid[-1] <= d_max * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "d_min,d_max,step",
    [(0, 10, 0), (0, 10, -1), (0, 10, math.nan), (10, 5, 1), (5, 5, 1),
     (-1, 5, 1), (0, math.inf, 1), (math.nan, 5, 1), (0, 10, math.inf),
     (0, 1e300, 1e-10), (0, 100000, 0.1)],
)
def test_distance_grid_rejects_bad_sweeps(d_min, d_max, step):
    with pytest.raises(ValueError):
        distance_grid(d_min, d_max, step)


def test_distance_grid_holds_up_to_the_point_cap():
    assert distance_grid(0.0, 99999.9, 0.1).size == MAX_SWEEP_POINTS


def test_bisect_equals_the_hand_written_loop():
    def inside(x):
        return math.exp(-3.0 * x) > 0.2

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    assert bisect(inside, 0.0, 1.0, 60) == (lo, hi)
    assert 0.5 * (lo + hi) == pytest.approx(math.log(5.0) / 3.0, rel=1e-15)


def test_bisect_stops_once_no_end_moves():
    # About 55 halvings bring [0, 1] down to two adjacent floats around the
    # root; the rest of 200 would leave them as they are.  A root at the lower
    # end moves hi toward 0 on every step, so that search runs all 200.
    calls = []

    def inside(x, level=np.array([0.2, 2.0])):
        calls.append(x)
        return np.exp(-3.0 * x) > level[: np.size(x)].reshape(np.shape(x))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.exp(-3.0 * mid) > 0.2 else (lo, mid)
    assert bisect(inside, 0.0, 1.0, 200) == (lo, hi)
    assert 50 < len(calls) < 60
    calls.clear()
    got_lo, got_hi = bisect(inside, [0.0, 0.0], [1.0, 1.0], 200)
    assert got_lo.tolist() == [lo, 0.0] and got_hi.tolist() == [hi, 2.0**-200]
    assert len(calls) == 200


def test_bisect_zero_steps_returns_the_bracket():
    assert bisect(lambda x: True, 1.0, 2.0, 0) == (1.0, 2.0)


def test_golden_max_finds_an_interior_peak():
    x = golden_max(lambda m: -(m - 0.3) ** 2, 0.0, 1.0, 1e-9)
    assert x == pytest.approx(0.3, abs=1e-8)


def test_golden_max_breaks_ties_to_the_right():
    # Zero-rate tails are flat; the search walks to the right end of them.
    x = golden_max(lambda m: 0.0, 2.0, 3.0, 1e-6)
    assert 3.0 - 1e-6 < x < 3.0


def test_scalar_brackets_give_floats():
    lo, hi = bisect(lambda x: x < 0.3, 0.0, 1.0, 10)
    x = golden_max(lambda m: -(m - 0.3) ** 2, 0.0, 1.0, 1e-6)
    assert all(isinstance(v, float) for v in (lo, hi, x))


# Brackets of widths from 0 to 10 at tol 1e-6 stop after 0 to about 33 steps.
_bracket = st.tuples(st.floats(-5.0, 5.0),
                     st.sampled_from([0.0, 1e-7, 1e-3, 0.1, 1.0, 10.0]),
                     st.floats(-5.0, 15.0),
                     st.sampled_from([0.0, 1.0, 10.0, 1e3, 1e9]))


@given(st.lists(_bracket, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_golden_max_elementwise_equals_scalar_runs(rows):
    # A quantized peak, -floor(q |x - p|), has exact ties; q = 0 is flat.
    a, width, p, q = (np.array(col) for col in zip(*rows))

    def f(x, p=p, q=q):
        return -np.floor(q * np.abs(x - p))

    got = golden_max(f, a, a + width, 1e-6)
    for i in range(len(rows)):
        want = golden_max(lambda x: f(x, p[i], q[i]), a[i], a[i] + width[i], 1e-6)
        assert got[i] == want


@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 10.0), st.floats(0.0, 1.0),
                          st.floats(0.1, 10.0)), min_size=1, max_size=8),
       st.integers(0, 70))
@settings(max_examples=200, deadline=None)
def test_bisect_elementwise_equals_scalar_runs(rows, steps):
    lo, width, level, rate = (np.array(col) for col in zip(*rows))

    def inside(x, lo=lo, level=level, rate=rate):
        return np.exp(-rate * (x - lo)) > level

    got_lo, got_hi = bisect(inside, lo, lo + width, steps)
    for i in range(len(rows)):
        want = bisect(lambda x: inside(x, lo[i], level[i], rate[i]), lo[i], lo[i] + width[i],
                      steps)
        assert (got_lo[i], got_hi[i]) == want
