"""One-dimensional searches and the distance grid of the analytic layer.

Standard library only.  Every search runs a fixed number of halvings or to
a fixed bracket width, so its result depends on its inputs alone.
"""
from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect(
    inside: Callable[[float], bool], lo: float, hi: float, steps: int
) -> tuple[float, float]:
    """Halve [lo, hi] ``steps`` times, keeping inside(lo) true and inside(hi)
    false; the caller vouches for the ends, which are not evaluated."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Maximizer of a unimodal f on [a, b]: the midpoint of the golden-section
    bracket once it is at most ``tol`` wide.  Ties move the bracket right."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def distance_grid(d_min: float, d_max: float, step: float) -> list[float]:
    """Distances d_min + i * step, i = 0..round((d_max - d_min) / step)."""
    if not 0 <= d_min < d_max < math.inf:
        raise ValueError(f"need finite 0 <= d_min < d_max, got {d_min}, {d_max}")
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    n_steps = int(round((d_max - d_min) / step))
    return [d_min + i * step for i in range(n_steps + 1)]
