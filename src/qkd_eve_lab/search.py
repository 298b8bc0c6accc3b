"""One-dimensional searches and the distance grid of the analytic layer.

Every search runs a fixed number of halvings or to a fixed bracket width,
so its result depends on its inputs alone.  The searches are elementwise:
each element of the bracket ends is a search of its own, and the predicate
or objective sees the whole array.  Scalar brackets give numpy float64s.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_SWEEP_POINTS = 10**6  # the most distances one sweep may hold


def bisect(inside: Callable[[np.ndarray], np.ndarray], lo, hi,
           steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Halve [lo, hi] ``steps`` times, keeping inside(lo) true and inside(hi)
    false; the caller vouches for the ends, which are not evaluated.

    ``inside`` maps the array of midpoints to a boolean array.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        go = inside(mid)
        if (mid == np.where(go, lo, hi)).all():
            break  # no end moves, and no later halving would move one
        lo, hi = np.where(go, mid, lo), np.where(go, hi, mid)
    return lo[()], hi[()]


def golden_max(f: Callable[[np.ndarray], np.ndarray], a, b, tol: float) -> np.ndarray:
    """Maximizer of a unimodal f on [a, b]: the midpoint of the golden-section
    bracket once it is at most ``tol`` wide.  Ties move the bracket right.

    Each bracket stops on its own once it is at most ``tol`` wide; ``f`` is
    evaluated on the whole array at every step, and its values at stopped
    brackets are discarded.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while True:
        active = np.abs(b - a) > tol
        if not active.any():
            return (0.5 * (a + b))[()]
        # Left drops (d, b] and evaluates a new c; right drops [a, c), a new d.
        left = active & (fc > fd)
        right = active & ~left
        b, a = np.where(left, d, b), np.where(right, c, a)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = f(x)
        c, d = np.where(left, x, np.where(right, d, c)), np.where(right, x, np.where(left, c, d))
        fc, fd = (np.where(left, fx, np.where(right, fd, fc)),
                  np.where(right, fx, np.where(left, fc, fd)))


def distance_grid(d_min: float, d_max: float, step: float) -> np.ndarray:
    """Distances d_min + i * step, i = 0..n, n the largest count with
    n * step <= (d_max - d_min) * (1 + 1e-9); the slack keeps the end of
    0..0.3 by 0.1, where 0.3 / 0.1 = 2.9999999999999996.  The points are
    counted first, and more than ``MAX_SWEEP_POINTS`` are rejected."""
    if not 0 <= d_min < d_max < math.inf:
        raise ValueError(f"need finite 0 <= d_min < d_max, got {d_min}, {d_max}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    n_steps = (d_max - d_min) * (1.0 + 1e-9) / step
    if not n_steps < MAX_SWEEP_POINTS:
        raise ValueError(f"{step} km steps from {d_min} to {d_max} km give more than "
                         f"{MAX_SWEEP_POINTS:,} points")
    return d_min + np.arange(math.floor(n_steps) + 1, dtype=float) * step
