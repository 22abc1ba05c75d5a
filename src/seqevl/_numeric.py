"""Least-squares slopes and bracketed bisection from plain numpy sums and
selects.

`np.polyfit` sets up LAPACK for its `lstsq`, 0.5-0.6 MB of peak memory,
and computes no value that a table holds.
"""

from __future__ import annotations

import numpy as np


def slope(x, y) -> float:
    """Least-squares slope of y against x, `np.polyfit(x, y, 1)[0]`, from
    the centred sums."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def bisect(below, lo, hi, steps: int, tol: float = 0.0):
    """Midpoints of the brackets [lo, hi] after `steps` halvings, each keeping
    the half that holds its root (`below(mid)`: the root lies above mid), or
    after fewer once every bracket is narrower than tol."""
    for _ in range(steps):
        if tol > 0.0 and np.max(hi - lo, initial=0.0) < tol:
            break
        mid = 0.5 * (lo + hi)
        up = below(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)
