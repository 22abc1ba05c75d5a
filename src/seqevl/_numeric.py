"""Sorted distinct values, least-squares slopes and bracketed bisection
from plain numpy sorts, sums and selects.

`np.unique` imports `numpy.ma` (numpy 2.4 asks `np.ma.is_masked` of its
input), 1.2 MB of peak memory, and `np.polyfit` sets up LAPACK for its
`lstsq`, 0.5-0.6 MB more; neither computes a value that a table holds.
"""

from __future__ import annotations

import numpy as np


def distinct(a) -> np.ndarray:
    """The sorted distinct values of a flattened array: `np.unique(a)` when
    `a` holds no NaN."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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
        if np.max(hi - lo, initial=0.0) < tol:
            break
        mid = 0.5 * (lo + hi)
        up = below(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)
