"""The slope helper against the numpy routine it replaces on the run path,
`np.polyfit(x, y, 1)[0]`, and the bracketed bisection on its own."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqevl import transfer
from seqevl._numeric import bisect, slope
from seqevl.config import KINDS
from seqevl.experiments import EJ_LADDER, EN_EPS_LADDER
from seqevl.maps import ParameterSchedule, lsv_left_inverse
from seqevl.mesh import graded_mesh, uniform_density

# the x values the run's slopes are fitted on: log n over the default and
# the longest benchmarked decay ladders, log eps and log j over the
# recurrence ladders
LADDERS = (np.log(np.asarray(KINDS["decay"].ladder, dtype=float)),
           np.log(2.0 ** np.arange(6, 16)),
           np.log(EN_EPS_LADDER), np.log(EJ_LADDER))


def slope_tolerance(x, y, want) -> float:
    """How far `slope` may lie from polyfit's slope want: 1e-12 relative, or
    where the fit is ill-conditioned 64 eps max|y| / spread(x), the rounding
    of y that a slope over so short a spread amplifies (the gap reached 18
    times that over 60,000 uniform draws of the random-points parameters)."""
    conditioning = np.finfo(float).eps * np.max(np.abs(y)) / np.ptp(x)
    return max(1e-12 * abs(want), 64.0 * conditioning)


def assert_slope_is_polyfit(x, y):
    want = np.polyfit(x, y, 1)[0]
    assert abs(slope(x, y) - want) <= slope_tolerance(x, y, want)


@given(ladder=st.sampled_from(LADDERS), a=st.floats(0.1, 10.0), sign=st.sampled_from((-1, 1)),
       b=st.floats(-20.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_slope_is_polyfit_on_the_run_ladders(ladder, a, sign, b, seed):
    noise = np.random.default_rng(seed).normal(scale=0.2, size=ladder.size)
    assert_slope_is_polyfit(ladder, sign * a * ladder + b + noise)


def random_points(size, a, sign, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, size)
    return x, sign * a * x + rng.uniform(-50.0, 50.0) + rng.normal(size=size)


@given(size=st.integers(2, 40), a=st.floats(0.1, 10.0), sign=st.sampled_from((-1, 1)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(size=2, a=1.0, sign=-1, seed=5247)
@settings(max_examples=50, deadline=None)
def test_slope_is_polyfit_on_random_points(size, a, sign, seed):
    assert_slope_is_polyfit(*random_points(size, a, sign, seed))


def test_slope_tolerance_admits_an_ill_conditioned_two_point_fit():
    # x = -20.5, -22.5 and y = 65.075, 65.086: the slope and polyfit differ
    # by 1.33e-12 relative, beyond a plain 1e-12 relative bound
    x, y = random_points(2, 1.0, -1, 5247)
    want = np.polyfit(x, y, 1)[0]
    gap = abs(slope(x, y) - want)
    assert 1e-12 * abs(want) < gap <= slope_tolerance(x, y, want)


@pytest.mark.parametrize("ladder", LADDERS, ids=("decay", "decay-long", "en-eps", "ej"))
def test_slope_tolerance_refuses_a_slope_off_by_1e9(ladder):
    # the run-ladder strategy's shallowest lines (a = 0.1) at its farthest
    # offsets, where the conditioning term is largest against the slope
    for y in (sign * 0.1 * ladder + b for sign in (-1, 1) for b in (-20.0, 20.0)):
        want = np.polyfit(ladder, y, 1)[0]
        assert abs(slope(ladder, y) * (1.0 + 1e-9) - want) > slope_tolerance(ladder, y, want)


def test_decay_slope_is_polyfit_on_a_decay_run():
    mesh = graded_mesh(64)
    schedule = ParameterSchedule()
    alpha = schedule.sup_alpha()
    f = uniform_density(mesh)
    g = transfer.cone_step_surrogate(mesh, alpha)
    result = transfer.loss_of_memory_distance(schedule, f, g, KINDS["decay"].ladder)
    x = np.log(result.ns.astype(float))
    y = result.log_distances - (1.0 / alpha) * np.log(x)
    want = np.polyfit(x, y, 1)[0]
    assert abs(result.corrected_slope(alpha) - want) <= 1e-12 * abs(want)


class CountingBelow:
    """The predicate "the root lies above mid" for fixed roots, counting its
    calls."""

    def __init__(self, roots):
        self.roots = np.asarray(roots, dtype=float)
        self.calls = 0

    def __call__(self, mid):
        self.calls += 1
        return mid < self.roots


ROOTS = np.array([0.1, 0.3, 0.5 + 2.0 ** -20, 0.77, 0.999])


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 30])
def test_bisect_returns_the_midpoints_of_the_halved_brackets(steps):
    # on [0, 1] every bracket after k halvings is dyadic, and a root on a
    # bracket end is its top (mid < r is false at mid = r), so the midpoint
    # (ceil(r 2^k) - 1/2) / 2^k is exact
    below = CountingBelow(ROOTS)
    got = bisect(below, np.zeros(ROOTS.size), np.ones(ROOTS.size), steps)
    scale = 2.0 ** steps
    assert got.tolist() == ((np.ceil(ROOTS * scale) - 0.5) / scale).tolist()
    assert below.calls == steps  # tol = 0 runs every step


def test_bisect_at_tol_zero_runs_every_step_past_float_resolution():
    below = CountingBelow(ROOTS)
    got = bisect(below, np.zeros(ROOTS.size), np.ones(ROOTS.size), 120)
    assert below.calls == 120
    np.testing.assert_allclose(got, ROOTS, rtol=0, atol=2.0 ** -52)


@pytest.mark.parametrize("tol,halvings", [(2.0 ** -5, 6), (0.03, 6), (0.5, 2), (2.0, 0)])
def test_bisect_stops_once_every_bracket_is_narrower_than_tol(tol, halvings):
    # the widest bracket, [0, 1], decides: after k halvings it is 2^-k wide,
    # and the first k with 2^-k < tol is the last halving run
    roots = np.array([0.3, 0.1])
    lo, hi = np.zeros(2), np.array([1.0, 0.25])
    below = CountingBelow(roots)
    got = bisect(below, lo, hi, 60, tol)
    assert below.calls == halvings
    assert got.tolist() == bisect(CountingBelow(roots), lo, hi, halvings).tolist()


def test_bisect_on_the_left_inverse_fallback_matches_newton():
    # the predicate lsv_left_inverse hands bisect when Newton misses, run on
    # the default mesh's boundaries: no config reaches that fallback
    y = graded_mesh().boundaries
    for alpha in (0.01, 0.1, 1.0 / 7.0):
        c = 2.0 ** alpha
        got = bisect(lambda mid: mid * (1.0 + c * mid ** alpha) <= y,
                     np.zeros(y.size), np.full(y.size, 0.5), 120)
        np.testing.assert_allclose(got, lsv_left_inverse(alpha, y), rtol=0, atol=1e-13)
