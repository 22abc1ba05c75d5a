"""Short-return set measures and local recurrence."""

import numpy as np
import pytest

from seqevl.maps import ParameterSchedule, sequential_orbit
from seqevl.recurrence import (
    BISECT_TOL,
    RecurrenceParams,
    _measure_below,
    local_recurrence_at,
    local_recurrence_bound,
    loglog_slope,
    measure_Ej,
    measure_En_eps,
    min_orbit_displacement,
    orbit_displacement,
)
from seqevl.thresholds import Observable

# closed-form left endpoint of the n = 1 return set: (eps 2^-alpha)^(1/(1+alpha))
# at alpha = 0.1, eps = 2^-8 (mpmath, 40 significant digits)
LEFT_EDGE_ORACLE = 0.0060718995381676535921


# ------------------------------------------------------------------- params

def test_params_defaults():
    p = RecurrenceParams()
    assert p.varsigma == pytest.approx(1.0 / (1.0 + 1.0 / 7.0) - 0.21, abs=1e-15)
    assert p.varsigma == pytest.approx(0.665, abs=1e-12)
    assert p.varsigma > p.beta
    assert p.gamma * (p.varsigma - p.beta) > 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        RecurrenceParams(beta=0.0)
    with pytest.raises(ValueError):
        RecurrenceParams(beta=0.3, kappa=0.3)  # kappa must stay below beta
    with pytest.raises(ValueError):
        RecurrenceParams(xi=1.5)
    with pytest.raises(ValueError):
        RecurrenceParams(beta=0.3, kappa=0.29, xi=0.05)  # kappa(1+xi) >= beta
    # local-bound feasibility: varsigma must clear beta ...
    with pytest.raises(ValueError):
        RecurrenceParams(beta=0.7, kappa=0.2, xi=0.05)
    # ... and gamma*(varsigma - beta) must clear 1
    with pytest.raises(ValueError):
        RecurrenceParams(gamma=1.0)


def test_horizon_monotone_in_j_and_exponent():
    p = RecurrenceParams()
    js = [2, 10, 100, 1000, 10000]
    hs = [p.horizon(j) for j in js]
    assert hs[0] == 1
    assert all(a <= b for a, b in zip(hs, hs[1:]))
    assert hs == [int(np.floor(j ** 0.21)) for j in js]
    steeper = RecurrenceParams(beta=0.3, kappa=0.28, xi=0.05, gamma=4.0)
    assert all(steeper.horizon(j) >= p.horizon(j) for j in js)


# -------------------------------------------------------------- displacement

def test_orbit_displacement_single_step_closed_forms(const01):
    # left branch: increment is 2^alpha x^(1+alpha)
    d = orbit_displacement(const01, 1, 0.3)[0]
    assert d == pytest.approx(2.0 ** 0.1 * 0.3 ** 1.1, rel=1e-15)
    assert d == pytest.approx(0.28506006495170291732, abs=1e-15)
    # right branch: increment is x - 1
    assert orbit_displacement(const01, 1, 0.8)[0] == pytest.approx(-0.2, abs=1e-15)
    assert orbit_displacement(const01, 1, 1.0)[0] == 0.0


def test_orbit_displacement_matches_orbit_difference(const01):
    for x0 in (0.13, 0.31, 0.47, 0.62, 0.97):
        for n in (1, 3, 10):
            d = orbit_displacement(const01, n, x0)[0]
            orb = sequential_orbit(const01, x0, n)
            assert d == pytest.approx(orb[-1] - orb[0], abs=1e-12)


def test_orbit_displacement_near_fixed_point_no_cancellation(const01):
    # at x = 1e-12 the naive T(x) - x loses all digits; the closed form keeps them
    x = 1e-12
    d = orbit_displacement(const01, 1, x)[0]
    assert d == pytest.approx(2.0 ** 0.1 * x ** 1.1, rel=1e-14)
    assert d > 0.0


def test_min_orbit_displacement_is_prefix_minimum(const01):
    xs = np.array([0.05, 0.3, 0.55, 0.9])
    best = min_orbit_displacement(const01, 5, xs)
    brute = np.min(np.abs(np.stack(
        [orbit_displacement(const01, i, xs) for i in range(1, 6)])), axis=0)
    np.testing.assert_array_equal(best, brute)


# ----------------------------------------------------------------- measures

def test_measure_below_closed_form_sets():
    nodes = np.linspace(0.0, 1.0, 65)  # cells of width 1/64
    # the interval [0.2, 0.4]: both ends fall inside a cell and are bisected
    m = _measure_below(nodes, lambda x: np.abs(x - 0.3) - 0.1)
    assert abs(m - 0.2) <= 4 * BISECT_TOL
    # a component of width 1/512 inside the cell [32/64, 33/64] is missed
    assert _measure_below(nodes, lambda x: np.abs(x - (0.5 + 1 / 256)) - 1 / 1024) == 0.0
    # g = 0 at the node 0.5 and negative elsewhere: the tie counts as inside,
    # so every cell is inside and nothing is bisected
    calls = []

    def g(x):
        calls.append(np.size(x))
        return -(x - 0.5) ** 2

    assert _measure_below(nodes, g) == 1.0
    assert calls == [nodes.size]


def test_measure_en_eps_full_interval(const01):
    assert measure_En_eps(const01, 1, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_measure_en_eps_closed_form(const01):
    # E_1(eps) is [0, x*] plus [1 - eps, 1] exactly, x* the left-edge root
    eps = 2.0 ** -8
    m = measure_En_eps(const01, 1, eps)
    assert m == pytest.approx(LEFT_EDGE_ORACLE + eps, abs=1e-9)


def test_measure_en_eps_monotone_in_eps(const01):
    ms = [measure_En_eps(const01, 5, 2.0 ** -k) for k in (6, 8, 10)]
    assert ms[0] >= ms[1] >= ms[2] > 0.0


def test_measure_en_eps_grid_convergence(const01):
    coarse = measure_En_eps(const01, 5, 2.0 ** -8, resolution=4096)
    fine = measure_En_eps(const01, 5, 2.0 ** -8, resolution=8192)
    assert abs(coarse - fine) <= 2.0 / 4096


def test_measure_en_eps_validation(const01):
    with pytest.raises(ValueError):
        measure_En_eps(const01, 1, 0.0)
    with pytest.raises(ValueError):
        measure_En_eps(const01, 0, 0.1)
    # NaN compares false with 0, and a numpy step count needs an integer
    with pytest.raises(ValueError, match="eps"):
        measure_En_eps(const01, 1, float("nan"))
    with pytest.raises(ValueError, match="n must be an integer"):
        measure_En_eps(const01, 2.5, 0.1)


def test_measure_ej_contains_first_return_set(const01):
    p = RecurrenceParams()
    j = 32
    assert p.horizon(j) >= 1
    union = measure_Ej(const01, j, p)
    first = measure_En_eps(const01, 1, 2.0 / j)
    assert union >= first - 2e-3  # both carry O(1/resolution) grid error
    with pytest.raises(ValueError):
        measure_Ej(const01, 1.5, p)


def test_measure_ej_grows_with_horizon(const01):
    p = RecurrenceParams()
    steeper = RecurrenceParams(beta=0.3, kappa=0.28, xi=0.05, gamma=4.0)
    j = 64.0
    assert steeper.horizon(j) > p.horizon(j)
    assert measure_Ej(const01, j, steeper) >= measure_Ej(const01, j, p) - 2e-3


# -------------------------------------------------------- local recurrence

def test_local_recurrence_contained_in_ball(const01):
    p = RecurrenceParams()
    for zeta in (0.3, 1.0 / np.sqrt(2.0)):
        m = local_recurrence_at(const01, Observable(zeta), 8.0, p)
        assert 0.0 <= m <= 2.0 * 8.0 ** -p.gamma + 1e-12


def test_local_recurrence_validation(const01):
    # zeta is the Observable's to check (test_observable_validation)
    p, obs = RecurrenceParams(), Observable(0.3)
    for j in (0.0, -8.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^j must be positive and finite"):
            local_recurrence_at(const01, obs, j, p)
    # finite, but j ** -gamma or j ** gamma overflows
    for j in (1e-200, 1e200, np.float64(1e-200), np.float64(1e200)):
        with pytest.raises(ValueError, match=r"overflows at j="):
            local_recurrence_at(const01, obs, j, p)


def test_measure_ej_validation(const01):
    p = RecurrenceParams()
    for j in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^j must be finite and at least 2, got"):
            measure_Ej(const01, j, p)


def test_local_recurrence_bound_formula():
    p = RecurrenceParams()
    assert local_recurrence_bound(8.0, p) == pytest.approx(
        2.0 * 8.0 ** (-p.gamma * (1.0 + p.beta)), rel=1e-15)
    assert local_recurrence_bound(16.0, p) < local_recurrence_bound(8.0, p)


# -------------------------------------------------------------------- slope

def test_loglog_slope_recovers_power_law():
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    ys = 3.0 * xs ** 2.0
    assert loglog_slope(xs, ys) == pytest.approx(2.0, abs=1e-12)
    assert loglog_slope(xs, 5.0 / xs) == pytest.approx(-1.0, abs=1e-12)
