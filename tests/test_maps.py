"""Map evaluation, inverses, schedules, orbits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqevl.maps import (
    ALPHA_STAR,
    ParameterSchedule,
    apply_map_batch,
    lsv_left_inverse,
    sequential_orbit,
)
from reference import lsv_apply, lsv_derivative, lsv_preimages, where_step

# high-precision reference values (mpmath, 40 significant digits)
MAP_ORACLES = [
    (0.1, 0.3, 0.58506006495170291732),
    (0.1, 0.49, 0.97901106663436909515),
    (1.0 / 7.0, 0.2, 0.37546133242474830307),
]
DERIV_ORACLES = [
    (0.1, 0.3, 2.0452202381562440302),
    (1.0 / 7.0, 0.05, 1.8224979120013165942),
]
INVERSE_ORACLES = [
    (0.1, 0.4, 0.2087301092009601043),
    (1.0 / 7.0, 0.07, 0.041176508333015898572),
]


@pytest.mark.parametrize("alpha,x,expected", MAP_ORACLES)
def test_left_branch_matches_high_precision(alpha, x, expected):
    assert lsv_apply(alpha, x) == pytest.approx(expected, abs=1e-15)


def test_right_branch_is_exact():
    # 2x - 1 in double precision is exact for these dyadics
    assert lsv_apply(0.1, 0.75) == 0.5
    assert lsv_apply(0.1, 0.5) == 0.0
    assert lsv_apply(1.0 / 7.0, 1.0) == 1.0


def test_fixed_points():
    assert lsv_apply(0.1, 0.0) == 0.0
    assert lsv_apply(0.1, 1.0) == 1.0


@pytest.mark.parametrize("alpha,x,expected", DERIV_ORACLES)
def test_derivative_matches_high_precision(alpha, x, expected):
    assert lsv_derivative(alpha, x) == pytest.approx(expected, abs=1e-15)


def test_derivative_right_branch_and_expansion():
    assert lsv_derivative(0.1, 0.5) == 2.0
    assert lsv_derivative(0.1, 0.9) == 2.0
    x = np.linspace(0.0, 1.0, 1001)
    assert np.all(lsv_derivative(0.1, x) >= 1.0)


@pytest.mark.parametrize("alpha,y,expected", INVERSE_ORACLES)
def test_left_inverse_matches_high_precision(alpha, y, expected):
    assert lsv_left_inverse(alpha, y) == pytest.approx(expected, abs=1e-13)


def test_domain_validation():
    with pytest.raises(ValueError):
        lsv_apply(0.1, -0.01)
    with pytest.raises(ValueError):
        lsv_apply(0.1, 1.01)
    with pytest.raises(ValueError):
        lsv_apply(0.0, 0.3)
    with pytest.raises(ValueError):
        lsv_apply(1.0, 0.3)


def _left_branch(alpha, x):
    # the map's left-branch formula; valid up to x = 1/2 where lsv_apply
    # already switches to the right branch
    return x * (1.0 + 2.0 ** alpha * x ** alpha)


@given(
    alpha=st.floats(min_value=0.01, max_value=ALPHA_STAR),
    y=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_left_inverse_round_trip(alpha, y):
    x = lsv_left_inverse(alpha, y)
    assert 0.0 <= x <= 0.5
    assert abs(_left_branch(alpha, x) - y) <= 1e-12


@given(
    alpha=st.floats(min_value=0.01, max_value=ALPHA_STAR),
    y=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_preimages_land_on_target(alpha, y):
    xl, xr = lsv_preimages(alpha, y)
    assert 0.0 <= xl <= 0.5 <= xr <= 1.0
    assert abs(_left_branch(alpha, xl) - y) <= 1e-12
    assert abs(lsv_apply(alpha, float(xr)) - y) <= 1e-12


# the branch switch, the ends of [0, 1] and the smallest subnormal
EDGE_POINTS = np.array([0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                        0.75, np.nextafter(1.0, 0.0), 1.0])


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


def test_batch_matches_scalar_path():
    for alpha in (1e-3, 0.05, 0.1, ALPHA_STAR, 0.5, 0.9):
        want = where_step(alpha, EDGE_POINTS)
        assert_same_bits(apply_map_batch(alpha, EDGE_POINTS), want)
        assert_same_bits([lsv_apply(alpha, float(x)) for x in EDGE_POINTS], want)
        assert_same_bits(lsv_apply(alpha, EDGE_POINTS), want)


@pytest.mark.parametrize("schedule", [
    ParameterSchedule.constant(0.1),
    ParameterSchedule.periodic([1e-3, 0.05, ALPHA_STAR]),
    ParameterSchedule.iid_uniform(0.01, 0.14, seed=11),
], ids=["constant", "periodic", "iid"])
def test_batch_step_matches_where_reference_along_orbits(schedule):
    # stepped in place as the Monte Carlo sweep steps its chunks
    x = np.concatenate((EDGE_POINTS, np.random.default_rng(3).random(4096)))
    ref = x.copy()
    for a in schedule.alphas(2000):
        x = apply_map_batch(a, x, out=x)
        ref = where_step(a, ref, out=ref)
        assert_same_bits(x, ref)


def test_batch_reuses_output_buffer():
    x = np.linspace(0.0, 1.0, 100)
    buf = np.empty_like(x)
    out = apply_map_batch(0.1, x, out=buf)
    assert out is buf


# ---------------------------------------------------------------- schedules

def test_constant_schedule():
    s = ParameterSchedule.constant(0.1)
    np.testing.assert_array_equal(s.alphas(5), np.full(5, 0.1))
    assert s.sup_alpha() == 0.1


def test_periodic_schedule_tiles_cycle():
    s = ParameterSchedule.periodic([0.05, 0.1, 0.14])
    np.testing.assert_array_equal(s.alphas(7),
                                  [0.05, 0.1, 0.14, 0.05, 0.1, 0.14, 0.05])
    assert s.sup_alpha() == 0.14


def test_explicit_schedule_is_finite():
    s = ParameterSchedule.explicit([0.1, 0.12])
    np.testing.assert_array_equal(s.alphas(2), [0.1, 0.12])
    with pytest.raises(ValueError, match="has 2 exponents, fewer than the 3 requested"):
        s.alphas(3)


def test_iid_schedule_prefix_consistency():
    s = ParameterSchedule.iid_uniform(0.01, 0.14, seed=7)
    a_short = s.alphas(100)
    a_long = s.alphas(1000)
    np.testing.assert_array_equal(a_short, a_long[:100])
    assert np.all((a_long > 0.01) & (a_long < 0.14))
    assert s.sup_alpha() == 0.14
    # same-seed schedules agree, different seeds differ
    np.testing.assert_array_equal(
        ParameterSchedule.iid_uniform(0.01, 0.14, seed=7).alphas(50), a_long[:50])
    assert not np.array_equal(
        ParameterSchedule.iid_uniform(0.01, 0.14, seed=8).alphas(50), a_long[:50])


def test_schedule_rejects_exponents_above_cap():
    with pytest.raises(ValueError):
        ParameterSchedule.constant(0.2)
    with pytest.raises(ValueError):
        ParameterSchedule.periodic([0.1, 0.15])
    with pytest.raises(ValueError):
        ParameterSchedule.iid_uniform(0.01, 0.2, seed=0)
    # a larger cap admits them
    s = ParameterSchedule.constant(0.2, alpha_star=0.25)
    assert s.alpha == 0.2


def test_schedule_validation_misc():
    with pytest.raises(ValueError):
        ParameterSchedule(mode="nope", alpha=0.1)
    with pytest.raises(ValueError):
        ParameterSchedule.periodic([])
    with pytest.raises(ValueError):
        ParameterSchedule.iid_uniform(0.1, 0.05, seed=0)
    with pytest.raises(ValueError):
        ParameterSchedule.constant(0.1).alphas(-1)


# ------------------------------------------------------------------- orbits

def test_orbit_length_and_start():
    s = ParameterSchedule.constant(0.1)
    orb = sequential_orbit(s, 0.3, 10)
    assert orb.shape == (11,)
    assert orb[0] == 0.3
    assert np.all((orb >= 0.0) & (orb <= 1.0))


def test_orbit_agrees_with_stepwise_application():
    s = ParameterSchedule.periodic([0.05, 0.1, 0.14])
    orb = sequential_orbit(s, 0.42, 6)
    x = 0.42
    for i, a in enumerate(s.alphas(6)):
        x = lsv_apply(a, x)
        assert orb[i + 1] == x


@pytest.mark.parametrize("schedule", [
    ParameterSchedule.constant(0.1),
    ParameterSchedule.periodic([1e-3, 0.05, ALPHA_STAR]),
    ParameterSchedule.iid_uniform(0.01, 0.14, seed=11),
], ids=["constant", "periodic", "iid"])
def test_orbit_equals_scalar_lsv_apply_bit_for_bit(schedule):
    # numpy's vectorized power and libm pow differ in the last bit on some
    # inputs, so the orbit must keep stepping through numpy as lsv_apply does
    n = 1000
    for x0 in (0.0, 0.3, 0.5, float(np.nextafter(0.5, 0.0)), 0.75, 1.0, 0.123456789):
        ref = np.empty(n + 1)
        ref[0] = x = x0
        for i, a in enumerate(schedule.alphas(n), start=1):
            ref[i] = x = lsv_apply(a, x)
        assert_same_bits(sequential_orbit(schedule, x0, n), ref)


def test_orbit_fixed_point_at_zero():
    s = ParameterSchedule.constant(0.1)
    np.testing.assert_array_equal(sequential_orbit(s, 0.0, 5), np.zeros(6))
