"""Observable geometry and per-step threshold calibration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqevl.maps import ParameterSchedule
from seqevl.mesh import Density, graded_mesh, uniform_density, uniform_mesh
from seqevl.thresholds import (
    DEFAULT_ZETA,
    Observable,
    ThresholdSchedule,
    build_threshold_schedule,
    calibrate_delta,
    calibrate_delta_ladder,
    threshold_window,
)
from seqevl.transfer import ConeParams


# -------------------------------------------------------------- observables

@pytest.mark.parametrize("obs", [
    Observable(form="log"),
    Observable(form="power-pole", power=2.0),
    Observable(form="power-cap", power=2.0, cap=1.0),
])
def test_level_radius_round_trip(obs):
    for delta in [1e-8, 1e-4, 0.01, 0.2]:
        u = obs.level_for_radius(delta)
        assert obs.radius_for_level(u) == pytest.approx(delta, rel=1e-12)


def test_observable_value_composition():
    obs = Observable(form="log", zeta=0.5)
    assert obs.distance(0.75) == pytest.approx(0.25)
    assert obs.value(0.75) == pytest.approx(-math.log(0.25))
    assert obs.value(0.5) == math.inf  # pole at the target point


def test_essential_sup():
    assert Observable(form="log").essential_sup == math.inf
    assert Observable(form="power-pole").essential_sup == math.inf
    assert Observable(form="power-cap", cap=3.0).essential_sup == 3.0


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(form="nope")
    with pytest.raises(ValueError):
        Observable(zeta=0.0)
    with pytest.raises(ValueError):
        Observable(zeta=1.0)
    with pytest.raises(ValueError):
        Observable(power=0.0)


@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    u=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_exceedance_identity(x, u):
    # {value > u} must equal the open ball {distance < radius(u)} exactly
    obs = Observable(form="log", zeta=DEFAULT_ZETA)
    exceeds = obs.value(x) > u
    in_ball = obs.distance(x) < obs.radius_for_level(u)
    assert exceeds == in_ball


def test_exceedance_identity_power_forms():
    xs = np.linspace(0.0, 1.0, 4001)
    for obs in (Observable(form="power-pole", power=3.0),
                Observable(form="power-cap", power=2.0, cap=2.0)):
        for u in (0.3, 1.0, 1.7, 5.0):
            exceeds = obs.value(xs) > u
            in_ball = obs.distance(xs) < obs.radius_for_level(u)
            disagreements = int(np.sum(exceeds != in_ball))
            assert disagreements == 0


# -------------------------------------------------------------- calibration

def test_calibrate_delta_uniform_closed_form():
    mesh = graded_mesh(1024)
    f = uniform_density(mesh)
    # unit density: mass of the ball of radius delta is 2 delta
    delta = calibrate_delta(f, zeta=0.5, tau=1.0, n=100)
    assert delta == pytest.approx(1.0 / 200.0, abs=1e-14)


def test_calibrate_delta_linear_closed_form():
    # density 2x: ball mass around zeta is 4 zeta delta, so delta = tau/(4 zeta n)
    mesh = uniform_mesh(4096)
    f = Density(mesh, 2.0 * mesh.midpoints)
    zeta, tau, n = 0.6, 1.0, 50
    delta = calibrate_delta(f, zeta=zeta, tau=tau, n=n)
    # piecewise-constant projection of the slope costs a few 1e-6 here
    assert delta == pytest.approx(tau / (4.0 * zeta * n), abs=1e-5)
    # self consistency against the density's own interval mass is exact
    assert f.interval_mass(zeta - delta, zeta + delta) == pytest.approx(
        tau / n, abs=1e-14)


def test_calibrate_delta_zero_tau_and_validation():
    f = uniform_density(graded_mesh(64))
    half = Density(f.mesh, np.full(64, 0.5))

    def ladder(density, zeta, tau, n):
        return calibrate_delta_ladder([f, density], zeta, tau, n)[1]

    for calibrate in (calibrate_delta, ladder):
        assert calibrate(f, zeta=0.5, tau=0.0, n=10) == 0.0
        with pytest.raises(ValueError):
            calibrate(f, zeta=0.5, tau=-1.0, n=10)
        with pytest.raises(ValueError):
            calibrate(f, zeta=0.5, tau=1.0, n=0)
        with pytest.raises(ValueError):
            calibrate(f, zeta=1.5, tau=1.0, n=10)
        with pytest.raises(ValueError):
            calibrate(f, zeta=0.5, tau=3.0, n=2)  # tau/n > mass
        with pytest.raises(ValueError):
            calibrate(half, zeta=0.5, tau=0.6, n=1)  # this density's mass is short
    with pytest.raises(ValueError):
        calibrate_delta_ladder([f, uniform_density(graded_mesh(32))], 0.5, 1.0, 10)


def test_calibrate_ladder_matches_scalar(mesh512, const01):
    from seqevl.transfer import push_density

    densities = push_density(const01, uniform_density(mesh512), 9,
                             return_trajectory=True)
    zeta, tau, n = DEFAULT_ZETA, 1.0, 10
    ladder = calibrate_delta_ladder(densities, zeta, tau, n)
    scalar = np.array([calibrate_delta(d, zeta, tau, n) for d in densities])
    np.testing.assert_allclose(ladder, scalar, rtol=0, atol=1e-15)
    assert calibrate_delta_ladder(densities, zeta, 0.0, n).tolist() == [0.0] * 10


def bisect_delta(density, zeta, target):
    """Plain bisection on the window mass: the reference for the kink inversion."""
    lo, hi = 0.0, max(zeta, 1.0 - zeta)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if float(density.interval_mass(zeta - mid, zeta + mid)) < target:
            lo = mid
        else:
            hi = mid


@st.composite
def calibration_cases(draw):
    """(density, zeta, target) with zero cells next to zeta and kink targets."""
    cells = draw(st.integers(min_value=4, max_value=40))
    if draw(st.booleans()):
        mesh = uniform_mesh(cells)
    else:
        mesh = graded_mesh(cells, ratio=draw(st.floats(min_value=0.8, max_value=0.99)))
    b = mesh.boundaries
    if draw(st.booleans()):
        zeta = float(b[draw(st.integers(min_value=1, max_value=cells - 1))])
    else:
        zeta = draw(st.floats(min_value=0.02, max_value=0.98))
    values = np.array(draw(st.lists(st.floats(min_value=0.25, max_value=4.0),
                                    min_size=cells, max_size=cells)))
    at = int(mesh.cell_index(zeta))
    left = draw(st.integers(min_value=-1, max_value=3))
    right = draw(st.integers(min_value=-1, max_value=3))
    # zero run over zeta's cell and its neighbours; -1 on a side keeps
    # zeta's cell nonzero, so the run only borders it (or is empty)
    values[max(at - left, 0):max(at + right + 1, 0)] = 0.0
    density = Density(mesh, values)
    assume(density.mass > 0.0)
    kinks = np.abs(b - zeta)
    kink_masses = np.array([float(density.interval_mass(zeta - k, zeta + k))
                            for k in kinks])
    usable = kink_masses[kink_masses >= 0.02 * density.mass]
    if draw(st.booleans()):
        target = float(usable[draw(st.integers(0, usable.size - 1))])
    else:
        target = draw(st.floats(min_value=0.02, max_value=0.98)) * density.mass
    return density, zeta, target


@given(case=calibration_cases())
@settings(max_examples=300, deadline=None)
def test_kink_inversion_matches_bisection(case):
    density, zeta, target = case
    delta = calibrate_delta(density, zeta, tau=target, n=1)
    assert delta == pytest.approx(bisect_delta(density, zeta, target), rel=1e-12)
    assert abs(float(density.interval_mass(zeta - delta, zeta + delta)) - target) <= 1e-14
    if delta > 0.0:
        shrunk = delta * (1.0 - 1e-9)
        assert float(density.interval_mass(zeta - shrunk, zeta + shrunk)) < target
    ladder = calibrate_delta_ladder([density, density], zeta, tau=target, n=1)
    assert ladder.tolist() == [delta, delta]


# --------------------------------------------------------- threshold window

def test_threshold_window_brackets_uniform_radius():
    params = ConeParams(alpha=0.1, a=20.0)
    lo, hi = threshold_window(params, zeta=DEFAULT_ZETA, tau=1.0, n=100)
    assert 0.0 < lo < 1.0 / 200.0 < hi
    # floor c < 1 < ceiling near zeta, so the window must straddle tau/(2n)


def test_build_threshold_schedule_basics(mesh512, const01):
    obs = Observable(form="log")
    tau, n = 1.0, 40
    ts = build_threshold_schedule(const01, obs, tau, n, mesh512)
    assert ts.deltas.shape == (n,)
    # step 1 starts from the uniform density: delta_1 = tau / (2n) exactly
    assert ts.deltas[0] == pytest.approx(tau / (2.0 * n), abs=1e-12)
    # every calibrated ball carries the same exceedance mass
    np.testing.assert_allclose(ts.step_masses, tau / n, atol=1e-12)
    assert ts.fstar == pytest.approx(tau, abs=1e-9)
    assert ts.fbar_max <= tau / n + 1e-12
    assert ts.zeta == obs.zeta
    assert np.all(ts.window_ok)
    np.testing.assert_allclose(ts.levels, -np.log(ts.deltas), rtol=1e-12)
    rows = list(ts.rows())
    assert len(rows) == n and rows[0][0] == 0
    assert rows[3][1] == ts.deltas[3]


def test_build_threshold_schedule_routes_agree(mesh512, const01):
    obs = Observable(form="log")
    exact = build_threshold_schedule(const01, obs, 1.0, 25, mesh512, route="exact")
    ulam = build_threshold_schedule(const01, obs, 1.0, 25, mesh512, route="ulam")
    np.testing.assert_allclose(exact.deltas, ulam.deltas, rtol=0, atol=1e-12)


def test_build_threshold_schedule_validation(mesh512, const01):
    obs = Observable(form="log")
    with pytest.raises(ValueError):
        build_threshold_schedule(const01, obs, -1.0, 10, mesh512)
    with pytest.raises(ValueError):
        build_threshold_schedule(const01, obs, 1.0, 0, mesh512)
    with pytest.raises(ValueError):
        build_threshold_schedule(const01, obs, 5.0, 2, mesh512)


def test_zero_tau_schedule(mesh512, const01):
    ts = build_threshold_schedule(const01, Observable(form="log"), 0.0, 5, mesh512)
    assert np.all(ts.deltas == 0.0)
    assert ts.fstar == 0.0
    assert np.all(ts.window_ok)
    assert np.all(np.isinf(ts.levels))
