"""Observable geometry and per-step threshold calibration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqevl.maps import ALPHA_STAR, ParameterSchedule
from seqevl.mesh import Density, graded_mesh, uniform_density, uniform_mesh
from seqevl import thresholds
from seqevl.montecarlo import estimate_Pn
from seqevl.thresholds import (
    DEFAULT_ZETA,
    Observable,
    ThresholdSchedule,
    build_threshold_schedule,
    calibrate_delta_ladder,
    _BLOCK,
)
from seqevl.transfer import push_density
from reference import (ConeParams, observable_distance, observable_value,
                       radius_for_level, schedule_window, threshold_window,
                       ulam_matrix)


# -------------------------------------------------------------- observables

def test_level_radius_round_trip():
    obs = Observable()
    for delta in [1e-8, 1e-4, 0.01, 0.2]:
        u = obs.level_for_radius(delta)
        assert radius_for_level(obs, u) == pytest.approx(delta, rel=1e-12)


def test_observable_value_composition():
    obs = Observable(zeta=0.5)
    assert observable_distance(obs, 0.75) == pytest.approx(0.25)
    assert observable_value(obs, 0.75) == pytest.approx(-math.log(0.25))
    assert observable_value(obs, 0.5) == math.inf  # pole at the target point


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(zeta=0.0)
    with pytest.raises(ValueError):
        Observable(zeta=1.0)
    with pytest.raises(ValueError):
        Observable(zeta=1.5)


@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    u=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_exceedance_identity(x, u):
    # {value > u} must equal the open ball {distance < radius(u)} exactly
    obs = Observable(zeta=DEFAULT_ZETA)
    exceeds = observable_value(obs, x) > u
    in_ball = observable_distance(obs, x) < radius_for_level(obs, u)
    assert exceeds == in_ball


# -------------------------------------------------------------- calibration

def test_calibrate_delta_uniform_closed_form():
    mesh = graded_mesh(1024)
    f = uniform_density(mesh)
    # unit density: mass of the ball of radius delta is 2 delta
    delta = calibrate_delta_ladder(Density.stack([f]), Observable(0.5), tau=1.0, n=100)[0]
    assert delta == pytest.approx(1.0 / 200.0, abs=1e-14)


def test_calibrate_delta_linear_closed_form():
    # density 2x: ball mass around zeta is 4 zeta delta, so delta = tau/(4 zeta n)
    mesh = uniform_mesh(4096)
    f = Density(mesh, 2.0 * mesh.midpoints)
    zeta, tau, n = 0.6, 1.0, 50
    delta = calibrate_delta_ladder(Density.stack([f]), Observable(zeta), tau=tau, n=n)[0]
    # piecewise-constant projection of the slope costs a few 1e-6 here
    assert delta == pytest.approx(tau / (4.0 * zeta * n), abs=1e-5)
    # self consistency against the density's own interval mass is exact
    assert f.interval_mass(zeta - delta, zeta + delta) == pytest.approx(
        tau / n, abs=1e-14)


def test_calibrate_delta_zero_tau_and_validation():
    f = uniform_density(graded_mesh(64))
    half = Density(f.mesh, np.full(64, 0.5))

    obs = Observable(0.5)  # a zeta outside (0, 1) is Observable's to refuse

    def single(density, tau, n):
        return calibrate_delta_ladder(Density.stack([density]), obs, tau, n)[0]

    def ladder(density, tau, n):
        return calibrate_delta_ladder(Density.stack([f, density]), obs, tau, n)[1]

    for calibrate in (single, ladder):
        assert calibrate(f, tau=0.0, n=10) == 0.0
        with pytest.raises(ValueError):
            calibrate(f, tau=-1.0, n=10)
        with pytest.raises(ValueError):
            calibrate(f, tau=1.0, n=0)
        with pytest.raises(ValueError):
            calibrate(f, tau=3.0, n=2)  # tau/n > mass
        with pytest.raises(ValueError):
            calibrate(half, tau=0.6, n=1)  # this density's mass is short
    with pytest.raises(ValueError):
        calibrate_delta_ladder(Density.stack([f, uniform_density(graded_mesh(32))]), obs, 1.0, 10)


def test_calibrate_ladder_matches_scalar(mesh512, const01):
    densities = push_density(const01.alphas(9), uniform_density(mesh512))
    obs, tau, n = Observable(), 1.0, 10
    stack = Density.stack(densities)
    ladder = calibrate_delta_ladder(stack, obs, tau, n)
    scalar = np.array([calibrate_delta_ladder(Density.stack([d]), obs, tau, n)[0]
                       for d in densities])
    np.testing.assert_allclose(ladder, scalar, rtol=0, atol=1e-15)
    assert calibrate_delta_ladder(stack, obs, 0.0, n).tolist() == [0.0] * 10


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
    delta = calibrate_delta_ladder(Density.stack([density]), Observable(zeta), tau=target,
                                   n=1)[0]
    assert delta == pytest.approx(bisect_delta(density, zeta, target), rel=1e-12)
    assert abs(float(density.interval_mass(zeta - delta, zeta + delta)) - target) <= 1e-14
    if delta > 0.0:
        shrunk = delta * (1.0 - 1e-9)
        assert float(density.interval_mass(zeta - shrunk, zeta + shrunk)) < target
    ladder = calibrate_delta_ladder(Density.stack([density, density]), Observable(zeta),
                                    tau=target, n=1)
    assert ladder.tolist() == [delta, delta]


def test_ladder_rows_reach_target_at_different_kinks():
    # one density reaches tau/n in the first cell around zeta, the other is
    # empty for 0.3 on either side, so its solution lies hundreds of kinks out
    mesh = uniform_mesh(1000)
    zeta, target = 0.5, 0.01
    near = uniform_density(mesh)
    far = Density(mesh, np.where(np.abs(mesh.midpoints - zeta) < 0.3, 0.0, 2.5))
    obs = Observable(zeta)
    ladder = calibrate_delta_ladder(Density.stack([near, far, near]), obs, tau=target, n=1)
    singles = [calibrate_delta_ladder(Density.stack([d]), obs, tau=target, n=1)[0]
               for d in (near, far, near)]
    assert ladder.tolist() == singles
    for d, delta in zip((near, far), ladder):
        assert delta == pytest.approx(bisect_delta(d, zeta, target), rel=1e-12)
    assert 0.3 < ladder[1] < 0.31


def interval_mass_loop(densities, zeta, deltas):
    return [float(d.interval_mass(zeta - dl, zeta + dl)) for d, dl in zip(densities, deltas)]


@pytest.mark.parametrize("schedule", [
    ParameterSchedule(cycle=(0.1,)),
    ParameterSchedule(mode="iid", lo=0.05, hi=ALPHA_STAR, seed=5),
], ids=["constant", "iid"])
def test_step_masses_equal_interval_mass_loop(mesh512, schedule):
    densities = push_density(schedule.alphas(299), uniform_density(mesh512))
    b = mesh512.boundaries
    # zeta off and on a mesh boundary; tau = 150 puts tau/n = 0.5 in every
    # window, so the balls around the boundary near 1 reach past 1
    for zeta in (DEFAULT_ZETA, float(b[-3])):
        for tau in (1.0, 150.0):
            ts, = build_threshold_schedule(schedule, Observable(zeta=zeta), tau, (300,), mesh512)
            assert ts.step_masses.tolist() == interval_mass_loop(densities, zeta, ts.deltas)
        # zero radius, radii on the kinks |b - zeta|, and windows clipped at 0 and 1
        deltas = np.concatenate(([0.0, zeta, 1.0 - zeta, 1.5], np.abs(b - zeta)))
        deltas = np.resize(deltas, len(densities))
        masses = Density.stack(densities).interval_mass(zeta - deltas, zeta + deltas)
        assert masses.tolist() == interval_mass_loop(densities, zeta, deltas)


# --------------------------------------------------------- threshold window

def test_threshold_window_brackets_uniform_radius():
    params = ConeParams(alpha=0.1, a=20.0)
    lo, hi = threshold_window(params, zeta=DEFAULT_ZETA, tau=1.0, n=100)
    assert 0.0 < lo < 1.0 / 200.0 < hi
    # floor c < 1 < ceiling near zeta, so the window must straddle tau/(2n)


def test_build_threshold_schedule_basics(mesh512, const01):
    obs = Observable()
    tau, n = 1.0, 40
    ts, = build_threshold_schedule(const01, obs, tau, (n,), mesh512)
    assert ts.deltas.shape == (n,)
    # step 1 starts from the uniform density: delta_1 = tau / (2n) exactly
    assert ts.deltas[0] == pytest.approx(tau / (2.0 * n), abs=1e-12)
    # every calibrated ball carries the same exceedance mass
    np.testing.assert_allclose(ts.step_masses, tau / n, atol=1e-12)
    assert ts.fstar == pytest.approx(tau, abs=1e-9)
    assert np.max(ts.step_masses) <= tau / n + 1e-12
    assert ts.observable == obs
    assert np.all(schedule_window(ts)[2])
    np.testing.assert_allclose(ts.levels, -np.log(ts.deltas), rtol=1e-12)
    rows = list(ts.rows())
    assert len(rows) == n and rows[0][0] == 0
    assert rows[3][1] == ts.deltas[3]


def test_build_threshold_schedule_routes_agree(mesh512, const01):
    obs = Observable()
    exact, = build_threshold_schedule(const01, obs, 1.0, (25,), mesh512)
    op = ulam_matrix(0.1, mesh512)
    ladder = [uniform_density(mesh512)]
    for _ in range(24):
        ladder.append(op.push(ladder[-1]))
    ulam = calibrate_delta_ladder(Density.stack(ladder), obs, 1.0, 25)
    np.testing.assert_allclose(exact.deltas, ulam, rtol=0, atol=1e-12)


def test_build_threshold_schedule_validation(mesh512, const01):
    # the build checks its horizons, and the first block's calibration tau / n
    obs = Observable()
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        build_threshold_schedule(const01, obs, -1.0, (10,), mesh512)
    with pytest.raises(ValueError, match="n must be positive"):
        build_threshold_schedule(const01, obs, 1.0, (0,), mesh512)
    with pytest.raises(ValueError, match="n must be positive"):
        build_threshold_schedule(const01, obs, 1.0, (), mesh512)
    with pytest.raises(ValueError, match="exceedance mass exceeds the total mass"):
        build_threshold_schedule(const01, obs, 5.0, (2,), mesh512)
    with pytest.raises(ValueError, match="exceedance mass exceeds the total mass"):
        build_threshold_schedule(const01, obs, 5.0, (10, 2), mesh512)  # its shortest rung


def test_zero_tau_schedule(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 0.0, (5,), mesh512)
    assert np.all(ts.deltas == 0.0)
    assert ts.fstar == 0.0
    assert np.all(schedule_window(ts)[2])
    assert np.all(np.isinf(ts.levels))


# ------------------------------------------------------------ streamed build

@pytest.mark.parametrize("schedule", [
    ParameterSchedule(cycle=(0.1,)),
    ParameterSchedule(mode="iid", lo=0.05, hi=ALPHA_STAR, seed=5),
], ids=["constant", "iid"])
def test_streamed_ladder_equals_single_builds_and_full_ladder(mesh512, schedule):
    # rungs on both sides of a block edge, passed unsorted; tau = 1 at n = 1
    # asks for the whole mass on step 0
    ns = (2 * _BLOCK + 3, 1, _BLOCK + 1, _BLOCK - 1, _BLOCK)
    obs, tau = Observable(), 1.0
    streamed = build_threshold_schedule(schedule, obs, tau, ns, mesh512)
    assert [ts.n for ts in streamed] == list(ns)
    full = push_density(schedule.alphas(max(ns) - 1), uniform_density(mesh512))
    radii = calibrate_delta_ladder(Density.stack(full), obs, tau, np.array(ns))
    assert radii.shape == (len(ns), len(full))
    for n, row, ts in zip(ns, radii, streamed):
        single, = build_threshold_schedule(schedule, obs, tau, (n,), mesh512)
        for name in ("deltas", "levels", "step_masses"):
            assert getattr(ts, name).tolist() == getattr(single, name).tolist(), name
        assert ts.deltas.tolist() == row[:n].tolist()
        head = Density.stack(full[:n])
        assert ts.deltas.tolist() == calibrate_delta_ladder(head, obs, tau, n).tolist()
        masses = head.interval_mass(obs.zeta - ts.deltas, obs.zeta + ts.deltas)
        assert ts.step_masses.tolist() == masses.tolist()
        assert ts.levels.tolist() == np.asarray(obs.level_for_radius(row[:n])).tolist()


def test_streamed_build_holds_one_block(monkeypatch, mesh512, const01):
    lengths = []

    def recording_push(*args, **kwargs):
        ladder = push_density(*args, **kwargs)
        lengths.append(len(ladder))
        return ladder

    monkeypatch.setattr(thresholds, "push_density", recording_push)
    ts, = build_threshold_schedule(const01, Observable(), 1.0, (2000,), mesh512)
    assert ts.n == 2000
    assert sum(n - 1 for n in lengths) == 1999  # every step pushed once
    assert max(lengths) <= _BLOCK + 1


# ------------------------------------------------------- schedule relations
# Exact relations that a change to how a schedule is stored, compared or
# pushed must keep: the radii and the survival estimate read only the
# exponents a schedule steps.

small_meshes = st.builds(lambda graded, cells: (graded_mesh if graded else uniform_mesh)(cells),
                         st.booleans(), st.integers(min_value=8, max_value=96))


@given(a=st.floats(min_value=0.01, max_value=ALPHA_STAR), n=st.integers(1, 40),
       tau=st.floats(min_value=0.0, max_value=1.0), mesh=small_meshes)
@settings(max_examples=25, deadline=None)
def test_a_repeated_cycle_gives_the_same_radii(a, n, tau, mesh):
    once, twice = (build_threshold_schedule(ParameterSchedule(cycle=cycle), Observable(),
                                            tau, (n,), mesh)[0]
                   for cycle in ((a,), (a, a)))
    assert once.deltas.tolist() == twice.deltas.tolist()


@given(n=st.integers(1, 40), tau=st.just(0.0) | st.floats(min_value=1e-6, max_value=1.0),
       cycle=st.lists(st.floats(min_value=0.01, max_value=ALPHA_STAR), min_size=1, max_size=3),
       iid=st.booleans(), seed=st.integers(0, 2 ** 32), mesh=small_meshes)
@settings(max_examples=25, deadline=None)
def test_radii_at_tau_n_are_the_first_radii_at_2tau_2n(n, tau, cycle, iid, seed, mesh):
    # the target tau/n and the densities f_0 .. f_(n-1) are the same
    schedule = (ParameterSchedule(mode="iid", seed=seed) if iid
                else ParameterSchedule(cycle=tuple(cycle)))
    (short,), (long,) = (build_threshold_schedule(schedule, Observable(), t, (m,), mesh)
                         for t, m in ((tau, n), (2 * tau, 2 * n)))
    assert short.deltas.tolist() == long.deltas[:n].tolist()
    assert short.step_masses.tolist() == long.step_masses[:n].tolist()


@given(lo=st.floats(min_value=0.01, max_value=0.1), seed=st.integers(0, 2 ** 32),
       n=st.integers(1, 40), mesh=small_meshes)
@settings(max_examples=25, deadline=None)
def test_an_iid_schedule_is_the_cycle_of_its_own_draws(lo, seed, n, mesh):
    iid = ParameterSchedule(mode="iid", lo=lo, hi=ALPHA_STAR, seed=seed)
    drawn = ParameterSchedule(cycle=tuple(iid.alphas(n)))
    (by_iid,), (by_cycle,) = (build_threshold_schedule(schedule, Observable(), 1.0, (n,), mesh)
                              for schedule in (iid, drawn))
    assert by_iid.deltas.tolist() == by_cycle.deltas.tolist()
    assert (estimate_Pn(by_iid, seed=seed, n_samples=500)
            == estimate_Pn(by_cycle, seed=seed, n_samples=500))
