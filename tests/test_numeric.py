"""The sorted-distinct and slope helpers against the numpy routines they
replace on the run path: `np.unique` and `np.polyfit(x, y, 1)[0]`."""

import numpy as np
from hypothesis import given, settings, strategies as st

from seqevl import experiments, recurrence, thresholds, transfer
from seqevl._numeric import distinct, slope
from seqevl.config import (EJ_LADDER, EN_EPS_LADDER, KINDS, MeshSpec, ObservableSpec,
                           default_config)
from seqevl.experiments import run_experiment
from seqevl.maps import ParameterSchedule
from seqevl.mesh import graded_mesh, uniform_density, uniform_mesh
from seqevl.thresholds import Observable

# the x values the run's slopes are fitted on: log n over the default and
# the longest benchmarked decay ladders, log eps and log j over the
# recurrence ladders
LADDERS = (np.log(np.asarray(KINDS["decay"].ladder, dtype=float)),
           np.log(2.0 ** np.arange(6, 16)),
           np.log(EN_EPS_LADDER), np.log(EJ_LADDER))


def same(got, want) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_distinct_is_unique_at_every_call_site(tmp_path, monkeypatch):
    # every module's distinct answers as np.unique would, on the inputs a
    # run gives it; zeta = 0.5 on a uniform mesh makes every kink a pair
    calls = dict.fromkeys((experiments, recurrence, thresholds, transfer), 0)
    for module in calls:
        def checked(a, module=module):
            got = distinct(a)
            assert same(got, np.unique(a))
            calls[module] += 1
            return got
        monkeypatch.setattr(module, "distinct", checked)
    mesh = MeshSpec(kind="uniform", cells=32)
    for cfg in (default_config("calibrate", n=40, n_samples=200, mesh=mesh,
                               observable=ObservableSpec(zeta=0.5)),
                default_config("decay", mesh=mesh),
                default_config("recurrence")):
        run_experiment(cfg, base_dir=tmp_path)
    # the helpers also take unsorted, repeated horizons and times
    schedule, small = ParameterSchedule(), uniform_mesh(16)
    thresholds.build_threshold_schedule(schedule, Observable(), 1.0, (40, 10, 40), small)
    f = uniform_density(small)
    transfer.loss_of_memory_distance(schedule, f, f, (8, 0, 8, 3))
    assert all(calls.values()), calls


@given(st.lists(st.integers(-5, 5) | st.floats(-2.0, 2.0), max_size=30))
@settings(max_examples=50, deadline=None)
def test_distinct_is_unique(values):
    for a in (np.asarray(values, dtype=float), np.asarray(values, dtype=float).round(),
              np.asarray([int(v) for v in values], dtype=int)):
        assert same(distinct(a), np.unique(a))


def assert_slope_is_polyfit(x, y):
    want = np.polyfit(x, y, 1)[0]
    assert abs(slope(x, y) - want) <= 1e-12 * abs(want)


@given(ladder=st.sampled_from(LADDERS), a=st.floats(0.1, 10.0), sign=st.sampled_from((-1, 1)),
       b=st.floats(-20.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_slope_is_polyfit_on_the_run_ladders(ladder, a, sign, b, seed):
    noise = np.random.default_rng(seed).normal(scale=0.2, size=ladder.size)
    assert_slope_is_polyfit(ladder, sign * a * ladder + b + noise)


@given(size=st.integers(2, 40), a=st.floats(0.1, 10.0), sign=st.sampled_from((-1, 1)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_slope_is_polyfit_on_random_points(size, a, sign, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, size)
    assert_slope_is_polyfit(x, sign * a * x + rng.uniform(-50.0, 50.0) + rng.normal(size=size))


def test_decay_slope_is_polyfit_on_a_decay_run():
    mesh = graded_mesh(64)
    schedule = ParameterSchedule()
    alpha = schedule.sup_alpha()
    f = uniform_density(mesh)
    g = transfer.cone_step_surrogate(mesh, height=2.0, cutoff=0.5, alpha=alpha)
    result = transfer.loss_of_memory_distance(schedule, f, g, KINDS["decay"].ladder)
    x = np.log(result.ns.astype(float))
    y = result.log_distances - (1.0 / alpha) * np.log(x)
    want = np.polyfit(x, y, 1)[0]
    assert abs(result.corrected_slope(alpha) - want) <= 1e-12 * abs(want)
