"""Transfer operator pushes, cone checks, memory loss, bump observables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqevl import transfer
from seqevl.maps import ALPHA_STAR, ParameterSchedule, lsv_left_inverse
from seqevl.mesh import Density, Mesh, graded_mesh, project, uniform_density, uniform_mesh
from seqevl.thresholds import Observable, build_threshold_schedule
from seqevl.transfer import (
    DecayResult,
    cone_step_surrogate,
    loss_of_memory_distance,
    pf_apply,
    push_density,
)
from reference import (
    BumpFunction,
    ConeParams,
    bump_chi,
    cone_check,
    density_bounds_check,
    duality_residual,
    l1_distance,
    pointwise_push,
    ulam_matrix,
)

# high-precision cone floor values (mpmath, 40 significant digits)
CONE_FLOOR_ORACLES = [
    (20.0, 0.1, 0.061705215427900486267),
    (20.0, 1.0 / 7.0, 0.073260727246097122952),
]
# max collar slope of the default bump profile, delta = 1 (mpmath)
BUMP_SLOPE_ORACLE = 0.79842975183359954417
# cells a few ulps wide, far below the 1e-13 tolerance of lsv_left_inverse:
# at alpha = 0.1 two left preimages come out of order, and a push on them as
# they come gives a nonnegative density a mass of about -5e-14
ULP_MESH = Mesh(np.array([0.0, 0.8267723291721183, 0.8267723291721186, 0.8267723291721196,
                          0.8267723291721208, 0.8267723291721211, 0.8267723291721258, 1.0]))


def test_pf_apply_conserves_mass(mesh512):
    rng = np.random.default_rng(2)
    f = Density(mesh512, rng.random(512) + 0.05)
    g = pf_apply(0.1, f)
    assert abs(g.mass - f.mass) <= 1e-12
    assert np.all(g.values >= 0.0)


def test_pf_apply_signed_input_passes_through(mesh512):
    rng = np.random.default_rng(4)
    f = Density(mesh512, rng.standard_normal(512))
    g = pf_apply(0.1, f)
    assert abs(g.mass - f.mass) <= 1e-12
    assert np.any(g.values < 0.0)  # no clipping on signed input


def test_pf_apply_uniform_density_peaks_near_zero(mesh1024):
    # the operator concentrates mass toward the neutral fixed point
    g = pf_apply(0.1, uniform_density(mesh1024))
    assert g.values[0] > g.values[-1]
    assert abs(g.mass - 1.0) <= 1e-12


def test_ulam_matrix_row_stochastic(mesh512):
    op = ulam_matrix(0.1, mesh512)
    assert op.row_sum_defect() <= 1e-12
    assert op.matrix.shape == (512, 512)
    assert op.matrix.min() >= 0.0


def test_ulam_push_matches_exact_on_piecewise_constant(mesh512):
    rng = np.random.default_rng(9)
    f = Density(mesh512, rng.random(512) + 0.1)
    via_ulam = ulam_matrix(0.1, mesh512).push(f)
    via_exact = pf_apply(0.1, f)
    assert l1_distance(via_ulam, via_exact) <= 1e-12


def test_ulam_stationary_density_is_fixed(mesh512):
    op = ulam_matrix(0.1, mesh512)
    h = op.stationary_density(tol=1e-13)
    assert abs(h.mass - 1.0) <= 1e-10
    assert l1_distance(h, op.push(h)) <= 1e-12
    # invariant profile decreases away from the neutral fixed point
    assert h.values[0] > h.values[-1] > 0.0


def test_pf_apply_callable_route_matches_exact_for_smooth(mesh1024):
    fn = lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    via_callable = pointwise_push(0.1, fn, mesh1024)
    via_projected = pf_apply(0.1, project(fn, mesh1024))
    # the gap is the O(h) projection error of the widest (~0.03) cells;
    # halving under refinement is covered by the acceptance suite
    assert l1_distance(via_callable, via_projected) <= 5e-3
    assert abs(via_callable.mass - 1.0) <= 1e-10


def reference_cdf(f, x):
    """Density.cdf written out: clip x, look up its cell, add the in-cell mass."""
    b = f.mesh.boundaries
    x = np.clip(x, 0.0, 1.0)
    cell = np.clip(np.searchsorted(b, x, side="right") - 1, 0, f.mesh.n_cells - 1)
    return f.prefix_mass[cell] + f.values[cell] * (x - b[cell])


def ordered_left_preimages(alpha, b):
    """The left-branch preimages of b, each raised to the largest before it."""
    x = lsv_left_inverse(alpha, b)
    for i in range(1, x.size):
        x[i] = max(x[i], x[i - 1])
    return x


def reference_push(alpha, f):
    """pf_apply on a Density in its plain form, with no cached gather tables."""
    b = f.mesh.boundaries
    masses = (np.diff(reference_cdf(f, ordered_left_preimages(alpha, b)))
              + np.diff(reference_cdf(f, 0.5 * (b + 1.0))))
    return Density(f.mesh, masses / f.mesh.widths)


MESHES = {"uniform": uniform_mesh, "graded": graded_mesh,
          "refined": lambda cells: graded_mesh(cells).refined()}
ALPHAS = st.floats(min_value=0.01, max_value=ALPHA_STAR)


@st.composite
def push_cases(draw):
    """(density, alphas): a signed or nonnegative density on a uniform, graded
    or refined mesh, and the first steps of a constant, periodic or iid schedule."""
    mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))](draw(st.integers(2, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = draw(st.booleans())
    values = rng.standard_normal(mesh.n_cells) if signed else rng.random(mesh.n_cells)
    kind = draw(st.sampled_from(["constant", "periodic", "iid"]))
    if kind == "constant":
        schedule = ParameterSchedule.constant(draw(ALPHAS))
    elif kind == "periodic":
        schedule = ParameterSchedule.periodic(draw(st.lists(ALPHAS, min_size=1, max_size=3)))
    else:
        schedule = ParameterSchedule.iid_uniform(0.02, ALPHA_STAR, seed=draw(st.integers(0, 99)))
    return Density(mesh, values), schedule.alphas(draw(st.integers(1, 6)))


@given(case=push_cases())
@settings(max_examples=200, deadline=None)
def test_pf_apply_equals_plain_cdf_form(case):
    f, alphas = case
    g = f
    for a in alphas:
        f, g = pf_apply(a, f), reference_push(a, g)
        assert np.array_equal(f.values, g.values)


def test_push_on_out_of_order_preimages_stays_nonnegative():
    f = Density(ULP_MESH, np.ones(ULP_MESH.n_cells))
    b = ULP_MESH.boundaries
    unordered = (np.diff(reference_cdf(f, lsv_left_inverse(0.1, b)))
                 + np.diff(reference_cdf(f, 0.5 * (b + 1.0))))
    assert unordered.min() < 0.0  # the case needs the ordering
    g = pf_apply(0.1, f)
    assert g.values.min() >= 0.0
    assert abs(g.mass - f.mass) <= 1e-15
    assert np.array_equal(g.values, reference_push(0.1, f).values)


def test_push_into_its_own_input_equals_a_fresh_push(mesh512):
    signed = Density(mesh512, np.random.default_rng(5).standard_normal(512))
    nonnegative = Density(ULP_MESH, np.ones(ULP_MESH.n_cells))
    for f in (signed, nonnegative):
        fresh = transfer._push_masses(0.1, f.mesh, f.values, f.prefix_mass)
        v = f.values.copy()
        aliased = transfer._push_masses(0.1, f.mesh, v, f.prefix_mass, out=v)
        assert aliased is v
        assert np.array_equal(aliased, fresh)


def test_fused_table_halves_are_the_branch_lookups(mesh512):
    for mesh in (mesh512, ULP_MESH):
        b = mesh.boundaries
        for alpha in (0.05, 0.1):
            cells, offsets = transfer._gather_table(alpha, mesh)
            for half, x in ((slice(None, b.size), ordered_left_preimages(alpha, b)),
                            (slice(b.size, None), 0.5 * (b + 1.0))):
                want_cells, want_offsets = mesh.locate(x)
                assert np.array_equal(cells[half], want_cells)
                assert np.array_equal(offsets[half], want_offsets)
    # on the ulp-wide cells the ordering moves a preimage
    assert not np.array_equal(ordered_left_preimages(0.1, ULP_MESH.boundaries),
                              lsv_left_inverse(0.1, ULP_MESH.boundaries))


def reference_loss_of_memory(schedule, f, g, ladder):
    """loss_of_memory_distance as a plain Density loop over reference_push;
    returns the distances and log distances at the ladder times and the
    renormalization count."""
    h = f.difference(g)
    log_scale, renormalizations, logd = 0.0, 0, []

    def l1():
        return float(np.sum(np.abs(h.values) * h.mesh.widths))

    if 0 in ladder:
        logd.append(math.log(l1()))
    for i, a in enumerate(schedule.alphas(max(ladder)), start=1):
        h = reference_push(a, h)
        h = Density(h.mesh, h.values - h.mass)
        s = l1()
        if 0 < s < 1e-6:
            h = Density(h.mesh, h.values / s)
            log_scale += math.log(s)
            renormalizations += 1
        if i in ladder:
            logd.append(log_scale + math.log(l1()))
    distances = [math.exp(x) if x > -745 else 0.0 for x in logd]
    return np.array(distances), np.array(logd), renormalizations


def test_loss_of_memory_equals_plain_cdf_form(mesh512):
    f = uniform_density(mesh512)
    g = Density(mesh512, np.linspace(2.0, 0.0, 512)).normalized()
    ladder = range(301)  # every step, so renormalizing steps are recorded too
    for schedule in (ParameterSchedule.constant(0.1),
                     ParameterSchedule.periodic([0.05, 0.12, 0.08]),
                     ParameterSchedule.iid_uniform(0.05, ALPHA_STAR, seed=7)):
        fast = loss_of_memory_distance(schedule, f, g, ladder)
        d, logd, renormalizations = reference_loss_of_memory(schedule, f, g, ladder)
        assert renormalizations >= 2
        assert np.array_equal(fast.distances, d)
        assert np.array_equal(fast.log_distances, logd)


def test_loss_of_memory_builds_no_density_per_step(monkeypatch, mesh512, const01):
    f = uniform_density(mesh512)
    g = Density(mesh512, np.linspace(2.0, 0.0, 512)).normalized()
    builds = []
    rebuild = Density._rebuild_prefix

    def counting_rebuild(self):
        builds.append(1)
        rebuild(self)

    monkeypatch.setattr(Density, "_rebuild_prefix", counting_rebuild)
    loss_of_memory_distance(const01, f, g, [0, 50])
    short = len(builds)
    builds.clear()
    loss_of_memory_distance(const01, f, g, [0, 500])
    assert len(builds) == short <= 2


def test_loss_of_memory_repeated_times_give_one_row_each(mesh512, const01):
    f = uniform_density(mesh512)
    g = Density(mesh512, np.linspace(2.0, 0.0, 512)).normalized()
    repeated = loss_of_memory_distance(const01, f, g, [64, 0, 64, 128, 0])
    distinct = loss_of_memory_distance(const01, f, g, [0, 64, 128])
    assert repeated.ns.tolist() == [0, 64, 128]
    assert np.array_equal(repeated.distances, distinct.distances)
    assert np.array_equal(repeated.log_distances, distinct.log_distances)


def test_push_builds_one_table_per_alpha_and_mesh(monkeypatch, mesh512):
    calls = []

    def counting_left_inverse(alpha, y, *args, **kwargs):
        calls.append(alpha)
        return lsv_left_inverse(alpha, y, *args, **kwargs)

    monkeypatch.setattr(transfer, "lsv_left_inverse", counting_left_inverse)
    # tables built under the patch must not reach later tests
    transfer._gather_table.cache_clear()
    try:
        f0 = uniform_density(mesh512)
        push_density(ParameterSchedule.constant(0.1).alphas(200), f0)
        assert len(calls) == transfer._gather_table.cache_info().misses == 1
        calls.clear()
        push_density(ParameterSchedule.periodic([0.05, 0.12, 0.08]).alphas(200), f0)
        assert sorted(calls) == [0.05, 0.08, 0.12]
        calls.clear()
        f = f0
        for a in ParameterSchedule.iid_uniform(0.05, 0.12, seed=3).alphas(600):
            f = pf_apply(a, f)
            assert transfer._gather_table.cache_info().currsize <= 64
        assert len(calls) == 600  # every iid exponent is new
        # n = 200 streams 7 blocks of 32 steps, each by its own push_density
        # call on the one mesh, so they share one table
        calls.clear()
        transfer._gather_table.cache_clear()
        build_threshold_schedule(ParameterSchedule.constant(0.1), Observable(), 1.0,
                                 [200], mesh512)
        assert len(calls) == 1
    finally:
        transfer._gather_table.cache_clear()


def test_push_on_each_mesh_reads_that_mesh_table():
    # equal cell counts, so a table served to the wrong mesh would not raise
    for mesh in (graded_mesh(512), uniform_mesh(512), graded_mesh(512)):
        f = Density(mesh, np.linspace(2.0, 0.0, 512)).normalized()
        assert np.array_equal(pf_apply(0.1, f).values, reference_push(0.1, f).values)


# ------------------------------------------------------------- push_density

def test_push_density_trajectory(mesh512):
    f0 = uniform_density(mesh512)
    alphas = ParameterSchedule.iid_uniform(0.05, 0.12, seed=3).alphas(5)
    traj = push_density(alphas, f0)
    assert len(traj) == 6
    assert traj[0] is f0
    f = f0
    for a, pushed in zip(alphas, traj[1:]):
        f = pf_apply(a, f)
        assert pushed.values.tolist() == f.values.tolist()
    # a ladder pushed in pieces, each from the last density of the one
    # before, is the ladder pushed whole
    tail = push_density(alphas[2:], traj[2])
    assert [d.values.tolist() for d in tail] == [d.values.tolist() for d in traj[2:]]
    assert push_density(alphas[:0], f0) == [f0]


def test_push_density_routes_agree(mesh512, const01):
    f0 = uniform_density(mesh512)
    exact = push_density(const01.alphas(10), f0)[-1]
    op = ulam_matrix(0.1, mesh512)
    ulam = f0
    for _ in range(10):
        ulam = op.push(ulam)
    assert l1_distance(exact, ulam) <= 1e-11


# -------------------------------------------------------------------- cone

@pytest.mark.parametrize("a,alpha,expected", CONE_FLOOR_ORACLES)
def test_cone_floor_matches_high_precision(a, alpha, expected):
    p = ConeParams(alpha=alpha, a=a)
    assert p.lower_bound == pytest.approx(expected, rel=1e-14)


def test_cone_params_validation():
    with pytest.raises(ValueError):
        ConeParams(alpha=0.0)
    with pytest.raises(ValueError):
        ConeParams(alpha=1.0)
    with pytest.raises(ValueError):
        ConeParams(alpha=0.1, a=1.0)


def test_cone_check_accepts_admissible_profiles(mesh512):
    params = ConeParams(alpha=0.1)
    assert cone_check(uniform_density(mesh512), params).member
    surrogate = cone_step_surrogate(mesh512, height=2.0, cutoff=0.5, alpha=0.1)
    flags = cone_check(surrogate, params)
    assert flags.member, flags
    assert abs(surrogate.mass - 1.0) <= 1e-12


def test_cone_check_flags_violations(mesh512):
    params = ConeParams(alpha=0.1)
    increasing = Density(mesh512, np.linspace(0.5, 1.5, 512))
    flags = cone_check(increasing, params)
    assert not flags.nonincreasing and not flags.member
    signed = Density(mesh512, np.linspace(1.0, -0.5, 512))
    assert not cone_check(signed, params).nonnegative
    # too steep near zero: exceeds a x^(-alpha) domination
    steep = project(lambda x: np.minimum(1e6, (x + 1e-12) ** -0.9), mesh512)
    assert not cone_check(steep, params).dominated


def test_cone_preserved_by_pushes(mesh512, const01):
    params = ConeParams(alpha=0.1)
    f = uniform_density(mesh512)
    for _ in range(20):
        f = pf_apply(0.1, f)
        assert cone_check(f, params).member


def test_density_bounds_check(mesh512):
    params = ConeParams(alpha=0.1)
    ok = density_bounds_check(uniform_density(mesh512), params)
    assert ok.ok and ok.lower_margin > 0 and ok.upper_margin > 0
    low = Density(mesh512, np.full(512, 0.01))
    assert density_bounds_check(low, params).lower_margin < 0


# ---------------------------------------------------------- loss of memory

def test_loss_of_memory_requires_equal_mass(mesh512, const01):
    f = uniform_density(mesh512)
    g = Density(mesh512, np.full(512, 2.0))
    with pytest.raises(ValueError):
        loss_of_memory_distance(const01, f, g, [1, 2])
    with pytest.raises(ValueError):
        loss_of_memory_distance(const01, f, f, [])


def test_loss_of_memory_decay_is_monotone(mesh512, const01):
    f = uniform_density(mesh512)
    g = cone_step_surrogate(mesh512, height=2.0, cutoff=0.5, alpha=0.1)
    res = loss_of_memory_distance(const01, f, g, [0, 8, 16, 32, 64])
    assert res.distances[0] == pytest.approx(l1_distance(f, g), abs=1e-12)
    assert np.all(np.diff(res.distances) < 0)
    np.testing.assert_allclose(res.distances, np.exp(res.log_distances), rtol=1e-12)


def test_loss_of_memory_log_survives_underflow(mesh512, const01):
    f = uniform_density(mesh512)
    g = cone_step_surrogate(mesh512, height=2.0, cutoff=0.5, alpha=0.1)
    res = loss_of_memory_distance(const01, f, g, [8192])
    assert res.distances[0] == 0.0  # below smallest subnormal
    assert np.isfinite(res.log_distances[0])
    assert res.log_distances[0] < -745


def test_corrected_slope_recovers_synthetic_exponent():
    ns = np.array([64, 128, 256, 512, 1024])
    # d_n = n^(-9) (log n)^(10) gives corrected slope exactly -9 at alpha = 0.1
    logd = -9.0 * np.log(ns) + 10.0 * np.log(np.log(ns))
    res = DecayResult(ns, np.exp(logd), logd)
    assert res.corrected_slope(0.1) == pytest.approx(-9.0, abs=1e-9)
    with pytest.raises(ValueError):
        DecayResult(np.array([1, 2]), np.ones(2), np.zeros(2)).corrected_slope(0.1)


# -------------------------------------------------------------------- bump

def test_bump_plateau_and_support():
    chi = bump_chi(0.3, 0.6, 0.05)
    assert chi(0.45) == 1.0
    assert chi(0.24) == 0.0 and chi(0.66) == 0.0
    x = np.linspace(0.0, 1.0, 2001)
    vals = chi(x)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert chi.collar_measure == pytest.approx(0.1)


def test_bump_default_profile_jumps_at_plateau_edge():
    chi = bump_chi(0.3, 0.6, 0.05)
    # collar value at the edge is exp(-1) while the plateau sits at 1
    assert chi(0.3) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert chi(0.3 + 1e-9) == 1.0


def test_bump_smooth_profile_is_continuous():
    chi = bump_chi(0.3, 0.6, 0.05, smooth=True)
    assert chi(0.3) == pytest.approx(1.0, rel=1e-12)
    eps = 1e-8
    assert chi(0.3 - eps) == pytest.approx(1.0, abs=1e-6)
    assert chi(0.6 + eps) == pytest.approx(1.0, abs=1e-6)
    # still vanishes at the outer collar edge
    assert chi(0.25) == 0.0


def test_bump_max_slope_matches_high_precision():
    delta = 0.05
    chi = bump_chi(0.3, 0.6, delta)
    assert chi.interior_max_slope() == pytest.approx(
        BUMP_SLOPE_ORACLE / delta, rel=1e-12)
    smooth = bump_chi(0.3, 0.6, delta, smooth=True)
    assert smooth.interior_max_slope() == pytest.approx(
        math.e * BUMP_SLOPE_ORACLE / delta, rel=1e-12)
    # numerical check: finite differences never exceed the bound inside collars
    s = np.linspace(-1.0 + 1e-6, -1e-6, 20001)
    x = 0.3 + delta * s
    vals = chi(x)
    num_slope = np.max(np.abs(np.diff(vals) / np.diff(x)))
    assert num_slope <= chi.interior_max_slope() * (1.0 + 1e-4)
    assert num_slope >= chi.interior_max_slope() * 0.999


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpFunction(0.02, 0.6, 0.05)  # left collar exits [0, 1]
    with pytest.raises(ValueError):
        BumpFunction(0.3, 0.98, 0.05)  # right collar exits [0, 1]
    with pytest.raises(ValueError):
        BumpFunction(0.6, 0.3, 0.05)
    with pytest.raises(ValueError):
        BumpFunction(0.3, 0.6, 0.0)


# ----------------------------------------------------------------- duality

def test_duality_residual_smooth_observable(mesh1024):
    f = lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
    g = lambda x: np.cos(np.pi * x)
    assert duality_residual(0.1, f, g, mesh=mesh1024) <= 1e-9


def test_duality_residual_density_with_indicator(mesh1024):
    rng = np.random.default_rng(31)
    f = Density(mesh1024, rng.random(1024) + 0.2)
    lo, hi = 0.3, 0.7

    def g(x):
        x = np.asarray(x, dtype=float)
        return ((x >= lo) & (x <= hi)).astype(float)

    assert duality_residual(0.1, f, g, g_breakpoints=(lo, hi)) <= 1e-9


def test_duality_identity_observable_exact(mesh512):
    # g = 1: both sides equal the mass, so the residual is rounding
    # accumulated over ~1000 quadrature pieces
    f = Density(mesh512, np.random.default_rng(7).random(512))
    assert duality_residual(0.1, f, lambda x: np.ones_like(np.asarray(x, float))) <= 1e-11
