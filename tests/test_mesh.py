"""Mesh construction and piecewise-constant density arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqevl.mesh import (
    GAUSS_LEGENDRE_8,
    Density,
    Mesh,
    graded_mesh,
    project,
    uniform_density,
)
from reference import integrate_product, l1_distance, refined, uniform_mesh


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 1.0]))  # at least 2 cells, whichever builder
    with pytest.raises(ValueError):
        uniform_mesh(1)
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.9]))  # must end at 1
    with pytest.raises(ValueError):
        Mesh(np.array([0.1, 0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))  # strictly increasing


def test_uniform_mesh_basics():
    m = uniform_mesh(8)
    assert m.n_cells == 8
    np.testing.assert_allclose(m.widths, 0.125)
    np.testing.assert_allclose(m.midpoints, np.arange(8) / 8 + 1 / 16)


def test_graded_mesh_invariants(mesh1024):
    b = mesh1024.boundaries
    assert b[0] == 0.0 and b[-1] == 1.0
    assert mesh1024.n_cells == 1024
    w = mesh1024.widths
    assert np.all(w > 0)
    # grading: widths nondecreasing toward x = 1 (up to renormalization
    # rounding at the floored cells), finest cells near 0
    assert np.all(np.diff(w) >= -1e-20)
    assert w[0] < 1e-4 < w[-1]
    assert np.all(w >= 1e-8 * (1 - 1e-12))


def test_graded_mesh_validation():
    for ratio in (1.0, 1.5):
        with pytest.raises(ValueError, match="ratio must lie in"):
            graded_mesh(1024, ratio=ratio)
    for cells in (1, 0, -1, -5):  # Mesh's own rule
        with pytest.raises(ValueError, match="mesh needs at least 2 cells"):
            graded_mesh(cells)


def test_cell_index_brute_force(mesh512):
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.random(500), mesh512.boundaries, [0.0, 1.0]])
    idx = mesh512.cell_index(xs)
    b = mesh512.boundaries
    for x, k in zip(xs, idx):
        if x == 1.0:
            assert k == mesh512.n_cells - 1
        else:
            assert b[k] <= x < b[k + 1]


def test_refined_splits_every_cell(mesh512):
    fine = refined(mesh512)
    assert fine.n_cells == 2 * mesh512.n_cells
    np.testing.assert_array_equal(fine.boundaries[0::2], mesh512.boundaries)
    np.testing.assert_allclose(fine.widths[0::2], fine.widths[1::2])


def test_mesh_owns_a_read_only_copy_of_its_boundaries():
    b = np.linspace(0.0, 1.0, 9)
    m = Mesh(b)
    widths = m.widths
    b[3] = 0.3  # the caller's array stays the caller's
    assert m.boundaries[3] == 0.375
    assert m.widths is widths
    np.testing.assert_array_equal(widths, 0.125)
    for a in (m.boundaries, m.widths):
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_locate_matches_cdf_lookup(mesh512):
    b = mesh512.boundaries
    x = np.concatenate(([-0.5, 0.0, 1.0, 1.5], b, np.random.default_rng(3).random(200)))
    cell, offset = mesh512.locate(x)
    xc = np.clip(x, 0.0, 1.0)
    np.testing.assert_array_equal(cell, mesh512.cell_index(xc))
    np.testing.assert_array_equal(offset, xc - b[cell])
    assert np.all((offset >= 0.0) & (offset <= mesh512.widths[cell]))


# ---------------------------------------------------------------- densities

def test_density_shape_validation(mesh512):
    with pytest.raises(ValueError):
        Density(mesh512, np.ones(7))


def test_uniform_density_has_unit_mass(mesh1024):
    f = uniform_density(mesh1024)
    assert f.mass == pytest.approx(1.0, abs=1e-15)
    assert f.cdf(0.0) == 0.0
    assert f.cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert f.cdf(0.37) == pytest.approx(0.37, abs=1e-12)


def test_cdf_exact_on_cell_boundaries(mesh512):
    rng = np.random.default_rng(5)
    f = Density(mesh512, rng.random(512) + 0.1)
    b = mesh512.boundaries
    np.testing.assert_allclose(f.cdf(b), f.prefix_mass, rtol=0, atol=0)


def test_cdf_linear_inside_cells():
    m = uniform_mesh(4)
    f = Density(m, np.array([1.0, 2.0, 3.0, 4.0]))
    # inside cell 1 (x in [0.25, 0.5)) the cdf grows at slope 2
    assert f.cdf(0.3) == pytest.approx(0.25 + 2.0 * 0.05, abs=1e-15)
    assert f.interval_mass(0.3, 0.4) == pytest.approx(0.2, abs=1e-15)


def test_interval_mass_brute_force(mesh512):
    rng = np.random.default_rng(17)
    f = Density(mesh512, rng.standard_normal(512))
    lo, hi = 0.123, 0.777
    # brute force: overlap of [lo, hi] with each cell times the cell value
    b = mesh512.boundaries
    overlap = np.clip(np.minimum(hi, b[1:]) - np.maximum(lo, b[:-1]), 0.0, None)
    assert f.interval_mass(lo, hi) == pytest.approx(
        float(np.sum(overlap * f.values)), abs=1e-14)


def test_l1_distance_and_difference():
    m = uniform_mesh(4)
    f = Density(m, np.array([1.0, 1.0, 1.0, 1.0]))
    g = Density(m, np.array([1.0, 2.0, 0.0, 1.0]))
    assert l1_distance(f, g) == pytest.approx(0.5, abs=1e-15)
    d = f.difference(g)
    assert d.mass == pytest.approx(0.0, abs=1e-15)
    m2 = uniform_mesh(5)
    with pytest.raises(ValueError):
        l1_distance(f, uniform_density(m2))


def test_normalized(mesh512):
    f = Density(mesh512, np.full(512, 3.0))
    g = f.normalized()
    assert g.mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        Density(mesh512, np.zeros(512)).normalized()


def test_prefix_mass_equals_plain_cumsum(mesh512):
    """The prefix every push reads is the sequential running sum, bit for bit."""
    v = np.random.default_rng(11).standard_normal(512)
    f = Density(mesh512, v)
    expected = np.concatenate(([0.0], np.cumsum(v * mesh512.widths)))
    assert np.array_equal(f.prefix_mass, expected)


@given(x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_cdf_monotone_for_nonnegative_density(x):
    m = graded_mesh(64)
    f = Density(m, np.linspace(0.2, 1.8, 64))
    assert 0.0 <= f.cdf(x) <= f.mass + 1e-12
    assert f.cdf(x) <= f.cdf(min(1.0, x + 0.1)) + 1e-15


# ---------------------------------------------------------- stacked densities

def signed_rows(mesh, count=5, seed=31):
    rng = np.random.default_rng(seed)
    return [Density(mesh, rng.standard_normal(mesh.n_cells)) for _ in range(count)]


def row_by_row(densities, method, *xs):
    """method of density i at x[..., i] of every x, along a last axis: the 1-D
    calls a stack must reproduce bit for bit."""
    *xs, _ = np.broadcast_arrays(*xs, np.empty(len(densities)))
    return np.stack([getattr(d, method)(*(x[..., i] for x in xs))
                     for i, d in enumerate(densities)], axis=-1)


def test_stack_reads_row_i_at_shared_x(mesh512):
    densities = signed_rows(mesh512)
    stack = Density.stack(densities)
    zeta = 0.3
    kinks = np.abs(mesh512.boundaries - zeta)[:, None]  # one x for every row
    assert np.array_equal(stack.cdf(kinks), row_by_row(densities, "cdf", kinks))
    lo, hi = zeta - kinks, zeta + kinks
    assert np.array_equal(stack.interval_mass(lo, hi),
                          row_by_row(densities, "interval_mass", lo, hi))


def test_stack_reads_row_i_at_x_of_column_i(mesh512):
    densities = signed_rows(mesh512)
    stack = Density.stack(densities)
    x = np.random.default_rng(8).random((3, len(densities)))  # a leading horizon axis
    assert np.array_equal(stack.cdf(x), row_by_row(densities, "cdf", x))
    lo, hi = 0.5 * x, x
    assert np.array_equal(stack.interval_mass(lo, hi),
                          row_by_row(densities, "interval_mass", lo, hi))


def test_stack_window_masses_clipped_at_0_and_1(mesh512):
    densities = signed_rows(mesh512)
    stack = Density.stack(densities)
    zeta = 0.8
    # zero radius, windows ending on or past 1, on or past 0, and far past both
    deltas = np.array([[0.0, 0.25, zeta, 1.0 - zeta, 1.5],
                       [1.5, 0.9, 0.2, 0.0, 0.25]])
    lo, hi = zeta - deltas, zeta + deltas
    masses = stack.interval_mass(lo, hi)
    assert np.array_equal(masses, row_by_row(densities, "interval_mass", lo, hi))
    assert masses[0, 4] == stack.interval_mass(0.0, 1.0)[4]
    assert masses[0, 4] == densities[4].mass  # the mass over [0, 1] is prefix_mass[-1]


def test_stack_copies_rows_and_refuses_mixed_meshes(mesh512):
    densities = signed_rows(mesh512, count=3)
    stack = Density.stack(densities)
    assert len(stack) == 3
    for i, d in enumerate(densities):
        assert np.array_equal(stack.values[i], d.values)
        assert np.array_equal(stack.prefix_mass[i], d.prefix_mass)
    assert not np.shares_memory(stack.values, densities[0].values)
    assert not np.shares_memory(stack.prefix_mass, densities[0].prefix_mass)
    with pytest.raises(TypeError):
        len(densities[1])
    with pytest.raises(ValueError, match="different meshes"):
        Density.stack([densities[1], uniform_density(graded_mesh(512, ratio=0.9))])


# -------------------------------------------------------------- projection

def test_project_exact_for_piecewise_constant(mesh512):
    rng = np.random.default_rng(23)
    f = Density(mesh512, rng.random(512))
    g = project(lambda x: f.values[mesh512.cell_index(x)], mesh512)
    np.testing.assert_allclose(g.values, f.values, rtol=0, atol=1e-13)


def test_gauss_legendre_table_is_leggauss_8():
    # project's constant rule is numpy's, so no projected cell moves by an ulp
    for table, numpy_rule in zip(GAUSS_LEGENDRE_8, np.polynomial.legendre.leggauss(8)):
        assert np.array(table).tobytes() == numpy_rule.tobytes()


def test_project_polynomial_is_exact(mesh512):
    # degree 7 is integrated exactly by 8-point Gauss-Legendre
    g = project(lambda x: x ** 7, mesh512)
    b = mesh512.boundaries
    exact = (b[1:] ** 8 - b[:-1] ** 8) / 8.0 / mesh512.widths
    np.testing.assert_allclose(g.values, exact, rtol=1e-12)


def test_integrate_product_smooth(mesh1024):
    # midpoint rule, so the error is O(w^2) of the widest (~0.03) cell
    val = integrate_product(lambda x: x, lambda x: x, mesh1024)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-5)
    val2 = integrate_product(np.sin, np.cos, mesh1024)
    assert val2 == pytest.approx(0.5 * np.sin(1.0) ** 2, abs=1e-5)
