"""Posterior eigenstructure, classification, and KDE marginals."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hessmc import analysis
from hessmc.analysis import (classify_eigenvectors, eigen_coordinates,
                             eigen_marginal, kde_1d, mass_levels,
                             pair_density, point_marginal,
                             posterior_eigensystem, silverman_bandwidth)
from hessmc.map_point import solve_map
from hessmc.pipeline import observed_mask

from conftest import make_small_problem, white_noise

GROUPS = {"data_informed", "prior_tail", "shadowed", "mixed"}


@pytest.fixture(scope="module")
def linear_eigensystem():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind="linear")
    res = solve_map(model.clone(), prior, grad_tol_rel=1e-10, cg_rtol=1e-12)
    lam, V, MHm = posterior_eigensystem(model.clone(), prior, res.m_map)
    return mesh, space, prior, model, res.m_map, lam, V, MHm


@pytest.fixture(scope="module")
def exp_records():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6)
    res = solve_map(model.clone(), prior)
    lam, V, MHm = posterior_eigensystem(model.clone(), prior, res.m_map)
    mask = observed_mask(mesh, "right_half")
    records = classify_eigenvectors(prior, MHm, lam, V, mask)
    return records, lam


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_eigensystem_columns_are_batch_of_one_actions(kind, monkeypatch):
    # the columns are stacked actions at m, in one block of n columns and in
    # blocks of 7 (the last one short), each from a cold point cache: every
    # column, and the solve count, is the batch-of-one action misfit_hvp_raw's,
    # and the state at m is formed once, not once per column
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind)
    m = prior.mean + 0.3 * prior.apply_L(white_noise(space, np.random.default_rng(2)))
    ref = model.clone()
    cols = np.column_stack([ref.misfit_hvp_raw(m, e) for e in np.eye(prior.n)])
    r = ref.counter
    for values in (analysis.LOCKSTEP_BLOCK_VALUES, 7 * 9 * prior.n):
        monkeypatch.setattr(analysis, "LOCKSTEP_BLOCK_VALUES", values)
        worker = model.clone()
        assert worker._state is None
        _, _, MHm = posterior_eigensystem(worker, prior, m)
        assert MHm.tobytes() == (0.5 * (cols + cols.T)).tobytes()
        c = worker.counter
        assert (c.forward_solves, c.adjoint_solves, c.incremental_solves) == \
            (r.forward_solves, r.adjoint_solves, r.incremental_solves)
        assert c.incremental_solves == 2 * prior.n
        # the exp model forms its state once; the linear model has none
        assert c.forward_solves == c.adjoint_solves == (kind == "exp_reaction")


def test_eigensystem_matches_analytic_pencil(linear_eigensystem):
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    F, sigma = model.F, model.obs.sigma[0]
    P = prior.K.dense() + F.T @ F / sigma**2
    ref = scipy.linalg.eigh(P, space.mass.dense(), eigvals_only=True)[::-1]
    np.testing.assert_allclose(lam, ref, rtol=1e-10)
    np.testing.assert_allclose(V.T @ space.mass.dense() @ V, np.eye(prior.n), atol=1e-9)


def test_rayleigh_quotients_sum_to_eigenvalue(exp_records):
    records, lam = exp_records
    for rec in records:
        err = abs(rec.r_misfit + rec.r_prior - rec.eigenvalue)
        assert err <= 1e-8 * max(1.0, abs(rec.eigenvalue))


def test_records_sorted_and_grouped(exp_records):
    records, _ = exp_records
    d = [rec.discriminant for rec in records]
    assert d == sorted(d, reverse=True)
    assert {rec.group for rec in records} <= GROUPS
    assert any(rec.group == "data_informed" for rec in records)

    # re-derive the group of every record from its own fields
    non_data = [rec.r_prior for rec in records if rec.discriminant <= 0.0]
    rp_median = float(np.median(non_data))
    for rec in records:
        if rec.discriminant > 0.0:
            expect = "data_informed"
        elif rec.r_prior > rp_median:
            expect = "prior_tail"
        elif rec.norm_unobserved >= rec.norm_observed:
            expect = "shadowed"
        else:
            expect = "mixed"
        assert rec.group == expect


def column_loop_records(prior, MHm, V, mask):
    """(r_m, r_p, d, observed norm, unobserved norm) of each column of V,
    one column at a time: the reference for the block calls."""
    space, out = prior.space, []
    for v in V.T:
        denom = space.inner(v, v)
        r_m = float(v @ (MHm @ v)) / denom
        r_p = float(v @ prior.K.matvec(v)) / denom
        out.append((r_m, r_p, r_m**2 - r_p**2, space.norm(np.where(mask, v, 0.0)),
                    space.norm(np.where(mask, 0.0, v))))
    return out


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_classification_is_bit_identical_to_a_column_loop(kind):
    mesh, space, prior, model, _ = make_small_problem(n=139, q=10, kind=kind, seed=3)
    m_map = solve_map(model.clone(), prior).m_map
    lam, V, MHm = posterior_eigensystem(model.clone(), prior, m_map)
    mask = observed_mask(mesh, "right_half")
    records = sorted(classify_eigenvectors(prior, MHm, lam, V, mask), key=lambda rec: rec.index)
    got = [(rec.r_misfit, rec.r_prior, rec.discriminant, rec.norm_observed,
            rec.norm_unobserved) for rec in records]
    assert got == column_loop_records(prior, MHm, V, mask)


def test_linear_misfit_quotient_is_nonnegative(linear_eigensystem):
    # Gauss-Newton-exact model: the misfit Hessian is PSD, so every
    # eigenvalue dominates its prior quotient
    mesh, space, prior, model, m_map, lam, V, MHm = linear_eigensystem
    mask = observed_mask(mesh, "right_half")
    records = classify_eigenvectors(prior, MHm, lam, V, mask)
    for rec in records:
        assert rec.r_misfit >= -1e-10 * max(1.0, abs(rec.eigenvalue))
        assert rec.eigenvalue >= rec.r_prior - 1e-8 * max(1.0, abs(rec.eigenvalue))


# -- bandwidths and 1D KDE -----------------------------------------------------

def test_silverman_frozen_value():
    # std(ddof=1) = 29.011492, IQR/1.34 = 36.940299 -> std branch wins
    h = silverman_bandwidth(np.arange(100.0))
    assert h == pytest.approx(10.394714685648, rel=1e-10)


def test_silverman_floor_and_degenerate_input():
    assert silverman_bandwidth(np.arange(100.0), floor=50.0) == 50.0
    assert silverman_bandwidth(np.full(10, 7.0)) == 0.0
    assert silverman_bandwidth(np.full(10, 7.0), floor=0.3) == 0.3


def test_kde_integrates_to_one_and_matches_normal_peak():
    x = np.random.default_rng(0).standard_normal(100_000)
    curve = kde_1d(x)
    assert np.trapezoid(curve.density, curve.grid) == pytest.approx(1.0, abs=1e-3)
    peak = curve.density[np.argmin(np.abs(curve.grid))]
    assert peak == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=0.03)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    assert np.var(x, ddof=1) == pytest.approx(1.0, rel=0.03)
    # the estimate puts half its mass below the samples' median
    below = curve.grid <= np.median(x)
    assert np.trapezoid(curve.density[below], curve.grid[below]) == \
        pytest.approx(0.5, abs=0.01)


def one_shot_kde(x, grid, h):
    """The (grid x N) evaluation that ``kde_1d`` blocks."""
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z**2).sum(axis=1) / (x.size * h * np.sqrt(2.0 * np.pi))


@pytest.mark.parametrize("size", [1, 7, 1921, 4999])
@pytest.mark.parametrize("block_rows", [None, 1, 3, 400])
def test_blocked_kde_is_bit_identical_to_one_shot(monkeypatch, size, block_rows):
    # None keeps the module's block; 3 and 400 leave a short last block of
    # the 401-point grid
    if block_rows is not None:
        monkeypatch.setattr(analysis, "KDE_BLOCK_VALUES", block_rows * size)
    x = np.random.default_rng(size).standard_normal(size) * 0.3 + 2.0
    grid = np.linspace(0.5, 3.5, analysis.GRID_POINTS)
    h = 0.11 if size == 1 else silverman_bandwidth(x)
    curve = kde_1d(x, grid=grid, bandwidth=h)
    assert curve.density.tobytes() == one_shot_kde(x, grid, h).tobytes()


def test_kde_memory_is_bounded():
    # a one-shot kde_1d held 401 x 20 000 floats several times (about 190 MB)
    x = np.random.default_rng(3).standard_normal(20_000)
    kde_1d(x)
    tracemalloc.start()
    try:
        kde_1d(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_point_marginal_of_frozen_chain_is_a_spike():
    pooled = np.full((500, 3), 2.0)
    curve = point_marginal(pooled, 1)
    assert curve.bandwidth == pytest.approx(1e-6)
    assert curve.grid[np.argmax(curve.density)] == pytest.approx(2.0, abs=1e-7)
    assert np.trapezoid(curve.density, curve.grid) == pytest.approx(1.0, abs=1e-3)
    assert np.var(pooled[:, 1], ddof=1) == 0.0


def test_point_marginal_selects_the_requested_node():
    rng = np.random.default_rng(4)
    pooled = rng.standard_normal((2000, 3)) + np.array([0.0, 5.0, -5.0])
    curve = point_marginal(pooled, 2)
    mean = np.trapezoid(curve.grid * curve.density, curve.grid)
    assert mean == pytest.approx(-5.0, abs=0.1)


# -- eigen-coordinate marginals -------------------------------------------------

def test_eigen_coordinates_algebra(linear_eigensystem):
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    rng = np.random.default_rng(6)
    samples = prior.mean + 0.2 * white_noise(space, rng, size=7)
    v = V[:, 0]
    coords = eigen_coordinates(samples, v, prior.mean, space)
    direct = np.array([space.inner(v, s - prior.mean) for s in samples])
    np.testing.assert_allclose(coords, direct, atol=1e-13)


def test_eigen_marginal_gaussian_reference(linear_eigensystem):
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    rng = np.random.default_rng(8)
    pooled = m_map + 0.1 * white_noise(space, rng, size=800)
    kde, gauss = eigen_marginal(pooled, V[:, 0], lam[0], m_map, prior)
    # N(<v, m_map - m0>_M, 1/lam) on the shared grid
    g_mean = space.inner(V[:, 0], m_map - prior.mean)
    expected = (np.sqrt(lam[0] / (2.0 * np.pi))
                * np.exp(-0.5 * lam[0] * (gauss.grid - g_mean) ** 2))
    np.testing.assert_allclose(gauss.density, expected, rtol=1e-12)
    np.testing.assert_array_equal(kde.grid, gauss.grid)
    assert np.trapezoid(gauss.density, gauss.grid) == pytest.approx(1.0, abs=1e-3)
    assert not kde.degenerate
    assert np.trapezoid(kde.density, kde.grid) == pytest.approx(1.0, abs=1e-2)


def test_eigen_marginal_of_frozen_chains_is_flagged(linear_eigensystem):
    # 200 copies of one state: the eigencoordinates have no spread, and a
    # KDE at the floored bandwidth would be a spike the grid cannot resolve
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    pooled = np.tile(m_map + 0.05, (200, 1))
    kde, gauss = eigen_marginal(pooled, V[:, 0], lam[0], m_map, prior)
    assert kde.degenerate
    assert np.isnan(kde.density).all()
    np.testing.assert_array_equal(kde.grid, gauss.grid)
    assert np.trapezoid(gauss.density, gauss.grid) == pytest.approx(1.0, abs=1e-3)


# -- 2D pair densities ------------------------------------------------------------

def test_mass_levels_hand_example():
    density = np.array([[4.0, 3.0], [2.0, 1.0]])
    levels = mass_levels(density, cell_area=0.1)
    assert levels == {0.05: 4.0, 0.50: 3.0, 0.95: 1.0}


@pytest.mark.parametrize("size", [143, 1921])
def test_pair_density_is_bit_identical_to_one_shot(linear_eigensystem, size):
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    rng = np.random.default_rng(size)
    pooled = m_map + 0.1 * white_noise(space, rng, size=size)
    pd = pair_density(pooled, V[:, 0], V[:, 2], lam[0], lam[2], m_map, prior,
                      grid_size=37)
    ci, hi, gi = analysis._eigen_axis(pooled, V[:, 0], lam[0], m_map, prior, 4.0, 37)
    cj, hj, gj = analysis._eigen_axis(pooled, V[:, 2], lam[2], m_map, prior, 4.0, 37)
    zx = np.exp(-0.5 * ((gi.grid[:, None] - ci[None, :]) / hi) ** 2)
    zy = np.exp(-0.5 * ((gj.grid[:, None] - cj[None, :]) / hj) ** 2)
    ref = zx @ zy.T / (ci.size * 2.0 * np.pi * hi * hj)
    assert not pd.degenerate
    assert pd.density.tobytes() == ref.tobytes()
    assert pd.levels == mass_levels(ref, float((gi.grid[1] - gi.grid[0])
                                               * (gj.grid[1] - gj.grid[0])))


def test_pair_density_of_frozen_chains_is_flagged(linear_eigensystem):
    # frozen chains: floored 1e-12 bandwidths would put the point mass
    # between grid cells and give an all-zero table with zero levels
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    pooled = np.tile(m_map + 0.05, (200, 1))
    pd = pair_density(pooled, V[:, 0], V[:, 1], lam[0], lam[1], m_map, prior,
                      grid_size=40)
    assert pd.degenerate
    assert pd.density.shape == (40, 40)
    assert np.isnan(pd.density).all()
    assert all(np.isnan(lvl) for lvl in pd.levels.values())
    assert np.isfinite(pd.gauss_density).all()
    assert pd.gauss_levels[0.05] >= pd.gauss_levels[0.50] >= pd.gauss_levels[0.95] > 0.0


def test_pair_density_contours(linear_eigensystem):
    # exact posterior draws, so the sample cloud and the Gaussian-at-MAP
    # reference live on the same scale and share a resolvable grid
    mesh, space, prior, model, m_map, lam, V, _ = linear_eigensystem
    F, sigma = model.F, model.obs.sigma[0]
    C = np.linalg.inv(prior.K.dense() + F.T @ F / sigma**2)
    rng = np.random.default_rng(10)
    pooled = m_map + rng.standard_normal((4000, prior.n)) @ np.linalg.cholesky(C).T
    pd = pair_density(pooled, V[:, 0], V[:, 1], lam[0], lam[1], m_map, prior,
                      grid_size=80)
    assert pd.density.shape == (80, 80)
    assert pd.bandwidths[0] > 0.0 and pd.bandwidths[1] > 0.0
    for levels in (pd.levels, pd.gauss_levels):
        assert levels[0.05] >= levels[0.50] >= levels[0.95] > 0.0
    mass = np.trapezoid(np.trapezoid(pd.density, pd.y_grid, axis=1), pd.x_grid)
    assert mass == pytest.approx(1.0, abs=0.05)
    gmass = np.trapezoid(np.trapezoid(pd.gauss_density, pd.y_grid, axis=1), pd.x_grid)
    assert gmass == pytest.approx(1.0, abs=0.05)
