"""Low-rank Hessian: Lanczos spectrum vs dense pencil, operator identities,
solve-count exactness, breakdown handling."""

import logging

import numpy as np
import pytest
import scipy.linalg

from hessmc import lowrank, samplers
from hessmc.config import RunConfig
from hessmc.fem import (Mesh1D, WeightedSpace, assemble_mass, bidiagonal_solve,
                        interpolation_matrix)
from hessmc.lowrank import LowRankHessian, build_lowrank
from hessmc.map_point import solve_map
from hessmc.errors import NumericalError
from hessmc.models import (ExpReaction1D, LinearGaussianModel, gradient,
                           observation_points, synthesize_data)
from hessmc.pipeline import LANCZOS_KEY, build_problem
from hessmc.prior import build_prior
from hessmc.samplers import ChainStates, SamplerSettings

from conftest import build_one, failing_dstemr, make_small_problem, white_noise


def dense_preconditioned_misfit(model, prior, m):
    """Columns of q -> L* H_misfit L q, plus its M-pencil eigendecomposition.

    Like every M-self-adjoint operator, this matrix is not Euclidean-
    symmetric; its eigenpairs come from the generalized problem
    (M T) u = theta M u, which yields M-orthonormal eigenvectors.
    """
    n = prior.n
    T = np.empty((n, n))
    eye = np.eye(n)
    for j in range(n):
        Hx = prior.space.solve(model.misfit_hvp_raw(m, prior.apply_L(eye[:, j])))
        T[:, j] = prior.apply_L_adj(Hx)
    MT = prior.space.mass.dense() @ T
    MT = 0.5 * (MT + MT.T)
    theta, U = scipy.linalg.eigh(MT, prior.space.mass.dense())
    return T, theta[::-1], U[:, ::-1]


@pytest.fixture(scope="module")
def linear_setup():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind="linear")
    m_ref = prior.mean.copy()
    lrh = build_one(model.clone(), prior, m_ref, 25, 5,
                    np.random.default_rng(10))  # r + l = n: exact regime
    _, theta, U = dense_preconditioned_misfit(model.clone(), prior, m_ref)
    return prior, model, m_ref, lrh, theta, U


def test_full_lanczos_matches_dense_eigenvalues(linear_setup):
    prior, model, m_ref, lrh, theta, U = linear_setup
    # the misfit Hessian of the linear model has rank q: only those survive
    assert lrh.rank == model.obs.q
    np.testing.assert_allclose(lrh.lam, theta[:lrh.rank], rtol=1e-8)
    assert np.all(np.diff(lrh.lam) <= 0) and np.all(lrh.lam > 0)


def eigenvectors(lrh):
    """M-orthonormal eigenvectors of L* H_misfit L, V = R^{-1} Z."""
    return bidiagonal_solve(lrh.prior.space.R, lrh.Z)


def test_retained_basis_is_m_orthonormal(linear_setup):
    prior, _, _, lrh, _, _ = linear_setup
    V = eigenvectors(lrh)
    G = V.T @ prior.space.mass.dense() @ V
    np.testing.assert_allclose(G, np.eye(lrh.rank), atol=1e-10)


def test_eigen_residuals_are_small(linear_setup):
    # ||Ht v_i - lam_i v_i||_M with Ht = L* M^{-1} (M H_misfit) L
    prior, model, m_ref, lrh, _, _ = linear_setup
    worker = model.clone()
    res = [prior.space.norm(prior.apply_L_adj(prior.space.solve(
               worker.misfit_hvp_raw(m_ref, prior.apply_L(v)))) - lam * v)
           for v, lam in zip(eigenvectors(lrh).T, lrh.lam)]
    assert np.all(np.array(res) <= 1e-6 * (lrh.lam + 1.0))


def test_lanczos_eigenvectors_align_with_dense(linear_setup):
    prior, model, m_ref, lrh, theta, U = linear_setup
    M = prior.space.mass.dense()
    V = eigenvectors(lrh)
    for i in range(lrh.rank):
        # skip clustered eigenvalues: individual vectors are not unique there
        if i > 0 and theta[i - 1] - theta[i] < 0.05 * theta[i]:
            continue
        if theta[i] - theta[i + 1] < 0.05 * theta[i]:
            continue
        cos = abs(V[:, i] @ (M @ U[:, i]))
        assert cos >= 0.999, (i, cos)


def test_inverse_round_trip(linear_setup):
    prior, _, _, lrh, _, _ = linear_setup
    rng = np.random.default_rng(11)
    for _ in range(4):
        d = white_noise(prior.space, rng)
        back = lrh.apply_H(lrh.apply_inv(d))
        assert prior.space.norm(back - d) <= 1e-8 * prior.space.norm(d)


def test_sqrt_composition_equals_inverse(linear_setup):
    prior, _, _, lrh, _, _ = linear_setup
    rng = np.random.default_rng(12)
    d = white_noise(prior.space, rng)
    composed = lrh.apply_inv_sqrt(lrh.apply_inv_sqrt_adj(d))
    ref = lrh.apply_inv(d)
    assert prior.space.norm(composed - ref) <= 1e-10 * prior.space.norm(ref)


def test_quad_is_hessian_quadratic_form(linear_setup):
    prior, _, _, lrh, _, _ = linear_setup
    rng = np.random.default_rng(13)
    d = white_noise(prior.space, rng)
    assert lrh.quad(d) == pytest.approx(prior.space.inner(d, lrh.apply_H(d)), rel=1e-10)


def rank_zero(prior):
    """The Hessian with no retained pair: every operator is the prior's."""
    return LowRankHessian(prior=prior, Z=np.zeros((prior.n, 0)), lam=np.zeros(0))


def test_draw_is_the_inverse_sqrt_of_whitened_noise(linear_setup):
    # a draw is the mean plus the fluctuation, which takes n ~ N(0, I)
    # straight to C^{-1} (I + Z E Z^T) n: the result is H^{-1/2} R^{-1} n,
    # without an R solve undone by a product; at rank 0 it is the prior
    # draw, the mean plus the transported noise L R^{-1} n = C^{-1} n
    prior, _, m_ref, lrh, _, _ = linear_setup
    for H, mean in ((lrh, m_ref), (rank_zero(prior), prior.mean)):
        n = np.random.default_rng(14).standard_normal(prior.n)
        y = mean + H.fluctuation(n)
        ref = mean + H.apply_inv_sqrt(bidiagonal_solve(prior.space.R, n))
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    noise = white_noise(prior.space, np.random.default_rng(14))
    np.testing.assert_allclose(y, prior.mean + prior.apply_L(noise), atol=1e-13)
    C = np.diag(prior.C[1]) + np.diag(prior.C[0, 1:], 1)
    np.testing.assert_allclose(y - prior.mean, np.linalg.solve(C, n), atol=1e-12)


def test_half_logdet_matches_dense(linear_setup):
    _, _, _, lrh, theta, _ = linear_setup
    kept = theta[theta > 1e-10 * max(1.0, theta[0])]
    assert lrh.half_logdet_rel() == pytest.approx(0.5 * np.log1p(kept).sum(), abs=1e-8)


def test_build_uses_exactly_two_solves_per_iteration():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind="linear")
    worker = model.clone()
    build_one(worker, prior, prior.mean, 12, 3, np.random.default_rng(0))
    assert worker.counter.total == 2 * (12 + 3)
    assert worker.counter.incremental_solves == 2 * (12 + 3)

    # nonlinear model: the Hessian actions reuse the forward/adjoint state
    # at the build point, so after a gradient the marginal cost is identical
    mesh2, space2, prior2, model2, _ = make_small_problem(n=30, q=6)
    worker2 = model2.clone()
    gradient(worker2, prior2, prior2.mean)
    before = worker2.counter.total
    build_one(worker2, prior2, prior2.mean, 12, 3, np.random.default_rng(0))
    assert worker2.counter.total - before == 2 * (12 + 3)


@pytest.mark.parametrize("kind", ["linear", "exp_reaction"])
def test_build_makes_no_mass_solve(kind, monkeypatch):
    # the whitened action C^{-T} (M H_misfit) C^{-1} z uses the assembled
    # Hessian action as it is: no M^{-1} that a product with M would undo
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind)
    calls = []
    solve = WeightedSpace.solve

    def counting_solve(self, b):
        calls.append(b.shape)
        return solve(self, b)

    monkeypatch.setattr(WeightedSpace, "solve", counting_solve)
    lrh = build_one(model.clone(), prior, prior.mean + 0.2, 12, 3,
                    np.random.default_rng(0))
    assert lrh.rank > 0
    assert calls == []


def test_truncation_keeps_top_r():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind="linear")
    full = build_one(model.clone(), prior, prior.mean, 25, 5, np.random.default_rng(3))
    trunc = build_one(model.clone(), prior, prior.mean, 3, 27, np.random.default_rng(3))
    assert trunc.rank == 3
    np.testing.assert_allclose(trunc.lam, full.lam[:3], rtol=1e-9)


def test_breakdown_injects_fresh_directions_without_extra_solves():
    # rank-2 misfit Hessian exhausts its Krylov space after two iterations
    mesh = Mesh1D.uniform(20, 1.0)
    space = assemble_mass(mesh)
    prior = build_prior(mesh, 1e-2, 1e2, mean=0.0, space=space)
    pts = observation_points(mesh, 2)
    model = LinearGaussianModel(mesh, space, interpolation_matrix(mesh, pts))
    synthesize_data(model, np.zeros(20), 0.02, np.random.default_rng(0), points=pts)
    lrh = build_one(model, prior, prior.mean, 8, 2, np.random.default_rng(1))
    assert lrh.deflations > 0
    assert lrh.lanczos_iters == 10
    assert model.counter.total == 2 * 10
    assert lrh.rank == 2
    _, theta, _ = dense_preconditioned_misfit(model, prior, prior.mean)
    np.testing.assert_allclose(lrh.lam, theta[:2], rtol=1e-8)


def test_rank_zero_falls_back_to_prior(caplog):
    # a zero observation operator gives a zero misfit Hessian
    mesh = Mesh1D.uniform(12, 1.0)
    space = assemble_mass(mesh)
    prior = build_prior(mesh, 1e-2, 1e2, mean=0.0, space=space)
    model = LinearGaussianModel(mesh, space, np.zeros((3, 12)))
    synthesize_data(model, np.zeros(12), 0.1, np.random.default_rng(0),
                    points=np.array([0.5, 0.6, 0.7]))
    with caplog.at_level(logging.WARNING, logger="hessmc.lowrank"):
        lrh = build_one(model, prior, prior.mean, 3, 2, np.random.default_rng(0))
    assert "fall back" in caplog.text
    assert lrh.rank == 0
    rng = np.random.default_rng(1)
    d = white_noise(space, rng)
    np.testing.assert_allclose(lrh.apply_inv(d), prior.apply_covariance(d), atol=1e-12)
    np.testing.assert_allclose(lrh.apply_inv_sqrt(d), prior.apply_L(d), atol=1e-12)
    np.testing.assert_allclose(lrh.apply_H(d), prior.apply_A(d), atol=1e-10)
    assert lrh.half_logdet_rel() == 0.0
    assert lrh.quad(d) == pytest.approx(space.inner(d, prior.apply_A(d)), rel=1e-9)
    # its draws are the prior's: nodal covariance K^{-1}, and <v, Gamma v>_M
    # for the M-weighted coordinate along v
    draws = prior.mean + lrh.fluctuation(rng.standard_normal((100_000, 12)))
    Kinv = np.linalg.inv(prior.K.dense())
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), np.diag(Kinv), rtol=0.05)
    v = rng.standard_normal(12)
    coords = draws @ (space.mass.dense() @ v)
    assert coords.var(ddof=1) == pytest.approx(space.inner(v, prior.apply_covariance(v)),
                                               rel=0.05)


def test_invalid_ranks_raise():
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind="linear")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_one(model.clone(), prior, prior.mean, 0, 5, rng)
    with pytest.raises(ValueError):
        build_one(model.clone(), prior, prior.mean, 5, -1, rng)
    with pytest.raises(ValueError):
        build_one(model.clone(), prior, prior.mean, 28, 5, rng)  # r + l > n


def test_nonlinear_hessian_negatives_are_discarded():
    # the full-Newton misfit Hessian of the nonlinear model is indefinite
    # away from the data manifold; the retained spectrum must stay positive
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6)
    rng = np.random.default_rng(4)
    m = prior.mean + 0.5 * prior.apply_L(white_noise(space, rng))
    lrh = build_one(model.clone(), prior, m, 25, 5, np.random.default_rng(5))
    assert np.all(lrh.lam > 0)
    _, theta, _ = dense_preconditioned_misfit(model.clone(), prior, m)
    pos = theta[theta > 1e-10 * max(1.0, theta[0])][:25]
    np.testing.assert_allclose(lrh.lam, pos, rtol=1e-7)


def test_whitened_lanczos_top_ritz_values_at_default_exp_map():
    # pinned defaults: two eigenvalues above 1 (about 371.2 and 3.55), then
    # a tail inside [-0.53, 0.70]; 25 iterations resolve the top two
    cfg = RunConfig()
    problem = build_problem(cfg)
    m_map = solve_map(problem.model.clone(), problem.prior).m_map
    lrh = build_one(problem.model.clone(), problem.prior, m_map,
                    cfg["lowrank.r"], cfg["lowrank.l"],
                    np.random.default_rng([cfg["run.seed"], LANCZOS_KEY]))
    _, theta, _ = dense_preconditioned_misfit(problem.model.clone(), problem.prior, m_map)
    assert theta[0] == pytest.approx(371.2, rel=1e-3)
    assert theta[1] == pytest.approx(3.55, rel=1e-2)
    np.testing.assert_allclose(lrh.lam[:2], theta[:2], rtol=1e-8)


# -- builds of several points in lockstep -------------------------------------

def lockstep_points(kind, c=3):
    """Workers (with their gradient formed, as in the samplers) at c
    distinct points of a small problem; the linear one has 6 observations,
    so a build with r + l > 6 deflates."""
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind)
    rng = np.random.default_rng(21)
    points = [prior.mean + 0.3 * prior.apply_L(white_noise(space, rng)) for _ in range(c)]
    workers = [model.clone() for _ in points]
    for worker, m in zip(workers, points):
        gradient(worker, prior, m)
    return prior, model, workers, points


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_stacked_action_equals_each_points_action(kind):
    prior, model, workers, points = lockstep_points(kind)
    alone = [model.clone() for _ in points]
    X = np.random.default_rng(3).standard_normal((prior.n, len(points)))
    before = [w.counter.total for w in workers]
    Y = type(model).stacked_hvp_raw(workers, points)(X)
    for i, (worker, m) in enumerate(zip(alone, points)):
        gradient(worker, prior, m)
        assert Y[:, i].tobytes() == worker.misfit_hvp_raw(m, X[:, i]).tobytes()
        # exactly the two incremental solves of one action, per point
        assert workers[i].counter.total - before[i] == 2
        assert workers[i].counter.incremental_solves == 2
    # a batch in which the first and last states already hold Au and Av (on
    # the exp model) from the action above and the two between do not: one
    # stacked assembly for those two, and every column still its batch of one
    rng = np.random.default_rng(5)
    fresh = [prior.mean + 0.3 * prior.apply_L(white_noise(prior.space, rng)) for _ in range(2)]
    fresh_workers = [model.clone() for _ in fresh]
    for worker, m in zip(fresh_workers, fresh):
        gradient(worker, prior, m)
    if kind == "exp_reaction":
        assert all("Au" in w._state for w in workers)
        assert not any("Au" in w._state for w in fresh_workers)
    mixed = [workers[0], *fresh_workers, workers[2]]
    at = [points[0], *fresh, points[2]]
    before = [(w.counter.forward_solves, w.counter.adjoint_solves, w.counter.incremental_solves)
              for w in mixed]
    Y = type(model).stacked_hvp_raw(mixed, at)(X[:, [0, 1, 2, 0]])
    for i, (worker, m, (f, a, inc)) in enumerate(zip(mixed, at, before)):
        alone = model.clone()
        gradient(alone, prior, m)
        assert Y[:, i].tobytes() == alone.misfit_hvp_raw(m, X[:, [0, 1, 2, 0][i]]).tobytes()
        assert (worker.counter.forward_solves, worker.counter.adjoint_solves,
                worker.counter.incremental_solves) == (f, a, inc + 2)


def test_a_non_finite_stacked_action_leaves_the_other_blocks_alone():
    # 0 * nan = nan: the zero coupling of the block-diagonal dpttrs and
    # dgbmv calls would carry a nan into the neighbouring blocks
    prior, model, workers, points = lockstep_points("exp_reaction")
    X = np.random.default_rng(4).standard_normal((prior.n, 3))
    X[5, 1] = np.nan
    Y = ExpReaction1D.stacked_hvp_raw(workers, points)(X)
    for i, (worker, m) in enumerate(zip(workers, points)):
        assert Y[:, i].tobytes() == worker.misfit_hvp_raw(m, X[:, i]).tobytes()
        assert worker.counter.incremental_solves == 4
    assert np.isnan(Y[:, 1]).any() and np.isfinite(Y[:, [0, 2]]).all()


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_lockstep_build_equals_each_build_alone(kind):
    prior, model, workers, points = lockstep_points(kind)
    r, l = 8, 4
    before = [w.counter.total for w in workers]
    together = build_lowrank(workers, prior, points, r, l,
                             [np.random.default_rng([9, i]) for i in range(3)])
    for i, m in enumerate(points):
        worker = model.clone()
        gradient(worker, prior, m)
        alone = build_one(worker, prior, m, r, l, np.random.default_rng([9, i]))
        got = together[i]
        assert got.lam.tobytes() == alone.lam.tobytes()
        assert got.Z.tobytes() == alone.Z.tobytes()
        assert (got.deflations, got.lanczos_iters) == (alone.deflations, alone.lanczos_iters)
        assert workers[i].counter.total - before[i] == 2 * (r + l)
        if kind == "linear":
            assert got.deflations > 0


class ZeroAfter:
    """A generator whose standard normals after the first ``after`` are zero."""

    def __init__(self, seed, after):
        self.rng, self.after = np.random.default_rng(seed), after

    def standard_normal(self, size=None):
        self.after -= 1
        out = self.rng.standard_normal(size)
        return out if self.after >= 0 else 0.0 * out


@pytest.mark.parametrize("after", [0, 1])
def test_a_restart_failure_drops_only_that_build(after):
    # after = 0: no start vector; after = 1: the first deflation of the
    # linear build finds no fresh direction
    prior, model, workers, points = lockstep_points("linear")
    together = build_lowrank(workers, prior, points, 8, 4,
                             [np.random.default_rng(0), ZeroAfter(1, after),
                              np.random.default_rng(2)])
    assert isinstance(together[1], NumericalError)
    alone = model.clone()
    with pytest.raises(NumericalError, match="could not find a new direction"):
        build_one(alone, prior, points[1], 8, 4, ZeroAfter(1, after))
    # the failed point stays in the batch to the end of its build: it pays
    # its full 2 (r + l) solves, in lockstep as alone
    assert workers[1].counter.incremental_solves == 2 * 12
    assert alone.counter.incremental_solves == workers[1].counter.incremental_solves
    for i in (0, 2):
        alone = build_one(model.clone(), prior, points[i], 8, 4, np.random.default_rng(i))
        assert together[i].Z.tobytes() == alone.Z.tobytes()
        assert together[i].lam.tobytes() == alone.lam.tobytes()
        assert workers[i].counter.incremental_solves == 2 * 12


class ZeroAt:
    """A generator whose ``at``-th call of standard_normal (from 0) gives
    zeros, a draw in the span of any basis, which forces a restart."""

    def __init__(self, seed, at):
        self.rng, self.at, self.calls = np.random.default_rng(seed), at, 0

    def standard_normal(self, size=None):
        out = self.rng.standard_normal(size)
        self.calls += 1
        return 0.0 * out if self.calls - 1 == self.at else out


def test_lockstep_fresh_directions_are_bit_identical_to_each_build_alone():
    # the linear model's misfit Hessian is the same rank-6 operator at every
    # point, so all three builds exhaust their Krylov space at the same
    # iterations and draw their fresh directions together; the second
    # point's first fresh draw is zero and must be drawn again
    prior, model, workers, points = lockstep_points("linear")

    def streams():
        return [ZeroAt(30, None), ZeroAt(31, 1), ZeroAt(32, None)]
    together = build_lowrank(workers, prior, points, 8, 4, streams())
    for i, m in enumerate(points):
        worker = model.clone()
        gradient(worker, prior, m)
        rng = streams()[i]
        alone = build_one(worker, prior, m, 8, 4, rng)
        got = together[i]
        assert got.lam.tobytes() == alone.lam.tobytes()
        assert got.Z.tobytes() == alone.Z.tobytes()
        assert (got.deflations, got.lanczos_iters) == (alone.deflations, alone.lanczos_iters)
        assert got.deflations == 12 - 6 - 1
        # one start vector, one draw per deflation, one more for the restart
        assert rng.calls == 1 + got.deflations + (i == 1)
        assert workers[i].counter.incremental_solves == 2 * 12


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_a_lockstep_tridiagonal_failure_drops_only_that_build(kind, monkeypatch):
    # the eigensolve of the second point's Lanczos tridiagonal reports
    # failure: that point, and only that point, gets a NumericalError
    prior, model, workers, points = lockstep_points(kind)
    monkeypatch.setattr(lowrank, "dstemr", failing_dstemr({1}))
    together = build_lowrank(workers, prior, points, 8, 4,
                             [np.random.default_rng(i) for i in range(3)])
    monkeypatch.undo()
    assert isinstance(together[1], NumericalError)
    assert "dstemr" in str(together[1]) and "info 2" in str(together[1])
    for i in (0, 2):
        worker = model.clone()
        gradient(worker, prior, points[i])
        alone = build_one(worker, prior, points[i], 8, 4, np.random.default_rng(i))
        assert together[i].Z.tobytes() == alone.Z.tobytes()
        assert together[i].lam.tobytes() == alone.lam.tobytes()
    assert all(w.counter.incremental_solves == 2 * 12 for w in workers)


def test_a_non_finite_build_fails_as_it_does_alone():
    prior, model, workers, points = lockstep_points("exp_reaction")
    workers[1]._state["em_uv"][4] = np.nan     # a nan in one point's Hessian
    with pytest.raises(ValueError) as alone:
        build_one(workers[1], prior, points[1], 8, 4, np.random.default_rng(1))
    with pytest.raises(ValueError) as together:
        build_lowrank(workers, prior, points, 8, 4,
                      [np.random.default_rng(i) for i in range(3)])
    assert str(together.value) == str(alone.value)


# -- proposal algebra on a block of rows -------------------------------------

def mixed_rank_hessians():
    """Hessians at six points of the small exp problem from one lockstep
    build (r = 8, l = 4) whose ranks interleave: 1, 8, 2, 8, 1, 8."""
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6)
    rng = np.random.default_rng(21)
    drawn = [prior.mean + s * prior.apply_L(white_noise(space, rng))
             for s in (0.1, 0.3, 1.0, 2.0, 3.0, 0.5)]
    points = [drawn[i] for i in (0, 2, 5, 3, 1, 4)]
    workers = [model.clone() for _ in points]
    for worker, m in zip(workers, points):
        gradient(worker, prior, m)
    hessians = build_lowrank(workers, prior, points, 8, 4,
                             [np.random.default_rng([9, i]) for i in range(len(points))])
    assert [h.rank for h in hessians] == [1, 8, 2, 8, 1, 8]
    return prior, np.array(points), hessians


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("rank", ["low", "zero", "own"])
def test_stacked_proposal_algebra_is_bit_identical_per_row(linear_setup, c, rank):
    # one call on c rows (the shared MAP Hessian of ismap and snmap) against
    # one call per row: apply_inv, quad and the fluctuation of each chain's
    # normals, the transposed view Z.T passed to np.matvec as it is
    prior, model, m_ref, lrh, theta, U = linear_setup
    if rank == "own":
        check_own_hessians_per_row(c)
        return
    if rank == "zero":
        lrh = rank_zero(prior)
    X = np.random.default_rng(c).standard_normal((c, prior.n))
    noise = np.array([np.random.default_rng([3, i]).standard_normal(prior.n) for i in range(c)])
    inv, quad, fluctuation = lrh.apply_inv(X), lrh.quad(X), lrh.fluctuation(noise)
    for i in range(c):
        assert inv[i].tobytes() == lrh.apply_inv(X[i]).tobytes()
        assert quad[i] == lrh.quad(X[i])
        assert fluctuation[i].tobytes() == lrh.fluctuation(noise[i]).tobytes()


def check_own_hessians_per_row(c):
    """sn's rows, each with its own Hessian from one lockstep build of mixed
    ranks: the Newton means and reverse quads of six candidates take one
    stacked call per rank, and so do the determinant factors of a stacked
    Hessian, and the forward quads and fluctuations one call per each of c
    chains, on its state Hessian; every value is byte for byte that row's
    single-Hessian call, for all six rows and for a subset of them."""
    prior, points, hessians = mixed_rank_hessians()
    sn = SamplerSettings(method="sn")
    rng = np.random.default_rng(c)
    X, noise = rng.standard_normal((2, len(hessians), prior.n))
    owner = np.repeat(np.arange(c), -(-len(hessians) // c))[:len(hessians)].tolist()
    states = ChainStates(points[:c], [0.0] * c, hessians[:c], rng.standard_normal((c, prior.n)),
                         [h.half_logdet_rel() for h in hessians[:c]])
    for rows in (range(len(hessians)), [0, 1, 3, 5]):
        rows = list(rows)
        hs = [hessians[i] for i in rows]
        inv = samplers._per_hessian(sn, hs, LowRankHessian.apply_inv, X[rows])
        half = samplers._per_hessian(sn, hs, LowRankHessian.half_logdet_rel)
        for i, h, x, d in zip(rows, hs, inv, half.tolist()):
            assert x.tobytes() == h.apply_inv(X[i]).tobytes()
            assert d == h.half_logdet_rel()
    candidates = ChainStates(points, [0.0] * len(points), hessians, X,
                             [h.half_logdet_rel() for h in hessians])
    reverse, forward = samplers.log_q_pair(sn, states.take(owner), candidates)
    fluctuation = samplers._fluctuations(sn, [states.lrhs[j] for j in owner], noise)
    for i, (h, j) in enumerate(zip(hessians, owner)):
        state = states.lrhs[j]
        assert reverse[i] == h.half_logdet_rel() - 0.5 * h.quad(points[j] - X[i])
        assert forward[i] == state.half_logdet_rel() - 0.5 * state.quad(points[i] - states.mean[j])
        assert fluctuation[i].tobytes() == state.fluctuation(noise[i]).tobytes()
