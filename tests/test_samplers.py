"""MH kernels: proposal densities, acceptance behavior, reproducibility,
solve-cost accounting, start-point selection."""

import numpy as np
import pytest

from hessmc.chain_io import read_chain
from hessmc.errors import NumericalError
from hessmc.fem import WeightedSpace, interpolation_matrix
from hessmc.lowrank import build_lowrank
from hessmc.map_point import solve_map
from hessmc.models import LinearGaussianModel, gradient, synthesize_data
from hessmc.prior import build_prior
from hessmc.samplers import (Chain, SamplerSettings, evaluate, init_state, log_q,
                             mh_step, run_chain, select_start_points)

from conftest import make_small_problem


def tight_map_setup(kind="linear", n=35, q=6, r=10, l=5):
    mesh, space, prior, model, m_true = make_small_problem(n=n, q=q, kind=kind)
    res = solve_map(model.clone(), prior, grad_tol_rel=1e-10, cg_rtol=1e-12)
    lrh = build_lowrank(model.clone(), prior, res.m_map, r, l,
                        np.random.default_rng(7))
    return mesh, space, prior, model, res.m_map, lrh


@pytest.fixture(scope="module")
def linear_map():
    return tight_map_setup()


# -- acceptance on an exactly captured Gaussian target ---------------------

def test_hessian_proposals_are_exact_on_gaussian_target(linear_map):
    # rank 10 >= 6 observations: the low-rank Hessian IS the posterior
    # precision, so the Newton proposals reproduce the target exactly
    mesh, space, prior, model, m_map, lrh = linear_map
    rates = {}
    for method in ("sn", "snmap", "ismap"):
        settings = SamplerSettings(method=method, r=10, l=5,
                                   lrh_map=lrh, m_map=m_map)
        chain = run_chain(settings, model.clone(), prior, m_map, 500,
                          seed=3, chain_id=0)
        rates[method] = chain.acceptance_rate
    assert rates["sn"] == 1.0
    assert rates["snmap"] == 1.0
    assert rates["ismap"] >= 0.999


def test_rwmh_acceptance_band(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method="rwmh", rwmh_sigma=0.005)
    chain = run_chain(settings, model.clone(), prior, m_map, 300,
                      seed=3, chain_id=0)
    assert 0.01 < chain.acceptance_rate < 0.95


# -- proposal densities -----------------------------------------------------

def test_log_q_contracts(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    rng = np.random.default_rng(0)
    a = m_map + 0.1 * space.white_noise(rng)
    b = m_map + 0.1 * space.white_noise(rng)

    def at(method, m):
        settings = SamplerSettings(method=method, r=10, l=5, lrh_map=lrh, m_map=m_map)
        return evaluate(settings, model.clone(), prior, m, np.random.default_rng(1))

    # ismap: independent of the current state
    sa, sb = at("ismap", a), at("ismap", b)
    assert log_q(sa, b) == log_q(sb, b)
    assert log_q(sa, m_map) == 0.0

    # snmap: no determinant factor, centred on the state's Newton point
    za = at("snmap", a)
    assert za.lrh is lrh and za.half_logdet == 0.0
    newton = a - lrh.apply_inv(gradient(model.clone(), prior, a))
    np.testing.assert_allclose(za.mean, newton, rtol=1e-12, atol=1e-12)
    assert log_q(za, b) == pytest.approx(-0.5 * lrh.quad(b - za.mean), rel=1e-12)
    assert log_q(za, za.mean) == 0.0

    # sn additionally carries the determinant of its own local Hessian
    za_sn = at("sn", a)
    assert za_sn.lrh is not lrh and za_sn.lrh.rank > 0
    assert za_sn.half_logdet == za_sn.lrh.half_logdet_rel() > 0.0
    assert log_q(za_sn, za_sn.mean) == za_sn.lrh.half_logdet_rel()

    # rwmh: no Hessian; its symmetric density drops out of the ratio
    assert at("rwmh", a).lrh is None


# -- reproducibility --------------------------------------------------------

def test_chain_is_deterministic_in_seed_and_chain_id(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method="snmap", lrh_map=lrh, m_map=m_map)
    c1 = run_chain(settings, model.clone(), prior, m_map, 40, seed=11, chain_id=2)
    c2 = run_chain(settings, model.clone(), prior, m_map, 40, seed=11, chain_id=2)
    np.testing.assert_array_equal(c1.samples, c2.samples)
    np.testing.assert_array_equal(c1.accepted, c2.accepted)
    np.testing.assert_array_equal(c1.log_post, c2.log_post)
    c3 = run_chain(settings, model.clone(), prior, m_map, 40, seed=11, chain_id=3)
    assert not np.array_equal(c1.samples, c3.samples)


def test_rejected_steps_repeat_the_state_bitwise(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    # an absurd step size: every proposal lands in the far tail
    settings = SamplerSettings(method="rwmh", rwmh_sigma=1e6)
    chain = run_chain(settings, model.clone(), prior, m_map, 50, seed=0, chain_id=0)
    assert chain.acceptance_rate == 0.0
    for k in range(50):
        np.testing.assert_array_equal(chain.samples[k], m_map)
    assert chain.log_post.min() == chain.log_post.max()


def test_newton_proposals_draw_plain_normals(linear_map, monkeypatch):
    # ismap/snmap/sn map n ~ N(0, I) through C^{-1} (I + Z E Z^T) without
    # whitened noise; a step still takes n normals, then one uniform
    mesh, space, prior, model, m_map, lrh = linear_map

    def no_white_noise(*args, **kwargs):
        raise AssertionError("a Newton proposal must not draw whitened noise")

    monkeypatch.setattr(WeightedSpace, "white_noise", no_white_noise)
    for method in ("ismap", "snmap"):
        settings = SamplerSettings(method=method, lrh_map=lrh, m_map=m_map)
        rng = np.random.default_rng(21)
        state = init_state(settings, model.clone(), prior, m_map, rng)
        mh_step(settings, state, model.clone(), prior, rng)
        ref = np.random.default_rng(21)
        ref.standard_normal(prior.n)
        ref.uniform()
        assert rng.uniform() == ref.uniform()
    sn = SamplerSettings(method="sn", r=10, l=5)
    chain = run_chain(sn, model.clone(), prior, m_map, 5, seed=1, chain_id=0)
    assert chain.acceptance_rate == 1.0


# -- cost accounting --------------------------------------------------------

def test_per_step_solve_costs():
    mesh, space, prior, model, m_true = make_small_problem()
    res = solve_map(model.clone(), prior)
    lrh = build_lowrank(model.clone(), prior, res.m_map, 4, 2,
                        np.random.default_rng(1))
    expected = {"rwmh": 1, "ismap": 1, "snmap": 2, "sn": 2 + 2 * (4 + 2)}
    for method, cost in expected.items():
        settings = SamplerSettings(method=method, r=4, l=2,
                                   lrh_map=lrh, m_map=res.m_map)
        chain = run_chain(settings, model.clone(), prior, res.m_map, 25,
                          seed=5, chain_id=0)
        diffs = np.diff(chain.cum_solves)
        assert np.all(diffs == cost), (method, set(diffs.tolist()))


def test_chain_meta_fields(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method="ismap", lrh_map=lrh, m_map=m_map)
    chain = run_chain(settings, model.clone(), prior, m_map, 10, seed=9, chain_id=4)
    assert chain.meta["method"] == "ismap"
    assert (chain.meta["seed"], chain.meta["chain_id"]) == (9, 4)
    assert chain.meta["n"] == prior.n
    assert chain.n_samples == 10


def test_after_burn_in_keeps_the_tail_as_views():
    n = 100
    chain = Chain(samples=np.arange(3.0 * n).reshape(n, 3),
                  accepted=np.ones(n, dtype=bool), log_post=np.zeros(n),
                  cum_solves=np.arange(1, n + 1, dtype=np.int64), meta={"seed": 1})
    whole = chain.after_burn_in(0.0)
    assert whole.n_samples == n
    np.testing.assert_array_equal(whole.samples, chain.samples)
    tail = chain.after_burn_in(0.3)
    assert tail.n_samples == 70
    np.testing.assert_array_equal(tail.samples, chain.samples[30:])
    assert tail.cum_solves[-1] == chain.cum_solves[-1] == n
    for name in ("samples", "accepted", "log_post", "cum_solves"):
        assert np.shares_memory(getattr(tail, name), getattr(chain, name)), name
    assert tail.meta == chain.meta


# -- failure handling -------------------------------------------------------

def test_init_state_rejects_non_finite_start():
    mesh, space, prior, model, _ = make_small_problem()
    settings = SamplerSettings(method="rwmh")
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        init_state(settings, model.clone(), prior, np.full(prior.n, 800.0),
                   np.random.default_rng(0))


class DiskFullModel(LinearGaussianModel):
    """Fails hard after a fixed number of predictions."""

    fail_after = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def predict(self, m):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("synthetic hard failure")
        return super().predict(m)


def test_fatal_error_flushes_partial_chain(tmp_path):
    mesh, space, prior, ref_model, _ = make_small_problem(kind="linear")
    model = DiskFullModel(mesh, space, ref_model.F.copy())
    model.obs = ref_model.obs
    settings = SamplerSettings(method="rwmh", rwmh_sigma=0.01)
    path = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError):
        run_chain(settings, model, prior, prior.mean, 50, seed=0, chain_id=0,
                  flush_path=str(path))
    assert path.exists()
    partial = read_chain(str(path))
    # init consumed one predict, so steps 1..4 completed before the blowup
    assert partial.n_samples == 4
    assert partial.meta["method"] == "rwmh"
    assert partial.meta["partial"] == 1
    # the flushed rows are the first steps of the same chain run to completion
    full = run_chain(settings, ref_model.clone(), prior, prior.mean, 4, seed=0, chain_id=0)
    for name in ("samples", "accepted", "log_post", "cum_solves"):
        got, want = getattr(partial, name), getattr(full, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_settings_validation(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    with pytest.raises(ValueError):
        SamplerSettings(method="hmc")
    with pytest.raises(ValueError):
        SamplerSettings(method="snmap")          # missing MAP inputs
    with pytest.raises(ValueError):
        SamplerSettings(method="ismap", m_map=m_map)
    SamplerSettings(method="ismap", m_map=m_map, lrh_map=lrh)  # fine


# -- start-point selection ---------------------------------------------------

def test_select_start_points_greedy_maximin(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    rng = np.random.default_rng(21)
    pilot = prior.mean + 0.3 * space.white_noise(rng, size=40)
    pts, idx = select_start_points(pilot, 6, space)

    # direct O(N^2) replication of the greedy rule
    def d2(u, v):
        w = u - v
        return space.inner(w, w)

    mean = pilot.mean(axis=0)
    expect = [int(np.argmax([d2(x, mean) for x in pilot]))]
    while len(expect) < 6:
        best, best_d = None, -1.0
        for i in range(40):
            if i in expect:
                continue
            di = min(d2(pilot[i], pilot[j]) for j in expect)
            if di > best_d:
                best, best_d = i, di
        expect.append(best)
    assert idx.tolist() == expect
    assert len(set(idx.tolist())) == 6
    np.testing.assert_array_equal(pts, pilot[idx])


def test_select_start_points_edge_cases(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    pilot = prior.mean + 0.1 * space.white_noise(np.random.default_rng(2), size=8)
    pts, idx = select_start_points(pilot, 8, space)
    assert sorted(idx.tolist()) == list(range(8))
    with pytest.raises(ValueError):
        select_start_points(pilot, 0, space)
    with pytest.raises(ValueError):
        select_start_points(pilot, 9, space)


# -- posterior moments on the collapsed Gaussian case ------------------------

def test_snmap_reproduces_analytic_gaussian_moments(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method="snmap", r=10, l=5,
                               lrh_map=lrh, m_map=m_map)
    pooled = np.vstack([
        run_chain(settings, model.clone(), prior, m_map, 5000,
                  seed=17, chain_id=c).samples
        for c in range(4)
    ])

    # analytic posterior in nodal coordinates
    F, sigma = model.F, model.obs.sigma[0]
    P = prior.K.dense() + F.T @ F / sigma**2
    C = np.linalg.inv(P)
    mu = C @ (prior.K.matvec(prior.mean) + F.T @ model.obs.y_obs / sigma**2)

    mean_err = np.abs(pooled.mean(axis=0) - mu) / np.sqrt(prior.pointwise_variance())
    assert mean_err.max() < 0.05
    C_emp = np.cov(pooled.T)
    rel = np.linalg.norm(C_emp - C, 2) / np.linalg.norm(C, 2)
    assert rel < 0.15
