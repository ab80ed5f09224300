"""MH kernels: proposal densities, acceptance behavior, reproducibility,
solve-cost accounting, start-point selection."""

import logging
import math

import numpy as np
import pytest

from hessmc import lowrank, samplers
from hessmc.chain_io import read_chain
from hessmc.errors import NumericalError
from hessmc.fem import Tridiagonal
from hessmc.lowrank import LowRankHessian
from hessmc.map_point import solve_map
from hessmc.models import LinearGaussianModel, gradient
from hessmc.samplers import (Chain, ChainStates, SamplerSettings, evaluate, init_states,
                             log_q_pair, mh_step, run_chain, run_chains, select_start_points)

from conftest import build_one, failing_dstemr, make_small_problem, white_noise


def tight_map_setup(kind="linear", n=35, q=6, r=10, l=5):
    mesh, space, prior, model, m_true = make_small_problem(n=n, q=q, kind=kind)
    res = solve_map(model.clone(), prior, grad_tol_rel=1e-10, cg_rtol=1e-12)
    lrh = build_one(model.clone(), prior, res.m_map, r, l,
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


# -- proposal densities -----------------------------------------------------

def test_log_q_contracts(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    rng = np.random.default_rng(0)
    a = m_map + 0.1 * white_noise(space, rng)
    b = m_map + 0.1 * white_noise(space, rng)

    def at(method, m):
        settings = SamplerSettings(method=method, r=10, l=5, lrh_map=lrh, m_map=m_map)
        states, errors = evaluate(settings, [model.clone()], prior, m[None],
                                  [np.random.default_rng(1)])
        assert not errors
        return settings, states

    def log_q(at_state, point):
        """log q(state -> point): the forward term of log_q_pair."""
        settings, state = at_state
        target = ChainStates(point[None], [0.0], state.lrhs, state.mean, state.half_logdet)
        return log_q_pair(settings, state, target)[1][0]

    # ismap: independent of the current state
    sa, sb = at("ismap", a), at("ismap", b)
    assert log_q(sa, b) == log_q(sb, b)
    assert log_q(sa, m_map) == 0.0

    # snmap: no determinant factor, centred on the state's Newton point
    za = at("snmap", a)
    assert za[1].lrhs[0] is lrh and za[1].half_logdet == [0.0]
    newton = a - lrh.apply_inv(gradient(model.clone(), prior, a))
    np.testing.assert_allclose(za[1].mean[0], newton, rtol=1e-12, atol=1e-12)
    assert log_q(za, b) == pytest.approx(-0.5 * lrh.quad(b - za[1].mean[0]), rel=1e-12)
    assert log_q(za, za[1].mean[0]) == 0.0

    # sn additionally carries the determinant of its own local Hessian
    za_sn = at("sn", a)
    own = za_sn[1].lrhs[0]
    assert own is not lrh and own.rank > 0
    assert za_sn[1].half_logdet == [own.half_logdet_rel()] and own.half_logdet_rel() > 0.0
    assert log_q(za_sn, za_sn[1].mean[0]) == own.half_logdet_rel()

    # the reverse term is the same density seen from the candidate
    state, cand = at("snmap", a)[1], at("snmap", b)[1]
    reverse, forward = log_q_pair(za[0], state, cand)
    assert reverse[0] == log_q((za[0], cand), a)
    assert forward[0] == log_q((za[0], state), b)


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
    # independence draws from the prior's spread around the MAP, rank 0:
    # the data-informed eigenvalues reach 1.9e3, so every proposal lands
    # in the far tail of this posterior
    prior_only = LowRankHessian(prior=prior, m_ref=m_map, Z=np.zeros((prior.n, 0)),
                                lam=np.zeros(0))
    settings = SamplerSettings(method="ismap", lrh_map=prior_only, m_map=m_map)
    chain = run_chain(settings, model.clone(), prior, m_map, 50, seed=0, chain_id=0)
    assert chain.acceptance_rate == 0.0
    for k in range(50):
        np.testing.assert_array_equal(chain.samples[k], m_map)
    assert chain.log_post.min() == chain.log_post.max()


def test_newton_proposals_draw_plain_normals(linear_map):
    # ismap/snmap/sn map n ~ N(0, I) through C^{-1} (I + Z E Z^T); a step
    # takes n normals, then one uniform
    mesh, space, prior, model, m_map, lrh = linear_map
    for method in ("ismap", "snmap"):
        settings = SamplerSettings(method=method, lrh_map=lrh, m_map=m_map)
        rng, worker = np.random.default_rng(21), model.clone()
        states = init_states(settings, [worker], prior, [m_map], [rng])
        mh_step(settings, states, [worker], prior, [rng])
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
    lrh = build_one(model.clone(), prior, res.m_map, 4, 2,
                    np.random.default_rng(1))
    expected = {"ismap": 1, "snmap": 2, "sn": 2 + 2 * (4 + 2)}
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
    settings = SamplerSettings(method="sn", r=4, l=2)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        init_states(settings, [model.clone()], prior, [np.full(prior.n, 800.0)],
                    [np.random.default_rng(0)])


class DiskFullModel(LinearGaussianModel):
    """Fails hard after a fixed number of point evaluations (calls of the
    stacked misfit that include the worker)."""

    fail_after = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        for w in workers:
            w.calls += 1
            if w.calls > w.fail_after:
                raise RuntimeError("synthetic hard failure")
        return super().stacked_misfit(workers, points, adjoint)


def test_fatal_error_flushes_partial_chain(tmp_path):
    mesh, space, prior, ref_model, _ = make_small_problem(kind="linear")
    model = DiskFullModel(mesh, space, ref_model.F.copy())
    model.obs = ref_model.obs
    settings = SamplerSettings(method="sn", r=4, l=2)
    path = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError):
        run_chain(settings, model, prior, prior.mean, 50, seed=0, chain_id=0,
                  flush_path=str(path))
    assert path.exists()
    partial = read_chain(str(path))
    # a state takes one evaluation: init consumed one, so steps 1..4
    # completed before the blowup
    assert partial.n_samples == 4
    assert partial.meta["method"] == "sn"
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


# -- lockstep campaigns ------------------------------------------------------

CHAIN_FIELDS = ("samples", "accepted", "log_post", "cum_solves")


def assert_same_bytes(got, want):
    for name in CHAIN_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module", params=["exp_reaction", "linear"])
def campaign_setup(request):
    """A small problem, its MAP and low-rank Hessian there, and three
    dispersed starts. The exp prior is ten times stronger than the default,
    so that every method accepts some steps; the linear problem has 6
    observations and r + l = 12, so every sn build there deflates."""
    kind = request.param
    r, l = (4, 2) if kind == "exp_reaction" else (8, 4)
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind, a=0.1, b=1e3)
    m_map = solve_map(model.clone(), prior).m_map
    lrh = build_one(model.clone(), prior, m_map, r, l, np.random.default_rng(7))
    if kind == "linear":
        assert lrh.deflations > 0
    rng = np.random.default_rng(3)
    starts = [m_map + 0.02 * white_noise(space, rng) for _ in range(3)]
    return prior, model, m_map, lrh, starts, r, l


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_lockstep_campaign_matches_chains_run_alone(campaign_setup, method):
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method=method, r=r, l=l, lrh_map=lrh, m_map=m_map)
    ids = [0, 4, 7]
    together = run_chains(settings, [model.clone() for _ in ids], prior, starts, 12,
                          seed=5, chain_ids=ids)
    for chain, start, cid in zip(together, starts, ids):
        alone = run_chain(settings, model.clone(), prior, start, 12, seed=5, chain_id=cid)
        assert_same_bytes(chain, alone)
        assert chain.meta == alone.meta
    assert any(chain.accepted.any() for chain in together)


def test_groups_under_the_budget_give_the_same_bytes(campaign_setup, monkeypatch):
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method="sn", r=r, l=l)
    one_group = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                           seed=2, chain_ids=[0, 1, 2])
    # room for the stacked Krylov bases of two chains: groups {0, 1} and {2}
    monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_VALUES", 2 * (r + l) * prior.n)
    calls = []
    build = samplers.build_lowrank
    monkeypatch.setattr(samplers, "build_lowrank",
                        lambda workers, *args: calls.append(len(workers)) or build(workers, *args))
    grouped = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                         seed=2, chain_ids=[0, 1, 2])
    assert sorted(set(calls)) == [1, 2]
    for a, b in zip(grouped, one_group):
        assert_same_bytes(a, b)


class FailingModel(LinearGaussianModel):
    """Fails with a NumericalError at the point evaluations (calls of the
    stacked misfit that include the worker) numbered in ``fail_at``."""

    def __init__(self, model, fail_at=()):
        super().__init__(model.mesh, model.space, model.F)
        self.obs = model.obs
        self.fail_at, self.calls = set(fail_at), 0

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        misfit, raw, errors = super().stacked_misfit(workers, points, adjoint)
        for i, w in enumerate(workers):
            w.calls += 1
            if w.calls in w.fail_at:
                errors[i] = NumericalError("synthetic solver failure")
                misfit[i] = np.nan
                if raw is not None:
                    raw[i] = np.nan
        return misfit, raw, errors


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_a_failed_candidate_rejects_only_its_chains_step(linear_map, method, caplog):
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method=method, r=10, l=5, lrh_map=lrh, m_map=m_map)
    # a state takes one evaluation, the start included: chain 1 fails at
    # the candidates of steps 4 and 8
    fail_at = (5, 9)
    make = [lambda: FailingModel(model), lambda: FailingModel(model, fail_at),
            lambda: FailingModel(model)]
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        together = run_chains(settings, [m() for m in make], prior, [m_map] * 3, 10,
                              seed=8, chain_ids=[0, 1, 2])
    assert caplog.text.count("(synthetic solver failure); step rejected") == 2
    for cid, (chain, m) in enumerate(zip(together, make)):
        assert_same_bytes(chain, run_chain(settings, m(), prior, m_map, 10, seed=8,
                                           chain_id=cid))
    assert together[1].accepted.sum() == together[0].accepted.sum() - 2


class ZeroWindow:
    """A generator whose first four standard normals after its third
    uniform are zero: the fourth step's proposal noise, then its Lanczos
    start vector and the two restarts, which find no direction."""

    def __init__(self, rng):
        self.rng, self.uniforms, self.zeros = rng, 0, 0

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.uniforms == 3 and self.zeros < 4:
            self.zeros += 1
            out *= 0.0
        return out

    def uniform(self):
        self.uniforms += 1
        return self.rng.uniform()


def test_a_lanczos_restart_failure_rejects_only_its_chains_step(campaign_setup, caplog,
                                                                 monkeypatch):
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method="sn", r=r, l=l)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: ZeroWindow(default_rng(key))
                        if list(key)[1] == 1 else default_rng(key))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        together = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                              seed=4, chain_ids=[0, 1, 2])
    assert caplog.text.count("could not find a new direction") == 1
    assert not together[1].accepted[3]
    for cid, (chain, start) in enumerate(zip(together, starts)):
        assert_same_bytes(chain, run_chain(settings, model.clone(), prior, start, 8,
                                           seed=4, chain_id=cid))


def test_a_lockstep_tridiagonal_failure_rejects_only_its_chains_step(campaign_setup, caplog,
                                                                      monkeypatch):
    # one eigensolve per chain and state, in chain order: chain 1's at its
    # fourth candidate is call 3 + 3 * 3 + 1 of the campaign, and call
    # 1 + 3 of the chain run alone
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method="sn", r=r, l=l)
    alone = [run_chain(settings, model.clone(), prior, start, 8, seed=4, chain_id=cid)
             for cid, start in enumerate(starts)]
    monkeypatch.setattr(lowrank, "dstemr", failing_dstemr({13}))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        together = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                              seed=4, chain_ids=[0, 1, 2])
    assert caplog.text.count("failed with info 2); step rejected") == 1
    assert not together[1].accepted[3]
    monkeypatch.setattr(lowrank, "dstemr", failing_dstemr({4}))
    alone[1] = run_chain(settings, model.clone(), prior, starts[1], 8, seed=4, chain_id=1)
    for chain, ref in zip(together, alone):
        assert_same_bytes(chain, ref)


class ConstantWindow:
    """A generator whose normals after its third uniform, the fourth step's
    proposal noise, are all ``value``."""

    def __init__(self, rng, value):
        self.rng, self.value, self.uniforms, self.done = rng, value, 0, False

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.uniforms == 3 and not self.done:
            self.done = True
            out[...] = self.value
        return out

    def uniform(self):
        self.uniforms += 1
        return self.rng.uniform()


@pytest.mark.parametrize("method, failure", [
    ("ismap", "overflow"), ("snmap", "overflow"), ("sn", "overflow"),
    ("ismap", "indefinite"), ("snmap", "indefinite")])
def test_a_failed_stacked_factorisation_rejects_only_its_chains_step(method, failure, caplog,
                                                                    monkeypatch):
    # chain 1's fourth candidate overflows exp(m), or makes the operator of
    # an exp model shifted by -0.01 I indefinite, inside the one stacked
    # factorisation of the three candidates. (sn's own Hessian at a chain
    # state can map the constant noise of the indefinite case to a modest
    # candidate, so that case runs with the MAP Hessian's methods.)
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, a=0.1, b=1e3)
    m_map = solve_map(model.clone(), prior).m_map
    lrh = build_one(model.clone(), prior, m_map, 4, 2, np.random.default_rng(7))
    rng = np.random.default_rng(3)
    starts = [m_map + 0.02 * white_noise(space, rng) for _ in range(3)]
    value, message = 1e4, "non-finite entries"
    if failure == "indefinite":
        value, message = -1e4, "not positive definite"
        shift = Tridiagonal(np.full(prior.n, -0.01), np.zeros(prior.n - 1))
        model.K0 = model.K0 + shift
    settings = SamplerSettings(method=method, r=4, l=2, lrh_map=lrh, m_map=m_map)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: ConstantWindow(default_rng(key), value)
                        if list(key)[1] == 1 else default_rng(key))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"), np.errstate(over="ignore"):
        together = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                              seed=4, chain_ids=[0, 1, 2])
        alone = [run_chain(settings, model.clone(), prior, start, 8, seed=4, chain_id=cid)
                 for cid, start in enumerate(starts)]
    assert caplog.text.count(message) == 2 and caplog.text.count("step rejected") == 2
    assert not together[1].accepted[3]
    for chain, ref in zip(together, alone):
        assert_same_bytes(chain, ref)


def test_fatal_error_flushes_every_chain_of_the_campaign(tmp_path):
    mesh, space, prior, ref_model, _ = make_small_problem(kind="linear")
    settings = SamplerSettings(method="sn", r=4, l=2)
    # the stacked misfit is the workers' class method: every worker is a
    # DiskFullModel, and only chain 1's fails
    workers = [DiskFullModel(mesh, space, ref_model.F.copy()) for _ in range(3)]
    for w in workers:
        w.obs = ref_model.obs
    workers[0].fail_after = workers[2].fail_after = math.inf
    paths = [str(tmp_path / f"chain_{cid}.csv") for cid in range(3)]
    with pytest.raises(RuntimeError):
        run_chains(settings, workers, prior, [prior.mean] * 3, 50, seed=0,
                   chain_ids=[0, 1, 2], flush_paths=paths)
    for cid, path in enumerate(paths):
        partial = read_chain(path)
        # the failing chain completed 4 steps (see above), and so did the others
        assert partial.n_samples == 4
        assert partial.meta["partial"] == 1 and partial.meta["chain_id"] == cid
        assert_same_bytes(partial, run_chain(settings, ref_model.clone(), prior,
                                             prior.mean, 4, seed=0, chain_id=cid))


# -- start-point selection ---------------------------------------------------

def test_select_start_points_greedy_maximin(linear_map):
    mesh, space, prior, model, m_map, lrh = linear_map
    rng = np.random.default_rng(21)
    pilot = prior.mean + 0.3 * white_noise(space, rng, size=40)
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
    pilot = prior.mean + 0.1 * white_noise(space, np.random.default_rng(2), size=8)
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
