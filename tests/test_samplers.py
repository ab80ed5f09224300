"""MH kernels: proposal densities, acceptance behavior, reproducibility,
solve-cost accounting, start-point selection."""

import logging
import math

import numpy as np
import pytest

from hessmc import lowrank, pipeline, samplers
from hessmc.chain_io import read_chain
from hessmc.config import RunConfig
from hessmc.errors import NumericalError
from hessmc.fem import Tridiagonal
from hessmc.lowrank import LowRankHessian
from hessmc.map_point import solve_map
from hessmc.models import ForwardModel, LinearGaussianModel, SolveCounter, gradient
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
    prior_only = LowRankHessian(prior=prior, Z=np.zeros((prior.n, 0)), lam=np.zeros(0))
    settings = SamplerSettings(method="ismap", lrh_map=prior_only, m_map=m_map)
    chain = run_chain(settings, model.clone(), prior, m_map, 50, seed=0, chain_id=0)
    assert chain.acceptance_rate == 0.0
    for k in range(50):
        np.testing.assert_array_equal(chain.samples[k], m_map)
    assert chain.log_post.min() == chain.log_post.max()


def test_newton_proposals_draw_plain_normals(linear_map):
    # ismap/snmap/sn map n ~ N(0, I) through C^{-1} (I + Z E Z^T); a step
    # takes n normals, for sn one integer key (its build draws from the
    # key's generator, not from the chain's stream), then one uniform
    mesh, space, prior, model, m_map, lrh = linear_map
    for method in ("ismap", "snmap", "sn"):
        settings = SamplerSettings(method=method, r=10, l=5, lrh_map=lrh, m_map=m_map)
        rng, worker = np.random.default_rng(21), model.clone()
        states = init_states(settings, [worker], prior, [m_map], [rng])
        ref = np.random.default_rng()
        ref.bit_generator.state = rng.bit_generator.state
        mh_step(settings, states, [worker], prior, [rng])
        ref.standard_normal(prior.n)
        if method == "sn":
            ref.integers(1 << 63)
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
    """Fails hard after a fixed number of point evaluations (rows of the
    stacked misfit at the worker or at its clones, which share the count)."""

    fail_after = 5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = [0]

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        for w in workers:
            w.calls[0] += 1
            if w.calls[0] > w.fail_after:
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
    # a candidate takes one evaluation, and this chain rejects, so its
    # stacked calls evaluate 1, 2, then 4 steps ahead: init consumed one
    # and steps 1..3 three more, and the sixth, in the call of steps 4..7,
    # blows up, so steps 1..3 completed
    assert partial.n_samples == 3
    assert partial.meta["method"] == "sn"
    assert partial.meta["partial"] == 1
    # the flushed rows are the first steps of the same chain run to completion
    full = run_chain(settings, ref_model.clone(), prior, prior.mean, 3, seed=0, chain_id=0)
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


def small_campaign(kind, r, l, a=0.1, b=1e3):
    """A small problem with 6 observations, its MAP and low-rank Hessian
    there, and three dispersed starts."""
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind, a=a, b=b)
    m_map = solve_map(model.clone(), prior).m_map
    lrh = build_one(model.clone(), prior, m_map, r, l, np.random.default_rng(7))
    rng = np.random.default_rng(3)
    starts = [m_map + 0.02 * white_noise(space, rng) for _ in range(3)]
    return prior, model, m_map, lrh, starts, r, l


@pytest.fixture(scope="module", params=["exp_reaction", "linear"])
def campaign_setup(request):
    """``small_campaign`` with a prior ten times stronger than the default.
    On the exp model every method accepts some steps; the linear problem
    has r + l = 12, so every sn build there deflates."""
    kind = request.param
    setup = small_campaign(kind, *((4, 2) if kind == "exp_reaction" else (8, 4)))
    if kind == "linear":
        assert setup[3].deflations > 0
    return setup


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
    # the start and 8 steps of group {0, 1}, whose share of the budget is
    # one candidate a chain
    assert calls[:9] == [2] * 9
    for a, b in zip(grouped, one_group):
        assert_same_bytes(a, b)


class FailingModel(LinearGaussianModel):
    """Fails with a NumericalError at the point evaluations (rows of the
    stacked misfit at the worker or at its clones, which share the count)
    numbered in ``fail_at``."""

    def __init__(self, model, fail_at=()):
        super().__init__(model.mesh, model.space, model.F)
        self.obs = model.obs
        self.fail_at, self.calls = set(fail_at), [0]

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        misfit, raw, errors = super().stacked_misfit(workers, points, adjoint)
        for i, w in enumerate(workers):
            w.calls[0] += 1
            if w.calls[0] in w.fail_at:
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


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_a_failed_row_rides_along_and_leaves_the_others_their_batch_of_one(linear_map,
                                                                          method):
    # one ``evaluate`` of three candidates whose second fails in the stacked
    # misfit: the failed row keeps its place to the end of the call, with a
    # nan log posterior and, for the Newton methods, a nan mean from its nan
    # gradient (ismap's mean is the MAP at every row); an sn row carries the
    # rank-0 prior Hessian. Every other row is bit for bit its batch of one
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method=method, r=10, l=5, lrh_map=lrh, m_map=m_map)
    noise = np.random.default_rng(6).standard_normal((3, prior.n))
    points = m_map + lrh.fluctuation(noise)
    workers = [FailingModel(model), FailingModel(model, (1,)), FailingModel(model)]
    states, errors = evaluate(settings, workers, prior, points,
                              [np.random.default_rng([6, i]) for i in range(3)])
    assert list(errors) == [1] and "synthetic solver failure" in str(errors[1])
    assert math.isnan(states.log_post[1])
    if method == "ismap":
        assert states.mean[1].tobytes() == m_map.tobytes()
    else:
        assert np.isnan(states.mean[1]).all()
    if method == "sn":
        assert states.lrhs[1].rank == 0 and states.half_logdet[1] == 0.0
    for i in (0, 2):
        worker = FailingModel(model)
        alone, none = evaluate(settings, [worker], prior, points[i:i + 1],
                               [np.random.default_rng([6, i])])
        assert not none
        assert states.log_post[i] == alone.log_post[0]
        assert states.mean[i].tobytes() == alone.mean[0].tobytes()
        assert states.half_logdet[i] == alone.half_logdet[0]
        assert states.lrhs[i].Z.tobytes() == alone.lrhs[0].Z.tobytes()
        assert states.lrhs[i].lam.tobytes() == alone.lrhs[0].lam.tobytes()
        assert workers[i].counter.total == worker.counter.total


class Window:
    """A generator that counts its uniforms; ``keys`` holds the sn step keys
    it marked (none here)."""

    keys = frozenset()

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self):
        self.uniforms += 1
        return self.rng.random()


class ZeroWindow(Window):
    """A generator whose first four standard normals after its third (or
    ``after``-th) uniform are zero. On a chain's stream that is the fourth
    (next) step's proposal noise, and the window marks the key the step
    draws; on the generator of that key (``through_window``) they are the
    candidate's Lanczos start vector and its two restarts, which find no
    direction."""

    def __init__(self, rng, after=3):
        super().__init__(rng)
        self.after, self.zeros, self.keys = after, 0, set()

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.uniforms == self.after and self.zeros < 4:
            self.zeros += 1
            out *= 0.0
        return out

    def integers(self, *args):
        key = self.rng.integers(*args)
        if self.uniforms == self.after:
            self.keys.add(int(key))
        return key


class Counted(Window):
    """A generator that counts the draws of its standard normals."""

    def __init__(self, rng):
        super().__init__(rng)
        self.normals = 0

    def standard_normal(self, *args, **kwargs):
        self.normals += 1
        return self.rng.standard_normal(*args, **kwargs)


def through_window(monkeypatch, window):
    """Make ``np.random.default_rng`` pass chain 1's stream, keyed by
    (seed, 1), through ``window``, and the generator seeded by a step key
    that a window marked through a ``ZeroWindow`` from its first normal."""
    default_rng, windows = np.random.default_rng, []

    def rng(key):
        if np.ndim(key) == 0:
            marked = any(int(key) in w.keys for w in windows)
            return ZeroWindow(default_rng(key), after=0) if marked else default_rng(key)
        if list(key)[1] != 1:
            return default_rng(key)
        windows.append(window(default_rng(key)))
        return windows[-1]
    monkeypatch.setattr(np.random, "default_rng", rng)


def test_a_lanczos_restart_failure_rejects_only_its_chains_step(campaign_setup, caplog,
                                                                 monkeypatch):
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method="sn", r=r, l=l)
    through_window(monkeypatch, ZeroWindow)
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
    # one eigensolve per start and candidate, chain after chain in each
    # stacked call. On the linear model every step accepts, and each call
    # holds one step of each chain: chain 1's fourth candidate is call
    # 3 + 3 * 3 + 1 of the campaign. On the exp model every step rejects,
    # and the calls hold 1, 2 and 4 steps of each chain: it is the first of
    # chain 1's four in the third call, 3 + 3 * (1 + 2) + 4. Run alone, it
    # is call 1 + 3 on both
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method="sn", r=r, l=l)
    alone = [run_chain(settings, model.clone(), prior, start, 8, seed=4, chain_id=cid)
             for cid, start in enumerate(starts)]
    linear = isinstance(model, LinearGaussianModel)
    assert [ch.depths[:3] for ch in alone] == [[1, 1, 1] if linear else [1, 2, 4]] * 3
    monkeypatch.setattr(lowrank, "dstemr", failing_dstemr({13 if linear else 16}))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        together = run_chains(settings, [model.clone() for _ in starts], prior, starts, 8,
                              seed=4, chain_ids=[0, 1, 2])
    assert caplog.text.count("failed with info 2); step rejected") == 1
    assert not together[1].accepted[3]
    monkeypatch.setattr(lowrank, "dstemr", failing_dstemr({4}))
    alone[1] = run_chain(settings, model.clone(), prior, starts[1], 8, seed=4, chain_id=1)
    for chain, ref in zip(together, alone):
        assert_same_bytes(chain, ref)


class ConstantWindow(Window):
    """A generator whose normals after its third uniform, the fourth step's
    proposal noise, are all ``value``."""

    def __init__(self, rng, value):
        super().__init__(rng)
        self.value, self.done = value, False

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.uniforms == 3 and not self.done:
            self.done = True
            out[...] = self.value
        return out


@pytest.mark.parametrize("method, failure", [
    ("ismap", "overflow"), ("snmap", "overflow"), ("sn", "overflow"),
    ("ismap", "indefinite"), ("snmap", "indefinite")])
def test_a_failed_stacked_factorisation_rejects_only_its_chains_step(method, failure, caplog,
                                                                    monkeypatch):
    # chain 1's fourth candidate overflows exp(m), or makes the operator of
    # an exp model shifted by -0.01 I indefinite, inside the one stacked
    # factorisation of the candidates evaluated with it: the step's three
    # (snmap, sn), or all 24 of ismap's block of eight steps drawn ahead.
    # (sn's own Hessian at a chain state can map the constant noise of the
    # indefinite case to a modest candidate, so that case runs with the
    # MAP Hessian's methods.)
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
    through_window(monkeypatch, lambda rng: ConstantWindow(rng, value))
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
        # the failing chain completed 3 steps (see above), and so did the others
        assert partial.n_samples == 3
        assert partial.meta["partial"] == 1 and partial.meta["chain_id"] == cid
        assert_same_bytes(partial, run_chain(settings, ref_model.clone(), prior,
                                             prior.mean, 3, seed=0, chain_id=cid))


# -- blocks drawn ahead -------------------------------------------------------

def step_at_a_time(settings, workers, prior, starts, n_samples, seed, chain_ids):
    """The chains from the ``mh_step`` kernel taking one step at a time,
    drawing each step's proposals and uniforms as it takes it; each row's
    cum_solves is read from its worker's solve ledger after the step."""
    rngs = [np.random.default_rng([seed, cid]) for cid in chain_ids]
    states = init_states(settings, workers, prior, starts, rngs)
    steps = []
    for _ in range(n_samples):
        states, accepted = mh_step(settings, states, workers, prior, rngs)
        steps.append((states.m, accepted, states.log_post, [w.counter.total for w in workers]))
    return [Chain(samples=np.array([s[0][j] for s in steps]),
                  accepted=np.array([s[1][j] for s in steps]),
                  log_post=np.array([s[2][j] for s in steps]),
                  cum_solves=np.array([s[3][j] for s in steps], dtype=np.int64))
            for j in range(len(workers))]


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_blocks_drawn_ahead_match_the_step_at_a_time_kernel(campaign_setup, method, caplog,
                                                            monkeypatch):
    prior, model, m_map, lrh, starts, r, l = campaign_setup
    settings = SamplerSettings(method=method, r=r, l=l, lrh_map=lrh, m_map=m_map)
    linear = isinstance(model, LinearGaussianModel)
    if linear:
        # chain 1's candidates at steps 4 and 14 fail, one in each block;
        # every sn build there deflates
        make = [lambda: FailingModel(model), lambda: FailingModel(model, (5, 15)),
                lambda: FailingModel(model)]
        message, failures = "(synthetic solver failure); step rejected", 2
    else:
        # chain 1's fourth candidate overflows exp(m): its operator cannot
        # be factored, and the step costs no solve
        make = [model.clone] * 3
        message, failures = "non-finite entries", 1
        through_window(monkeypatch, lambda rng: ConstantWindow(rng, 1e4))
    # one group of the three chains, in blocks of r + l steps: 12 and 8
    # steps on the linear model, 6, 6, 6 and 2 on the exp model; the MAP
    # Hessian's fluctuations of a block are one call
    monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_VALUES", 3 * (r + l) * prior.n)
    sizes, rows = [], []
    draw, fluctuation = samplers._draw_ahead, LowRankHessian.fluctuation
    monkeypatch.setattr(samplers, "_draw_ahead",
                        lambda *args: sizes.append(args[-1]) or draw(*args))
    monkeypatch.setattr(LowRankHessian, "fluctuation",
                        lambda lrh, n: rows.append(len(n)) or fluctuation(lrh, n))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"), np.errstate(over="ignore"):
        blocks = run_chains(settings, [m() for m in make], prior, starts, 20, seed=4,
                            chain_ids=[0, 1, 2])
        assert caplog.text.count(message) == failures
        steps = step_at_a_time(settings, [m() for m in make], prior, starts, 20, 4, [0, 1, 2])
    starts_of_blocks = range(0, 20, r + l)
    assert sizes[:len(starts_of_blocks)] == [min(r + l, 20 - k) for k in starts_of_blocks]
    if method != "sn":
        assert rows[:len(starts_of_blocks)] == [3 * min(r + l, 20 - k) for k in starts_of_blocks]
    assert not blocks[1].accepted[3]
    if not linear:
        assert blocks[1].cum_solves[3] == blocks[1].cum_solves[2]
    for got, want in zip(blocks, steps):
        assert_same_bytes(got, want)
    assert any(chain.accepted.any() for chain in blocks)


def test_fatal_error_in_an_ismap_block_flushes_the_completed_blocks(tmp_path, monkeypatch):
    mesh, space, prior, ref_model, _ = make_small_problem(kind="linear")
    m_map = solve_map(ref_model.clone(), prior).m_map
    lrh = build_one(ref_model.clone(), prior, m_map, 4, 2, np.random.default_rng(7))
    settings = SamplerSettings(method="ismap", r=1, l=1, lrh_map=lrh, m_map=m_map)
    # one group of the three chains, in blocks of two steps
    monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_VALUES", 3 * 2 * prior.n)
    workers = [DiskFullModel(mesh, space, ref_model.F.copy()) for _ in range(3)]
    for w in workers:
        w.obs = ref_model.obs
    workers[0].fail_after = workers[2].fail_after = math.inf
    workers[1].fail_after = 6
    paths = [str(tmp_path / f"chain_{cid}.csv") for cid in range(3)]
    with pytest.raises(RuntimeError):
        run_chains(settings, workers, prior, [m_map] * 3, 50, seed=0, chain_ids=[0, 1, 2],
                   flush_paths=paths)
    for cid, path in enumerate(paths):
        partial = read_chain(path)
        # chain 1's candidate of step 6 (its seventh evaluation) fails in
        # the block of steps 5 and 6: the two blocks before it are kept,
        # and step 5, in the failed block, is not
        assert partial.n_samples == 4
        assert partial.meta["partial"] == 1 and partial.meta["chain_id"] == cid
        assert_same_bytes(partial, run_chain(settings, ref_model.clone(), prior, m_map, 4,
                                             seed=0, chain_id=cid))


# -- reject-ahead calls (snmap, sn) -------------------------------------------

def discarded(chain):
    """The candidates a chain evaluated ahead and discarded."""
    return sum(chain.depths) - chain.n_samples


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_reject_ahead_calls_match_the_step_at_a_time_kernel(method):
    # on the exp model at ten times the default prior, the chains reject
    # runs of steps (sn's chain 0 its first eight, so its fourth call holds
    # 8 steps) and then accept inside a call, whose later candidates are
    # discarded; every byte is the one-step kernel's. An ismap chain takes
    # its block of 40 steps in one call, and its scan goes on past each
    # acceptance: it discards nothing
    prior, model, m_map, lrh, starts, r, l = small_campaign("exp_reaction", 4, 2)
    settings = SamplerSettings(method=method, r=r, l=l, lrh_map=lrh, m_map=m_map)
    workers = [model.clone() for _ in starts]
    ahead = run_chains(settings, workers, prior, starts, 40, seed=4, chain_ids=[0, 1, 2])
    steps = step_at_a_time(settings, [model.clone() for _ in starts], prior, starts, 40, 4,
                           [0, 1, 2])
    for got, want in zip(ahead, steps):
        assert_same_bytes(got, want)
    if method == "ismap":
        assert [ch.depths for ch in ahead] == [[40]] * 3
        assert all(ch.accepted.sum() > 1 for ch in ahead)
        assert not any(discarded(ch) or ch.discarded_solves for ch in ahead)
    else:
        assert max(max(ch.depths) for ch in ahead) >= (8 if method == "sn" else 4)
        assert any(discarded(ch) > 0 for ch in ahead)
    assert any(ch.accepted.any() for ch in ahead)
    for chain, worker in zip(ahead, workers):
        # a discarded candidate costs what a step costs, counted apart
        cost = 2 + (2 * (r + l) if method == "sn" else 0)
        assert chain.discarded_solves == worker.counter.discarded_solves == cost * discarded(chain)
        assert chain.cum_solves[-1] == worker.counter.total


@pytest.mark.parametrize("method", ["ismap", "snmap", "sn"])
def test_calls_that_can_discard_nothing_clone_no_worker_and_move_no_solve(linear_map,
                                                                         monkeypatch, method):
    # on the linear model with rank r above the data's, snmap and sn accept
    # every step, so every call holds one candidate a chain; ismap takes
    # each block (here of 4, 4 and 2 steps) in one call. No candidate can
    # be discarded, so each is evaluated at its chain's own worker
    mesh, space, prior, model, m_map, lrh = linear_map
    rng = np.random.default_rng(3)
    starts = [m_map + 0.02 * white_noise(space, rng) for _ in range(3)]
    workers = [model.clone() for _ in starts]
    r, l = 10, 5
    if method == "ismap":
        # one group of the three chains (ismap's r + l only sizes the
        # groups), in blocks of four steps
        r, l = 1, 1
        monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_VALUES", 3 * 4 * prior.n)
    settings = SamplerSettings(method=method, r=r, l=l, lrh_map=lrh, m_map=m_map)
    calls = []
    clone, absorb = ForwardModel.clone, SolveCounter.absorb
    monkeypatch.setattr(ForwardModel, "clone",
                        lambda self: calls.append("clone") or clone(self))
    monkeypatch.setattr(SolveCounter, "absorb",
                        lambda self, *args, **kw: calls.append("absorb") or absorb(self, *args,
                                                                                   **kw))
    chains = run_chains(settings, workers, prior, starts, 10, seed=3, chain_ids=[0, 1, 2])
    assert calls == []
    for chain, worker in zip(chains, workers):
        assert chain.depths == ([4, 4, 2] if method == "ismap" else [1] * 10)
        assert chain.discarded_solves == worker.counter.discarded_solves == 0
        assert chain.cum_solves[-1] == worker.counter.total
        assert method == "ismap" or chain.accepted.all()


def test_a_failed_candidate_inside_an_sn_reject_ahead_call(caplog):
    # the linear problem at the default prior with r = 4 below its data
    # rank rejects every step, in calls of 1, 2, 4, ... steps. Chain 1's
    # sixth evaluation, its fifth candidate, fails in the call of steps
    # 4..7: it builds nothing, and the call still runs to its end, since
    # the builds after it draw from their own steps' keys
    prior, model, m_map, lrh, starts, r, l = small_campaign("linear", 4, 2, a=1e-2, b=1e2)
    settings = SamplerSettings(method="sn", r=r, l=l)
    make = [lambda: FailingModel(model), lambda: FailingModel(model, (6,)),
            lambda: FailingModel(model)]
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        ahead = run_chains(settings, [m() for m in make], prior, starts, 20, seed=4,
                           chain_ids=[0, 1, 2])
        assert caplog.text.count("(synthetic solver failure); step rejected") == 1
        steps = step_at_a_time(settings, [m() for m in make], prior, starts, 20, 4, [0, 1, 2])
    for got, want in zip(ahead, steps):
        assert_same_bytes(got, want)
    assert [ch.depths for ch in ahead] == [[1, 2, 4, 8, 5]] * 3
    assert not any(ch.accepted.any() or discarded(ch) for ch in ahead)


def test_a_lanczos_restart_inside_an_sn_reject_ahead_call(caplog, monkeypatch):
    # chain 1 rejects every step, and the normals after its fourth uniform
    # are zero: step 5, the second of its call of steps 4..7, proposes the
    # mean, and its build, on the generator of that step's key, finds no
    # start vector in three draws. That build drew three vectors, not one,
    # and the call still runs to its end
    prior, model, m_map, lrh, starts, r, l = small_campaign("exp_reaction", 4, 2)
    settings = SamplerSettings(method="sn", r=r, l=l)
    through_window(monkeypatch, lambda rng: ZeroWindow(rng, after=4))
    with caplog.at_level(logging.WARNING, logger="hessmc.samplers"):
        ahead = run_chains(settings, [model.clone() for _ in starts], prior, starts, 20,
                           seed=4, chain_ids=[0, 1, 2])
        assert caplog.text.count("could not find a new direction") == 1
        steps = step_at_a_time(settings, [model.clone() for _ in starts], prior, starts, 20,
                               4, [0, 1, 2])
    for got, want in zip(ahead, steps):
        assert_same_bytes(got, want)
    assert ahead[1].depths == [1, 2, 4, 8, 5] and not ahead[1].accepted.any()
    assert discarded(ahead[1]) == 0


@pytest.mark.parametrize("seed", [4, 5])
def test_deflating_builds_in_reject_ahead_calls_keep_the_stream_order(seed, monkeypatch):
    # r = 4 is below the data rank 6 and r + l = 8 above it: the builds
    # deflate and draw several start vectors each, not all the same number.
    # Each draws from its own step's key, so no call ends at a build that
    # drew another number: the chains reject every step, in calls of 1, 2,
    # 4, ... steps, and discard nothing
    prior, model, m_map, lrh, starts, r, l = small_campaign("linear", 4, 4, a=1e-2, b=1e2)
    assert lrh.deflations > 0
    settings = SamplerSettings(method="sn", r=r, l=l)
    keyed, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: default_rng(key) if np.ndim(key)
                        else keyed.append(Counted(default_rng(key))) or keyed[-1])
    ahead = run_chains(settings, [model.clone() for _ in starts], prior, starts, 40,
                       seed=seed, chain_ids=[0, 1, 2])
    assert len({g.normals for g in keyed}) > 1
    assert [ch.depths for ch in ahead] == [[1, 2, 4, 8, 16, 9]] * 3
    assert not any(ch.accepted.any() or discarded(ch) for ch in ahead)
    steps = step_at_a_time(settings, [model.clone() for _ in starts], prior, starts, 40,
                           seed, [0, 1, 2])
    for got, want in zip(ahead, steps):
        assert_same_bytes(got, want)


def test_reject_ahead_at_the_exp_pipeline_settings(monkeypatch):
    # the pinned prior, a 200-step snmap pilot and three sn chains of 60
    # steps: nothing is accepted, so the pilot and the campaign take calls
    # of 1, 2, 4, ... steps up to the budget's 25 a chain, and neither
    # discards a candidate. The pilot picks the one-step kernel's starts,
    # and the campaign makes 8 builds (the starts' and 7 calls) where one
    # step at a time makes 61
    cfg = RunConfig({"run.chains": 3, "run.samples": 60, "pilot.samples": 200,
                     "run.seed": 7})
    problem = pipeline.build_problem(cfg)
    m_map = pipeline.stage_map(problem)[0].m_map
    lrh = pipeline.stage_lowrank(problem, m_map)[0]
    pilot, starts, info = pipeline.stage_pilot(problem, m_map, lrh)
    assert info["reject_ahead"] == {"stacked_calls": 8, "max_depth": 73, "discarded": 0,
                                    "discarded_solves": 0}
    settings = pipeline.sampler_settings(cfg, "snmap", lrh, m_map)
    (one,) = step_at_a_time(settings, [problem.model.clone()], problem.prior, [m_map], 200,
                            7, [pipeline.PILOT_CHAIN_ID])
    assert_same_bytes(pilot, one)
    assert starts.tobytes() == select_start_points(one.samples, 3, problem.space)[0].tobytes()

    settings = pipeline.sampler_settings(cfg, "sn", lrh, m_map)
    calls = []
    build = samplers.build_lowrank
    monkeypatch.setattr(samplers, "build_lowrank",
                        lambda workers, *args: calls.append(len(workers)) or build(workers, *args))
    ahead = run_chains(settings, [problem.model.clone() for _ in starts], problem.prior,
                       list(starts), 60, 7, [0, 1, 2])
    assert len(calls) <= 8 and calls == [3, 3, 6, 12, 24, 48, 75, 12]
    monkeypatch.undo()
    steps = step_at_a_time(settings, [problem.model.clone() for _ in starts], problem.prior,
                           list(starts), 60, 7, [0, 1, 2])
    for got, want in zip(ahead, steps):
        assert_same_bytes(got, want)
    assert not any(ch.accepted.any() or discarded(ch) for ch in ahead)


@pytest.mark.parametrize("method, tick, lines", [
    ("snmap", 10.0, ["snmap: 3 of 10 chain steps done", "snmap: 6 of 10 chain steps done",
                     "snmap: 9 of 10 chain steps done"]),
    ("ismap", 31.0, [f"ismap: {k} of 10 chain steps done" for k in (4, 8, 10)]),
    ("snmap", 0.0, [])])
def test_a_campaign_logs_its_progress_at_most_every_30_seconds(linear_map, monkeypatch, caplog,
                                                                method, tick, lines):
    # the clock advances ``tick`` seconds a reading: one at the start, then
    # one at each step (snmap) or block (ismap, blocks of four steps here)
    mesh, space, prior, model, m_map, lrh = linear_map
    settings = SamplerSettings(method=method, lrh_map=lrh, m_map=m_map)
    monkeypatch.setattr(samplers, "LOCKSTEP_BLOCK_VALUES", 4 * prior.n)
    readings = iter(np.arange(100) * tick)
    monkeypatch.setattr(samplers, "monotonic", lambda: next(readings))
    with caplog.at_level(logging.INFO, logger="hessmc.samplers"):
        chain = run_chain(settings, model.clone(), prior, m_map, 10, seed=6, chain_id=0)
    assert samplers.PROGRESS_SECONDS == 30.0
    logged = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
    assert [line.split(",")[0] for line in logged] == lines
    for line in logged:
        done = int(line.split()[1])
        assert line.endswith(f"acceptance {chain.accepted[:done].mean():.4f}")


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
