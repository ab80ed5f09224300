"""Metropolis-Hastings samplers with Hessian-preconditioned proposals.

Every method is one kernel. A chain state at m carries the Gaussian
N(mean, H^{-1}) it proposes from, and the methods differ only in where
the mean and the Hessian H come from (``evaluate``):

* ``ismap`` -- independence sampler N(m_map, H_map^{-1}) at every state.
* ``snmap`` -- stochastic Newton with the Hessian frozen at the MAP: the
  mean is the Newton point m - H_map^{-1} g(m).
* ``sn``    -- full stochastic Newton: a fresh low-rank H(m) at every state
  and the mean m - H(m)^{-1} g(m). The position-dependent determinant
  factor exp(half_logdet_rel) is part of its density; for the frozen
  Hessians that factor is state-independent, cancels, and is carried as 0.

Proposal draws are y = mean + H^{-1/2} R^{-1} n with n ~ N(0, I), so the
draw lives in the same M geometry as the density evaluations; with the
low-rank factorization (see ``lowrank``) the R factors cancel and every
proposal of every method is the mean plus ``LowRankHessian.fluctuation``
of the chain's normals,

    y = mean + C^{-1} (I + Z E Z^T) n,

while H^{-1} and the quadratic form of H also come in closed form. The
mean is computed once, when the state is evaluated: it is the mean of the
reverse density when the state is proposed and, once the state is
accepted, the mean of the next proposal and of its forward density, so
each step applies H^{-1} once. Within a step the random stream is
consumed in a fixed order: the proposal noise, for sn one integer key,
then the accept/reject uniform. An sn candidate's build draws its Lanczos
start vector and any fresh directions from a generator seeded by that
key, not from the chain's stream; only a chain's start state, built
before anything is drawn, builds on the stream itself. A rejected step
leaves the state bit-identical, so chains are reproducible from
(seed, chain_id) alone. Every step of a method consumes a fixed count of
its stream, so every chain draws a block of steps ahead in that same
order (``run_chains``). With the MAP Hessian (ismap, snmap) the
fluctuation C^{-1} (I + Z E Z^T) n does not depend on the state, and a
block's normals are transformed when drawn; sn's are transformed at the
state that proposes from them, by its own Hessian.

Since a rejected step leaves the state as it was, a chain that goes on
rejecting knows its next candidates before it tests any of them
(rejection prefetching: Brockwell 2006, Strid 2010). So every method
steps on one engine (``_advance``): one stacked call evaluates each
chain's next candidates from its current state, as if it rejected them
all, and one scan accepts or rejects them in step order. The methods
differ in two facts. First, whether a candidate depends on the state: an
ismap candidate does not, so an acceptance does not end its chain's scan,
and a state's reverse density is the forward one it had as a candidate;
a Newton candidate (snmap, sn) does, so an acceptance ends the scan and
the chain's later candidates are discarded. Second, the depth, the
number of a chain's candidates in a call: an ismap chain's is the rest
of its block of draws, and a Newton chain's is one more than the steps
it has rejected since its last acceptance (1, 2, 4, ...), so a call
discards no more candidates than the steps rejected before it, and none
where a chain never or always accepts. Each step's draws, sn's key among
them, are made before the call, so the steps taken are those of one step
at a time (``mh_step``). A taken candidate's solves are charged once, to
its chain's counter; a discarded one's are counted apart, outside the
counter's total.

Per-step linearized solve costs (exact, enforced by the point caches in
the models): ismap 1, snmap 2, sn 2 + 2(r+l).

A campaign advances all of its chains together (``run_chains``), and
their states are rows of one ``ChainStates``. The candidates of all
chains are evaluated together, and each chain then accepts or rejects
with its own uniforms. The point evaluations of a stacked call are one
stacked forward (and adjoint) solve for all its candidates
(``models.evaluate_points``); for sn the call adds one lockstep
``build_lowrank``, whose band assembly, Hessian actions, whitening
solves, Gram-Schmidt passes and Ritz vectors are each one BLAS/LAPACK
call for all candidates (the Ritz vectors one per rank), and whose Ritz
values come from each candidate's Lanczos tridiagonal. The proposal
algebra (``apply_inv`` and the ``quad`` of both MH directions) is one
call a stacked call on all rows where the chains share the MAP Hessian
(for ismap, one ``quad`` of the candidates and one of the states). On
sn's own Hessians, the Newton means and the reverse forms of a call's
candidates are one call per rank, on their stacked Hessian
(``lowrank.stacked``), and a forward form is one call per chain, on its
state Hessian; the MAP Hessian's fluctuations are one call a block, and
sn's one call per chain and stacked call. Each chain keeps its own
worker model, solve counter and (seed, chain_id) stream, and the stacked
calls do not mix chains, so a chain's rows and ``cum_solves`` are
bit-identical to those of the chain run alone, whatever the number of
chains beside it; ``run_chain`` is the driver with one chain, the batch
of one. The per-step solve ledger above is unchanged. A solver failure
at one chain's candidate rejects only that chain's step: the failed row
rides along to the end of every stacked call it is in, with a nan log
posterior (and, for the Newton methods, a nan mean from its nan
gradient), which no Metropolis-Hastings test passes. A fatal error
ends the campaign: every chain's rows so far are flushed, marked
partial (the rows of its completed calls: for ismap, of its completed
blocks).

A ``Chain`` holds one row per step. ``Chain.after_burn_in`` is the one
place the burn-in rule is written: it drops the first int(frac * N) rows
and keeps the last ``cum_solves``, so a trimmed chain still carries the
cost of the whole run.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from .errors import FactorizationError, NumericalError
from .lowrank import LowRankHessian, build_lowrank, stacked
from .models import LOCKSTEP_BLOCK_VALUES, ForwardModel, evaluate_points
from .prior import GaussianPrior

logger = logging.getLogger(__name__)

METHODS = ("sn", "snmap", "ismap")
PROGRESS_SECONDS = 30.0          # a campaign logs its progress at most this often


@dataclass
class ChainStates:
    """The states of c chains, one row each: the point, its log posterior
    and the proposal N(mean, H^{-1}) drawn from it; ``lrhs[i]`` holds row
    i's H. The per-chain numbers are lists of floats. A row that could
    not be evaluated holds a nan log posterior; its H is the MAP Hessian
    (ismap, snmap) or, for sn, the rank-0 prior Hessian."""

    m: np.ndarray              # (c, n)
    log_post: list[float]
    lrhs: list
    mean: np.ndarray           # (c, n)
    half_logdet: list[float]

    def __len__(self) -> int:
        return len(self.log_post)

    def take(self, rows: list[int]) -> "ChainStates":
        """Rows ``rows`` of these states: these states when that is every
        row in order."""
        if rows == list(range(len(self))):
            return self
        return ChainStates(self.m[rows], [self.log_post[i] for i in rows],
                           [self.lrhs[i] for i in rows], self.mean[rows],
                           [self.half_logdet[i] for i in rows])

    def where(self, take: list[bool], other: "ChainStates") -> "ChainStates":
        """Row i of ``other`` where take[i], else row i of these states."""
        if all(take):
            return other
        if not any(take):
            return self
        rows = np.array(take)[:, None]

        def pick(a, b):
            return [y if t else x for t, x, y in zip(take, a, b)]
        return ChainStates(np.where(rows, other.m, self.m), pick(self.log_post, other.log_post),
                           pick(self.lrhs, other.lrhs), np.where(rows, other.mean, self.mean),
                           pick(self.half_logdet, other.half_logdet))


@dataclass
class Chain:
    """Sampled states (one row per step; rejected steps repeat the row)."""

    samples: np.ndarray        # (N, n)
    accepted: np.ndarray       # (N,) bool
    log_post: np.ndarray       # (N,)
    cum_solves: np.ndarray     # (N,) counter totals after each step
    meta: dict = field(default_factory=dict)
    depths: list[int] = field(default_factory=list)  # candidates per stacked call
    discarded_solves: int = 0  # solves of the candidates evaluated ahead and discarded

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted)) if self.accepted.size else 0.0

    def after_burn_in(self, frac: float) -> "Chain":
        """The chain without its first int(frac * N) rows, as views; the
        last ``cum_solves`` is still the cost of the whole chain."""
        k = int(frac * self.n_samples)
        return Chain(samples=self.samples[k:], accepted=self.accepted[k:],
                     log_post=self.log_post[k:], cum_solves=self.cum_solves[k:],
                     meta=self.meta, depths=self.depths,
                     discarded_solves=self.discarded_solves)


@dataclass
class SamplerSettings:
    method: str = "snmap"
    r: int = 20
    l: int = 5
    lrh_map: LowRankHessian | None = None
    m_map: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampler method {self.method!r}")
        if self.method in ("snmap", "ismap") and (self.lrh_map is None or self.m_map is None):
            raise ValueError(f"{self.method} needs the MAP point and its low-rank Hessian")


def _per_hessian(settings: SamplerSettings, lrhs: list, apply, *blocks) -> np.ndarray:
    """apply(lrh, *blocks) with each row's Hessian: one call on the whole
    blocks (arrays of rows) when the rows share the MAP Hessian (ismap,
    snmap), and on sn's own Hessians one call per rank, on their stacked
    Hessian (``lowrank.stacked``) and the rows of that rank. Ranks are not
    padded to one: a zero-padded Ritz basis moves the rows' last bits."""
    if settings.method != "sn":
        return apply(lrhs[0], *blocks)
    ranks = [h.rank for h in lrhs]
    out = None
    for rank in dict.fromkeys(ranks):
        rows = [i for i, x in enumerate(ranks) if x == rank]
        part = apply(stacked([lrhs[i] for i in rows]), *(b[rows] for b in blocks))
        if out is None:
            out = np.empty((len(ranks),) + part.shape[1:])
        out[rows] = part
    return out


def _per_state(lrhs: list, apply, block: np.ndarray) -> np.ndarray:
    """apply(lrh, rows) on each run of consecutive rows that share a state's
    Hessian lrh (the rows of one chain's candidates): one call per chain."""
    parts, start = [], 0
    for _, rows in itertools.groupby(lrhs, key=id):
        stop = start + len(list(rows))
        parts.append(apply(lrhs[start], block[start:stop]))
        start = stop
    return np.concatenate(parts)


def evaluate(settings: SamplerSettings, workers: list[ForwardModel], prior: GaussianPrior,
             points: np.ndarray, rngs: list[np.random.Generator]
             ) -> tuple[ChainStates, dict[int, NumericalError]]:
    """The log posterior at each row of ``points`` (c, n) and the proposal
    drawn from it, as ChainStates, and the NumericalError that stopped
    each row that could not be evaluated (by row). Row i uses
    ``workers[i]`` and ``rngs[i]`` alone: ``rngs[i]`` is the generator
    sn's build at that row draws its Lanczos start vector and any fresh
    directions from (the chain's stream at a start, and at a candidate
    the generator seeded by its step's key); ismap and snmap draw nothing.

    The log posteriors and gradients of all rows are one stacked
    evaluation (``models.evaluate_points``); the gradient and the sn
    build run even where the log posterior is not finite, so a step's
    solve count does not depend on the candidate. The sn builds of all
    points are one lockstep ``build_lowrank``, and the Newton means one
    call per rank (``_per_hessian``). A row that fails stays in every
    call, and rows with and without errors return alike: its log
    posterior is nan, and so is a Newton mean formed from its nan
    gradient. An sn row whose evaluation failed has no build and carries
    the rank-0 prior Hessian (what a build keeping no pairs gives); one
    whose build failed carries it too.
    """
    c = len(points)
    lp, g, errors = evaluate_points(workers, prior, points, settings.method != "ismap")
    lrhs = [settings.lrh_map] * c
    if settings.method == "ismap":
        return ChainStates(points, lp, lrhs, np.broadcast_to(settings.m_map, points.shape),
                           [0.0] * c), errors
    if settings.method == "sn":
        lrhs = [LowRankHessian(prior, np.zeros((prior.n, 0)), np.zeros(0))] * c
        ok = [i for i in range(c) if i not in errors]
        for i, lrh in zip(ok, build_lowrank([workers[i] for i in ok], prior,
                                            [points[i] for i in ok], settings.r, settings.l,
                                            [rngs[i] for i in ok])):
            if isinstance(lrh, NumericalError):
                errors[i], lp[i] = lrh, math.nan
            else:
                lrhs[i] = lrh
    return ChainStates(points, lp, lrhs,
                       points - _per_hessian(settings, lrhs, LowRankHessian.apply_inv, g),
                       _half_logdets(settings, lrhs)), errors


def _half_logdets(settings: SamplerSettings, lrhs: list[LowRankHessian]) -> list[float]:
    """The determinant factor of each proposal density: sn's own, and 0
    for the frozen MAP Hessian, where it cancels."""
    if settings.method == "sn":
        return [h.half_logdet_rel() for h in lrhs]
    return [0.0] * len(lrhs)


def log_q_pair(settings: SamplerSettings, states: ChainStates,
               candidates: ChainStates) -> tuple[list, list]:
    """log q(candidate -> state) and log q(state -> candidate) at each row,
    up to constants that cancel: the two proposal densities of the
    Metropolis-Hastings ratio. From a state, log q(y) = half_logdet
    - 1/2 <y - mean, H (y - mean)>_M. The quadratic forms of both
    directions are one ``quad`` call on the MAP Hessian (ismap, snmap). On
    sn's own Hessians the reverse forms are one call per rank
    (``_per_hessian``) and the forward forms one call per chain, on the
    consecutive rows of its candidates (``_per_state``)."""
    c = len(states)
    back, ahead = states.m - candidates.mean, candidates.m - states.mean
    if settings.method != "sn":
        q = settings.lrh_map.quad(np.concatenate([back, ahead])).tolist()
        reverse, forward = q[:c], q[c:]
    else:
        reverse = _per_hessian(settings, candidates.lrhs, LowRankHessian.quad, back).tolist()
        forward = _per_state(states.lrhs, LowRankHessian.quad, ahead).tolist()
    return _log_q(candidates.half_logdet, reverse), _log_q(states.half_logdet, forward)


def _log_q(half_logdets: list[float], quads: list[float]) -> list[float]:
    """log q = half_logdet - 1/2 quad at each row."""
    return [h - 0.5 * x for h, x in zip(half_logdets, quads)]


def _accepts(log_u: float, log_post: float, state_log_post: float, reverse: float,
             forward: float) -> bool:
    """The Metropolis-Hastings test of one chain's candidate; ``reverse``
    is log q(candidate -> state) and ``forward`` log q(state -> candidate).
    A candidate's log posterior is finite, -inf or nan (a failed row), and
    neither of the last two ever passes: every comparison with nan is
    false, and -inf stays -inf or becomes nan."""
    return log_u < log_post - state_log_post + reverse - forward


def init_states(settings: SamplerSettings, workers: list[ForwardModel], prior: GaussianPrior,
                starts: list[np.ndarray], rngs: list[np.random.Generator]) -> ChainStates:
    """The first state of each chain; a start that cannot be evaluated, or
    whose log posterior is not finite, raises."""
    states, errors = evaluate(settings, workers, prior, np.array(starts, dtype=float), rngs)
    for i, lp in enumerate(states.log_post):
        if i in errors:
            raise errors[i]
        if not math.isfinite(lp):
            raise NumericalError("non-finite log posterior at the chain start")
    return states


def mh_step(settings: SamplerSettings, states: ChainStates, workers: list[ForwardModel],
            prior: GaussianPrior, rngs: list[np.random.Generator]
            ) -> tuple[ChainStates, list[bool]]:
    """One Metropolis-Hastings step of every chain; returns the new states
    and whether each chain accepted.

    Each chain first draws its whole step from its own generator, before
    anything in the step can raise: a row of normals, for sn one integer
    key, then its uniform (``_draw_ahead``). The proposal is the mean
    plus the normals' ``fluctuation``, and an sn candidate's build draws
    from a generator seeded by its key. The candidates are evaluated
    together. A solver failure while evaluating a chain's candidate
    rejects that chain's step (with a warning) rather than aborting it,
    and so does a non-finite log posterior; the other chains do not see
    it. Each chain then accepts or rejects on its own. This is the kernel
    one step at a time; ``run_chains`` takes the same steps on draws made
    a block ahead (``_advance``).
    """
    draws, keys, log_u = _rows(_draw_ahead(settings, states.m.shape[1], rngs, 1), 0)
    candidates, errors = evaluate(settings, workers, prior,
                                  states.mean + _fluctuations(settings, states.lrhs, draws),
                                  _keyed(keys, len(rngs)))
    for i in sorted(errors):
        logger.warning("proposal evaluation failed (%s); step rejected", errors[i])
    rows = [i for i, lp in enumerate(candidates.log_post) if math.isfinite(lp)]
    accept = [False] * len(rngs)
    if rows:
        cand, state = candidates.take(rows), states.take(rows)
        for i, a, b, rev, fwd in zip(rows, cand.log_post, state.log_post,
                                     *log_q_pair(settings, state, cand)):
            accept[i] = _accepts(log_u[i], a, b, rev, fwd)
    return states.where(accept, candidates), accept


def _draw_ahead(settings: SamplerSettings, n: int, rngs: list[np.random.Generator],
                steps: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Each chain's draws for ``steps`` steps, in the order a step makes
    them: n normals, for sn one integer key, then one uniform. Returns
    the draws (steps, c, n), sn's keys (steps, c) (None for the other
    methods) and the log uniforms (steps, c). The MAP Hessian's draws
    are the proposal fluctuations, transformed in one call; sn's are the
    normals, which each state's own Hessian transforms
    (``_fluctuations``)."""
    sn = settings.method == "sn"
    noise = np.empty((steps, len(rngs), n))
    keys = np.empty((steps, len(rngs)), dtype=np.int64) if sn else None
    log_u = np.empty((steps, len(rngs)))
    for j, rng in enumerate(rngs):
        for s in range(steps):
            rng.standard_normal(out=noise[s, j])
            if sn:
                keys[s, j] = rng.integers(1 << 63)
            log_u[s, j] = _log_uniform(rng)
    if sn:
        return noise, keys, log_u
    return settings.lrh_map.fluctuation(noise.reshape(-1, n)).reshape(noise.shape), None, log_u


def _rows(drawn: tuple, index) -> tuple:
    """The rows ``index`` of each of ``_draw_ahead``'s blocks."""
    return tuple(None if x is None else x[index] for x in drawn)


def _fluctuations(settings: SamplerSettings, lrhs: list, draws: np.ndarray) -> np.ndarray:
    """The proposal fluctuations of rows of draws, row i proposed from the
    state whose Hessian is lrhs[i]: the MAP Hessian's as drawn, and sn's
    normals through the state's own Hessian, one call per chain."""
    if settings.method != "sn":
        return draws
    return _per_state(lrhs, LowRankHessian.fluctuation, draws)


def _keyed(keys: np.ndarray | None, c: int) -> list:
    """The generators that the builds of c candidates draw from: for sn
    each seeded by its step's key; the other methods build nothing."""
    return [None] * c if keys is None else [np.random.default_rng(k) for k in keys]


def _log_uniform(rng: np.random.Generator) -> float:
    """The log of a step's accept/reject uniform. ``random()`` returns the
    double that ``uniform()`` does (0 + 1 x, from the same draw) at a
    third of its cost."""
    return np.log(rng.random())


def _advance(settings: SamplerSettings, states: ChainStates, members: list[ForwardModel],
             prior: GaussianPrior, slots: list[list], chains: list[Chain], drawn: tuple,
             first: int, at: list[int], depths: list[int], run: list[int]
             ) -> tuple[ChainStates, int]:
    """The next ``depths[j]`` steps of each chain j of a group (none at
    depth 0) in one stacked call and one scan: the steps at[j], at[j] + 1,
    ... of the block of draws ``drawn`` (``_draw_ahead``'s), whose step s
    is the chains' row ``first`` + s. Chain j's steps taken are written to
    ``chains[j]``, and ``at[j]`` and ``run[j]`` (for a Newton chain, the
    steps it has rejected since its last acceptance) move on past them.

    A rejected step leaves the state as it was, so all of a chain's
    candidates are proposed from its current state (sn's normals through
    its own Hessian, one call a chain); those of every chain are one
    ``evaluate``, chain after chain, and an sn candidate's build draws
    from the generator seeded by its step's key. The scan then accepts or
    rejects each chain's steps in order. An ismap candidate does not
    depend on the state: an acceptance does not end the scan, and a
    state's reverse density is the forward one it had as a candidate. A
    Newton chain's (snmap, sn) scan ends at its first acceptance, and its
    later candidates are discarded. No step's draws depend on the steps
    before it, so the steps taken are those of one step at a time.

    A chain's candidates are evaluated at its worker when none can be
    discarded (ismap's, the worker repeated, and a chain at depth 1), else
    each at one of its slots (``slots[j]``: clones of its worker, each
    with its own point cache and counter, grown as needed and reused from
    call to call), whose solves then move to the worker's counter, or to
    its ``discarded_solves`` for a discarded candidate. The log q of both
    directions is formed at every candidate row, failed or not (for ismap
    one ``quad`` of the candidates, one of the states; for the Newton
    methods one ``log_q_pair`` of the candidates and their states): a
    failed candidate's nan log posterior fails ``_accepts``. A failure at
    a taken candidate is logged as ``mh_step`` logs it; ``mh_step`` keeps
    its explicit filter of the finite rows, the reference this scan is
    tested against.

    Returns the new states and the number of steps accepted."""
    c, independent = len(depths), settings.method == "ismap"
    if depths.count(1) == c and at.count(at[0]) == c:
        # one step of every chain, from one row of the draws: the rows of
        # the call are a view of it (gathering them costs a campaign of
        # depth-1 calls about a tenth more time)
        owner, workers = list(range(c)), members
        draws, keys, log_u = _rows(drawn, at[0])
        points = states.mean + _fluctuations(settings, states.lrhs, draws)
    else:
        owner, workers = [], []
        for j, d in enumerate(depths):
            owner += [j] * d
            if independent or d == 1:
                workers += [members[j]] * d
            else:
                slots[j].extend(members[j].clone() for _ in range(d - len(slots[j])))
                workers += slots[j][:d]
        draws, keys, log_u = _rows(drawn, ([x + t for x, d in zip(at, depths) for t in range(d)],
                                           owner))
        # the rows gathered are a copy: each chain's mean is added to its own
        points = _fluctuations(settings, [states.lrhs[j] for j in owner], draws)
        stop = 0
        for mean, d in zip(states.mean, depths):
            start, stop = stop, stop + d
            points[start:stop] += mean
    candidates, errors = evaluate(settings, workers, prior, points, _keyed(keys, len(owner)))
    lps = candidates.log_post
    if independent:
        # log q(candidate -> state) is the state's own density
        reverse = _log_q(states.half_logdet,
                         settings.lrh_map.quad(states.m - settings.m_map).tolist())
        forward = _log_q(candidates.half_logdet,
                         settings.lrh_map.quad(candidates.m - settings.m_map).tolist())
        # a candidate costs one forward solve, none when its operator could not be factored
        costs = [1] * len(owner)
        for i, exc in errors.items():
            costs[i] = not isinstance(exc, FactorizationError)
    else:
        reverse, forward = log_q_pair(settings, states.take(owner), candidates)
    log_u = log_u.tolist()
    moved, ends, stop, accepted = [False] * c, [0] * c, 0, 0
    for j, (d, chain, worker, lp, r, a) in enumerate(zip(depths, chains, members,
                                                       states.log_post, run, at)):
        if not d:
            continue
        start, stop, counter, k = stop, stop + d, worker.counter, first + a
        src, row, owed = states.m, j, sum(costs[start:stop]) if independent else 0
        for i in range(start, stop):
            if i in errors:
                logger.warning("proposal evaluation failed (%s); step rejected", errors[i])
            took = _accepts(log_u[i], lps[i], lp, reverse[j] if independent else reverse[i],
                            forward[i])
            if workers[i] is not worker:
                counter.absorb(workers[i].counter)
            elif independent:
                owed -= costs[i]
            if took:
                src, row, lp, moved[j], ends[j] = candidates.m, i, lps[i], True, i
                accepted += 1
                if independent:
                    reverse[j] = forward[i]
            chain.samples[k], chain.accepted[k], chain.log_post[k] = src[row], took, lp
            chain.cum_solves[k] = counter.total - owed
            k += 1
            if took and not independent:
                break
        for slot in workers[i + 1:stop]:
            counter.absorb(slot.counter, discarded=True)
        chain.depths.append(d)
        at[j], run[j] = k - first, 0 if moved[j] else r + k - first - a
    return states.where(moved, candidates.take(ends)), accepted


class _Progress:
    """A campaign's chain steps and acceptances so far, logged at most once
    every ``PROGRESS_SECONDS``."""

    def __init__(self, method: str, total: int):
        self.method, self.total, self.done, self.accepted = method, total, 0, 0
        self.due = monotonic() + PROGRESS_SECONDS

    def add(self, steps: int, accepted: int) -> None:
        self.done += steps
        self.accepted += accepted
        now = monotonic()
        if now >= self.due:
            self.due = now + PROGRESS_SECONDS
            logger.info("%s: %d of %d chain steps done, acceptance %.4f", self.method,
                        self.done, self.total, self.accepted / self.done)


def run_chains(settings: SamplerSettings, workers: list[ForwardModel], prior: GaussianPrior,
               starts: list[np.ndarray], n_samples: int, seed: int, chain_ids: list[int],
               flush_paths: list[str] | None = None) -> list[Chain]:
    """Run one chain per worker, advancing the chains together; chain i's
    RNG stream is derived from (seed, chain_ids[i]).

    The chains run in groups of as many as keep a group's stacked Krylov
    basis, (r + l) n floats per chain, within ``LOCKSTEP_BLOCK_VALUES``;
    a group runs to the end before the next starts. A group evaluates its
    starts (sn's builds there draw from the chains' streams), then draws
    a block of steps ahead (``_draw_ahead``), as many as keep the block's
    steps x chains x n floats within the budget, takes it, and draws the
    next. Each stacked call (``_advance``) evaluates the next ``depth``
    candidates of every chain of the group that has steps of the block
    left, from its current state, and records their number in
    ``Chain.depths``:

    * an ismap chain's depth is the rest of the block, so the group takes
      the block in one call;
    * a Newton chain's (snmap, sn) depth is one more than the steps it has
      rejected since its last acceptance: it starts at 1, doubles after a
      call in which the chain accepted nothing and returns to 1 after an
      acceptance. It is at most the chain's share of the budget, (chains
      a group may hold) // (chains in it), so that every candidate's
      Krylov basis fits, and at most the steps of the block the chain has
      left; a chain that has taken its block waits for the others.

    A chain's rows, and its stream, do not depend on the other chains,
    the groups, the blocks or the depths (which the group's size caps,
    and with them the discarded candidates). A call discards no more
    candidates of a chain than the steps the chain rejected before it, and
    their solves are counted apart (``Chain.discarded_solves``, and the
    counter's). A call logs the campaign's progress, at most once every
    ``PROGRESS_SECONDS``. On a fatal error every chain that has rows is
    flushed, marked partial, to its path in ``flush_paths`` (when given)
    before the exception propagates: the rows of its completed calls,
    which for ismap are those of its completed blocks.
    """
    n = prior.n
    chains = [Chain(samples=np.empty((n_samples, n)), accepted=np.zeros(n_samples, dtype=bool),
                    log_post=np.empty(n_samples), cum_solves=np.zeros(n_samples, dtype=np.int64),
                    meta={"method": settings.method, "seed": int(seed),
                          "chain_id": int(cid), "n": n, "r": settings.r, "l": settings.l})
              for cid in chain_ids]
    size = max(1, LOCKSTEP_BLOCK_VALUES // ((settings.r + settings.l) * n))
    progress = _Progress(settings.method, n_samples * len(chains))
    group, first, at = range(0), 0, []  # the group running; its chain j has rows to first + at[j]
    discarded = [w.counter.discarded_solves for w in workers]
    try:
        for lo in range(0, len(chains), size):
            group = range(lo, min(lo + size, len(chains)))
            c, first, at = len(group), 0, [0] * len(group)
            members, running = workers[lo:group.stop], chains[lo:group.stop]
            rngs = [np.random.default_rng([int(seed), int(chain_ids[i])]) for i in group]
            states = init_states(settings, members, prior, [starts[i] for i in group], rngs)
            block = max(1, LOCKSTEP_BLOCK_VALUES // (c * n))
            cap, run = max(1, size // c), [0] * c   # steps rejected since the last acceptance
            slots = [[] for _ in group]
            for first in range(0, n_samples, block):
                steps, at = min(block, n_samples - first), [0] * c   # at: each chain's next step
                drawn = _draw_ahead(settings, n, rngs, steps)
                while min(at) < steps:
                    depths = ([steps - x for x in at] if settings.method == "ismap" else
                              [min(r + 1, cap, steps - x) for r, x in zip(run, at)])
                    taken = sum(at)
                    states, accepted = _advance(settings, states, members, prior, slots, running,
                                                drawn, first, at, depths, run)
                    progress.add(sum(at) - taken, accepted)
            for i in group:
                chains[i].discarded_solves = workers[i].counter.discarded_solves - discarded[i]
    except Exception:
        if flush_paths is not None:
            from .chain_io import write_chain
            for i, (chain, path) in enumerate(zip(chains, flush_paths)):
                rows = (n_samples if i < group.start else first + at[i - group.start]
                        if i in group else 0)
                if rows > 0:
                    write_chain(Chain(samples=chain.samples[:rows],
                                      accepted=chain.accepted[:rows],
                                      log_post=chain.log_post[:rows],
                                      cum_solves=chain.cum_solves[:rows],
                                      meta={**chain.meta, "partial": True}), path)
        raise
    return chains


def run_chain(settings: SamplerSettings, model: ForwardModel, prior: GaussianPrior,
              m_start: np.ndarray, n_samples: int, seed: int, chain_id: int,
              flush_path=None) -> Chain:
    """Run one chain: ``run_chains`` with a single chain."""
    return run_chains(settings, [model], prior, [m_start], n_samples, seed, [chain_id],
                      None if flush_path is None else [flush_path])[0]


def select_start_points(pilot_samples: np.ndarray, k: int,
                        space) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximin selection of k over-dispersed start points.

    The first pick is the pilot sample farthest (in M-norm) from the
    pilot mean; each subsequent pick maximizes the minimum M-distance to
    the points already selected. Selecting as many points as there are
    samples returns the whole pilot set (in selection order).
    """
    X = np.asarray(pilot_samples, dtype=float)
    N = X.shape[0]
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= number of pilot samples")
    XM = space.mass.matvec(X.T).T
    row_quad = np.einsum("ij,ij->i", XM, X)

    def sq_dist_to(c: np.ndarray) -> np.ndarray:
        return np.maximum(row_quad - 2.0 * (XM @ c) + space.inner(c, c), 0.0)

    mean = X.mean(axis=0)
    first = int(np.argmax(sq_dist_to(mean)))
    chosen = [first]
    min_d = sq_dist_to(X[first])
    while len(chosen) < k:
        min_d[chosen] = -1.0  # never re-pick
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        min_d = np.minimum(min_d, sq_dist_to(X[nxt]))
    idx = np.array(chosen)
    return X[idx].copy(), idx
