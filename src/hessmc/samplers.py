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
(rejection prefetching: Brockwell 2006, Strid 2010). snmap and sn
evaluate each chain's next steps in one stacked call as if it rejected
them all, and take them in order up to its first acceptance
(``_reject_ahead``). A chain's depth is one more than the steps it has
rejected since its last acceptance (1, 2, 4, ...), so a call discards no
more candidates than the steps rejected before it, and none where a
chain never or always accepts. Each step's draws, sn's key among them,
are made before the call, so the steps taken are those of one step at a
time. A taken candidate's solves are charged once, to its
chain's counter; a discarded one's are counted apart, outside the
counter's total.

Per-step linearized solve costs (exact, enforced by the point caches in
the models): ismap 1, snmap 2, sn 2 + 2(r+l).

A campaign advances all of its chains together (``run_chains``), and
their states are rows of one ``ChainStates``. Every chain draws its
proposal, the candidates of all chains are evaluated together, and each
chain then accepts or rejects with its own uniform. The point
evaluations of a stacked call are one stacked forward (and adjoint)
solve for all its candidates (``models.evaluate_points``); for sn the
call adds one lockstep ``build_lowrank``, whose band assembly, Hessian
actions, whitening solves, Gram-Schmidt passes and Ritz vectors are each
one BLAS/LAPACK call for all candidates (the Ritz vectors one per rank),
and whose Ritz values come from each candidate's Lanczos tridiagonal.
The proposal algebra (``apply_inv`` and the ``quad`` of both MH
directions) is one call a stacked call on all rows where the chains
share the MAP Hessian. On sn's own Hessians, the Newton means and the
reverse forms of a call's candidates are one call per rank, on their
stacked Hessian (``lowrank.stacked``), and a forward form is one call
per chain, on its state Hessian; the MAP Hessian's fluctuations are one
call a block, and sn's one call per chain and stacked call. An ismap
candidate does not depend on the state at all, so a block's candidates
are one stacked evaluation and their ``quad`` one call, and a scan then
accepts or rejects each step; a state's reverse density is the forward
one it had as a candidate (``_ismap_block``).
Each chain keeps its own worker model, solve counter and (seed,
chain_id) stream, and the stacked calls do not mix chains, so a chain's
rows and ``cum_solves`` are bit-identical to those of the chain run
alone, whatever the number of chains beside it; ``run_chain`` is the
driver with one chain, the batch of one. The per-step solve ledger
above is unchanged. A solver failure at one chain's candidate rejects
only that chain's step. A fatal error ends the campaign: every chain's
rows so far are flushed, marked partial (for ismap, the rows of its
completed blocks).

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
    not be evaluated holds nan and no H."""

    m: np.ndarray              # (c, n)
    log_post: list[float]
    lrhs: list
    mean: np.ndarray           # (c, n)
    half_logdet: list[float]

    def __len__(self) -> int:
        return len(self.log_post)

    def take(self, rows: list[int]) -> "ChainStates":
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
    call per rank (``_per_hessian``).
    """
    c = len(points)
    lp, g, errors = evaluate_points(workers, prior, points, settings.method != "ismap")
    lrhs = [settings.lrh_map] * c
    if settings.method == "ismap":
        return ChainStates(points, lp, lrhs, np.broadcast_to(settings.m_map, points.shape),
                           [0.0] * c), errors
    if settings.method == "sn":
        ok = [i for i in range(c) if i not in errors]
        for i, lrh in zip(ok, build_lowrank([workers[i] for i in ok], prior,
                                            [points[i] for i in ok], settings.r, settings.l,
                                            [rngs[i] for i in ok])):
            if isinstance(lrh, NumericalError):
                errors[i], lp[i] = lrh, math.nan
            else:
                lrhs[i] = lrh
    if not errors:
        return ChainStates(points, lp, lrhs,
                           points - _per_hessian(settings, lrhs, LowRankHessian.apply_inv, g),
                           _half_logdets(settings, lrhs)), errors
    ok = [i for i in range(c) if i not in errors]
    mean = np.full(points.shape, np.nan)
    half_logdet = [math.nan] * c
    if ok:
        hs = [lrhs[i] for i in ok]
        mean[ok] = points[ok] - _per_hessian(settings, hs, LowRankHessian.apply_inv, g[ok])
        for i, h in zip(ok, _half_logdets(settings, hs)):
            half_logdet[i] = h
    return ChainStates(points, lp, lrhs, mean, half_logdet), errors


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
    is log q(candidate -> state) and ``forward`` log q(state -> candidate)."""
    return log_u < log_post - state_log_post + reverse - forward


def _candidates(settings: SamplerSettings, workers: list[ForwardModel], prior: GaussianPrior,
                points: np.ndarray, rngs: list) -> tuple[ChainStates, dict, list[int]]:
    """``evaluate`` at the candidates, with their errors and the rows
    whose log posterior is finite. The step of every other row is
    rejected, and a solver failure there is logged as a warning."""
    candidates, errors = evaluate(settings, workers, prior, points, rngs)
    for i in sorted(errors):
        logger.warning("proposal evaluation failed (%s); step rejected", errors[i])
    return candidates, errors, [i for i, lp in enumerate(candidates.log_post)
                                if math.isfinite(lp)]


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
            prior: GaussianPrior, rngs: list[np.random.Generator],
            drawn: tuple | None = None) -> tuple[ChainStates, list[bool]]:
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
    it. Each chain then accepts or rejects on its own. Chains that drew
    the step ahead pass ``drawn``, one step's row of each of
    ``_draw_ahead``'s blocks: the draws (c, n), sn's keys (c,) or None,
    and the log uniforms (c,) (see ``run_chains``); the step then reads
    no generator.
    """
    if drawn is None:
        drawn = _rows(_draw_ahead(settings, states.m.shape[1], rngs, 1), 0)
    draws, keys, log_u = drawn
    candidates, _, rows = _candidates(settings, workers, prior,
                                      states.mean + _fluctuations(settings, states.lrhs, draws),
                                      _keyed(keys, len(rngs)))
    accept = [False] * len(rngs)
    if rows:
        cand, state = candidates, states
        if len(rows) < len(rngs):
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


def _ismap_block(settings: SamplerSettings, states: ChainStates, log_q: list[float],
                 workers: list[ForwardModel], prior: GaussianPrior, fluctuations: np.ndarray,
                 log_u: np.ndarray):
    """ismap's steps on draws made ahead. Its candidates m_map +
    fluctuations (steps, c, n) do not depend on the states: those of every
    step and chain are one stacked ``evaluate`` (row s c + j is chain j's
    at step s, at its own worker) and their forward densities one
    ``quad``. A scan then accepts or rejects each step in order; a
    state's reverse density is its forward one as a candidate, and
    ``log_q`` holds those of ``states``.

    Returns the states and their log q after the block, and its rows:
    ``src`` = [states.m; candidates], and per step and chain (steps, c)
    the row of ``src`` that is the state, whether the step accepted, the
    log posterior and the solve count. A candidate costs one forward
    solve, none when its operator could not be factored."""
    steps, c, n = fluctuations.shape
    src = np.empty(((steps + 1) * c, n))
    src[:c] = states.m
    points = src[c:]
    np.add(settings.m_map, fluctuations.reshape(-1, n), out=points)
    before = [w.counter.total for w in workers]
    cands, errors, rows = _candidates(settings, workers * steps, prior, points,
                                      _keyed(None, len(points)))
    forward = [None] * (steps * c)      # log q(state -> candidate) of the finite rows
    if rows:
        finite = points if len(rows) == len(points) else points[rows]
        quads = settings.lrh_map.quad(finite - settings.m_map).tolist()
        for i, x in zip(rows, _log_q([cands.half_logdet[i] for i in rows], quads)):
            forward[i] = x
    lp, state_lp, log_q, at = cands.log_post, list(states.log_post), list(log_q), list(range(c))
    where, accepted, log_post = [], [], []
    for s, u in enumerate(log_u.tolist()):
        took = [False] * c
        for j in range(c):
            i = s * c + j
            if forward[i] is not None and _accepts(u[j], lp[i], state_lp[j], log_q[j],
                                                   forward[i]):
                at[j], state_lp[j], log_q[j], took[j] = c + i, lp[i], forward[i], True
        where.append(list(at))
        accepted.append(took)
        log_post.append(list(state_lp))
    costs = np.ones(steps * c, dtype=np.int64)
    costs[[i for i, e in errors.items() if isinstance(e, FactorizationError)]] = 0
    solves = np.array(before) + np.cumsum(costs.reshape(steps, c), axis=0)
    last = ChainStates(src[at], state_lp, states.lrhs, states.mean, states.half_logdet)
    return last, log_q, (src, np.array(where), np.array(accepted), np.array(log_post), solves)


def _reject_ahead(settings: SamplerSettings, states: ChainStates, members: list[ForwardModel],
                  prior: GaussianPrior, depths: list[int], slots: list[list],
                  drawn: tuple):
    """The next ``depths[j]`` steps of each chain j (none at depth 0) in one
    stacked call (snmap, sn), on the rows of ``_draw_ahead``'s blocks in
    ``drawn``, chain after chain. A rejected step leaves the state as it
    was, so all of a chain's candidates are proposed from its current
    state (sn's normals through its own Hessian, one call a chain); those
    of every chain are one ``evaluate``, row by row at the chain's slots
    (``slots[j]``: clones of its worker, each with its own point cache and
    counter, grown as needed and reused from call to call), and an sn
    candidate's build draws from the generator seeded by its step's key.
    A scan then takes each chain's steps in order up to and including its
    first acceptance, and discards the rest. No step's draws depend on
    the steps before it, so the steps taken are those of one step at a
    time.

    A taken candidate's solves move to its chain's counter, and the solves
    of a discarded one to the counter's ``discarded_solves``; a failure at
    a taken candidate is logged as ``mh_step`` logs it. Returns the new
    states, whether each chain accepted, and the ``cum_solves`` of each
    chain's steps taken."""
    c = len(depths)
    owner = [j for j in range(c) for _ in range(depths[j])]
    rows = []
    for j, depth in enumerate(depths):
        slots[j].extend(members[j].clone() for _ in range(depth - len(slots[j])))
        rows.extend(slots[j][:depth])
    draws, keys, log_u = drawn
    fluctuations = _fluctuations(settings, [states.lrhs[j] for j in owner], draws)
    candidates, errors = evaluate(settings, rows, prior, states.mean[owner] + fluctuations,
                                  _keyed(keys, len(rows)))
    finite = [i for i, lp in enumerate(candidates.log_post) if math.isfinite(lp)]
    forward = [None] * len(rows)
    reverse = list(forward)
    if finite:
        for i, rev, fwd in zip(finite, *log_q_pair(settings, states.take([owner[i] for i in finite]),
                                                   candidates.take(finite))):
            reverse[i], forward[i] = rev, fwd
    took, last, solves, start = [False] * c, [0] * c, [], 0
    for j, depth in enumerate(depths):
        counter, steps = members[j].counter, []
        for i in range(start, start + depth):
            if i in errors:
                logger.warning("proposal evaluation failed (%s); step rejected", errors[i])
            took[j] = forward[i] is not None and _accepts(
                log_u[i], candidates.log_post[i], states.log_post[j], reverse[i], forward[i])
            counter.absorb(rows[i].counter)
            steps.append(counter.total)
            if took[j]:
                break
        solves.append(steps)
        if steps:
            last[j] = start + len(steps) - 1
        for worker in rows[start + len(steps):start + depth]:
            counter.absorb(worker.counter, discarded=True)
        start += depth
    return states.where(took, candidates.take(last)), took, solves


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
    next. Each stacked call evaluates some candidates of every chain of
    the group that has steps of the block left, and records their number
    in ``Chain.depths``:

    * ismap's candidates do not depend on the state, so the group takes
      the block in one call (``_ismap_block``).
    * snmap and sn evaluate each chain's next ``depth`` steps ahead as if
      it rejected them all (``_reject_ahead``). A chain's depth is one
      more than the steps it has rejected since its last acceptance: it
      starts at 1, doubles after a call in which the chain accepted
      nothing and returns to 1 after an acceptance. It is at most the
      chain's share of the budget, (chains a group may hold) // (chains
      in it), so that every candidate's Krylov basis fits, and at most
      the steps of the block the chain has left; a chain that has taken
      its block waits for the others. While every chain of the group has
      depth 1, each call is ``mh_step``.

    A chain's rows, and its stream, do not depend on the other chains,
    the groups, the blocks or the depths (which the group's size caps,
    and with them the discarded candidates). A call discards no more candidates of a
    chain than the steps the chain rejected before it, and their solves
    are counted apart (``Chain.discarded_solves``, and the counter's).
    A step or block boundary logs the campaign's progress, at most once
    every ``PROGRESS_SECONDS``. On a fatal error every chain that has rows
    is flushed, marked partial, to its path in ``flush_paths`` (when
    given) before the exception propagates: the rows of its completed
    steps, which for ismap are those of its completed blocks.
    """
    n = prior.n
    chains = [Chain(samples=np.empty((n_samples, n)), accepted=np.zeros(n_samples, dtype=bool),
                    log_post=np.empty(n_samples), cum_solves=np.zeros(n_samples, dtype=np.int64),
                    meta={"method": settings.method, "seed": int(seed),
                          "chain_id": int(cid), "n": n, "r": settings.r, "l": settings.l})
              for cid in chain_ids]
    size = max(1, LOCKSTEP_BLOCK_VALUES // ((settings.r + settings.l) * n))
    progress = _Progress(settings.method, n_samples * len(chains))
    group, ks = range(0), []            # the group running and the rows of each of its chains
    discarded = [w.counter.discarded_solves for w in workers]

    def keep(states: ChainStates, accepted: list[bool]) -> None:
        for j, i in enumerate(group):
            chain, k = chains[i], ks[j]
            chain.samples[k] = states.m[j]
            chain.accepted[k] = accepted[j]
            chain.log_post[k] = states.log_post[j]
            chain.cum_solves[k] = workers[i].counter.total
            chain.depths.append(1)
            ks[j] += 1
        progress.add(len(group), sum(accepted))

    try:
        for lo in range(0, len(chains), size):
            group = range(lo, min(lo + size, len(chains)))
            c, ks = len(group), [0] * len(group)
            members = [workers[i] for i in group]
            rngs = [np.random.default_rng([int(seed), int(chain_ids[i])]) for i in group]
            states = init_states(settings, members, prior, [starts[i] for i in group], rngs)
            if settings.method == "ismap":
                log_q = _log_q(states.half_logdet,
                               settings.lrh_map.quad(states.m - states.mean).tolist())
            block = max(1, LOCKSTEP_BLOCK_VALUES // (c * n))
            cap, run = max(1, size // c), [0] * c   # steps rejected since the last acceptance
            slots, at = [[] for _ in group], [0] * c    # each chain's next row of the draws
            log_u = np.empty((0, c))
            while min(ks) < n_samples:
                if min(at) == len(log_u):
                    draws, keys, log_u = _draw_ahead(settings, n, rngs,
                                                     min(block, n_samples - ks[0]))
                    at = [0] * c
                if settings.method == "ismap":
                    states, log_q, (src, where, accepted, log_post, solves) = _ismap_block(
                        settings, states, log_q, members, prior, draws, log_u)
                    rows = slice(ks[0], ks[0] + len(log_u))
                    for j, i in enumerate(group):
                        chain = chains[i]
                        chain.samples[rows] = src[where[:, j]]
                        chain.accepted[rows] = accepted[:, j]
                        chain.log_post[rows] = log_post[:, j]
                        chain.cum_solves[rows] = solves[:, j]
                        chain.depths.append(len(log_u))
                    ks, at = [rows.stop] * c, [len(log_u)] * c
                    progress.add(accepted.size, int(accepted.sum()))
                elif not any(run) and at.count(at[0]) == c:
                    # while every chain accepts, each takes its next step,
                    # from the same row of the draws
                    for k in range(at[0], len(log_u)):
                        states, took = mh_step(settings, states, members, prior, rngs,
                                               _rows((draws, keys, log_u), k))
                        keep(states, took)
                        if not all(took):
                            break
                    at = [k + 1] * c
                    run = [0 if t else 1 for t in took]
                else:
                    depths = [min(r + 1, cap, len(log_u) - x) for r, x in zip(run, at)]
                    steps = [x + t for x, d in zip(at, depths) for t in range(d)]
                    owner = [j for j, d in enumerate(depths) for _ in range(d)]
                    before = states
                    states, took, solves = _reject_ahead(settings, states, members, prior, depths,
                                                         slots, _rows((draws, keys, log_u),
                                                                      (steps, owner)))
                    for j, i in enumerate(group):
                        if not depths[j]:
                            continue
                        chain, rows = chains[i], slice(ks[j], ks[j] + len(solves[j]))
                        chain.samples[rows] = before.m[j]
                        chain.accepted[rows] = False
                        chain.log_post[rows] = before.log_post[j]
                        chain.cum_solves[rows] = solves[j]
                        if took[j]:
                            chain.samples[rows.stop - 1] = states.m[j]
                            chain.accepted[rows.stop - 1] = True
                            chain.log_post[rows.stop - 1] = states.log_post[j]
                        chain.depths.append(depths[j])
                        ks[j] = rows.stop
                    taken = [len(x) for x in solves]
                    progress.add(sum(taken), sum(took))
                    at = [x + t for x, t in zip(at, taken)]
                    run = [0 if t else r + x for t, r, x in zip(took, run, taken)]
            for i in group:
                chains[i].discarded_solves = workers[i].counter.discarded_solves - discarded[i]
    except Exception:
        if flush_paths is not None:
            from .chain_io import write_chain
            for i, (chain, path) in enumerate(zip(chains, flush_paths)):
                rows = n_samples if i < group.start else ks[i - group.start] if i in group else 0
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
