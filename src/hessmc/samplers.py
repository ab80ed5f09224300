"""Metropolis-Hastings samplers with Hessian-preconditioned proposals.

Every method is one kernel. A chain state at m carries the Gaussian
N(mean, H^{-1}) it proposes from, and the methods differ only in where
the mean and the Hessian H come from (``evaluate``):

* ``rwmh``  -- random walk m + sigma * n with M-whitened noise and no
  Hessian; the density is symmetric and drops out of the acceptance ratio.
* ``ismap`` -- independence sampler N(m_map, H_map^{-1}) at every state.
* ``snmap`` -- stochastic Newton with the Hessian frozen at the MAP: the
  mean is the Newton point m - H_map^{-1} g(m).
* ``sn``    -- full stochastic Newton: a fresh low-rank H(m) at every state
  and the mean m - H(m)^{-1} g(m). The position-dependent determinant
  factor exp(half_logdet_rel) is part of its density; for the frozen
  Hessians that factor is state-independent, cancels, and is carried as 0.

Proposal draws are y = mean + H^{-1/2} R^{-1} n with n ~ N(0, I), so the
draw lives in the same M geometry as the density evaluations; with the
low-rank factorization (see ``lowrank``) the R factors cancel and the
draw is

    y = mean + C^{-1} (I + Z E Z^T) n,

while H^{-1} and the quadratic form of H also come in closed form. The
mean is computed once, when the state is evaluated: it is the mean of the
reverse density when the state is proposed and, once the state is
accepted, the mean of the next proposal and of its forward density, so
each step applies H^{-1} once. Within a step the random stream is
consumed in a fixed order (proposal noise, the Lanczos start vectors of
an sn candidate, then the accept/reject uniform), and a rejected step
leaves the state bit-identical, so chains are reproducible from
(seed, chain_id) alone.

Per-step linearized solve costs (exact, enforced by the point caches in
the models): ismap 1, snmap 2, sn 2 + 2(r+l), rwmh 1.

A ``Chain`` holds one row per step. ``Chain.after_burn_in`` is the one
place the burn-in rule is written: it drops the first int(frac * N) rows
and keeps the last ``cum_solves``, so a trimmed chain still carries the
cost of the whole run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .lowrank import LowRankHessian, build_lowrank
from .models import ForwardModel, gradient, log_posterior
from .prior import GaussianPrior

logger = logging.getLogger(__name__)

METHODS = ("rwmh", "sn", "snmap", "ismap")


@dataclass
class ChainState:
    """A point, its log posterior and the proposal N(mean, H^{-1}) drawn
    from it; ``lrh`` holds H, and is None for the rwmh walk."""

    m: np.ndarray
    log_post: float
    lrh: LowRankHessian | None = None
    mean: np.ndarray | None = None
    half_logdet: float = 0.0


@dataclass
class Chain:
    """Sampled states (one row per step; rejected steps repeat the row)."""

    samples: np.ndarray        # (N, n)
    accepted: np.ndarray       # (N,) bool
    log_post: np.ndarray       # (N,)
    cum_solves: np.ndarray     # (N,) counter totals after each step
    meta: dict = field(default_factory=dict)

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
                     meta=self.meta)


@dataclass
class SamplerSettings:
    method: str = "snmap"
    r: int = 20
    l: int = 5
    rwmh_sigma: float = 0.1
    lrh_map: LowRankHessian | None = None
    m_map: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown sampler method {self.method!r}")
        if self.method in ("snmap", "ismap") and (self.lrh_map is None or self.m_map is None):
            raise ValueError(f"{self.method} needs the MAP point and its low-rank Hessian")


def evaluate(settings: SamplerSettings, model: ForwardModel, prior: GaussianPrior,
             m: np.ndarray, rng: np.random.Generator) -> ChainState:
    """The log posterior at m and the proposal drawn from m.

    The gradient and the sn build run even where the log posterior is not
    finite, so a step's solve count and random stream do not depend on
    the candidate.
    """
    lp = log_posterior(model, prior, m)
    if settings.method == "rwmh":
        return ChainState(m, lp)
    if settings.method == "ismap":
        return ChainState(m, lp, settings.lrh_map, settings.m_map, 0.0)
    g = gradient(model, prior, m)
    if settings.method == "snmap":
        return ChainState(m, lp, settings.lrh_map, m - settings.lrh_map.apply_inv(g), 0.0)
    lrh = build_lowrank(model, prior, m, settings.r, settings.l, rng)
    return ChainState(m, lp, lrh, m - lrh.apply_inv(g), lrh.half_logdet_rel())


def log_q(state: ChainState, point: np.ndarray) -> float:
    """Log density of proposing ``point`` from ``state``, up to constants
    that cancel."""
    return state.half_logdet - 0.5 * state.lrh.quad(point - state.mean)


def init_state(settings: SamplerSettings, model: ForwardModel, prior: GaussianPrior,
               m: np.ndarray, rng: np.random.Generator) -> ChainState:
    state = evaluate(settings, model, prior, np.asarray(m, dtype=float).copy(), rng)
    if not np.isfinite(state.log_post):
        raise NumericalError("non-finite log posterior at the chain start")
    return state


def mh_step(settings: SamplerSettings, state: ChainState, model: ForwardModel,
            prior: GaussianPrior, rng: np.random.Generator) -> tuple[ChainState, bool]:
    """One Metropolis-Hastings step; returns (new_state, accepted).

    The proposal is drawn first, before anything in the step can raise.
    Solver failures while evaluating it count as a rejection (with a
    warning) rather than aborting the chain.
    """
    if state.lrh is None:
        y = state.m + settings.rwmh_sigma * prior.space.white_noise(rng)
    else:
        y = state.lrh.draw(rng, state.mean)

    try:
        candidate = evaluate(settings, model, prior, y, rng)
        log_ratio = candidate.log_post - state.log_post
        if state.lrh is not None:
            log_ratio = log_ratio + log_q(candidate, state.m) - log_q(state, y)
    except NumericalError as exc:
        logger.warning("proposal evaluation failed (%s); step rejected", exc)
        rng.uniform()  # keep the stream aligned with the success path
        return state, False

    if not np.isfinite(candidate.log_post):
        rng.uniform()
        return state, False

    accept = np.log(rng.uniform()) < log_ratio
    return (candidate, True) if accept else (state, False)


def run_chain(settings: SamplerSettings, model: ForwardModel, prior: GaussianPrior,
              m_start: np.ndarray, n_samples: int, seed: int, chain_id: int,
              flush_path=None) -> Chain:
    """Run one chain; the RNG stream is derived from (seed, chain_id).

    On a fatal error the partial chain is flushed to ``flush_path`` (when
    given) before the exception propagates.
    """
    rng = np.random.default_rng([int(seed), int(chain_id)])
    n = prior.n
    samples = np.empty((n_samples, n))
    accepted = np.zeros(n_samples, dtype=bool)
    log_post = np.empty(n_samples)
    cum_solves = np.zeros(n_samples, dtype=np.int64)
    meta = {"method": settings.method, "seed": int(seed), "chain_id": int(chain_id),
            "n": n, "r": settings.r, "l": settings.l}
    k = 0
    try:
        state = init_state(settings, model, prior, m_start, rng)
        for k in range(n_samples):
            state, acc = mh_step(settings, state, model, prior, rng)
            samples[k] = state.m
            accepted[k] = acc
            log_post[k] = state.log_post
            cum_solves[k] = model.counter.total
    except Exception:
        if flush_path is not None and k > 0:
            partial = Chain(samples=samples[:k], accepted=accepted[:k],
                            log_post=log_post[:k], cum_solves=cum_solves[:k],
                            meta={**meta, "partial": True})
            from .chain_io import write_chain
            write_chain(partial, flush_path)
        raise
    return Chain(samples=samples, accepted=accepted, log_post=log_post,
                 cum_solves=cum_solves, meta=meta)


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
