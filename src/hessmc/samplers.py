"""Metropolis-Hastings samplers with Hessian-preconditioned proposals.

Four proposal kinds over the same kernel:

* ``rwmh``  -- random walk m + sigma * n with M-whitened noise; the
  density is symmetric and drops out of the acceptance ratio.
* ``sn``    -- full stochastic Newton: Gaussian centered at the Newton
  point m - H(m)^{-1} g(m) with covariance H(m)^{-1}, both taken from a
  fresh low-rank Hessian at the current (and, for the reverse density,
  the proposed) point. The position-dependent determinant factor
  exp(half_logdet_rel) is part of the density.
* ``snmap`` -- same Newton-step mean but with the Hessian frozen at the
  MAP point; the determinant factor is state-independent and cancels.
* ``ismap`` -- independence sampler N(m_map, H_map^{-1}).

Proposal draws are y = mean + H^{-1/2} R^{-1} n with n ~ N(0, I), so the
draw lives in the same M geometry as the density evaluations; with the
low-rank factorization (see ``lowrank``) the R factors cancel and the
draw is

    y = mean + C^{-1} (I + Z E Z^T) n,

while H^{-1} and the quadratic form of H also come in closed form. The
Newton point m - H^{-1} g of an snmap/sn state is computed once and kept
on the state (``newton_mean``): it is the mean of the reverse density
when the state is proposed and, once the state is accepted, the mean of
the next proposal and of its forward density, so each step applies
H^{-1} once. Within a step the random stream is consumed in a fixed
order (proposal noise first, then the accept/reject uniform), and a
rejected step leaves the state bit-identical, so chains are reproducible
from (seed, chain_id) alone.

Per-step linearized solve costs (exact, enforced by the point caches in
the models): ismap 1, snmap 2, sn 2 + 2(r+l), rwmh 1.
"""

from __future__ import annotations

import logging
import time
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
    m: np.ndarray
    log_post: float
    grad: np.ndarray | None = None
    lrh: LowRankHessian | None = None
    newton_mean: np.ndarray | None = None  # set by ``newton_mean``


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


def newton_mean(settings: SamplerSettings, state: ChainState) -> np.ndarray:
    """Newton point m - H^{-1} g of an snmap/sn state, computed once per
    state: the forward proposal and both log_q terms it enters share it."""
    if state.newton_mean is None:
        lrh = settings.lrh_map if settings.method == "snmap" else state.lrh
        state.newton_mean = state.m - lrh.apply_inv(state.grad)
    return state.newton_mean


def log_q(settings: SamplerSettings, from_state: ChainState, to_point: np.ndarray) -> float:
    """Log proposal density q(from -> to) of a Hessian-based method, up to
    constants that cancel.

    For ``sn`` this includes the half log-determinant of the Hessian at
    the conditioning point; for the frozen-Hessian methods that factor is
    state-independent and omitted. The symmetric rwmh density cancels in
    ``mh_step`` and has no term here.
    """
    method = settings.method
    if method == "ismap":
        return -0.5 * settings.lrh_map.quad(to_point - settings.m_map)
    mean = newton_mean(settings, from_state)
    if method == "snmap":
        return -0.5 * settings.lrh_map.quad(to_point - mean)
    # sn
    lrh = from_state.lrh
    return lrh.half_logdet_rel() - 0.5 * lrh.quad(to_point - mean)


def init_state(settings: SamplerSettings, model: ForwardModel, prior: GaussianPrior,
               m: np.ndarray, rng: np.random.Generator) -> ChainState:
    m = np.asarray(m, dtype=float).copy()
    lp = log_posterior(model, prior, m)
    if not np.isfinite(lp):
        raise NumericalError("non-finite log posterior at the chain start")
    g = gradient(model, prior, m) if settings.method in ("sn", "snmap") else None
    lrh = build_lowrank(model, prior, m, settings.r, settings.l, rng) \
        if settings.method == "sn" else None
    return ChainState(m=m, log_post=lp, grad=g, lrh=lrh)


def mh_step(settings: SamplerSettings, state: ChainState, model: ForwardModel,
            prior: GaussianPrior, rng: np.random.Generator) -> tuple[ChainState, bool]:
    """One Metropolis-Hastings step; returns (new_state, accepted).

    The proposal is drawn first, before anything in the step can raise.
    Solver failures while evaluating it count as a rejection (with a
    warning) rather than aborting the chain.
    """
    method = settings.method
    if method == "rwmh":
        y = state.m + settings.rwmh_sigma * prior.space.white_noise(rng)
    elif method == "ismap":
        y = settings.lrh_map.draw(rng, settings.m_map)
    else:
        lrh = settings.lrh_map if method == "snmap" else state.lrh
        y = lrh.draw(rng, newton_mean(settings, state))

    try:
        lp_y = log_posterior(model, prior, y)
        if method in ("rwmh", "ismap"):
            candidate = ChainState(m=y, log_post=lp_y)
        else:
            g_y = gradient(model, prior, y)
            lrh_y = build_lowrank(model, prior, y, settings.r, settings.l, rng) \
                if method == "sn" else None
            candidate = ChainState(m=y, log_post=lp_y, grad=g_y, lrh=lrh_y)
        log_ratio = lp_y - state.log_post
        if method != "rwmh":
            log_ratio = (log_ratio + log_q(settings, candidate, state.m)
                         - log_q(settings, state, y))
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
    t0 = time.perf_counter()
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
    meta["wall_time"] = time.perf_counter() - t0
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
