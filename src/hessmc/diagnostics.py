"""Chain quality metrics: IAT, ESS, MSJ, MPSRF, solves per sample.

The integrated autocorrelation time of a scalar series is
tau = 1 + 2 sum_s rho(s). Sample autocorrelations are noise beyond the
decay of the true ones, so the sum is truncated: the estimator takes
the maximum of the partial sums over the initial window of positive
autocorrelations (capped at lag N/2, floored at 1).

Every function here reads chains whose burn-in is already removed
(``samplers.Chain.after_burn_in``); none of them trims.

A report is built in two steps: ``chain_statistics`` takes everything it
reads from the chains, and ``charge`` adds the set-up solves and the wall
time and derives IAT, solves and time per independent sample from them.
A run directory records the statistics of each campaign as it ends
(``pipeline.RunDir.sample``), so a report can be charged without the
chains.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

logger = logging.getLogger(__name__)


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelations rho(1..max_lag) via FFT (1/N norm)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1] / n
    if acov[0] <= 0.0:
        raise FloatingPointError("zero-variance series has no autocorrelation")
    return np.real(acov[1:]) / np.real(acov[0])


def iat(series: np.ndarray) -> float:
    """Integrated autocorrelation time of a scalar chain.

    A constant series (undefined rho) is flagged and reported as fully
    correlated: tau = N.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        return 1.0
    if np.all(x == x[0]):
        logger.warning("constant series: IAT undefined, reporting full correlation")
        return float(n)
    rho = autocorrelation(x, n // 2)
    nonpos = np.flatnonzero(rho <= 0.0)
    window = rho[: nonpos[0]] if nonpos.size else rho
    if window.size == 0:
        return 1.0
    partial = 1.0 + 2.0 * np.cumsum(window)
    return float(max(partial.max(), 1.0))


def ess(series: np.ndarray) -> float:
    """Effective sample size N / tau."""
    return len(series) / iat(series)


def msj(samples: np.ndarray, space) -> float:
    """Mean squared jump in the M norm, averaged over consecutive pairs."""
    X = np.asarray(samples, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("mean squared jump needs at least two samples")
    d = np.diff(X, axis=0)
    return float(np.einsum("ij,ij->i", space.mass.matvec(d.T).T, d).mean())


def mpsrf(chain_samples: list[np.ndarray]) -> float:
    """Multivariate potential scale reduction factor over c chains.

    sqrt( (N-1)/N + (c+1)/c * lambda_max(W^{-1} B/N) ) with W the average
    within-chain covariance and B/N the between-chain covariance of the
    chain means, over the first N rows of each chain (N the shortest
    chain). A singular W is regularized with a tiny trace-scaled ridge
    (flagged).
    """
    if len(chain_samples) < 2:
        raise ValueError("MPSRF needs at least two chains")
    N = min(np.shape(X)[0] for X in chain_samples)
    if N < 2:
        raise ValueError("each chain needs at least two samples")
    trimmed = [np.asarray(X, dtype=float)[:N] for X in chain_samples]
    c = len(trimmed)
    if all(np.all(X == X[0]) for X in trimmed):
        # every chain is frozen: either they agree (nothing to reduce) or
        # they sit at distinct points and will never mix
        if all(np.array_equal(X[0], trimmed[0][0]) for X in trimmed):
            return float(np.sqrt((N - 1.0) / N))
        return float("inf")
    W = np.mean([np.cov(X, rowvar=False, ddof=1) for X in trimmed], axis=0)
    means = np.stack([X.mean(axis=0) for X in trimmed])
    Bn = np.atleast_2d(np.cov(means, rowvar=False, ddof=1))
    W = np.atleast_2d(W)
    try:
        lam_max = scipy.linalg.eigh(Bn, W, eigvals_only=True,
                                    subset_by_index=[W.shape[0] - 1, W.shape[0] - 1])[0]
    except (scipy.linalg.LinAlgError, ValueError):
        logger.warning("singular within-chain covariance; adding trace ridge")
        ridge = 1e-12 * max(np.trace(W) / W.shape[0], 1e-300)
        Wr = W + ridge * np.eye(W.shape[0])
        lam_max = scipy.linalg.eigh(Bn, Wr, eigvals_only=True,
                                    subset_by_index=[W.shape[0] - 1, W.shape[0] - 1])[0]
    lam_max = max(float(lam_max), 0.0)
    return float(np.sqrt((N - 1.0) / N + (c + 1.0) / c * lam_max))


@dataclass
class ChainStatistics:
    """What the diagnostics read from one method's chains, burn-in already
    removed, before any set-up or wall time is charged (``charge``)."""
    n_chains: int
    n_samples_total: int
    probe_index: int
    mpsrf: float
    ess: float            # summed over the chains at the probe node
    msj: float
    acceptance_rate: float
    chain_solves: int     # the chains' own solves, burn-in included
    frozen_chains: int    # chains that accepted no proposal after burn-in


@dataclass
class DiagnosticsReport:
    method: str
    n_chains: int
    n_samples_total: int
    probe_index: int
    mpsrf: float
    iat: float            # pooled-equivalent: N_total / ESS_total
    ess: float
    msj: float
    acceptance_rate: float
    solves_total: int
    spis: float
    frozen_chains: int    # chains that accepted no proposal after burn-in
    tpis: float | None = None


def chain_statistics(chains, space, probe_index: int) -> ChainStatistics:
    """The statistics of a set of chains, burn-in already removed
    (``Chain.after_burn_in``)."""
    return ChainStatistics(
        n_chains=len(chains),
        n_samples_total=sum(ch.n_samples for ch in chains),
        probe_index=probe_index,
        mpsrf=mpsrf([ch.samples for ch in chains]) if len(chains) >= 2 else float("nan"),
        ess=sum(ess(ch.samples[:, probe_index]) for ch in chains),
        msj=float(np.mean([msj(ch.samples, space) for ch in chains])),
        acceptance_rate=float(np.mean(np.concatenate([ch.accepted for ch in chains]))),
        chain_solves=sum(int(ch.cum_solves[-1]) for ch in chains),
        frozen_chains=sum(not ch.accepted.any() for ch in chains),
    )


def charge(method: str, stats: ChainStatistics, setup_solves: int = 0,
           wall_time: float | None = None) -> DiagnosticsReport:
    """The report of one method's chain statistics, charged ``setup_solves``
    on top of the chains' own and, when given, ``wall_time``.

    The reported IAT is the pooled-equivalent value N_total/ESS_total
    (the N-weighted harmonic mean of per-chain IATs), so that
    ess == n_samples_total / iat holds exactly.
    """
    solves = setup_solves + stats.chain_solves
    return DiagnosticsReport(
        method=method,
        n_chains=stats.n_chains,
        n_samples_total=stats.n_samples_total,
        probe_index=stats.probe_index,
        mpsrf=stats.mpsrf,
        iat=stats.n_samples_total / stats.ess,
        ess=stats.ess,
        msj=stats.msj,
        acceptance_rate=stats.acceptance_rate,
        solves_total=solves,
        spis=solves / stats.ess,
        frozen_chains=stats.frozen_chains,
        tpis=None if wall_time is None else wall_time / stats.ess,
    )


def diagnostics_report(method: str, chains, space, probe_index: int,
                       setup_solves: int = 0,
                       wall_time: float | None = None) -> DiagnosticsReport:
    """Aggregate per-method diagnostics from a set of chains, burn-in
    already removed (``Chain.after_burn_in``): ``chain_statistics``,
    charged (``charge``)."""
    return charge(method, chain_statistics(chains, space, probe_index),
                  setup_solves, wall_time)
