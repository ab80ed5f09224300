"""Chain quality metrics: IAT, ESS, MSJ, MPSRF, solves per sample.

The integrated autocorrelation time of a scalar series is
tau = 1 + 2 sum_s rho(s). Sample autocorrelations are noise beyond the
decay of the true ones, so the sum is truncated: the estimator takes
the maximum of the partial sums over the initial window of positive
autocorrelations (capped at lag N/2, floored at 1).

Every function here reads chains whose burn-in is already removed
(``samplers.Chain.after_burn_in``); none of them trims.
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


def diagnostics_report(method: str, chains, space, probe_index: int,
                       setup_solves: int = 0,
                       wall_time: float | None = None) -> DiagnosticsReport:
    """Aggregate per-method diagnostics from a set of chains, burn-in
    already removed (``Chain.after_burn_in``).

    The reported IAT is the pooled-equivalent value N_total/ESS_total
    (the N-weighted harmonic mean of per-chain IATs), so that
    ess == n_samples_total / iat holds exactly.
    """
    n_total = sum(ch.n_samples for ch in chains)
    e_total = sum(ess(ch.samples[:, probe_index]) for ch in chains)
    solves = setup_solves + sum(int(ch.cum_solves[-1]) for ch in chains)
    return DiagnosticsReport(
        method=method,
        n_chains=len(chains),
        n_samples_total=n_total,
        probe_index=probe_index,
        mpsrf=mpsrf([ch.samples for ch in chains]) if len(chains) >= 2 else float("nan"),
        iat=n_total / e_total,
        ess=e_total,
        msj=float(np.mean([msj(ch.samples, space) for ch in chains])),
        acceptance_rate=float(np.mean(np.concatenate([ch.accepted for ch in chains]))),
        solves_total=solves,
        spis=solves / e_total,
        frozen_chains=sum(not ch.accepted.any() for ch in chains),
        tpis=None if wall_time is None else wall_time / e_total,
    )
