"""Posterior eigenstructure and sample-based marginal analysis.

The dense posterior Hessian at the MAP point is diagonalized in the M
inner product (M H is symmetric, so the generalized symmetric problem
(MH) v = lam M v yields M-orthonormal eigenvectors). Each eigenvalue
splits exactly into Rayleigh quotients of its eigenvector under the two
Hessian parts,

    lam_i = r_m(v_i) + r_p(v_i),
    r_m = <v, H_misfit v>_M / <v, v>_M,   r_p = <v, A v>_M / <v, v>_M,

taken from the matrices the eigensolve already holds (M H_misfit and K),
so the classification costs no solve; the discriminant
d = r_m^2 - r_p^2 orders directions from
data-dominated to prior-dominated. Eigenvectors are classified into four
groups: ``data_informed`` (d > 0); among the rest, ``prior_tail`` when
r_p exceeds the median prior quotient of the non-data group, ``shadowed``
when the vector's M-norm mass sits mostly outside the observed region,
and ``mixed`` otherwise.

Marginals are Gaussian kernel density estimates (Silverman bandwidth with
a small floor) of pooled chain samples: nodal values for point marginals,
M-weighted eigencoordinates <v_i, m - m0>_M for eigen-marginals, the
latter compared against the Gaussian that a quadratic expansion at the
MAP point would predict (mean <v_i, m_map - m0>_M, variance 1/lam_i).
Pooled eigencoordinates with no spread (frozen chains) give no density:
their marginal or pair surface is flagged degenerate instead of drawn as a
spike.

Working memory of the densities: ``kde_1d`` sums its kernel over blocks of
grid rows in one buffer of about 1 MB (``KDE_BLOCK_VALUES`` floats, or one
row when N exceeds that), and ``pair_density`` holds one grid_size x N
kernel matrix per axis, built in place. Neither holds the 401 x N
temporaries of a one-shot evaluation, and both give the same bits as one.
One helper (``_eigen_axis``) computes an eigen axis's coordinates,
bandwidth, Gaussian-at-MAP curve and grid for both the 1D marginals and
the 2D pair densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import LOCKSTEP_BLOCK_VALUES, ForwardModel
from .prior import GaussianPrior


def posterior_eigensystem(model: ForwardModel, prior: GaussianPrior,
                          m_map: np.ndarray):
    """Dense M-symmetric eigendecomposition of the Hessian at m_map.

    Builds the columns of the assembled misfit Hessian M H_misfit once (n
    actions, 2n linearized solves) as stacked actions at m_map: the
    model's ``stacked_hvp_raw`` with one row per column, all at this
    model, applied to the columns of the identity in blocks of
    ``LOCKSTEP_BLOCK_VALUES // (9 n)`` columns: each column of a block
    holds its own copy of the MAP state, about 9 n floats (the exp
    model's factor, 2 n, bands, 6 n, and e^m load(uv), n). Each column
    is bit for bit the batch-of-one action on it. The MAP state is formed
    first, by the batch of one, so a cold point cache pays one forward and
    one adjoint solve, not one per column. Adds the prior part,
    M H = M H_misfit + K. Returns (lam, V, MHm) with lam descending,
    V^T M V = I, and MHm the symmetrized M H_misfit, which
    ``classify_eigenvectors`` reuses.
    """
    n = prior.n
    MHm = np.empty((n, n))
    eye = np.eye(n)
    stacked_hvp_raw = type(model).stacked_hvp_raw
    stacked_hvp_raw([model], [m_map])
    width = max(1, LOCKSTEP_BLOCK_VALUES // (9 * n))
    for lo in range(0, n, width):
        cols = min(width, n - lo)
        MHm[:, lo:lo + cols] = stacked_hvp_raw([model] * cols, [m_map] * cols)(
            eye[:, lo:lo + cols])
    MHm = 0.5 * (MHm + MHm.T)
    lam, V = scipy.linalg.eigh(MHm + prior.K.dense(), prior.space.mass.dense())
    return lam[::-1], V[:, ::-1], MHm


@dataclass
class EigenRecord:
    index: int
    eigenvalue: float
    r_misfit: float
    r_prior: float
    discriminant: float
    norm_observed: float
    norm_unobserved: float
    group: str


def classify_eigenvectors(prior: GaussianPrior, MHm: np.ndarray, lam: np.ndarray,
                          V: np.ndarray, observed_mask: np.ndarray) -> list[EigenRecord]:
    """Rayleigh-quotient classification; records sorted by descending d.

    MHm is the symmetric M H_misfit that ``posterior_eigensystem`` returns,
    so r_m = v^T MHm v and r_p = v^T K v over v^T M v cost no solve. The
    quotients and norms of all columns v of V are a few whole-block calls:
    one gemv per column for MHm v (``np.matvec``), the tridiagonal products
    on V, and one dot per column (``np.vecdot``).
    """
    mask = np.asarray(observed_mask, dtype=bool)[:, None]
    M = prior.space.mass

    def quad(A, X: np.ndarray) -> list[float]:
        """v^T A v of each column v of X, with A a Tridiagonal."""
        return np.vecdot(X.T, A.matvec(X).T).tolist()

    r_misfit = np.vecdot(V.T, np.matvec(MHm, V.T)).tolist()
    records = []
    for i, (vmv, vmhv, vkv, obs, un) in enumerate(zip(
            quad(M, V), r_misfit, quad(prior.K, V),
            quad(M, np.where(mask, V, 0.0)), quad(M, np.where(mask, 0.0, V)))):
        r_m, r_p = vmhv / vmv, vkv / vmv
        records.append(EigenRecord(
            index=i, eigenvalue=float(lam[i]), r_misfit=r_m, r_prior=r_p,
            discriminant=r_m**2 - r_p**2, norm_observed=math.sqrt(max(obs, 0.0)),
            norm_unobserved=math.sqrt(max(un, 0.0)), group=""))
    non_data = [rec for rec in records if rec.discriminant <= 0.0]
    rp_median = float(np.median([rec.r_prior for rec in non_data])) if non_data else 0.0
    for rec in records:
        if rec.discriminant > 0.0:
            rec.group = "data_informed"
        elif rec.r_prior > rp_median:
            rec.group = "prior_tail"
        elif rec.norm_unobserved >= rec.norm_observed:
            rec.group = "shadowed"
        else:
            rec.group = "mixed"
    records.sort(key=lambda rec: rec.discriminant, reverse=True)
    return records


# -- kernel density estimates --------------------------------------------

GRID_POINTS = 401                    # 1D marginal grids
KDE_BLOCK_VALUES = 1 << 17           # kernel buffer of kde_1d: 1 MB of floats
MASS_FRACTIONS = (0.05, 0.50, 0.95)  # contour levels of a pair density


def silverman_bandwidth(x: np.ndarray, floor: float = 0.0) -> float:
    """0.9 min(std, IQR/1.34) N^{-1/5}, floored."""
    x = np.asarray(x, dtype=float)
    n = max(x.size, 2)
    std = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    scales = [s for s in (std, iqr / 1.34) if s > 0.0]
    h = 0.9 * min(scales) * n ** (-0.2) if scales else 0.0
    return max(h, floor)


@dataclass
class MarginalCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    degenerate: bool = False   # samples with zero spread; density is nan


def default_grid(x: np.ndarray, h: float) -> np.ndarray:
    lo = float(np.min(x)) - 5.0 * h
    hi = float(np.max(x)) + 5.0 * h
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, GRID_POINTS)


def _gaussian_kernel(grid: np.ndarray, x: np.ndarray, h: float,
                     out: np.ndarray) -> np.ndarray:
    """exp(-0.5 ((grid_a - x_b) / h)^2) into ``out`` (len(grid) x len(x)),
    in place, step by step as the one-shot expression rounds it."""
    np.subtract(grid[:, None], x[None, :], out=out)
    out /= h
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def kde_1d(x: np.ndarray, grid: np.ndarray | None = None,
           bandwidth: float | None = None) -> MarginalCurve:
    """Gaussian KDE of x on ``grid``.

    The kernel sum runs over blocks of grid rows in one reused buffer of
    about ``KDE_BLOCK_VALUES`` floats (at least one row of len(x)), so the
    working set does not grow with the grid. Each row is still one
    pairwise sum over all of x, so the density is bit-identical to the
    one-shot (grid x N) evaluation.
    """
    x = np.asarray(x, dtype=float)
    if bandwidth is None:
        span_floor = 1e-6 * (float(np.max(x) - np.min(x)) or 1.0)
        bandwidth = silverman_bandwidth(x, floor=max(span_floor, 1e-12))
    if grid is None:
        grid = default_grid(x, bandwidth)
    rows = max(1, KDE_BLOCK_VALUES // max(x.size, 1))
    buf = np.empty((min(rows, grid.size), x.size))
    density = np.empty(grid.size)
    for lo in range(0, grid.size, rows):
        block = grid[lo:lo + rows]
        kernel = _gaussian_kernel(block, x, bandwidth, buf[:block.size])
        kernel.sum(axis=1, out=density[lo:lo + block.size])
    density /= x.size * bandwidth * np.sqrt(2.0 * np.pi)
    return MarginalCurve(grid=grid, density=density, bandwidth=bandwidth)


def gaussian_curve(mean: float, variance: float, grid: np.ndarray) -> MarginalCurve:
    sd = float(np.sqrt(variance))
    density = np.exp(-0.5 * ((grid - mean) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
    return MarginalCurve(grid=grid, density=density, bandwidth=0.0)


def point_marginal(pooled_samples: np.ndarray, node_index: int,
                   grid: np.ndarray | None = None) -> MarginalCurve:
    """KDE of the pooled chain values at one mesh node."""
    return kde_1d(np.asarray(pooled_samples)[:, node_index], grid=grid)


def eigen_coordinates(samples: np.ndarray, v: np.ndarray, m0: np.ndarray,
                      space) -> np.ndarray:
    """<v, m - m0>_M for each sample row."""
    return (np.asarray(samples) - m0) @ space.mass.matvec(v)


def _eigen_axis(pooled_samples: np.ndarray, v: np.ndarray, lam: float,
                m_map: np.ndarray, prior: GaussianPrior, widths: float,
                n_points: int) -> tuple[np.ndarray, float, MarginalCurve]:
    """Eigencoordinates of the samples along v, their Silverman bandwidth
    (floored at 1e-12) and the Gaussian-at-MAP curve, on a grid that
    reaches ``widths`` bandwidths past the samples and ``widths``
    standard deviations past the Gaussian's mean."""
    space = prior.space
    coords = eigen_coordinates(pooled_samples, v, prior.mean, space)
    h = silverman_bandwidth(coords, floor=1e-12)
    g_mean = float(space.inner(v, m_map - prior.mean))
    g_var = 1.0 / float(lam)
    g_sd = np.sqrt(g_var)
    grid = np.linspace(min(coords.min() - widths * h, g_mean - widths * g_sd),
                       max(coords.max() + widths * h, g_mean + widths * g_sd), n_points)
    return coords, h, gaussian_curve(g_mean, g_var, grid)


def eigen_marginal(pooled_samples: np.ndarray, v: np.ndarray, lam: float,
                   m_map: np.ndarray,
                   prior: GaussianPrior) -> tuple[MarginalCurve, MarginalCurve]:
    """KDE of an eigencoordinate plus its Gaussian-at-MAP reference.

    The KDE uses the axis's bandwidth. When every eigencoordinate is the
    same number (all chains frozen at one point) there is no density to
    estimate at the grid's resolution: the curve is flagged ``degenerate``
    and its density is nan, not a spike of the floored bandwidth.
    """
    coords, h, gauss = _eigen_axis(pooled_samples, v, lam, m_map, prior, 5.0,
                                   GRID_POINTS)
    if coords.min() == coords.max():
        return MarginalCurve(grid=gauss.grid, density=np.full_like(gauss.grid, np.nan),
                             bandwidth=h, degenerate=True), gauss
    return kde_1d(coords, grid=gauss.grid, bandwidth=h), gauss


@dataclass
class PairDensity:
    x_grid: np.ndarray
    y_grid: np.ndarray
    density: np.ndarray           # shape (len(x_grid), len(y_grid))
    levels: dict                  # mass fraction -> density level
    gauss_density: np.ndarray
    gauss_levels: dict
    bandwidths: tuple
    degenerate: bool = False      # an axis with zero spread; density and levels are nan


def mass_levels(density: np.ndarray, cell_area: float) -> dict:
    """Density levels whose superlevel sets hold the ``MASS_FRACTIONS``."""
    flat = np.sort(density.ravel())[::-1]
    cum = np.cumsum(flat) * cell_area
    total = cum[-1]
    out = {}
    for frac in MASS_FRACTIONS:
        idx = int(np.searchsorted(cum, frac * total))
        out[frac] = float(flat[min(idx, flat.size - 1)])
    return out


def pair_density(pooled_samples: np.ndarray, vi: np.ndarray, vj: np.ndarray,
                 lam_i: float, lam_j: float, m_map: np.ndarray,
                 prior: GaussianPrior, grid_size: int = 96) -> PairDensity:
    """2D product-kernel KDE of two eigencoordinates with mass contours.

    Contour levels enclose 5/50/95% of the estimated mass; the analogous
    Gaussian-at-MAP surface and levels come from the quadratic expansion
    (independent coordinates with variances 1/lam). Each axis's kernel
    matrix (grid_size x N) is built in place, so one such array is live per
    axis. When either axis's eigencoordinates have no spread (frozen
    chains) the surface is flagged ``degenerate`` and its density and
    levels are nan, as in ``eigen_marginal``.
    """
    ci, hi, gi = _eigen_axis(pooled_samples, vi, lam_i, m_map, prior, 4.0, grid_size)
    cj, hj, gj = _eigen_axis(pooled_samples, vj, lam_j, m_map, prior, 4.0, grid_size)
    x_grid, y_grid = gi.grid, gj.grid
    gauss = np.outer(gi.density, gj.density)
    area = float((x_grid[1] - x_grid[0]) * (y_grid[1] - y_grid[0]))
    degenerate = bool(ci.min() == ci.max() or cj.min() == cj.max())
    if degenerate:
        density = np.full((x_grid.size, y_grid.size), np.nan)
        levels = dict.fromkeys(MASS_FRACTIONS, np.nan)
    else:
        zx = _gaussian_kernel(x_grid, ci, hi, np.empty((x_grid.size, ci.size)))
        zy = _gaussian_kernel(y_grid, cj, hj, np.empty((y_grid.size, cj.size)))
        density = zx @ zy.T / (ci.size * 2.0 * np.pi * hi * hj)
        levels = mass_levels(density, area)
    return PairDensity(x_grid=x_grid, y_grid=y_grid, density=density, levels=levels,
                       gauss_density=gauss, gauss_levels=mass_levels(gauss, area),
                       bandwidths=(hi, hj), degenerate=degenerate)
