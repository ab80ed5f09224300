"""Low-rank posterior Hessian approximation and its fast operators.

With the prior covariance factored as Gamma = L L*, a full Hessian of the
negative log posterior splits as

    H = H_misfit + A = L^{-*} (L* H_misfit L + I) L^{-1}.

The prior-preconditioned misfit Hessian Ht = L* H_misfit L is self-adjoint
in the M inner product and typically has a rapidly decaying spectrum. With
the prior's factor L = C^{-1} R (K = C^T C, M = R^T R; see ``prior``), the
whitened coordinates z = R x turn it into the Euclidean-symmetric

    T = R Ht R^{-1} = C^{-T} (M H_misfit) C^{-1},

with the same eigenvalues, and ||z|| = ||x||_M. M H_misfit is the
assembled action the model's ``misfit_hvp_raw`` returns, so an action of T
is two bidiagonal solves around it, with no mass solve or mass product.
Lanczos runs on T with plain dot products and gives T ≈ Z diag(lam) Z^T
with orthonormal Z; the M-orthonormal eigenvectors of Ht are V = R^{-1} Z.
Writing D = diag(lam_i / (lam_i + 1)) and E = diag((lam_i + 1)^{-1/2} - 1),
the retained pairs yield matrix-free

    H^{-1}  x = C^{-1} (I - Z D Z^T) C^{-T} M x   (+ O(sum_{i>r} lam_i/(lam_i+1)))
    H^{-1/2}x = C^{-1} (I + Z E Z^T) R x
    H       x = M^{-1} C^T (I + Z diag(lam) Z^T) C x
    <d, H d>_M = ||C d||^2 + sum_i lam_i (Z^T C d)_i^2
    log det H^{1/2} = -log det L + 1/2 sum_i log(lam_i + 1)

where only the state-dependent half log-determinant (the sum) is stored;
the det L part is shared by every Hessian built from the same prior and
cancels in acceptance ratios. H^{-1/2} composes exactly:
H^{-1} = H^{-1/2} (H^{-1/2})*. A draw from N(mean, H^{-1}) is
H^{-1/2} applied to R^{-1} n, n ~ N(0, I), where R cancels:

    mean + C^{-1} (I + Z E Z^T) n.

Negative and numerically tiny Ritz values are discarded. When nothing
survives (rank 0) every operator degenerates to its prior counterpart:
H^{-1} -> Gamma, H^{-1/2} -> L, H -> A, log det term -> 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .fem import bidiagonal_matvec, bidiagonal_solve
from .models import ForwardModel
from .prior import GaussianPrior

logger = logging.getLogger(__name__)

EIG_FLOOR = 1e-10


def _c_inv_adj_m(prior: GaussianPrior, x: np.ndarray) -> np.ndarray:
    """C^{-T} M x, which is R L* x."""
    return bidiagonal_solve(prior.C, prior.space.mass.matvec(x), trans=True)


def _whitened_misfit_hvp(model: ForwardModel, prior: GaussianPrior, m: np.ndarray,
                         z: np.ndarray) -> np.ndarray:
    """T z = C^{-T} (M H_misfit(m)) C^{-1} z: one assembled misfit Hessian action."""
    MHx = model.misfit_hvp_raw(m, bidiagonal_solve(prior.C, z))
    return bidiagonal_solve(prior.C, MHx, trans=True)


@dataclass
class LowRankHessian:
    """Retained eigenpairs of the preconditioned misfit Hessian at m_ref."""

    prior: GaussianPrior
    m_ref: np.ndarray
    Z: np.ndarray          # (n, r), orthonormal Ritz vectors of T (z = R x)
    lam: np.ndarray        # (r,), positive, descending
    lanczos_iters: int = 0
    deflations: int = 0

    @property
    def rank(self) -> int:
        return self.lam.size

    @property
    def V(self) -> np.ndarray:
        """M-orthonormal eigenvectors of L* H_misfit L, R^{-1} Z."""
        return bidiagonal_solve(self.prior.space.R, self.Z)

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """H^{-1} x = C^{-1} (I - Z D Z^T) C^{-T} M x."""
        y = _c_inv_adj_m(self.prior, x)
        if self.rank:
            y = y - self.Z @ ((self.lam / (self.lam + 1.0)) * (self.Z.T @ y))
        return bidiagonal_solve(self.prior.C, y)

    def _inv_sqrt_core(self, y: np.ndarray) -> np.ndarray:
        """(I + Z E Z^T) y, the whitened middle factor of H^{-1/2}."""
        if self.rank:
            y = y + self.Z @ (((self.lam + 1.0) ** -0.5 - 1.0) * (self.Z.T @ y))
        return y

    def apply_inv_sqrt(self, x: np.ndarray) -> np.ndarray:
        """H^{-1/2} x = C^{-1} (I + Z E Z^T) R x."""
        y = self._inv_sqrt_core(bidiagonal_matvec(self.prior.space.R, x))
        return bidiagonal_solve(self.prior.C, y)

    def apply_inv_sqrt_adj(self, x: np.ndarray) -> np.ndarray:
        """(H^{-1/2})* x = R^{-1} (I + Z E Z^T) C^{-T} M x; composition with
        apply_inv_sqrt gives H^{-1}."""
        y = self._inv_sqrt_core(_c_inv_adj_m(self.prior, x))
        return bidiagonal_solve(self.prior.space.R, y)

    def apply_H(self, x: np.ndarray) -> np.ndarray:
        """H x = M^{-1} C^T (I + Z diag(lam) Z^T) C x."""
        y = bidiagonal_matvec(self.prior.C, x)
        if self.rank:
            y = y + self.Z @ (self.lam * (self.Z.T @ y))
        return self.prior.space.solve(bidiagonal_matvec(self.prior.C, y, trans=True))

    def quad(self, d: np.ndarray) -> float:
        """<d, H d>_M = ||C d||^2 + sum_i lam_i (Z^T C d)_i^2, without forming H d."""
        z = bidiagonal_matvec(self.prior.C, d)
        out = float(z @ z)
        if self.rank:
            c = self.Z.T @ z
            out += float(c @ (self.lam * c))
        return out

    def half_logdet_rel(self) -> float:
        """State-dependent part of log det H^{1/2}: 1/2 sum log(lam_i + 1)."""
        return 0.5 * float(np.sum(np.log1p(self.lam))) if self.rank else 0.0

    def draw(self, rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
        """Sample N(mean, H^{-1}): mean + C^{-1} (I + Z E Z^T) n with
        n ~ N(0, I), which is H^{-1/2} (R^{-1} n) without the R round trip."""
        n = rng.standard_normal(self.prior.n)
        return mean + bidiagonal_solve(self.prior.C, self._inv_sqrt_core(n))

    def residuals(self, model: ForwardModel) -> np.ndarray:
        """Eigen-residuals ||Ht v_i - lam_i v_i||_M = ||T z_i - lam_i z_i||
        for the retained pairs.

        Costs extra Hessian actions; meant for verification, never called
        inside the build (which must stay at exactly 2(r+l) solves).
        """
        res = np.empty(self.rank)
        for i in range(self.rank):
            z = self.Z[:, i]
            Tz = _whitened_misfit_hvp(model, self.prior, self.m_ref, z)
            res[i] = np.linalg.norm(Tz - self.lam[i] * z)
        return res


def build_lowrank(model: ForwardModel, prior: GaussianPrior, m: np.ndarray,
                  r: int, l: int, rng: np.random.Generator) -> LowRankHessian:
    """Lanczos on the whitened preconditioned misfit Hessian T at m.

    Runs exactly r + l iterations (one Hessian action each, i.e. exactly
    2(r+l) linearized solves), with full Euclidean reorthogonalization,
    then keeps the top r Ritz pairs whose values pass the positivity
    floor. If the Krylov space is exhausted early (the operator has
    numerically low rank), a fresh random direction is injected so the
    iteration count -- and with it the solve count -- never changes.
    """
    n = prior.n
    k = int(r) + int(l)
    if r < 1 or l < 0:
        raise ValueError("need r >= 1 and l >= 0")
    if k > n:
        raise ValueError("r + l must not exceed the parameter dimension")
    Q = np.empty((k, n))               # Lanczos vectors as rows
    W = np.empty((k, n))               # their images under T

    def orthonormalize(w: np.ndarray, j: int) -> tuple[np.ndarray, float]:
        # two passes of full block Gram-Schmidt against Q[:j]
        for _ in range(2):
            if j:
                w = w - (Q[:j] @ w) @ Q[:j]
        return w, float(np.sqrt(w @ w))

    def fresh_direction(j: int) -> np.ndarray:
        for _ in range(3):
            raw = rng.standard_normal(n)
            w, beta = orthonormalize(raw, j)
            if beta > 1e-10 * np.sqrt(raw @ raw):
                return w / beta
        raise NumericalError("Lanczos could not find a new direction after 3 restarts")

    Q[0] = fresh_direction(0)
    op_scale = 0.0
    deflations = 0
    for j in range(k):
        w = _whitened_misfit_hvp(model, prior, m, Q[j])
        W[j] = w
        op_scale = max(op_scale, float(np.sqrt(w @ w)))
        if j + 1 == k:
            break
        w_orth, beta = orthonormalize(w, j + 1)
        if beta <= 1e-11 * max(1.0, op_scale):
            # invariant subspace reached; continue in its orthogonal complement
            deflations += 1
            Q[j + 1] = fresh_direction(j + 1)
        else:
            Q[j + 1] = w_orth / beta
    G = Q @ W.T                         # Rayleigh-Ritz projection of T
    G = 0.5 * (G + G.T)
    theta, S = scipy.linalg.eigh(G)
    order = np.argsort(theta)[::-1]
    theta, S = theta[order], S[:, order]
    floor = EIG_FLOOR * max(1.0, theta[0] if theta.size else 0.0)
    keep = np.flatnonzero(theta > floor)[:r]
    if keep.size == 0:
        logger.warning("no positive Hessian eigenvalues retained at this point; "
                       "operators fall back to the prior covariance")
        Z = np.zeros((n, 0))
        lam = np.zeros(0)
    else:
        lam = theta[keep]
        Z = Q.T @ S[:, keep]
    return LowRankHessian(prior=prior, m_ref=np.asarray(m, dtype=float).copy(),
                          Z=Z, lam=lam, lanczos_iters=k, deflations=deflations)
