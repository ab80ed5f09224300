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
assembled action the model's ``stacked_hvp_raw`` returns, so an action of
T is two bidiagonal solves around it, with no mass solve or mass product;
the build binds the model's action and C once and makes r + l of them.
``build_lowrank`` builds at a batch of points (one per chain) in
lockstep: each iteration makes one stacked action between two multi-RHS
bidiagonal solves, and one batched Gram-Schmidt, for every point at once.
The build at one point (the pipeline's MAP Hessian, the pilot) is the
batch of one of the same code, and each point's pairs, and its worker's
solve count, are bit-identical to it.
The proposal algebra (``apply_inv``, ``quad``, ``fluctuation`` and
``half_logdet_rel``) takes a vector or a block of rows, one per chain
that shares this Hessian, or one per chain and step of a block drawn
ahead; on a stacked Hessian (``stacked``: g Hessians of one rank, such
as the candidates of one build), one row per Hessian. Each row goes
through its own gemv calls (np.matvec with the transposed view Z.mT as
it is), so every row is bit-identical to the one-vector call of its
Hessian. A build forms the Ritz vectors of all its points of one rank
in one stacked matmul, and each point's Z is a view of that one array.
Lanczos runs on T with plain dot products and full reorthogonalization;
its coefficients form a (r + l) x (r + l) tridiagonal, whose eigenpairs
(one LAPACK dstemr call, MRRR) are the Ritz pairs. They give
T ≈ Z diag(lam) Z^T with orthonormal Z = Q^T S, Q the Lanczos basis and S
the tridiagonal's eigenvectors; the M-orthonormal eigenvectors of Ht are
V = R^{-1} Z.
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

    mean + C^{-1} (I + Z E Z^T) n,

the mean plus ``fluctuation(n)``, which is the one draw path: the caller
draws the normals n from its own stream.

Negative and numerically tiny Ritz values are discarded. When nothing
survives (rank 0) every operator degenerates to its prior counterpart:
H^{-1} -> Gamma, H^{-1/2} -> L, H -> A, log det term -> 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstemr

from .errors import NumericalError
from .fem import bidiagonal_matvec, bidiagonal_solve
from .models import ForwardModel
from .prior import GaussianPrior

logger = logging.getLogger(__name__)

EIG_FLOOR = 1e-10


def _c_inv_adj_m(prior: GaussianPrior, x: np.ndarray) -> np.ndarray:
    """C^{-T} M x, which is R L* x, of a vector or of each row of a block."""
    return bidiagonal_solve(prior.C, prior.space.mass.matvec(x.T), trans=True).T


def _whitened_operator(workers: list[ForwardModel], prior: GaussianPrior,
                       points: list[np.ndarray]):
    """Z -> rows T_i Z[i] = C^{-T} (M H_misfit(m_i)) C^{-1} Z[i] for a (c, n)
    block Z: one stacked assembled misfit Hessian action between two
    multi-RHS bidiagonal solves, with the action and C bound once."""
    hvp_raw, C = type(workers[0]).stacked_hvp_raw(workers, points), prior.C

    def apply(Z: np.ndarray) -> np.ndarray:
        return bidiagonal_solve(C, hvp_raw(bidiagonal_solve(C, Z.T)), trans=True).T
    return apply


@dataclass
class LowRankHessian:
    """Retained eigenpairs of the preconditioned misfit Hessian at a point.

    Stacked (``stacked``), it holds g Hessians of one rank, Z (g, n, r) and
    lam (g, r), and its proposal algebra takes a block of g
    rows, row i through Hessian i. The Hessians of one build's points of
    one rank share one allocation: each Z is a view of their stacked Ritz
    vectors, which stay alive while any of them does."""

    prior: GaussianPrior
    Z: np.ndarray          # (n, r), orthonormal Ritz vectors of T (z = R x)
    lam: np.ndarray        # (r,), positive, descending
    lanczos_iters: int = 0
    deflations: int = 0

    def __post_init__(self):
        self._D = self.lam / (self.lam + 1.0)
        self._E = (self.lam + 1.0) ** -0.5 - 1.0

    @property
    def rank(self) -> int:
        return self.lam.shape[-1]

    def apply_inv(self, x: np.ndarray) -> np.ndarray:
        """H^{-1} x = C^{-1} (I - Z D Z^T) C^{-T} M x, of a vector or of each
        row of a block."""
        y = _c_inv_adj_m(self.prior, x)
        if self.rank:
            y = y - np.matvec(self.Z, self._D * np.matvec(self.Z.mT, y))
        return bidiagonal_solve(self.prior.C, y.T).T

    def _inv_sqrt_core(self, y: np.ndarray) -> np.ndarray:
        """(I + Z E Z^T) y, the whitened middle factor of H^{-1/2}, of a
        vector or of each row of a block."""
        if self.rank:
            y = y + np.matvec(self.Z, self._E * np.matvec(self.Z.mT, y))
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

    def quad(self, d: np.ndarray) -> float | np.ndarray:
        """<d, H d>_M = ||C d||^2 + sum_i lam_i (Z^T C d)_i^2, without forming
        H d, of a vector or of each row of a block."""
        z = bidiagonal_matvec(self.prior.C, d.T).T
        out = np.vecdot(z, z)
        if self.rank:
            c = np.matvec(self.Z.mT, z)
            out = out + np.vecdot(c, self.lam * c)
        return out

    def half_logdet_rel(self) -> float | np.ndarray:
        """State-dependent part of log det H^{1/2}: 1/2 sum log(lam_i + 1);
        stacked, that of each Hessian."""
        out = 0.5 * np.sum(np.log1p(self.lam), axis=-1)
        return float(out) if out.ndim == 0 else out

    def fluctuation(self, n: np.ndarray) -> np.ndarray:
        """C^{-1} (I + Z E Z^T) n, which is H^{-1/2} (R^{-1} n) without the R
        round trip: the part of a draw from N(mean, H^{-1}) that the normals
        n make, of a vector or of each row of a block."""
        return bidiagonal_solve(self.prior.C, self._inv_sqrt_core(n).T).T


def stacked(hessians: list[LowRankHessian]) -> LowRankHessian:
    """Hessians of one rank as one stacked Hessian (a copy of their Z and
    lam), whose proposal algebra on a block takes row i through
    hessians[i], each row bit for bit that Hessian's own call (np.matvec
    runs one gemv per row)."""
    return LowRankHessian(hessians[0].prior, np.array([h.Z for h in hessians]),
                          np.array([h.lam for h in hessians]))


def _orthonormalize(w: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows w[i] of a (c, n) block after two passes of full block
    Gram-Schmidt against the rows of Q[i] (Q is (c, j, n)), and their
    norms. np.matvec, np.vecmat and np.vecdot run each row's gemv and dot
    calls, bit for bit those of Q[i] @ w[i] alone."""
    for _ in range(2):
        if Q.shape[1]:
            w = w - np.vecmat(np.matvec(Q, w), Q)
    return w, np.sqrt(np.vecdot(w, w))


def build_lowrank(workers: list[ForwardModel], prior: GaussianPrior,
                  points: list[np.ndarray], r: int, l: int,
                  rngs: list[np.random.Generator]) -> list:
    """Lanczos on the whitened preconditioned misfit Hessian T at each point,
    all points in lockstep; returns one LowRankHessian per point, or the
    NumericalError that stopped that point's build.

    Chain i uses ``workers[i]`` and ``rngs[i]`` alone. Each build runs
    exactly r + l iterations (one Hessian action each, i.e. exactly 2(r+l)
    linearized solves), with full Euclidean reorthogonalization, keeping
    the Lanczos coefficients alpha_j = q_j^T T q_j and beta_j = ||w_perp||;
    it then keeps the top r Ritz pairs of their tridiagonal whose values
    pass the positivity floor. If the Krylov space is exhausted early (the
    operator has numerically low rank), a fresh random direction is
    injected, with beta_j = 0 where it enters, so the iteration count --
    and with it the solve count -- never changes. A point that finds no
    fresh direction in three draws gets its NumericalError at once, and
    a point whose tridiagonal eigensolve fails gets its own; every point
    stays in the batch to the end (a failed one on zero directions), so
    the batch is fixed from the first iteration to the last and each
    point, failed or not, makes its 2(r+l) solves.

    The c builds share their calls: one stacked Hessian action, one pair of
    multi-RHS bidiagonal solves and one batched Gram-Schmidt per
    iteration, and one for the fresh directions that points draw at the
    same iteration; the tridiagonal eigensolve stays per point, and the
    Ritz vectors of the points of each rank are one stacked matmul, of
    which each point's Z is a view. The blocks do not
    mix, so each result, and each worker's counter, is bit-identical to
    the build of that point alone (the batch of one). The Krylov basis
    holds c (r + l) n floats. A point whose state cannot be formed raises
    NumericalError for the batch (see ``ForwardModel.stacked_hvp_raw``),
    and a non-finite coefficient raises ValueError for the batch; the
    samplers build only at points whose gradient they have formed. An
    empty batch returns an empty list.
    """
    n = prior.n
    k = int(r) + int(l)
    if r < 1 or l < 0:
        raise ValueError("need r >= 1 and l >= 0")
    if k > n:
        raise ValueError("r + l must not exceed the parameter dimension")
    c = len(workers)
    if not c:
        return []
    results: list = [None] * c          # a point's NumericalError as soon as its build fails
    Q = np.empty((c, k, n))             # Lanczos vectors as rows, one stack per point
    alpha = np.empty((c, k))            # the tridiagonal of each point: its diagonal,
    beta = np.zeros((c, k))             # and its off-diagonal (the last entry unused)
    op_scale = np.ones(c)               # largest |T q| so far, and at least 1, per point
    deflations = [0] * c

    def fresh_directions(rows: list[int], j: int) -> None:
        """Q[i, j] for each row i: a random unit vector orthogonal to
        Q[i, :j], drawn from its point's stream, with the rows of one draw
        orthonormalised in one call. A row whose draw falls in the span of
        its basis draws again; a point that finds no direction in three
        draws gets its NumericalError and zero directions from there on."""
        draws = 0
        while rows and draws < 3:
            raw = np.array([rngs[i].standard_normal(n) for i in rows])
            # when every row draws (a batch of one among them) its basis is a view
            w, norms = _orthonormalize(raw, Q[:, :j] if len(rows) == c else Q[rows, :j])
            found = (norms > 1e-10 * np.sqrt(np.vecdot(raw, raw))).tolist()
            for i, x, b, f in zip(rows, w, norms.tolist(), found):
                if f:
                    Q[i, j] = x / b
            rows, draws = [i for i, f in zip(rows, found) if not f], draws + 1
        for i in rows:
            results[i] = NumericalError("Lanczos could not find a new direction after 3 restarts")
            Q[i, j:] = 0.0

    fresh_directions(list(range(c)), 0)
    T = _whitened_operator(workers, prior, points)
    for j in range(k):
        w = T(Q[:, j])
        alpha[:, j] = np.vecdot(Q[:, j], w)
        if j + 1 == k:
            break
        w_orth, norms = _orthonormalize(w, Q[:, :j + 1])
        beta[:, j] = norms
        np.maximum(op_scale, np.sqrt(np.vecdot(w, w)), out=op_scale)
        spent = (norms <= 1e-11 * op_scale).tolist()
        if not any(spent):
            np.divide(w_orth.T, norms, out=Q[:, j + 1].T)
            continue
        # invariant subspace reached (a failed point's zero direction always
        # is); continue in its orthogonal complement
        for i, s in enumerate(spent):
            if s:
                deflations[i] += 1
                beta[i, j] = 0.0
            else:
                Q[i, j + 1] = w_orth[i] / norms[i]
        fresh_directions([i for i, s in enumerate(spent) if s and results[i] is None], j + 1)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("array must not contain infs or NaNs")
    by_rank: dict[int, list[int]] = {}
    pairs = [_ritz_pairs(alpha[i], beta[i], r) if results[i] is None else results[i]
             for i in range(c)]
    for i, pair in enumerate(pairs):
        if isinstance(pair, NumericalError):
            results[i] = pair
        else:
            by_rank.setdefault(pair[0].size, []).append(i)
    for rows in by_rank.values():
        basis = Q if len(rows) == c else Q[rows]
        Z = np.matmul(basis.mT, np.array([pairs[i][1] for i in rows]))
        for g, i in enumerate(rows):
            results[i] = LowRankHessian(prior, Z[g], pairs[i][0], k, deflations[i])
    return results


def _ritz_pairs(alpha: np.ndarray, beta: np.ndarray,
                r: int) -> tuple[np.ndarray, np.ndarray] | NumericalError:
    """The top r Ritz values of T on a Krylov basis, and their eigenvectors
    of its Lanczos tridiagonal (diagonal alpha, off-diagonal beta[:-1];
    dstemr overwrites beta) as columns, or the NumericalError of a failed
    eigensolve."""
    _, theta, S, info = dstemr(alpha, beta, 0, 0.0, 0.0, 0, 0, compute_v=1)
    if info:
        return NumericalError(f"tridiagonal eigensolve (dstemr) failed with info {info}")
    theta, S = theta[::-1], S[:, ::-1]  # descending
    floor = EIG_FLOOR * max(1.0, theta[0])
    keep = np.flatnonzero(theta > floor)[:r]
    if keep.size == 0:
        logger.warning("no positive Hessian eigenvalues retained at this point; "
                       "operators fall back to the prior covariance")
    return theta[keep], S[:, keep]
