"""Gaussian prior with an elliptic-operator precision.

The prior on the parameter field is N(m0, Gamma) with covariance
Gamma = A^{-1}, where A = M^{-1} K and K is the stiffness matrix of
-a d²/dx² + b with natural boundary conditions. The log density (up to a
constant) is

    log pi0(m) = -1/2 <m - m0, A (m - m0)>_M = -1/2 (m - m0)^T K (m - m0).

A square-root factorization Gamma = L L* is built once from the dense
generalized eigenproblem K v = lam M v with V^T M V = I:

    L = V diag(lam^{-1/2}) V^T M,

which is self-adjoint in the M inner product (L* = L). Samples are
m0 + L ñ with ñ = R^{-1} n, n ~ N(0, I), R^T R = M.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .fem import Mesh1D, WeightedSpace, assemble_mass, assemble_stiffness


class GaussianPrior:
    def __init__(self, mesh: Mesh1D, space: WeightedSpace, a: float, b: float,
                 mean: np.ndarray):
        self.mesh = mesh
        self.space = space
        self.a = float(a)
        self.b = float(b)
        self.mean = np.asarray(mean, dtype=float)
        if self.mean.shape != (space.n,):
            raise ValueError("prior mean must be a nodal vector")
        self.K = assemble_stiffness(mesh, a, b).dense()
        # K v = lam M v, eigenvectors M-orthonormal (V^T M V = I)
        lam, V = scipy.linalg.eigh(self.K, self.space.M)
        if lam[0] <= 0.0:
            raise ValueError("precision operator is not positive definite")
        self.lam = lam
        self.V = V
        self._Vt_M = V.T @ self.space.M

    @property
    def n(self) -> int:
        return self.space.n

    def _modes(self, x: np.ndarray, power: float) -> np.ndarray:
        """Apply V diag(lam^power) V^T M to a vector (or to columns)."""
        y = self._Vt_M @ x
        scale = self.lam ** power
        return self.V @ (scale * y if x.ndim == 1 else scale[:, None] * y)

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """Precision operator A = M^{-1} K."""
        return self._modes(x, 1.0)

    def apply_covariance(self, x: np.ndarray) -> np.ndarray:
        """Covariance operator Gamma = A^{-1} = K^{-1} M."""
        return self._modes(x, -1.0)

    def apply_L(self, x: np.ndarray) -> np.ndarray:
        """Covariance square root, Gamma = L L*. Self-adjoint in <.,.>_M."""
        return self._modes(x, -0.5)

    def apply_L_adj(self, x: np.ndarray) -> np.ndarray:
        return self._modes(x, -0.5)

    def apply_L_inv(self, x: np.ndarray) -> np.ndarray:
        return self._modes(x, 0.5)

    def apply_L_inv_adj(self, x: np.ndarray) -> np.ndarray:
        return self._modes(x, 0.5)

    def log_density(self, m: np.ndarray) -> float:
        """-1/2 <m - m0, A(m - m0)>_M, no normalization constant."""
        d = m - self.mean
        return -0.5 * float(d @ (self.K @ d))

    def sample_from_noise(self, noise: np.ndarray) -> np.ndarray:
        """Deterministic map of whitened noise to a sample: m0 + L noise."""
        if noise.ndim == 1:
            return self.mean + self.apply_L(noise)
        return self.mean + self._modes(noise.T, -0.5).T

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw from N(m0, Gamma); rows are samples when size is given."""
        noise = self.space.white_noise(rng, size=size)
        return self.sample_from_noise(noise)

    def pointwise_variance(self) -> np.ndarray:
        """Variance of the nodal values, diag(K^{-1})."""
        Kinv_diag = np.einsum("ij,ij->i", self.V, self.V / self.lam)
        return Kinv_diag

    def pointwise_std(self) -> np.ndarray:
        return np.sqrt(self.pointwise_variance())


def build_prior(mesh: Mesh1D, a: float, b: float,
                mean: np.ndarray | float = 0.0,
                space: WeightedSpace | None = None) -> GaussianPrior:
    """Construct the prior; a scalar mean is broadcast to all nodes."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("prior coefficients a, b must be positive")
    if space is None:
        space = assemble_mass(mesh)
    mean_vec = np.full(mesh.n_nodes, float(mean)) if np.isscalar(mean) \
        else np.asarray(mean, dtype=float)
    return GaussianPrior(mesh, space, a, b, mean_vec)
