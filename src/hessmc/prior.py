"""Gaussian prior with an elliptic-operator precision.

The prior on the parameter field is N(m0, Gamma) with covariance
Gamma = A^{-1}, where A = M^{-1} K and K is the stiffness matrix of
-a d²/dx² + b with natural boundary conditions. The log density (up to a
constant) is

    log pi0(m) = -1/2 <m - m0, A (m - m0)>_M = -1/2 (m - m0)^T K (m - m0).

K and M are tridiagonal, and each has an upper-bidiagonal Cholesky factor
from its O(n) L D L^T factorization: K = C^T C and M = R^T R. The
covariance square root is built from the two,

    L = C^{-1} R,   L* = R^{-1} C^{-T} M,
    L^{-1} = R^{-1} C,   (L^{-1})* = M^{-1} C^T R,

with L* the adjoint in the M inner product, so that
L L* = C^{-1} C^{-T} M = K^{-1} M = Gamma. A and Gamma are each one
tridiagonal product and one tridiagonal solve. Any L with L L* = Gamma
serves the low-rank algebra; this one costs O(n) per application and
forms no n x n matrix. A prior draw m0 + L R^{-1} n = m0 + C^{-1} n,
n ~ N(0, I), has Euclidean covariance K^{-1}; the program draws it as
``lowrank.LowRankHessian.draw`` at rank 0.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .fem import (Mesh1D, WeightedSpace, assemble_mass, assemble_stiffness,
                  bidiagonal_matvec, bidiagonal_solve)


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
        self.K = assemble_stiffness(mesh, a, b)
        try:
            self._K_factor = self.K.factor()
        except NumericalError as exc:
            raise ValueError("precision operator is not positive definite") from exc
        # upper bidiagonal, K = C^T C, in the band storage of space.R
        self.C = self._K_factor.cholesky()

    @property
    def n(self) -> int:
        return self.space.n

    def apply_A(self, x: np.ndarray) -> np.ndarray:
        """Precision operator A = M^{-1} K."""
        return self.space.solve(self.K.matvec(x))

    def apply_covariance(self, x: np.ndarray) -> np.ndarray:
        """Covariance operator Gamma = A^{-1} = K^{-1} M."""
        return self._K_factor.solve(self.space.mass.matvec(x))

    def apply_L(self, x: np.ndarray) -> np.ndarray:
        """Covariance square root L = C^{-1} R, Gamma = L L*."""
        return bidiagonal_solve(self.C, bidiagonal_matvec(self.space.R, x))

    def apply_L_adj(self, x: np.ndarray) -> np.ndarray:
        """M-adjoint L* = R^{-1} C^{-T} M."""
        y = bidiagonal_solve(self.C, self.space.mass.matvec(x), trans=True)
        return bidiagonal_solve(self.space.R, y)

    def apply_L_inv(self, x: np.ndarray) -> np.ndarray:
        """L^{-1} = R^{-1} C."""
        return bidiagonal_solve(self.space.R, bidiagonal_matvec(self.C, x))

    def apply_L_inv_adj(self, x: np.ndarray) -> np.ndarray:
        """(L^{-1})* = (L*)^{-1} = M^{-1} C^T R."""
        y = bidiagonal_matvec(self.space.R, x)
        return self.space.solve(bidiagonal_matvec(self.C, y, trans=True))

    def log_density(self, m: np.ndarray) -> float:
        """-1/2 <m - m0, A(m - m0)>_M, no normalization constant."""
        return float(self.quadratic_terms(m)[0])

    def quadratic_terms(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The log density and K(m - m0) at a point, or at each row of a
        (c, n) block. K(m - m0) is the assembled form of the gradient's
        A(m - m0) = M^{-1} K(m - m0), so a caller that needs both forms it
        once."""
        d = m - self.mean
        kd = self.K.matvec(d.T).T
        return -0.5 * np.vecdot(d, kd), kd

    def pointwise_variance(self) -> np.ndarray:
        """Variance of the nodal values, diag(K^{-1})."""
        return self._K_factor.inverse_diagonal()


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
