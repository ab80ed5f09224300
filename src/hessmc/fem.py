"""1D linear finite elements and the mass-weighted inner product.

Everything downstream treats parameter vectors as coefficient vectors of
piecewise-linear functions on an interval mesh. The mass matrix M induces
the inner product

    <y, z>_M = y^T M z,

and adjoints are always taken with respect to it: for a matrix B mapping
coefficient vectors to coefficient vectors the adjoint is M^{-1} B^T M,
while for a basis map V (Euclidean r-vectors into the weighted space) the
adjoint is V^T M. Element integrals are evaluated in closed form; there is
no numerical quadrature anywhere in this module.

Every assembled operator (mass, stiffness, weighted mass) is symmetric
tridiagonal and is stored as its two diagonals (``Tridiagonal``), built by
slice arithmetic over the elements. Factorizations and solves use the
LAPACK routines for SPD tridiagonal matrices (dpttrf/dpttrs), so assembly,
factorization and each solve cost O(n). A factorization also gives the
upper-bidiagonal Cholesky factor (A = C^T C), held in LAPACK upper band
storage and applied or solved with in O(n) by ``bidiagonal_matvec`` and
``bidiagonal_solve``; the mass matrix's factor whitens the M-norm and, with
the stiffness matrix's, gives the prior its square root. A tridiagonal matrix
times a diagonal scaling, A diag(s), is kept in LAPACK general band
storage (``Tridiagonal.column_scaled_band``) and applied, or its transpose
applied, by one BLAS dgbmv call (``band_matvec``); the exp model's Hessian
actions use it. Band arrays are Fortran-ordered, so the BLAS and LAPACK
wrappers read them without a copy. No n x n mass matrix
is kept: products with M are ``Tridiagonal.matvec`` on a vector or on the
columns of a block, and a caller that needs the dense matrix forms
``mass.dense()`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dpttrf, dpttrs, dtbtrs

from .errors import FactorizationError


@dataclass(frozen=True)
class Mesh1D:
    """Interval mesh given by strictly increasing node coordinates."""

    node_coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.node_coords, dtype=float))
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("a mesh needs at least two nodes")
        h = np.diff(coords)
        if not np.all(h > 0.0):
            raise ValueError("node coordinates must be strictly increasing")
        h.flags.writeable = False
        object.__setattr__(self, "node_coords", coords)
        object.__setattr__(self, "_h", h)

    @classmethod
    def uniform(cls, n_nodes: int, length: float = 1.0) -> "Mesh1D":
        if n_nodes < 2:
            raise ValueError("n_nodes must be at least 2")
        if length <= 0.0:
            raise ValueError("length must be positive")
        return cls(np.linspace(0.0, length, n_nodes))

    @property
    def n_nodes(self) -> int:
        return self.node_coords.size

    @property
    def length(self) -> float:
        return float(self.node_coords[-1] - self.node_coords[0])

    @property
    def element_lengths(self) -> np.ndarray:
        """Node spacings, computed once per mesh (read-only)."""
        return self._h

    def nearest_node(self, x: float) -> int:
        """Index of the node closest to coordinate x."""
        return int(np.argmin(np.abs(self.node_coords - x)))


@dataclass(eq=False)
class Tridiagonal:
    """Symmetric tridiagonal matrix stored by its diagonals.

    ``diag`` holds the n main-diagonal entries and ``off`` the n - 1
    entries next to it (above and, by symmetry, below).
    """

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def __add__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.diag + other.diag, self.off + other.off)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with a nodal vector or with the columns of a matrix."""
        diag, off = self.diag, self.off
        if x.ndim == 2:
            diag, off = diag[:, None], off[:, None]
        y = diag * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        return y

    def column_scaled_band(self, scale: np.ndarray) -> np.ndarray:
        """A diag(scale) in LAPACK general band storage with kl = ku = 1, in
        the Fortran order dgbmv reads: column j holds A[j-1, j], A[j, j] and
        A[j+1, j], each times scale[j], in rows 0, 1 and 2 (the two unused
        corners are zero)."""
        band = np.zeros((3, self.n), order="F")
        band[0, 1:] = self.off * scale[1:]
        band[1] = self.diag * scale
        band[2, :-1] = self.off * scale[:-1]
        return band

    def dense(self) -> np.ndarray:
        A = np.diag(self.diag)
        i = np.arange(self.n - 1)
        A[i, i + 1] = self.off
        A[i + 1, i] = self.off
        return A

    def factor(self) -> "TridiagonalFactor":
        """L D L^T factorization (LAPACK dpttrf).

        Raises FactorizationError for a non-finite entry (dpttrf would pass
        a NaN through) or when the matrix is not positive definite.
        """
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.off))):
            raise FactorizationError("tridiagonal matrix has non-finite entries")
        d, e, info = dpttrf(self.diag, self.off)
        if info != 0:
            raise FactorizationError(f"tridiagonal matrix is not positive definite "
                                     f"(pivot {info} of {self.n})")
        return TridiagonalFactor(d, e)

    def factor_blocks(self) -> tuple["TridiagonalFactor | None", list[int], dict]:
        """L D L^T of the block-diagonal matrix whose k blocks are the rows
        of a stack (``diag`` (k, n), ``off`` (k, n - 1)), joined with zero
        coupling, in one dpttrf call.

        Since d - 0 * 0 / d' = d, each block's factor is bitwise its own
        ``factor()``. Returns the factor of the blocks that pass, their
        rows, and for each other row the FactorizationError its own
        ``factor()`` raises: a block with a non-finite entry is left out
        before the call, and dpttrf stops at the first non-positive
        pivot, so the block that holds it is left out and the call is
        made again for the rest. With no block left the factor is None.
        """
        k, n = self.diag.shape
        rows = list(range(k))
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            finite = np.isfinite(self.diag).all(axis=1) & np.isfinite(self.off).all(axis=1)
            rows = np.flatnonzero(finite).tolist()
        factor = None
        while rows:
            diag, off = self.diag, self.off
            if len(rows) < k:
                diag, off = diag[rows], off[rows]
            e = off.ravel()
            if len(rows) > 1:
                e = np.zeros((len(rows), n))
                e[:, :-1] = off
                e = e.ravel()[:-1]
            d, e, info = dpttrf(diag.ravel(), e)
            if info == 0:
                factor = TridiagonalFactor(d, e)
                break
            rows.pop((info - 1) // n)
        errors = {}
        if len(rows) < k:
            for row in sorted(set(range(k)).difference(rows)):
                try:
                    Tridiagonal(self.diag[row], self.off[row]).factor()
                except FactorizationError as exc:
                    errors[row] = exc
        return factor, rows, errors


@dataclass(eq=False)
class TridiagonalFactor:
    """Factors of A = L D L^T as dpttrf returns them: the diagonal of D
    and the subdiagonal of the unit lower-bidiagonal L."""

    d: np.ndarray
    e: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply A^{-1} to a vector or to the columns of a matrix (dpttrs)."""
        return dpttrs(self.d, self.e, b)[0]

    def block(self, i: int, n: int) -> "TridiagonalFactor":
        """The factor of the i-th n x n diagonal block of a factor made by
        ``Tridiagonal.factor_blocks`` (views, no copy)."""
        return TridiagonalFactor(self.d[i * n:(i + 1) * n], self.e[i * n:(i + 1) * n - 1])

    @staticmethod
    def join(factors: list["TridiagonalFactor"]) -> "TridiagonalFactor":
        """The factor of the block-diagonal matrix of the factored blocks,
        joined with zero coupling; a single factor as it is."""
        if len(factors) == 1:
            return factors[0]
        return TridiagonalFactor(
            np.concatenate([f.d for f in factors]),
            np.concatenate([x for f in factors for x in (_ZERO, f.e)][1:]))

    def cholesky(self) -> np.ndarray:
        """Upper-bidiagonal C = D^{1/2} L^T with C^T C = A, in LAPACK upper
        band storage: row 0 the superdiagonal (first entry unused), row 1
        the diagonal. Fortran order, so dtbtrs reads it without a copy."""
        root_d = np.sqrt(self.d)
        return np.asfortranarray([np.r_[0.0, root_d[:-1] * self.e], root_d])

    def inverse_diagonal(self) -> np.ndarray:
        """diag(A^{-1}) by the backward recurrence of A^{-1} = L^{-T} D^{-1} L^{-1}:
        s_n = 1/d_n and s_i = 1/d_i + e_i^2 s_{i+1}."""
        s = 1.0 / self.d
        for i in range(s.size - 2, -1, -1):
            s[i] += self.e[i] ** 2 * s[i + 1]
        return s


_ZERO = np.zeros(1)   # the coupling between two joined blocks


def bidiagonal_matvec(band: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """Product of an upper-bidiagonal matrix in upper band storage (or of
    its transpose) with a vector or with the columns of a matrix."""
    diag, sup = band[1], band[0, 1:]
    if x.ndim == 2:
        diag, sup = diag[:, None], sup[:, None]
    y = diag * x
    if trans:
        y[1:] += sup * x[:-1]
    else:
        y[:-1] += sup * x[1:]
    return y


def band_matvec(band: np.ndarray, x: np.ndarray, alpha: float = 1.0,
                trans: bool = False, y: np.ndarray | None = None) -> np.ndarray:
    """alpha A x, or alpha A^T x, for a tridiagonal A held as
    ``Tridiagonal.column_scaled_band`` returns it (BLAS dgbmv). A given y
    is overwritten with y + alpha A x (or y + alpha A^T x) and returned."""
    n = band.shape[1]
    if y is None:
        return dgbmv(n, n, 1, 1, alpha, band, x, trans=trans)
    return dgbmv(n, n, 1, 1, alpha, band, x, beta=1.0, y=y, trans=trans, overwrite_y=1)


def bidiagonal_solve(band: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve with an upper-bidiagonal matrix in upper band storage (or with
    its transpose) for a vector or for the columns of a matrix (dtbtrs)."""
    return dtbtrs(band, b, trans="T" if trans else "N")[0]


class WeightedSpace:
    """Coefficient space R^n equipped with the mass inner product.

    Holds the tridiagonal mass matrix, its L D L^T factors for applying
    M^{-1}, and the upper-bidiagonal whitening factor R = D^{1/2} L^T
    (so R^T R = M) in LAPACK upper band storage: row 0 the superdiagonal
    (first entry unused), row 1 the diagonal.
    """

    def __init__(self, mesh: Mesh1D, mass: Tridiagonal):
        if mass.n != mesh.n_nodes:
            raise ValueError("mass matrix size does not match the mesh")
        self.mesh = mesh
        self.mass = mass
        self._m_factor = mass.factor()
        self.R = self._m_factor.cholesky()

    @property
    def n(self) -> int:
        return self.mass.n

    def inner(self, y: np.ndarray, z: np.ndarray) -> float:
        return float(y @ self.mass.matvec(z))

    def norm(self, y: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(y, y), 0.0)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply M^{-1} (converts assembled functionals to representers)."""
        return self._m_factor.solve(b)


def _gather(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Nodal sums of per-element values at each element's left and right
    node, along the last axis."""
    out = np.zeros(left.shape[:-1] + (left.shape[-1] + 1,))
    out[..., :-1] += left
    out[..., 1:] += right
    return out


def assemble_mass(mesh: Mesh1D) -> WeightedSpace:
    """Assemble M_ij = ∫ φ_i φ_j dx for linear hat functions.

    Each element of length h contributes h/6 * [[2, 1], [1, 2]].
    """
    h = mesh.element_lengths
    return WeightedSpace(mesh, Tridiagonal(_gather(h / 3.0, h / 3.0), h / 6.0))


def assemble_stiffness(mesh: Mesh1D, a: float, b: float) -> Tridiagonal:
    """Assemble K_ij = ∫ [a φ_i' φ_j' + b φ_i φ_j] dx.

    a must be positive (the a = 0 limit loses the derivative term that
    makes K the precision of a well-defined smooth field); b may be zero
    for plain Laplacian stiffness.
    """
    if a <= 0.0:
        raise ValueError("diffusion coefficient a must be positive")
    if b < 0.0:
        raise ValueError("reaction coefficient b must be non-negative")
    h = mesh.element_lengths
    d = a / h + b * h / 3.0
    return Tridiagonal(_gather(d, d), -a / h + b * h / 6.0)


def assemble_weighted_mass(mesh: Mesh1D, coeff: np.ndarray) -> Tridiagonal:
    """Assemble ∫ c φ_i φ_j dx with c the piecewise-linear interpolant of
    the nodal values `coeff` (exact cubic element integrals).

    With c ≡ 1 this reproduces the plain mass matrix. For a (k, n) block
    of coefficients, one matrix per row: the diagonals are (k, n) and
    (k, n - 1) blocks, each row bit for bit that row's matrix alone.
    """
    c = np.asarray(coeff, dtype=float)
    if c.shape[-1:] != (mesh.n_nodes,) or c.ndim > 2:
        raise ValueError("coefficient must be a nodal vector or a block of them")
    cL, cR, t = c[..., :-1], c[..., 1:], 3.0 * c
    # rows: h (3 cL + cR) / 12, h (cL + 3 cR) / 12 and h (cL + cR) / 12
    e = np.empty((3,) + cR.shape)
    np.add(t[..., :-1], cR, out=e[0])
    np.add(cL, t[..., 1:], out=e[1])
    np.add(cL, cR, out=e[2])
    e *= mesh.element_lengths
    e /= 12.0
    return Tridiagonal(_gather(e[0], e[1]), e[2])


def assemble_product_load(mesh: Mesh1D, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Assemble g_k = ∫ φ_k u_h v_h dx for piecewise-linear u_h, v_h.

    This is the load vector of the product of two mesh functions, again
    integrated exactly (the integrand is cubic on each element). For two
    (k, n) blocks, one load vector per row pair.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[-1:] != (mesh.n_nodes,) or u.ndim > 2:
        raise ValueError("u and v must be nodal vectors or blocks of them")
    uv, tuv = u * v, 3.0 * u * v
    cross = u[..., :-1] * v[..., 1:] + u[..., 1:] * v[..., :-1]
    # rows: h (3 uL vL + cross + uR vR) / 12 and h (uL vL + cross + 3 uR vR) / 12
    e = np.empty((2,) + cross.shape)
    np.add(tuv[..., :-1], cross, out=e[0])
    e[0] += uv[..., 1:]
    np.add(uv[..., :-1], cross, out=e[1])
    e[1] += tuv[..., 1:]
    e *= mesh.element_lengths
    e /= 12.0
    return _gather(e[0], e[1])


def interpolation_matrix(mesh: Mesh1D, points: np.ndarray) -> np.ndarray:
    """Rows evaluate a mesh function at the given points (linear interp).

    Every point must lie inside the mesh interval.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    x = mesh.node_coords
    if pts.min() < x[0] - 1e-12 or pts.max() > x[-1] + 1e-12:
        raise ValueError("observation points must lie inside the mesh")
    pts = np.clip(pts, x[0], x[-1])
    B = np.zeros((pts.size, mesh.n_nodes))
    elem = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, mesh.n_nodes - 2)
    t = (pts - x[elem]) / (x[elem + 1] - x[elem])
    rows = np.arange(pts.size)
    B[rows, elem] = 1.0 - t
    B[rows, elem + 1] = t
    return B
