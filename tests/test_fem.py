"""Element assembly and weighted-space algebra, checked against hand values."""

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf

from hessmc.fem import (
    Mesh1D,
    Tridiagonal,
    WeightedSpace,
    assemble_mass,
    assemble_product_load,
    assemble_stiffness,
    assemble_weighted_mass,
    interpolation_matrix,
)
from hessmc.errors import NumericalError

from conftest import white_noise


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0]))
    with pytest.raises(ValueError):
        Mesh1D(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        Mesh1D.uniform(1)
    with pytest.raises(ValueError):
        Mesh1D.uniform(5, length=0.0)


def test_mesh_properties():
    mesh = Mesh1D.uniform(5, 2.0)
    assert mesh.n_nodes == 5
    assert mesh.length == pytest.approx(2.0)
    np.testing.assert_allclose(mesh.element_lengths, 0.5)
    assert mesh.nearest_node(1.1) == 2
    assert mesh.nearest_node(-3.0) == 0


def test_mass_matrix_three_nodes_hand_values():
    # two elements of length 1/2: element block h/6 * [[2, 1], [1, 2]]
    space = assemble_mass(Mesh1D.uniform(3, 1.0))
    expected = np.array([
        [1 / 6, 1 / 12, 0.0],
        [1 / 12, 1 / 3, 1 / 12],
        [0.0, 1 / 12, 1 / 6],
    ])
    np.testing.assert_allclose(space.mass.dense(), expected, atol=1e-15)


def test_mass_row_sums_are_hat_integrals():
    mesh = Mesh1D(np.array([0.0, 0.2, 0.5, 1.3]))
    space = assemble_mass(mesh)
    h = mesh.element_lengths
    expected = np.zeros(4)
    expected[:-1] += h / 2
    expected[1:] += h / 2
    np.testing.assert_allclose(space.mass.dense().sum(axis=1), expected, atol=1e-15)
    assert space.mass.dense().sum() == pytest.approx(mesh.length)


def test_stiffness_single_element_laplacian():
    K = assemble_stiffness(Mesh1D.uniform(2, 1.0), a=1.0, b=0.0)
    np.testing.assert_allclose(K.dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_stiffness_on_constants_reduces_to_mass_term():
    # the derivative part annihilates constants, so K 1 = b M 1
    mesh = Mesh1D.uniform(17, 2.0)
    space = assemble_mass(mesh)
    K = assemble_stiffness(mesh, a=3.0, b=7.0)
    ones = np.ones(17)
    np.testing.assert_allclose(K.matvec(ones), 7.0 * (space.mass.dense() @ ones), atol=1e-13)


def test_stiffness_coefficient_validation():
    mesh = Mesh1D.uniform(4)
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, a=0.0, b=1.0)
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, a=1.0, b=-1.0)


def test_weighted_space_inner_and_norm():
    space = assemble_mass(Mesh1D.uniform(6))
    y = np.arange(6.0)
    z = np.ones(6)
    assert space.inner(y, z) == pytest.approx(y @ space.mass.dense() @ z)
    assert space.norm(y) == pytest.approx(np.sqrt(y @ space.mass.dense() @ y))


def test_cholesky_whitening_factor():
    space = assemble_mass(Mesh1D.uniform(9, 0.7))
    # R is upper bidiagonal, held in LAPACK upper band storage
    R = np.diag(space.R[1]) + np.diag(space.R[0, 1:], 1)
    np.testing.assert_allclose(R.T @ R, space.mass.dense(), atol=1e-14)
    # solve applies M^{-1}
    b = np.sin(np.arange(9.0))
    np.testing.assert_allclose(space.mass.dense() @ space.solve(b), b, atol=1e-12)


def test_mass_solve_inverts_dense_view_on_nonuniform_mesh():
    mesh = Mesh1D(np.array([0.0, 0.05, 0.3, 0.32, 0.9, 1.4, 1.45]))
    space = assemble_mass(mesh)
    rng = np.random.default_rng(4)
    M = space.mass.dense()
    b = rng.standard_normal(7)
    np.testing.assert_allclose(space.solve(b), np.linalg.solve(M, b), rtol=1e-12)
    B = rng.standard_normal((7, 3))
    np.testing.assert_allclose(space.solve(B), np.linalg.solve(M, B), rtol=1e-12)
    np.testing.assert_allclose(space.mass.matvec(b), M @ b, rtol=1e-14)


def test_tridiagonal_matvec_acts_on_column_blocks():
    mesh = Mesh1D(np.array([0.0, 0.05, 0.3, 0.32, 0.9, 1.4, 1.45]))
    A = assemble_stiffness(mesh, 0.3, 2.0)
    X = np.random.default_rng(9).standard_normal((7, 3))
    np.testing.assert_allclose(A.matvec(X), A.dense() @ X, rtol=1e-13, atol=1e-13)
    for k in range(3):
        np.testing.assert_array_equal(A.matvec(X)[:, k], A.matvec(X[:, k]))


def test_tridiagonal_factor_rejects_indefinite_and_non_finite():
    off = np.array([-1.0, -1.0])
    with pytest.raises(NumericalError):
        Tridiagonal(np.array([1.0, -2.0, 1.0]), off).factor()
    with pytest.raises(NumericalError):
        Tridiagonal(np.array([2.0, np.nan, 2.0]), off).factor()
    with pytest.raises(NumericalError):
        Tridiagonal(np.array([2.0, 2.0, 2.0]), np.array([-1.0, np.inf])).factor()


def test_white_noise_has_inverse_mass_covariance():
    space = assemble_mass(Mesh1D.uniform(5))
    rng = np.random.default_rng(0)
    draws = white_noise(space, rng, size=200_000)
    assert draws.shape == (200_000, 5)
    cov = np.cov(draws, rowvar=False)
    Minv = np.linalg.inv(space.mass.dense())
    np.testing.assert_allclose(cov, Minv, rtol=0.05, atol=0.05 * np.abs(Minv).max())


def test_weighted_mass_reduces_to_mass_for_unit_coefficient():
    mesh = Mesh1D(np.array([0.0, 0.3, 0.4, 1.0, 1.5]))
    space = assemble_mass(mesh)
    W = assemble_weighted_mass(mesh, np.ones(5))
    np.testing.assert_allclose(W.dense(), space.mass.dense(), atol=1e-15)


def test_weighted_mass_row_sum_identity():
    # sum_j W(c)_ij = int c_h phi_i = (M c)_i, exactly (cubic integrands)
    mesh = Mesh1D(np.array([0.0, 0.1, 0.35, 0.9, 1.0]))
    space = assemble_mass(mesh)
    c = np.array([2.0, -1.0, 0.5, 3.0, 1.0])
    W = assemble_weighted_mass(mesh, c)
    np.testing.assert_allclose(W.matvec(np.ones(5)), space.mass.dense() @ c, atol=1e-14)


def test_product_load_matches_weighted_mass_quadratic_form():
    # c^T load(u, v) = int c_h u_h v_h = u^T W(c) v, all integrals exact
    mesh = Mesh1D(np.array([0.0, 0.2, 0.45, 0.8, 1.1, 1.6]))
    rng = np.random.default_rng(3)
    u, v, c = rng.standard_normal((3, 6))
    g = assemble_product_load(mesh, u, v)
    W = assemble_weighted_mass(mesh, c)
    assert c @ g == pytest.approx(u @ W.matvec(v), rel=1e-13)
    with pytest.raises(ValueError):
        assemble_product_load(mesh, u[:-1], v)


def _scatter(n, left, right, off=None):
    """Reference assembly: element contributions scattered with np.add.at."""
    idx = np.arange(n - 1)
    if off is None:
        g = np.zeros(n)
        np.add.at(g, idx, left)
        np.add.at(g, idx + 1, right)
        return g
    A = np.zeros((n, n))
    np.add.at(A, (idx, idx), left)
    np.add.at(A, (idx + 1, idx + 1), right)
    np.add.at(A, (idx, idx + 1), off)
    np.add.at(A, (idx + 1, idx), off)
    return A


def test_slice_assembly_equals_scatter_reference():
    # same element arithmetic, same summation order: bit-identical entries
    mesh = Mesh1D(np.array([0.0, 0.07, 0.3, 0.31, 0.8, 1.25, 1.3]))
    n, h = mesh.n_nodes, mesh.element_lengths
    rng = np.random.default_rng(5)
    u, v, c = rng.standard_normal((3, n))
    np.testing.assert_array_equal(assemble_mass(mesh).mass.dense(),
                                  _scatter(n, h / 3, h / 3, h / 6))
    d = 2.0 / h + 3.0 * h / 3.0
    np.testing.assert_array_equal(assemble_stiffness(mesh, 2.0, 3.0).dense(),
                                  _scatter(n, d, d, -2.0 / h + 3.0 * h / 6.0))
    cL, cR = c[:-1], c[1:]
    np.testing.assert_array_equal(
        assemble_weighted_mass(mesh, c).dense(),
        _scatter(n, h * (3.0 * cL + cR) / 12.0, h * (cL + 3.0 * cR) / 12.0,
                 h * (cL + cR) / 12.0))
    uL, uR, vL, vR = u[:-1], u[1:], v[:-1], v[1:]
    cross = uL * vR + uR * vL
    np.testing.assert_array_equal(
        assemble_product_load(mesh, u, v),
        _scatter(n, h * (3.0 * uL * vL + cross + uR * vR) / 12.0,
                 h * (uL * vL + cross + 3.0 * uR * vR) / 12.0))


def test_interpolation_matrix_evaluates_linear_functions_exactly():
    mesh = Mesh1D(np.array([0.0, 0.25, 0.6, 1.0]))
    pts = np.array([0.0, 0.1, 0.25, 0.5, 0.99, 1.0])
    B = interpolation_matrix(mesh, pts)
    np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-14)
    # exact for any nodal linear interpolant, in particular f(x) = x
    np.testing.assert_allclose(B @ mesh.node_coords, pts, atol=1e-14)
    with pytest.raises(ValueError):
        interpolation_matrix(mesh, np.array([1.1]))
    # fuzz just inside the tolerance is clipped, not rejected
    B_edge = interpolation_matrix(mesh, np.array([1.0 + 1e-13]))
    np.testing.assert_allclose(B_edge @ mesh.node_coords, 1.0, atol=1e-12)


def test_weighted_space_shape_mismatch():
    with pytest.raises(ValueError):
        WeightedSpace(Mesh1D.uniform(3), Tridiagonal(np.ones(4), np.zeros(3)))


def test_element_lengths_are_computed_once():
    mesh = Mesh1D(np.array([0.0, 0.2, 0.45, 0.8]))
    h = mesh.element_lengths
    assert h is mesh.element_lengths
    assert not h.flags.writeable
    np.testing.assert_array_equal(h, np.diff(mesh.node_coords))


def test_stacked_assembly_rows_are_bit_identical():
    mesh = Mesh1D(np.array([0.0, 0.07, 0.3, 0.31, 0.8, 1.25, 1.3]))
    rng = np.random.default_rng(8)
    U, V = rng.standard_normal((2, 3, mesh.n_nodes))
    U[1, :3] = -0.0
    W, g = assemble_weighted_mass(mesh, U), assemble_product_load(mesh, U, V)
    for i in range(3):
        alone = assemble_weighted_mass(mesh, U[i])
        assert W.diag[i].tobytes() == alone.diag.tobytes()
        assert W.off[i].tobytes() == alone.off.tobytes()
        assert g[i].tobytes() == assemble_product_load(mesh, U[i], V[i]).tobytes()


def test_stacked_factor_blocks_fail_only_their_rows():
    # blocks 0 and 2 are SPD, block 1 is indefinite at its third pivot and
    # block 3 holds a nan: one dpttrf call for the blocks that pass, and
    # each failed block's own factor() error
    n = 6
    mesh = Mesh1D.uniform(n)
    rng = np.random.default_rng(2)
    A = [assemble_stiffness(mesh, 1.0, 1.0) + assemble_weighted_mass(mesh, np.exp(c))
         for c in rng.standard_normal((4, n))]
    A[1].diag[2] = -1.0
    A[3].off[4] = np.nan
    stack = Tridiagonal(np.stack([a.diag for a in A]), np.stack([a.off for a in A]))
    factor, rows, errors = stack.factor_blocks()
    assert rows == [0, 2] and sorted(errors) == [1, 3]
    for i in (1, 3):
        with pytest.raises(NumericalError) as alone:
            A[i].factor()
        assert str(errors[i]) == str(alone.value)
    assert str(errors[1]).endswith("(pivot 3 of 6)")
    b = rng.standard_normal(n)
    for k, i in enumerate(rows):
        own = A[i].factor()
        got = factor.block(k, n)
        assert got.d.tobytes() == own.d.tobytes() and got.e.tobytes() == own.e.tobytes()
        assert factor.solve(np.tile(b, 2))[k * n:(k + 1) * n].tobytes() == own.solve(b).tobytes()


@pytest.mark.parametrize("case", ["spd", "indefinite", "non_finite"])
def test_factor_is_the_batch_of_one_of_factor_blocks(case):
    # factor() and a one-row factor_blocks give dpttrf's factor bits, and
    # the same error for a non-finite entry and for a non-positive pivot
    n = 6
    mesh = Mesh1D.uniform(n)
    A = assemble_stiffness(mesh, 1.0, 1.0) + assemble_weighted_mass(
        mesh, np.exp(np.random.default_rng(3).standard_normal(n)))
    if case == "indefinite":
        A.diag[2] = -1.0
    elif case == "non_finite":
        A.off[4] = np.nan
    factor, rows, errors = Tridiagonal(A.diag[None], A.off[None]).factor_blocks()
    if case == "spd":
        d, e, info = dpttrf(A.diag, A.off)
        assert info == 0 and rows == [0] and errors == {}
        for f in (factor, A.factor()):
            assert f.d.tobytes() == d.tobytes() and f.e.tobytes() == e.tobytes()
        return
    message = {"indefinite": "tridiagonal matrix is not positive definite (pivot 3 of 6)",
               "non_finite": "tridiagonal matrix has non-finite entries"}[case]
    with pytest.raises(NumericalError) as alone:
        A.factor()
    assert factor is None and rows == [] and list(errors) == [0]
    assert str(errors[0]) == str(alone.value) == message
