"""Elliptic-precision Gaussian prior: factorization identities. Prior draws
are ``LowRankHessian.draw`` at rank 0 (``test_lowrank``)."""

import numpy as np
import pytest

from hessmc.fem import Mesh1D, assemble_mass
from hessmc.prior import build_prior


@pytest.fixture
def prior():
    mesh = Mesh1D.uniform(21, 1.0)
    return build_prior(mesh, 1e-2, 1e2, mean=1.0, space=assemble_mass(mesh))


def test_coefficients_must_be_positive():
    mesh = Mesh1D.uniform(5)
    with pytest.raises(ValueError):
        build_prior(mesh, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_prior(mesh, 1.0, -2.0)


def test_scalar_mean_broadcasts(prior):
    np.testing.assert_array_equal(prior.mean, np.ones(21))


def _dense(op, n):
    return np.column_stack([op(e) for e in np.eye(n)])


def test_sqrt_factor_as_dense_matrices(prior):
    n, M = prior.n, prior.space.mass.dense()
    K = prior.K.dense()
    C = np.diag(prior.C[1]) + np.diag(prior.C[0, 1:], 1)
    R = np.diag(prior.space.R[1]) + np.diag(prior.space.R[0, 1:], 1)
    np.testing.assert_allclose(C.T @ C, K, rtol=1e-12, atol=1e-12 * np.abs(K).max())
    L = _dense(prior.apply_L, n)
    L_adj = _dense(prior.apply_L_adj, n)
    L_inv = _dense(prior.apply_L_inv, n)
    L_inv_adj = _dense(prior.apply_L_inv_adj, n)
    Kinv = np.linalg.inv(K)
    # L L* = K^{-1} M
    np.testing.assert_allclose(L @ L_adj, Kinv @ M, atol=1e-10 * np.abs(Kinv @ M).max())
    # <L x, y>_M = <x, L* y>_M for all x, y: L^T M = M L*
    np.testing.assert_allclose(L.T @ M, M @ L_adj, atol=1e-12 * np.abs(M @ L_adj).max())
    # L^{-1} L = I and (L^{-1})* L* = I
    np.testing.assert_allclose(L_inv @ L, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(L_inv_adj @ L_adj, np.eye(n), atol=1e-10)
    # a draw m0 + L R^{-1} n = m0 + C^{-1} n has covariance K^{-1}
    draw = L @ np.linalg.inv(R)
    np.testing.assert_allclose(draw, np.linalg.inv(C), atol=1e-10 * np.abs(Kinv).max())
    np.testing.assert_allclose(draw @ draw.T, Kinv, atol=1e-10 * np.abs(Kinv).max())
    np.testing.assert_allclose(prior.pointwise_variance(), np.diag(Kinv), rtol=1e-10)


def test_log_density_is_stiffness_quadratic(prior):
    rng = np.random.default_rng(0)
    m = rng.standard_normal(prior.n)
    d = m - prior.mean
    assert prior.quadratic_terms(m)[0] == pytest.approx(-0.5 * d @ prior.K.dense() @ d,
                                                        rel=1e-12)
    assert prior.quadratic_terms(prior.mean)[0] == 0.0


def test_sqrt_factorization_squares_to_covariance(prior):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prior.n)
    ll = prior.apply_L(prior.apply_L_adj(x))
    cov = prior.apply_covariance(x)
    assert prior.space.norm(ll - cov) <= 1e-10 * prior.space.norm(cov)


def test_precision_inverts_covariance(prior):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(prior.n)
    np.testing.assert_allclose(prior.apply_A(prior.apply_covariance(x)), x,
                               rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(prior.apply_L_inv(prior.apply_L(x)), x,
                               rtol=1e-9, atol=1e-11)


def test_sqrt_is_self_adjoint(prior):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, prior.n))
    lhs = prior.space.inner(prior.apply_L(x), y)
    rhs = prior.space.inner(x, prior.apply_L_adj(y))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("c", [1, 3])
def test_stacked_quadratic_terms_are_bit_identical(prior, c):
    P = prior.mean + np.random.default_rng(c).standard_normal((c, prior.n))
    log_density, kd = prior.quadratic_terms(P)
    for i in range(c):
        assert log_density[i] == prior.quadratic_terms(P[i])[0]
        assert kd[i].tobytes() == prior.K.matvec(P[i] - prior.mean).tobytes()
