"""Elliptic-precision Gaussian prior: factorization and sampling identities."""

import numpy as np
import pytest

from hessmc.fem import Mesh1D, assemble_mass
from hessmc.prior import build_prior

from conftest import white_noise


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
    noise = np.random.default_rng(5).standard_normal(n)
    np.testing.assert_allclose(prior.sample(np.random.default_rng(5)) - prior.mean,
                               np.linalg.solve(C, noise), atol=1e-12)


def test_log_density_is_stiffness_quadratic(prior):
    rng = np.random.default_rng(0)
    m = rng.standard_normal(prior.n)
    d = m - prior.mean
    assert prior.log_density(m) == pytest.approx(-0.5 * d @ prior.K.dense() @ d, rel=1e-12)
    assert prior.log_density(prior.mean) == 0.0


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


def test_sample_covariance_matches_analytic():
    # K(m - m0) quadratic form => Euclidean nodal covariance K^{-1}
    mesh = Mesh1D.uniform(13, 1.0)
    prior = build_prior(mesh, 1e-2, 1e2, mean=0.0)
    rng = np.random.default_rng(4)
    draws = prior.sample(rng, size=100_000)
    assert draws.shape == (100_000, 13)
    Kinv = np.linalg.inv(prior.K.dense())
    emp_var = draws.var(axis=0, ddof=1)
    np.testing.assert_allclose(emp_var, np.diag(Kinv), rtol=0.05)
    np.testing.assert_allclose(prior.pointwise_variance(), np.diag(Kinv), rtol=1e-10)
    # M-weighted covariance quadratic form, <v, Gamma_hat v> vs <v, Gamma v>_M
    v = rng.standard_normal(13)
    coords = draws @ (prior.space.mass.dense() @ v)
    emp = coords.var(ddof=1)
    ana = prior.space.inner(v, prior.apply_covariance(v))
    assert emp == pytest.approx(ana, rel=0.05)


def test_sample_is_mean_plus_transported_noise(prior):
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    s = prior.sample(rng1)
    noise = white_noise(prior.space, rng2)
    np.testing.assert_allclose(s, prior.mean + prior.apply_L(noise), atol=1e-13)
