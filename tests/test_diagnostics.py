"""IAT/ESS, mean squared jump, MPSRF, and cost-per-sample aggregation."""

import logging

import numpy as np
import pytest

from hessmc.diagnostics import (autocorrelation, diagnostics_report, ess, iat,
                                mpsrf, msj)
from hessmc.fem import Mesh1D, assemble_mass
from hessmc.samplers import Chain


def ar1(n, phi, rng):
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    s = np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + s * eps[t]
    return x


def make_chain(samples, solves_last=100):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 1:
        samples = samples.T
    n = samples.shape[0]
    return Chain(samples=samples, accepted=np.ones(n, dtype=bool),
                 log_post=np.zeros(n),
                 cum_solves=np.linspace(1, solves_last, n).astype(np.int64))


# -- autocorrelation / IAT ---------------------------------------------------

def test_autocorrelation_matches_direct_sum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    xc = x - x.mean()
    a0 = (xc @ xc) / 50
    direct = np.array([(xc[:-s] @ xc[s:]) / 50 / a0 for s in range(1, 6)])
    np.testing.assert_allclose(autocorrelation(x, 5), direct, atol=1e-12)


def test_autocorrelation_rejects_zero_variance():
    with pytest.raises(FloatingPointError):
        autocorrelation(np.full(20, 3.0), 4)


def test_iat_recovers_ar1_value():
    # tau = (1 + phi) / (1 - phi) = 3 at phi = 0.5
    x = ar1(200_000, 0.5, np.random.default_rng(42))
    assert iat(x) == pytest.approx(3.0, rel=0.1)


def test_iat_iid_is_near_one():
    x = np.random.default_rng(1).standard_normal(50_000)
    assert 0.9 <= ess(x) / x.size <= 1.1
    assert iat(x) >= 1.0


def test_iat_duplicated_pairs():
    # every value appears twice in a row: half the information
    rng = np.random.default_rng(7)
    x = np.repeat(rng.standard_normal(40_000), 2)
    assert iat(x) == pytest.approx(2.0, rel=0.05)


def test_iat_constant_series_reports_full_correlation(caplog):
    with caplog.at_level(logging.WARNING, logger="hessmc.diagnostics"):
        assert iat(np.full(123, 1.5)) == 123.0
    assert "constant series" in caplog.text
    assert iat(np.array([4.0])) == 1.0


# -- mean squared jump --------------------------------------------------------

def test_msj_hand_example():
    space = assemble_mass(Mesh1D.uniform(2, 1.0))  # M = [[1/3,1/6],[1/6,1/3]]
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    # jumps (1,0) and (0,2): quadratic forms 1/3 and 4/3
    assert msj(X, space) == pytest.approx(5.0 / 6.0, rel=1e-12)
    with pytest.raises(ValueError):
        msj(X[:1], space)


# -- MPSRF ---------------------------------------------------------------------

def test_mpsrf_iid_chains_near_one():
    rng = np.random.default_rng(0)
    chains = [rng.standard_normal((2000, 5)) for _ in range(4)]
    r = mpsrf(chains)
    assert 0.99 <= r <= 1.02


def test_mpsrf_flags_separated_chains():
    rng = np.random.default_rng(0)
    chains = [rng.standard_normal((2000, 5)) + off for off in (-5.0, 5.0, 0.0)]
    assert mpsrf(chains) > 1.5


def test_mpsrf_frozen_chains():
    point = np.array([1.0, 2.0])
    frozen = np.tile(point, (50, 1))
    assert mpsrf([frozen, frozen.copy()]) == pytest.approx(np.sqrt(49 / 50))
    other = np.tile(point + 1.0, (50, 1))
    assert mpsrf([frozen, other]) == np.inf


def test_mpsrf_burn_in_discards_transient():
    rng = np.random.default_rng(5)
    chains = []
    for off in (-4.0, 4.0):
        X = rng.standard_normal((1000, 3))
        X[:500] += off  # transient half
        chains.append(X)
    assert mpsrf(chains) > 1.3
    assert mpsrf([X[500:] for X in chains]) < 1.05


def test_mpsrf_validation():
    X = np.random.default_rng(0).standard_normal((100, 2))
    with pytest.raises(ValueError):
        mpsrf([X])
    with pytest.raises(ValueError):
        mpsrf([X[:1], X[:1]])


def test_mpsrf_singular_within_covariance_uses_ridge(caplog):
    # second coordinate never moves within a chain but differs between
    # chains: W is singular there and the ridge path must kick in
    rng = np.random.default_rng(9)
    a = np.column_stack([rng.standard_normal(200), np.zeros(200)])
    b = np.column_stack([rng.standard_normal(200), np.ones(200)])
    with caplog.at_level(logging.WARNING, logger="hessmc.diagnostics"):
        r = mpsrf([a, b])
    assert np.isfinite(r) and r > 10.0
    assert "ridge" in caplog.text


# -- aggregation ----------------------------------------------------------------

def test_diagnostics_report_invariants():
    space = assemble_mass(Mesh1D.uniform(3, 1.0))
    rng = np.random.default_rng(8)
    chains = [make_chain(rng.standard_normal((500, 3)), solves_last=s)
              for s in (50, 70)]
    rep = diagnostics_report("rwmh", chains, space, probe_index=1,
                             setup_solves=30, wall_time=2.0)
    assert rep.method == "rwmh"
    assert rep.n_chains == 2
    assert rep.n_samples_total == 1000
    assert rep.ess == pytest.approx(rep.n_samples_total / rep.iat, rel=1e-12)
    assert rep.ess == pytest.approx(
        ess(chains[0].samples[:, 1]) + ess(chains[1].samples[:, 1]), rel=1e-12)
    assert rep.solves_total == 30 + 50 + 70
    assert rep.spis == pytest.approx(rep.solves_total / rep.ess, rel=1e-12)
    assert rep.tpis == pytest.approx(2.0 / rep.ess, rel=1e-12)
    assert rep.acceptance_rate == 1.0
    assert rep.msj > 0.0
    assert 0.9 < rep.mpsrf < 1.1


def test_diagnostics_report_single_chain_and_burn():
    space = assemble_mass(Mesh1D.uniform(3, 1.0))
    rng = np.random.default_rng(12)
    ch = make_chain(rng.standard_normal((100, 3)))
    rep = diagnostics_report("ismap", [ch.after_burn_in(0.3)], space, probe_index=0)
    assert np.isnan(rep.mpsrf)
    assert rep.n_samples_total == 70
    assert rep.tpis is None


def test_diagnostics_report_counts_frozen_chains():
    space = assemble_mass(Mesh1D.uniform(3, 1.0))
    rng = np.random.default_rng(4)
    chains = [make_chain(rng.standard_normal((100, 3))) for _ in range(3)]
    chains[0].accepted[:] = False           # never moved
    chains[1].accepted[30:] = False         # moved during burn-in only
    assert diagnostics_report("sn", chains, space, 0).frozen_chains == 1
    burned = [ch.after_burn_in(0.3) for ch in chains]
    assert diagnostics_report("sn", burned, space, 0).frozen_chains == 2
