"""Newton-CG MAP solver."""

import numpy as np
import pytest
import scipy.linalg

from hessmc.analysis import posterior_eigensystem
from hessmc.config import RunConfig
from hessmc.errors import NumericalError
from hessmc.fem import Mesh1D, assemble_mass, interpolation_matrix
from hessmc.map_point import solve_map
from hessmc.models import (LinearGaussianModel, gradient, observation_points,
                           synthesize_data)
from hessmc.pipeline import build_problem, observed_mask
from hessmc.prior import build_prior

from conftest import make_small_problem


def test_linear_problem_converges_in_one_newton_step():
    # quadratic objective + essentially exact inner solves
    mesh, space, prior, model, _ = make_small_problem(n=35, q=6, kind="linear")
    res = solve_map(model.clone(), prior, cg_rtol=1e-12)
    assert res.converged
    assert res.newton_iters == 1
    assert res.line_search_steps == [1.0]
    g = gradient(model.clone(), prior, res.m_map)
    assert space.norm(g) <= 1e-8 * res.grad_norms[0]


def test_zero_gradient_start_terminates_immediately():
    # data synthesized exactly at the prior mean with no noise: the mean
    # is already the mode and the solver should not move at all
    mesh = Mesh1D.uniform(25, 1.0)
    space = assemble_mass(mesh)
    prior = build_prior(mesh, 1e-2, 1e2, mean=1.0, space=space)
    pts = observation_points(mesh, 5)
    model = LinearGaussianModel(mesh, space, interpolation_matrix(mesh, pts))
    synthesize_data(model, prior.mean, 0.0, np.random.default_rng(0), points=pts)
    res = solve_map(model, prior)
    assert res.converged
    assert res.newton_iters == 0
    assert res.grad_norms[0] == 0.0
    np.testing.assert_array_equal(res.m_map, prior.mean)


def test_nonlinear_problem_defaults():
    mesh, space, prior, model, _ = make_small_problem()
    res = solve_map(model.clone(), prior)
    assert res.converged
    assert res.grad_norms[-1] <= 1e-5 * res.grad_norms[0]
    # monotone decrease, and every accepted step came from halving
    J = np.asarray(res.objective)
    assert np.all(np.diff(J) < 0.0)
    assert all(0.0 < s <= 1.0 for s in res.line_search_steps)
    assert len(res.objective) == res.newton_iters + 1
    assert len(res.line_search_steps) == res.newton_iters


class _FailsOnFirstTrial:
    """Model wrapper whose second prediction, the first Armijo trial point,
    raises as an overflowed exp(m) would."""

    def __init__(self, model):
        self.model = model
        self.predictions = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def predict(self, m):
        self.predictions += 1
        if self.predictions == 2:
            raise NumericalError("simulated overflow at the trial point")
        return self.model.predict(m)


def test_numerical_error_at_trial_point_halves_the_step():
    mesh, space, prior, model, _ = make_small_problem()
    reference = solve_map(model.clone(), prior)
    wrapped = _FailsOnFirstTrial(model.clone())
    res = solve_map(wrapped, prior)
    assert wrapped.predictions > 2
    assert res.converged
    assert res.line_search_steps[0] == 0.5
    assert res.grad_norms[-1] <= 1e-5 * res.grad_norms[0]
    assert space.norm(res.m_map - reference.m_map) <= 1e-3 * space.norm(reference.m_map)
    # with no halving left the failed trial still ends the search
    with pytest.raises(NumericalError):
        solve_map(_FailsOnFirstTrial(model.clone()), prior, max_backtracks=0)


def test_cg_iterations_account_for_all_incremental_solves():
    mesh, space, prior, model, _ = make_small_problem()
    worker = model.clone()  # a fresh counter
    res = solve_map(worker, prior)
    # every Hessian action inside CG costs two incremental solves, and
    # nothing else touches that counter
    assert worker.counter.incremental_solves == 2 * res.cg_iters_total


def test_exp_map_cg_count_does_not_grow_with_the_mesh():
    # with the prior covariance as preconditioner CG sees the identity plus
    # the compact data-informed part, whose rank does not depend on n
    counts = []
    for n in (139, 2000):
        prob = build_problem(RunConfig({"mesh.n_nodes": n}))
        res = solve_map(prob.model.clone(), prob.prior)
        assert res.converged
        counts.append(res.cg_iters_total)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("seed", [0, 7])
def test_default_exp_map_reaches_a_tight_tolerance(seed):
    # seed 0 once stopped in the Armijo line search at ||g||/||g0|| = 2.6e-8,
    # where the decrease it asked for fell below the rounding of J
    prob = build_problem(RunConfig({"run.seed": seed}))
    res = solve_map(prob.model.clone(), prob.prior, grad_tol_rel=1e-8)
    assert res.converged
    assert res.grad_norms[-1] <= 1e-8 * res.grad_norms[0]


def test_iteration_budget_reports_nonconvergence():
    mesh, space, prior, model, _ = make_small_problem()
    res = solve_map(model.clone(), prior, max_newton=1)
    assert not res.converged
    assert res.newton_iters == 1
    assert len(res.grad_norms) == 2  # initial + post-exhaustion report


def test_default_problem_error_split():
    """Reconstruction error on the full-size problem, frozen to the
    accuracy that the MAP stopping rule guarantees.

    The observed right half carries a slightly larger error than the
    blind left half: the exponential reaction term couples the state to
    the parameter most strongly where the solution gradient is largest,
    and the noise level is calibrated to the signal peak sitting there.
    The left half simply reverts toward the prior mean, which by chance
    is a decent guess for this truth.

    The solver stops once ||g|| <= 1e-5 ||g_0||, so it fixes the returned
    point only to within its distance from the exact mode. Near the mode
    g ~ H (m - m_map), hence ||m - m_map||_M <= ||g_final||_M / lam_min
    with lam_min the smallest eigenvalue of the (M-self-adjoint) Hessian.
    Restricting to one half scales an M-norm by at most c_mask, the
    M-operator norm of the 0/1 mask (about 1.04 here: the consistent mass
    matrix couples the two nodes either side of the cut). The frozen
    values and this run may each sit anywhere within that bound, so both
    are compared at

        tol = 2 c_mask ||g_final||_M / lam_min     (about 4.3e-4),

    which is far below the 0.055 gap between the two norms. Digits beyond
    it depend on the floating-point path, not on the method.
    """
    cfg = RunConfig()
    prob = build_problem(cfg)
    res = solve_map(prob.model.clone(), prob.prior)
    assert res.converged
    assert res.newton_iters == 9
    e = res.m_map - prob.m_true
    mask = observed_mask(prob.mesh, cfg["obs.region"])
    obs_err = prob.space.norm(np.where(mask, e, 0.0))
    unobs_err = prob.space.norm(np.where(mask, 0.0, e))

    lam, _, _ = posterior_eigensystem(prob.model.clone(), prob.prior, res.m_map)
    M = prob.space.mass.dense()
    c_mask = max(np.sqrt(scipy.linalg.eigh(np.where(np.outer(k, k), M, 0.0), M,
                                           eigvals_only=True)[-1])
                 for k in (mask, ~mask))
    tol = 2.0 * c_mask * res.grad_norms[-1] / lam[-1]
    assert obs_err == pytest.approx(0.3569694717339446, rel=0.0, abs=tol)
    assert unobs_err == pytest.approx(0.30230747449190337, rel=0.0, abs=tol)
    assert obs_err > unobs_err
