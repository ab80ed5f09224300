"""Inexact Newton-CG minimization of the negative log posterior.

The Newton system H p = -g is solved by conjugate gradients formulated in
the M inner product (H is self-adjoint there), matrix-free through Hessian
actions and preconditioned by the prior covariance Gamma = K^{-1} M, which
is M-self-adjoint and O(n) to apply. Gamma H = I + Gamma H_misfit is the
identity plus a compact, data-informed part, so the CG count follows the
number of directions the data inform and does not grow with the mesh. The
stopping test stays on the unpreconditioned residual ||r||_M. CG is
truncated adaptively: the forcing term follows
eta_k = min(0.5, sqrt(||g_k|| / ||g_0||)) unless a fixed relative
tolerance is requested, and encountering non-positive curvature stops the
inner iteration (falling back to steepest descent if it happens on the
first CG step). Steps are globalized with Armijo backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .models import ForwardModel, gradient, hvp, log_posterior
from .prior import GaussianPrior

GRAD_TOL_ABS = 1e-12   # gradient norm below which the MAP is converged outright
ARMIJO_C = 1e-4        # sufficient-decrease constant of the line search


@dataclass
class MapResult:
    m_map: np.ndarray
    converged: bool
    newton_iters: int
    cg_iters_total: int
    grad_norms: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    line_search_steps: list[float] = field(default_factory=list)


def solve_map(model: ForwardModel, prior: GaussianPrior,
              grad_tol_rel: float = 1e-5,
              max_newton: int = 50,
              cg_rtol: float | None = None,
              max_backtracks: int = 30) -> MapResult:
    """Find the posterior mode, starting at the prior mean.

    Newton stops once ||g|| <= max(grad_tol_rel ||g_0||, GRAD_TOL_ABS);
    each CG solve runs at most n iterations.

    Non-convergence within max_newton iterations is reported through
    ``converged=False`` on the result, not as an exception. A trial point
    whose objective cannot be evaluated (NumericalError) counts as a
    failed trial and halves the step; a failed line search (no decrease
    after max_backtracks halvings) raises NumericalError.
    """
    space = prior.space
    m = prior.mean.copy()

    def objective(point: np.ndarray) -> float:
        return -log_posterior(model, prior, point)

    J = objective(m)
    result = MapResult(m_map=m, converged=False, newton_iters=0, cg_iters_total=0)
    result.objective.append(J)
    g0_norm = None

    for it in range(max_newton):
        g = gradient(model, prior, m)
        g_norm = space.norm(g)
        result.grad_norms.append(g_norm)
        if g0_norm is None:
            g0_norm = g_norm
        if g_norm <= max(grad_tol_rel * g0_norm, GRAD_TOL_ABS):
            result.converged = True
            break

        eta = cg_rtol if cg_rtol is not None else min(0.5, np.sqrt(g_norm / g0_norm))

        # CG on H p = -g in the M inner product, preconditioned by Gamma
        p = np.zeros_like(m)
        res = -g
        d = prior.apply_covariance(res)
        rho = space.inner(res, d)
        for _ in range(space.n):
            Hd = hvp(model, prior, m, d)
            result.cg_iters_total += 1
            curv = space.inner(d, Hd)
            if curv <= 0.0:
                if not np.any(p):
                    p = -g
                break
            alpha = rho / curv
            p += alpha * d
            res -= alpha * Hd
            if space.norm(res) <= eta * g_norm:
                break
            z = prior.apply_covariance(res)
            rho_new = space.inner(res, z)
            d = z + (rho_new / rho) * d
            rho = rho_new

        slope = space.inner(g, p)
        if slope >= 0.0:
            p = -g
            slope = -space.inner(g, g)

        step = 1.0
        for _ in range(max_backtracks + 1):
            try:
                J_trial = objective(m + step * p)
            except NumericalError:
                # e.g. exp(m) overflows at the trial point: a failed trial
                J_trial = np.inf
            if J_trial <= J + ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            raise NumericalError("Armijo line search failed to find a decrease")

        m = m + step * p
        J = J_trial
        result.newton_iters += 1
        result.objective.append(J)
        result.line_search_steps.append(step)
        result.m_map = m
    else:
        # loop exhausted; record the final gradient for reporting
        g_norm = space.norm(gradient(model, prior, m))
        result.grad_norms.append(g_norm)
        if g0_norm is not None and g_norm <= max(grad_tol_rel * g0_norm, GRAD_TOL_ABS):
            result.converged = True

    result.m_map = m
    return result
