"""Hessian-preconditioned MCMC for discretized 1D Bayesian inverse problems.

The package couples a mass-weighted finite element parameter space with
low-rank Hessian algebra to run Newton-type Metropolis-Hastings samplers
(stochastic Newton, its MAP-frozen variant, and MAP-based independence
sampling), plus the MAP solver, convergence diagnostics, and posterior
eigen-analysis around them.
"""

from .fem import Mesh1D, WeightedSpace, assemble_mass, assemble_stiffness
from .prior import GaussianPrior, build_prior
from .models import (ExpReaction1D, LinearGaussianModel, ObservationSetup,
                     SolveCounter, gradient, hvp, log_posterior, synthesize_data)
from .lowrank import LowRankHessian, build_lowrank
from .map_point import MapResult, solve_map
from .samplers import (Chain, ChainState, SamplerSettings, mh_step, run_chain,
                       run_chains, select_start_points)
from .diagnostics import (DiagnosticsReport, diagnostics_report, ess, iat,
                          mpsrf, msj)
from .analysis import (classify_eigenvectors, eigen_marginal, pair_density,
                       point_marginal, posterior_eigensystem)
from .config import RunConfig

__version__ = "0.1.0"
