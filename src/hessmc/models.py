"""Forward models, observations, and posterior derivatives.

Two models share one interface:

* ``LinearGaussianModel`` -- f(m) = F m with no state equation. The
  posterior is exactly Gaussian, which makes it the verification target
  for the samplers (unit acceptance ratio, known mean/covariance).

* ``ExpReaction1D`` -- observations of the state u solving the reaction
  equation -u'' + exp(m) u = s on the mesh interval with natural boundary
  conditions, discretized with the same linear elements as the parameter.

The negative log posterior is

    J(m) = 1/2 ||f(m) - y_obs||^2_{Gamma_noise^{-1}}
         + 1/2 <m - m0, A (m - m0)>_M,

and ``gradient``/``hvp`` return its exact first and second derivatives as
Riesz representers in the M inner product: assembled integrals against
test functions are converted by a single application of M^{-1}, and the
observation pullback uses B* = M^{-1} B^T. A model's ``misfit_hvp_raw``
stops before that conversion and returns the assembled action
M H_misfit mhat, which is Euclidean-symmetric; the low-rank build and the
eigen-analysis work with it directly, and only ``hvp`` applies M^{-1}.
Second-order (non-Gauss-Newton) terms are kept in the Hessian action.
M and the PDE operator are stored tridiagonal (see ``fem``) and solved
with the LAPACK dpttrf/dpttrs pair, so every M^{-1} application and
every PDE solve is O(n).

Every linear(ized) PDE solve is reported to a ``SolveCounter``; the
samplers' per-step cost ledger depends on these counts being exact, so
each model caches its most recent forward/adjoint state per parameter
point and only counts genuinely new solves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .fem import (Mesh1D, TridiagonalFactor, WeightedSpace,
                  assemble_product_load, assemble_stiffness,
                  assemble_weighted_mass, interpolation_matrix)
from .prior import GaussianPrior


@dataclass
class SolveCounter:
    """Ledger of linearized PDE solves (forward, adjoint, incremental)."""

    forward_solves: int = 0
    adjoint_solves: int = 0
    incremental_solves: int = 0

    @property
    def total(self) -> int:
        return self.forward_solves + self.adjoint_solves + self.incremental_solves

    def reset(self) -> None:
        self.forward_solves = 0
        self.adjoint_solves = 0
        self.incremental_solves = 0


@dataclass
class ObservationSetup:
    """Observation operator, noise model, and data.

    sigma is the per-observation noise standard deviation; the noise
    covariance is diag(sigma^2) and must stay positive definite.
    """

    points: np.ndarray
    B: np.ndarray
    sigma: np.ndarray
    y_obs: np.ndarray
    y_clean: np.ndarray

    def __post_init__(self):
        if np.any(self.sigma <= 0.0):
            raise ValueError("noise standard deviations must be positive")

    @property
    def q(self) -> int:
        return self.B.shape[0]

    def weighted_residual(self, y: np.ndarray) -> np.ndarray:
        """Gamma_noise^{-1} (y - y_obs)."""
        return (y - self.y_obs) / self.sigma**2

    def misfit(self, y: np.ndarray) -> float:
        r = (y - self.y_obs) / self.sigma
        return 0.5 * float(r @ r)


class ForwardModel:
    """Interface shared by the concrete models.

    Subclasses must set ``mesh``, ``space``, ``counter`` and (once data
    exists) ``obs``, and implement ``predict``, ``misfit_gradient`` and
    ``misfit_hvp_raw``. Observations are f(m); the data-misfit gradient is
    returned as an M-representer, and its Hessian action as the assembled
    functional M H_misfit mhat (no M^{-1} applied).
    """

    mesh: Mesh1D
    space: WeightedSpace
    obs: ObservationSetup | None
    counter: SolveCounter

    def predict(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def misfit_gradient(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def misfit_hvp_raw(self, m: np.ndarray, mhat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def clone(self) -> "ForwardModel":
        """Deep copy with a fresh counter (one per chain worker)."""
        other = copy.deepcopy(self)
        other.counter = SolveCounter()
        return other

    def _require_obs(self) -> ObservationSetup:
        if self.obs is None:
            raise NumericalError("model has no observation setup; synthesize data first")
        return self.obs


class LinearGaussianModel(ForwardModel):
    """f(m) = F m; no state is formed. By default F is the observation
    interpolation matrix itself, so q = number of observation points.

    Solve accounting mirrors the PDE model: one "forward" per new
    prediction point, one "adjoint" per gradient, two "incremental"
    solves per Hessian action, even though each is a plain matvec.
    """

    def __init__(self, mesh: Mesh1D, space: WeightedSpace, F: np.ndarray):
        self.mesh = mesh
        self.space = space
        self.F = np.asarray(F, dtype=float)
        self.obs = None
        self.counter = SolveCounter()
        self._pred_cache: tuple[np.ndarray, np.ndarray] | None = None

    def predict(self, m: np.ndarray) -> np.ndarray:
        if self._pred_cache is not None and np.array_equal(self._pred_cache[0], m):
            return self._pred_cache[1]
        y = self.F @ m
        self.counter.forward_solves += 1
        self._pred_cache = (m.copy(), y)
        return y

    def misfit_gradient(self, m: np.ndarray) -> np.ndarray:
        obs = self._require_obs()
        y = self.predict(m)
        g_hat = self.F.T @ obs.weighted_residual(y)
        self.counter.adjoint_solves += 1
        return self.space.solve(g_hat)

    def misfit_hvp_raw(self, m: np.ndarray, mhat: np.ndarray) -> np.ndarray:
        obs = self._require_obs()
        self.counter.incremental_solves += 2
        return self.F.T @ ((self.F @ mhat) / obs.sigma**2)


class ExpReaction1D(ForwardModel):
    """-u'' + exp(m) u = s with natural boundary conditions.

    The weak form uses the nodal interpolant of exp(m), so the discrete
    operator is F(m) = K0 + W(exp(m)) with K0 the Laplacian stiffness and
    W(c) the c-weighted mass matrix; all element integrals are exact.
    Because F(m) is linear in the interpolated coefficient, the adjoint,
    incremental-forward and incremental-adjoint systems below give the
    exact derivatives of the discrete misfit:

        forward      F(m) u = M s
        adjoint      F(m) v = -B^T Gamma_noise^{-1} (B u - y_obs)
        inc. forward F(m) uhat = -W(mhat exp(m)) u
        inc. adjoint F(m) vhat = -B^T Gamma_noise^{-1} B uhat - W(mhat exp(m)) v

    Misfit gradient (M-representer): M^{-1}[exp(m) .* load(u v)] and the
    assembled Hessian action keeps all second-order terms:
        M H_misfit mhat = mhat exp(m) .* load(u v)
                          + exp(m) .* (load(uhat v) + load(u vhat)).

    F(m) is tridiagonal and stored as such. One L D L^T factorization
    of it (LAPACK dpttrf) is kept per parameter point, together with the
    states and exp(m) .* load(u v), and reused by the gradient and by every
    Hessian action at that point; each solve is one O(n) dpttrs call.
    Since load(a b) = W(a) b = W(b) a (both are the exact integral of
    phi_k a_h b_h), the first Hessian action at a point also keeps the
    tridiagonal W(u) and W(v); every action then applies
    W(mhat exp(m)) u = W(u) (mhat exp(m)) and its companions as four
    tridiagonal matvecs, with no assembly.
    """

    def __init__(self, mesh: Mesh1D, space: WeightedSpace,
                 source_constant: float = 1.0):
        self.mesh = mesh
        self.space = space
        self.source_constant = float(source_constant)
        self.K0 = assemble_stiffness(mesh, a=1.0, b=0.0)
        self.rhs = space.mass.matvec(np.full(mesh.n_nodes, self.source_constant))
        self.obs = None
        self.counter = SolveCounter()
        self._state: dict | None = None

    # -- state handling ------------------------------------------------

    def _factorize(self, m: np.ndarray) -> tuple[np.ndarray, TridiagonalFactor]:
        """exp(m) and the factors of F(m); an overflowed exp(m) or a NaN
        raises NumericalError through the non-finite check of the factor."""
        em = np.exp(m)
        return em, (self.K0 + assemble_weighted_mass(self.mesh, em)).factor()

    def _forward_state(self, m: np.ndarray) -> dict:
        if self._state is not None and np.array_equal(self._state["m"], m):
            return self._state
        em, factor = self._factorize(m)
        u = factor.solve(self.rhs)
        self.counter.forward_solves += 1
        if not np.all(np.isfinite(u)):
            raise NumericalError("forward solve produced non-finite state")
        self._state = {"m": m.copy(), "em": em, "factor": factor, "u": u}
        return self._state

    def _adjoint_state(self, m: np.ndarray) -> dict:
        """Forward state plus the adjoint v and exp(m) .* load(u v), which the
        gradient and every Hessian action at m share."""
        state = self._forward_state(m)
        if "v" not in state:
            obs = self._require_obs()
            y = obs.B @ state["u"]
            rhs = -obs.B.T @ obs.weighted_residual(y)
            state["v"] = state["factor"].solve(rhs)
            self.counter.adjoint_solves += 1
            state["em_uv"] = state["em"] * assemble_product_load(self.mesh, state["u"],
                                                                 state["v"])
        return state

    # -- model interface -----------------------------------------------

    def solve_forward(self, m: np.ndarray) -> np.ndarray:
        """State u at parameter m (cached per point)."""
        return self._forward_state(m)["u"]

    def observe(self, u: np.ndarray) -> np.ndarray:
        return self._require_obs().B @ u

    def predict(self, m: np.ndarray) -> np.ndarray:
        return self.observe(self.solve_forward(m))

    def misfit_gradient(self, m: np.ndarray) -> np.ndarray:
        return self.space.solve(self._adjoint_state(m)["em_uv"])

    def misfit_hvp_raw(self, m: np.ndarray, mhat: np.ndarray) -> np.ndarray:
        state = self._adjoint_state(m)
        obs = self._require_obs()
        if "Wu" not in state:
            state["Wu"] = assemble_weighted_mass(self.mesh, state["u"])
            state["Wv"] = assemble_weighted_mass(self.mesh, state["v"])
        em, factor, Wu, Wv = state["em"], state["factor"], state["Wu"], state["Wv"]
        dc = mhat * em
        uhat = factor.solve(-Wu.matvec(dc))
        vhat = factor.solve(-obs.B.T @ ((obs.B @ uhat) / obs.sigma**2) - Wv.matvec(dc))
        self.counter.incremental_solves += 2
        return mhat * state["em_uv"] + em * (Wv.matvec(uhat) + Wu.matvec(vhat))


# -- posterior pieces ----------------------------------------------------

def log_posterior(model: ForwardModel, prior: GaussianPrior, m: np.ndarray) -> float:
    """Unnormalized log posterior: -misfit - prior quadratic."""
    obs = model._require_obs()
    y = model.predict(m)
    return -obs.misfit(y) + prior.log_density(m)


def gradient(model: ForwardModel, prior: GaussianPrior, m: np.ndarray) -> np.ndarray:
    """M-representer of dJ: misfit gradient + A(m - m0)."""
    return model.misfit_gradient(m) + prior.apply_A(m - prior.mean)


def hvp(model: ForwardModel, prior: GaussianPrior, m: np.ndarray,
        mhat: np.ndarray) -> np.ndarray:
    """Action of the full Hessian of J at m on mhat (an M-representer)."""
    return model.space.solve(model.misfit_hvp_raw(m, mhat)) + prior.apply_A(mhat)


def synthesize_data(model: ForwardModel, m_true: np.ndarray, noise_rel: float,
                    rng: np.random.Generator,
                    points: np.ndarray | None = None) -> ObservationSetup:
    """Generate observations at m_true with relative Gaussian noise.

    The noise level is sigma = noise_rel * max_j |f(m_true)_j|, identical
    for every observation. With noise_rel = 0 the data equal the clean
    signal exactly; the stored sigma then gets a tiny relative floor so
    the noise covariance stays positive definite.
    """
    if noise_rel < 0.0:
        raise ValueError("noise_rel must be non-negative")
    if model.obs is None:
        if points is None:
            raise ValueError("model has no observation operator; pass points")
        B = interpolation_matrix(model.mesh, points)
        pts = np.asarray(points, dtype=float)
    else:
        B = model.obs.B
        pts = model.obs.points
    if isinstance(model, LinearGaussianModel):
        y_clean = model.F @ m_true
    else:
        # solved outside the counter-facing cache path on purpose:
        # data synthesis is not part of any sampling cost ledger
        y_clean = B @ model._factorize(m_true)[1].solve(model.rhs)
    scale = float(np.max(np.abs(y_clean)))
    if scale == 0.0:
        scale = 1.0
    sigma_draw = noise_rel * scale
    y_obs = y_clean + sigma_draw * rng.standard_normal(y_clean.shape)
    sigma_store = max(sigma_draw, 1e-12 * scale)
    obs = ObservationSetup(points=pts, B=B,
                           sigma=np.full(y_clean.size, sigma_store),
                           y_obs=y_obs, y_clean=y_clean.copy())
    model.obs = obs
    if isinstance(model, ExpReaction1D):
        model._state = None  # observation change invalidates adjoint caches
    else:
        model._pred_cache = None
    return obs


def observation_points(mesh: Mesh1D, count: int, region: str = "right_half") -> np.ndarray:
    """Uniformly spaced observation points; default on [L/2, L]."""
    x0, x1 = mesh.node_coords[0], mesh.node_coords[-1]
    if region == "right_half":
        lo, hi = x0 + 0.5 * (x1 - x0), x1
    elif region == "full":
        lo, hi = x0, x1
    else:
        raise ValueError(f"unknown observation region {region!r}")
    if count < 1:
        raise ValueError("need at least one observation point")
    return np.linspace(lo, hi, count)
