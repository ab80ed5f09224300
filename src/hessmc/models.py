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
``stacked_hvp_raw`` gives the same action for c chain workers, each at
its own point, in one set of BLAS/LAPACK calls; every column it returns
is bit-identical to that worker's ``misfit_hvp_raw``. In the same way
``evaluate_points`` gives the log posterior and gradient at c points,
one per worker, from one ``stacked_misfit`` (the forward and adjoint
solves of all points at once) and one multi-RHS mass solve, each value
bit-identical to ``log_posterior`` and ``gradient`` at that point alone,
which stay the one-point reference (the MAP solver's path).
Second-order (non-Gauss-Newton) terms are kept in the Hessian action.
M and the PDE operator are stored tridiagonal (see ``fem``) and solved
with the LAPACK dpttrf/dpttrs pair, so every M^{-1} application and
every PDE solve is O(n); an exp-model Hessian action is a handful of
BLAS/LAPACK calls (two dpttrs, four banded dgbmv products and the
observation products).

Every linear(ized) PDE solve is reported to a ``SolveCounter``; the
samplers' per-step cost ledger depends on these counts being exact, so
each model caches its most recent forward/adjoint state per parameter
point, keyed on the point's bytes, and only counts genuinely new solves.
The stacked paths keep each worker's cache and counter as the one-point
calls would.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fem import (Mesh1D, TridiagonalFactor, WeightedSpace, assemble_product_load,
                  assemble_stiffness, assemble_weighted_mass, band_matvec,
                  interpolation_matrix)
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
        self.sigma2 = self.sigma**2

    @property
    def q(self) -> int:
        return self.B.shape[0]

    def weighted_residual(self, y: np.ndarray) -> np.ndarray:
        """Gamma_noise^{-1} (y - y_obs), of a vector or of each row of a block."""
        return (y - self.y_obs) / self.sigma2

    def misfit(self, y: np.ndarray) -> float | np.ndarray:
        """1/2 ||y - y_obs||^2 in the noise precision, of a vector or of each
        row of a block."""
        r = (y - self.y_obs) / self.sigma
        return 0.5 * np.vecdot(r, r)


class ForwardModel:
    """Interface shared by the concrete models.

    Subclasses must set ``mesh``, ``space``, ``counter`` and (once data
    exists) ``obs``, and implement ``predict``, ``misfit_gradient``,
    ``stacked_hvp_raw`` and ``misfit_hvp_raw``. Observations are f(m); the
    data-misfit gradient is returned as an M-representer, and its Hessian
    action as the assembled functional M H_misfit mhat (no M^{-1} applied).
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

    @classmethod
    def stacked_misfit(cls, workers: list["ForwardModel"], points: np.ndarray,
                       adjoint: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
        """The data misfit at each row of ``points`` (c, n), row i for
        ``workers[i]``, and with ``adjoint`` the assembled misfit gradients
        M g_misfit as rows, in one set of BLAS/LAPACK calls for all rows.

        Returns (misfits (c,), gradients (c, n) or None, errors): a row
        whose state cannot be formed holds nan, and ``errors`` maps it to
        the NumericalError that stopped it. Every other row is bit for
        bit ``obs.misfit(predict(m))`` and ``M misfit_gradient(m)`` of its
        worker alone, and each worker's point cache and counter change as
        those calls would change them. The workers are clones of one model
        (``clone``): the operators and data are read from the first."""
        raise NotImplementedError

    @classmethod
    def stacked_hvp_raw(cls, workers: list["ForwardModel"], points: list[np.ndarray]):
        """X -> Y with Y[:, i] = workers[i].misfit_hvp_raw(points[i], X[:, i]),
        bit for bit, for X of shape (n, c); each call adds two incremental
        solves to every worker's counter. The per-point state is formed
        (and counted) when the action is made, so a point whose state
        cannot be formed raises NumericalError here."""
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
        self._pred_cache: tuple[bytes, np.ndarray] | None = None

    def predict(self, m: np.ndarray) -> np.ndarray:
        key = m.tobytes()
        if self._pred_cache is not None and self._pred_cache[0] == key:
            return self._pred_cache[1]
        y = self.F @ m
        self.counter.forward_solves += 1
        self._pred_cache = (key, y)
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
        return self.F.T @ ((self.F @ mhat) / obs.sigma2)

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        """F m and F^T Gamma_noise^{-1}(F m - y_obs) for every row: np.matvec
        runs one gemv per row, as F @ m does alone. A worker whose cache
        holds the point counts no forward solve; its cached F m has the
        same bits."""
        model = workers[0]
        obs = model._require_obs()
        Y = np.matvec(model.F, points)
        for w, m, y in zip(workers, points, Y):
            key = m.tobytes()
            if w._pred_cache is None or w._pred_cache[0] != key:
                w.counter.forward_solves += 1
                w._pred_cache = (key, y)
        raw = None
        if adjoint:
            raw = np.matvec(model.F.T, obs.weighted_residual(Y))
            for w in workers:
                w.counter.adjoint_solves += 1
        return obs.misfit(Y), raw, {}

    @classmethod
    def stacked_hvp_raw(cls, workers, points):
        """F^T ((F mhat) / sigma^2) for every worker: np.matvec runs one gemv
        per chain, as F @ mhat does alone. The workers are clones of one
        model: F and sigma are read from the first."""
        F, sigma2 = workers[0].F, workers[0]._require_obs().sigma2

        def apply(X: np.ndarray) -> np.ndarray:
            for w in workers:
                w.counter.incremental_solves += 2
            return np.matvec(F.T, np.matvec(F, X.T) / sigma2).T
        return apply


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
    phi_k a_h b_h), W(mhat exp(m)) u = W(u) diag(exp(m)) mhat and
    exp(m) .* load(uhat v) = (W(v) diag(exp(m)))^T uhat. So the first
    Hessian action at a point keeps Au = W(u) diag(exp(m)) and
    Av = W(v) diag(exp(m)) in general band storage, and each action is

        uhat = F(m)^{-1} (-Au mhat)
        vhat = F(m)^{-1} (-B^T Gamma_noise^{-1} B uhat - Av mhat)
        M H_misfit mhat = mhat exp(m) .* load(u v) + Av^T uhat + Au^T vhat,

    two dpttrs and four dgbmv calls (the transposed pair accumulating in
    place), with no assembly. ``stacked_hvp_raw`` makes the actions of c
    workers one such set of calls on the block-diagonal system of c n
    unknowns: the factors, bands and e^m .* load(u v) of the c points are
    concatenated with zero coupling between the blocks, and the B products
    run one gemv per chain through np.matvec. ``stacked_misfit`` forms the
    states of c new points the same way: one assembly of the c operators
    F(m_i) as rows, one dpttrf of their block-diagonal system, and one
    dpttrs each for the forward and the adjoint solves.
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
        key = m.tobytes()
        if self._state is not None and self._state["key"] == key:
            return self._state
        em, factor = self._factorize(m)
        u = factor.solve(self.rhs)
        self.counter.forward_solves += 1
        if not np.all(np.isfinite(u)):
            raise NumericalError("forward solve produced non-finite state")
        self._state = {"key": key, "em": em, "factor": factor, "u": u}
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
        state = self._hvp_state(m)
        factor, Au, Av, B = state["factor"], state["Au"], state["Av"], self.obs.B
        uhat = factor.solve(band_matvec(Au, mhat, alpha=-1.0))
        rhs = -(B.T @ ((B @ uhat) / state["sigma2"]))
        vhat = factor.solve(band_matvec(Av, mhat, alpha=-1.0, y=rhs))
        self.counter.incremental_solves += 2
        out = band_matvec(Av, uhat, trans=True, y=mhat * state["em_uv"])
        return band_matvec(Au, vhat, trans=True, y=out)

    def _hvp_state(self, m: np.ndarray) -> dict:
        """The adjoint state plus Au and Av in general band storage and
        sigma^2, formed by the first Hessian action at m."""
        state = self._adjoint_state(m)
        if "Au" not in state:
            em = state["em"]
            state["Au"] = assemble_weighted_mass(self.mesh, state["u"]).column_scaled_band(em)
            state["Av"] = assemble_weighted_mass(self.mesh, state["v"]).column_scaled_band(em)
            state["sigma2"] = self.obs.sigma2
        return state

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        """The forward (and adjoint) solves at the points no worker has
        cached, as one dpttrf and one dpttrs (per solve) on the
        block-diagonal system of their c n unknowns
        (``Tridiagonal.factor_blocks``); the B products run one gemv per
        row through np.matvec. A block that cannot be factored fails its
        row alone. The zero coupling isolates the blocks only while every
        value is finite (0 * nan = nan), so a solve with a non-finite entry
        is redone point by point, as is every point a worker has cached,
        through the one-point state functions."""
        workers[0]._require_obs()
        c = len(workers)
        keys = [m.tobytes() for m in points]
        new = [i for i, (w, key) in enumerate(zip(workers, keys))
               if w._state is None or w._state["key"] != key]
        errors: dict = {}
        parts, redo = [], []
        if new:
            *part, redo = cls._stacked_states(workers, points, keys, new, adjoint, errors)
            if len(part[0]) == c:
                return part[1], part[2], errors
            parts.append(part)
        alone = sorted(set(range(c)).difference(new).union(redo))
        if alone:
            parts.append(cls._point_states(workers, points, alone, adjoint, errors))
        misfit = np.full(c, np.nan)
        raw = np.full(points.shape, np.nan) if adjoint else None
        for rows, mf, g in parts:
            if rows:
                misfit[rows] = mf
                if adjoint:
                    raw[rows] = g
        return misfit, raw, errors

    @classmethod
    def _stacked_states(cls, workers, points, keys, new, adjoint, errors):
        """The forward (and adjoint) states at points[new], stacked; returns
        the rows done, their misfits and assembled gradients, and the rows
        left to the one-point path. A row that cannot be factored goes to
        ``errors``."""
        model = workers[0]
        obs, mesh, n = model.obs, model.mesh, model.space.n
        em = np.exp(points if len(new) == len(points) else points[new])
        factor, live, failed = (model.K0 + assemble_weighted_mass(mesh, em)).factor_blocks()
        rows = new
        if failed:
            errors.update((new[j], exc) for j, exc in failed.items())
            rows = [new[j] for j in live]
            if not rows:
                return rows, None, None, []
            em = em[live]
        u = factor.solve(np.concatenate([model.rhs] * len(rows)))
        if not np.isfinite(u).all():
            return [], None, None, rows
        u = u.reshape(len(rows), n)
        states = []
        for k, i in enumerate(rows):
            state = {"key": keys[i], "em": em[k], "factor": factor.block(k, n), "u": u[k]}
            states.append(state)
            workers[i]._state = state
            workers[i].counter.forward_solves += 1
        Y = np.matvec(obs.B, u)
        if not adjoint:
            return rows, obs.misfit(Y), None, []
        v = factor.solve(np.matvec(-obs.B.T, obs.weighted_residual(Y)).ravel())
        if len(rows) > 1 and not np.isfinite(v).all():
            return [], None, None, rows
        v = v.reshape(len(rows), n)
        em_uv = em * assemble_product_load(mesh, u, v)
        for i, state, vk, gk in zip(rows, states, v, em_uv):
            state["v"], state["em_uv"] = vk, gk
            workers[i].counter.adjoint_solves += 1
        return rows, obs.misfit(Y), em_uv, []

    @staticmethod
    def _point_states(workers, points, rows, adjoint, errors):
        """The misfits (and assembled gradients) at points[rows] one point
        at a time, through ``_forward_state`` / ``_adjoint_state``."""
        done, misfit, raw = [], [], []
        for i in rows:
            w = workers[i]
            try:
                state = w._adjoint_state(points[i]) if adjoint else w._forward_state(points[i])
            except NumericalError as exc:
                errors[i] = exc
                continue
            done.append(i)
            misfit.append(w.obs.misfit(w.obs.B @ state["u"]))
            if adjoint:
                raw.append(state["em_uv"])
        return done, misfit, raw if adjoint else None

    @classmethod
    def stacked_hvp_raw(cls, workers, points):
        """The Hessian actions of c workers as two dpttrs and four dgbmv
        calls on c n unknowns. The zero coupling isolates the blocks only
        while every value is finite (0 * nan = nan), so an action with a
        non-finite entry is redone worker by worker."""
        states = [w._hvp_state(m) for w, m in zip(workers, points)]
        c, n = len(states), workers[0].space.n
        factor = TridiagonalFactor.join([s["factor"] for s in states])
        Au = _stack([s["Au"] for s in states], axis=1)
        Av = _stack([s["Av"] for s in states], axis=1)
        em_uv = _stack([s["em_uv"] for s in states])
        B, sigma2 = workers[0].obs.B, states[0]["sigma2"]

        def apply(X: np.ndarray) -> np.ndarray:
            x = X.ravel(order="F")
            uhat = factor.solve(band_matvec(Au, x, alpha=-1.0))
            rhs = -np.matvec(B.T, np.matvec(B, uhat.reshape(c, n)) / sigma2).ravel()
            vhat = factor.solve(band_matvec(Av, x, alpha=-1.0, y=rhs))
            out = band_matvec(Av, uhat, trans=True, y=x * em_uv)
            out = band_matvec(Au, vhat, trans=True, y=out)
            if c > 1 and not np.isfinite(out).all():
                return np.column_stack([w.misfit_hvp_raw(m, X[:, i])
                                        for i, (w, m) in enumerate(zip(workers, points))])
            for w in workers:
                w.counter.incremental_solves += 2
            return out.reshape((n, c), order="F")
        return apply


def _stack(blocks: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """The blocks concatenated along ``axis``; a single block as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)


# -- posterior pieces ----------------------------------------------------

def log_posterior(model: ForwardModel, prior: GaussianPrior, m: np.ndarray) -> float:
    """Unnormalized log posterior: -misfit - prior quadratic."""
    obs = model._require_obs()
    y = model.predict(m)
    return float(-obs.misfit(y) + prior.log_density(m))


def gradient(model: ForwardModel, prior: GaussianPrior, m: np.ndarray) -> np.ndarray:
    """M-representer of dJ: misfit gradient + A(m - m0)."""
    return model.misfit_gradient(m) + prior.apply_A(m - prior.mean)


def evaluate_points(workers: list[ForwardModel], prior: GaussianPrior, points: np.ndarray,
                    with_gradient: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """``log_posterior`` at each row of ``points`` (c, n), row i at
    ``workers[i]``, and with ``with_gradient`` each ``gradient`` as rows,
    every value bit for bit the one-point call's: the model's
    ``stacked_misfit`` for all rows, K(m - m0) formed once per row for the
    prior's log density and gradient, and one multi-RHS mass solve for
    both gradient terms of every row.

    Returns (log posteriors as a list of floats, gradients (c, n) or None,
    errors); the rows in ``errors`` (row -> NumericalError) hold nan."""
    misfit, raw, errors = type(workers[0]).stacked_misfit(workers, points, with_gradient)
    log_prior, kd = prior.quadratic_terms(points)
    g = None
    if with_gradient:
        both = prior.space.solve(np.concatenate([raw, kd]).T).T
        g = both[:len(points)] + both[len(points):]
    return (log_prior - misfit).tolist(), g, errors


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
