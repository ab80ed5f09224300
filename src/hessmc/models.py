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
observation pullback uses B* = M^{-1} B^T. Each model evaluates through
two stacked calls, one per kind of work, for c chain workers each at its
own point in one set of BLAS/LAPACK calls: ``stacked_misfit`` (the
forward and adjoint solves) and ``stacked_hvp_raw`` (the assembled
Hessian action M H_misfit mhat, which is Euclidean-symmetric; the
low-rank build and the eigen-analysis work with it directly, and only
``hvp`` applies M^{-1}). ``evaluate_points`` adds the prior terms and one
multi-RHS mass solve. The one-point calls (``predict``,
``misfit_gradient``, ``misfit_hvp_raw``, ``log_posterior``, ``gradient``)
are the batch of one of these, so there is one evaluation path; the
blocks of a stack do not mix, so each row of a batch of c is bit for bit
its batch of one.
Second-order (non-Gauss-Newton) terms are kept in the Hessian action.
M and the PDE operator are stored tridiagonal (see ``fem``) and solved
with the LAPACK dpttrf/dpttrs pair, so every M^{-1} application and
every PDE solve is O(n); an exp-model Hessian action is a handful of
BLAS/LAPACK calls (two dpttrs, four banded dgbmv products and the
observation products).

Every linear(ized) PDE solve is reported to a ``SolveCounter``; the
samplers' per-step cost ledger depends on these counts being exact, so
each model caches its most recent state per parameter point (``_state``),
keyed on the point's bytes, and only counts genuinely new solves: on both
models one forward and at most one adjoint per point. A stacked call
changes each worker's cache and counter as that worker's batch of one
would.
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

# stacked Krylov basis floats of a group of chains, and of the candidates
# of one stacked call (each chain's reject-ahead depth is its share); a
# block drawn ahead holds as many floats of steps x chains x n, and a
# block of posterior_eigensystem's columns as many of their MAP states
LOCKSTEP_BLOCK_VALUES = 1 << 18


@dataclass
class SolveCounter:
    """Ledger of linearized PDE solves (forward, adjoint, incremental).
    ``discarded_solves`` holds the solves of candidates a sampler evaluated
    ahead and then discarded; they are not part of ``total``."""

    forward_solves: int = 0
    adjoint_solves: int = 0
    incremental_solves: int = 0
    discarded_solves: int = 0

    @property
    def total(self) -> int:
        return self.forward_solves + self.adjoint_solves + self.incremental_solves

    def absorb(self, other: "SolveCounter", discarded: bool = False) -> None:
        """Move the solves of ``other`` here (into ``discarded_solves`` when
        ``discarded``) and zero them there, so that each solve stays
        counted once over both ledgers."""
        if discarded:
            self.discarded_solves += other.total
        else:
            self.forward_solves += other.forward_solves
            self.adjoint_solves += other.adjoint_solves
            self.incremental_solves += other.incremental_solves
        other.forward_solves = other.adjoint_solves = other.incremental_solves = 0


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

    Subclasses must set ``mesh``, ``space``, ``counter``, ``_state`` (the
    point cache, None when empty) and (once data exists) ``obs``, and
    implement ``stacked_misfit`` and ``stacked_hvp_raw``. Observations are
    f(m); the data-misfit gradient is returned as an M-representer, and
    its Hessian action as the assembled functional M H_misfit mhat (no
    M^{-1} applied). ``predict``, ``misfit_gradient`` and ``misfit_hvp_raw``
    are the batch of one of the stacked calls; each subclass binds them in
    its own namespace, where ``bench/spans.py`` wraps them per model.
    """

    mesh: Mesh1D
    space: WeightedSpace
    obs: ObservationSetup | None
    counter: SolveCounter
    _state: dict | None

    def predict(self, m: np.ndarray) -> np.ndarray:
        """f(m), which the batch of one of ``stacked_misfit`` caches."""
        self._batch_of_one(m, adjoint=False)
        return self._state["y"]

    def misfit_gradient(self, m: np.ndarray) -> np.ndarray:
        """The data-misfit gradient at m, an M-representer."""
        return self.space.solve(self._batch_of_one(m, adjoint=True)[0])

    def misfit_hvp_raw(self, m: np.ndarray, mhat: np.ndarray) -> np.ndarray:
        """M H_misfit(m) mhat, the batch of one of ``stacked_hvp_raw``."""
        return type(self).stacked_hvp_raw([self], [m])(mhat[:, None])[:, 0]

    def _batch_of_one(self, m: np.ndarray, adjoint: bool) -> np.ndarray | None:
        """``stacked_misfit`` at m alone: its assembled gradient rows (with
        ``adjoint``), or the NumericalError of the row raised."""
        _, raw, errors = type(self).stacked_misfit([self], m[None], adjoint)
        if errors:
            raise errors[0]
        return raw

    @classmethod
    def stacked_misfit(cls, workers: list["ForwardModel"], points: np.ndarray,
                       adjoint: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
        """The data misfit at each row of ``points`` (c, n), row i for
        ``workers[i]``, and with ``adjoint`` the assembled misfit gradients
        M g_misfit as rows, in one set of BLAS/LAPACK calls for all rows;
        f(m) of each row is left in its worker's point cache.

        Returns (misfits (c,), gradients (c, n) or None, errors): a row
        whose state cannot be formed holds nan, and ``errors`` maps it to
        the NumericalError that stopped it, a FactorizationError when no
        solve was made for it. Every row, and each worker's point cache and
        counter, is bit for bit that row's batch of one,
        ``stacked_misfit([workers[i]], points[i:i + 1], adjoint)``. Without
        ``adjoint`` a worker may fill several rows, distinct points in the
        order its batches of one would take them (an independence
        sampler's block of candidates); it keeps the last row's state. The
        workers are clones of one model (``clone``): the operators and data
        are read from the first."""
        raise NotImplementedError

    @classmethod
    def stacked_hvp_raw(cls, workers: list["ForwardModel"], points: list[np.ndarray]):
        """X -> Y with Y[:, i] = M H_misfit(points[i]) X[:, i] for X of shape
        (n, c), each column bit for bit that worker's batch of one; each call
        adds two incremental solves to every worker's counter. The per-point
        state is formed (and counted) when the action is made, so a point
        whose state cannot be formed raises NumericalError here."""
        raise NotImplementedError

    def clone(self) -> "ForwardModel":
        """A worker with its own point cache and a fresh counter (one per
        chain worker): the operators and data (mesh, space, the PDE or
        observation operator, the source and ``obs``), which no evaluation
        writes, are shared, and the point cache is copied one level deep, so
        neither model sees the other's later cache or counter writes. A
        clone of a model that holds a point starts with that point's state,
        and pays no solve for it."""
        other = copy.copy(self)
        other.counter = SolveCounter()
        other._state = None if self._state is None else dict(self._state)
        return other

    def _require_obs(self) -> ObservationSetup:
        if self.obs is None:
            raise NumericalError("model has no observation setup; synthesize data first")
        return self.obs


class LinearGaussianModel(ForwardModel):
    """f(m) = F m; no state is formed. By default F is the observation
    interpolation matrix itself, so q = number of observation points.

    Solve accounting mirrors the PDE model: one "forward" and at most one
    "adjoint" per point (the point cache records both), and two
    "incremental" solves per Hessian action, even though each is a plain
    matvec.
    """

    predict = ForwardModel.predict
    misfit_gradient = ForwardModel.misfit_gradient
    misfit_hvp_raw = ForwardModel.misfit_hvp_raw

    def __init__(self, mesh: Mesh1D, space: WeightedSpace, F: np.ndarray):
        self.mesh = mesh
        self.space = space
        self.F = np.asarray(F, dtype=float)
        self.obs = None
        self.counter = SolveCounter()
        self._state = None

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        """F m and F^T Gamma_noise^{-1}(F m - y_obs) for every row: np.matvec
        runs one gemv per row, as F @ m does alone. A worker whose cache
        holds the point counts no forward solve, and no adjoint solve once
        the cache holds its gradient; the cached values have the same
        bits."""
        model = workers[0]
        obs = model._require_obs()
        Y = np.matvec(model.F, points)
        for w, m, y in zip(workers, points, Y):
            key = m.tobytes()
            if w._state is None or w._state["key"] != key:
                w.counter.forward_solves += 1
                w._state = {"key": key, "y": y}
        raw = None
        if adjoint:
            raw = np.matvec(model.F.T, obs.weighted_residual(Y))
            for w, g in zip(workers, raw):
                if "raw" not in w._state:
                    w.counter.adjoint_solves += 1
                    w._state["raw"] = g
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
    run one gemv per chain through np.matvec. ``_form_states`` forms the
    states of c points the same way: one assembly of the operators F(m_i)
    of the new points as rows, one dpttrf of their block-diagonal system,
    and one dpttrs each for the forward and the adjoint solves.
    """

    predict = ForwardModel.predict
    misfit_gradient = ForwardModel.misfit_gradient
    misfit_hvp_raw = ForwardModel.misfit_hvp_raw

    def __init__(self, mesh: Mesh1D, space: WeightedSpace,
                 source_constant: float = 1.0):
        self.mesh = mesh
        self.space = space
        self.source_constant = float(source_constant)
        self.K0 = assemble_stiffness(mesh, a=1.0, b=0.0)
        self.rhs = space.mass.matvec(np.full(mesh.n_nodes, self.source_constant))
        self.obs = None
        self.counter = SolveCounter()
        self._state = None

    @classmethod
    def _form_states(cls, workers, points, adjoint):
        """Forms in place the state each worker lacks at its row of
        ``points``: the forward state (key, e^m, factor, u and y = B u) of
        every row whose worker holds none at that point, as one dpttrf
        (``Tridiagonal.factor_blocks``) and one dpttrs on the block-diagonal
        system of those rows; then, with ``adjoint``, the adjoint state (v
        and e^m .* load(u v)) of every row that lacks one, cached forward
        states included, as one dpttrs on their factors, joined. An all-new
        batch reuses its factor and stacked states for the adjoint without
        joining them again. A block that cannot be factored fails its row
        alone, and a non-finite solve is handled by ``_solve``.

        Returns (errors, fresh, states): row -> NumericalError for each row
        whose state cannot be formed (a FactorizationError where no solve
        was made); when the last stacked solve covered every row, its
        (y rows, e^m .* load(u v) rows or None), else None; and each row's
        state. A worker that fills several rows has each of them checked
        against the state it held when the call began."""
        model = workers[0]
        obs, mesh, (c, n) = model._require_obs(), model.mesh, points.shape
        keys = [m.tobytes() for m in points]
        states = [w._state for w in workers]
        new = [i for i, (state, key) in enumerate(zip(states, keys))
               if state is None or state["key"] != key]
        errors: dict = {}
        done = []                       # the rows whose em, factor, u and Y are in hand
        if new:
            em = np.exp(points if len(new) == c else points[new])
            factor, live, failed = (model.K0 + assemble_weighted_mass(mesh, em)).factor_blocks()
            if failed:
                errors.update((new[j], exc) for j, exc in failed.items())
                new, em = [new[j] for j in live], em[live]
            u = None
            if new:
                u = cls._solve(workers, points, new, factor,
                               np.concatenate([model.rhs] * len(new)), "forward", errors,
                               states)
            if u is not None:
                Y = np.matvec(obs.B, u)
                for k, i in enumerate(new):
                    states[i] = workers[i]._state = {
                        "key": keys[i], "em": em[k], "factor": factor.block(k, n),
                        "u": u[k], "y": Y[k]}
                    workers[i].counter.forward_solves += 1
                done = new
        if not adjoint:
            return errors, (Y, None) if len(done) == c else None, states
        lacking = [i for i in range(c) if i not in errors and "v" not in states[i]]
        if not lacking:
            return errors, None, states
        if lacking != done:
            held = [states[i] for i in lacking]
            factor = TridiagonalFactor.join([s["factor"] for s in held])
            em, u, Y = (np.array([s[key] for s in held]) for key in ("em", "u", "y"))
        v = cls._solve(workers, points, lacking, factor,
                       np.matvec(obs.B.T, -obs.weighted_residual(Y)).ravel(), "adjoint", errors,
                       states)
        if v is None:
            return errors, None, states
        em_uv = em * assemble_product_load(mesh, u, v)
        for i, vk, gk in zip(lacking, v, em_uv):
            states[i].update(v=vk, em_uv=gk)
            workers[i].counter.adjoint_solves += 1
        return errors, (Y, em_uv) if len(lacking) == c else None, states

    @classmethod
    def _solve(cls, workers, points, rows, factor, rhs, kind, errors, states):
        """``factor.solve(rhs)``, the ``kind`` ("forward" or "adjoint") solve
        of one block per row, as rows; the caller counts it. The zero
        coupling isolates the blocks only while every value is finite
        (0 * nan = nan): a non-finite solution of one block is its row's
        NumericalError (the solve counted here), and one of several blocks
        is redone as batches of one, which report their own errors and
        leave their states in ``states``; either way None is returned."""
        x = factor.solve(rhs)
        if np.isfinite(x).all():
            return x.reshape(len(rows), -1)
        if len(rows) == 1:
            counter = workers[rows[0]].counter
            setattr(counter, f"{kind}_solves", getattr(counter, f"{kind}_solves") + 1)
            errors[rows[0]] = NumericalError(f"{kind} solve produced non-finite state")
        else:
            for i in rows:
                one, _, (states[i],) = cls._form_states([workers[i]], points[i:i + 1],
                                                         kind == "adjoint")
                errors.update((i, exc) for exc in one.values())
        return None

    @classmethod
    def stacked_misfit(cls, workers, points, adjoint):
        """The states the workers lack, formed by ``_form_states``; the B
        products of new states run one gemv per row through np.matvec."""
        errors, fresh, states = cls._form_states(workers, points, adjoint)
        obs = workers[0].obs
        if fresh is not None:
            return obs.misfit(fresh[0]), fresh[1], errors
        rows = [i for i in range(len(workers)) if i not in errors]
        states = [states[i] for i in rows]
        misfit = np.full(len(workers), np.nan)
        misfit[rows] = obs.misfit(np.array([s["y"] for s in states]).reshape(len(rows), obs.q))
        raw = None
        if adjoint:
            raw = np.full(points.shape, np.nan)
            raw[rows] = np.array([s["em_uv"] for s in states]).reshape(len(rows), points.shape[1])
        return misfit, raw, errors

    @classmethod
    def stacked_hvp_raw(cls, workers, points):
        """The Hessian actions of c workers as two dpttrs and four dgbmv
        calls on c n unknowns; the first action at a point keeps Au and Av
        in its state. Au and Av of all the states that lack them are one
        stacked assembly of W(u) and W(v) and one band layout. The zero
        coupling isolates the blocks only while every value is finite
        (0 * nan = nan), so an action with a non-finite entry is redone as
        batches of one."""
        errors, _, states = cls._form_states(workers, np.asarray(points), True)
        if errors:
            raise errors[min(errors)]
        mesh, obs, n, c = workers[0].mesh, workers[0].obs, workers[0].space.n, len(workers)
        lacking = [s for s in states if "Au" not in s]
        if lacking:
            g = len(lacking)
            em = np.array([s["em"] for s in lacking])
            bands = assemble_weighted_mass(
                mesh, np.array([s["u"] for s in lacking] + [s["v"] for s in lacking])
            ).column_scaled_band(np.concatenate([em, em]))
            for k, s in enumerate(lacking):
                s["Au"] = bands[:, k * n:(k + 1) * n]
                s["Av"] = bands[:, (g + k) * n:(g + k + 1) * n]
        factor = TridiagonalFactor.join([s["factor"] for s in states])
        Au = _stack([s["Au"] for s in states], axis=1)
        Av = _stack([s["Av"] for s in states], axis=1)
        em_uv = _stack([s["em_uv"] for s in states])
        B, sigma2 = obs.B, obs.sigma2

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
    """Unnormalized log posterior: -misfit - prior quadratic (``evaluate_points``
    on one row)."""
    return _one_row(model, prior, m, False)[0][0]


def gradient(model: ForwardModel, prior: GaussianPrior, m: np.ndarray) -> np.ndarray:
    """M-representer of dJ: misfit gradient + A(m - m0) (``evaluate_points``
    on one row)."""
    return _one_row(model, prior, m, True)[1][0]


def _one_row(model: ForwardModel, prior: GaussianPrior, m: np.ndarray,
             with_gradient: bool) -> tuple[list, np.ndarray | None]:
    """``evaluate_points`` at m alone; the row's NumericalError is raised."""
    lp, g, errors = evaluate_points([model], prior, m[None], with_gradient)
    if errors:
        raise errors[0]
    return lp, g


def evaluate_points(workers: list[ForwardModel], prior: GaussianPrior, points: np.ndarray,
                    with_gradient: bool) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """The log posterior at each row of ``points`` (c, n), row i at
    ``workers[i]``, and with ``with_gradient`` each gradient as rows, every
    value bit for bit the row's batch of one: the model's
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
        F = model.K0 + assemble_weighted_mass(model.mesh, np.exp(m_true))
        y_clean = B @ F.factor().solve(model.rhs)
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
    model._state = None  # an observation change invalidates the cached states
    return obs


def _observed_interval(mesh: Mesh1D, region: str) -> tuple[float, float]:
    """The ends of the observed region: ``right_half`` from x0 + L/2 to the
    right end, ``full`` the whole mesh interval."""
    x0, x1 = mesh.node_coords[0], mesh.node_coords[-1]
    if region == "right_half":
        return x0 + 0.5 * (x1 - x0), x1
    if region == "full":
        return x0, x1
    raise ValueError(f"unknown observation region {region!r}")


def observation_points(mesh: Mesh1D, count: int, region: str = "right_half") -> np.ndarray:
    """Uniformly spaced observation points over the region; default on [L/2, L]."""
    lo, hi = _observed_interval(mesh, region)
    if count < 1:
        raise ValueError("need at least one observation point")
    return np.linspace(lo, hi, count)


def observed_mask(mesh: Mesh1D, region: str) -> np.ndarray:
    """The nodes inside the observed region."""
    lo, hi = _observed_interval(mesh, region)
    return (mesh.node_coords >= lo) & (mesh.node_coords <= hi)
