"""Forward models: exact constant solutions, data synthesis, derivatives, caches."""

import copy

import numpy as np
import pytest

from hessmc import fem
from hessmc.errors import NumericalError
from hessmc.fem import Mesh1D, Tridiagonal, assemble_mass, assemble_weighted_mass
from hessmc.models import (
    ExpReaction1D,
    evaluate_points,
    gradient,
    hvp,
    log_posterior,
    observation_points,
    observed_mask,
    synthesize_data,
)

from conftest import make_small_problem, nan_dpttrs, white_noise


def make_exp_model(n=20, length=1.0, source=1.0):
    mesh = Mesh1D.uniform(n, length)
    return mesh, ExpReaction1D(mesh, assemble_mass(mesh), source_constant=source)


def forward_state(model, m):
    """The state u at m, which ``predict`` leaves in the point cache; a
    model without data gets some first (u does not depend on them)."""
    if model.obs is None:
        synthesize_data(model, np.zeros(model.space.n), 0.0, np.random.default_rng(0),
                        points=observation_points(model.mesh, 3))
    model.predict(m)
    return model._state["u"]


def test_constant_reaction_has_constant_solution():
    # -u'' + exp(m) u = s with m, s constant: u = s / exp(m), exact in the
    # discrete system because W(exp(m)) = exp(m) M for constant coefficients.
    mesh, model = make_exp_model()
    np.testing.assert_allclose(forward_state(model, np.zeros(20)), np.ones(20), atol=1e-12)
    u = forward_state(model, np.full(20, np.log(2.0)))
    np.testing.assert_allclose(u, np.full(20, 0.5), atol=1e-12)


def test_constant_solution_scales_with_source():
    mesh, model = make_exp_model(source=3.0)
    np.testing.assert_allclose(forward_state(model, np.zeros(20)), np.full(20, 3.0), atol=1e-11)


def test_observation_points_regions():
    mesh = Mesh1D.uniform(11, 2.0)
    right = observation_points(mesh, 5, "right_half")
    assert right.min() >= 1.0 and right.max() <= 2.0
    full = observation_points(mesh, 5, "full")
    np.testing.assert_allclose(full, np.linspace(0.0, 2.0, 5))
    with pytest.raises(ValueError):
        observation_points(mesh, 5, "left_half")
    # the nodes the mask marks span the region the points cover, and an
    # unknown region is refused there too (not read as the right half)
    for region in ("right_half", "full"):
        nodes = mesh.node_coords[observed_mask(mesh, region)]
        points = observation_points(mesh, 5, region)
        assert (nodes.min(), nodes.max()) == (points.min(), points.max())
    np.testing.assert_array_equal(observed_mask(mesh, "right_half"), mesh.node_coords >= 1.0)
    with pytest.raises(ValueError, match="left_half"):
        observed_mask(mesh, "left_half")


def test_synthesize_data_noise_scaling():
    mesh, model = make_exp_model()
    pts = observation_points(mesh, 4)
    rng = np.random.default_rng(0)
    obs = synthesize_data(model, np.zeros(20), 0.05, rng, points=pts)
    scale = np.abs(obs.y_clean).max()
    np.testing.assert_allclose(obs.sigma, 0.05 * scale)
    assert obs.q == 4
    # reproducible from the generator state
    mesh2, model2 = make_exp_model()
    obs2 = synthesize_data(model2, np.zeros(20), 0.05, np.random.default_rng(0), points=pts)
    np.testing.assert_array_equal(obs.y_obs, obs2.y_obs)


def test_synthesize_data_zero_noise_keeps_clean_signal():
    mesh, model = make_exp_model()
    pts = observation_points(mesh, 3)
    obs = synthesize_data(model, np.zeros(20), 0.0, np.random.default_rng(1), points=pts)
    np.testing.assert_array_equal(obs.y_obs, obs.y_clean)
    # stored sigma is floored so the noise covariance stays invertible
    assert np.all(obs.sigma > 0)
    np.testing.assert_allclose(obs.sigma, 1e-12 * np.abs(obs.y_clean).max())
    with pytest.raises(ValueError):
        synthesize_data(model, np.zeros(20), -0.1, np.random.default_rng(2))


def test_synthesis_counts_no_solves():
    mesh, model = make_exp_model()
    synthesize_data(model, np.zeros(20), 0.01, np.random.default_rng(0),
                    points=observation_points(mesh, 3))
    assert model.counter.total == 0


def test_misfit_requires_observations():
    mesh, model = make_exp_model()
    with pytest.raises(NumericalError):
        model.misfit_gradient(np.zeros(20))


def test_predict_cache_and_counter_ledger():
    mesh, space, prior, model, _ = make_small_problem()
    model = model.clone()
    m = prior.mean.copy()
    assert model.counter.total == 0
    model.predict(m)
    assert (model.counter.forward_solves, model.counter.adjoint_solves,
            model.counter.incremental_solves) == (1, 0, 0)
    model.predict(m)                      # same point: cached
    model.predict(m.copy())               # equal values in another array: cached
    assert model.counter.forward_solves == 1
    model.misfit_gradient(m)              # reuses the forward state
    assert (model.counter.forward_solves, model.counter.adjoint_solves) == (1, 1)
    model.misfit_gradient(m)
    assert model.counter.adjoint_solves == 1
    model.misfit_hvp_raw(m, np.ones(prior.n))
    model.misfit_hvp_raw(m, np.arange(prior.n, dtype=float))
    assert model.counter.incremental_solves == 4
    # a new point invalidates the cache
    model.predict(m + 0.1)
    assert model.counter.forward_solves == 2
    assert model.counter.total == 2 + 1 + 4
    # one entry moved by one ulp is a new point
    m_next = m + 0.1
    m_next[3] = np.nextafter(m_next[3], np.inf)
    model.predict(m_next)
    assert model.counter.forward_solves == 3
    linear = make_small_problem(kind="linear")[3].clone()
    for point in (m, m.copy(), m_next, m_next.copy()):
        linear.predict(point)
    assert linear.counter.forward_solves == 2


def test_clone_isolates_counter_and_caches():
    mesh, space, prior, model, _ = make_small_problem()
    worker = model.clone()
    worker.predict(prior.mean + 0.3)
    assert model.counter.total == 0
    assert worker.counter.total == 1
    # the operators and data are read only, and shared
    assert worker.obs is model.obs and worker.K0 is model.K0 and worker.rhs is model.rhs
    assert worker.mesh is model.mesh and worker.space is model.space


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_a_clone_and_its_original_never_see_each_others_writes(kind):
    # a clone starts with its original's point state, and from then on each
    # writes only its own cache and counter: a new point, an adjoint or a
    # Hessian action at the shared point (which adds keys to the cached
    # state) on one side leaves the other side as it was
    mesh, space, prior, model, _ = make_small_problem(kind=kind)
    a, b = prior.mean + 0.3, prior.mean - 0.2
    model.predict(a)
    keys, before = set(model._state), ledger(model)
    worker = model.clone()
    assert worker._state is not model._state and set(worker._state) == keys
    assert ledger(worker) == (0, 0, 0)
    worker.misfit_gradient(a)
    worker.misfit_hvp_raw(a, np.ones(prior.n))
    assert ledger(worker) == (0, 1, 2)
    assert set(model._state) == keys and ledger(model) == before
    worker.predict(b)
    assert model._state["key"] == a.tobytes() and ledger(model) == before
    other = model.clone()
    model.misfit_gradient(a)
    model.predict(b)
    assert set(other._state) == keys and other._state["key"] == a.tobytes()
    assert ledger(other) == (0, 0, 0) and ledger(worker) == (1, 1, 2)


def test_new_observations_invalidate_adjoint_state():
    mesh, model = make_exp_model()
    pts = observation_points(mesh, 3)
    synthesize_data(model, np.zeros(20), 0.01, np.random.default_rng(0), points=pts)
    g0 = model.misfit_gradient(np.zeros(20))
    # same data, same point: served from the cached adjoint state
    np.testing.assert_array_equal(model.misfit_gradient(np.zeros(20)), g0)
    # new data must flush that state even though the point is unchanged
    synthesize_data(model, np.full(20, 0.4), 0.01, np.random.default_rng(0), points=pts)
    g1 = model.misfit_gradient(np.zeros(20))
    assert np.abs(g1 - g0).max() > 1e-3


def test_factorization_failure_raises_numerical_error():
    mesh, model = make_exp_model()
    synthesize_data(model, np.zeros(20), 0.01, np.random.default_rng(0),
                    points=observation_points(mesh, 3))
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        model.predict(np.full(20, 800.0))  # exp overflows to inf


def test_states_match_dense_solve_on_nonuniform_mesh():
    mesh = Mesh1D(np.array([0.0, 0.04, 0.1, 0.35, 0.4, 0.7, 0.72, 1.0, 1.3]))
    model = ExpReaction1D(mesh, assemble_mass(mesh), source_constant=2.0)
    synthesize_data(model, np.zeros(9), 0.05, np.random.default_rng(0),
                    points=observation_points(mesh, 3))
    m = np.sin(3.0 * mesh.node_coords)
    F = model.K0.dense() + assemble_weighted_mass(mesh, np.exp(m)).dense()
    u_ref = np.linalg.solve(F, model.space.mass.dense() @ np.full(9, 2.0))
    u = forward_state(model, m)
    np.testing.assert_allclose(u, u_ref, rtol=1e-12)
    obs = model.obs
    v_ref = np.linalg.solve(F, -obs.B.T @ obs.weighted_residual(obs.B @ u_ref))
    model.misfit_gradient(m)
    np.testing.assert_allclose(model._state["v"], v_ref, rtol=1e-12)


def test_misfit_hvp_matches_dense_operators_on_nonuniform_mesh():
    # every operator of the second-order adjoint formula formed dense:
    # F(m) = K0 + W(e^m), W(u), W(v), B and Gamma_noise^{-1}
    mesh = Mesh1D(np.array([0.0, 0.04, 0.1, 0.35, 0.4, 0.7, 0.72, 1.0, 1.3]))
    model = ExpReaction1D(mesh, assemble_mass(mesh), source_constant=2.0)
    synthesize_data(model, np.zeros(9), 0.05, np.random.default_rng(0),
                    points=observation_points(mesh, 3))
    m = np.sin(3.0 * mesh.node_coords)
    em = np.exp(m)
    F = model.K0.dense() + assemble_weighted_mass(mesh, em).dense()
    obs = model.obs
    BtB = obs.B.T @ np.diag(obs.sigma**-2.0) @ obs.B
    u = np.linalg.solve(F, model.space.mass.dense() @ np.full(9, 2.0))
    v = np.linalg.solve(F, -obs.B.T @ obs.weighted_residual(obs.B @ u))
    Wu = assemble_weighted_mass(mesh, u).dense()
    Wv = assemble_weighted_mass(mesh, v).dense()
    for mhat in np.random.default_rng(1).standard_normal((4, 9)):
        uhat = np.linalg.solve(F, -Wu @ (em * mhat))
        vhat = np.linalg.solve(F, -BtB @ uhat - Wv @ (em * mhat))
        ref = mhat * em * (Wu @ v) + em * (Wv @ uhat + Wu @ vhat)
        np.testing.assert_allclose(model.misfit_hvp_raw(m, mhat), ref, rtol=1e-12)


def test_factorize_rejects_overflow_and_nan():
    # F(m) = K0 + W(exp(m)) at a point where one node's exp(m) overflows to
    # inf, or is a NaN, has a non-finite entry, which its factor refuses
    mesh, model = make_exp_model()
    m = np.zeros(20)
    m[7] = 800.0
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite entries"):
        (model.K0 + assemble_weighted_mass(mesh, np.exp(m))).factor()
    m[7] = np.nan
    with pytest.raises(NumericalError, match="non-finite entries"):
        (model.K0 + assemble_weighted_mass(mesh, np.exp(m))).factor()


def test_linear_model_matches_dense_formulas():
    mesh, space, prior, model, _ = make_small_problem(kind="linear")
    model = model.clone()
    rng = np.random.default_rng(5)
    m = prior.mean + prior.apply_L(white_noise(space, rng))
    F, obs = model.F, model.obs
    np.testing.assert_array_equal(model.predict(m), F @ m)
    g = model.misfit_gradient(m)
    g_ref = space.solve(F.T @ ((F @ m - obs.y_obs) / obs.sigma**2))
    np.testing.assert_allclose(g, g_ref, atol=1e-12)
    mhat = rng.standard_normal(prior.n)
    h_ref = F.T @ ((F @ mhat) / obs.sigma**2)
    np.testing.assert_allclose(model.misfit_hvp_raw(m, mhat), h_ref, atol=1e-12)


def test_log_posterior_splits_into_misfit_and_prior():
    mesh, space, prior, model, _ = make_small_problem()
    rng = np.random.default_rng(6)
    m = prior.mean + prior.apply_L(white_noise(space, rng))
    lp = log_posterior(model, prior, m)
    y = model.predict(m)
    assert lp == pytest.approx(-model.obs.misfit(y) + prior.quadratic_terms(m)[0], rel=1e-12)


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_gradient_matches_finite_differences(kind):
    mesh, space, prior, model, _ = make_small_problem(kind=kind)
    rng = np.random.default_rng(7)
    m = prior.mean + 0.4 * prior.apply_L(white_noise(space, rng))
    g = gradient(model, prior, m)
    h = 1e-5
    for _ in range(3):
        v = white_noise(space, rng)
        v /= space.norm(v)
        fd = -(log_posterior(model, prior, m + h * v)
               - log_posterior(model, prior, m - h * v)) / (2 * h)
        assert space.inner(g, v) == pytest.approx(fd, rel=1e-5, abs=1e-9 * space.norm(g))


def test_hvp_is_m_symmetric_and_consistent():
    mesh, space, prior, model, _ = make_small_problem()
    rng = np.random.default_rng(8)
    m = prior.mean + 0.3 * prior.apply_L(white_noise(space, rng))
    u, v = white_noise(space, rng), white_noise(space, rng)
    Hu, Hv = hvp(model, prior, m, u), hvp(model, prior, m, v)
    lhs, rhs = space.inner(u, Hv), space.inner(Hu, v)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # full Hessian = misfit part + prior precision
    np.testing.assert_allclose(Hv, space.solve(model.misfit_hvp_raw(m, v)) + prior.apply_A(v),
                               atol=1e-13)


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_assembled_misfit_hessian_is_euclidean_symmetric(kind):
    # misfit_hvp_raw returns M H_misfit mhat, so e_i . raw(e_j) = e_j . raw(e_i)
    mesh, space, prior, model, _ = make_small_problem(kind=kind)
    m = prior.mean + 0.3 * prior.apply_L(white_noise(space, np.random.default_rng(10)))
    cols = np.column_stack([model.misfit_hvp_raw(m, e) for e in np.eye(prior.n)])
    scale = np.abs(cols).max()
    assert scale > 0.0
    np.testing.assert_allclose(cols, cols.T, rtol=0.0, atol=1e-12 * scale)


def test_weighted_residual_and_misfit():
    mesh, space, prior, model, _ = make_small_problem()
    obs = model.obs
    y = obs.y_obs + obs.sigma
    np.testing.assert_allclose(obs.weighted_residual(y), 1.0 / obs.sigma)
    assert obs.misfit(y) == pytest.approx(0.5 * obs.q)


def test_synthesize_needs_points_on_fresh_model():
    mesh, model = make_exp_model()
    with pytest.raises(ValueError):
        synthesize_data(model, np.zeros(20), 0.1, np.random.default_rng(0))


# -- stacked evaluation of several points ----------------------------------

def stacked_points(kind, c):
    """A small problem and c distinct points around its prior mean."""
    mesh, space, prior, model, _ = make_small_problem(n=30, q=6, kind=kind)
    rng = np.random.default_rng(40 + c)
    points = prior.mean + 0.3 * np.array([prior.apply_L(white_noise(space, rng))
                                          for _ in range(c)])
    return prior, model, points


def ledger(model):
    c = model.counter
    return c.forward_solves, c.adjoint_solves, c.incremental_solves


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_a_repeated_gradient_counts_one_adjoint_per_point(kind):
    # both models keep the adjoint in the point cache: a second gradient at
    # the point costs no solve, and a new point costs one of each again
    prior, model, points = stacked_points(kind, 2)
    model = model.clone()
    first = gradient(model, prior, points[0])
    assert gradient(model, prior, points[0]).tobytes() == first.tobytes()
    assert ledger(model) == (1, 1, 0)
    gradient(model, prior, points[1])
    assert ledger(model) == (2, 2, 0)


@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
@pytest.mark.parametrize("with_gradient", [True, False])
def test_stacked_evaluation_is_bit_identical_to_each_point(kind, c, with_gradient):
    prior, model, points = stacked_points(kind, c)
    workers = [model.clone() for _ in range(c)]
    lp, g, errors = evaluate_points(workers, prior, points, with_gradient)
    assert errors == {} and (g is None) != with_gradient
    for i, worker in enumerate(workers):
        alone = model.clone()
        assert lp[i] == log_posterior(alone, prior, points[i])
        if with_gradient:
            assert g[i].tobytes() == gradient(alone, prior, points[i]).tobytes()
        assert ledger(worker) == ledger(alone)
        if kind == "exp_reaction":
            # the stacked states are the ones the one-point path forms, the
            # adjoint too, whose right-hand side -B^T(...) is zero away from
            # the observations, next to each zero coupling
            for key in ("em", "u") + (("v", "em_uv") if with_gradient else ()):
                assert worker._state[key].tobytes() == alone._state[key].tobytes(), key
            assert worker._state["factor"].d.tobytes() == alone._state["factor"].d.tobytes()


@pytest.mark.parametrize("kind", ["exp_reaction", "linear"])
def test_stacked_evaluation_of_cached_points_costs_what_each_point_costs(kind):
    # rows 0 and 2 are cached in their workers (row 0 with its adjoint),
    # row 1 is new: every row costs what the one-point calls cost, so a
    # cached exp state costs no solve
    prior, model, points = stacked_points(kind, 3)
    workers = [model.clone() for _ in range(3)]
    gradient(workers[0], prior, points[0])
    log_posterior(workers[2], prior, points[2])
    refs = [copy.deepcopy(w) for w in workers]     # caches and counters as they are
    before = [ledger(w) for w in workers]
    lp, g, errors = evaluate_points(workers, prior, points, True)
    assert errors == {}
    for i, (worker, ref) in enumerate(zip(workers, refs)):
        assert lp[i] == log_posterior(ref, prior, points[i])
        assert g[i].tobytes() == gradient(ref, prior, points[i]).tobytes()
        assert ledger(worker) == ledger(ref)
    if kind == "exp_reaction":
        assert ledger(workers[0]) == before[0]
        assert ledger(workers[2]) == (before[2][0], before[2][1] + 1, 0)


def shifted(model, shift):
    """The exp model with K0 - shift I: not positive definite where
    exp(m) is small."""
    other = model.clone()
    other.K0 = other.K0 + Tridiagonal(np.full(model.space.n, -shift), np.zeros(model.space.n - 1))
    return other


@pytest.mark.parametrize("failure", ["overflow", "indefinite"])
def test_a_failed_block_in_a_stacked_evaluation_leaves_the_other_rows_alone(failure):
    prior, model, points = stacked_points("exp_reaction", 3)
    if failure == "overflow":
        points[1, 4] = 800.0                  # exp overflows to inf
    else:
        model = shifted(model, 0.01)
        points[1] = -5.0                      # K0 - 0.01 I + W(e^-5) is indefinite
    workers = [model.clone() for _ in range(3)]
    with np.errstate(over="ignore"):
        lp, g, errors = evaluate_points(workers, prior, points, True)
        with pytest.raises(NumericalError) as alone:
            log_posterior(model.clone(), prior, points[1])
    assert list(errors) == [1] and str(errors[1]) == str(alone.value)
    assert np.isnan(lp[1]) and np.isnan(g[1]).all()
    assert ledger(workers[1]) == (0, 0, 0)
    for i in (0, 2):
        ref = model.clone()
        assert lp[i] == log_posterior(ref, prior, points[i])
        assert g[i].tobytes() == gradient(ref, prior, points[i]).tobytes()
        assert ledger(workers[i]) == ledger(ref)


@pytest.mark.parametrize("solve", ["forward", "adjoint"])
def test_a_non_finite_solve_is_redone_as_a_batch_of_one(solve, monkeypatch):
    # the factors are finite, but a stand-in dpttrs leaves a nan in row 1's
    # block of the stacked forward (call 0) or adjoint (call 1) solve. That
    # solve is redone as batches of one (calls first + 1..3), where row 1's
    # own solve fails again, as it does in row 1's batch of one
    prior, model, points = stacked_points("exp_reaction", 3)
    first = {"forward": 0, "adjoint": 1}[solve]
    workers = [model.clone() for _ in range(3)]
    monkeypatch.setattr(fem, "dpttrs", nan_dpttrs(prior.n, {first: 1, first + 2: 0}))
    misfit, raw, errors = ExpReaction1D.stacked_misfit(workers, points, True)
    alone = model.clone()
    monkeypatch.setattr(fem, "dpttrs", nan_dpttrs(prior.n, {first: 0}))
    _, _, errors_alone = ExpReaction1D.stacked_misfit([alone], points[1:2], True)
    monkeypatch.undo()
    assert list(errors) == [1] and list(errors_alone) == [0]
    assert str(errors[1]) == str(errors_alone[0]) == f"{solve} solve produced non-finite state"
    assert np.isnan(misfit[1]) and np.isnan(raw[1]).all()
    # the failed solve is counted, as every solve made is
    assert ledger(workers[1]) == ledger(alone) == {"forward": (1, 0, 0),
                                                   "adjoint": (1, 1, 0)}[solve]
    for i in (0, 2):
        ref = model.clone()
        mf, g, _ = ExpReaction1D.stacked_misfit([ref], points[i:i + 1], True)
        assert misfit[i] == mf[0] and raw[i].tobytes() == g[0].tobytes()
        assert ledger(workers[i]) == ledger(ref)
        for key in ("em", "u", "y", "v", "em_uv"):
            assert workers[i]._state[key].tobytes() == ref._state[key].tobytes(), key
