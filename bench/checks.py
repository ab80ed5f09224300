"""Output checks, computed apart from the program.

The reference numerics here share nothing with hessmc: operators are
assembled from the closed-form P1 element integrals into banded storage,
states come from ``scipy.linalg.solve_banded``, point values from
``np.interp``, and chain files are parsed with the ``csv`` module. Each
check returns a list of misses; an empty list is a pass.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.linalg

# relative agreement of two solves of one tridiagonal SPD system
SOLVE_RTOL = 1e-9
# central-difference error of J along d, relative to ‖g‖_M ‖d‖_M
FD_RTOL = 1e-5
# the Rayleigh-quotient split of an eigenvalue, relative to the largest one
SUM_RULE_RTOL = 1e-8
# standard errors allowed between chain moments and the analytic posterior
MOMENT_Z = 5.0


# -- reference P1 operators (banded, upper and lower diagonal stored) ----------

def _banded(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return ab


def _element_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    diag = np.zeros(left.size + 1)
    diag[:-1] += left
    diag[1:] += right
    return diag


def mass(x: np.ndarray) -> np.ndarray:
    """∫ φi φj: h/3 on the element diagonal, h/6 off it."""
    h = np.diff(x)
    return _banded(_element_sum(h / 3.0, h / 3.0), h / 6.0)


def stiffness(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """∫ a φi' φj' + b φi φj."""
    h = np.diff(x)
    d = a / h + b * h / 3.0
    return _banded(_element_sum(d, d), -a / h + b * h / 6.0)


def weighted_mass(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """∫ c φi φj for the linear interpolant c: on an element with end
    values cL, cR the integrals are h(3cL + cR)/12, h(cL + 3cR)/12 and
    h(cL + cR)/12 off the diagonal."""
    h = np.diff(x)
    cl, cr = c[:-1], c[1:]
    return _banded(_element_sum(h * (3 * cl + cr) / 12, h * (cl + 3 * cr) / 12),
                   h * (cl + cr) / 12)


def band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


def band_dense(ab: np.ndarray) -> np.ndarray:
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def interp_matrix(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.stack([np.interp(points, x, e) for e in np.eye(x.size)], axis=1)


def forward_observe(x: np.ndarray, m: np.ndarray, source: float,
                    points: np.ndarray) -> np.ndarray:
    """Observations of u solving (K0 + W(e^m)) u = M s, natural BCs."""
    ab = stiffness(x, 1.0, 0.0) + weighted_mass(x, np.exp(m))
    u = scipy.linalg.solve_banded((1, 1), ab, band_matvec(mass(x), np.full(x.size, source)))
    return np.interp(points, x, u)


def objective(out: dict, m: np.ndarray) -> float:
    """J(m) = 1/2 |(f(m) - y)/σ|² + 1/2 (m - m0)ᵀ K (m - m0) for the exp model."""
    r = (forward_observe(out["x"], m, out["source"], out["points"]) - out["y_obs"]) / out["sigma"]
    d = m - out["m0"]
    return 0.5 * float(r @ r) + 0.5 * float(d @ band_matvec(stiffness(out["x"], out["a"], out["b"]), d))


# -- chain and table files ----------------------------------------------------------

def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV artefact, '#' comment lines skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def read_chain_file(path: str) -> dict:
    """Columns k, accepted, log_post, cum_solves, m_1..m_n."""
    _, body = read_table(path)
    return {"accepted": np.array([int(r[1]) for r in body], dtype=bool),
            "log_post": np.array([float(r[2]) for r in body]),
            "cum_solves": np.array([int(r[3]) for r in body], dtype=np.int64),
            "samples": np.array([[float(v) for v in r[4:]] for r in body])}


def column(path: str, name: str) -> np.ndarray:
    header, rows = read_table(path)
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


# -- checks ---------------------------------------------------------------------------

def check_predict(out: dict) -> list[str]:
    """The program's predict(m_map) against the reference banded solve."""
    ref = forward_observe(out["x"], out["m_map"], out["source"], out["points"])
    err = np.max(np.abs(out["y_pred"] - ref)) / np.max(np.abs(ref))
    return [] if err <= SOLVE_RTOL else [f"predict(m_map) off the reference solve by {err:.3g} (rel)"]


def _m_norm(out: dict, v: np.ndarray) -> float:
    return float(np.sqrt(v @ band_matvec(mass(out["x"]), v)))


def check_map_stop(out: dict) -> list[str]:
    """The MAP meets its stopping rule ‖g‖_M ≤ rel·‖g0‖_M, both as the solver
    reported it and with the gradient recomputed at the prior mean (the
    solver's start) and at the returned point."""
    g = out["grad_norms"]
    misses = []
    if not out["converged"] or g[-1] > out["grad_tol_rel"] * g[0]:
        misses.append(f"MAP reported ‖g‖/‖g0‖ = {g[-1] / g[0]:.3g} "
                      f"(rule {out['grad_tol_rel']:g}, converged={out['converged']})")
    ratio = _m_norm(out, out["g_map"]) / _m_norm(out, out["g0"])
    if ratio > out["grad_tol_rel"]:
        misses.append(f"recomputed ‖g(m_map)‖/‖g(m0)‖ = {ratio:.3g}")
    return misses


def check_gradient_fd(out: dict) -> list[str]:
    """Central difference of the reference J along d against <g, d>_M at the
    prior mean, where the gradient is large enough to resolve."""
    m, d, eps = out["m0"], out["fd_dir"], 1e-4
    fd = (objective(out, m + eps * d) - objective(out, m - eps * d)) / (2 * eps)
    exact = float(out["g0"] @ band_matvec(mass(out["x"]), d))
    err = abs(fd - exact) / (_m_norm(out, out["g0"]) * _m_norm(out, d))
    return [] if err <= FD_RTOL else [f"FD {fd:.9g} vs <g, d>_M {exact:.9g} "
                                      f"(error {err:.3g} of ‖g‖_M‖d‖_M)"]


def check_ledger(out: dict) -> list[str]:
    """cum_solves grows by exactly the method's cost per step; the start
    evaluation before the first step costs at most one step (none when the
    cloned model has the start point cached)."""
    misses = []
    for method, chains in out["chains_file"].items():
        cost = out["step_cost"][method]
        for i, ch in enumerate(chains):
            cum = ch["cum_solves"]
            steps = np.diff(cum)
            if np.any(steps != cost):
                bad = int(np.flatnonzero(steps != cost)[0])
                misses.append(f"{method} chain {i}: step {bad + 1} cost "
                              f"{steps[bad]} solves, expected {cost}")
            if not cost <= cum[0] <= 2 * cost:
                misses.append(f"{method} chain {i}: first step ends at "
                              f"{cum[0]} solves, expected {cost}..{2 * cost}")
    return misses


def check_sum_rule(out: dict) -> list[str]:
    """eigen_classification.csv rows: λ = r_misfit + r_prior."""
    lam, rm, rp = out["eig_rows"]
    err = np.max(np.abs(lam - rm - rp)) / max(1.0, np.max(np.abs(lam)))
    return [] if err <= SUM_RULE_RTOL else [f"λ - r_misfit - r_prior up to {err:.3g} (rel)"]


def check_bit_exact(out: dict) -> list[str]:
    misses = []
    for method, chains in out["chains_mem"].items():
        for i, (mem, disk) in enumerate(zip(chains, out["chains_file"][method])):
            for key in ("accepted", "log_post", "cum_solves", "samples"):
                if not np.array_equal(mem[key], disk[key]):
                    misses.append(f"{method} chain {i}: {key} differs after read-back")
    return misses


def linear_posterior(out: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, covariance and Hessian of the linear Gaussian posterior, dense."""
    x = out["x"]
    F = interp_matrix(x, out["points"]) / out["sigma"][:, None]
    K = band_dense(stiffness(x, out["a"], out["b"]))
    H = K + F.T @ F
    mean = np.linalg.solve(H, K @ out["m0"] + F.T @ (out["y_obs"] / out["sigma"]))
    return mean, np.linalg.inv(H), H


def check_linear_map(out: dict) -> list[str]:
    """The MAP meets the stopping rule ‖g(m_map)‖_M ≤ rel·‖g(m0)‖_M with the
    gradient g(m) = M⁻¹H(m - m*) of the analytic posterior, computed densely;
    so ‖m_map - m*‖_M ≤ rel·‖g(m0)‖_M / λ_min(H)."""
    mean, _, H = linear_posterior(out)
    M = band_dense(mass(out["x"]))

    def grad_norm(m):
        g = H @ (m - mean)
        return float(np.sqrt(g @ np.linalg.solve(M, g)))

    ratio = grad_norm(out["m_map"]) / grad_norm(out["m0"])
    if ratio <= out["grad_tol_rel"]:
        return []
    e = out["m_map"] - mean
    return [f"analytic ‖g(m_map)‖/‖g(m0)‖ = {ratio:.3g}; "
            f"‖m_map - m*‖_M = {np.sqrt(e @ M @ e):.3g}"]


def _batch_se(series_per_chain: list[np.ndarray]) -> float:
    """Standard error of the pooled mean from batch means (√N per batch)."""
    means = []
    for s in series_per_chain:
        size = max(1, int(np.sqrt(s.size)))
        nb = s.size // size
        means.extend(s[: nb * size].reshape(nb, size).mean(axis=1))
    means = np.asarray(means)
    return float(np.std(means, ddof=1) / np.sqrt(means.size))


def check_moments(out: dict) -> list[str]:
    """Probe-node mean and variance of every method within MOMENT_Z
    standard errors of the analytic posterior."""
    mean, cov, _ = linear_posterior(out)
    p = out["probe"]
    mu, var = mean[p], cov[p, p]
    misses = []
    for method, chains in out["chains_file"].items():
        xs = [ch["samples"][:, p] for ch in chains]
        pooled = np.concatenate(xs)
        z_mean = (pooled.mean() - mu) / _batch_se(xs)
        sq = [(s - mu) ** 2 for s in xs]
        z_var = (np.concatenate(sq).mean() - var) / _batch_se(sq)
        for what, z in (("mean", z_mean), ("variance", z_var)):
            if not abs(z) <= MOMENT_Z:
                misses.append(f"{method} probe {what} is {z:+.2f} standard errors off")
    return misses


def check_accept_all(out: dict) -> list[str]:
    """With rank(H_misfit) < r the snmap/sn proposal is the posterior itself."""
    misses = []
    for method in ("snmap", "sn"):
        for i, ch in enumerate(out["chains_file"].get(method, [])):
            if not ch["accepted"].all():
                misses.append(f"{method} chain {i} rejected "
                              f"{int((~ch['accepted']).sum())} steps")
    return misses


EXP_CHECKS = {"predict": check_predict, "map_stop": check_map_stop,
              "gradient_fd": check_gradient_fd, "ledger": check_ledger,
              "sum_rule": check_sum_rule, "bit_exact": check_bit_exact}
LINEAR_CHECKS = {"linear_map": check_linear_map, "moments": check_moments,
                 "accept_all": check_accept_all, "ledger": check_ledger,
                 "sum_rule": check_sum_rule}


def run_checks(checks: dict, out: dict) -> dict[str, list[str]]:
    return {name: check(out) for name, check in checks.items()}
