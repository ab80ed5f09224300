"""End-to-end campaign orchestration, the problem builders and the run
directory.

Every stage is a pure function of the configuration: data synthesis, the
MAP solve, the low-rank Hessian at the MAP point, a pilot chain for
start-point selection, the per-method sampling campaigns, diagnostics,
and eigen-analysis. Randomness comes from streams keyed on
(run.seed, purpose): purpose 101 is data noise, 202 the Lanczos start
vectors at the MAP point, and chains use (seed, chain_id) with campaign
chain ids 0..chains-1 and the reserved id 10_000 for the pilot. Rerunning
with the same config reproduces every output byte except recorded wall
times, which stay out of the manifest hash.

The pilot's start points depend only on the problem config and
``run.chains``, so a run directory records them in ``pilot_starts.csv``
and a later campaign with the same chain count reads them instead of
rerunning the pilot. The manifest records the sha256 of each recorded
table, ``map.csv`` and ``pilot_starts.csv``, and a table is read back only
while it matches.

``RunDir`` is the one orchestration path: ``run_pipeline`` and every CLI
stage command write through it, so the manifest, the campaign step and
the set-up cost are defined once. Every method is charged the same set-up:
the MAP solve plus the low-rank Hessian at the MAP.

Each campaign is diagnosed as it ends, from its chains in memory: the
manifest's record of the campaign holds its chain statistics at the
default probe node (``diagnostics.ChainStatistics``) and the name and
sha256 of each chain file, which ``write_chain`` returns as it writes.
``report.csv`` is charged from statistics (``stage_diagnose``):
``run_pipeline`` takes them from the records its campaigns just made, and
``RunDir.diagnose`` takes a method's record while the probe node and the
chain files, by name and sha256, are the recorded ones, and reads and
diagnoses the chains otherwise. ``run_pipeline`` keeps only the chains
that ``stage_analyze`` pools. ``campaign_statistics`` and ``stage_analyze``
each remove the burn-in (``run.burn_frac``) once, through
``Chain.after_burn_in``, before any diagnostic or density sees the chains.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (classify_eigenvectors, eigen_marginal, pair_density,
                       posterior_eigensystem)
from .chain_io import read_chain, read_table, write_chain, write_table
from .config import RunConfig
from .diagnostics import ChainStatistics, chain_statistics, charge
from .errors import ConfigError
from .fem import Mesh1D, assemble_mass, interpolation_matrix
from .lowrank import build_lowrank
from .map_point import solve_map
from .models import (ExpReaction1D, LinearGaussianModel, observation_points,
                     observed_mask, synthesize_data)
from .prior import build_prior
from .samplers import SamplerSettings, run_chain, run_chains, select_start_points

logger = logging.getLogger(__name__)

PILOT_CHAIN_ID = 10_000
DATA_NOISE_KEY = 101
LANCZOS_KEY = 202

# set per call and recorded by each campaign, so a run directory is not keyed on them
PER_CALL_KEYS = ("run.methods", "run.chains", "run.samples")
MAP_TABLE = "map.csv"
PILOT_STARTS = "pilot_starts.csv"
CHAIN_FILE = "chain_{:03d}.csv"
HASH_BLOCK_BYTES = 1 << 20


@dataclass
class Problem:
    cfg: RunConfig
    mesh: Mesh1D
    space: object
    prior: object
    model: object
    m_true: np.ndarray
    obs: object


def make_truth(cfg: RunConfig, mesh: Mesh1D) -> np.ndarray:
    kind = cfg["truth.kind"]
    if kind == "sine_plus_one":
        x = mesh.node_coords
        return np.sin(2.0 * np.pi * x / mesh.length) + 1.0
    if kind == "prior_mean":
        return np.full(mesh.n_nodes, cfg["prior.mean_constant"])
    raise ConfigError(f"unknown truth.kind {kind!r}")


def build_problem(cfg: RunConfig) -> Problem:
    """Assemble mesh, prior, model and synthetic data from the config."""
    mesh = Mesh1D.uniform(cfg["mesh.n_nodes"], cfg["mesh.length"])
    space = assemble_mass(mesh)
    prior = build_prior(mesh, cfg["prior.a"], cfg["prior.b"],
                        mean=cfg["prior.mean_constant"], space=space)
    points = observation_points(mesh, cfg["obs.count"], cfg["obs.region"])
    if cfg["model.kind"] == "linear":
        model = LinearGaussianModel(mesh, space, interpolation_matrix(mesh, points))
    else:
        model = ExpReaction1D(mesh, space, source_constant=cfg["model.source_constant"])
    m_true = make_truth(cfg, mesh)
    rng = np.random.default_rng([cfg["run.seed"], DATA_NOISE_KEY])
    obs = synthesize_data(model, m_true, cfg["obs.noise_rel"], rng, points=points)
    return Problem(cfg=cfg, mesh=mesh, space=space, prior=prior, model=model,
                   m_true=m_true, obs=obs)


def probe_node(mesh: Mesh1D, probe_x: float | None) -> int:
    """Mesh node nearest to the probe coordinate (default 0.69 of the
    length); a coordinate that is not finite or lies outside the mesh
    raises ConfigError."""
    x = 0.69 * mesh.length if probe_x is None else float(probe_x)
    lo, hi = mesh.node_coords[0], mesh.node_coords[-1]
    if not lo <= x <= hi:
        raise ConfigError(f"probe x must lie in the mesh interval [{lo:g}, {hi:g}], "
                          f"got {probe_x!r}")
    return mesh.nearest_node(x)


def sampler_settings(cfg: RunConfig, method: str, lrh_map, m_map) -> SamplerSettings:
    return SamplerSettings(method=method, r=cfg["lowrank.r"], l=cfg["lowrank.l"],
                           lrh_map=lrh_map, m_map=m_map)


def check_exports(n_eigs: int, pairs: list[tuple[int, int]], n: int) -> None:
    """Refuse a negative number of eigen-marginals, and an eigen pair
    outside 0..n-1 or naming one index twice."""
    if n_eigs < 0:
        raise ConfigError(f"the number of eigen-marginals must be >= 0, got {n_eigs}")
    for (i, j) in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ConfigError(f"invalid eigen pair ({i}, {j})")


# -- stages ---------------------------------------------------------------

def stage_synth(problem: Problem, out_dir: str) -> None:
    mesh, obs = problem.mesh, problem.obs
    write_table(os.path.join(out_dir, "truth.csv"), ["node_coord", "value"],
                np.column_stack([mesh.node_coords, problem.m_true]))
    write_table(os.path.join(out_dir, "observations.csv"), ["point", "value", "sigma"],
                np.column_stack([obs.points, obs.y_obs, obs.sigma]))
    write_table(os.path.join(out_dir, "signal.csv"), ["point", "value_clean"],
                np.column_stack([obs.points, obs.y_clean]))


def stage_map(problem: Problem, out_dir: str | None = None):
    cfg = problem.cfg
    before = problem.model.counter.total
    result = solve_map(problem.model, problem.prior,
                       grad_tol_rel=cfg["map.grad_tol_rel"],
                       max_newton=cfg["map.max_newton"])
    info = {"newton_iters": result.newton_iters,
            "cg_iters": result.cg_iters_total,
            "converged": bool(result.converged),
            "solves": problem.model.counter.total - before}
    if not result.converged:
        logger.warning("MAP solve did not reach tolerance in %d iterations",
                       result.newton_iters)
    if out_dir is not None:
        write_table(os.path.join(out_dir, MAP_TABLE), ["node_coord", "value"],
                    np.column_stack([problem.mesh.node_coords, result.m_map]))
    return result, info


def stage_lowrank(problem: Problem, m_map: np.ndarray):
    cfg = problem.cfg
    before = problem.model.counter.total
    rng = np.random.default_rng([cfg["run.seed"], LANCZOS_KEY])
    (lrh,) = build_lowrank([problem.model], problem.prior, [m_map],
                           cfg["lowrank.r"], cfg["lowrank.l"], [rng])
    if isinstance(lrh, Exception):
        raise lrh
    info = {"rank": lrh.rank, "iterations": lrh.lanczos_iters,
            "solves": problem.model.counter.total - before}
    return lrh, info


def stage_pilot(problem: Problem, m_map: np.ndarray, lrh_map):
    """Pilot chain from the MAP point; returns over-dispersed starts.

    When the pilot cannot provide them (it accepted nothing, or fewer
    distinct states than chains were requested), a warning says so; the
    starts are returned unchanged.
    """
    cfg = problem.cfg
    settings = sampler_settings(cfg, cfg["pilot.method"], lrh_map, m_map)
    worker = problem.model.clone()
    pilot = run_chain(settings, worker, problem.prior, m_map,
                      cfg["pilot.samples"], cfg["run.seed"], PILOT_CHAIN_ID)
    starts, idx = select_start_points(pilot.samples, cfg["run.chains"], problem.space)
    n_distinct = len(np.unique(starts, axis=0))
    if not pilot.accepted.any():
        logger.warning("%s pilot accepted none of %d proposals; all %d start "
                       "points equal the MAP", settings.method, pilot.n_samples,
                       len(starts))
    elif n_distinct < len(starts):
        logger.warning("only %d of %d start points are distinct; the %s pilot "
                       "accepted %.4f of its proposals", n_distinct, len(starts),
                       settings.method, pilot.acceptance_rate)
    info = {"chains": len(starts), "samples": pilot.n_samples,
            "solves": int(pilot.cum_solves[-1]),
            "acceptance_rate": pilot.acceptance_rate,
            "start_indices": idx.tolist(),
            "reject_ahead": reject_ahead_record([pilot])}
    return pilot, starts, info


def reject_ahead_record(chains: list) -> dict:
    """The stacked calls of a run of chains (``Chain.depths``): the most
    that one chain took part in (all of its lockstep group's calls), the
    most candidates one chain put in a call, and the candidates evaluated
    ahead and then discarded, with their solves, which no ``solves``
    count includes."""
    return {"stacked_calls": max(len(ch.depths) for ch in chains),
            "max_depth": max(max(ch.depths, default=0) for ch in chains),
            "discarded": sum(sum(ch.depths) - ch.n_samples for ch in chains),
            "discarded_solves": sum(ch.discarded_solves for ch in chains)}


def run_campaign(problem: Problem, method: str, starts: np.ndarray,
                 m_map: np.ndarray, lrh_map, out_dir: str | None) -> list:
    """All chains for one method, in lockstep; one cloned model (fresh
    counter) each. With ``out_dir``, chain i is written to
    <out_dir>/chains/<method>/chain_<i>.csv and its meta holds the file's
    sha256 (``sha256``)."""
    cfg = problem.cfg
    settings = sampler_settings(cfg, method, lrh_map, m_map)
    ids = range(starts.shape[0])
    paths = None
    if out_dir is not None:
        paths = [os.path.join(out_dir, "chains", method, CHAIN_FILE.format(cid)) for cid in ids]
    chains = run_chains(settings, [problem.model.clone() for _ in ids], problem.prior,
                        starts, cfg["run.samples"], cfg["run.seed"], ids, flush_paths=paths)
    for cid, chain in zip(ids, chains):
        chain.meta["start_index"] = cid
        if paths is not None:
            chain.meta["sha256"] = write_chain(chain, paths[cid])
    return chains


def chain_files(chains_dir: str) -> dict[str, list[str]]:
    """Chain file paths grouped by method, from <chains_dir>/<method>/chain_*.csv."""
    if not os.path.isdir(chains_dir):
        raise ConfigError(f"chains directory not found: {chains_dir}")
    groups: dict[str, list[str]] = {}
    for method in sorted(os.listdir(chains_dir)):
        mdir = os.path.join(chains_dir, method)
        if not os.path.isdir(mdir):
            continue
        files = sorted(f for f in os.listdir(mdir) if f.endswith(".csv"))
        if files:
            groups[method] = [os.path.join(mdir, f) for f in files]
    if not groups:
        raise ConfigError(f"no chain files under {chains_dir}")
    return groups


def read_chains(files: list[str]) -> list:
    """Read chain files to pool; one that a failed run flushed
    (``# partial=1``) is refused with a ConfigError naming it."""
    chains = [read_chain(f) for f in files]
    for path, chain in zip(files, chains):
        if chain.meta.get("partial"):
            raise ConfigError(f"{path} is a partial chain flushed by a failed run")
    return chains


def pooled_method(methods, method: str | None = None) -> str:
    """The method whose chains the analysis pools: ``method`` when given,
    else snmap when it has chains, else the first of ``methods`` in sorted
    order. Raises ConfigError, naming the methods found, when ``method``
    has no chains."""
    if method is None:
        return "snmap" if "snmap" in methods else sorted(methods)[0]
    if method not in methods:
        raise ConfigError(f"no {method} chains to analyze; "
                          f"found {', '.join(sorted(methods))}")
    return method


def campaign_statistics(problem: Problem, chains: list, node: int) -> ChainStatistics:
    """The statistics of one method's chains after burn-in, at probe node
    ``node``."""
    burn = problem.cfg["run.burn_frac"]
    return chain_statistics([ch.after_burn_in(burn) for ch in chains], problem.space, node)


def stage_diagnose(problem: Problem, statistics: dict[str, ChainStatistics],
                   setup_solves: int = 0,
                   wall_times: dict[str, float] | None = None,
                   out_dir: str | None = None):
    """Each method's diagnostics from its chain statistics
    (``campaign_statistics``, all at one probe node), written to report.csv
    when ``out_dir`` is given; every method is charged the same
    ``setup_solves``."""
    reports = {method: charge(method, stats, setup_solves, (wall_times or {}).get(method))
               for method, stats in statistics.items()}
    if out_dir is not None:
        node = next(iter(reports.values())).probe_index
        header = ["method", "chains", "samples_total", "probe_node", "acceptance_rate",
                  "mpsrf", "iat", "ess", "msj", "solves_total", "spis", "tpis",
                  "frozen_chains"]
        rows = []
        for method in sorted(reports):
            rep = reports[method]
            rows.append([rep.method, rep.n_chains, rep.n_samples_total, rep.probe_index,
                         float(rep.acceptance_rate), float(rep.mpsrf), float(rep.iat),
                         float(rep.ess), float(rep.msj), rep.solves_total,
                         float(rep.spis),
                         float(rep.tpis) if rep.tpis is not None else "",
                         rep.frozen_chains])
        write_table(os.path.join(out_dir, "report.csv"), header, rows,
                    comments=[f"probe_x={problem.mesh.node_coords[node]:.6g}"])
    return reports


def stage_analyze(problem: Problem, method: str, chains: list, m_map: np.ndarray,
                  n_eigs: int, pairs: list[tuple[int, int]], out_dir: str) -> list:
    """Eigen-classification plus marginal/contour tables, written under
    <out_dir>/analysis, from the pooled samples of one method's chains
    after burn-in; returns the classification records.

    The eigen-marginal count and every pair are checked first, so a bad
    request costs no solve and writes nothing.
    """
    check_exports(n_eigs, pairs, problem.prior.n)
    cfg = problem.cfg
    pooled = np.vstack([ch.after_burn_in(cfg["run.burn_frac"]).samples for ch in chains])
    lam, V, MHm = posterior_eigensystem(problem.model, problem.prior, m_map)
    mask = observed_mask(problem.mesh, cfg["obs.region"])
    records = classify_eigenvectors(problem.prior, MHm, lam, V, mask)
    table_dir = os.path.join(out_dir, "analysis")

    rows = [[rec.index, float(rec.eigenvalue), float(rec.r_misfit),
             float(rec.r_prior), float(rec.discriminant),
             float(rec.norm_observed), float(rec.norm_unobserved), rec.group]
            for rec in records]
    write_table(os.path.join(table_dir, "eigen_classification.csv"),
                ["eigen_index", "eigenvalue", "rayleigh_misfit", "rayleigh_prior",
                 "discriminant", "norm_observed", "norm_unobserved", "group"],
                rows, comments=[f"method={method}", f"pooled_samples={len(pooled)}"])

    for rec in records[:n_eigs]:
        i = rec.index
        kde, gauss = eigen_marginal(pooled, V[:, i], lam[i], m_map, problem.prior)
        comments = [f"eigen_index={i}", f"bandwidth={kde.bandwidth:.9g}",
                    f"group={rec.group}"]
        if kde.degenerate:
            comments.append("degenerate=1")
        write_table(os.path.join(table_dir, f"marginal_{i:03d}.csv"),
                    ["coord", "density", "gaussian_at_map"],
                    np.column_stack([kde.grid, kde.density, gauss.density]),
                    comments=comments)

    for (i, j) in pairs:
        pd = pair_density(pooled, V[:, i], V[:, j], lam[i], lam[j],
                          m_map, problem.prior)
        X, Y = np.meshgrid(pd.x_grid, pd.y_grid, indexing="ij")
        rows = np.column_stack([X.ravel(), Y.ravel(), pd.density.ravel(),
                                pd.gauss_density.ravel()])
        comments = [f"eigen_pair={i},{j}"]
        comments += [f"level_{int(100 * frac)}={lvl:.9g}"
                     for frac, lvl in pd.levels.items()]
        comments += [f"gauss_level_{int(100 * frac)}={lvl:.9g}"
                     for frac, lvl in pd.gauss_levels.items()]
        if pd.degenerate:
            comments.append("degenerate=1")
        write_table(os.path.join(table_dir, f"contour_{i:03d}_{j:03d}.csv"),
                    ["coord_i", "coord_j", "density", "gaussian_at_map"],
                    rows, comments=comments)
    return records


class RunDir:
    """A run directory and its ``manifest.json``.

    The manifest is keyed on the problem config: every key except
    ``PER_CALL_KEYS``. Opening a directory whose manifest records another
    ``config_hash`` raises ConfigError, so a command refuses the directory
    before it writes anything. Each stage merges its record into the
    manifest, and each command rewrites it once its stages are done;
    campaigns of different methods accumulate under ``stages.campaigns``.
    """

    def __init__(self, cfg: RunConfig, path: str):
        config = {k: v for k, v in sorted(cfg.items()) if k not in PER_CALL_KEYS}
        self.path, self.file = path, os.path.join(path, "manifest.json")
        self.manifest = {"config": config, "config_hash": _sha256(config), "stages": {}}
        if os.path.exists(self.file):
            with open(self.file) as fh:
                recorded = json.load(fh)
            if recorded.get("config_hash") != self.manifest["config_hash"]:
                raise ConfigError(f"{self.file} was produced with a different config; "
                                  "use a fresh output directory")
            self.manifest = recorded
        self.stages = self.manifest["stages"]

    def write(self) -> None:
        self.manifest["manifest_hash"] = manifest_hash(self.manifest)
        os.makedirs(self.path, exist_ok=True)
        with open(self.file, "w") as fh:
            fh.write(json.dumps(self.manifest, indent=2) + "\n")

    def synth(self, problem: Problem) -> None:
        stage_synth(problem, self.path)
        self.write()

    def solve_map(self, problem: Problem):
        """Solve and record the MAP, with the sha256 of map.csv; the pilot's
        start points recorded around an earlier MAP are dropped."""
        t0 = time.perf_counter()
        result, info = stage_map(problem, self.path)
        info["wall_time_volatile"] = time.perf_counter() - t0
        info["map_sha256"] = _file_sha256(os.path.join(self.path, MAP_TABLE))
        self.stages["map"] = info
        self.stages.pop("pilot", None)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.path, PILOT_STARTS))
        self.write()
        return result, info

    def _recorded_table(self, name: str, sha256: str | None) -> np.ndarray | None:
        """The body of the table ``name`` here, as a 2D array, when the
        file's sha256 is the recorded ``sha256`` (the tables hold %.17g, so
        the read-back is bit-exact); None when it is missing, edited or not
        recorded."""
        path = os.path.join(self.path, name)
        if sha256 is None or not os.path.exists(path) or _file_sha256(path) != sha256:
            return None
        return read_table(path)

    def map_point(self, problem: Problem) -> np.ndarray:
        """The MAP recorded here; when there is none, or map.csv is missing
        or edited, it is solved and recorded now (which drops the pilot's
        record)."""
        table = self._recorded_table(MAP_TABLE, self.stages.get("map", {}).get("map_sha256"))
        return self.solve_map(problem)[0].m_map if table is None else table[:, 1].copy()

    def pilot_starts(self, problem: Problem, m_map: np.ndarray, lrh) -> np.ndarray:
        """The ``run.chains`` start points recorded here, when the pilot
        record names that chain count and pilot_starts.csv is as recorded;
        otherwise the pilot is run now and its record and file are
        replaced."""
        record = self.stages.get("pilot", {})
        if record.get("chains") == problem.cfg["run.chains"]:
            starts = self._recorded_table(PILOT_STARTS, record.get("starts_sha256"))
            if starts is not None:
                return np.ascontiguousarray(starts.T)
        path = os.path.join(self.path, PILOT_STARTS)
        t0 = time.perf_counter()
        _, starts, record = stage_pilot(problem, m_map, lrh)
        record["wall_time_volatile"] = time.perf_counter() - t0
        write_table(path, [f"chain_{cid:03d}" for cid in range(len(starts))], starts.T)
        record["starts_sha256"] = _file_sha256(path)
        self.stages["pilot"] = record
        return starts

    def sample(self, problem: Problem, m_map: np.ndarray, methods: list[str],
               keep: str | None = None) -> list | None:
        """Low-rank Hessian at the MAP, the pilot's start points, then one
        campaign per method. Each campaign is diagnosed as it ends, at the
        default probe node, and its record holds those statistics and the
        sha256 of each chain file; only the chains of the method ``keep``
        are kept, and returned."""
        t0 = time.perf_counter()
        lrh, self.stages["lowrank"] = stage_lowrank(problem, m_map)
        self.stages["lowrank"]["wall_time_volatile"] = time.perf_counter() - t0
        starts = self.pilot_starts(problem, m_map, lrh)
        campaigns = self.stages.setdefault("campaigns", {})
        node = probe_node(problem.mesh, None)
        kept = None
        for method in methods:
            t0 = time.perf_counter()
            chains = run_campaign(problem, method, starts, m_map, lrh, self.path)
            campaigns[method] = {
                "chains": len(chains),
                "samples": int(chains[0].n_samples),
                "solves": int(sum(ch.cum_solves[-1] for ch in chains)),
                "acceptance_rate": float(np.mean([ch.acceptance_rate for ch in chains])),
                "reject_ahead": reject_ahead_record(chains),
                "wall_time_volatile": time.perf_counter() - t0,
                # JSON holds no nan or inf: a value that is not finite is
                # recorded as its repr, which float() reads back
                "statistics": {k: v if math.isfinite(v) else repr(v) for k, v in
                               asdict(campaign_statistics(problem, chains, node)).items()},
                "chain_files": {CHAIN_FILE.format(cid): ch.meta["sha256"]
                                for cid, ch in enumerate(chains)},
            }
            if method == keep:
                kept = chains
            del chains     # the next campaign runs without this one's chains
        self.write()
        return kept

    def statistics(self, method: str) -> ChainStatistics:
        """The chain statistics that ``method``'s campaign recorded."""
        record = self.stages["campaigns"][method]["statistics"]
        return ChainStatistics(**{k: float(v) if isinstance(v, str) else v
                                  for k, v in record.items()})

    def _recorded_statistics(self, method: str, paths: list[str],
                             node: int) -> ChainStatistics | None:
        """``statistics(method)`` when they were taken at probe node
        ``node`` and ``paths`` are exactly the chain files the campaign
        recorded, by name and sha256; None otherwise."""
        record = self.stages.get("campaigns", {}).get(method, {})
        files = record.get("chain_files")
        if files is None or record["statistics"]["probe_index"] != node:
            return None
        names = [os.path.basename(path) for path in paths]
        if names != sorted(files) or any(_file_sha256(path) != files[name]
                                         for name, path in zip(names, paths)):
            return None
        return self.statistics(method)

    def report(self, problem: Problem, statistics: dict[str, ChainStatistics]):
        """report.csv from each method's chain statistics, with the wall
        times this directory records and the set-up it charges every
        method: the MAP solve plus the low-rank Hessian at the MAP."""
        campaigns = self.stages.get("campaigns", {})
        return stage_diagnose(
            problem, statistics,
            setup_solves=sum(self.stages.get(stage, {}).get("solves", 0)
                             for stage in ("map", "lowrank")),
            wall_times={m: c["wall_time_volatile"] for m, c in campaigns.items()},
            out_dir=self.path)

    def diagnose(self, problem: Problem, chains_dir: str | None = None,
                 probe_x: float | None = None):
        """``report`` for the chain files under ``chains_dir`` (default
        <run dir>/chains), one row per method directory. A method's
        statistics are those its campaign recorded when they match
        (``_recorded_statistics``); otherwise its chains are read, a partial
        one refused, and diagnosed."""
        files = chain_files(chains_dir or os.path.join(self.path, "chains"))
        node = probe_node(problem.mesh, probe_x)
        statistics = {}
        for method, paths in files.items():
            stats = self._recorded_statistics(method, paths, node)
            if stats is None:
                stats = campaign_statistics(problem, read_chains(paths), node)
            statistics[method] = stats
        return self.report(problem, statistics)


def run_pipeline(cfg: RunConfig, out_dir: str | None = None,
                 n_eigs: int = 8, pairs: list[tuple[int, int]] | None = None) -> dict:
    """synth -> map -> lowrank -> pilot -> campaigns -> diagnose -> analyze."""
    pairs = [(0, 1)] if pairs is None else pairs
    check_exports(n_eigs, pairs, cfg["mesh.n_nodes"])
    run = RunDir(cfg, cfg["run.out_dir"] if out_dir is None else out_dir)
    problem = build_problem(cfg)
    run.synth(problem)
    map_result, _ = run.solve_map(problem)
    methods = cfg.methods()
    method = pooled_method(methods)
    chains = run.sample(problem, map_result.m_map, methods, keep=method)
    reports = run.report(problem, {m: run.statistics(m) for m in methods})
    stage_analyze(problem, method, chains, map_result.m_map,
                  n_eigs=n_eigs, pairs=pairs, out_dir=run.path)
    return {"problem": problem, "map": map_result, "reports": reports,
            "manifest": run.manifest, "out_dir": run.path}


def _sha256(obj) -> str:
    canon = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _file_sha256(path: str) -> str:
    """The sha256 of a file, read a block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _strip_volatile(node):
    if isinstance(node, dict):
        return {k: _strip_volatile(v) for k, v in sorted(node.items())
                if not k.endswith("_volatile") and k != "manifest_hash"}
    if isinstance(node, list):
        return [_strip_volatile(v) for v in node]
    return node


def manifest_hash(manifest: dict) -> str:
    return _sha256(_strip_volatile(manifest))
