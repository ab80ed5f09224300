"""The benchmark's workloads: one round each, and the outputs its checks read.

A round is one whole unit of user work, run in a fresh directory:
``run_pipeline`` for ``exp-pipeline``, the README's stage-by-stage CLI
sequence for ``linear-stages``. Every input comes from the run's seed
(``run.seed``, which keys the data noise, the Lanczos start vectors and
every chain stream), so a seed repeats its rounds exactly.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import io
import os

import numpy as np

from hessmc import cli, models, pipeline
from hessmc.config import RunConfig

import checks
from spans import Patches, SolveLedger

# probe coordinate of the diagnostics and of the moment check, as a share of L
PROBE_SHARE = 0.69


class Taps:
    """The few hooks every round needs, cheap enough to stay in untimed
    and timed rounds alike: the solve ledger, the moment the first pilot
    stage returns (the end of set-up), and the campaign chains in memory."""

    def __init__(self, clock):
        self.clock = clock
        self.ledger = SolveLedger()
        self.setup_done: float | None = None
        self.chains: dict[str, list] = {}
        self.keep_chains = False

    def install(self, patches: Patches) -> None:
        self.ledger.install(patches)

        def pilot(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.setup_done is None:
                    self.setup_done = self.clock()
                return result
            return wrapper

        def campaign(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.keep_chains:
                    self.chains[args[1]] = result
                return result
            return wrapper

        patches.function(pipeline, "stage_pilot", pilot)
        patches.function(pipeline, "run_campaign", campaign)

    def start_round(self, keep_chains: bool) -> None:
        self.ledger.reset()
        self.setup_done = None
        self.chains = {}
        self.keep_chains = keep_chains


def _chains_on_disk(run_dir: str) -> dict[str, list[dict]]:
    out = {}
    for mdir in sorted(glob.glob(os.path.join(run_dir, "chains", "*"))):
        files = sorted(glob.glob(os.path.join(mdir, "chain_*.csv")))
        out[os.path.basename(mdir)] = [checks.read_chain_file(f) for f in files]
    return out


def _common_outputs(cfg: RunConfig, run_dir: str) -> dict:
    obs = os.path.join(run_dir, "observations.csv")
    x = np.linspace(0.0, cfg["mesh.length"], cfg["mesh.n_nodes"])
    r, l = cfg["lowrank.r"], cfg["lowrank.l"]
    lam_table = os.path.join(run_dir, "analysis", "eigen_classification.csv")
    return {
        "x": x, "a": cfg["prior.a"], "b": cfg["prior.b"],
        "m0": np.full(x.size, cfg["prior.mean_constant"]),
        "points": checks.column(obs, "point"), "y_obs": checks.column(obs, "value"),
        "sigma": checks.column(obs, "sigma"),
        "grad_tol_rel": cfg["map.grad_tol_rel"],
        "chains_file": _chains_on_disk(run_dir),
        "step_cost": {"ismap": 1, "snmap": 2, "sn": 2 + 2 * (r + l)},
        "eig_rows": tuple(checks.column(lam_table, c)
                          for c in ("eigenvalue", "rayleigh_misfit", "rayleigh_prior")),
        "probe": int(np.argmin(np.abs(x - PROBE_SHARE * cfg["mesh.length"]))),
    }


class PipelineWorkload:
    """``run_pipeline`` on the exp-reaction model."""

    checks = checks.EXP_CHECKS

    def __init__(self, settings: dict):
        self.settings = settings

    def config(self, seed: int) -> RunConfig:
        return RunConfig({**self.settings, "run.seed": seed})

    def run(self, seed: int, run_dir: str) -> tuple[int, int, object]:
        """One round; returns (operations, failed, what the checks need)."""
        return 1, 0, pipeline.run_pipeline(self.config(seed), out_dir=run_dir)

    def outputs(self, seed: int, run_dir: str, result, taps: Taps) -> dict:
        cfg = self.config(seed)
        out = _common_outputs(cfg, run_dir)
        problem, map_result = result["problem"], result["map"]
        model = problem.model.clone()
        rng = np.random.default_rng([seed, 7])
        out.update({
            "source": cfg["model.source_constant"],
            "m_map": map_result.m_map,
            "y_pred": model.predict(map_result.m_map),
            "g_map": models.gradient(model, problem.prior, map_result.m_map),
            "g0": models.gradient(model, problem.prior, problem.prior.mean),
            "grad_norms": np.asarray(map_result.grad_norms),
            "converged": bool(map_result.converged),
            "fd_dir": rng.standard_normal(out["x"].size),
            "chains_mem": {m: [{"accepted": c.accepted, "log_post": c.log_post,
                                "cum_solves": c.cum_solves, "samples": c.samples}
                               for c in chains]
                           for m, chains in taps.chains.items()},
        })
        return out


class StagesWorkload:
    """The stage-by-stage CLI sequence in one run directory.

    Each ``hessmc`` command is one operation; a non-zero exit is a failed
    one. ``sample`` writes ``run.methods`` and ``run.samples`` into the
    config, so the manifest refuses every ``sample`` after the first
    (exit 2), after its chains are written.
    """

    checks = checks.LINEAR_CHECKS

    def __init__(self, settings: dict, samples: dict[str, int], chains: int):
        self.settings = settings
        self.samples = samples
        self.chains = chains

    def config(self, seed: int) -> RunConfig:
        return RunConfig({**self.settings, "run.seed": seed})

    def commands(self, seed: int, run_dir: str) -> list[list[str]]:
        flags = [f"--{k.replace('.', '-').replace('_', '-')}={v}"
                 for k, v in {**self.settings, "run.seed": seed}.items()]
        flags.append(f"--out-dir={run_dir}")
        chains_dir = f"--chains-dir={os.path.join(run_dir, 'chains')}"
        return [["synth", *flags], ["map", *flags],
                *[["sample", *flags, f"--method={m}", f"--chains={self.chains}",
                   f"--samples={n}"] for m, n in self.samples.items()],
                ["diagnose", *flags, chains_dir],
                ["analyze", *flags, chains_dir, "--eigs=6", "--pairs=0,1;0,2"]]

    def run(self, seed: int, run_dir: str) -> tuple[int, int, object]:
        cmds = self.commands(seed, run_dir)
        failed = 0
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in cmds:
                failed += cli.main(argv) != 0
        return len(cmds), failed, None

    def outputs(self, seed: int, run_dir: str, result, taps: Taps) -> dict:
        out = _common_outputs(self.config(seed), run_dir)
        out["m_map"] = checks.column(os.path.join(run_dir, "map.csv"), "value")
        return out


WORKLOADS = {
    # paper's three-way comparison at the pinned defaults; sn is most of the round
    "exp-pipeline": PipelineWorkload({
        "run.chains": 3, "run.samples": 60, "pilot.samples": 200,
        "run.methods": "ismap,snmap,sn"}),
    # linear Gaussian model through the CLI: chain I/O, diagnostics, repeated set-up
    "linear-stages": StagesWorkload(
        {"model.kind": "linear", "pilot.samples": 200},
        samples={"ismap": 600, "snmap": 600, "sn": 60}, chains=4),
}
