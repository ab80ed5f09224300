"""Command-line interface.

Subcommands: synth, map, sample, diagnose, analyze, pipeline. Every
config key is mirrored by a flag (dots become dashes, e.g. --prior-a);
flags override values from --config. Exit codes: 0 success, 2 for
configuration problems, 3 for numerical failures.

Each command works in one run directory (--out-dir, else the parent of
--chains-dir, else run.out_dir) through ``pipeline.RunDir``, the path
``pipeline`` takes too: a directory whose manifest records another
problem config is refused before anything is written, ``sample`` and
``analyze`` reuse the MAP the directory records, and ``sample`` reuses the
pilot's start points recorded for the same chain count. ``sample`` records
each campaign's chain statistics as it ends, and ``diagnose`` builds a
method's report row from them while its chain files are the recorded ones
(``RunDir.diagnose``), reading the chains only otherwise.

``main`` builds the parser of the command it runs, per call and never at
import: every command is registered, so the top-level help, usage and
errors list all six, but only the invoked one gets its options.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import SCHEMA, RunConfig
from .errors import ConfigError, NumericalError
from .samplers import METHODS
from . import pipeline as pl


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="YAML config file")
    for key, (typ, default, help_text) in SCHEMA.items():
        flag = "--" + key.replace(".", "-").replace("_", "-")
        parser.add_argument(flag, dest=f"cfg::{key}", type=typ, default=None,
                            metavar=typ.__name__.upper(),
                            help=f"{help_text} (default {default})")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for name, value in vars(args).items():
        if name.startswith("cfg::") and value is not None:
            cfg.set(name[5:], value)
    cfg.validate()
    return cfg


def _run_dir(args: argparse.Namespace, cfg: RunConfig) -> pl.RunDir:
    """The run directory, its manifest checked: --out-dir, else the parent
    of --chains-dir, else run.out_dir."""
    if args.out_dir:
        path = args.out_dir
    elif getattr(args, "chains_dir", None):
        path = os.path.dirname(os.path.abspath(args.chains_dir))
    else:
        path = cfg["run.out_dir"]
    return pl.RunDir(cfg, path)


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    run = _run_dir(args, cfg)
    run.synth(pl.build_problem(cfg))
    print(f"wrote truth.csv, observations.csv, signal.csv to {run.path}")
    return 0


def cmd_map(args) -> int:
    cfg = _load_config(args)
    run = _run_dir(args, cfg)
    _, info = run.solve_map(pl.build_problem(cfg))
    print(f"MAP: converged={info['converged']} newton_iters={info['newton_iters']} "
          f"cg_iters={info['cg_iters']} solves={info['solves']} -> {run.path}/map.csv")
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    methods = cfg.methods()
    if len(methods) != 1:
        raise ConfigError("sample runs one method; pass --method")
    method = methods[0]
    run = _run_dir(args, cfg)
    problem = pl.build_problem(cfg)
    run.sample(problem, run.map_point(problem), methods)
    record = run.stages["campaigns"][method]
    print(f"{method}: {record['chains']} chains x {record['samples']} samples, "
          f"mean acceptance {record['acceptance_rate']:.3f} -> {run.path}/chains/{method}/")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    run = _run_dir(args, cfg)
    reports = run.diagnose(pl.build_problem(cfg), args.chains_dir, probe_x=args.probe_x)
    for method in sorted(reports):
        rep = reports[method]
        print(f"{method}: AR={rep.acceptance_rate:.3f} MPSRF={rep.mpsrf:.4f} "
              f"IAT={rep.iat:.2f} ESS={rep.ess:.1f} MSJ={rep.msj:.4g} "
              f"SPIS={rep.spis:.2f}")
    print(f"wrote {run.path}/report.csv")
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            i, j = (int(v) for v in item.split(","))
        except ValueError:
            raise ConfigError(f"--pairs expects 'i,j[;k,l...]', got {text!r}")
        pairs.append((i, j))
    return pairs


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    pairs = _parse_pairs(args.pairs)
    pl.check_exports(args.eigs, pairs, cfg["mesh.n_nodes"])
    run = _run_dir(args, cfg)
    files = pl.chain_files(args.chains_dir or os.path.join(run.path, "chains"))
    method = pl.pooled_method(files, args.method)
    chains = pl.read_chains(files[method])
    problem = pl.build_problem(cfg)
    records = pl.stage_analyze(problem, method, chains, run.map_point(problem),
                               n_eigs=args.eigs, pairs=pairs, out_dir=run.path)
    groups_count = {}
    for rec in records:
        groups_count[rec.group] = groups_count.get(rec.group, 0) + 1
    print(f"eigen groups: {groups_count} -> {run.path}/analysis/")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    result = pl.run_pipeline(cfg, out_dir=args.out_dir, n_eigs=args.eigs,
                             pairs=_parse_pairs(args.pairs))
    for method in sorted(result["reports"]):
        rep = result["reports"][method]
        print(f"{method}: AR={rep.acceptance_rate:.3f} MPSRF={rep.mpsrf:.4f} "
              f"IAT={rep.iat:.2f} ESS={rep.ess:.1f} SPIS={rep.spis:.2f}")
    print(f"pipeline complete -> {result['out_dir']} "
          f"(manifest {result['manifest']['manifest_hash'][:12]})")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``hessmc`` parser with every command registered and only
    ``command``'s options added. It holds each ``cmd_*`` as the module
    held it when the parser was built."""
    parser = argparse.ArgumentParser(
        prog="hessmc",
        description="Hessian-preconditioned MCMC for a 1D Bayesian inverse problem")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("synth", cmd_synth, "generate synthetic truth and observations"),
        ("map", cmd_map, "solve for the MAP point"),
        ("sample", cmd_sample, "run MCMC chains for one method"),
        ("diagnose", cmd_diagnose, "compute convergence diagnostics from chain files"),
        ("analyze", cmd_analyze, "posterior eigen-analysis and marginals"),
        ("pipeline", cmd_pipeline, "run the full campaign end to end"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        _add_config_flags(p)
        p.add_argument("--out-dir", default=None, help="output directory")
        p.set_defaults(func=func)
        if name == "sample":
            # aliases of --run-methods, --run-chains and --run-samples
            p.add_argument("--method", dest="cfg::run.methods", choices=METHODS)
            p.add_argument("--chains", dest="cfg::run.chains", type=int, metavar="INT")
            p.add_argument("--samples", dest="cfg::run.samples", type=int, metavar="INT")
        if name in ("diagnose", "analyze"):
            p.add_argument("--chains-dir", default=None,
                           help="directory holding <method>/chain_*.csv")
        if name == "diagnose":
            p.add_argument("--probe-x", type=float, default=None,
                           help="probe coordinate (default 0.69 of the domain)")
        if name in ("analyze", "pipeline"):
            p.add_argument("--eigs", type=int, default=8,
                           help="number of leading eigen-marginals to export")
            p.add_argument("--pairs", default="0,1",
                           help="eigen pairs for 2D densities, e.g. '0,1;0,2'")
        if name == "analyze":
            p.add_argument("--method", default=None,
                           help="which method's chains to pool (default snmap)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser has no option that takes a value, so the
    # command is its first argument that is not an option
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
