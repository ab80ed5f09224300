"""End-to-end CLI behavior through main(argv): artifacts, determinism,
exit codes."""

import argparse
import json
import shutil

import numpy as np
import pytest

from hessmc import cli, pipeline
from hessmc.chain_io import read_chain, write_chain, write_table
from hessmc.cli import main
from hessmc.config import SCHEMA
from hessmc.samplers import METHODS

MINI = ["--mesh-n-nodes", "25", "--obs-count", "4", "--lowrank-r", "6",
        "--lowrank-l", "2", "--pilot-samples", "50"]


def rows(path):
    """Data rows of a CSV artifact (comments and header stripped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[1:]


def lasting(record):
    """A manifest stage record without its wall time, which is recorded
    (``wall_time_volatile``) and kept out of the hash."""
    assert record["wall_time_volatile"] > 0.0
    return {k: v for k, v in record.items() if not k.endswith("_volatile")}


def run_sample(out_dir, method="ismap"):
    return main(["sample", *MINI, "--method", method, "--chains", "2",
                 "--samples", "40", "--run-seed", "0", "--out-dir", str(out_dir)])


@pytest.fixture
def pilot_runs(monkeypatch):
    """The chain count of every pilot run while the test runs."""
    calls, stage_pilot = [], pipeline.stage_pilot

    def counted(problem, *args):
        calls.append(problem.cfg["run.chains"])
        return stage_pilot(problem, *args)

    monkeypatch.setattr(pipeline, "stage_pilot", counted)
    return calls


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("campaign")
    assert run_sample(d) == 0
    return d


# -- parser ----------------------------------------------------------------------

COMMANDS = ("synth", "map", "sample", "diagnose", "analyze", "pipeline")
HELP = (["-h", "--help"], "help", argparse.SUPPRESS, None, None, None)
# (option strings, dest, default, type, metavar, choices) of each command's
# options after the config flags and --out-dir
EXTRAS = {
    "sample": [(["--method"], "cfg::run.methods", None, None, None, METHODS),
               (["--chains"], "cfg::run.chains", None, int, "INT", None),
               (["--samples"], "cfg::run.samples", None, int, "INT", None)],
    "diagnose": [(["--chains-dir"], "chains_dir", None, None, None, None),
                 (["--probe-x"], "probe_x", None, float, None, None)],
    "analyze": [(["--chains-dir"], "chains_dir", None, None, None, None),
                (["--eigs"], "eigs", 8, int, None, None),
                (["--pairs"], "pairs", "0,1", None, None, None),
                (["--method"], "method", None, None, None, None)],
    "pipeline": [(["--eigs"], "eigs", 8, int, None, None),
                 (["--pairs"], "pairs", "0,1", None, None, None)],
}


def options(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.metavar, a.choices)
            for a in parser._actions]


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_parser_builds_only_its_own_options(command):
    config_flags = [(["--" + key.replace(".", "-").replace("_", "-")], f"cfg::{key}",
                     None, typ, typ.__name__.upper(), None)
                    for key, (typ, _, _) in SCHEMA.items()]
    expected = [HELP, (["--config"], "config", None, None, "FILE", None), *config_flags,
                (["--out-dir"], "out_dir", None, None, None, None), *EXTRAS.get(command, [])]
    subparsers = cli.build_parser(command)._subparsers._group_actions[0].choices
    assert list(subparsers) == list(COMMANDS)
    for name, sub in subparsers.items():
        assert options(sub) == (expected if name == command else [HELP]), name


def test_main_dispatches_to_the_command_as_patched_after_import(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args.out_dir) or 7)
    assert main(["synth", "--out-dir", "elsewhere"]) == 7
    assert seen == ["elsewhere"]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["synth", "--no-such-flag"]],
                         ids=["no-command", "unknown-command", "unknown-flag"])
def test_usage_errors_list_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage = capsys.readouterr().err.splitlines()[0]
    assert usage == "usage: hessmc [-h] {" + ",".join(COMMANDS) + "} ..."


# -- synth ---------------------------------------------------------------------

def test_synth_writes_artifacts(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["synth", *MINI, "--out-dir", str(d1)]) == 0
    assert len(rows(d1 / "truth.csv")) == 25
    assert len(rows(d1 / "observations.csv")) == 4
    assert len(rows(d1 / "signal.csv")) == 4
    # same config, fresh directory: byte-identical data
    assert main(["synth", *MINI, "--out-dir", str(d2)]) == 0
    for name in ("truth.csv", "observations.csv", "signal.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_synth_truth_kind_flag(tmp_path):
    assert main(["synth", *MINI, "--truth-kind", "prior_mean",
                 "--out-dir", str(tmp_path)]) == 0
    values = {ln.split(",")[1] for ln in rows(tmp_path / "truth.csv")}
    assert values == {"1"}


# -- map -------------------------------------------------------------------------

def test_map_writes_result(tmp_path, capsys):
    assert main(["map", *MINI, "--out-dir", str(tmp_path)]) == 0
    assert len(rows(tmp_path / "map.csv")) == 25
    assert "converged=True" in capsys.readouterr().out


def test_map_overflow_returns_numerical_exit_code(tmp_path):
    with np.errstate(over="ignore"):
        rc = main(["map", *MINI, "--prior-mean-constant", "800",
                   "--out-dir", str(tmp_path)])
    assert rc == 3


# -- sample ------------------------------------------------------------------------

def test_sample_artifacts_and_manifest(campaign_dir):
    for c in (0, 1):
        assert len(rows(campaign_dir / "chains" / "ismap" / f"chain_{c:03d}.csv")) == 40
    manifest = json.loads((campaign_dir / "manifest.json").read_text())
    camp = manifest["stages"]["campaigns"]["ismap"]
    assert camp["chains"] == 2
    assert camp["samples"] == 40
    assert camp["solves"] > 0
    assert manifest["config_hash"]
    assert manifest["manifest_hash"]
    assert manifest["config"]["mesh.n_nodes"] == 25


def test_sample_is_reproducible(campaign_dir, tmp_path):
    assert run_sample(tmp_path) == 0
    for c in (0, 1):
        name = f"chains/ismap/chain_{c:03d}.csv"
        assert (tmp_path / name).read_bytes() == (campaign_dir / name).read_bytes()


def test_sample_requires_a_single_method(tmp_path):
    # default run.methods lists three entries
    rc = main(["sample", *MINI, "--chains", "2", "--samples", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 2


def test_sample_refuses_mismatched_manifest(campaign_dir):
    written = [campaign_dir / "manifest.json",
               *sorted((campaign_dir / "chains").rglob("*.csv"))]
    before = [f.read_bytes() for f in written]
    rc = main(["sample", *MINI, "--method", "ismap", "--chains", "2",
               "--samples", "40", "--run-seed", "1", "--out-dir", str(campaign_dir)])
    assert rc == 2  # same directory, different config hash
    # refused before anything was written
    assert [f.read_bytes() for f in written] == before


def test_more_chains_than_pilot_samples_is_refused_before_any_work(tmp_path, capsys):
    out = tmp_path / "run"
    for cmd in (["sample", "--method", "snmap", "--chains", "60"],
                ["pipeline", "--run-chains", "60"]):
        assert main([*cmd, *MINI, "--out-dir", str(out)]) == 2, cmd
        assert "run.chains must not exceed pilot.samples" in capsys.readouterr().err
    assert not out.exists()


def test_another_chain_count_reruns_the_pilot(tmp_path, pilot_runs):
    d, fresh = tmp_path / "d", tmp_path / "fresh"
    three = ["sample", *MINI, "--method", "snmap", "--chains", "3", "--samples", "40"]
    assert run_sample(d) == 0
    assert main([*three, "--out-dir", str(d)]) == 0
    assert pilot_runs == [2, 3]
    assert json.loads((d / "manifest.json").read_text())["stages"]["pilot"]["chains"] == 3
    assert main([*three, "--out-dir", str(fresh)]) == 0
    for name in ["pilot_starts.csv", *(f"chains/snmap/chain_{c:03d}.csv" for c in range(3))]:
        assert (d / name).read_bytes() == (fresh / name).read_bytes(), name


def test_map_drops_the_recorded_pilot_starts(tmp_path, pilot_runs):
    assert run_sample(tmp_path) == 0
    assert main(["map", *MINI, "--out-dir", str(tmp_path)]) == 0
    assert "pilot" not in json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert not (tmp_path / "pilot_starts.csv").exists()
    assert run_sample(tmp_path) == 0
    assert pilot_runs == [2, 2]


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],  # truncated mid-file
    lambda text: text[:-4],  # last value cut short
    lambda text: "\r\n".join(ln.split(",")[0] for ln in text.splitlines()),  # one column
], ids=["truncated", "last-value-cut", "mis-shaped"])
def test_damaged_pilot_starts_are_not_used(tmp_path, pilot_runs, damage):
    starts = tmp_path / "pilot_starts.csv"
    assert run_sample(tmp_path) == 0
    recorded = starts.read_bytes()
    starts.write_bytes(damage(recorded.decode()).encode())
    assert run_sample(tmp_path) == 0
    assert pilot_runs == [2, 2]
    assert starts.read_bytes() == recorded


@pytest.mark.parametrize("damage", ["deleted", "edited"])
def test_a_missing_or_edited_map_is_solved_again(tmp_path, damage):
    # map.csv is used only while it has the sha256 the manifest records;
    # otherwise sample solves and records the MAP again, as in a fresh
    # directory, and drops the pilot's record with it
    d, fresh = tmp_path / "d", tmp_path / "fresh"
    assert main(["map", *MINI, "--run-seed", "0", "--out-dir", str(d)]) == 0
    recorded = (d / "map.csv").read_bytes()
    if damage == "deleted":
        (d / "map.csv").unlink()
    else:
        table = np.loadtxt(d / "map.csv", delimiter=",", skiprows=1)
        table[:, 1] += 0.01
        write_table(str(d / "map.csv"), ["node_coord", "value"], table)
    assert run_sample(d) == 0
    assert run_sample(fresh) == 0
    assert (d / "map.csv").read_bytes() == recorded
    for name in ["pilot_starts.csv", *(f"chains/ismap/chain_{c:03d}.csv" for c in (0, 1))]:
        assert (d / name).read_bytes() == (fresh / name).read_bytes(), name
    stages = json.loads((d / "manifest.json").read_text())["stages"]
    assert lasting(stages["map"]) == lasting(
        json.loads((fresh / "manifest.json").read_text())["stages"]["map"])


# -- diagnose ------------------------------------------------------------------------

def test_diagnose_writes_report(campaign_dir, capsys):
    rc = main(["diagnose", *MINI, "--chains-dir", str(campaign_dir / "chains")])
    assert rc == 0
    report = rows(campaign_dir / "report.csv")
    assert len(report) == 1
    assert report[0].startswith("ismap,")
    header = [ln for ln in (campaign_dir / "report.csv").read_text().splitlines()
              if not ln.startswith("#")][0].split(",")
    assert header[-1] == "frozen_chains"
    assert "MPSRF=" in capsys.readouterr().out


def test_diagnose_missing_chains_dir(tmp_path):
    rc = main(["diagnose", *MINI, "--chains-dir", str(tmp_path / "chains")])
    assert rc == 2


def test_non_finite_or_outside_values_exit_2(campaign_dir, tmp_path, capsys):
    for flags in (["--prior-a", "nan"], ["--obs-noise-rel", "inf"]):
        assert main(["map", *MINI, *flags, "--out-dir", str(tmp_path)]) == 2, flags
    assert not any(tmp_path.iterdir())
    for x in ("nan", "inf", "-5", "1.5"):
        assert main(["diagnose", *MINI, "--chains-dir", str(campaign_dir / "chains"),
                     "--probe-x", x]) == 2, x
    assert "probe x must lie in the mesh interval [0, 1]" in capsys.readouterr().err


LINEAR = [*MINI, "--model-kind", "linear", "--run-seed", "0"]
RECORDED = ("ismap", "snmap", "sn")


@pytest.fixture(scope="module")
def stages_dir(tmp_path_factory):
    """synth, map and one sample call per method on the linear model, where
    the chains move: each campaign records its statistics."""
    d = tmp_path_factory.mktemp("stages")
    for cmd in (["synth"], ["map"],
                *[["sample", "--method", m, "--chains", "3", "--samples", "40"]
                  for m in RECORDED]):
        assert main([*cmd, *LINEAR, "--out-dir", str(d)]) == 0, cmd
    return d


def recomputed_report(run_dir, monkeypatch, *flags):
    """report.csv as diagnose writes it from the chain files alone."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline.RunDir, "_recorded_statistics", lambda self, *args: None)
        assert main(["diagnose", *LINEAR, "--out-dir", str(run_dir), *flags]) == 0
    return (run_dir / "report.csv").read_bytes()


def test_recorded_statistics_give_the_recomputed_report_bytes(stages_dir, tmp_path,
                                                              monkeypatch, chain_reads):
    d = tmp_path / "run"
    shutil.copytree(stages_dir, d)
    assert main(["diagnose", *LINEAR, "--out-dir", str(d)]) == 0
    assert chain_reads == []
    recorded = (d / "report.csv").read_bytes()
    assert recomputed_report(d, monkeypatch) == recorded
    assert len(chain_reads) == 3 * len(RECORDED)
    # the chains move, so MPSRF, ESS and MSJ are computed, not a frozen case
    assert all(float(line.split(",")[4]) > 0.0 for line in rows(d / "report.csv"))


def test_recorded_statistics_serve_a_byte_identical_chains_copy(stages_dir, tmp_path,
                                                                chain_reads):
    d, copy = tmp_path / "run", tmp_path / "elsewhere" / "chains"
    shutil.copytree(stages_dir, d)
    shutil.copytree(stages_dir / "chains", copy)
    assert main(["diagnose", *LINEAR, "--out-dir", str(d)]) == 0
    recorded = (d / "report.csv").read_bytes()
    assert main(["diagnose", *LINEAR, "--out-dir", str(d), "--chains-dir", str(copy)]) == 0
    assert chain_reads == []
    assert (d / "report.csv").read_bytes() == recorded


def edit_one_digit(path):
    text = path.read_bytes()
    last = len(text) - 3          # the last digit before the final CRLF
    path.write_bytes(text[:last] + b"%d" % ((int(text[last:last + 1]) + 1) % 10)
                     + text[last + 1:])


@pytest.mark.parametrize("change", ["edited-digit", "extra-file", "missing-file",
                                    "probe-x", "partial-file"])
def test_recorded_statistics_are_not_used_for_other_chains(stages_dir, tmp_path,
                                                           monkeypatch, chain_reads,
                                                           change, capsys):
    d = tmp_path / "run"
    shutil.copytree(stages_dir, d)
    mdir, flags = d / "chains" / "ismap", []
    if change == "edited-digit":
        edit_one_digit(mdir / "chain_001.csv")
    elif change == "extra-file":
        shutil.copy(mdir / "chain_000.csv", mdir / "chain_003.csv")
    elif change == "missing-file":
        (mdir / "chain_001.csv").unlink()
    elif change == "probe-x":
        flags = ["--probe-x", "0.25"]
    else:
        chain = read_chain(str(mdir / "chain_000.csv"))
        chain.meta = {**chain.meta, "partial": True}
        write_chain(chain, str(mdir / "chain_003.csv"))
        chain_reads.clear()
    rc = main(["diagnose", *LINEAR, "--out-dir", str(d), *flags])
    if change == "partial-file":
        assert rc == 2
        assert str(mdir / "chain_003.csv") in capsys.readouterr().err
        assert not (d / "report.csv").exists()
        return
    assert rc == 0
    # only the changed method is read, and every method at another probe node
    files = sorted(str(f) for f in mdir.glob("chain_*.csv"))
    assert chain_reads == (files if change != "probe-x" else
                           sorted(str(f) for f in (d / "chains").glob("*/chain_*.csv")))
    report = (d / "report.csv").read_bytes()
    assert recomputed_report(d, monkeypatch, *flags) == report


# -- analyze -------------------------------------------------------------------------

def test_analyze_writes_tables(campaign_dir):
    rc = main(["analyze", *MINI, "--chains-dir", str(campaign_dir / "chains"),
               "--eigs", "3", "--pairs", "0,1"])
    assert rc == 0
    adir = campaign_dir / "analysis"
    assert len(rows(adir / "eigen_classification.csv")) == 25
    for i in range(3):
        assert (adir / f"marginal_{i:03d}.csv").exists()
    cells = np.array([[float(v) for v in r.split(",")[:2]]
                      for r in rows(adir / "contour_000_001.csv")])
    x_grid, y_grid = np.unique(cells[:, 0]), np.unique(cells[:, 1])
    # one row per grid cell, coord_i outer and coord_j inner
    np.testing.assert_array_equal(cells, [[x, y] for x in x_grid for y in y_grid])


def test_analyze_rejects_bad_pairs(campaign_dir):
    base = ["analyze", *MINI, "--chains-dir", str(campaign_dir / "chains")]
    assert main([*base, "--pairs", "0,0"]) == 2
    assert main([*base, "--pairs", "0,999"]) == 2
    assert main([*base, "--pairs", "zero,one"]) == 2


def test_analyze_refuses_bad_pairs_before_writing(tmp_path):
    assert run_sample(tmp_path) == 0
    assert main(["analyze", *MINI, "--out-dir", str(tmp_path), "--pairs", "0,999"]) == 2
    assert not (tmp_path / "analysis").exists()


def test_bad_pairs_are_refused_before_any_write(campaign_dir, tmp_path):
    # no recorded MAP in the fresh directory: the refusal must come before
    # the MAP solve, and pipeline's before its campaign
    fresh = tmp_path / "fresh"
    assert main(["analyze", *MINI, "--chains-dir", str(campaign_dir / "chains"),
                 "--out-dir", str(fresh), "--pairs", "0,999"]) == 2
    assert main(["pipeline", *MINI, "--run-chains", "2", "--run-samples", "10",
                 "--run-methods", "ismap", "--out-dir", str(fresh),
                 "--pairs", "0,999"]) == 2
    assert not fresh.exists()


def test_negative_eigs_is_refused_before_any_write(campaign_dir, tmp_path):
    # records[:-1] would silently drop the last marginal
    fresh = tmp_path / "fresh"
    assert main(["analyze", *MINI, "--chains-dir", str(campaign_dir / "chains"),
                 "--out-dir", str(fresh), "--eigs=-1"]) == 2
    assert main(["pipeline", *MINI, "--run-chains", "2", "--run-samples", "10",
                 "--run-methods", "ismap", "--out-dir", str(fresh), "--eigs=-1"]) == 2
    assert not fresh.exists()


def test_the_random_walk_is_refused(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert main(["pipeline", *MINI, "--run-methods", "rwmh", *out]) == 2
    assert main(["pipeline", *MINI, "--pilot-method", "rwmh", *out]) == 2
    # argparse refuses an unknown choice or flag with exit status 2
    for argv in (["sample", *MINI, "--method", "rwmh", *out],
                 ["pipeline", *MINI, "--rwmh-sigma", "0.1", *out]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not tmp_path.joinpath("manifest.json").exists()


def test_partial_chain_is_refused_before_any_write(tmp_path, capsys):
    assert run_sample(tmp_path) == 0
    chain = read_chain(str(tmp_path / "chains" / "ismap" / "chain_000.csv"))
    chain.meta = {**chain.meta, "partial": True}
    flushed = tmp_path / "chains" / "ismap" / "chain_002.csv"
    write_chain(chain, str(flushed))
    written = sorted(f for f in tmp_path.rglob("*") if f.is_file())
    before = [f.read_bytes() for f in written]
    for command in ("diagnose", "analyze"):
        assert main([command, *MINI, "--out-dir", str(tmp_path)]) == 2
        assert str(flushed) in capsys.readouterr().err
    assert sorted(f for f in tmp_path.rglob("*") if f.is_file()) == written
    assert [f.read_bytes() for f in written] == before


def test_analyze_refuses_a_method_without_chains(campaign_dir, monkeypatch, capsys):
    written = sorted(f for f in campaign_dir.rglob("*") if f.is_file())
    before = [f.read_bytes() for f in written]

    def no_solve(cfg):
        raise AssertionError("the problem was built before the method was checked")
    monkeypatch.setattr("hessmc.pipeline.build_problem", no_solve)
    rc = main(["analyze", *MINI, "--out-dir", str(campaign_dir), "--method", "sn"])
    assert rc == 2
    assert "found ismap" in capsys.readouterr().err
    assert sorted(f for f in campaign_dir.rglob("*") if f.is_file()) == written
    assert [f.read_bytes() for f in written] == before


# -- config plumbing -----------------------------------------------------------------

def test_config_file_errors(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("mesh:\n  n_nodes: 25\nfoo:\n  bar: 1\n")
    assert main(["synth", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("mesh:\n  n_nodes: 25\nobs:\n  count: 4\n"
                   "lowrank:\n  r: 6\n  l: 2\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--mesh-n-nodes", "31",
                 "--out-dir", str(out)]) == 0
    assert len(rows(out / "truth.csv")) == 31


# -- pipeline ------------------------------------------------------------------------

def test_pipeline_end_to_end_and_reproducible(tmp_path):
    args = [*MINI, "--run-chains", "2", "--run-samples", "30",
            "--run-methods", "ismap,snmap", "--eigs", "3", "--pairs", "0,1"]
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["pipeline", *args, "--out-dir", str(d1)]) == 0

    for name in ("truth.csv", "observations.csv", "signal.csv", "map.csv",
                 "report.csv", "manifest.json",
                 "chains/ismap/chain_000.csv", "chains/ismap/chain_001.csv",
                 "chains/snmap/chain_000.csv", "chains/snmap/chain_001.csv",
                 "analysis/eigen_classification.csv", "analysis/marginal_000.csv",
                 "analysis/contour_000_001.csv"):
        assert (d1 / name).exists(), name
    assert len(rows(d1 / "report.csv")) == 2  # one line per method

    assert main(["pipeline", *args, "--out-dir", str(d2)]) == 0
    h1 = json.loads((d1 / "manifest.json").read_text())["manifest_hash"]
    h2 = json.loads((d2 / "manifest.json").read_text())["manifest_hash"]
    assert h1 == h2
    assert (d1 / "chains/snmap/chain_001.csv").read_bytes() == \
        (d2 / "chains/snmap/chain_001.csv").read_bytes()


def test_stage_commands_write_what_pipeline_writes(tmp_path, pilot_runs):
    methods = ("ismap", "snmap", "sn")
    p, s = tmp_path / "pipeline", tmp_path / "stages"
    assert main(["pipeline", *MINI, "--run-chains", "2", "--run-samples", "30",
                 "--run-methods", ",".join(methods), "--eigs", "3",
                 "--out-dir", str(p)]) == 0
    commands = [["synth"], ["map"],
                *[["sample", "--method", m, "--chains", "2", "--samples", "30"]
                  for m in methods],
                ["diagnose"], ["analyze", "--eigs", "3"]]
    for cmd in commands:
        assert main([*cmd, *MINI, "--out-dir", str(s)]) == 0, cmd
    # once for the pipeline, once for the first sample call: the other two
    # read the start points the run directory records
    assert pilot_runs == [2, 2]

    chains = sorted(f.relative_to(p) for f in p.glob("chains/*/chain_*.csv"))
    analysis = sorted(f.relative_to(p) for f in p.glob("analysis/*.csv"))
    assert len(chains) == 6 and len(analysis) == 5
    for name in ["map.csv", "pilot_starts.csv", *chains, *analysis]:
        assert (s / name).read_bytes() == (p / name).read_bytes(), name

    mp = json.loads((p / "manifest.json").read_text())
    ms = json.loads((s / "manifest.json").read_text())
    assert ms["config_hash"] == mp["config_hash"]
    assert list(ms["stages"]["campaigns"]) == list(methods)
    assert lasting(ms["stages"]["map"]) == lasting(mp["stages"]["map"])
    # the pilot and each campaign record the same stacked calls either way
    assert lasting(ms["stages"]["pilot"]) == lasting(mp["stages"]["pilot"])
    for method in methods:
        assert ms["stages"]["campaigns"][method]["reject_ahead"] == \
            mp["stages"]["campaigns"][method]["reject_ahead"]
    # the low-rank build at a MAP read from map.csv pays one forward and one
    # adjoint solve that the build right after the MAP solve does not
    assert ms["stages"]["lowrank"]["solves"] == mp["stages"]["lowrank"]["solves"] + 2
    # every method is charged the MAP and the low-rank set-up, whichever
    # command sampled it first
    setup = ms["stages"]["map"]["solves"] + ms["stages"]["lowrank"]["solves"]
    for line in rows(s / "report.csv"):
        method, solves_total = line.split(",")[0], int(line.split(",")[9])
        assert solves_total == ms["stages"]["campaigns"][method]["solves"] + setup
