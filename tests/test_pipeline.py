"""Pipeline stages on a small mesh."""

import logging

import numpy as np
import pytest

from hessmc.config import RunConfig
from hessmc.pipeline import (RunDir, build_problem, stage_analyze, stage_lowrank,
                             stage_map, stage_pilot)
from hessmc.samplers import Chain

MINI = {"mesh.n_nodes": 25, "obs.count": 4, "lowrank.r": 6, "lowrank.l": 2}


@pytest.mark.parametrize("over, message", [
    # pinned prior: no proposal is accepted, every start is the MAP
    ({"pilot.samples": 50, "run.chains": 2}, "accepted none of 50 proposals"),
    # tight prior, as many starts as pilot states, some steps rejected
    ({"prior.a": 1.0, "prior.b": 1e4, "pilot.method": "ismap",
      "pilot.samples": 10, "run.chains": 10}, "start points are distinct"),
    # tight prior, a pilot that moves: distinct starts and no warning
    ({"prior.a": 10.0, "prior.b": 1e5, "pilot.samples": 50, "run.chains": 2}, None),
])
def test_pilot_warns_when_starts_are_not_over_dispersed(caplog, over, message):
    problem = build_problem(RunConfig({**MINI, **over}))
    res, _ = stage_map(problem)
    lrh, _ = stage_lowrank(problem, res.m_map)
    with caplog.at_level(logging.WARNING, logger="hessmc.pipeline"):
        _, starts, _ = stage_pilot(problem, res.m_map, lrh)
    n_distinct = len(np.unique(starts, axis=0))
    if message is None:
        assert caplog.text == ""
        assert n_distinct == len(starts)
    else:
        assert message in caplog.text
        assert n_distinct < len(starts)


def test_run_dir_charges_every_method_the_map_and_lowrank_solves(tmp_path):
    problem = build_problem(RunConfig({**MINI, "model.kind": "linear"}))
    rng = np.random.default_rng(0)
    count = 50

    def chain(cost):
        return Chain(samples=rng.standard_normal((count, problem.prior.n)),
                     accepted=np.ones(count, dtype=bool), log_post=np.zeros(count),
                     cum_solves=cost * np.arange(1, count + 1, dtype=np.int64))

    groups = {"ismap": [chain(1), chain(1)], "sn": [chain(14), chain(14)]}
    charged = RunDir(problem.cfg, str(tmp_path / "charged"))
    charged.stages.update({"map": {"solves": 56}, "lowrank": {"solves": 50},
                           "pilot": {"solves": 9}})
    reports = charged.diagnose(problem, groups)
    assert {m: rep.solves_total for m, rep in reports.items()} == \
        {"ismap": 106 + 2 * 50, "sn": 106 + 2 * 14 * 50}
    # a directory that records no set-up charges none
    reports = RunDir(problem.cfg, str(tmp_path / "bare")).diagnose(problem, groups)
    assert {m: rep.solves_total for m, rep in reports.items()} == \
        {"ismap": 2 * 50, "sn": 2 * 14 * 50}


def test_analyze_flags_the_tables_of_frozen_chains(tmp_path):
    # every chain holds one state: no marginal or contour has a density
    problem = build_problem(RunConfig({**MINI, "model.kind": "linear"}))
    res, _ = stage_map(problem)
    count = 20
    frozen = Chain(samples=np.tile(res.m_map + 0.01, (count, 1)),
                   accepted=np.zeros(count, dtype=bool), log_post=np.zeros(count),
                   cum_solves=np.arange(count, dtype=np.int64))
    stage_analyze(problem, "snmap", [frozen], res.m_map, 1, [(0, 1)], str(tmp_path))
    marginal, = (tmp_path / "analysis").glob("marginal_*.csv")
    for path in (marginal, tmp_path / "analysis" / "contour_000_001.csv"):
        text = path.read_text().splitlines()
        comments = [ln for ln in text if ln.startswith("#")]
        assert comments[-1] == "# degenerate=1", path.name
        density = [ln.split(",")[-2] for ln in text[len(comments) + 1:]]
        assert set(density) == {"nan"}, path.name
    assert [c for c in comments if c.startswith("# level_")] == \
        ["# level_5=nan", "# level_50=nan", "# level_95=nan"]
    assert all(float(c.partition("=")[2]) > 0.0
               for c in comments if c.startswith("# gauss_level_"))
