"""Pipeline stages on a small mesh."""

import logging

import numpy as np
import pytest

from hessmc.config import RunConfig
from hessmc.pipeline import (build_problem, setup_solves, stage_lowrank, stage_map,
                             stage_pilot)

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


def test_setup_solves_charges_the_lowrank_build_to_all_but_rwmh():
    stages = {"map": {"solves": 56}, "lowrank": {"solves": 50}, "pilot": {"solves": 9}}
    assert {m: setup_solves(stages, m) for m in ("ismap", "snmap", "sn", "rwmh")} == \
        {"ismap": 106, "snmap": 106, "sn": 106, "rwmh": 56}
    assert setup_solves({}, "snmap") == 0
