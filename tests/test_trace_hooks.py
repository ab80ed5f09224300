"""Every function the benchmark's tracer wraps still exists under its name,
and the hooks of every benchmark round still see what they read.

The traced benchmark run (``bench/run.py --trace 1``) replaces module
functions by attribute and methods through ``cls.__dict__[name]``; a
refactor that drops or moves one of those names makes it die with a
KeyError or AttributeError. The round hooks (``workloads.Taps``) read the
method as ``run_campaign``'s second positional argument and take the
first ``stage_pilot`` return as the end of set-up. These checks keep
those failures in the fast test loop.
"""

import os
import sys
import time

from hessmc import cli, models, pipeline
from hessmc.config import RunConfig

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import spans  # noqa: E402
import workloads  # noqa: E402

# the hooks every benchmark round installs (workloads.Taps)
ROUND_HOOKS = [(pipeline, "stage_pilot"), (pipeline, "run_campaign"),
               ((models.SolveCounter,), "__init__")]


def _resolves(owner, name) -> bool:
    if isinstance(owner, tuple):
        return name in owner[0].__dict__
    return callable(getattr(owner, name, None))


def test_every_hook_target_resolves():
    targets = [(owner, name) for owner, name, _, _ in spans._targets()] + ROUND_HOOKS
    missing = [f"{owner[0].__qualname__ if isinstance(owner, tuple) else owner.__name__}"
               f".{name}" for owner, name in targets if not _resolves(owner, name)]
    assert not missing, f"hook targets missing: {missing}"


def test_round_taps_see_the_end_of_setup_and_each_campaign(tmp_path):
    mini = {"mesh.n_nodes": 25, "obs.count": 4, "lowrank.r": 6, "lowrank.l": 2,
            "pilot.samples": 20, "run.chains": 2, "run.samples": 10}
    patches = spans.Patches()
    taps = workloads.Taps(time.perf_counter)
    taps.install(patches)
    try:
        taps.start_round(keep_chains=True)
        pipeline.run_pipeline(RunConfig({**mini, "run.methods": "ismap,snmap"}),
                              out_dir=str(tmp_path / "pipeline"), n_eigs=2)
        assert taps.setup_done is not None
        assert sorted(taps.chains) == ["ismap", "snmap"]

        taps.start_round(keep_chains=True)
        flags = [f"--{k.replace('.', '-').replace('_', '-')}={v}" for k, v in mini.items()]
        assert cli.main(["sample", *flags, "--method=sn",
                         f"--out-dir={tmp_path / 'stages'}"]) == 0
        assert taps.setup_done is not None
        assert list(taps.chains) == ["sn"]
        assert taps.ledger.total() > 0
    finally:
        patches.undo()
