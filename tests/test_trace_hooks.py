"""Every function the benchmark's tracer wraps still exists under its name.

The traced benchmark run (``bench/run.py --trace 1``) replaces module
functions by attribute and methods through ``cls.__dict__[name]``; a
refactor that drops or moves one of those names makes it die with a
KeyError or AttributeError. This check keeps that failure in the fast
test loop.
"""

import os
import sys

from hessmc import models, pipeline

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import spans  # noqa: E402

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

