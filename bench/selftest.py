"""Self-test of the output checks.

    python3 bench/selftest.py

Runs one round of each workload (seed 0), shows that every check passes
on its outputs, then perturbs one output at a time and shows that the
check reading it fails. Exits 1 if a check misses its perturbation or
fails on the unperturbed outputs.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import time

import run  # sets the BLAS thread policy before numpy loads

run.import_program()
import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Patches  # noqa: E402
from workloads import WORKLOADS, Taps  # noqa: E402


def first_round_outputs(name: str, run_dir: str) -> dict:
    workload = WORKLOADS[name]
    patches = Patches()
    taps = Taps(time.perf_counter)
    taps.install(patches)
    try:
        taps.start_round(keep_chains=True)
        _, _, result = workload.run(0, run_dir)
        return workload.outputs(0, run_dir, result, taps)
    finally:
        patches.undo()


def _bump_step(out):
    ch = next(iter(out["chains_file"].values()))[0]
    ch["cum_solves"][5:] += 1


def _nudge_gradient(out):
    d = out["fd_dir"] / np.linalg.norm(out["fd_dir"])
    out["g0"] = out["g0"] + 1e-3 * np.linalg.norm(out["g0"]) * d


def _flip_bit(out):
    ch = next(iter(out["chains_file"].values()))[0]
    ch["samples"][3, 7] = np.nextafter(ch["samples"][3, 7], np.inf)


def _shift_probe(out):
    for ch in out["chains_file"]["ismap"]:
        col = ch["samples"][:, out["probe"]]
        col += 0.5 * col.std()


def _reject_one(out):
    out["chains_file"]["snmap"][0]["accepted"][10] = False


def _scale(key, factor):
    def apply(out):
        out[key] = out[key] * factor
    return apply


def _shift_eigenvalue(out):
    lam, rm, rp = out["eig_rows"]
    out["eig_rows"] = (lam * (1 + 1e-6), rm, rp)


def _shift_map(out):
    out["m_map"] = out["m_map"] + 1e-2


# check name -> the perturbation it must catch
EXP_PERTURBATIONS = {
    "predict": _scale("y_pred", 1 + 1e-6),
    "map_stop": _scale("g_map", 1e3),
    "gradient_fd": _nudge_gradient,
    "ledger": _bump_step,
    "sum_rule": _shift_eigenvalue,
    "bit_exact": _flip_bit,
}
LINEAR_PERTURBATIONS = {
    "linear_map": _shift_map,
    "moments": _shift_probe,
    "accept_all": _reject_one,
    "ledger": _bump_step,
    "sum_rule": _shift_eigenvalue,
}


def main() -> int:
    root = os.path.join(run.BENCH_DIR, "out", "selftest")
    shutil.rmtree(root, ignore_errors=True)
    failures = 0
    for name, workload in WORKLOADS.items():
        out = first_round_outputs(name, os.path.join(root, name))
        perturbations = (EXP_PERTURBATIONS if workload.checks is checks.EXP_CHECKS
                         else LINEAR_PERTURBATIONS)
        if set(perturbations) != set(workload.checks):
            failures += 1
            print(f"{name}: checks without a perturbation: "
                  f"{sorted(set(workload.checks) - set(perturbations))}")
        for check_name, misses in checks.run_checks(workload.checks, out).items():
            status = "pass" if not misses else f"FAIL {misses}"
            failures += bool(misses)
            print(f"{name:14s} {check_name:12s} unperturbed: {status}")
        for check_name, perturb in perturbations.items():
            bad = copy.deepcopy(out)
            perturb(bad)
            misses = workload.checks[check_name](bad)
            failures += not misses
            status = f"caught: {misses[0]}" if misses else "NOT CAUGHT"
            print(f"{name:14s} {check_name:12s} perturbed:   {status}")
    print("self-test", "passed" if not failures else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
