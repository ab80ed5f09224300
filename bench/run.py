"""Benchmark for hessmc: one workload per process, one BLAS thread.

    python3 bench/run.py --workload exp-pipeline --seed 1 --seconds 50 --trace 0

Runs whole rounds of the workload, each in a fresh directory under
bench/out/<workload>/, until --seconds have passed (at least one round;
three with --trace 1). With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics (medians over rounds); with --trace 1 every
other round runs with the span recorder installed and the line carries the
per-layer metrics (means over traced rounds) and the tracing overhead.
The first round's outputs are then checked; any miss sets "correct" to
false and the exit code to 1. The program is imported from src/ next to
this directory and from nowhere else.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: the thread policy belongs to the benchmark
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_program():
    """Import hessmc from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC_DIR)
    try:
        import hessmc
    except ImportError as exc:
        sys.exit(f"cannot import hessmc from {SRC_DIR}: {exc}")
    if not os.path.abspath(hessmc.__file__).startswith(SRC_DIR + os.sep):
        sys.exit(f"hessmc was imported from {hessmc.__file__}, not {SRC_DIR}")
    return hessmc


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def chains_digest(path: str) -> str:
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(path, "chains"))):
        dirs.sort()
        for f in sorted(files):
            with open(os.path.join(d, f), "rb") as fh:
                h.update(f.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Patches, SpanRecorder, layer_metrics, unit_of
    from workloads import WORKLOADS, Taps
    from probe import SpeedProbe
    import checks

    workload = WORKLOADS[name]
    out_root = os.path.join(BENCH_DIR, "out", name)
    shutil.rmtree(out_root, ignore_errors=True)
    probe = SpeedProbe()
    patches = Patches()
    taps = Taps(probe.clock)
    taps.install(patches)
    recorder = SpanRecorder(taps.ledger, probe.clock)

    rounds: list[dict] = []
    attempted = failed = 0
    first_result = first_digest = None
    deterministic = True
    deadline = time.perf_counter() + seconds
    # traced rounds alternate with plain ones; the overhead compares them
    # without round 0, which also pays the process's first-call costs
    min_rounds = 3 if trace else 1
    try:
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            k = len(rounds)
            traced = trace and k % 2 == 1
            run_dir = os.path.join(out_root, f"round_{k:03d}")
            taps.start_round(keep_chains=k == 0)
            span_patches = Patches()
            if traced:
                recorder.clear()
                recorder.install(span_patches)
            probe.start()
            t0 = probe.clock()
            try:
                ops, bad, result = workload.run(seed, run_dir)
            finally:
                program_s = probe.clock() - t0
                wall = time.perf_counter() - t0
                probe.stop()
                span_patches.undo()
            attempted += ops
            failed += bad
            speed = probe.speed()
            record = {"traced": traced, "wall_s": wall, "speed": speed,
                      "run_s": program_s * speed,
                      "setup_s": (taps.setup_done - t0) * speed,
                      "solves": taps.ledger.total(),
                      "artefact_mb": tree_bytes(run_dir) / 1e6}
            if traced:
                record["layers"] = layer_metrics(recorder.spans, taps.ledger.by_kind(),
                                                 speed)
            rounds.append(record)
            digest = chains_digest(run_dir)
            if k == 0:
                first_result, first_digest = result, digest
            else:
                deterministic &= digest == first_digest
                shutil.rmtree(run_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        run0 = os.path.join(out_root, "round_000")
        outputs = workload.outputs(seed, run0, first_result, taps)
    finally:
        patches.undo()
    misses = checks.run_checks(workload.checks, outputs)
    if not deterministic:
        misses["deterministic"] = ["chain files differ between rounds of one seed"]
    if trace:
        recorder.write(os.path.join(out_root, "spans.csv"))

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {key: statistics.fmean(r["layers"][key] for r in traced_rounds)
                   for key in traced_rounds[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_rounds)
                                       - statistics.median(r["run_s"] for r in plain[1:]))
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in metrics.items()}
    else:
        units = {"setup_s": "s", "run_s": "s", "solves": "count", "artefact_mb": "MB"}
        metrics = {key: {"value": statistics.median(r[key] for r in plain), "unit": unit}
                   for key, unit in units.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return {"rounds": [{k: r[k] for k in ("traced", "wall_s", "speed", "run_s")}
                       for r in rounds],
            "attempted": attempted, "failed": failed,
            "misses": {k: v for k, v in misses.items() if v}, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "rounds": res["rounds"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "misses": res["misses"]}))
    correct = not res["misses"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
