"""Function patching, solve counting and the span recorder of the traced run.

Every hook replaces a public hessmc function or method at each name the
program reaches it through: the defining module, every ``from ... import``
copy in the other hessmc modules and the package re-exports. Methods are
replaced on the class that defines them. ``Patches.undo`` restores the
originals in reverse order, so hooks can be stacked and removed per round.

Spans are (name, start, end, parent, extra) lists kept in memory; a span's
self time is its duration minus the durations of its direct children,
which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
from collections import defaultdict

import numpy as np

from hessmc import (analysis, chain_io, cli, diagnostics, fem, lowrank,
                    map_point, models, pipeline, prior, samplers)


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hessmc" and not mod_name.startswith("hessmc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SolveLedger:
    """Every ``SolveCounter`` created while installed (the problem model's
    and one per cloned chain worker), summed on request."""

    def __init__(self):
        self.counters: list = []

    def install(self, patches: Patches) -> None:
        counters = self.counters

        def make(init):
            @functools.wraps(init)
            def wrapper(counter, *args, **kwargs):
                init(counter, *args, **kwargs)
                counters.append(counter)
            return wrapper
        patches.method(models.SolveCounter, "__init__", make)

    def reset(self) -> None:
        self.counters.clear()

    def total(self) -> int:
        return sum(c.total for c in self.counters)

    def by_kind(self) -> dict[str, int]:
        return {kind: sum(getattr(c, f"{kind}_solves") for c in self.counters)
                for kind in ("forward", "adjoint", "incremental")}


# (owner, attribute, span name or namer(args), extra(args, result) or None)
# A namer turns the call's positional arguments into the span name; an
# extra records what the per-layer metrics need from the call's result.
def _targets():
    def bytes_at(path_index):
        return lambda args, result: os.path.getsize(args[path_index])

    def chain_name(args):
        settings, chain_id = args[0], args[6]
        if chain_id == pipeline.PILOT_CHAIN_ID:
            return "samplers.run_chain.pilot"
        return f"samplers.run_chain.{settings.method}"

    return [
        (fem, "assemble_weighted_mass", "fem.assemble", None),
        (fem, "assemble_product_load", "fem.assemble", None),
        ((fem.WeightedSpace,), "solve", "fem.mass_solve", None),
        (prior, "build_prior", "prior.build", None),
        *[((prior.GaussianPrior,), name, "prior.apply", None)
          for name in ("apply_A", "apply_covariance", "apply_L", "apply_L_adj",
                       "apply_L_inv", "apply_L_inv_adj")],
        *[((cls,), name, f"models.{name}", None)
          for cls in (models.ExpReaction1D, models.LinearGaussianModel)
          for name in ("predict", "misfit_gradient", "misfit_hvp_raw")],
        (lowrank, "build_lowrank", "lowrank.build", None),
        *[((lowrank.LowRankHessian,), name, "lowrank.apply", None)
          for name in ("apply_inv", "apply_inv_sqrt", "apply_inv_sqrt_adj",
                       "apply_H", "quad")],
        (map_point, "solve_map", "map_point.solve",
         lambda args, result: (result.newton_iters, result.cg_iters_total)),
        (samplers, "mh_step", lambda args: f"samplers.mh_step.{args[0].method}",
         lambda args, result: bool(result[1])),
        (samplers, "run_chain", chain_name, None),
        (chain_io, "write_chain", "chain_io.write", bytes_at(1)),
        (chain_io, "write_table", "chain_io.write", bytes_at(0)),
        (chain_io, "read_chain", "chain_io.read", bytes_at(0)),
        (diagnostics, "diagnostics_report", "diagnostics.report", None),
        (diagnostics, "iat", "diagnostics.iat", None),
        (diagnostics, "mpsrf", "diagnostics.mpsrf", None),
        (analysis, "posterior_eigensystem", "analysis.eigensystem", None),
        (analysis, "classify_eigenvectors", "analysis.classify", None),
        *[(analysis, name, "analysis.kde", None)
          for name in ("kde_1d", "eigen_marginal", "point_marginal", "pair_density")],
        (pipeline, "build_problem", "pipeline.build", None),
        (pipeline, "stage_synth", "pipeline.synth", None),
        (pipeline, "stage_map", "pipeline.map", None),
        (pipeline, "stage_lowrank", "pipeline.lowrank", None),
        (pipeline, "stage_pilot", "pipeline.pilot", None),
        (pipeline, "run_campaign", lambda args: f"pipeline.campaign.{args[1]}", None),
        (pipeline, "stage_diagnose", "pipeline.diagnose", None),
        (pipeline, "stage_analyze", "pipeline.analyze", None),
        *[(cli, f"cmd_{cmd}", f"cli.{cmd}", None)
          for cmd in ("synth", "map", "sample", "diagnose", "analyze")],
    ]


# spans whose solve count is recorded (for cli.repeated_setup_solves)
_SOLVE_SPANS = ("pipeline.map", "pipeline.lowrank", "pipeline.pilot")


class SpanRecorder:
    """Records one span per call of every target while installed."""

    def __init__(self, ledger: SolveLedger, clock):
        self.ledger = ledger
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, patches: Patches) -> None:
        for owner, attr, name, extra in _targets():
            make = functools.partial(self._make_wrapper, name=name, extra=extra)
            if isinstance(owner, tuple):
                patches.method(owner[0], attr, make)
            else:
                patches.function(owner, attr, make)

    def _make_wrapper(self, fn, name, extra):
        spans, stack, ledger, clock = self.spans, self._stack, self.ledger, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            solves0 = ledger.total() if span_name in _SOLVE_SPANS else None
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            elif solves0 is not None:
                span[4] = ledger.total() - solves0
            return result
        return wrapper

    def clear(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "extra"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, extra) in enumerate(self.spans):
                writer.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                                 parent, "" if extra is None else extra])


def layer_metrics(spans: list[list], solves: dict[str, int],
                  speed: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``solves`` is the round's solve ledger split by kind; times are scaled
    by the round's host speed like the end-to-end times.
    """
    child = np.zeros(len(spans))
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    extras = defaultdict(list)
    for i, (name, start, end, parent, extra) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if extra is not None:
            extras[name].append(extra)

    out: dict[str, float] = {
        "fem.assemble_calls": calls["fem.assemble"],
        "fem.assemble_s": self_s["fem.assemble"],
        "fem.mass_solve_s": self_s["fem.mass_solve"],
        "prior.build_s": total["prior.build"],
        "prior.apply_calls": calls["prior.apply"],
        "prior.apply_s": self_s["prior.apply"],
        "models.forward_solves": solves["forward"],
        "models.adjoint_solves": solves["adjoint"],
        "models.incremental_solves": solves["incremental"],
        "models.forward_s": self_s["models.predict"],
        "models.gradient_s": self_s["models.misfit_gradient"],
        "models.hvp_s": self_s["models.misfit_hvp_raw"],
    }
    model_s = out["models.forward_s"] + out["models.gradient_s"] + out["models.hvp_s"]
    n_solves = sum(solves.values())
    out["models.ms_per_solve"] = 1e3 * model_s / n_solves if n_solves else 0.0
    out.update({
        "lowrank.builds": calls["lowrank.build"],
        "lowrank.build_self_s": self_s["lowrank.build"],
        "lowrank.apply_calls": calls["lowrank.apply"],
        "lowrank.apply_s": self_s["lowrank.apply"],
        "map_point.solve_s": total["map_point.solve"],
        "map_point.newton_iters": sum(e[0] for e in extras["map_point.solve"]),
        "map_point.cg_iters": sum(e[1] for e in extras["map_point.solve"]),
    })
    for method in ("ismap", "snmap", "sn"):
        step = f"samplers.mh_step.{method}"
        chain = f"samplers.run_chain.{method}"
        steps, busy, accepted = 0, 0.0, 0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            if name == step and parent >= 0 and spans[parent][0] == chain:
                steps += 1
                busy += end - start
                accepted += extra
        out[f"samplers.{method}.steps"] = steps
        out[f"samplers.{method}.step_ms"] = 1e3 * busy / steps if steps else 0.0
        out[f"samplers.{method}.acceptance"] = accepted / steps if steps else 0.0
    out["samplers.pilot_s"] = total["samplers.run_chain.pilot"]
    out.update({
        "chain_io.write_s": total["chain_io.write"],
        "chain_io.write_mb": sum(extras["chain_io.write"]) / 1e6,
        "chain_io.read_s": total["chain_io.read"],
        "chain_io.read_mb": sum(extras["chain_io.read"]) / 1e6,
        "diagnostics.report_s": self_s["diagnostics.report"],
        "diagnostics.iat_s": self_s["diagnostics.iat"],
        "diagnostics.mpsrf_s": self_s["diagnostics.mpsrf"],
        "analysis.eigensystem_s": self_s["analysis.eigensystem"],
        "analysis.classify_s": self_s["analysis.classify"],
        "analysis.kde_s": self_s["analysis.kde"],
    })
    for stage in ("build", "synth", "map", "lowrank", "pilot", "diagnose", "analyze"):
        out[f"pipeline.{stage}_s"] = total[f"pipeline.{stage}"]
    for method in ("ismap", "snmap", "sn"):
        out[f"pipeline.campaign.{method}_s"] = total[f"pipeline.campaign.{method}"]
    for cmd in ("synth", "map", "sample", "diagnose", "analyze"):
        out[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
    out["cli.repeated_setup_solves"] = sum(
        extra for name, _, _, parent, extra in spans
        if name in _SOLVE_SPANS and parent >= 0
        and spans[parent][0] in ("cli.sample", "cli.analyze"))
    return {key: value * speed if unit_of(key) in ("s", "ms") else value
            for key, value in out.items()}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms") or name.endswith("ms_per_solve"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("acceptance"):
        return "ratio"
    return "count"
