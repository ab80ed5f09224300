"""Run configuration: a flat registry of dotted keys with typed defaults.

Config files are YAML, either nested (``prior: {a: 0.01}``) or flat
(``prior.a: 0.01``). Command-line flags mirror the keys (dots become
dashes) and override file values. A run records its configuration in the
run directory's manifest (see ``pipeline.RunDir``).
"""

from __future__ import annotations

import yaml

from .errors import ConfigError
from .samplers import METHODS

# key -> (type, default, help)
SCHEMA: dict[str, tuple[type, object, str]] = {
    "mesh.n_nodes": (int, 139, "number of mesh nodes (parameter dimension)"),
    "mesh.length": (float, 1.0, "domain length"),
    "prior.a": (float, 1e-2, "prior precision derivative coefficient"),
    "prior.b": (float, 1e2, "prior precision mass coefficient"),
    "prior.mean_constant": (float, 1.0, "constant prior mean value"),
    "model.kind": (str, "exp_reaction", "forward model: exp_reaction | linear"),
    "model.source_constant": (float, 1.0, "constant PDE source term"),
    "obs.count": (int, 10, "number of observation points"),
    "obs.region": (str, "right_half", "observation region: right_half | full"),
    "obs.noise_rel": (float, 0.015, "noise std relative to max |signal|"),
    "truth.kind": (str, "sine_plus_one", "synthetic truth: sine_plus_one | prior_mean"),
    "lowrank.r": (int, 20, "retained Hessian eigenpairs"),
    "lowrank.l": (int, 5, "extra Lanczos iterations beyond r"),
    "map.grad_tol_rel": (float, 1e-5, "MAP relative gradient tolerance"),
    "map.max_newton": (int, 50, "maximum Newton iterations"),
    "pilot.samples": (int, 2000, "pilot chain length for start-point selection"),
    "pilot.method": (str, "snmap", "pilot chain proposal method"),
    "run.seed": (int, 0, "master seed"),
    "run.chains": (int, 21, "chains per method"),
    "run.samples": (int, 25000, "samples per chain"),
    "run.burn_frac": (float, 0.0, "fraction of each chain discarded as burn-in"),
    "run.methods": (str, "ismap,snmap,sn", "comma-separated campaign methods"),
    "run.out_dir": (str, "runs/out", "output directory"),
}

_CHOICES = {
    "model.kind": ("exp_reaction", "linear"),
    "obs.region": ("right_half", "full"),
    "truth.kind": ("sine_plus_one", "prior_mean"),
    "pilot.method": METHODS,
}


class RunConfig:
    def __init__(self, values: dict | None = None):
        self._values = {key: default for key, (_, default, _) in SCHEMA.items()}
        for key, value in (values or {}).items():
            self.set(key, value)
        self.validate()

    def __getitem__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}")

    def set(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        typ = SCHEMA[key][0]
        try:
            if typ is int:
                coerced = int(value)
                if isinstance(value, (str, float)) and float(value) != coerced:
                    raise ValueError(value)
            else:
                coerced = typ(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key} expects {typ.__name__}, got {value!r}")
        self._values[key] = coerced

    def items(self):
        return self._values.items()

    def validate(self) -> None:
        v = self._values
        problems = []
        if v["mesh.n_nodes"] < 2:
            problems.append("mesh.n_nodes must be >= 2")
        if v["mesh.length"] <= 0:
            problems.append("mesh.length must be positive")
        if v["prior.a"] <= 0 or v["prior.b"] <= 0:
            problems.append("prior coefficients must be positive")
        if v["obs.count"] < 1:
            problems.append("obs.count must be >= 1")
        if v["obs.noise_rel"] < 0:
            problems.append("obs.noise_rel must be non-negative")
        if v["lowrank.r"] < 1 or v["lowrank.l"] < 0:
            problems.append("lowrank.r must be >= 1 and lowrank.l >= 0")
        if v["lowrank.r"] + v["lowrank.l"] > v["mesh.n_nodes"]:
            problems.append("lowrank.r + lowrank.l must not exceed mesh.n_nodes")
        if not 0.0 <= v["run.burn_frac"] < 1.0:
            problems.append("run.burn_frac must be in [0, 1)")
        if v["run.chains"] < 1 or v["run.samples"] < 1 or v["pilot.samples"] < 2:
            problems.append("chain/sample counts must be positive (pilot >= 2)")
        if v["run.chains"] > v["pilot.samples"]:
            problems.append("run.chains must not exceed pilot.samples: each chain "
                            "starts from a distinct pilot state")
        for key, choices in _CHOICES.items():
            if v[key] not in choices:
                problems.append(f"{key} must be one of {choices}")
        for method in self.methods():
            if method not in METHODS:
                problems.append(f"unknown method {method!r} in run.methods")
        if problems:
            raise ConfigError("; ".join(problems))

    def methods(self) -> list[str]:
        return [m.strip() for m in self._values["run.methods"].split(",") if m.strip()]

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must contain a mapping")
        flat = {}
        for key, value in raw.items():
            if isinstance(value, dict):
                for name, sub in value.items():
                    flat[f"{key}.{name}"] = sub
            else:
                flat[str(key)] = value
        return cls(flat)
