"""Configuration registry, validation, and YAML loading."""

import pytest

from hessmc.config import SCHEMA, RunConfig
from hessmc.errors import ConfigError


def test_defaults():
    cfg = RunConfig()
    assert cfg["mesh.n_nodes"] == 139
    assert cfg["prior.a"] == 1e-2
    assert cfg["prior.b"] == 1e2
    assert cfg["obs.count"] == 10
    assert cfg["obs.noise_rel"] == 0.015
    assert cfg["lowrank.r"] == 20
    assert cfg["run.methods"] == "ismap,snmap,sn"
    assert all(cfg[key] == default for key, (_, default, _) in SCHEMA.items())


def test_unknown_keys_rejected():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cfg["mesh.nodes"]
    with pytest.raises(ConfigError):
        cfg.set("samplers.step", 0.1)
    with pytest.raises(ConfigError):
        RunConfig({"run.walkers": 4})


def test_int_coercion_guards_against_truncation():
    cfg = RunConfig()
    cfg.set("run.chains", "3")
    assert cfg["run.chains"] == 3
    cfg.set("run.chains", 4.0)
    assert cfg["run.chains"] == 4
    with pytest.raises(ConfigError):
        cfg.set("run.chains", 3.5)
    with pytest.raises(ConfigError):
        cfg.set("run.chains", "many")


def test_validate_rejects_inconsistent_values():
    bad = [
        {"mesh.n_nodes": 1},
        {"mesh.length": 0.0},
        {"prior.a": -1.0},
        {"obs.count": 0},
        {"obs.noise_rel": -0.1},
        {"lowrank.r": 0},
        {"lowrank.r": 100, "lowrank.l": 40},   # exceeds default n_nodes
        {"run.burn_frac": 1.0},
        {"pilot.samples": 1},
        {"model.kind": "heat"},
        {"truth.kind": "bumps"},
        {"pilot.method": "nuts"},
        {"run.methods": "ismap,hmc"},
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            RunConfig(overrides)


def test_methods_parsing_tolerates_spacing():
    cfg = RunConfig({"run.methods": " snmap , rwmh "})
    assert cfg.methods() == ["snmap", "rwmh"]


def test_nested_yaml_accepted(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("mesh:\n  n_nodes: 41\nobs:\n  noise_rel: 0.03\n"
                    "run:\n  methods: rwmh\n")
    cfg = RunConfig.from_file(str(path))
    expected = RunConfig({"mesh.n_nodes": 41, "obs.noise_rel": 0.03,
                          "run.methods": "rwmh"})
    assert dict(cfg.items()) == dict(expected.items())


def test_flat_yaml_accepted(tmp_path):
    path = tmp_path / "flat.yaml"
    path.write_text("mesh.n_nodes: 33\nprior.a: 0.5\n")
    cfg = RunConfig.from_file(str(path))
    assert cfg["mesh.n_nodes"] == 33
    assert cfg["prior.a"] == 0.5
    assert cfg["prior.b"] == 1e2  # untouched default


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("mesh: [unclosed\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(bad))
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(scalar))
