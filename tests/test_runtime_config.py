"""Tests for the layered runtime configuration spine (repro.runtime).

Pins the resolution contract the CLI and the `from_config` constructors
rely on: precedence (defaults < repro.toml < REPRO_* env < flags) with
per-value provenance, the TOML round trip (including the minimal-parser
fallback), strict validation of unknown keys and garbage env values, and
— the backward-compatibility guarantee — that a config-built pipeline
produces bitwise-identical predictions to the legacy constructor path.
"""

import os

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.krr import KRRPipeline
from repro.runtime import (RuntimeConfig, SCHEMA, TomlError, known_keys,
                           loads_toml, resolve_runtime_config)
from repro.runtime.toml_io import _parse_minimal


@pytest.fixture(autouse=True)
def no_repro_env(monkeypatch):
    """This module asserts defaults and provenance, so the suite's own
    ``REPRO_*`` knobs (CI runs a ``REPRO_WORKERS=2`` leg) must not leak in;
    tests that want one set it themselves."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


# --------------------------------------------------------------- precedence
class TestPrecedence:
    def test_defaults_only(self):
        cfg = resolve_runtime_config()
        assert cfg.dataset.name == "gas"
        assert cfg.kernel.h == 1.0
        assert cfg.distributed.workers is None
        assert all(cfg.source(k) == "default" for k in known_keys())

    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[kernel]\nh = 2.5\n")
        cfg = resolve_runtime_config(path=str(path))
        assert cfg.kernel.h == 2.5
        assert cfg.source("kernel.h") == "file"
        assert cfg.source("kernel.lam") == "default"
        assert cfg.config_path == str(path)

    def test_env_beats_file(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[kernel]\nh = 2.5\n")
        cfg = resolve_runtime_config(path=str(path),
                                     env={"REPRO_KERNEL_H": "3.5"})
        assert cfg.kernel.h == 3.5
        assert cfg.source("kernel.h") == "env"

    def test_flag_beats_env_and_file(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[kernel]\nh = 2.5\n")
        cfg = resolve_runtime_config(path=str(path),
                                     env={"REPRO_KERNEL_H": "3.5"},
                                     flags={"kernel.h": 4.5})
        assert cfg.kernel.h == 4.5
        assert cfg.source("kernel.h") == "flag"

    def test_one_value_from_each_layer(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[dataset]\nn_train = 300\n")
        cfg = resolve_runtime_config(path=str(path),
                                     env={"REPRO_SHARDS": "2"},
                                     flags={"kernel.lam": 7.0})
        sources = {row["key"]: row["source"] for row in cfg.describe()}
        assert sources["dataset.n_train"] == "file"
        assert sources["distributed.shards"] == "env"
        assert sources["kernel.lam"] == "flag"
        assert sources["kernel.h"] == "default"

    def test_search_cwd(self, tmp_path, monkeypatch):
        (tmp_path / "repro.toml").write_text("[dataset]\nseed = 9\n")
        monkeypatch.chdir(tmp_path)
        assert resolve_runtime_config(search_cwd=True).dataset.seed == 9
        # Not searched unless asked.
        assert resolve_runtime_config().dataset.seed == 0

    def test_legacy_env_aliases(self):
        cfg = resolve_runtime_config(env={"REPRO_WORKERS": "3",
                                          "REPRO_SHARDS": "2",
                                          "REPRO_OBS_DISABLED": "1",
                                          "REPRO_METRICS_DUMP": "m.json"})
        assert cfg.distributed.workers == 3
        assert cfg.distributed.shards == 2
        assert cfg.obs.enabled is False  # inverted alias
        assert cfg.obs.dump_path == "m.json"

    def test_alias_beats_generic_env_name(self):
        cfg = resolve_runtime_config(
            env={"REPRO_WORKERS": "3", "REPRO_DISTRIBUTED_WORKERS": "5"})
        assert cfg.distributed.workers == 3

    def test_flag_values_coerced_from_strings(self):
        cfg = resolve_runtime_config(flags={"dataset.n_train": "128",
                                            "kernel.h": "0.5",
                                            "dataset.normalize": "false",
                                            "distributed.workers": "none"})
        assert cfg.dataset.n_train == 128
        assert cfg.kernel.h == 0.5
        assert cfg.dataset.normalize is False
        assert cfg.distributed.workers is None


# ---------------------------------------------------------------- validation
class TestValidation:
    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[kernel]\nbandwidth = 2.0\n")
        with pytest.raises(TomlError, match="kernel.bandwidth"):
            resolve_runtime_config(path=str(path))

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(KeyError, match="kernel.bandwidth"):
            resolve_runtime_config(flags={"kernel.bandwidth": 2.0})

    @pytest.mark.parametrize("var", ["REPRO_WORKERS", "REPRO_SHARDS"])
    @pytest.mark.parametrize("value", ["junk", "0", "-2", "2.5"])
    def test_env_garbage_raises_naming_variable(self, var, value):
        with pytest.raises(ValueError, match=var):
            resolve_runtime_config(env={var: value})

    def test_invalid_enum_rejected(self):
        with pytest.raises(ValueError, match="solver.name"):
            resolve_runtime_config(flags={"solver.name": "magic"})

    def test_invalid_val_fraction_rejected(self):
        with pytest.raises(ValueError, match="val_fraction"):
            resolve_runtime_config(flags={"tuning.val_fraction": 1.5})

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            resolve_runtime_config(path="/nonexistent/repro.toml")


# ---------------------------------------------------------------- round trip
class TestTomlRoundTrip:
    def test_to_toml_round_trips(self, tmp_path):
        cfg = resolve_runtime_config(flags={"kernel.h": 2.25,
                                            "dataset.n_train": 640,
                                            "distributed.shards": 2})
        path = tmp_path / "saved.toml"
        cfg.save(str(path))
        reloaded = resolve_runtime_config(path=str(path))
        # Value equality: provenance differs (flag vs file) but compares
        # out via the dataclass field(compare=False).
        assert reloaded == cfg
        assert reloaded.source("kernel.h") == "file"

    def test_minimal_parser_agrees_with_tomllib(self):
        text = ('# comment\n[kernel]\nname = "gaussian"  # trailing\n'
                'h = 1.5\nlam = 1e-2\n\n[dataset]\nnormalize = false\n'
                'n_train = 1024\n')
        assert _parse_minimal(text) == loads_toml(text)

    def test_minimal_parser_rejects_bad_lines(self):
        with pytest.raises(TomlError):
            _parse_minimal("[kernel\nh = 1.0\n")
        with pytest.raises(TomlError):
            _parse_minimal("just some words\n")

    def test_unset_optionals_survive_round_trip(self, tmp_path):
        cfg = resolve_runtime_config()
        path = tmp_path / "defaults.toml"
        cfg.save(str(path))
        text = path.read_text()
        assert "# workers = <unset>" in text
        assert resolve_runtime_config(path=str(path)) == cfg


# --------------------------------------------------------------- provenance
class TestAccessors:
    def test_get_and_source(self):
        cfg = resolve_runtime_config(flags={"serving.max_batch": 64})
        assert cfg.get("serving.max_batch") == 64
        assert cfg.source("serving.max_batch") == "flag"
        with pytest.raises(KeyError):
            cfg.get("serving.nope")

    def test_describe_covers_every_knob(self):
        rows = resolve_runtime_config().describe()
        assert sorted(r["key"] for r in rows) == sorted(known_keys())
        assert {r["source"] for r in rows} == {"default"}

    def test_schema_env_names_unique(self):
        seen = {}
        for knob in SCHEMA:
            for var, _inv in knob.env_vars:
                assert seen.setdefault(var, knob.key) == knob.key, (
                    f"{var} claimed by {seen[var]} and {knob.key}")


# ----------------------------------------------------- backward compatibility
class TestBackwardCompatibility:
    def test_from_config_matches_legacy_constructor_bitwise(self):
        """The config path must not change numerics: same pipeline args,
        bitwise-identical predictions and weights."""
        data = load_dataset("gas", n_train=192, n_test=64, seed=0)

        legacy = KRRPipeline(h=data.h, lam=data.lam, solver="hss",
                             clustering="two_means", leaf_size=16, seed=0)
        legacy_report = legacy.run(data.X_train, data.y_train,
                                   data.X_test, data.y_test)

        cfg = resolve_runtime_config(flags={"kernel.h": data.h,
                                            "kernel.lam": data.lam})
        configured = KRRPipeline.from_config(cfg)
        config_report = configured.run(data.X_train, data.y_train,
                                       data.X_test, data.y_test)

        assert config_report.accuracy == legacy_report.accuracy
        np.testing.assert_array_equal(
            configured.classifier_.predict(data.X_test),
            legacy.classifier_.predict(data.X_test))
        np.testing.assert_array_equal(configured.classifier_.weights_,
                                      legacy.classifier_.weights_)

    def test_constructor_args_win_unchanged(self):
        """Legacy call sites that never see a RuntimeConfig keep their
        exact constructor defaults."""
        pipeline = KRRPipeline(h=0.7, lam=0.3)
        assert pipeline.h == 0.7 and pipeline.lam == 0.3
        assert pipeline.solver_name == "hss"
        assert pipeline.kernel_name == "gaussian"

    def test_make_pipeline_overrides(self):
        cfg = resolve_runtime_config(flags={"kernel.h": 2.0})
        pipeline = cfg.make_pipeline(lam=0.125)
        assert pipeline.h == 2.0      # from config
        assert pipeline.lam == 0.125  # explicit override wins


# -------------------------------------------------------------- env snapshot
def test_resolution_ignores_unrelated_env(monkeypatch):
    monkeypatch.setenv("REPRO_SOMETHING_ELSE", "whatever")
    cfg = resolve_runtime_config()
    assert all(cfg.source(k) == "default" for k in known_keys())


def test_obs_env_alias_round_trip(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DISABLED", "0")
    cfg = resolve_runtime_config(env=dict(os.environ))
    assert cfg.obs.enabled is True
    assert cfg.source("obs.enabled") == "env"
