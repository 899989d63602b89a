"""Tests for the layered runtime configuration spine (repro.runtime).

Pins the resolution contract the CLI and the `from_config` constructors
rely on: precedence (defaults < repro.toml < REPRO_* env < flags) with
per-value provenance, the TOML round trip, strict validation of unknown
keys and garbage env values, that no key resolves and then does nothing,
that docs/cli.md lists the schema as it is, and — the
backward-compatibility guarantee — that a config-built estimator produces
bitwise-identical predictions to the explicit constructor path.
"""

import os
import re

import numpy as np
import pytest

from repro.config import ClusteringOptions, HMatrixOptions, HSSOptions
from repro.datasets import load_dataset
from repro.krr import (KernelRidgeClassifier, KernelRidgeRegressor,
                       OneVsAllClassifier)
from repro.runtime import (RuntimeConfig, SCHEMA, TomlError, known_keys,
                           loads_toml, resolve_runtime_config)
from repro.runtime.config import (DatasetSection, DistributedSection,
                                  KernelSection, ServerSection,
                                  SolverSection, StreamSection,
                                  TuningSection)
from repro.tuning import KRRObjective

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def no_repro_env(monkeypatch):
    """This module asserts defaults and provenance, so the suite's own
    ``REPRO_*`` knobs (CI runs a ``REPRO_SHARDS=2`` leg) must not leak in;
    tests that want one set it themselves."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


# --------------------------------------------------------------- precedence
class TestPrecedence:
    def test_defaults_only(self):
        cfg = resolve_runtime_config()
        assert cfg.dataset.name == "gas"
        assert cfg.kernel.h == 1.0
        assert cfg.distributed.shards is None
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
        cfg = resolve_runtime_config(env={"REPRO_SHARDS": "2",
                                          "REPRO_OBS_DISABLED": "1",
                                          "REPRO_METRICS_DUMP": "m.json"})
        assert cfg.distributed.shards == 2
        assert cfg.obs.enabled is False  # inverted alias
        assert cfg.obs.dump_path == "m.json"

    def test_alias_beats_generic_env_name(self):
        cfg = resolve_runtime_config(
            env={"REPRO_SHARDS": "3", "REPRO_DISTRIBUTED_SHARDS": "5"})
        assert cfg.distributed.shards == 3

    def test_flag_values_coerced_from_strings(self):
        cfg = resolve_runtime_config(flags={"dataset.n_train": "128",
                                            "kernel.h": "0.5",
                                            "dataset.normalize": "false",
                                            "distributed.shards": "none"})
        assert cfg.dataset.n_train == 128
        assert cfg.kernel.h == 0.5
        assert cfg.dataset.normalize is False
        assert cfg.distributed.shards is None


# ---------------------------------------------------------------- validation
class TestValidation:
    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[kernel]\nbandwidth = 2.0\n")
        with pytest.raises(TomlError, match="kernel.bandwidth"):
            resolve_runtime_config(path=str(path))

    def test_removed_workers_key_rejected(self, tmp_path):
        path = tmp_path / "repro.toml"
        path.write_text("[distributed]\nworkers = 2\n")
        with pytest.raises(TomlError, match="unknown config key.*"
                                            "distributed.workers"):
            resolve_runtime_config(path=str(path))

    def test_removed_workers_flag_rejected(self):
        with pytest.raises(KeyError, match="distributed.workers"):
            resolve_runtime_config(flags={"distributed.workers": 2})

    @pytest.mark.parametrize("var", ["REPRO_WORKERS",
                                     "REPRO_DISTRIBUTED_WORKERS"])
    @pytest.mark.parametrize("value", ["2", "junk"])
    def test_removed_workers_env_is_not_read(self, var, value):
        """The deleted knob's variables name no key: any value, garbage
        included, leaves every knob at its default."""
        cfg = resolve_runtime_config(env={var: value})
        assert "distributed.workers" not in known_keys()
        assert all(cfg.source(k) == "default" for k in known_keys())
        assert cfg.to_dict() == resolve_runtime_config(env={}).to_dict()

    def test_removed_collect_factors_key_rejected(self, tmp_path):
        """A sharded fit always brings its shard kernels back (every later
        verb runs on them), so a file still setting the deleted switch is
        told so."""
        path = tmp_path / "repro.toml"
        path.write_text("[distributed]\ncollect_factors = false\n")
        with pytest.raises(TomlError, match="unknown config key.*"
                                            "distributed.collect_factors"):
            resolve_runtime_config(path=str(path))
        with pytest.raises(KeyError, match="distributed.collect_factors"):
            resolve_runtime_config(
                flags={"distributed.collect_factors": False})
        cfg = resolve_runtime_config(env={
            "REPRO_DISTRIBUTED_COLLECT_FACTORS": "0"})
        assert "distributed.collect_factors" not in known_keys()
        assert cfg.to_dict() == resolve_runtime_config(env={}).to_dict()

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(KeyError, match="kernel.bandwidth"):
            resolve_runtime_config(flags={"kernel.bandwidth": 2.0})

    @pytest.mark.parametrize("var", ["REPRO_SHARDS"])
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

    @pytest.mark.parametrize("line", ["symmetric = false", "abs_tol = 0.0"])
    def test_removed_hss_key_in_file_fails_loudly(self, tmp_path, line):
        """Kernel matrices are compressed symmetric and without an absolute
        floor; a file still setting either deleted knob is told so."""
        path = tmp_path / "repro.toml"
        path.write_text(f"[hss]\n{line}\n")
        key = "hss." + line.split(" ")[0]
        with pytest.raises(TomlError, match=f"unknown config key.*{key}"):
            resolve_runtime_config(path=str(path))

    @pytest.mark.parametrize("key,value", [("hss.symmetric", False),
                                           ("hss.abs_tol", 0.0)])
    def test_removed_hss_key_flag_rejected(self, key, value):
        with pytest.raises(KeyError, match=key):
            resolve_runtime_config(flags={key: value})

    @pytest.mark.parametrize("var,key", [
        ("REPRO_HSS_SYMMETRIC", "hss.symmetric"),
        ("REPRO_HSS_ABS_TOL", "hss.abs_tol")])
    def test_removed_hss_env_is_not_read(self, var, key):
        """As with every deleted knob, its variable names no key: the
        value is ignored and every knob keeps its default."""
        cfg = resolve_runtime_config(env={var: "0"})
        assert key not in known_keys()
        assert all(cfg.source(k) == "default" for k in known_keys())
        assert cfg.hss == HSSOptions()

    @pytest.mark.parametrize("key,value,var", [
        ("hss.oversampling", -5, "REPRO_HSS_OVERSAMPLING"),
        ("hss.max_adaptive_rounds", -1, "REPRO_HSS_MAX_ADAPTIVE_ROUNDS"),
        ("hmatrix.max_rank", 0, "REPRO_HMATRIX_MAX_RANK"),
    ])
    @pytest.mark.parametrize("layer", ["file", "env", "flag"])
    def test_out_of_range_compression_knob_rejected(self, tmp_path, key,
                                                    value, var, layer):
        """A negative oversampling or round budget used to turn sample
        enlargement off without a word; each layer now fails loudly."""
        section, name = key.split(".")
        kwargs = {}
        if layer == "file":
            path = tmp_path / "repro.toml"
            path.write_text(f"[{section}]\n{name} = {value}\n")
            kwargs["path"] = str(path)
        elif layer == "env":
            kwargs["env"] = {var: str(value)}
        else:
            kwargs["flags"] = {key: value}
        with pytest.raises(ValueError, match=name):
            resolve_runtime_config(**kwargs)

    def test_removed_hss_leaf_size_key_fails_loudly(self, tmp_path):
        """The HSS partition is the cluster tree: its leaf size is
        ``clustering.leaf_size``, and a file still setting the old dead
        key is told so instead of being silently ignored."""
        path = tmp_path / "repro.toml"
        path.write_text("[hss]\nleaf_size = 32\n")
        with pytest.raises(TomlError, match="hss.leaf_size"):
            resolve_runtime_config(path=str(path))

    @pytest.mark.parametrize("build", [
        lambda: DatasetSection(n_train=1),
        lambda: KernelSection(h=0.0),
        lambda: KernelSection(lam=-1.0),
        lambda: SolverSection(name="magic"),
        lambda: ClusteringOptions(leaf_size=0),
        lambda: HSSOptions(rel_tol=0.0),
        lambda: HSSOptions(oversampling=-5),
        lambda: HSSOptions(max_adaptive_rounds=-1),
        lambda: HMatrixOptions(admissibility="sphere"),
        lambda: HMatrixOptions(max_rank=0),
        lambda: TuningSection(strategy="anneal"),
        lambda: TuningSection(backend="cg"),
        lambda: TuningSection(val_fraction=1.0),
        lambda: TuningSection(cv=0),
        lambda: ServerSection(port=70000),
        lambda: ServerSection(max_queue=0),
        lambda: ServerSection(host=""),
        lambda: StreamSection(max_fraction=0.0),
        lambda: StreamSection(recompress="sometimes"),
        lambda: DistributedSection(shards=-1),
    ])
    def test_sections_validate_themselves(self, build):
        """One validation path: a section built by hand is checked by the
        same ``__post_init__`` as one resolved from a file."""
        with pytest.raises(ValueError):
            build()


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

    def test_option_dataclass_sections_round_trip(self, tmp_path):
        """The hss / hmatrix / clustering sections are the option objects
        themselves; every knob of theirs survives to_toml -> resolve."""
        cfg = resolve_runtime_config(flags={
            "hss.rel_tol": 0.05, "hss.max_rank": 48, "hss.oversampling": 4,
            "hmatrix.admissibility": "box", "hmatrix.leaf_size": 32,
            "clustering.method": "kd", "clustering.balance_threshold": 2.0,
            "clustering.max_iter": 5, "distributed.shards": 2})
        assert type(cfg.hss) is HSSOptions
        assert type(cfg.hmatrix) is HMatrixOptions
        assert type(cfg.clustering) is ClusteringOptions
        text = cfg.to_toml()
        assert text.count("shards") == 1        # distributed.shards only
        path = tmp_path / "saved.toml"
        path.write_text(text)
        reloaded = resolve_runtime_config(path=str(path))
        assert reloaded == cfg
        assert reloaded.hss == HSSOptions(rel_tol=0.05, max_rank=48,
                                          oversampling=4)

    def test_malformed_toml_raises_toml_error(self, tmp_path):
        for text in ("[kernel\nh = 1.0\n", "just some words\n"):
            with pytest.raises(TomlError):
                loads_toml(text)
        path = tmp_path / "repro.toml"
        path.write_text("[kernel\nh = 1.0\n")
        with pytest.raises(TomlError):
            resolve_runtime_config(path=str(path))

    def test_unset_optionals_survive_round_trip(self, tmp_path):
        cfg = resolve_runtime_config()
        path = tmp_path / "defaults.toml"
        cfg.save(str(path))
        text = path.read_text()
        assert "# shards = <unset>" in text
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
    def test_from_config_matches_hand_built_constructor_bitwise(self):
        """The config path must not change numerics: same estimator args,
        bitwise-identical predictions and weights."""
        data = load_dataset("gas", n_train=192, n_test=64, seed=0)

        hand_built = KernelRidgeClassifier(
            h=data.h, lam=data.lam, solver="hss", clustering="two_means",
            leaf_size=16, seed=0).fit(data.X_train, data.y_train)

        cfg = resolve_runtime_config(flags={"kernel.h": data.h,
                                            "kernel.lam": data.lam})
        configured = KernelRidgeClassifier.from_config(cfg).fit(
            data.X_train, data.y_train)

        assert (configured.score(data.X_test, data.y_test)
                == hand_built.score(data.X_test, data.y_test))
        np.testing.assert_array_equal(configured.predict(data.X_test),
                                      hand_built.predict(data.X_test))
        np.testing.assert_array_equal(configured.weights_,
                                      hand_built.weights_)

    def test_constructor_args_win_unchanged(self):
        """Call sites that never see a RuntimeConfig keep their exact
        constructor defaults."""
        clf = KernelRidgeClassifier(h=0.7, lam=0.3)
        assert clf.h == 0.7 and clf.lam == 0.3
        assert clf._solver_spec == "hss"
        assert clf.kernel.name == "gaussian"

    def test_from_config_overrides(self):
        cfg = resolve_runtime_config(flags={"kernel.h": 2.0})
        clf = KernelRidgeClassifier.from_config(cfg, lam=0.125)
        assert clf.h == 2.0      # from config
        assert clf.lam == 0.125  # explicit override wins

    @pytest.mark.parametrize("solver", ["dense", "cg"])
    def test_solver_options_reach_only_the_hss_solver(self, solver):
        cfg = resolve_runtime_config(flags={"solver.name": solver,
                                            "distributed.cut_level": 1})
        clf = KernelRidgeClassifier.from_config(cfg)
        assert clf._solver_spec == solver
        assert clf._solver_options == {}

    @pytest.mark.parametrize("estimator", [
        KernelRidgeClassifier, OneVsAllClassifier, KernelRidgeRegressor])
    def test_from_config_builds_the_calling_estimator(self, estimator):
        cfg = resolve_runtime_config(flags={"kernel.name": "laplacian",
                                            "kernel.h": 0.5})
        model = estimator.from_config(cfg, lam=3.0)
        assert type(model) is estimator
        assert (model.kernel.name, model.h, model.lam) == \
            ("laplacian", 0.5, 3.0)
        assert model.weights_ is None


# -------------------------------------------------------------- no dead keys
def _estimator(flags):
    return KernelRidgeClassifier.from_config(
        resolve_runtime_config(flags=flags))


def _solver_options(flags):
    return _estimator(flags)._solver_options


def _trained_perm(flags):
    """Training permutation of a small config-built dense classifier."""
    data = load_dataset("gas", n_train=96, n_test=16, seed=0)
    clf = _estimator({"solver.name": "dense", "clustering.leaf_size": 8,
                      **flags})
    clf.fit(data.X_train, data.y_train)
    return clf.clustering_.perm.tolist()


def _hss_objective(flags):
    data = load_dataset("gas", n_train=64, n_test=16, seed=0)
    cfg = resolve_runtime_config(flags={"tuning.backend": "hss", **flags})
    return KRRObjective.from_config(cfg, data.X_train, data.y_train,
                                    data.X_test, data.y_test)


def _objective_model(flags):
    """The classifier a cold evaluation of the hss tuning objective fits."""
    return _hss_objective(flags)._classifier(1.0, 1.0)


def _objective_ordering(flags):
    """The ordering method the hss tuning backend actually clusters with."""
    objective = _hss_objective(flags)
    objective({"h": 1.0, "lam": 1.0})
    return objective._cache[1.0].clustering_.method


def _both(attr):
    """``attr`` of the estimator and of the hss tuning objective's model."""
    return lambda flags: (getattr(_estimator(flags), attr),
                          getattr(_objective_model(flags), attr))


def _both_solver_options(key):
    """Solver option ``key`` of the estimator and of the objective's model."""
    return lambda flags: (_solver_options(flags)[key],
                          _objective_model(flags)._solver_options[key])


#: key -> (non-default value, observer of what ``from_config`` builds from
#: a flag layer — a tuple when both the estimator and the tuning objective
#: read the key, and then both must move); the option-object sections are
#: added field by field below
OBSERVABLE = {
    "clustering.method": ("kd", lambda flags: (
        _trained_perm(flags), _objective_ordering(flags))),
    "clustering.leaf_size": (8, _both("leaf_size")),
    "clustering.max_iter": (1, _trained_perm),
    "clustering.balance_threshold": (1.0, lambda flags: _trained_perm(
        {"clustering.method": "kd", **flags})),
    "clustering.seed": (7, _both("seed")),
    "solver.name": ("cg", lambda flags: _estimator(flags)._solver_spec),
    "solver.use_hmatrix_sampling": (
        False, _both_solver_options("use_hmatrix_sampling")),
    "distributed.shards": (2, _both("shards")),
    "distributed.coupling_rel_tol": (
        0.5, _both_solver_options("coupling_rel_tol")),
    "distributed.coupling_max_rank": (
        7, _both_solver_options("coupling_max_rank")),
    "distributed.cut_level": (1, _both_solver_options("cut_level")),
}


def _option_field(options_name, field):
    """``field`` of the option object the solver / the objective's model
    is given."""
    return lambda flags: (
        getattr(_solver_options(flags)[options_name], field),
        getattr(_objective_model(flags)._solver_options[options_name],
                field))


for _section, _values in {
        "hss": {"rel_tol": 0.05, "max_rank": 48,
                "initial_samples": 16, "sample_increment": 8,
                "max_adaptive_rounds": 6, "oversampling": 4},
        "hmatrix": {"leaf_size": 32, "admissibility_eta": 2.0,
                    "admissibility": "box", "rel_tol": 0.05,
                    "max_rank": 48}}.items():
    for _field, _value in _values.items():
        OBSERVABLE[f"{_section}.{_field}"] = (
            _value, _option_field(f"{_section}_options", _field))


class TestNoDeadKeys:
    """Every key of the training sections changes what ``from_config``
    builds — none may resolve, print a provenance and then do nothing."""

    def test_table_covers_the_training_sections(self):
        training = [k for k in known_keys() if k.split(".")[0] in (
            "clustering", "hss", "hmatrix", "solver", "distributed")]
        assert sorted(OBSERVABLE) == sorted(training)
        assert len(known_keys()) == 62

    @pytest.mark.parametrize("key", sorted(OBSERVABLE))
    def test_non_default_value_is_observable(self, key):
        value, observe = OBSERVABLE[key]
        assert value != resolve_runtime_config().get(key)
        changed, default = observe({key: value}), observe({})
        if not isinstance(changed, tuple):
            changed, default = (changed,), (default,)
        assert all(c != d for c, d in zip(changed, default))

    def test_sections_reach_the_solver_whole(self):
        cfg = resolve_runtime_config(flags={"hss.rel_tol": 0.05})
        clf = KernelRidgeClassifier.from_config(cfg)
        assert clf._solver_options["hss_options"] is cfg.hss
        assert clf._solver_options["hmatrix_options"] is cfg.hmatrix
        assert clf._clustering_spec is cfg.clustering


# -------------------------------------------------------- docs match schema
def test_cli_docs_list_exactly_the_schema():
    """The sample ``repro.toml`` of docs/cli.md is the key table: every
    knob, at its built-in default; unset-by-default knobs appear as
    commented ``# key = example`` lines."""
    with open(os.path.join(REPO_ROOT, "docs", "cli.md")) as fh:
        page = fh.read()
    block = page.split("## `repro.toml` schema")[1]
    block = block.split("```toml\n")[1].split("```")[0]
    documented = {f"{section}.{name}": value
                  for section, table in loads_toml(block).items()
                  for name, value in table.items()}
    section = None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        unset = re.match(r"# (\w+) = ", line)
        if header:
            section = header.group(1)
        elif unset:
            documented[f"{section}.{unset.group(1)}"] = None
    defaults = {knob.key: knob.default() for knob in SCHEMA}
    assert documented == defaults


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
