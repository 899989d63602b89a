"""Tests for the ``repro`` umbrella CLI.

In-process tests per subcommand (fast: tiny datasets, main() called
directly; ``repro bench`` against a stubbed ``subprocess.run``) plus one
subprocess lifecycle smoke that runs
train -> tune -> refit -> serve --check -> inspect via
``python -m repro.cli``, asserting every JSON result parses and the
refit-λ prediction matches an in-Python reference.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_dataset
from repro.serving import ModelStore

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

SMALL = ["--n-train", "160", "--n-test", "48", "-q"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the row ``repro train`` prints and stores with the model: what ran, its
#: accuracy, the solver's memory / rank figures and every phase's seconds
TRAIN_REPORT_KEYS = {
    "accuracy_percent", "clustering", "dataset", "dim", "h",
    "hmatrix_memory_mb", "hss_memory_mb", "kernel", "lambda", "max_rank",
    "memory_mb", "n_test", "n_train", "shards", "solver",
    "time_factorization_s", "time_h_construction_s", "time_hss_other_s",
    "time_hss_sampling_s", "time_predict_total_s", "time_solve_s",
    "time_train_total_s"}


def run_cli(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def read_result(tmp_path, command):
    with open(tmp_path / f"repro_{command}.json", encoding="utf-8") as fh:
        return json.load(fh)


def spy_on_subprocess_run(monkeypatch, returncode):
    """Replace ``subprocess.run`` (tier-1 never runs the ledger); returns
    the list its ``(command, kwargs)`` calls are appended to."""
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs))
        return subprocess.CompletedProcess(command, returncode)

    monkeypatch.setattr(subprocess, "run", fake_run)
    return calls


class TestTrain:
    def test_train_writes_model_and_json(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        doc = read_result(tmp_path, "train")
        assert doc["status"] == "ok"
        assert doc["result"]["report"]["accuracy_percent"] > 50.0
        assert doc["result"]["model"]["name"] == "model"
        store = ModelStore(str(tmp_path / "models"))
        assert "model" in store

    def test_train_report_and_stored_metadata_keep_their_keys(
            self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        report = read_result(tmp_path, "train")["result"]["report"]
        assert set(report) == TRAIN_REPORT_KEYS
        assert (report["dataset"], report["solver"], report["shards"]) == \
            ("gas", "hss", 1)
        store = ModelStore(str(tmp_path / "models"))
        assert store.record("model").metadata == report

    def test_train_report_describes_the_stored_model(self, tmp_path,
                                                     monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        report = read_result(tmp_path, "train")["result"]["report"]
        model = ModelStore(str(tmp_path / "models")).load("model")
        data = load_dataset("gas", n_train=160, n_test=48, seed=0)
        assert (report["h"], report["lambda"]) == (model.h, model.lam)
        assert (report["n_train"], report["dim"]) == model.X_train_.shape
        assert report["n_test"] == 48
        assert report["accuracy_percent"] == round(
            100.0 * model.score(data.X_test, data.y_test), 2)

    def test_train_is_idempotent(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        first = ModelStore(str(tmp_path / "models")).record("model").checksum
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        second = ModelStore(str(tmp_path / "models")).record("model").checksum
        assert first == second  # same config, same data, same artifact

    def test_train_no_save(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--no-save", *SMALL]) == 0
        assert read_result(tmp_path, "train")["result"]["model"] is None
        assert not (tmp_path / "models").exists()

    def test_flag_overrides_reach_pipeline(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--h", "1.75", "--lam", "0.5",
                        *SMALL]) == 0
        report = read_result(tmp_path, "train")["result"]["report"]
        assert report["h"] == 1.75
        assert report["lambda"] == 0.5


class TestTuneRefitServe:
    def test_tune_random(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch,
                       ["tune", "--strategy", "random", "--budget", "4",
                        *SMALL]) == 0
        doc = read_result(tmp_path, "tune")
        best = doc["result"]["best"]
        assert doc["result"]["evaluations"] >= 4
        assert 0.0 <= best["validation_accuracy"] <= 1.0
        assert best["h"] > 0 and best["lam"] > 0

    def test_refit_matches_reference(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        assert run_cli(tmp_path, monkeypatch,
                       ["refit", "--new-lam", "6.0", *SMALL]) == 0
        doc = read_result(tmp_path, "refit")
        assert doc["result"]["new_lam"] == 6.0

        # In-Python reference: cold fit at the same λ must predict the
        # same labels as the CLI's refit-and-saved model.
        data = load_dataset("gas", n_train=160, n_test=48, seed=0)
        from repro.krr import KernelRidgeClassifier
        reference = KernelRidgeClassifier(
            h=data.h, lam=6.0, solver="hss", clustering="two_means",
            seed=0).fit(data.X_train, data.y_train)
        served = ModelStore(str(tmp_path / "models")).load("model")
        assert served.lam == 6.0
        np.testing.assert_array_equal(served.predict(data.X_test),
                                      reference.predict(data.X_test))

    def test_refit_and_update_keep_the_training_record(self, tmp_path,
                                                       monkeypatch):
        """Regression: both verbs used to re-save with a fresh metadata
        dict, wiping what ``repro train`` had recorded."""
        store = ModelStore(str(tmp_path / "models"))
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        trained = store.record("model").metadata
        assert trained["dataset"] == "gas" and "accuracy_percent" in trained

        assert run_cli(tmp_path, monkeypatch,
                       ["refit", "--new-lam", "6.0", *SMALL]) == 0
        assert read_result(tmp_path, "refit")["result"]["old_lam"] == \
            trained["lambda"]
        assert store.record("model").metadata == {**trained, "lambda": 6.0}

        fresh = load_dataset("gas", n_train=160, n_test=48, seed=7)
        np.savez(tmp_path / "rows.npz", X=fresh.X_train[:8],
                 y=fresh.y_train[:8])
        update = ["update", "--add", "rows.npz", "--remove", "3,17", *SMALL]
        assert run_cli(tmp_path, monkeypatch, update) == 0
        result = read_result(tmp_path, "update")["result"]
        assert (result["n_train_before"], result["n_train_after"]) == \
            (160, 166)
        assert result["revision"] == 3 and not result["recompressed"]
        assert store.record("model").metadata == {
            **trained, "lambda": 6.0, "streamed": True}

        # a forced fold re-saves twice, like the daemon's background job
        assert run_cli(tmp_path, monkeypatch,
                       [*update, "--recompress", "force"]) == 0
        result = read_result(tmp_path, "update")["result"]
        assert result["revision"] == 5 and result["recompressed"]
        assert store.record("model").metadata == {
            **trained, "lambda": 6.0, "recompressed": True}
        assert store.load("model").stream_info_ is None

    def test_refit_without_model_errors(self, tmp_path, monkeypatch, capsys):
        assert run_cli(tmp_path, monkeypatch,
                       ["refit", "--new-lam", "2.0", *SMALL]) == 2
        assert "repro train" in capsys.readouterr().err

    def test_serve_check(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        assert run_cli(tmp_path, monkeypatch,
                       ["serve", "--check", "--check-n", "16",
                        *SMALL]) == 0
        doc = read_result(tmp_path, "serve")
        assert doc["result"]["check_passed"] is True
        assert doc["result"]["completed"] == 16

    def test_serve_batch_queries(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        data = load_dataset("gas", n_train=160, n_test=48, seed=0)
        np.save(tmp_path / "queries.npy", data.X_test[:8])
        assert run_cli(tmp_path, monkeypatch,
                       ["serve", "--queries", "queries.npy",
                        "--out", "answers.npy", *SMALL]) == 0
        answers = np.load(tmp_path / "answers.npy")
        assert answers.shape[0] == 8
        assert set(np.unique(answers)) <= {-1.0, 1.0}


class TestInspectEnvBench:
    def test_inspect_config_shows_provenance_of_each_layer(
            self, tmp_path, monkeypatch):
        (tmp_path / "repro.toml").write_text("[dataset]\nn_train = 180\n")
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert run_cli(tmp_path, monkeypatch,
                       ["inspect", "config", "--lam", "3.5", "-q"]) == 0
        doc = read_result(tmp_path, "inspect_config")
        sources = {row["key"]: (row["source"], row["value"])
                   for row in doc["result"]["knobs"]}
        assert sources["dataset.n_train"] == ("file", 180)
        assert sources["distributed.shards"] == ("env", 2)
        assert sources["kernel.lam"] == ("flag", 3.5)
        assert sources["kernel.h"][0] == "default"

    def test_inspect_models(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 0
        assert run_cli(tmp_path, monkeypatch,
                       ["inspect", "models", "-q"]) == 0
        doc = read_result(tmp_path, "inspect_models")
        assert [m["name"] for m in doc["result"]["models"]] == ["model"]

    def test_inspect_metrics_from_dump(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--set", "obs.dump_path=m.json",
                        *SMALL]) == 0
        assert run_cli(tmp_path, monkeypatch,
                       ["inspect", "metrics", "--metrics-path", "m.json",
                        "-q"]) == 0
        doc = read_result(tmp_path, "inspect_metrics")
        counters = doc["result"]["summary"]["counters"]
        assert counters.get("repro_kernel_compressions_total", 0) >= 1

    def test_inspect_metrics_without_dump_errors(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.delenv("REPRO_METRICS_DUMP", raising=False)
        assert run_cli(tmp_path, monkeypatch,
                       ["inspect", "metrics", "-q"]) == 2
        assert "no metrics dump configured" in capsys.readouterr().err

    def test_env_reports_mapping(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert run_cli(tmp_path, monkeypatch, ["env", "-q"]) == 0
        doc = read_result(tmp_path, "env")
        assert doc["result"]["env_mapping"]["REPRO_SHARDS"] == \
            "distributed.shards"
        assert doc["result"]["host"]["python"]

    def test_bench_runs_the_manifest_command_at_the_checkout_root(
            self, monkeypatch):
        calls = spy_on_subprocess_run(monkeypatch, returncode=0)
        monkeypatch.chdir(os.path.join(REPO_ROOT, "tests"))  # walks up
        assert main(["bench", "--workload", "lowdim", "--seed", "3"]) == 0
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)["command"]
        (command, kwargs), = calls
        assert command[0] in (manifest[0], sys.executable)
        assert command[1:] == manifest[1:] + ["--workload", "lowdim",
                                              "--seed", "3"]
        assert kwargs["cwd"] == REPO_ROOT

    def test_bench_returns_the_ledgers_exit_status(self, monkeypatch):
        spy_on_subprocess_run(monkeypatch, returncode=1)
        monkeypatch.chdir(REPO_ROOT)
        assert main(["bench", "--workload", "lowdim"]) == 1

    def test_bench_outside_a_checkout_is_a_cli_error(self, tmp_path,
                                                     monkeypatch, capsys):
        calls = spy_on_subprocess_run(monkeypatch, returncode=0)
        assert run_cli(tmp_path, monkeypatch,
                       ["bench", "--workload", "lowdim"]) == 2
        err = capsys.readouterr().err
        assert "BENCHMARK.json" in err and "source checkout" in err
        assert calls == []


class TestErrors:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "COMMAND" in capsys.readouterr().out

    def test_bad_set_syntax(self, tmp_path, monkeypatch, capsys):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--set", "kernel.h"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_key_in_set(self, tmp_path, monkeypatch, capsys):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--set", "kernel.nope=1"]) == 2
        assert "kernel.nope" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "serve"])
    def test_removed_workers_flag_is_usage_error(self, tmp_path, monkeypatch,
                                                 capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(tmp_path, monkeypatch, [command, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_removed_workers_key_in_set(self, tmp_path, monkeypatch, capsys):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", "--set", "distributed.workers=2"]) == 2
        assert "distributed.workers" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["hss.symmetric=false",
                                      "hss.abs_tol=0"])
    def test_removed_hss_key_in_set(self, tmp_path, monkeypatch, capsys,
                                    item):
        assert run_cli(tmp_path, monkeypatch, ["train", "--set", item]) == 2
        assert item.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["hss.oversampling=-5",
                                      "hss.max_adaptive_rounds=-1",
                                      "hmatrix.max_rank=0"])
    def test_out_of_range_compression_knob_in_set(self, tmp_path,
                                                  monkeypatch, capsys, item):
        assert run_cli(tmp_path, monkeypatch,
                       ["train", *SMALL, "--set", item]) == 2
        name = item.split("=")[0].split(".")[1]
        assert f"{name} must be" in capsys.readouterr().err

    def test_bad_env_value_is_cli_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SHARDS", "-3")
        assert run_cli(tmp_path, monkeypatch, ["train", *SMALL]) == 2
        assert "REPRO_SHARDS" in capsys.readouterr().err


class TestSubprocessLifecycle:
    def test_full_lifecycle_via_module(self, tmp_path):
        """The CI smoke, in miniature: every stage through a real
        interpreter against a committed-style repro.toml."""
        (tmp_path / "repro.toml").write_text(
            '[dataset]\nn_train = 160\nn_test = 48\n\n'
            '[kernel]\nh = 1.5\nlam = 2.0\n\n'
            '[tuning]\nstrategy = "random"\nbudget = 3\n\n'
            '[obs]\ndump_path = "metrics.json"\n')
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_SHARDS", None)

        def repro(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                cwd=str(tmp_path), env=env, capture_output=True,
                text=True, timeout=240)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            return proc

        repro("train", "-q")
        repro("tune", "-q")
        repro("refit", "--new-lam", "4.0", "-q")
        repro("serve", "--check", "--check-n", "8", "-q")
        repro("inspect", "metrics", "-q")

        for command in ("train", "tune", "refit", "serve",
                        "inspect_metrics"):
            doc = json.loads(
                (tmp_path / f"repro_{command}.json").read_text())
            assert doc["status"] == "ok", command

        # The refit-λ prediction must match the in-Python reference.
        data = load_dataset("gas", n_train=160, n_test=48, seed=0)
        from repro.krr import KernelRidgeClassifier
        reference = KernelRidgeClassifier(
            h=1.5, lam=4.0, solver="hss", clustering="two_means",
            seed=0).fit(data.X_train, data.y_train)
        served = ModelStore(str(tmp_path / "models")).load("model")
        assert served.lam == 4.0
        np.testing.assert_array_equal(served.predict(data.X_test),
                                      reference.predict(data.X_test))
