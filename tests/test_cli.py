import argparse
import ast
import csv
import dataclasses
import importlib
import itertools
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sd2 import cli
from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2 import training as tr
from sd2.losses import LossWeights
from sd2.model import ArchConfig, checkpoint_load, checkpoint_save


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


# the classes whose fields a config file or a dataset spec sets
CONFIG_CLASSES = (tr.TrainConfig, ArchConfig, LossWeights, tr.OptimizerConfig,
                  *(cls for cls, _ in dg.DATASET_KINDS.values()))

SMALL_TRAIN = {
    "mode": "binary",
    "arch": {"rep_dim": 4, "enc_hidden": 8, "head_hidden": 4},
    "train": {"batch_size": 64, "max_epochs": 2, "patience": 2, "seed": 5},
    "dataset": {"kind": "synthetic_binary", "n": 200, "mz": 2, "mc": 2,
                "ma": 1, "mu": 1},
}


@pytest.fixture()
def syn_spec_file(tmp_path):
    return write_json(tmp_path / "spec.json",
                      {"kind": "synthetic_binary", "mv": 0, "mz": 4, "mc": 4,
                       "ma": 2, "mu": 2, "n": 150, "seed": 3})


class TestGenerate:
    def test_synthetic_layout(self, tmp_path, syn_spec_file, capsys):
        out = tmp_path / "data"
        rc = cli.main(["generate", "--spec", syn_spec_file, "--out", str(out)])
        assert rc == 0
        with open(out / "data.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == [f"x{i}" for i in range(10)] + ["t", "y"]
        assert (out / "manifest.json").exists()
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("METRIC ")

    def test_demand_truth_columns(self, tmp_path):
        spec = write_json(tmp_path / "spec.json",
                          {"kind": "demand", "alpha": 0.0, "beta": 1.0, "n": 80, "seed": 2})
        out = tmp_path / "d"
        assert cli.main(["generate", "--spec", spec, "--out", str(out)]) == 0
        with open(out / "truth.csv") as fh:
            assert fh.readline().strip() == "sum_a,sum_c"

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json",
                          {"kind": "synthetic_binary", "mz": -3})
        rc = cli.main(["generate", "--spec", spec, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "mz must be at least 0, got -3" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"kind": "nope"})
        assert cli.main(["generate", "--spec", spec, "--out", str(tmp_path / "x")]) == 2

    def test_triple_layout(self, tmp_path, syn_spec_file):
        out = tmp_path / "triple"
        assert cli.main(["generate", "--spec", syn_spec_file, "--out", str(out),
                         "--triple"]) == 0
        for name in ("train", "val", "test"):
            assert (out / name / "data.csv").exists()

    def test_twins_rows_metric(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {
            "kind": "twins", "csv_path": str(dg.fixture_path()),
            "m_columns": list(dg.FIXTURE_M_COLUMNS)})
        out = tmp_path / "twins"
        assert cli.main(["generate", "--spec", spec, "--out", str(out)]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == f"METRIC rows={dg.read_dataset(out).n:.6f}"

    def test_out_root_gives_each_run_a_new_directory(self, tmp_path, monkeypatch,
                                                     syn_spec_file):
        # two runs started in the same second do not share a directory
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "runs"))
        monkeypatch.setattr(cli.time, "time", lambda: 1792420515.0)
        demand = write_json(tmp_path / "demand.json", {"kind": "demand", "n": 40, "seed": 2})
        assert cli.main(["generate", "--spec", syn_spec_file, "--triple"]) == 0
        assert cli.main(["generate", "--spec", demand]) == 0
        runs = sorted((tmp_path / "runs").iterdir())
        assert [run.name for run in runs] == ["generate-1792420515", "generate-1792420515-1"]
        for run in runs:
            artifacts = json.loads((run / "manifest.json").read_text())["artifacts"]
            assert sorted(artifacts) == sorted(str(path) for path in run.rglob("*")
                                               if path.is_file() and path.name != "manifest.json")

    def test_no_out_without_out_root_exits_2(self, tmp_path, monkeypatch, capsys,
                                            syn_spec_file):
        # with nowhere to put it, no run directory, and so no manifest, is made
        monkeypatch.delenv(cli.OUT_ROOT_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["generate", "--spec", syn_spec_file]) == 2
        assert capsys.readouterr().err == "error: no --out given and SD2_OUT_ROOT is not set\n"
        assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]

    def test_idempotent(self, tmp_path, syn_spec_file):
        out = tmp_path / "data"
        cli.main(["generate", "--spec", syn_spec_file, "--out", str(out)])
        first = (out / "data.csv").read_bytes()
        cli.main(["generate", "--spec", syn_spec_file, "--out", str(out)])
        assert (out / "data.csv").read_bytes() == first


class TestTrain:
    def test_smoke_and_checkpoint_loadable(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", config, "--out", str(out)])
        assert rc == 0
        model = checkpoint_load(out / "checkpoint.bin")
        assert model.config.mode == "binary"
        assert (out / "history.csv").exists()
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["schema_version"] == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("METRIC selected_epoch=")

    def test_variant_recorded_in_manifest(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", config, "--out", str(out),
                       "--variant", "Lp"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        weights = manifest["config"]["weights"]
        assert (weights["alpha"], weights["beta"], weights["gamma"]) == (0, 0, 0)
        assert manifest["config"]["train"]["variant"] == "Lp"

    def test_missing_data_dir_exit_3(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        rc = cli.main(["train", "--config", config, "--data",
                       str(tmp_path / "absent"), "--out", str(tmp_path / "run")])
        assert rc == 3

    @pytest.mark.parametrize("data", ["reference", "dir", "triple"])
    def test_written_config_trains_again(self, tmp_path, monkeypatch, data):
        # config.json names the data the run used: --data as a dir reference
        # with an absolute path; it holds no value that is not settable
        argv = ["train", "--config", write_json(tmp_path / "cfg.json", SMALL_TRAIN)]
        if data != "reference":
            spec = dg.SyntheticSpec(n=150, mz=2, mc=2, ma=1, mu=1, seed=4)
            if data == "dir":
                dg.write_dataset(dg.generate(spec), tmp_path / "data")
            else:
                for name, ds in zip(dg.SPLITS, dg.independent_triple(spec)):
                    dg.write_dataset(ds, tmp_path / "data" / name)
            monkeypatch.chdir(tmp_path)
            argv += ["--data", "data"]
        first = tmp_path / "run"
        assert cli.main([*argv, "--out", str(first)]) == 0
        written = json.loads((first / "config.json").read_text())
        assert set(written["arch"]) == {"rep_dim", "enc_hidden", "enc_layers", "head_hidden"}
        assert written["optimizer"] == {"lr": 0.001}
        if data != "reference":
            assert json.loads((first / "config.json").read_text())["dataset"] == {
                "kind": "dir", "path": str(tmp_path.resolve() / "data")}
            monkeypatch.chdir(first)
        again = tmp_path / "again"
        assert cli.main(["train", "--config", str(first / "config.json"),
                         "--out", str(again)]) == 0
        for artifact in ("config.json", "checkpoint.bin", "history.csv"):
            assert (again / artifact).read_bytes() == (first / artifact).read_bytes()

    def test_unknown_config_field_exit_2(self, tmp_path):
        bad = dict(SMALL_TRAIN)
        bad["optimiser"] = {}
        config = write_json(tmp_path / "cfg.json", bad)
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "run")]) == 2

    def test_train_on_data_dir(self, tmp_path):
        ds = dg.gen_binary(dg.SyntheticSpec(n=150, mz=2, mc=2, ma=1, mu=1, seed=4))
        dg.write_dataset(ds, tmp_path / "data")
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        rc = cli.main(["train", "--config", config, "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "run")])
        assert rc == 0


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    config = write_json(base / "cfg.json", SMALL_TRAIN)
    out = base / "run"
    assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
    data = base / "data"
    spec = write_json(base / "spec.json",
                      {"kind": "synthetic_binary", "mz": 2, "mc": 2, "ma": 1,
                       "mu": 1, "n": 120, "seed": 9})
    assert cli.main(["generate", "--spec", str(spec), "--out", str(data),
                     "--triple"]) == 0
    return out, data


class TestEvaluate:
    def test_splits_rows(self, trained_run, tmp_path, capsys):
        run, data = trained_run
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                       "--data", str(data), "--out", str(out)])
        assert rc == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["within", "out"]
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("METRIC eps_ate=")

    def test_mode_mismatch_exit_2(self, trained_run, tmp_path):
        run, _ = trained_run
        demand = tmp_path / "demand"
        spec = write_json(tmp_path / "dspec.json",
                          {"kind": "demand", "n": 60, "seed": 1})
        cli.main(["generate", "--spec", str(spec), "--out", str(demand)])
        rc = cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                       "--data", str(demand), "--out", str(tmp_path / "e")])
        assert rc == 2

    def test_single_dataset_reports_one_row(self, trained_run, tmp_path, capsys):
        run, data = trained_run
        out = tmp_path / "eval"
        assert cli.main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(data / "test"), "--out", str(out)]) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["all"]
        model = checkpoint_load(run / "checkpoint.bin")
        expected = ev.eps_ate(model, dg.read_dataset(data / "test"))
        assert float(rows[0]["value"]) == expected
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == f"METRIC eps_ate={expected:.6f}"


class TestAttribute:
    def test_report(self, trained_run, tmp_path):
        run, data = trained_run
        out = tmp_path / "attr"
        rc = cli.main(["attribute", "--checkpoint", str(run / "checkpoint.bin"),
                       "--data", str(data), "--out", str(out)])
        assert rc == 0
        with open(out / "attribution.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["factor"] for r in rows] == ["z", "c", "a"]

    def test_dead_encoder_scores_nan(self, trained_run, tmp_path, capsys):
        run, data = trained_run
        model = checkpoint_load(run / "checkpoint.bin")
        model.params["enc_a.l0.W"][:] = 0.0
        checkpoint_save(model, tmp_path / "dead.bin")
        assert cli.main(["attribute", "--checkpoint", str(tmp_path / "dead.bin"),
                         "--data", str(data), "--out", str(tmp_path / "attr")]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "METRIC min_ratio=nan"


def test_verify_is_not_a_command():
    # the information identities are a test oracle (tests/infotheory.py)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


class TestReplicateAblateSweep:
    def test_replicate_report(self, tmp_path, capsys):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "rep"
        rc = cli.main(["replicate", "--config", config, "--out", str(out),
                       "--reps", "2"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["replications"] == 2
        assert "within" in report["summary"] and "out" in report["summary"]
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith(
            "METRIC eps_ate_mean=")

    @pytest.mark.parametrize("command", [
        ["replicate"],
        ["ablate", "--variants", "Lp,Total"],
        ["sweep", "--param", "gamma", "--grid", "0,1"],
    ], ids=["replicate", "ablate", "sweep"])
    @pytest.mark.parametrize("dataset", [SMALL_TRAIN["dataset"], {"kind": "dir"}],
                             ids=["ok", "failing"])
    def test_jobs_do_not_change_rows(self, tmp_path, dataset, command):
        if dataset["kind"] == "dir":  # every replication fails on the missing directory
            dataset = {**dataset, "path": str(tmp_path / "absent")}
        config = write_json(tmp_path / "cfg.json", {**SMALL_TRAIN, "dataset": dataset})
        written = []
        # a command none of whose replications scored fails after writing its report
        code = 4 if dataset["kind"] == "dir" else 0
        for jobs in ("1", "2"):
            out = tmp_path / f"run{jobs}"
            assert cli.main([command[0], "--config", config, *command[1:], "--out", str(out),
                             "--reps", "2", "--jobs", jobs]) == code
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "manifest.json"})
        assert len(written[0]) >= 1
        assert written[0] == written[1]

    def test_ablate_table(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "abl"
        rc = cli.main(["ablate", "--config", config, "--out", str(out),
                       "--reps", "2", "--variants", "Lp,Total"])
        assert rc == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["Lp", "Total"]
        assert [r["failed"] for r in rows] == ["0", "0"]
        # each variant keeps its replications' rows next to its summary
        report = json.loads((out / "ablation.json").read_text())
        for variant in ("Lp", "Total"):
            summary_rows = report[variant]["rows"]
            assert [r["replication"] for r in summary_rows] == [0, 1]
            mean, _, _ = ev.aggregate([r["out"] for r in summary_rows])
            assert report[variant]["out"]["mean"] == mean

    @pytest.mark.parametrize("command, table", [
        (["ablate", "--variants", "Lp,Total"], "ablation.csv"),
        (["sweep", "--param", "gamma", "--grid", "0,1"], "sweep.csv"),
    ], ids=["ablate", "sweep"])
    def test_grid_tables_count_failed_replications(self, tmp_path, command, table):
        config = _config(tmp_path, dataset={"kind": "dir", "path": str(tmp_path / "absent")})
        out = tmp_path / "grid"
        # no replication scored, so the command fails, after writing its table
        assert cli.main([command[0], "--config", config, *command[1:], "--out", str(out),
                         "--reps", "2"]) == 4
        with open(out / table) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["failed"] == "2" for r in rows)

    def test_sweep_rows(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", config, "--param", "gamma",
                       "--grid", "0,0.5,1,2", "--out", str(out), "--reps", "1"])
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == [0.0, 0.5, 1.0, 2.0]

    def test_sweep_param_no_term_of_the_mode_reads(self, tmp_path, capsys):
        # the binary objective has no rebalance term, so omega_cont scales nothing
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        assert cli.main(["sweep", "--config", config, "--param", "omega_cont", "--grid", "1",
                         "--out", str(tmp_path / "s")]) == 2
        assert "--param omega_cont: no term of the binary objective" in capsys.readouterr().err

    def test_sweep_bad_param_exit_2(self, tmp_path):
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        rc = cli.main(["sweep", "--config", config, "--param", "lr",
                       "--grid", "1", "--out", str(tmp_path / "s")])
        assert rc == 2


    def test_mixed_failed_and_ok_rows(self, tmp_path, monkeypatch):
        resolve = tr.resolve_data

        def fail_first(config, seed):
            if seed == cli.rng.mix_key_int(1, 0):
                raise ValueError("first replication fails")
            return resolve(config, seed)

        monkeypatch.setattr(tr, "resolve_data", fail_first)
        config = write_json(tmp_path / "cfg.json", SMALL_TRAIN)
        out = tmp_path / "rep"
        assert cli.main(["replicate", "--config", config, "--out", str(out),
                         "--reps", "2", "--seed", "1"]) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == "first replication fails" and rows[0]["out"] == ""
        assert rows[1]["error"] == "" and float(rows[1]["out"]) >= 0


def _config(tmp_path, **changes):
    return write_json(tmp_path / "cfg.json", {**SMALL_TRAIN, **changes})


def _train_with_lr(lr):
    return lambda tmp, run, data: ["train", "--config", _config(tmp, optimizer={"lr": lr})]


def _bad_reference(**changes):
    dataset = {**SMALL_TRAIN["dataset"], **changes}
    return lambda tmp, run, data: ["train", "--config", _config(tmp, dataset=dataset)]


def _all_treated(split):
    """`sd2 train` on a copy of the trained run's triple whose `split` holds
    treated rows only."""
    def make_argv(tmp, run, data):
        for name in dg.SPLITS:
            ds = dg.read_dataset(data / name)
            if name == split:
                ds.t[:] = 1.0
            dg.write_dataset(ds, tmp / "all_treated" / name)
        return ["train", "--config", _config(tmp), "--data", str(tmp / "all_treated")]
    return make_argv


def _dataset_dir(tmp, edit=None, ref=None) -> str:
    """A 200-row dataset directory, SMALL_TRAIN's reference unless `ref` is
    given, with `edit` applied to it."""
    path = dg.write_dataset(dg.generate(dg.spec_from_ref(
        ref or {**SMALL_TRAIN["dataset"], "seed": 3})), tmp / "dataset")
    if edit:
        edit(path)
    return str(path)


def _edit_lines(name, change):
    """An edit that replaces the lines of a dataset file by change(lines)."""
    def edit(path):
        lines = (path / name).read_text().splitlines(keepends=True)
        (path / name).write_text("".join(change(lines)))
    return edit


def _set_cell(column, row, value):
    """An edit that writes `value` into data.csv's `column` at data row `row`."""
    def change(lines):
        cells = lines[row + 1].rstrip("\r\n").split(",")
        cells[lines[0].rstrip("\r\n").split(",").index(column)] = value
        return [*lines[:row + 1], ",".join(cells) + "\r\n", *lines[row + 2:]]
    return _edit_lines("data.csv", change)


def _write_file(name, text):
    return lambda path: (path / name).write_text(text)


def _train_on(edit):
    return lambda tmp, run, data: ["train", "--config", _config(tmp), "--data",
                                   _dataset_dir(tmp, edit)]


def _drop_covariates(path):
    """A dataset directory edited to hold no covariate column."""
    _edit_lines("data.csv", lambda ls: [",".join(line.rstrip("\r\n").split(",")[-2:]) + "\r\n"
                                        for line in ls])(path)
    _edit_lines("roles.csv", lambda ls: ls[:1])(path)


def _grid_command(command, dataset):
    """replicate, ablate or sweep over a config with the given dataset reference."""
    extra = {"replicate": [], "ablate": [], "sweep": ["--param", "gamma", "--grid", "0,1"]}
    return lambda tmp, run, data: [command, "--config", _config(tmp, dataset=dataset),
                                   "--reps", "2", *extra[command]]


def _twins_spec(command, **changes):
    """`sd2 generate` of the fixture's twins spec, or `sd2 train`, replicate,
    ablate or sweep on it, with spec fields changed."""
    ref = {"kind": "twins", "csv_path": str(dg.fixture_path()),
           "m_columns": list(dg.FIXTURE_M_COLUMNS), **changes}
    if command == "generate":
        return lambda tmp, run, data: ["generate", "--spec", write_json(tmp / "spec.json", ref)]
    if command == "train":
        return lambda tmp, run, data: ["train", "--config", _config(tmp, dataset=ref)]
    return _grid_command(command, ref)


def _twins_over_the_weight_cap(command):
    """`_twins_spec` on a copy of the fixture CSV whose every first twin
    weighs more than the cap, so no row survives the filter."""
    def make_argv(tmp, run, data):
        columns = dg.read_csv(dg.fixture_path())
        columns[dg.TWINS_WEIGHT_COLUMNS[0]] = ["5000"] * len(columns[dg.TWINS_WEIGHT_COLUMNS[0]])
        path = dg.write_csv(tmp / "heavy.csv", list(columns), zip(*columns.values()))
        return _twins_spec(command, csv_path=str(path))(tmp, run, data)
    return make_argv


def _evaluate_demand(edit):
    """`sd2 evaluate` of a freshly trained demand checkpoint on an edited demand
    directory."""
    def make_argv(tmp, run, data):
        ref = {"kind": "demand", "n": 200, "seed": 3}
        ckpt_run = tmp / "demand-run"
        assert cli.main(["train", "--config", _config(tmp, mode="continuous", dataset=ref),
                         "--out", str(ckpt_run)]) == 0
        return ["evaluate", "--checkpoint", str(ckpt_run / "checkpoint.bin"),
                "--data", _dataset_dir(tmp, edit, ref)]
    return make_argv


def _nonfinite_parameter(command, name, value=np.nan):
    """`sd2 <command>` of the trained checkpoint with one float of parameter
    `name` overwritten by `value`, a NaN unless given."""
    def make_argv(tmp, run, data):
        model = checkpoint_load(run / "checkpoint.bin")
        model.params[name][0] = value
        checkpoint_save(model, tmp / "nonfinite.bin")
        return [command, "--checkpoint", str(tmp / "nonfinite.bin"), "--data", str(data)]
    return make_argv


def _section(section, **changes):
    """`sd2 train` of SMALL_TRAIN with fields of one config section changed."""
    return lambda tmp, run, data: ["train", "--config", _config(
        tmp, **{section: {**SMALL_TRAIN.get(section, {}), **changes}})]


def _edited_checkpoint(edit):
    """`sd2 evaluate` of the trained checkpoint with its manifest edited by
    edit(manifest)."""
    def make_argv(tmp, run, data):
        manifest, payload = (run / "checkpoint.bin").read_bytes().split(b"\n", 1)
        record = json.loads(manifest)
        edit(record)
        (tmp / "edited.bin").write_bytes(json.dumps(record).encode() + b"\n" + payload)
        return ["evaluate", "--checkpoint", str(tmp / "edited.bin"), "--data", str(data)]
    return make_argv


def _checkpoint_manifest_line(line: bytes):
    """`sd2 evaluate` of the trained checkpoint with its manifest line replaced
    by the bytes `line`."""
    def make_argv(tmp, run, data):
        payload = (run / "checkpoint.bin").read_bytes().split(b"\n", 1)[1]
        (tmp / "edited.bin").write_bytes(line + b"\n" + payload)
        return ["evaluate", "--checkpoint", str(tmp / "edited.bin"), "--data", str(data)]
    return make_argv


def _checkpoint_config(**changes):
    """`sd2 evaluate` of the trained checkpoint with fields of its manifest's
    config changed."""
    return _edited_checkpoint(lambda manifest: manifest["config"].update(changes))


def _generate(spec):
    return lambda tmp, run, data: ["generate", "--spec", write_json(tmp / "spec.json", spec)]


def _keep_rows(count):
    """An edit that keeps the first `count` rows of data.csv and truth.csv,
    and records that n in spec.json."""
    def edit(path):
        for name in ("data.csv", "truth.csv"):
            _edit_lines(name, lambda ls: ls[:count + 1])(path)
        _edit_lines("spec.json", lambda ls: [re.sub(r'"n": \d+', f'"n": {count}', line)
                                             for line in ls])(path)
    return edit


def _drop_truth(path):
    (path / "truth.csv").unlink()


def _header_only(path):
    _edit_lines("data.csv", lambda ls: ls[:1])(path)
    _drop_truth(path)


FAILURES = {
    "negative_dimension": (_bad_reference(mz=-1), 2),
    "unknown_kind": (_bad_reference(kind="mystery"), 2),
    "unknown_field": (_bad_reference(zz=1), 2),
    "no_dataset": (lambda tmp, run, data: ["train", "--config", _config(tmp, dataset=None)], 2),
    "train_mode_mismatch": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, mode="continuous"), "--data", str(data)], 2),
    "zero_reps": (lambda tmp, run, data: [
        "replicate", "--config", _config(tmp), "--reps", "0"], 2),
    "zero_jobs": (lambda tmp, run, data: [
        "replicate", "--config", _config(tmp), "--reps", "1", "--jobs", "0"], 2),
    "negative_jobs": (lambda tmp, run, data: [
        "ablate", "--config", _config(tmp), "--reps", "1", "--jobs", "-2"], 2),
    # a run that can never take an optimizer step is rejected with its config
    "negative_max_epochs": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"], "max_epochs": -1,
                                                  "patience": -5})], 2),
    "zero_max_epochs": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"], "max_epochs": 0})], 2),
    "zero_patience": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"], "patience": 0})], 2),
    "config_not_an_object": (lambda tmp, run, data: [
        "train", "--config", write_json(tmp / "cfg.json", [SMALL_TRAIN])], 2),
    "spec_not_an_object": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", "demand")], 2),
    "string_schema_version": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, schema_version="1")], 2),
    "section_not_an_object": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, arch=5)], 2),
    # the config's own mode, and a section's keys: no unknown field, none set elsewhere
    "mode_integer": (lambda tmp, run, data: ["train", "--config", _config(tmp, mode=5)], 2),
    "mode_unknown": (lambda tmp, run, data: ["train", "--config", _config(tmp, mode="foo")], 2),
    "weights_unknown_field": (_section("weights", zeta=1.0), 2),
    "train_section_mode": (_section("train", mode="binary"), 2),
    "train_section_arch": (_section("train", arch={}), 2),
    "dataset_not_an_object": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, dataset=5)], 2),
    "bad_split_ratios": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"],
                                                  "split_ratios": [0.5, 0.5, 0.5]}),
        "--data", str(data)], 2),
    "split_ratios_not_a_list": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"], "split_ratios": 5})],
        2),
    "sweep_unknown_param": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "zzz", "--grid", "1"], 2),
    "weights_not_finite": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, weights={"delta": float("inf")})], 2),
    # Adam's step size is a finite nonnegative number, and a bool is not one
    "lr_nan": (_train_with_lr(float("nan")), 2),
    "lr_inf": (_train_with_lr(float("inf")), 2),
    "lr_string": (_train_with_lr("0.001"), 2),
    "lr_bool": (_train_with_lr(True), 2),
    "lr_negative": (_train_with_lr(-1.0), 2),
    # every grid value is checked before the first is trained
    "sweep_negative_value": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "gamma", "--grid", "1,-1"], 2),
    "sweep_nan_value": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "gamma", "--grid", "nan"], 2),
    "sweep_grid_not_a_number": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "gamma", "--grid", "1,abc"], 2),
    "sweep_param_zeroed_by_variant": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp, weights={"alpha": 0, "beta": 0, "gamma": 0},
                                     train={**SMALL_TRAIN["train"], "variant": "Lp"}),
        "--param", "gamma", "--grid", "1"], 2),
    "evaluate_missing_checkpoint": (lambda tmp, run, data: [
        "evaluate", "--checkpoint", str(tmp / "absent.bin"), "--data", str(data)], 3),
    "attribute_missing_checkpoint": (lambda tmp, run, data: [
        "attribute", "--checkpoint", str(tmp / "absent.bin"), "--data", str(data)], 3),
    "zero_optimizer_steps": (_all_treated("train"), 4),
    "single_class_validation": (_all_treated("val"), 4),
    # a dataset reference that every replication would fail on fails the command
    "replicate_no_dataset": (_grid_command("replicate", None), 2),
    "ablate_no_dataset": (_grid_command("ablate", None), 2),
    "sweep_no_dataset": (_grid_command("sweep", None), 2),
    "replicate_unknown_kind": (_grid_command("replicate", {"kind": "mystery"}), 2),
    "ablate_dir_extra_field": (_grid_command("ablate", {"kind": "dir", "path": "d", "zz": 1}),
                               2),
    # a dir reference's path is a string, and a dir is read, not generated
    "train_dir_path_zero": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, dataset={"kind": "dir", "path": 0})], 2),
    "train_dir_path_list": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, dataset={"kind": "dir", "path": ["d"]})], 2),
    "train_dir_no_path": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, dataset={"kind": "dir"})], 2),
    "replicate_dir_path_null": (_grid_command("replicate", {"kind": "dir", "path": None}), 2),
    "generate_dir": (_generate({"kind": "dir", "path": "d"}), 2),
    "generate_empty_spec": (_generate({}), 2),
    "generate_list_kind": (_generate({"kind": ["demand"]}), 2),
    "twins_no_m_columns": (_generate({"kind": "twins", "csv_path": "t.csv"}), 2),
    # only a twins record carries the columns its transform chose
    "demand_x_columns": (_generate({"kind": "demand", "n": 50, "x_columns": ["x0"]}), 2),
    # a spec whose rows would not fit in memory is rejected before any is drawn
    "binary_huge_n": (_generate({"kind": "synthetic_binary", "n": 10 ** 14}), 2),
    "train_huge_n": (_bad_reference(n=10 ** 14), 2),
    "replicate_huge_n": (_grid_command("replicate", {**SMALL_TRAIN["dataset"], "n": 10 ** 14}),
                         2),
    # a demand coefficient so large that the outcome overflows is named
    "demand_huge_alpha": (_generate({"kind": "demand", "alpha": 1e308, "n": 100}), 2),
    "demand_huge_beta": (_generate({"kind": "demand", "beta": 1e308, "n": 100}), 2),
    "sweep_negative_dimension": (_grid_command(
        "sweep", {**SMALL_TRAIN["dataset"], "mz": -1}), 2),
    # a dataset needs a covariate column, and a demand spec finite coefficients
    "demand_no_covariates": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "demand", "mz": 0, "mc": 0, "ma": 0})], 2),
    "binary_no_outcome_factor": (_generate({**SMALL_TRAIN["dataset"], "mz": 3, "mc": 0,
                                            "ma": 0, "mu": 0}), 2),
    "generate_twins_triple": (lambda tmp, run, data: [
        *_twins_spec("generate")(tmp, run, data), "--triple"], 2),
    "demand_nan_alpha": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "demand", "alpha": float("nan")})], 2),
    "demand_inf_beta": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "demand", "beta": float("inf")})], 2),
    "data_no_covariates": (_train_on(_drop_covariates), 2),
    # a spec's integer fields hold integers, and a bool is not one
    "binary_float_n": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "synthetic_binary", "n": 50.5})], 2),
    "demand_float_mz": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "demand", "mz": 1.5, "n": 100})], 2),
    "binary_float_seed": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", {
            "kind": "synthetic_binary", "n": 50, "seed": 2.5})], 2),
    "binary_bool_n": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json",
                                         {"kind": "synthetic_binary", "n": True})], 2),
    "twins_float_hide_count": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", {
            "kind": "twins", "csv_path": str(dg.fixture_path()),
            "m_columns": list(dg.FIXTURE_M_COLUMNS), "hide_count": 4.0})], 2),
    # a number field holds a finite nonnegative number: not a bool, not a string,
    # and not an integer too large for a float; a string field holds a string
    "weights_bool_alpha": (_section("weights", alpha=True), 2),
    "weights_string_beta": (_section("weights", beta="0.5"), 2),
    "weights_huge_integer_alpha": (_section("weights", alpha=10 ** 400), 2),
    "demand_bool_alpha": (lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", {"kind": "demand", "alpha": True})],
        2),
    "twins_string_m_columns": (_twins_spec("generate", m_columns="gestat"), 2),
    # file descriptor 0 would open stdin, which the test fills with the twins CSV
    "twins_csv_path_zero": (_twins_spec("generate", csv_path=0), 2),
    # a config's and a checkpoint's integer fields hold integers, and a bool is not one
    "arch_float_rep_dim": (_section("arch", rep_dim=4.5), 2),
    "arch_float_enc_hidden": (_section("arch", enc_hidden=8.0), 2),
    "arch_bool_enc_layers": (_section("arch", enc_layers=True), 2),
    "arch_float_head_hidden": (_section("arch", head_hidden=4.5), 2),
    "train_float_batch_size": (_section("train", batch_size=64.5), 2),
    "train_float_max_epochs": (_section("train", max_epochs=2.5), 2),
    "train_bool_patience": (_section("train", patience=True), 2),
    "train_float_seed": (_section("train", seed=5.5), 2),
    "checkpoint_float_input_dim": (_checkpoint_config(input_dim=5.0), 2),
    "checkpoint_float_rep_dim": (_checkpoint_config(rep_dim=4.0), 2),
    "checkpoint_float_enc_hidden": (_checkpoint_config(enc_hidden=8.0), 2),
    "checkpoint_float_enc_layers": (_checkpoint_config(enc_layers=1.0), 2),
    "checkpoint_bool_enc_layers": (_checkpoint_config(enc_layers=True), 2),
    "checkpoint_float_head_hidden": (_checkpoint_config(head_hidden=4.0), 2),
    "checkpoint_config_no_input_dim": (_edited_checkpoint(
        lambda manifest: manifest["config"].pop("input_dim")), 2),
    "checkpoint_config_list": (_edited_checkpoint(
        lambda manifest: manifest.update(config=[1])), 2),
    # a checkpoint parameter holding a NaN or an infinity is rejected, read by the command or not
    "evaluate_nan_head_y": (_nonfinite_parameter("evaluate", "head_y.l1.b"), 2),
    "evaluate_nan_head_y_c": (_nonfinite_parameter("evaluate", "head_y_c.l1.b"), 2),
    "attribute_nan_head_y": (_nonfinite_parameter("attribute", "head_y.l1.b"), 2),
    "attribute_nan_head_y_c": (_nonfinite_parameter("attribute", "head_y_c.l1.b"), 2),
    "evaluate_inf_head_y": (_nonfinite_parameter("evaluate", "head_y.l1.b", -np.inf), 2),
    "ablate_empty_variants": (lambda tmp, run, data: [
        "ablate", "--config", _config(tmp), "--reps", "1", "--variants", ""], 2),
    "ablate_unknown_variant": (lambda tmp, run, data: [
        "ablate", "--config", _config(tmp), "--reps", "1", "--variants", "Lq"], 2),
    # --variant is checked by the config, as a config file's variant is
    "train_unknown_variant": (lambda tmp, run, data: [
        "train", "--config", _config(tmp), "--variant", "Lq"], 2),
    "replicate_empty_variant": (lambda tmp, run, data: [
        "replicate", "--config", _config(tmp), "--reps", "1", "--variant", ""], 2),
    "train_section_unknown_variant": (_section("train", variant="Lq"), 2),
    "zero_schema_version": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, schema_version=0)], 2),
    "negative_schema_version": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, schema_version=-5)], 2),
    # the variant alone selects the objective: no loss switches, no weighting switch
    "flags_section": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, flags={"mmd_kernel": "linear"})], 2),
    "use_importance_weights": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, train={**SMALL_TRAIN["train"],
                                                  "use_importance_weights": True})], 2),
    # the data's width sets input_dim, and the config's mode sets the arch's
    "arch_input_dim": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, arch={**SMALL_TRAIN["arch"], "input_dim": 50})], 2),
    "arch_mode_mismatch": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, arch={**SMALL_TRAIN["arch"], "mode": "continuous"})],
        2),
    "arch_mode": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, arch={**SMALL_TRAIN["arch"], "mode": "binary"})], 2),
    # hidden layers are always ELU, Adam's decays and epsilon are fixed, and the
    # twins columns and weight cap are constants
    "arch_activation": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, arch={**SMALL_TRAIN["arch"], "activation": "elu"})],
        2),
    "optimizer_beta1": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, optimizer={"lr": 0.001, "beta1": 0.9})], 2),
    # a twins spec's M columns are not outcomes and repeat none; its counts are >= 0
    "twins_outcome_m_column": (_twins_spec("generate", m_columns=["gestat", "mort_1"]), 2),
    "twins_repeated_m_column": (_twins_spec("train", m_columns=["gestat", "dmage", "gestat"],
                                            hide_count=1), 2),
    "twins_negative_hide_count": (_twins_spec("generate", hide_count=-1), 2),
    "twins_negative_mv": (_twins_spec("train", mv=-2), 2),
    # a twins spec's rows are known once its CSV is read, and v is checked before it is drawn
    "twins_huge_mv": (_twins_spec("generate", mv=10 ** 14), 2),
    "train_twins_huge_mv": (_twins_spec("train", mv=10 ** 14), 2),
    # replicate's check of the reference transforms a twins CSV once, before any replication
    "replicate_twins_huge_mv": (_twins_spec("replicate", mv=10 ** 14), 2),
    "twins_missing_column": (_twins_spec(
        "generate", m_columns=[*dg.FIXTURE_M_COLUMNS, "nosuchcol"]), 2),
    "replicate_twins_missing_column": (_twins_spec(
        "replicate", m_columns=[*dg.FIXTURE_M_COLUMNS, "nosuchcol"]), 2),
    "train_twins_no_row_survives": (_twins_over_the_weight_cap("train"), 2),
    "sweep_twins_no_row_survives": (_twins_over_the_weight_cap("sweep"), 2),
    "twins_weight_m_column": (_twins_spec("generate", m_columns=["gestat", "dbirwt_0"],
                                          hide_count=1), 2),
    "twins_sex_m_column": (_twins_spec("train", m_columns=["sex_1", "gestat"],
                                       hide_count=1), 2),
    "twins_weight_columns": (lambda tmp, run, data: [
        "train", "--config", _config(tmp, dataset={
            "kind": "twins", "csv_path": str(dg.fixture_path()),
            "m_columns": list(dg.FIXTURE_M_COLUMNS),
            "weight_columns": list(dg.TWINS_WEIGHT_COLUMNS)})], 2),
    "ablate_repeated_variant": (lambda tmp, run, data: [
        "ablate", "--config", _config(tmp), "--reps", "1", "--variants", "Lp,Total,Lp"], 2),
    # only the continuous objective reads the rebalance coefficient
    "sweep_omega_cont_binary": (lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "omega_cont", "--grid", "0,1"], 2),
    # dataset files are read and checked in full
    "spec_json_not_json": (_train_on(_write_file("spec.json", "{not json")), 2),
    "spec_json_list": (_train_on(_write_file("spec.json", "[1, 2]")), 2),
    "spec_json_list_mode": (_train_on(_edit_lines(
        "spec.json", lambda ls: [line.replace('"binary"', '["binary"]') for line in ls])), 2),
    "spec_json_object_mode": (_train_on(_edit_lines(
        "spec.json", lambda ls: [line.replace('"binary"', '{"binary": 1}') for line in ls])), 2),
    "roles_csv_empty": (_train_on(_write_file("roles.csv", "")), 2),
    "roles_csv_three_cells": (_train_on(_edit_lines(
        "roles.csv", lambda ls: [*ls[:2], ls[2].rstrip("\r\n") + ",z\r\n", *ls[3:]])), 2),
    "roles_csv_role_q": (_train_on(_edit_lines(
        "roles.csv", lambda ls: [*ls[:2], ls[2].replace(",z", ",q"), *ls[3:]])), 2),
    "roles_csv_extra_x99": (_train_on(_edit_lines("roles.csv", lambda ls: [*ls, "x99,a\r\n"])),
                            2),
    "roles_csv_repeated_x0": (_train_on(_edit_lines("roles.csv", lambda ls: [*ls, ls[1]])), 2),
    "binary_t_half": (_train_on(_set_cell("t", 4, "0.5")), 2),
    "binary_y_two": (_train_on(_set_cell("y", 0, "2")), 2),
    "binary_y_half": (_train_on(_set_cell("y", 4, "0.5")), 2),
    "covariate_nan": (_train_on(_set_cell("x1", 4, "nan")), 2),
    "covariate_not_a_number": (_train_on(_set_cell("x1", 4, "abc")), 2),
    "roles_csv_header": (_train_on(_edit_lines(
        "roles.csv", lambda ls: ["name,role\r\n", *ls[1:]])), 2),
    "data_csv_no_rows": (_train_on(_header_only), 2),
    "data_csv_cut": (_train_on(_edit_lines("data.csv", lambda ls: ls[:-40])), 2),
    "data_csv_column_foo": (_train_on(_edit_lines(
        "data.csv", lambda ls: [ls[0].replace(",x1,", ",foo,"), *ls[1:]])), 2),
    "data_csv_repeated_column": (_train_on(_edit_lines(
        "data.csv", lambda ls: [ls[0].replace(",x1,", ",x0,"), *ls[1:]])), 2),
    "truth_csv_cut": (_train_on(_edit_lines("truth.csv", lambda ls: ls[:-40])), 2),
    "roles_csv_missing": (_train_on(lambda path: (path / "roles.csv").unlink()), 3),
    "dataset_too_small_to_split": (_train_on(_keep_rows(4)), 2),
    "spec_json_no_beta": (_evaluate_demand(_edit_lines(
        "spec.json", lambda ls: [line for line in ls if '"beta"' not in line])), 2),
    "spec_json_string_beta": (_evaluate_demand(_edit_lines(
        "spec.json", lambda ls: [re.sub(r'"beta": [^,]*', '"beta": "x"', line)
                                 for line in ls])), 2),
    # the dataset must fit the checkpoint: its mode, its input width, and the
    # ground truth evaluate scores against or the factors attribute compares
    "evaluate_width_mismatch": (lambda tmp, run, data: [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={**SMALL_TRAIN["dataset"], "mz": 3})], 2),
    "attribute_width_mismatch": (lambda tmp, run, data: [
        "attribute", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={**SMALL_TRAIN["dataset"], "mz": 3})], 2),
    "evaluate_no_truth": (lambda tmp, run, data: [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, _drop_truth)], 2),
    "attribute_roles_lack_a_factor": (lambda tmp, run, data: [
        "attribute", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={**SMALL_TRAIN["dataset"], "mz": 3, "ma": 0})], 2),
    "attribute_roles_only_z": (lambda tmp, run, data: [
        "attribute", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={**SMALL_TRAIN["dataset"], "mz": 5, "mc": 0, "ma": 0})], 2),
    # demand data as wide as the binary checkpoint, so the mode alone is at fault
    "evaluate_mode_mismatch": (lambda tmp, run, data: [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={"kind": "demand", "n": 200, "mz": 1})], 2),
    "attribute_mode_mismatch": (lambda tmp, run, data: [
        "attribute", "--checkpoint", str(run / "checkpoint.bin"), "--data",
        _dataset_dir(tmp, ref={"kind": "demand", "n": 200, "mz": 1})], 2),
    # a checkpoint manifest is read in full, each field named (see MANIFEST_EDITS too)
    "checkpoint_unknown_field": (_edited_checkpoint(
        lambda manifest: manifest.update(sha256="0")), 2),
    "checkpoint_float_version": (_edited_checkpoint(
        lambda manifest: manifest.update(version=1.0)), 2),
    "checkpoint_params_differ": (_edited_checkpoint(
        lambda manifest: manifest["params"][1].update(shape=[2, 2])), 2),
    "checkpoint_manifest_not_json": (_checkpoint_manifest_line(b"{not json"), 2),
    "checkpoint_manifest_not_utf8": (_checkpoint_manifest_line(b'{"format": "\xff"}'), 2),
}

# cases whose error must name the field at fault
FAILURE_FIELDS = {
    "negative_max_epochs": "config section 'train': max_epochs must be at least 1, got -1",
    "zero_max_epochs": "config section 'train': max_epochs must be at least 1, got 0",
    "zero_patience": "config section 'train': patience must be at least 1, got 0",
    "zero_schema_version": "schema_version",
    "negative_schema_version": "schema_version",
    "flags_section": "'flags'",
    "use_importance_weights": "use_importance_weights",
    "arch_input_dim": "input_dim",
    "arch_mode_mismatch": "mode",
    "arch_mode": "config section 'arch': mode is set elsewhere, so it may not be set here",
    "arch_activation": "activation",
    "optimizer_beta1": "beta1",
    "twins_weight_columns": "weight_columns",
    "ablate_repeated_variant": "'Lp' is named more than once",
    "replicate_no_dataset": "no dataset reference: a spec, or a config's 'dataset', needs a 'kind'",
    "ablate_no_dataset": "no dataset reference: a spec, or a config's 'dataset', needs a 'kind'",
    "sweep_no_dataset": "no dataset reference: a spec, or a config's 'dataset', needs a 'kind'",
    "generate_empty_spec": "no dataset reference: a spec, or a config's 'dataset', needs a 'kind'",
    "unknown_kind": "kind must be one of synthetic_binary, demand, twins, dir, got 'mystery'",
    "sweep_unknown_param": "--param must be one of alpha, beta, gamma, delta, omega_cont, "
                           "got 'zzz'",
    "replicate_unknown_kind": "kind must be one of synthetic_binary, demand, twins, dir, "
                              "got 'mystery'",
    "ablate_dir_extra_field": "dataset 'dir': unknown field 'zz'",
    "train_dir_path_zero": "dataset 'dir': path must be a string, got 0",
    "train_dir_path_list": "dataset 'dir': path must be a string, got ['d']",
    "train_dir_no_path": "dataset 'dir': missing field 'path'",
    "replicate_dir_path_null": "dataset 'dir': path must be a string, got None",
    "generate_dir": "dataset kind 'dir' is read, not generated",
    "generate_list_kind": "kind must be one of synthetic_binary, demand, twins, dir, "
                          "got ['demand']",
    "twins_no_m_columns": "dataset 'twins': missing field 'm_columns'",
    "demand_x_columns": "dataset 'demand': unknown field 'x_columns'",
    "binary_huge_n": "dataset 'synthetic_binary': n = 100000000000000 is too large",
    "train_huge_n": "dataset 'synthetic_binary': n = 100000000000000 is too large",
    "replicate_huge_n": "dataset 'synthetic_binary': n = 100000000000000 is too large",
    "demand_huge_alpha": "alpha = 1e+308 is too large: the outcome y overflows",
    "demand_huge_beta": "beta = 1e+308 is too large: the outcome y overflows",
    "section_not_an_object": "config section 'arch' must be a JSON object, got int",
    "mode_integer": "mode must be one of binary, continuous, got 5",
    "mode_unknown": "mode must be one of binary, continuous, got 'foo'",
    "weights_unknown_field": "config section 'weights': unknown field 'zeta'",
    "train_section_mode": "config section 'train': mode is set elsewhere",
    "train_section_arch": "config section 'train': arch is set elsewhere",
    "checkpoint_config_no_input_dim": "checkpoint manifest field 'config': missing field "
                                      "'input_dim'",
    "checkpoint_config_list": "checkpoint manifest field 'config' must be a JSON object, "
                              "got list",
    "sweep_negative_dimension": "mz must be at least 0, got -1",
    "demand_no_covariates": "mz + mc + ma must be at least 1",
    "binary_no_outcome_factor": "ma + mc + mu must be at least 1 (outcome scaling)",
    "generate_twins_triple": "--triple applies to synthetic and demand specs only",
    "demand_nan_alpha": "alpha must be a finite nonnegative number, got nan",
    "demand_inf_beta": "beta must be a finite nonnegative number, got inf",
    "data_no_covariates": "data.csv: a dataset needs at least one covariate column",
    "binary_float_n": "n must be an integer, got 50.5",
    "demand_float_mz": "mz must be an integer, got 1.5",
    "binary_float_seed": "seed must be an integer, got 2.5",
    "binary_bool_n": "n must be an integer, got True",
    "twins_float_hide_count": "hide_count must be an integer, got 4.0",
    "weights_bool_alpha": "config section 'weights': alpha must be a finite nonnegative "
                          "number, got True",
    "weights_string_beta": "config section 'weights': beta must be a finite nonnegative "
                           "number, got '0.5'",
    "weights_huge_integer_alpha": "config section 'weights': alpha must be a finite "
                                  f"nonnegative number, got {10 ** 400}",
    "demand_bool_alpha": "dataset 'demand': alpha must be a finite nonnegative number, "
                         "got True",
    "twins_string_m_columns": "dataset 'twins': m_columns must be a tuple of strings, "
                              "got 'gestat'",
    "twins_csv_path_zero": "dataset 'twins': csv_path must be a string, got 0",
    "twins_outcome_m_column": "m_columns names 'mort_1', a potential outcome",
    "twins_repeated_m_column": "m_columns names 'gestat' more than once",
    "twins_negative_hide_count": "hide_count must be at least 0, got -1",
    "twins_negative_mv": "mv must be at least 0, got -2",
    "twins_huge_mv": "mv = 100000000000000 is too large",
    "train_twins_huge_mv": "mv = 100000000000000 is too large",
    "replicate_twins_huge_mv": "mv = 100000000000000 is too large",
    "twins_missing_column": "designated column 'nosuchcol' missing from",
    "replicate_twins_missing_column": "designated column 'nosuchcol' missing from",
    "train_twins_no_row_survives": "no rows survive the filter criteria",
    "sweep_twins_no_row_survives": "no rows survive the filter criteria",
    "twins_weight_m_column": "m_columns names 'dbirwt_0', a birth weight",
    "twins_sex_m_column": "m_columns names 'sex_1', a sex column",
    "data_csv_cut": "data.csv: 160 rows, but spec.json records n 200",
    "dataset_too_small_to_split": "a dataset of 4 rows leaves the test share of the split empty",
    "arch_float_rep_dim": "config section 'arch': rep_dim must be an integer, got 4.5",
    "arch_float_enc_hidden": "config section 'arch': enc_hidden must be an integer, got 8.0",
    "arch_bool_enc_layers": "config section 'arch': enc_layers must be an integer, got True",
    "arch_float_head_hidden": "config section 'arch': head_hidden must be an integer, got 4.5",
    "train_float_batch_size": "config section 'train': batch_size must be an integer, got 64.5",
    "train_float_max_epochs": "config section 'train': max_epochs must be an integer, got 2.5",
    "train_bool_patience": "config section 'train': patience must be an integer, got True",
    "train_float_seed": "config section 'train': seed must be an integer, got 5.5",
    "checkpoint_float_input_dim": "checkpoint manifest field 'config': input_dim must be an "
                                  "integer, got 5.0",
    "checkpoint_float_rep_dim": "checkpoint manifest field 'config': rep_dim must be an "
                                "integer, got 4.0",
    "checkpoint_float_enc_hidden": "checkpoint manifest field 'config': enc_hidden must be an "
                                   "integer, got 8.0",
    "checkpoint_float_enc_layers": "checkpoint manifest field 'config': enc_layers must be an "
                                   "integer, got 1.0",
    "checkpoint_bool_enc_layers": "checkpoint manifest field 'config': enc_layers must be an "
                                  "integer, got True",
    "checkpoint_float_head_hidden": "checkpoint manifest field 'config': head_hidden must be an "
                                    "integer, got 4.0",
    "evaluate_nan_head_y": "checkpoint parameter 'head_y.l1.b' is not finite",
    "evaluate_nan_head_y_c": "checkpoint parameter 'head_y_c.l1.b' is not finite",
    "attribute_nan_head_y": "checkpoint parameter 'head_y.l1.b' is not finite",
    "attribute_nan_head_y_c": "checkpoint parameter 'head_y_c.l1.b' is not finite",
    "evaluate_inf_head_y": "checkpoint parameter 'head_y.l1.b' is not finite",
    "ablate_empty_variants": "variant must be one of Lp, Lp+Lt, Lp+Lt+La, Total, got ''",
    "ablate_unknown_variant": "variant must be one of Lp, Lp+Lt, Lp+Lt+La, Total, got 'Lq'",
    "train_unknown_variant": "variant must be one of Lp, Lp+Lt, Lp+Lt+La, Total, got 'Lq'",
    "replicate_empty_variant": "variant must be one of Lp, Lp+Lt, Lp+Lt+La, Total, got ''",
    "train_section_unknown_variant": "config section 'train': variant must be one of Lp, "
                                     "Lp+Lt, Lp+Lt+La, Total, got 'Lq'",
    "sweep_omega_cont_binary": "omega_cont",
    "bad_split_ratios": "split_ratios",
    "train_mode_mismatch": "dataset mode",
    "weights_not_finite": "config section 'weights': delta must be a finite nonnegative "
                          "number, got inf",
    "lr_nan": "config section 'optimizer': lr must be a finite nonnegative number, got nan",
    "lr_inf": "config section 'optimizer': lr must be a finite nonnegative number, got inf",
    "lr_string": "config section 'optimizer': lr must be a finite nonnegative number, "
                 "got '0.001'",
    "lr_bool": "config section 'optimizer': lr must be a finite nonnegative number, got True",
    "lr_negative": "config section 'optimizer': lr must be a finite nonnegative number, "
                   "got -1.0",
    "sweep_negative_value": "gamma must be a finite nonnegative number, got -1.0",
    "sweep_nan_value": "gamma must be a finite nonnegative number, got nan",
    "sweep_grid_not_a_number": "--grid: could not convert string to float: 'abc'",
    "single_class_validation": "no validation chunk of 120 rows could be scored",
    "sweep_param_zeroed_by_variant": "variant 'Lp'",
    "spec_json_not_json": "spec.json: invalid JSON",
    "spec_json_list": "spec.json: the top level must be a JSON object, got list",
    "roles_csv_empty": "roles.csv: empty CSV",
    "roles_csv_three_cells": "roles.csv: line 3 has 3 cells, the header has 2",
    "roles_csv_role_q": "roles.csv: roles must be one of z, c, a, got 'q'",
    "spec_json_list_mode": "spec.json: mode must be one of binary, continuous, got ['binary']",
    "spec_json_object_mode": "spec.json: mode must be one of binary, continuous, "
                             "got {'binary': 1}",
    "roles_csv_extra_x99": "roles.csv: line 7 lists 'x99'",
    "roles_csv_repeated_x0": "roles.csv: line 7 lists 'x0'",
    "binary_t_half": "data.csv: binary t must be 0 or 1, got 0.5 at row index 4",
    "binary_y_two": "data.csv: binary y must be 0 or 1, got 2.0 at row index 0",
    "binary_y_half": "data.csv: binary y must be 0 or 1, got 0.5 at row index 4",
    "covariate_nan": "data.csv: column 'x1' is not finite at line 6",
    "covariate_not_a_number": "data.csv: column 'x1' is not numeric: could not convert "
                              "string to float: 'abc'",
    "roles_csv_header": "roles.csv: header ['name', 'role'] is not ['column', 'role']",
    "data_csv_no_rows": "data.csv: a header and no rows",
    "data_csv_column_foo": "data.csv: column 'foo' is out of place",
    "data_csv_repeated_column": "data.csv: column 'x0' appears more than once",
    "truth_csv_cut": "truth.csv: p1 has 160 rows, t has 200",
    "roles_csv_missing": "roles.csv",
    "spec_json_no_beta": "spec.json: beta must be a finite number",
    "spec_json_string_beta": "spec.json: beta must be a finite number when the "
                             "counterfactual surface is present, got 'x'",
    "evaluate_width_mismatch": "binary data of 6 x and v columns, a binary checkpoint "
                               "of input_dim 5",
    "attribute_width_mismatch": "binary data of 6 x and v columns, a binary checkpoint "
                                "of input_dim 5",
    "evaluate_no_truth": "truth.csv not found",
    "attribute_roles_lack_a_factor": "roles.csv: roles must contain some and not all 'a'",
    "attribute_roles_only_z": "roles.csv: roles must contain some and not all 'z'",
    "evaluate_mode_mismatch": "continuous data of 5 x and v columns, a binary checkpoint "
                              "of input_dim 5",
    "attribute_mode_mismatch": "continuous data of 5 x and v columns, a binary checkpoint "
                               "of input_dim 5",
    "checkpoint_unknown_field": "checkpoint manifest field 'sha256' is unknown",
    "checkpoint_manifest_not_json": "unreadable checkpoint manifest: Expecting property name",
    "checkpoint_manifest_not_utf8": "unreadable checkpoint manifest: 'utf-8' codec can't "
                                    "decode byte 0xff",
    "checkpoint_float_version": "checkpoint manifest field 'version' is not int",
    "checkpoint_params_differ": "checkpoint manifest field 'params': entry 1 lists "
                                "[{'name': 'enc_z.l0.b', 'shape': [2, 2]}], the config declares "
                                "[{'name': 'enc_z.l0.b', 'shape': [8]}]",
}


@pytest.mark.parametrize("command", ["train", "replicate"])
def test_variant_help_names_the_variants(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert f"one of {', '.join(tr.VARIANTS)}" in " ".join(capsys.readouterr().out.split())


@pytest.fixture()
def twins_csv_on_stdin():
    """The twins fixture CSV as file descriptor 0 while the test runs, so a
    command that reads stdin gets a CSV it can use."""
    saved = os.dup(0)
    with open(dg.fixture_path(), "rb") as fh:
        os.dup2(fh.fileno(), 0)
    yield
    os.dup2(saved, 0)
    os.close(saved)


@pytest.mark.parametrize("case", FAILURES)
def test_failure_writes_failed_manifest(case, trained_run, tmp_path, twins_csv_on_stdin):
    make_argv, code = FAILURES[case]
    out = tmp_path / "out"
    assert cli.main([*make_argv(tmp_path, *trained_run), "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]
    assert FAILURE_FIELDS.get(case, "") in manifest["error"]


# every subcommand, each writing into its run directory what it writes
ARTIFACT_COMMANDS = {
    "generate": lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", SMALL_TRAIN["dataset"])],
    "generate_triple": lambda tmp, run, data: [
        "generate", "--spec", write_json(tmp / "spec.json", SMALL_TRAIN["dataset"]),
        "--triple"],
    "train": lambda tmp, run, data: ["train", "--config", _config(tmp)],
    "evaluate": lambda tmp, run, data: [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data)],
    "replicate": lambda tmp, run, data: ["replicate", "--config", _config(tmp), "--reps", "1"],
    "ablate": lambda tmp, run, data: [
        "ablate", "--config", _config(tmp), "--reps", "1", "--variants", "Lp,Total"],
    "attribute": lambda tmp, run, data: [
        "attribute", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data)],
    "sweep": lambda tmp, run, data: [
        "sweep", "--config", _config(tmp), "--param", "gamma", "--grid", "0,1", "--reps", "1"],
}


@pytest.mark.parametrize("command", ARTIFACT_COMMANDS)
def test_manifest_lists_every_artifact(command, trained_run, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*ARTIFACT_COMMANDS[command](tmp_path, *trained_run),
                     "--out", str(out)]) == 0
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert sorted(artifacts) == sorted(str(path) for path in out.rglob("*")
                                       if path.is_file() and path.name != "manifest.json")


def _demand_triple_with_outlier(tmp_path, split: str, row: int):
    """A 200-row demand triple whose `split` holds an outcome of 1e200 at
    `row`: its squared residual overflows the likelihood."""
    data = tmp_path / "demand"
    spec = write_json(tmp_path / "spec.json", {"kind": "demand", "n": 200, "seed": 4})
    assert cli.main(["generate", "--spec", spec, "--out", str(data), "--triple"]) == 0
    ds = dg.read_dataset(data / split)
    ds.y[row] = 1e200
    dg.write_dataset(ds, data / split)
    return data


def test_diverged_step_names_epoch_batch_and_term(tmp_path):
    data = _demand_triple_with_outlier(tmp_path, "train", 7)
    out = tmp_path / "run"
    with np.errstate(over="ignore"):
        code = cli.main(["train", "--config", _config(tmp_path, mode="continuous"),
                         "--data", str(data), "--out", str(out)])
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert re.fullmatch(r"non-finite value at node 'gaussian_nll' in epoch 0, batch [0-3]",
                        manifest["error"])


@pytest.mark.parametrize("variant, layer", [("Total", "enc_z.l0"), ("Lp", "enc_c.l0")])
def test_overflowing_dense_layer_is_named(tmp_path, variant, layer):
    # the first 32 training rows hold every sign pattern of +-1.7e308 over the
    # five covariates, so the first product of the first encoder the variant
    # builds overflows (Lp builds no enc_z)
    data = tmp_path / "binary"
    spec = write_json(tmp_path / "spec.json", {**SMALL_TRAIN["dataset"], "seed": 4})
    assert cli.main(["generate", "--spec", spec, "--out", str(data), "--triple"]) == 0
    ds = dg.read_dataset(data / "train")
    ds.x[:32] = np.array(list(itertools.product([-1.0, 1.0], repeat=5))) * 1.7e308
    dg.write_dataset(ds, data / "train")
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["train", "--config", _config(tmp_path), "--data", str(data),
                         "--variant", variant, "--out", str(out)])
    assert code == 4
    assert json.loads((out / "manifest.json").read_text())["error"] == (
        f"non-finite value at node '{layer}' in epoch 0, batch 0")


@pytest.mark.parametrize("command, table", [
    (["replicate", "--reps", "2"], "report.csv"),
    (["ablate", "--variants", "Lp,Total", "--reps", "1"], "ablation.csv"),
], ids=["replicate", "ablate"])
def test_no_replication_scored_fails_after_the_report(tmp_path, capsys, command, table):
    data = _demand_triple_with_outlier(tmp_path, "train", 7)  # every run diverges
    config = _config(tmp_path, mode="continuous", dataset={"kind": "dir", "path": str(data)})
    out = tmp_path / "run"
    capsys.readouterr()
    with np.errstate(over="ignore"):
        code = cli.main([command[0], "--config", config, *command[1:], "--out", str(out)])
    assert code == 4
    assert "METRIC" not in capsys.readouterr().out
    with open(out / table) as fh:
        rows = list(csv.DictReader(fh))
    # replicate's two error rows, or ablate's two variants with one failed replication each
    assert len(rows) == 2 and all(r.get("error") or r.get("failed") == "1" for r in rows)
    assert not any(r.get(k) for r in rows for k in ("within", "out", "within_mean", "out_mean"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert str(out / table) in manifest["artifacts"]
    assert re.fullmatch(r"none of 2 replications produced a metric; the first failed with: "
                        r"non-finite value at node 'gaussian_nll' in epoch 0, batch \d",
                        manifest["error"])


def test_one_scored_variant_keeps_exit_0(tmp_path, monkeypatch, capsys):
    def lp_fails(payload):
        config, index, _ = payload
        if config.variant == "Lp":
            return {"replication": index, "seed": 0, "error": "Lp fails"}
        return {"replication": index, "seed": 0, "within": 0.5, "out": 0.25,
                "selected_epoch": 0}

    monkeypatch.setattr(cli, "_one_replication", lp_fails)
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--config", _config(tmp_path), "--variants", "Lp,Total",
                     "--reps", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "METRIC total_out_mean=0.250000"
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


def test_nonfinite_validation_names_epoch(tmp_path):
    data = _demand_triple_with_outlier(tmp_path, "val", 3)
    out = tmp_path / "run"
    with np.errstate(over="ignore"):
        code = cli.main(["train", "--config", _config(tmp_path, mode="continuous"),
                         "--data", str(data), "--out", str(out)])
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == ("non-finite value at node 'gaussian_nll' in epoch 0, "
                                 "validation")


MANIFEST_EDITS = {
    # every checkpoint written while the outcome head's input was selectable
    "treatment_channel": lambda m: m["config"].update(treatment_channel="factual"),
    # every checkpoint written while the hidden layers' activation was selectable
    "activation": lambda m: m["config"].update(activation="elu"),
    "params": lambda m: m.pop("params"),
    "mode": lambda m: m["config"].update(mode="x"),
    "seed": lambda m: m.update(seed="5"),
}


@pytest.mark.parametrize("field", MANIFEST_EDITS)
def test_evaluate_rejects_bad_manifest_field(field, trained_run, tmp_path):
    run, data = trained_run
    header, rest = (run / "checkpoint.bin").read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    MANIFEST_EDITS[field](manifest)
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(json.dumps(manifest).encode() + b"\n" + rest)
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert field in manifest["error"]


def test_treatment_channel_config_rejected(tmp_path, capsys):
    arch = {**SMALL_TRAIN["arch"], "treatment_channel": "factual"}
    out = tmp_path / "run"
    assert cli.main(["train", "--config", _config(tmp_path, arch=arch),
                     "--out", str(out)]) == 2
    assert "treatment_channel" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_ablate_checks_variants_before_training(tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "_replicated", lambda configs, *a: trained.extend(configs))
    for variants in ("Total,Lq", "Lp,Total,Lp"):  # an unknown name, a repeated one
        assert cli.main(["ablate", "--config", _config(tmp_path), "--reps", "1",
                         "--variants", variants, "--out", str(tmp_path / "abl")]) == 2
    assert trained == []


@pytest.mark.parametrize("case", ["sweep_negative_value", "sweep_nan_value",
                                  "sweep_grid_not_a_number", "sweep_param_zeroed_by_variant",
                                  "sweep_omega_cont_binary"])
def test_sweep_checks_grid_before_training(case, tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(cli, "_replicated", lambda configs, *a: trained.extend(configs))
    make_argv, code = FAILURES[case]
    assert cli.main([*make_argv(tmp_path, None, None), "--out", str(tmp_path / "s")]) == code
    assert trained == []


@pytest.mark.parametrize("case", ["replicate_no_dataset", "ablate_no_dataset",
                                  "sweep_no_dataset", "replicate_unknown_kind",
                                  "ablate_dir_extra_field", "sweep_negative_dimension",
                                  "replicate_dir_path_null", "replicate_huge_n",
                                  "replicate_twins_huge_mv", "replicate_twins_missing_column",
                                  "sweep_twins_no_row_survives"])
def test_dataset_reference_checked_before_any_replication(case, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_one_replication", ran.append)
    make_argv, code = FAILURES[case]
    assert cli.main([*make_argv(tmp_path, None, None), "--out", str(tmp_path / "r")]) == code
    assert ran == []


@pytest.mark.parametrize("case", ["demand_huge_alpha", "demand_huge_beta"])
def test_overflowing_spec_warns_nothing(case, tmp_path):
    make_argv, code = FAILURES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise
        assert cli.main([*make_argv(tmp_path, None, None), "--out", str(tmp_path / "g")]) == code


def test_readme_fault_table_cites_existing_tests():
    """Each test the README's fault table cites in its last column exists:
    ``F[case]`` a FAILURES case, ``W::name`` a test of test_field_checks,
    ``T::name`` one of test_training, any other name one of this module."""
    import test_field_checks  # it imports this module
    import test_training
    owners = {"W::": test_field_checks, "T::": test_training}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cited = [ref for line in readme.splitlines() if line.startswith("| ")
             for ref in re.findall(r"`([^`]+)`", line.rsplit("|", 2)[1])]
    assert len(cited) > 40
    for ref in cited:
        if ref.startswith("F["):
            assert ref[2:-1] in FAILURES, ref
            continue
        owner = owners.get(ref[:3], sys.modules[__name__])
        for name in (ref[3:] if ref[:3] in owners else ref).split("::"):
            owner = getattr(owner, name)


def test_rejected_input_has_one_exception():
    """Exit 2 is `datagen.SchemaError` alone, and the package defines exactly
    these exception classes, so a new one gets its exit code on purpose."""
    assert [types for types, _, code in cli.FAILURE_EXITS
            if code == cli.EXIT_CONFIG] == [dg.SchemaError]
    defined = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        classes = [node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)]
        module = importlib.import_module(f"sd2.{path.stem}") if classes else None
        defined |= {name for name in classes
                    if issubclass(getattr(module, name, object), BaseException)}
    assert defined == {"SchemaError", "AutodiffError", "NonFiniteError",
                       "DegenerateBatchError", "TrainingError", "NothingScored"}


def test_readme_names_the_parsers_commands_and_exit_codes():
    """README's fenced CLI block runs exactly the parser's subcommands, and its
    "Exit codes:" sentence lists exactly 0 and the codes of `cli.FAILURE_EXITS`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("\n```")[1::2]  # each fenced block, its info string first
    cli_block = next(block for block in blocks if block.startswith("\nsd2 "))
    named = {line.split()[1] for line in cli_block.strip().splitlines()}
    [commands] = [action.choices for action in cli.make_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert named == set(commands)
    sentence = re.search(r"^Exit codes:(.*?)\.$", readme, re.M | re.S).group(1)
    assert [int(code) for code in re.findall(r"\d+", sentence)] == sorted(
        {0, *(code for *_, code in cli.FAILURE_EXITS)})


def _blas_threads_seen(payload) -> dict:
    """A replication that records, as its error, the BLAS thread counts its
    worker process sees, and whether that process was spawned: a forked one
    inherits the test's patch of `cli._one_replication`."""
    _, index, _ = payload
    seen = {name: os.environ.get(name) for name in cli.BLAS_THREAD_VARS}
    seen["spawned"] = cli._one_replication is not _blas_threads_seen
    return {"replication": index, "seed": 0, "error": json.dumps(seen)}


@pytest.mark.parametrize("user_value", [None, "3"], ids=["unset", "user_set"])
def test_workers_get_one_blas_thread_unless_set(tmp_path, monkeypatch, user_value):
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if user_value is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_value)
    monkeypatch.setattr(cli, "_one_replication", _blas_threads_seen)
    before = dict(os.environ)
    out = tmp_path / "rep"
    # every row is an error row, so the command fails after writing its report
    assert cli.main(["replicate", "--config", _config(tmp_path), "--reps", "2",
                     "--jobs", "2", "--out", str(out)]) == 4
    assert dict(os.environ) == before
    rows = json.loads((out / "report.json").read_text())["rows"]
    expected = {"OPENBLAS_NUM_THREADS": user_value or "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "spawned": True}
    assert [json.loads(r["error"]) for r in rows] == [expected, expected]


class TestConfigParsing:
    def test_newer_schema_rejected(self, tmp_path):
        payload = dict(SMALL_TRAIN)
        payload["schema_version"] = 99
        config = write_json(tmp_path / "cfg.json", payload)
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "r")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "r")]) == 2

    def test_field_error_names_section(self, tmp_path, capsys):
        payload = dict(SMALL_TRAIN)
        payload["weights"] = {"alpha": -1}
        config = write_json(tmp_path / "cfg.json", payload)
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "r")]) == 2
        assert "weights" in capsys.readouterr().err

    def test_variant_must_match_config(self, tmp_path, capsys):
        payload = {**SMALL_TRAIN, "train": {**SMALL_TRAIN["train"], "variant": "Lp"}}
        config = write_json(tmp_path / "cfg.json", payload)
        assert cli.main(["train", "--config", config,
                         "--out", str(tmp_path / "r")]) == 2
        assert "variant 'Lp'" in capsys.readouterr().err

    def test_settable_values(self):
        # every value a config file or dataset spec sets; a new option edits this list
        settable = [
            "TrainConfig.mode", "TrainConfig.batch_size", "TrainConfig.max_epochs",
            "TrainConfig.patience", "TrainConfig.seed", "TrainConfig.variant",
            "ArchConfig.rep_dim", "ArchConfig.enc_hidden", "ArchConfig.enc_layers",
            "ArchConfig.head_hidden",
            "LossWeights.alpha", "LossWeights.beta", "LossWeights.gamma", "LossWeights.delta",
            "LossWeights.omega_cont",
            "OptimizerConfig.lr",
            "SyntheticSpec.mv", "SyntheticSpec.mz", "SyntheticSpec.mc", "SyntheticSpec.ma",
            "SyntheticSpec.mu", "SyntheticSpec.n", "SyntheticSpec.seed",
            "DemandSpec.alpha", "DemandSpec.beta", "DemandSpec.mz", "DemandSpec.mc",
            "DemandSpec.ma", "DemandSpec.n", "DemandSpec.seed",
            "TwinsSpec.csv_path", "TwinsSpec.m_columns", "TwinsSpec.hide_count",
            "TwinsSpec.mv", "TwinsSpec.seed",
            "DirSpec.path",
        ]
        # the fields a section takes from elsewhere, each counted once: the data's
        # width, the sections and the dataset under their own classes, and the
        # config's mode as TrainConfig's
        set_elsewhere = {cls: set(given) for cls, given in cli.CONFIG_SECTIONS.values()}
        set_elsewhere[tr.TrainConfig].remove("mode")
        assert [f"{cls.__name__}.{f.name}" for cls in CONFIG_CLASSES
                for f in dataclasses.fields(cls)
                if f.name not in set_elsewhere.get(cls, ())] == settable
        assert len(settable) == 36

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_resolved_variant_round_trips(self, variant):
        base = cli.build_train_config(SMALL_TRAIN)
        cfg = tr.apply_ablation(base, variant)
        assert tr.apply_ablation(cfg, variant) == cfg
        assert cli.build_train_config(cli.config_json(cfg)) == cfg
