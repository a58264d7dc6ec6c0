"""Operator surface: dataset generation, training, evaluation, replication,
ablation, attribution, and hyperparameter sweeps.

`main` owns the run lifecycle of every subcommand: once the run directory is
known it writes exactly one manifest.json, `ok` on success or `failed` with the
error and whatever config and seeds had been resolved, next to the fully
resolved configuration, so any reported number can be reproduced from its
artifacts alone.  The last stdout line of every successful command is
machine-parsable: ``METRIC <name>=<value>``.

Exit codes: 0 success, 2 rejected input (`datagen.SchemaError`: a dataset
file, spec, config, flag or checkpoint), 3 I/O, 4 numerical failure or no
replication scored.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing as mp
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from . import datagen as dg
from . import evaluation as ev
from . import rng
from . import training as tr
from .autodiff import NonFiniteError
from .losses import TERMS, LossBreakdown, LossWeights
from .model import ArchConfig, SD2Model, checkpoint_load, checkpoint_save
from .training import TrainConfig, TrainingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

OUT_ROOT_ENV = "SD2_OUT_ROOT"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG_SCHEMA_VERSION = 1


class NothingScored(Exception):
    """replicate, ablate or sweep ran, but none of its replications produced
    a metric."""


# exception types -> stderr prefix and exit code; the first matching row wins
FAILURE_EXITS = (
    (dg.SchemaError, "error", EXIT_CONFIG),
    ((TrainingError, NonFiniteError), "numerical failure", EXIT_NUMERIC),
    (NothingScored, "error", EXIT_NUMERIC),
    (FileNotFoundError, "error", EXIT_IO),
    (OSError, "I/O error", EXIT_IO),
)


@dataclass
class Run:
    """A subcommand's run directory and what it has resolved so far; `main`
    records these in manifest.json whether the subcommand succeeds or fails."""
    out: Path
    started: float = field(default_factory=time.time)
    config: dict | None = None
    seeds: list[int] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        raise dg.SchemaError("no --out given and SD2_OUT_ROOT is not set")
    # a new directory per run: one started in the same second gets -1, -2, ..
    stem = Path(root) / f"{args.command}-{int(time.time())}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    for k in itertools.count():
        out = Path(f"{stem}-{k}") if k else stem
        try:
            out.mkdir()
            return out
        except FileExistsError:
            pass


# The config file's sections: each one's class and the fields of it set elsewhere,
# from the data's width, the top level's mode and dataset, or the sections before it.
CONFIG_SECTIONS = {
    "arch": (ArchConfig, ("input_dim", "mode")),
    "weights": (LossWeights, ()),
    "optimizer": (tr.OptimizerConfig, ()),
    "train": (TrainConfig, ("mode", "dataset", "arch", "weights", "optimizer")),
}


def build_train_config(raw: dict) -> TrainConfig:
    """Versioned JSON schema -> TrainConfig, with field-level messages."""
    version = raw.get("schema_version", CONFIG_SCHEMA_VERSION)
    if type(version) is not int:
        raise dg.SchemaError(f"config schema_version must be an integer, got {version!r}")
    if not 1 <= version <= CONFIG_SCHEMA_VERSION:
        raise dg.SchemaError(f"config schema_version {version} is not supported "
                             f"(1 to {CONFIG_SCHEMA_VERSION})")
    for key in raw:
        if key not in {"schema_version", "mode", "dataset", *CONFIG_SECTIONS}:
            raise dg.SchemaError(f"unknown config field {key!r}")
    if not isinstance(raw.get("dataset", {}), (dict, type(None))):
        raise dg.SchemaError("config field 'dataset' must be a JSON object or null")
    # input_dim is a placeholder until training reads the data's width
    built = {"input_dim": 1, "mode": raw.get("mode", "binary"), "dataset": raw.get("dataset")}
    for name, (cls, given) in CONFIG_SECTIONS.items():
        built[name] = dg.read_record(cls, raw.get(name, {}), f"config section {name!r}",
                                     {key: built[key] for key in given})
    return built["train"]


def config_json(config: TrainConfig) -> dict:
    """The config file `build_train_config` reads back as ``config``."""
    d = asdict(config)
    record = {"schema_version": CONFIG_SCHEMA_VERSION, "mode": d["mode"], "dataset": d["dataset"]}
    for name, (_, given) in CONFIG_SECTIONS.items():
        section = d if name == "train" else d[name]
        record[name] = {key: value for key, value in section.items() if key not in given}
    return record


def _write_manifest(command: str, run: Run, error: str | None):
    run.out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": command,
        "status": "ok" if error is None else "failed",
        "tool_version": __version__,
        "config": run.config,
        "seeds": run.seeds,
        "artifacts": run.artifacts,
        "started": run.started,
        "finished": time.time(),
    }
    if error is not None:
        manifest["error"] = error
    with open(run.out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_json(run: Run, name: str, record, sort_keys: bool = False):
    """The run's artifact `name` holding ``record`` as JSON."""
    with open(run.out / name, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=sort_keys)
    run.artifacts.append(str(run.out / name))


def _write_report(run: Run, name: str, table: list[dict], record=None, keys=None):
    """The run's artifact `name`.csv: the table under `keys`, by default
    every key of any row (error rows lack metrics), a row without a key
    getting an empty cell; and `name`.json holding ``record`` when given."""
    run.out.mkdir(parents=True, exist_ok=True)
    keys = keys or list(dict.fromkeys(k for r in table for k in r))
    if keys:
        dg.write_csv(run.out / f"{name}.csv", keys, ([r.get(k, "") for k in keys] for r in table))
        run.artifacts.append(str(run.out / f"{name}.csv"))
    if record is not None:
        _write_json(run, f"{name}.json", record)


def _train_config(args, run: Run) -> tuple[TrainConfig, int]:
    """The --config file with any --variant applied, and the base seed (--seed,
    else the config's); both go on the run record."""
    config = build_train_config(dg.read_json_object(args.config))
    if getattr(args, "variant", None) is not None:
        config = tr.apply_ablation(config, args.variant)
    run.config = config_json(config)
    seed = config.seed if args.seed is None else args.seed
    run.seeds = [seed]
    return config, seed


def cmd_generate(args, run: Run) -> tuple[str, float]:
    run.config = dg.read_json_object(args.spec)
    spec = dg.spec_from_ref(run.config)
    if isinstance(spec, dg.DirSpec):
        raise dg.SchemaError("dataset kind 'dir' is read, not generated (train --data reads it)")
    run.seeds = [spec.seed]
    if args.triple and isinstance(spec, dg.TwinsSpec):
        raise dg.SchemaError("--triple applies to synthetic and demand specs only")
    sets = zip(dg.SPLITS, dg.independent_triple(spec)) if args.triple else [("", dg.generate(spec))]
    for name, ds in sets:  # every file of the dataset directories is an artifact
        written = dg.write_dataset(ds, run.out / name).iterdir()
        run.artifacts += [str(path) for path in sorted(written) if path.name != "manifest.json"]
    return "rows", ds.n


def cmd_train(args, run: Run) -> tuple[str, float]:
    config, seed = _train_config(args, run)
    config = replace(config, seed=seed)
    if args.data:  # config.json then names the data the run used
        config = replace(config, dataset={"kind": "dir", "path": str(Path(args.data).resolve())})
    run.config = config_json(config)
    train_ds, val_ds, _ = tr.resolve_data(config, seed)
    model, history = tr.train(config, train_ds, val_ds)
    run.out.mkdir(parents=True, exist_ok=True)
    checkpoint_save(model, run.out / "checkpoint.bin")
    run.artifacts.append(str(run.out / "checkpoint.bin"))
    _write_report(run, "history", history.rows, keys=["epoch", *LossBreakdown.FIELDS, "split"])
    _write_json(run, "config.json", run.config, sort_keys=True)
    return "selected_epoch", history.selected_epoch


def _checkpoint_and_data(args) -> tuple[SD2Model, list[tuple[Path, dg.GeneratedDataset]]]:
    """The --checkpoint model and each --data set with its directory; SchemaError
    unless every set has the checkpoint's mode and input width."""
    model = checkpoint_load(args.checkpoint)
    cfg = model.config
    data = list(dg.read_data_dir(args.data).items())
    for path, ds in data:
        if (ds.mode, ds.covariates().shape[1]) != (cfg.mode, cfg.input_dim):
            raise dg.SchemaError(f"{path}: {ds.mode} data of {ds.covariates().shape[1]} x and v "
                                 f"columns, a {cfg.mode} checkpoint of input_dim {cfg.input_dim}")
    return model, data


def cmd_evaluate(args, run: Run) -> tuple[str, float]:
    model, data = _checkpoint_and_data(args)
    # a triple is scored within-sample on train and out-of-sample on test
    scored = {"within": data[0], "out": data[2]} if len(data) == 3 else {"all": data[0]}
    for path, ds in scored.values():
        if not ds.has_ground_truth:
            raise dg.SchemaError(f"{path / 'truth.csv'} not found: evaluate needs ground truth")
    metric = ev.METRICS[model.config.mode]
    rows = [{"split": split, "metric": metric.name, "value": metric.score(model, ds)}
            for split, (_, ds) in scored.items()]
    _write_report(run, "report", rows, rows)
    return metric.name, rows[-1]["value"]


def _one_replication(payload) -> dict:
    """One replication end to end, for replicate, ablate and sweep alike:
    train on the first set, select on the second, and score the headline
    metric within-sample (train set) and out-of-sample (test set).

    Runs in the caller with --jobs 1 and in a pool worker otherwise; a failed
    run becomes a row with its error, so both give the same rows.
    """
    config, index, base_seed = payload
    seed_i = rng.mix_key_int(base_seed, index)
    row: dict = {"replication": index, "seed": seed_i}
    try:
        config = replace(config, seed=seed_i)
        train_ds, val_ds, test_ds = tr.resolve_data(config, seed_i)
        model, history = tr.train(config, train_ds, val_ds)
        score = ev.METRICS[config.mode].score
        row.update(within=score(model, train_ds), out=score(model, test_ds),
                   selected_epoch=history.selected_epoch)
    except Exception as exc:  # noqa: BLE001 - a failed replication is data
        row["error"] = str(exc)
    return row


def _replicated(configs: list[TrainConfig], args, base_seed: int) -> list[tuple[list[dict], dict]]:
    """--reps replications of every config, through one pool when --jobs > 1,
    and each config's rows with their summary per split."""
    for flag in ("reps", "jobs"):
        if getattr(args, flag) < 1:
            raise dg.SchemaError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    # a reference every replication would fail on fails the command; a twins
    # reference is transformed once, for the faults only its CSV shows
    for spec in dict.fromkeys(dg.spec_from_ref(config.dataset) for config in configs):
        if isinstance(spec, dg.TwinsSpec):
            dg.twins_transform(spec)
    payloads = [(config, i, base_seed) for config in configs for i in range(args.reps)]
    if args.jobs > 1:
        # one BLAS thread per worker unless the user set a count; the workers are
        # spawned because a forked one keeps the parent's BLAS threads
        added = [name for name in BLAS_THREAD_VARS if name not in os.environ]
        os.environ.update(dict.fromkeys(added, "1"))
        try:
            with ProcessPoolExecutor(args.jobs, mp_context=mp.get_context("spawn")) as pool:
                rows = list(pool.map(_one_replication, payloads))
        finally:  # the parent's environment ends up as it was
            for name in added:
                del os.environ[name]
    else:
        rows = list(map(_one_replication, payloads))
    results = []
    for k, config in enumerate(configs):
        group = rows[k * args.reps:(k + 1) * args.reps]
        ok = [r for r in group if "error" not in r]
        summary: dict = {"metric": ev.METRICS[config.mode].name, "replications": len(group),
                         "failed": len(group) - len(ok)}
        for split in ("within", "out"):
            values = [r[split] for r in ok]
            if values:
                mean, std, text = ev.aggregate(values)
                summary[split] = {"mean": mean, "std": std, "formatted": text}
        results.append((group, summary))
    return results


def _check_scored(results: list[tuple[list[dict], dict]]) -> None:
    """Raise `NothingScored`, naming the first error, when every replication
    of every config failed; the caller has written its report by then."""
    rows = [row for group, _ in results for row in group]
    if all("error" in row for row in rows):
        raise NothingScored(f"none of {len(rows)} replications produced a metric; the "
                            f"first failed with: {rows[0]['error']}")


def _split_columns(summary: dict, stats: tuple[str, ...]) -> dict:
    return {f"{split}_{stat}": summary[split][stat]
            for split in ("within", "out") if split in summary for stat in stats}


def cmd_replicate(args, run: Run) -> tuple[str, float]:
    config, base_seed = _train_config(args, run)
    [(rows, summary)] = _replicated([config], args, base_seed)
    table = rows + [{"replication": "aggregate", "seed": base_seed,
                     split: summary[split]["formatted"]}
                    for split in ("within", "out") if split in summary]
    _write_report(run, "report", table, {"rows": rows, "summary": summary})
    _check_scored([(rows, summary)])
    return summary["metric"] + "_mean", summary["out"]["mean"]


def cmd_ablate(args, run: Run) -> tuple[str, float]:
    base, base_seed = _train_config(args, run)
    variants = list(tr.VARIANTS) if args.variants is None else args.variants.split(",")
    configs = [tr.apply_ablation(base, v) for v in variants]  # an unknown name raises
    repeated = [v for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:
        raise dg.SchemaError(f"--variants: variant {repeated[0]!r} is named more than once")
    results = _replicated(configs, args, base_seed)
    table = [{"variant": v, "failed": summary["failed"],
              **_split_columns(summary, ("mean", "std", "formatted"))}
             for v, (_, summary) in zip(variants, results)]
    summaries = {v: {**summary, "rows": rows} for v, (rows, summary) in zip(variants, results)}
    _write_report(run, "ablation", table, summaries)
    _check_scored(results)
    total = summaries.get("Total", {}).get("out")
    return "total_out_mean", total["mean"] if total else float("nan")


def cmd_attribute(args, run: Run) -> tuple[str, float]:
    model, [(path, ds), *_] = _checkpoint_and_data(args)
    try:
        report = ev.attribution(model, ds.input_roles())
    except ValueError as exc:  # the roles lack a factor
        raise dg.SchemaError(f"{path / 'roles.csv'}: {exc}") from exc
    _write_report(run, "attribution", report.rows())
    return "min_ratio", report.min_ratio()


def cmd_sweep(args, run: Run) -> tuple[str, float]:
    base, base_seed = _train_config(args, run)
    dg.check_one_of("--param", args.param, [f.name for f in fields(LossWeights)])
    if not any(term.coeff == args.param and base.mode in term.modes for term in TERMS):
        raise dg.SchemaError(f"--param {args.param}: no term of the {base.mode} objective is "
                             f"scaled by it")
    try:  # every grid value is checked before any is trained
        grid = [float(v) for v in args.grid.split(",")]
        configs = [replace(base, weights=replace(base.weights, **{args.param: value}))
                   for value in grid]
    except ValueError as exc:
        raise dg.SchemaError(f"--grid: {exc}") from exc
    results = _replicated(configs, args, base_seed)
    rows = [{"param": args.param, "value": value, "failed": summary["failed"],
             **_split_columns(summary, ("mean", "std"))}
            for value, (_, summary) in zip(grid, results)]
    _write_report(run, "sweep", rows)
    _check_scored(results)
    best = min((r for r in rows if "out_mean" in r), key=lambda r: r["out_mean"])
    return "best_value", best["value"]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sd2", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for func, text in ((cmd_generate, "write a dataset directory from a spec file"),
                       (cmd_train, "train one model"),
                       (cmd_evaluate, "metrics for a checkpoint on a dataset"),
                       (cmd_replicate, "k replications with derived seeds"),
                       (cmd_ablate, "replicated metrics per ablation variant"),
                       (cmd_attribute, "first-layer attribution of a checkpoint"),
                       (cmd_sweep, "grid over one loss coefficient")):
        sub.add_parser(func.__name__[len("cmd_"):], help=text).set_defaults(func=func)

    def flag(commands: str, *names: str, **options):
        for command in commands.split():
            sub.choices[command].add_argument(*names, **options)

    # each flag once, for every subcommand that takes it, in the order --help lists them
    flag("generate", "--spec", required=True)
    flag("generate", "--triple", action="store_true",
         help="three independent draws into train/ val/ test/")
    flag("evaluate attribute", "--checkpoint", required=True)
    flag("train replicate ablate sweep", "--config", required=True)
    flag("sweep", "--param", required=True)
    flag("sweep", "--grid", required=True)
    flag("train", "--data", default=None, help="dataset dir or train/ val/ test/ triple")
    flag("evaluate attribute", "--data", required=True)
    flag("replicate ablate sweep", "--reps", type=int, default=10)
    flag("train replicate ablate sweep", "--seed", type=int, default=None)
    flag("replicate ablate sweep", "--jobs", type=int, default=1)
    flag("train replicate", "--variant", help=f"one of {', '.join(tr.VARIANTS)}")
    flag("ablate", "--variants", default=None)
    flag(" ".join(sub.choices), "--out", default=None)  # every run directory
    sub.choices["sweep"].set_defaults(reps=3)  # replications per grid value
    return parser


def _run(args) -> tuple[str, float]:
    """Resolve the run directory, run the subcommand, and write manifest.json
    once, whether the subcommand returns its metric or raises."""
    run = Run(_out_dir(args))
    error = None
    try:
        return args.func(args, run)
    except Exception as exc:
        error = str(exc) or type(exc).__name__
        raise
    finally:
        _write_manifest(args.command, run, error)


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        metric = _run(args)
    except Exception as exc:
        for types, prefix, code in FAILURE_EXITS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise
    print("METRIC {}={:.6f}".format(*metric))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
