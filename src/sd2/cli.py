"""Operator surface: dataset generation, training, evaluation, replication,
ablation, attribution, identity verification, and hyperparameter sweeps.

Every run directory receives a manifest (written on success and failure) and
the fully resolved configuration, so any reported number can be reproduced
from its artifacts alone.  The last stdout line of every successful command is
machine-parsable: ``METRIC <name>=<value>``.

Exit codes: 0 success, 2 config/schema, 3 I/O, 4 numerical failure,
5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import datagen as dg
from . import evaluation as ev
from . import infotheory as it
from . import rng
from . import training as tr
from .autodiff import NonFiniteError
from .losses import LossBreakdown, LossFlags, LossWeights
from .model import ArchConfig, CheckpointError, checkpoint_load, checkpoint_save
from .training import TrainConfig, TrainingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

OUT_ROOT_ENV = "SD2_OUT_ROOT"
CONFIG_SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class VerifyFailure(Exception):
    pass


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        raise ConfigError("no --out given and SD2_OUT_ROOT is not set")
    return Path(root) / f"{args.command}-{int(time.time())}"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _build_section(cls, section: dict, name: str):
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def build_train_config(raw: dict) -> TrainConfig:
    """Versioned JSON schema -> TrainConfig, with field-level messages."""
    if raw.get("schema_version", CONFIG_SCHEMA_VERSION) > CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {raw['schema_version']} is newer "
                          f"than supported ({CONFIG_SCHEMA_VERSION})")
    known = {"schema_version", "mode", "arch", "weights", "flags", "optimizer",
             "train", "dataset"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    mode = raw.get("mode", "binary")
    arch_raw = dict(raw.get("arch", {}))
    arch_raw.setdefault("input_dim", 1)  # derived from data at train time
    arch = _build_section(ArchConfig, {**arch_raw, "mode": mode}, "arch")
    weights = _build_section(LossWeights, raw.get("weights", {}), "weights")
    flags = _build_section(LossFlags, raw.get("flags", {}), "flags")
    optimizer = _build_section(tr.OptimizerConfig, raw.get("optimizer", {}), "optimizer")
    train_raw = dict(raw.get("train", {}))
    if "split_ratios" in train_raw:
        train_raw["split_ratios"] = tuple(train_raw["split_ratios"])
    try:
        return TrainConfig(mode=mode, arch=arch, weights=weights, flags=flags,
                           optimizer=optimizer, dataset=raw.get("dataset"),
                           **train_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section 'train': {exc}") from exc


def config_json(config: TrainConfig) -> dict:
    d = tr.config_to_dict(config)
    return {"schema_version": CONFIG_SCHEMA_VERSION, "mode": d.pop("mode"),
            "arch": d.pop("arch"), "weights": d.pop("weights"),
            "flags": d.pop("flags"), "optimizer": d.pop("optimizer"),
            "dataset": d.pop("dataset"), "train": d}


def _write_manifest(out: Path, command: str, status: str, config: dict | None,
                    seeds: list[int], artifacts: list[str], started: float,
                    error: str | None = None):
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": command,
        "status": status,
        "tool_version": __version__,
        "config": config,
        "seeds": seeds,
        "artifacts": artifacts,
        "started": started,
        "finished": time.time(),
    }
    if error:
        manifest["error"] = error
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_rows_csv(path: Path, rows: list[dict]):
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow(r)


def _write_history(path: Path, history: tr.TrainHistory):
    fields = ["epoch", *LossBreakdown.FIELDS, "split"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in history.rows:
            w.writerow({k: row[k] for k in fields})


def _metric_line(name: str, value: float):
    print(f"METRIC {name}={value:.6f}")


def _build_generate_spec(raw: dict):
    kind = raw.get("kind")
    fields = {k: v for k, v in raw.items() if k != "kind"}
    if kind == "synthetic_binary":
        return _build_section(dg.SyntheticSpec, fields, "spec"), dg.gen_binary
    if kind == "demand":
        return _build_section(dg.DemandSpec, fields, "spec"), dg.gen_continuous
    if kind == "twins":
        if "m_columns" in fields:
            fields["m_columns"] = tuple(fields["m_columns"])
        if "ratios" in fields:
            fields["ratios"] = tuple(fields["ratios"])
        return _build_section(dg.TwinsSpec, fields, "spec"), dg.twins_transform
    raise ConfigError(f"spec field 'kind': unknown kind {kind!r}")


def cmd_generate(args) -> int:
    out = _out_dir(args)
    started = time.time()
    raw = _load_json(args.spec)
    spec, gen = _build_generate_spec(raw)
    artifacts = []
    try:
        if args.triple:
            if isinstance(spec, dg.TwinsSpec):
                raise ConfigError("--triple applies to synthetic and demand specs only")
            for name, ds in zip(("train", "val", "test"), dg.independent_triple(spec)):
                dg.write_dataset(ds, out / name)
                artifacts.append(str(out / name))
        else:
            ds = gen(spec)
            dg.write_dataset(ds, out)
            artifacts.append(str(out))
    except OSError as exc:
        _write_manifest(out, "generate", "failed", raw, [spec.seed], artifacts,
                        started, str(exc))
        raise
    _write_manifest(out, "generate", "ok", raw, [spec.seed], artifacts, started)
    _metric_line("rows", spec.n if not isinstance(spec, dg.TwinsSpec) else -1)
    return EXIT_OK


def _load_data_dir(path: Path, config: TrainConfig, seed: int):
    """A directory is either one dataset or a train/val/test triple."""
    if (path / "train").is_dir():
        return tuple(dg.read_dataset(path / name) for name in ("train", "val", "test"))
    ds = dg.read_dataset(path)
    return dg.split(ds, config.split_ratios, rng.mix_key(seed, "split"))


def cmd_train(args) -> int:
    out = _out_dir(args)
    started = time.time()
    raw = _load_json(args.config)
    config = build_train_config(raw)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.variant:
        config = tr.apply_ablation(config, args.variant)
    resolved = config_json(config)
    try:
        if args.data:
            triple = _load_data_dir(Path(args.data), config, config.seed)
        else:
            triple = tr.resolve_data(config, config.seed)
        if triple[0].mode != config.mode:
            raise ConfigError(f"dataset mode {triple[0].mode!r} != config mode "
                              f"{config.mode!r}")
        model, history = tr.train(config, triple[0], triple[1])
    except (TrainingError, NonFiniteError) as exc:
        _write_manifest(out, "train", "failed", resolved, [config.seed], [], started,
                        str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.bin"
    checkpoint_save(model, ckpt)
    _write_history(out / "history.csv", history)
    with open(out / "config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    _write_manifest(out, "train", "ok", resolved, [config.seed],
                    [str(ckpt), str(out / "history.csv")], started)
    _metric_line("selected_epoch", history.selected_epoch)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    started = time.time()
    model = checkpoint_load(args.checkpoint)
    data_path = Path(args.data)
    splits = [s.strip() for s in args.splits.split(",") if s.strip()]
    rows = []
    if (data_path / "train").is_dir():
        triple = tuple(dg.read_dataset(data_path / n) for n in ("train", "val", "test"))
        datasets = {"within": triple[0], "out": triple[2]}
    else:
        ds = dg.read_dataset(data_path)
        datasets = {s: ds for s in splits}
    if any(ds.mode != model.config.mode for ds in datasets.values()):
        print("error: checkpoint and dataset modes differ", file=sys.stderr)
        _write_manifest(out, "evaluate", "failed", None, [], [], started,
                        "mode mismatch")
        return EXIT_CONFIG
    name = "eps_ate" if model.config.mode == "binary" else "mse"
    for split_name in splits:
        value = ev.metric_for(model, datasets[split_name])
        rows.append({"split": split_name, "metric": name, "value": value})
    out.mkdir(parents=True, exist_ok=True)
    _write_rows_csv(out / "report.csv", rows)
    with open(out / "report.json", "w") as fh:
        json.dump(rows, fh, indent=2)
    _write_manifest(out, "evaluate", "ok", None, [], [str(out / "report.csv")], started)
    headline = rows[-1]["value"]
    _metric_line(name, headline)
    return EXIT_OK


def _one_replication(payload) -> dict:
    """One replication end to end, for replicate, ablate and sweep alike.

    Runs in the caller with --jobs 1 and in a pool worker otherwise; a failed
    run becomes a row with its error, so both give the same rows.
    """
    raw_config, index, base_seed = payload
    seed_i = rng.mix_key_int(base_seed, index)
    row: dict = {"replication": index, "seed": seed_i}
    try:
        config = replace(build_train_config(raw_config), seed=seed_i)
        result = ev.protocol_run(config, tr.resolve_data(config, seed_i))
        row.update(within=result["within"], out=result["out"],
                   selected_epoch=result["history"].selected_epoch)
    except Exception as exc:  # noqa: BLE001 - a failed replication is data
        row["error"] = str(exc)
    return row


def _replicated_rows(raw_config: dict, reps: int, base_seed: int, jobs: int) -> list[dict]:
    if reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {reps}")
    payloads = [(raw_config, i, base_seed) for i in range(reps)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_one_replication, payloads))
    return list(map(_one_replication, payloads))


def _summarize(rows: list[dict], metric: str) -> dict:
    ok = [r for r in rows if "error" not in r]
    summary: dict = {"metric": metric, "replications": len(rows),
                     "failed": len(rows) - len(ok)}
    for split in ("within", "out"):
        values = [r[split] for r in ok]
        if values:
            mean, std, text = ev.aggregate(values)
            summary[split] = {"mean": mean, "std": std, "formatted": text}
    return summary


def cmd_replicate(args) -> int:
    out = _out_dir(args)
    started = time.time()
    raw = _load_json(args.config)
    config = build_train_config(raw)
    if args.variant:
        config = tr.apply_ablation(config, args.variant)
    resolved = config_json(config)
    base_seed = args.seed if args.seed is not None else config.seed
    rows = _replicated_rows(resolved, args.reps, base_seed, args.jobs)
    metric = "eps_ate" if config.mode == "binary" else "mse"
    summary = _summarize(rows, metric)
    out.mkdir(parents=True, exist_ok=True)
    table = [dict(r) for r in rows]
    for split in ("within", "out"):
        if split in summary:
            table.append({"replication": "aggregate", "seed": base_seed,
                          split: summary[split]["formatted"]})
    _write_rows_csv(out / "report.csv", table)
    with open(out / "report.json", "w") as fh:
        json.dump({"rows": rows, "summary": summary}, fh, indent=2)
    _write_manifest(out, "replicate", "ok", resolved, [base_seed],
                    [str(out / "report.csv")], started)
    headline = summary.get("out", summary.get("within"))
    _metric_line(metric + "_mean", headline["mean"] if headline else float("nan"))
    return EXIT_OK


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    started = time.time()
    raw = _load_json(args.config)
    base = build_train_config(raw)
    base_seed = args.seed if args.seed is not None else base.seed
    variants = args.variants.split(",") if args.variants else list(tr.VARIANTS)
    rows = []
    summaries = {}
    for variant in variants:
        cfg = tr.apply_ablation(base, variant)
        resolved = config_json(cfg)
        vrows = _replicated_rows(resolved, args.reps, base_seed, args.jobs)
        metric = "eps_ate" if base.mode == "binary" else "mse"
        summary = _summarize(vrows, metric)
        summaries[variant] = summary
        row = {"variant": variant}
        for split in ("within", "out"):
            if split in summary:
                row[f"{split}_mean"] = summary[split]["mean"]
                row[f"{split}_std"] = summary[split]["std"]
                row[f"{split}_formatted"] = summary[split]["formatted"]
        rows.append(row)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows_csv(out / "ablation.csv", rows)
    with open(out / "ablation.json", "w") as fh:
        json.dump(summaries, fh, indent=2)
    _write_manifest(out, "ablate", "ok", config_json(base), [base_seed],
                    [str(out / "ablation.csv")], started)
    total = summaries.get("Total", {}).get("out")
    _metric_line("total_out_mean", total["mean"] if total else float("nan"))
    return EXIT_OK


def cmd_attribute(args) -> int:
    out = _out_dir(args)
    started = time.time()
    model = checkpoint_load(args.checkpoint)
    data_path = Path(args.data)
    if (data_path / "train").is_dir():
        ds = dg.read_dataset(data_path / "train")
    else:
        ds = dg.read_dataset(data_path)
    report = ev.attribution(model, ds.input_roles())
    out.mkdir(parents=True, exist_ok=True)
    _write_rows_csv(out / "attribution.csv", report.rows())
    _write_manifest(out, "attribute", "ok", None, [], [str(out / "attribution.csv")],
                    started)
    _metric_line("min_ratio", min(report.ratio(f) for f in ("z", "c", "a")))
    return EXIT_OK


def cmd_verify(args) -> int:
    out = Path(args.out) if args.out else None
    started = time.time()
    try:
        worst = it.verify_identities(args.joints, seed=args.seed or 0)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        if out:
            _write_manifest(out, "verify", "failed", None, [args.seed or 0], [],
                            started, str(exc))
        raise VerifyFailure(str(exc)) from exc
    for name, value in worst.items():
        print(f"PASS {name}: worst residual {value:.3e}")
    xor = it.xor_joint()
    gap = it.premise_gap(xor)
    cmi = it.cond_mutual_info(xor, "ra", "rc", "y")
    if abs(gap - cmi) > 1e-12:
        raise VerifyFailure("xor premise gap mismatch")
    print(f"PASS xor premise gap = conditional mutual information = {gap:.6f}")
    if out:
        _write_manifest(out, "verify", "ok", None, [args.seed or 0], [], started)
    _metric_line("worst_residual", max(worst.values()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    started = time.time()
    raw = _load_json(args.config)
    base = build_train_config(raw)
    if args.param not in ("alpha", "beta", "gamma", "delta", "omega_cont"):
        raise ConfigError(f"--param must name a loss coefficient, got {args.param!r}")
    try:
        grid = [float(v) for v in args.grid.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc
    base_seed = args.seed if args.seed is not None else base.seed
    rows = []
    for value in grid:
        cfg = replace(base, weights=replace(base.weights, **{args.param: value}))
        vrows = _replicated_rows(config_json(cfg), args.reps, base_seed, args.jobs)
        metric = "eps_ate" if base.mode == "binary" else "mse"
        summary = _summarize(vrows, metric)
        row = {"param": args.param, "value": value}
        for split in ("within", "out"):
            if split in summary:
                row[f"{split}_mean"] = summary[split]["mean"]
                row[f"{split}_std"] = summary[split]["std"]
        rows.append(row)
    out.mkdir(parents=True, exist_ok=True)
    _write_rows_csv(out / "sweep.csv", rows)
    _write_manifest(out, "sweep", "ok", config_json(base), [base_seed],
                    [str(out / "sweep.csv")], started)
    best = min((r for r in rows if "out_mean" in r), key=lambda r: r["out_mean"],
               default=None)
    _metric_line("best_value", best["value"] if best else float("nan"))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sd2", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a dataset directory from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--triple", action="store_true",
                   help="three independent draws into train/ val/ test/")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None, help="dataset dir (else config dataset ref)")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", default=None, choices=tr.VARIANTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--splits", default="within,out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replicate", help="k replications with derived seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--variant", default=None, choices=tr.VARIANTS)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("ablate", help="replicated metrics per ablation variant")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--variants", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attribute", help="first-layer attribution of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("verify", help="exact information-identity suite")
    p.add_argument("--joints", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="grid over one loss coefficient")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, dg.SchemaError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerifyFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (TrainingError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
