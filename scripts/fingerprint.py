"""Print sha256 fingerprints of training and inference results.

Two commits whose fingerprints match train byte-identical checkpoints and
histories and compute bit-identical forward passes.  Run from the repository
root:

    python3 scripts/fingerprint.py

It imports the `sd2` of its own checkout (``src/``), so it needs neither an
install nor ``PYTHONPATH``.

Two `sd2 train` runs at the README arch and weights (n=1,500, 3 epochs,
seed 3: binary and demand) print the sha256 of their `checkpoint.bin` and
`history.csv`, and so does a third binary run that reads a dataset directory
written by `datagen.write_dataset` through `sd2 train --data` (n=1,500,
seed 4).  Each run also prints the sha256 of its parameters: the bytes of
`checkpoint.bin` after the manifest line, which stay the same when only the
manifest changes.  Two more lines give one sha256 each for the two
reference-trained models on fresh datasets of 1,000, 1,025, 4,097 and 10,000
rows, row counts that put the forward passes on and around their row-block
boundaries: one over the outputs of `predict_outcome` (every do-value of the
dataset's grid), one over those of `encode` and `_eval_breakdown`.  Then one line per mode and ablation variant gives the
sha256 of one recorded training step at the README arch and weights: its
loss breakdown, per-sample factual losses and every parameter gradient, with
a term the variant does not build hashed as a fixed token.  The
last line gives one sha256 over every file `datagen.write_dataset` writes for
a synthetic (mv=2), a demand and a twins dataset of the shipped fixture, and
over the twin-records CSV `datagen.write_twins_fixture` writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's sd2

from sd2 import autodiff as ad
from sd2 import cli
from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2 import training as tr
from sd2.model import checkpoint_load, encode, init_model, predict_outcome

DATASETS = {"binary": {"kind": "synthetic_binary", "mv": 0, "mz": 4, "mc": 4, "ma": 2, "mu": 2},
            "continuous": {"kind": "demand", "alpha": 0.0, "beta": 1.0}}
FORWARD_ROWS = (1000, 1025, 4097, 10000)


def _config(mode: str) -> dict:
    return {
        "schema_version": 1,
        "mode": mode,
        "arch": {"rep_dim": 8, "enc_hidden": 64, "enc_layers": 2, "head_hidden": 32},
        "weights": {"alpha": 1.0, "beta": 0.5, "gamma": 1.0, "delta": 0.01},
        "optimizer": {"lr": 0.001},
        "train": {"batch_size": 256, "max_epochs": 3, "patience": 3, "seed": 3},
        "dataset": {**DATASETS[mode], "n": 1500},
    }


# what a term that is not built (its coefficient is 0) hashes as
SKIPPED = b"skipped"


def _hex(values: list) -> bytes:
    """The values as exact hex floats, a skipped term as ``SKIPPED``."""
    return b" ".join(SKIPPED if v is None else float(v).hex().encode() for v in values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_forward(predict, forward, raw_config: dict, checkpoint: Path) -> None:
    config = cli.build_train_config(raw_config)
    model = checkpoint_load(checkpoint)
    for n in FORWARD_ROWS:
        ds = dg.generate(dg.spec_from_ref({**DATASETS[config.mode], "n": n, "seed": n}))
        x = ds.covariates()
        grid = (0.0, 1.0) if config.mode == "binary" else ev.default_grid(ds.t)
        for tv in grid:
            predict.update(predict_outcome(model, x, float(tv)).tobytes())
        for rep in encode(model, x):
            forward.update(rep.tobytes())
        bd, criterion = tr._eval_breakdown(config, model, ds)
        values = [getattr(bd, f) for f in bd.FIELDS] + [criterion]
        forward.update(_hex(values))


def _step_lines(mode: str) -> list[str]:
    """One line per variant: the sha256 of a recorded step's breakdown,
    per-sample losses and gradients."""
    base = cli.build_train_config(_config(mode))
    ds = dg.generate(dg.spec_from_ref({**DATASETS[mode], "n": 256, "seed": 5}))
    x = ds.covariates()
    lines = []
    for variant in tr.VARIANTS:
        config = tr.apply_ablation(base, variant)
        model = init_model(tr._arch_for(config, x.shape[1]), 7)
        tape = ad.Tape()
        bd, w = tr._batch_breakdown(config, model, x, ds.t, ds.y, tape)
        _, grads = tape.gradients(bd.node)
        digest = hashlib.sha256()
        digest.update(_hex([getattr(bd, f) for f in bd.FIELDS]))
        for array in (*bd.per_sample, w, *(grads[k] for k in model.params)):
            digest.update(SKIPPED if array is None else array.tobytes())
        lines.append(f"{mode} step {variant} {digest.hexdigest()}")
    return lines


def _dataset_files_line(tmp: Path) -> str:
    """The sha256 over the dataset files, each preceded by its name.  The twins
    dataset is drawn from the written fixture CSV, and its spec.json records
    that CSV by file name, so the line does not depend on where files live."""
    digest = hashlib.sha256()
    fixture = dg.write_twins_fixture(tmp / "twins_fixture.csv")
    twins = dg.generate(dg.fixture_spec(csv_path=str(fixture), mv=2, seed=6))
    twins.spec = {**twins.spec, "csv_path": fixture.name}
    datasets = {"synthetic": dg.generate(dg.spec_from_ref({**DATASETS["binary"], "mv": 2,
                                                            "n": 300, "seed": 6})),
                "demand": dg.generate(dg.spec_from_ref({**DATASETS["continuous"], "n": 300,
                                                         "seed": 6})),
                "twins": twins}
    paths = [path for name, ds in datasets.items()
             for path in sorted(dg.write_dataset(ds, tmp / name).iterdir())]
    for path in [*paths, fixture]:
        digest.update(f"{path.parent.name}/{path.name}\n".encode())
        digest.update(path.read_bytes())
    return f"dataset files {digest.hexdigest()}"


def _train(tmp: Path, name: str, raw: dict, *extra: str) -> Path | None:
    """`sd2 train` on a config, printing the sha256 of its checkpoint and
    history; the run directory, or None if the run failed."""
    config_path = tmp / f"{name}.json"
    config_path.write_text(json.dumps(raw))
    out = tmp / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--config", str(config_path), "--out", str(out), *extra])
    if code != 0:
        print(f"{name}: sd2 train exited {code}", file=sys.stderr)
        return None
    for artifact in ("checkpoint.bin", "history.csv"):
        print(f"{name} {artifact} {_sha256(out / artifact)}")
    payload = (out / "checkpoint.bin").read_bytes().split(b"\n", 1)[1]
    print(f"{name} parameters {hashlib.sha256(payload).hexdigest()}")
    return out


def main() -> int:
    predict, forward = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        for mode in DATASETS:
            raw = _config(mode)
            out = _train(tmp, f"{mode}-factual", raw)
            if out is None:
                return 1
            _hash_forward(predict, forward, raw, out / "checkpoint.bin")
        data = tmp / "data"
        dg.write_dataset(dg.generate(dg.spec_from_ref({**DATASETS["binary"], "n": 1500,
                                                       "seed": 4})), data)
        if _train(tmp, "binary-data", _config("binary"), "--data", str(data)) is None:
            return 1
        files = _dataset_files_line(tmp / "files")
    rows = ','.join(map(str, FORWARD_ROWS))
    print(f"predict_outcome at n={rows} {predict.hexdigest()}")
    print(f"encode and validation at n={rows} {forward.hexdigest()}")
    for mode in DATASETS:
        print("\n".join(_step_lines(mode)))
    print(files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
