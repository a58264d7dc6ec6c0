"""Deterministic minibatch training: Adam over the composite objective,
validation-based checkpoint selection, ablation variants, dataset resolution.

Everything is keyed off the run seed through counter-based streams: epoch
shuffles, importance weights, and dataset draws are pure functions of
(config, data), so two runs with the same inputs produce identical
checkpoints.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import datagen as dg
from . import rng
from .family import FAMILIES
from .losses import (IMPORTANCE_WEIGHT_READS, DegenerateBatchError, LossBreakdown, LossWeights,
                     importance_weights, read_outputs, total_loss_binary, total_loss_continuous)
from .model import (ArchConfig, SD2Model, bind, forward_binary, forward_continuous, init_model,
                    params_read_by)

log = logging.getLogger(__name__)

# the loss coefficients each ablation variant sets to zero
_ZEROED_WEIGHTS = {"Lp": ("alpha", "beta", "gamma"), "Lp+Lt": ("beta", "gamma"),
                   "Lp+Lt+La": ("gamma",), "Total": ()}
VARIANTS = tuple(_ZEROED_WEIGHTS)


class TrainingError(Exception):
    """Training cannot go on; a diverged step's message names its epoch,
    batch and the op or loss term that went non-finite."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's step size, a finite nonnegative number (a bool is not one); its
    moment decays and epsilon are the constants `ad.ADAM_BETA1`,
    `ad.ADAM_BETA2` and `ad.ADAM_EPS` (0.9, 0.999, 1e-8)."""
    lr: float = 1e-3

    def __post_init__(self):
        dg.check_fields(self)


@dataclass(frozen=True)
class TrainConfig:
    """A training run: batch_size at least 2, max_epochs and patience at least
    1, mode and variant in their sets (`check_fields`), patience at most max_epochs."""
    mode: str = "binary"
    arch: ArchConfig = field(default_factory=lambda: ArchConfig(input_dim=1))
    weights: LossWeights = field(default_factory=LossWeights)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 40
    seed: int = 0
    variant: str = "Total"
    dataset: dict | None = None

    def __post_init__(self):
        dg.check_fields(self, {"batch_size": 2, "max_epochs": 1, "patience": 1},
                        one_of={"mode": FAMILIES, "variant": VARIANTS})
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        zeroed = _ZEROED_WEIGHTS[self.variant]
        if any(getattr(self.weights, name) != 0.0 for name in zeroed):
            raise ValueError(f"variant {self.variant!r} does not match the weights it "
                             f"implies: it sets {', '.join(zeroed)} to 0; derive it with "
                             "apply_ablation (--variant on the command line)")


@dataclass
class TrainHistory:
    rows: list[dict] = field(default_factory=list)          # per epoch x split
    criterion: list[float] = field(default_factory=list)    # validation criterion per epoch
    epoch_seconds: list[float] = field(default_factory=list)
    selected_epoch: int = -1

    def append(self, epoch: int, split: str, bd: LossBreakdown):
        row = {"epoch": epoch, "split": split}
        row.update({f: getattr(bd, f) for f in LossBreakdown.FIELDS})
        self.rows.append(row)


class _BreakdownMean:
    """Row-weighted mean of loss breakdowns: each term is summed as term x
    rows, in the order the breakdowns are added, then divided by the rows;
    a term that was not built stays None."""

    def __init__(self):
        self.sums = dict.fromkeys(LossBreakdown.FIELDS, 0.0)
        self.rows = 0

    def add(self, bd: LossBreakdown, rows: int):
        for f in LossBreakdown.FIELDS:
            value = getattr(bd, f)
            self.sums[f] = None if value is None else self.sums[f] + value * rows
        self.rows += rows

    def mean(self) -> LossBreakdown:
        return LossBreakdown(**{f: None if s is None else s / self.rows
                                for f, s in self.sums.items()})


def apply_ablation(config: TrainConfig, variant: str) -> TrainConfig:
    """Table-style variants: Lp keeps only the factual outcome path, Lp+Lt
    restores the deep treatment objective, Lp+Lt+La restores the adjustment
    discrepancy, Total is the full objective, the only one with importance
    weights; TrainConfig rejects any other name."""
    weights = replace(config.weights, **dict.fromkeys(_ZEROED_WEIGHTS.get(variant, ()), 0.0))
    return replace(config, weights=weights, variant=variant)


def _arch_for(config: TrainConfig, input_dim: int) -> ArchConfig:
    return replace(config.arch, input_dim=input_dim, mode=config.mode)


def _batch_breakdown(config: TrainConfig, model: SD2Model, x, t, y,
                     tape: ad.Tape) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown of one batch and the sample weights it applied; the
    breakdown carries the per-sample factual losses.  Only the binary `Total`
    variant weights its factual outcome term.

    Every parameter is bound, but the forward builds only the outputs the
    kept terms (and the importance weights) read, and the L2 penalty covers
    only the parameters of the networks those read: any other parameter gets
    a zero gradient."""
    params = bind(model, tape)
    weighted = config.mode == "binary" and config.variant == "Total"
    reads = read_outputs(config.mode, config.weights, weighted)
    covered = params_read_by(params, reads)
    if config.mode == "binary":
        outputs = forward_binary(model, x, t, tape, params, reads)
        w = (importance_weights(getattr(outputs, IMPORTANCE_WEIGHT_READS[0]).value, t)
             if weighted else np.ones(len(t)))
        return total_loss_binary(outputs, t, y, w, config.weights, covered), w
    outputs = forward_continuous(model, x, t, tape, params, reads)
    return total_loss_continuous(outputs, t, y, config.weights, covered), np.ones(len(t))


# validation rows per loss chunk: the MMD, the KLs and the means are batch statistics
EVAL_CHUNK_ROWS = 4096


def _one_class(t: np.ndarray) -> bool:
    return t.min() == t.max()


def _eval_chunks(mode: str, t: np.ndarray, chunk: int) -> list[slice]:
    """Row slices of at most ``chunk`` rows.  In binary mode, a last chunk
    that holds a single treatment class, which no loss can score, joins the
    chunk before it when the two together hold both classes."""
    bounds = list(range(0, len(t), chunk)) + [len(t)]
    if (mode == "binary" and len(bounds) > 2 and _one_class(t[bounds[-2]:])
            and not _one_class(t[bounds[-3]:])):
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _eval_breakdown(config: TrainConfig, model: SD2Model,
                    ds: dg.GeneratedDataset) -> tuple[LossBreakdown, float]:
    """Full-split loss breakdown, in chunks of `EVAL_CHUNK_ROWS` rows, and the
    selection criterion; the forward passes build no tape.

    The criterion is fit-only: the importance-weighted outcome loss normalized
    by the mean weight (so its scale is comparable across epochs as the
    weights evolve), plus alpha times the factual treatment loss.
    """
    x_all = ds.covariates()
    scored = _BreakdownMean()
    crit_num = 0.0
    crit_wsum = 0.0
    crit_t = 0.0
    for sl in _eval_chunks(config.mode, ds.t, EVAL_CHUNK_ROWS):
        m = sl.stop - sl.start
        try:
            bd, w = _batch_breakdown(config, model, x_all[sl], ds.t[sl], ds.y[sl],
                                     ad.Tape(record=False))
        except DegenerateBatchError as exc:
            log.warning("dropping validation rows %d-%d from the criterion: %s",
                        sl.start, sl.stop - 1, exc)
            continue
        nll_y, nll_t = bd.per_sample
        crit_num += float((w * nll_y).sum())
        crit_wsum += float(w.sum())
        if nll_t is not None:  # else alpha is 0 and its term is not built
            crit_t += float(nll_t.sum())
        scored.add(bd, m)
    if not scored.rows:
        raise TrainingError(f"no validation chunk of {ds.n} rows could be scored, "
                            "so no epoch can be selected")
    criterion = (crit_num / max(crit_wsum, 1e-12)
                 + config.weights.alpha * crit_t / scored.rows)
    return scored.mean(), criterion


def train(config: TrainConfig, train_ds: dg.GeneratedDataset,
          val_ds: dg.GeneratedDataset) -> tuple[SD2Model, TrainHistory]:
    """Adam minimization with per-epoch shuffling, early stopping, and
    best-validation-epoch checkpointing."""
    if train_ds.mode != config.mode:
        raise ValueError(f"dataset mode {train_ds.mode!r} != config mode {config.mode!r}")
    x_all = train_ds.covariates()
    n = train_ds.n
    arch = _arch_for(config, x_all.shape[1])
    model = init_model(arch, rng.mix_key(config.seed, "init"))
    state = ad.AdamState(model.params, lr=config.optimizer.lr)
    history = TrainHistory()
    best = (np.inf, model.copy_params(), -1)
    bad = 0
    steps = 0
    shuffle_key = rng.mix_key(config.seed, "shuffle")
    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        perm = rng.permutation(rng.mix_key_int(shuffle_key, epoch), n)
        reshuffled = False
        trained = _BreakdownMean()
        pos = 0
        batch_index = 0
        while pos < n:
            idx = perm[pos:pos + config.batch_size]
            tb = train_ds.t[idx]
            if config.mode == "binary" and _one_class(tb):
                if not reshuffled:
                    # one fresh shuffle of the remaining rows, then skip repeats
                    reshuffled = True
                    rest = perm[pos:]
                    sub = rng.permutation(rng.mix_key_int(shuffle_key, -epoch - 1), len(rest))
                    perm = np.concatenate([perm[:pos], rest[sub]])
                    continue
                log.warning("skipping single-class batch %d in epoch %d", batch_index, epoch)
                pos += config.batch_size
                batch_index += 1
                continue
            tape = ad.Tape()
            try:  # a NaN or Inf in the objective, or in a parameter Adam updated
                bd, _ = _batch_breakdown(config, model, x_all[idx], tb, train_ds.y[idx], tape)
                _, grads = tape.gradients(bd.node)
                ad.adam_step(model.params, grads, state)
            except ad.NonFiniteError as exc:
                raise TrainingError(f"{exc} in epoch {epoch}, batch {batch_index}") from exc
            steps += 1
            trained.add(bd, len(idx))
            pos += config.batch_size
            batch_index += 1
        if trained.rows:
            history.append(epoch, "train", trained.mean())
        try:
            val_bd, criterion = _eval_breakdown(config, model, val_ds)
        except ad.NonFiniteError as exc:
            raise TrainingError(f"{exc} in epoch {epoch}, validation") from exc
        history.append(epoch, "val", val_bd)
        history.criterion.append(criterion)
        history.epoch_seconds.append(time.perf_counter() - started)
        if criterion < best[0]:
            best = (criterion, model.copy_params(), epoch)
            bad = 0
        else:
            bad += 1
            if bad >= config.patience:
                break
    if not steps:
        raise TrainingError(f"no optimizer step in {len(history.criterion)} epochs over "
                            f"{n} training rows (single-class batches are skipped)")
    model.params = best[1]
    history.selected_epoch = best[2]
    return model, history


def resolve_data(config: TrainConfig, seed: int
                 ) -> tuple[dg.GeneratedDataset, dg.GeneratedDataset, dg.GeneratedDataset]:
    """Build (train, val, test) from the config's dataset reference.

    Synthetic and demand references draw three independent sets per seed; a
    `dir` triple is used as it is; one `dir` dataset, or twins, is split by
    `dg.SPLIT_RATIOS`, afresh per seed.  A dataset whose mode is not the
    config's raises SchemaError."""
    spec = dg.spec_from_ref(config.dataset)
    if isinstance(spec, dg.DirSpec):
        data = tuple(dg.read_data_dir(spec.path).values())
    elif isinstance(spec, dg.TwinsSpec):
        data = (dg.generate(replace(spec, seed=rng.mix_key(seed, "policy"))),)
    else:
        data = dg.independent_triple(replace(spec, seed=rng.mix_key(seed, "data")))
    for ds in data:
        if ds.mode != config.mode:
            raise dg.SchemaError(f"dataset mode {ds.mode!r} != config mode {config.mode!r}")
    return data if len(data) == 3 else dg.split(data[0], rng.mix_key(seed, "split"))
