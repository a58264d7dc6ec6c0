"""The four sd2 benchmark workloads and the checks on their outputs.

A workload has a set-up (data generation, the twins CSV transform, or a
checkpoint load) and a unit of work that the run repeats: one training round
for the ``train_*`` workloads, one sweep of the do-grid for
``evaluate_demand``.  Workloads reach the package only through its public
entry points; the one hook of an untraced run is ``StepClock``.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from sd2 import autodiff as ad
from sd2 import datagen, evaluation, training
from sd2 import model as md
from sd2.losses import LossWeights

# The README train config.
README_ARCH = dict(rep_dim=8, enc_hidden=64, enc_layers=2, head_hidden=32)
README_WEIGHTS = LossWeights(alpha=1.0, beta=0.5, gamma=1.0, delta=0.01)
# Reference and package forward passes run the same numpy operations in the
# same order, so they agree to rounding.
REFERENCE_RTOL = 1e-9


class CheckFailed(Exception):
    """An operation returned an output the benchmark rejects."""


def train_config(mode: str, dataset: dict, epochs: int, seed: int) -> training.TrainConfig:
    """README config; patience == max_epochs so every round trains `epochs` epochs."""
    return training.TrainConfig(
        mode=mode, arch=md.ArchConfig(input_dim=1, mode=mode, **README_ARCH),
        weights=README_WEIGHTS, optimizer=training.OptimizerConfig(lr=1e-3),
        batch_size=256, max_epochs=epochs, patience=epochs, seed=seed,
        variant="Total", dataset=dataset)


class StepClock:
    """Reads the clock as each ``autodiff.adam_step`` returns.

    ``training`` calls ``ad.adam_step`` through the module, so replacing the
    module attribute reaches every step.
    """

    def __init__(self):
        self.returns: list[float] = []
        self._original = None

    def install(self):
        original = self._original = ad.adam_step
        returns = self.returns

        def adam_step(params, grads, state):
            original(params, grads, state)
            returns.append(time.perf_counter())

        ad.adam_step = adam_step

    def uninstall(self):
        ad.adam_step = self._original


class NullTracer:
    """Stands in for ``tracing.Tracer`` in untraced runs."""

    def span(self, name: str):
        return _NULL_SPAN

    def collect(self):
        gc.collect()


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class UnitResult:
    """What one unit of work produced; times exclude failed operations."""
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)   # steady epochs (epoch >= 1)
    step_ms: list[float] = field(default_factory=list)   # within steady epochs
    eval_ms: list[float] = field(default_factory=list)   # one do-value each
    pass_s: float | None = None                          # grid sweep (evaluate_demand)

    def fail(self, what: str, exc: Exception):
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def _finite(name: str, values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailed(f"{name} is not finite")


def _close(name: str, got: float, want: float) -> None:
    if not np.isclose(got, want, rtol=REFERENCE_RTOL, atol=1e-12):
        raise CheckFailed(f"{name} = {got!r}, reference forward gives {want!r}")


def reference_outcome(model: md.SD2Model, x: np.ndarray, t_value: float) -> np.ndarray:
    """``model.predict_outcome`` recomputed in plain numpy, for the benchmark's
    configuration (elu activations, factual treatment channel)."""
    p, cfg = model.params, model.config

    def dense(h, name, activation):
        z = h @ p[name + ".W"] + p[name + ".b"]
        if activation == "elu":
            return np.maximum(z, 0.0) + np.exp(np.minimum(z, 0.0)) - 1.0
        if activation == "sigmoid":
            return np.exp(-np.logaddexp(0.0, -z))
        return z

    def encoder(prefix):
        h = x
        for i in range(cfg.enc_layers + 1):
            h = dense(h, f"{prefix}.l{i}", "elu")
        return h

    h = dense(np.concatenate([encoder("enc_c"), encoder("enc_a")], axis=1), "retain_y.l0", "elu")
    h = np.concatenate([np.full((len(x), 1), float(t_value)), h], axis=1)
    out = dense(dense(h, "head_y.l0", "elu"), "head_y.l1",
                "sigmoid" if cfg.mode == "binary" else "identity")
    return out[:, 0]


def reference_eps_ate(model, ds) -> float:
    x = ds.covariates()
    effect = reference_outcome(model, x, 1.0) - reference_outcome(model, x, 0.0)
    return float(abs(np.mean(ds.p1 - ds.p0) - effect.mean()))


def reference_cf_mse(model, ds, grid) -> float:
    x = ds.covariates()
    return float(np.mean([np.mean((reference_outcome(model, x, tv) - ds.surface(tv)) ** 2)
                          for tv in grid]))


def steady_step_intervals(returns: list[float], epoch_seconds: list[float],
                          train_returned: float) -> list[float]:
    """Intervals between consecutive step returns inside one epoch >= 1, in ms.

    Epochs run back to back and ``train`` returns right after the last one, so
    walking ``epoch_seconds`` back from its return recovers each epoch's start;
    the slack between epochs is microseconds, while each epoch ends with a
    validation pass and starts with a shuffle.
    """
    if len(returns) < 2:
        return []
    starts = train_returned - np.cumsum(epoch_seconds[::-1])[::-1]
    stamps = np.asarray(returns)
    epoch = np.searchsorted(starts, stamps, side="right") - 1
    keep = (epoch[1:] == epoch[:-1]) & (epoch[1:] >= 1)
    return list(np.diff(stamps)[keep] * 1e3)


@dataclass
class TrainState:
    config: training.TrainConfig
    data: tuple
    checkpoint: Path
    timings: dict
    digest: str | None = None       # checkpoint sha256 of the first round
    quality: float | None = None    # quality_out of the first round


@dataclass(frozen=True)
class TrainWorkload:
    """Train a fresh model for a fixed number of epochs, save it, score it on
    the test split.  One round is one operation."""
    name: str
    mode: str
    dataset: dict
    epochs: int

    @property
    def quality_name(self) -> str:
        return "eps_ate" if self.mode == "binary" else "counterfactual_mse"

    def setup(self, seed: int, workdir: Path) -> TrainState:
        config = train_config(self.mode, self.dataset, self.epochs, seed)
        started = time.perf_counter()
        data = training.resolve_data(config, seed)
        generate_s = time.perf_counter() - started
        return TrainState(config, data, workdir / "checkpoint.bin", {"generate_s": generate_s})

    def unit(self, state: TrainState, clock: StepClock, tracer) -> UnitResult:
        result = UnitResult(attempted=1)
        train_ds, val_ds, test_ds = state.data
        quality_fn = getattr(evaluation, self.quality_name)
        del clock.returns[:]
        try:
            with tracer.span("training.train"):
                trained, history = training.train(state.config, train_ds, val_ds)
            returned = time.perf_counter()
            with tracer.span("model.checkpoint_save"):
                md.checkpoint_save(trained, state.checkpoint)
            digest = hashlib.sha256(state.checkpoint.read_bytes()).hexdigest()
            with tracer.span("model.checkpoint_load"):
                loaded = md.checkpoint_load(state.checkpoint)
            with tracer.span("evaluation." + self.quality_name):
                quality = quality_fn(trained, test_ds)
            self._check(state, trained, loaded, history, clock.returns, digest, quality)
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            result.fail("round", exc)
            return result
        result.epoch_s = list(history.epoch_seconds[1:])
        result.step_ms = steady_step_intervals(clock.returns, history.epoch_seconds, returned)
        return result

    def _check(self, state, trained, loaded, history, steps, digest, quality):
        if not steps:
            raise CheckFailed("no optimizer step was taken")
        if len(history.epoch_seconds) != self.epochs:
            raise CheckFailed(f"trained {len(history.epoch_seconds)} of {self.epochs} epochs")
        for row in history.rows:
            _finite(f"epoch {row['epoch']} {row['split']} losses",
                    [v for k, v in row.items() if k not in ("epoch", "split")])
        _finite("selection criterion", history.criterion)
        for name, value in trained.params.items():
            _finite(f"parameter {name}", value)
            if not np.array_equal(value, loaded.params[name]):
                raise CheckFailed(f"checkpoint round trip changed {name}")
        if loaded.config != trained.config:
            raise CheckFailed("checkpoint round trip changed the architecture")
        _finite(self.quality_name, quality)
        if state.digest is None:
            test_ds = state.data[2]
            if self.mode == "binary":
                want = reference_eps_ate(trained, test_ds)
            else:
                want = reference_cf_mse(trained, test_ds, evaluation.default_grid(test_ds.t))
            _close(self.quality_name, quality, want)
            state.digest, state.quality = digest, quality
        elif (digest, quality) != (state.digest, state.quality):
            raise CheckFailed(f"round differs from the first round of the same seed: "
                              f"{(digest[:12], quality)} vs {(state.digest[:12], state.quality)}")


@dataclass
class EvalState:
    model: md.SD2Model
    test: datagen.GeneratedDataset
    grid: np.ndarray
    timings: dict
    digest: str                     # checkpoint sha256
    values: list | None = None      # counterfactual MSE per do-value, first sweep
    quality: float | None = None    # their mean: the MSE over the whole grid


@dataclass(frozen=True)
class EvalWorkload:
    """Counterfactual MSE of a demand checkpoint, one do-value per call,
    sweeping ``default_grid``.  One call is one operation."""
    name: str
    dataset: dict

    def setup(self, seed: int, workdir: Path) -> EvalState:
        config = train_config("continuous", self.dataset, 1, seed)
        started = time.perf_counter()
        test = training.resolve_data(config, seed)[2]
        generate_s = time.perf_counter() - started
        arch = md.ArchConfig(input_dim=test.covariates().shape[1], mode="continuous",
                             **README_ARCH)
        path = workdir / "checkpoint.bin"
        started = time.perf_counter()
        md.checkpoint_save(md.init_model(arch, seed), path)
        save_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        loaded = md.checkpoint_load(path)
        load_ms = (time.perf_counter() - started) * 1e3
        return EvalState(loaded, test, evaluation.default_grid(test.t),
                         {"generate_s": generate_s, "checkpoint_save_ms": save_ms,
                          "checkpoint_load_ms": load_ms},
                         hashlib.sha256(path.read_bytes()).hexdigest())

    def unit(self, state: EvalState, clock: StepClock, tracer) -> UnitResult:
        result = UnitResult()
        values = []
        for i, tv in enumerate(state.grid):
            result.attempted += 1
            values.append(None)
            try:
                started = time.perf_counter()
                with tracer.span("evaluation.counterfactual_mse"):
                    value = evaluation.counterfactual_mse(state.model, state.test, [tv])
                elapsed = time.perf_counter() - started
                what = f"counterfactual MSE at do({tv:.4f})"
                _finite(what, value)
                if state.values is None:
                    _close(what, value, reference_cf_mse(state.model, state.test, [tv]))
                elif state.values[i] is not None and value != state.values[i]:
                    raise CheckFailed(f"{what} = {value!r}, first sweep {state.values[i]!r}")
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                result.fail(f"do({tv:.4f})", exc)
                continue
            values[i] = value
            result.eval_ms.append(elapsed * 1e3)
        if state.values is None:
            state.values = values
            if None not in values:
                state.quality = float(np.mean(values))
        if len(result.eval_ms) == len(state.grid):
            result.pass_s = sum(result.eval_ms) / 1e3
        return result


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads by name; ``tiny`` shrinks them for the self-test."""
    n = 600 if tiny else 10_000
    epochs = 2 if tiny else 5
    twins = {k: v for k, v in asdict(datagen.fixture_spec()).items() if k != "seed"}
    demand = {"kind": "demand", "alpha": 0.0, "beta": 1.0, "n": n}
    return {w.name: w for w in (
        TrainWorkload("train_binary", "binary",
                      {"kind": "synthetic_binary", "mv": 0, "mz": 4, "mc": 4, "ma": 2,
                       "mu": 2, "n": n}, epochs),
        TrainWorkload("train_demand", "continuous", demand, epochs),
        TrainWorkload("train_twins", "binary", {"kind": "twins", **twins},
                      20 if tiny else 200),
        EvalWorkload("evaluate_demand", demand),
    )}
