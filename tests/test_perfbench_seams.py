"""The seams perfbench's traced run wraps in the package.

`perfbench/tracing.py` replaces package functions by name where their callers
look them up, and `perfbench/workloads.py`'s `StepClock` replaces
`autodiff.adam_step`.  A rename in `src`, or a caller that stops going
through the wrapped name, would break `run.py --trace 1` or silently leave a
span empty.  This runs a tiny traced binary and demand training and a demand
scoring, and checks that every span the per-layer table reads was recorded
and that uninstalling restores every wrapped attribute.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sd2 import autodiff as ad
from sd2 import evaluation, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (owner, attribute) of every wrapper `Tracer.install` puts in place
SEAMS = [(training, name) for name in (
    "bind", "forward_binary", "forward_continuous", "total_loss_binary",
    "total_loss_continuous", "importance_weights", "_eval_breakdown")] + [
    (ad, "adam_step"), (ad.Tape, "gradients"), (ad, "Tape"), (evaluation, "predict_outcome")]

# the spans `Tracer.layer_metrics` reads for the per-layer table
SPANS = {"model.bind", "model.forward", "losses.total", "training.val_pass",
         "autodiff.backward", "autodiff.adam", "model.predict"}


def _load(name: str, monkeypatch):
    """perfbench/<name>.py as a module, leaving no bytecode in perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def perfbench(monkeypatch):
    return _load("tracing", monkeypatch), _load("workloads", monkeypatch)


def test_traced_run_records_every_span_and_restores_every_seam(perfbench):
    tracing, workloads = perfbench
    before = {(owner, name): getattr(owner, name) for owner, name in SEAMS}
    clock = workloads.StepClock()
    tracer = tracing.Tracer()
    clock.install()  # as perfbench/run.py does: the clock first, then the tracer
    tracer.install()
    try:
        assert {(owner, name) for owner, name, _ in tracer._undo} == set(SEAMS)
        for mode, dataset in (
                ("binary", {"kind": "synthetic_binary", "mz": 2, "mc": 2, "ma": 1, "mu": 1,
                            "n": 300}),
                ("continuous", {"kind": "demand", "n": 300})):
            config = workloads.train_config(mode, dataset, epochs=1, seed=3)
            train_ds, val_ds, test_ds = training.resolve_data(config, 3)
            model, _ = training.train(config, train_ds, val_ds)
        evaluation.counterfactual_mse(model, test_ds, evaluation.default_grid(test_ds.t)[:2])
    finally:
        tracer.uninstall()
        clock.uninstall()
    assert {(owner, name): getattr(owner, name) for owner, name in SEAMS} == before
    recorded = [span[0] for span in tracer.spans]
    assert SPANS <= set(recorded), SPANS - set(recorded)
    # two 300-row epochs of batch 256 take two Adam steps each
    assert len(clock.returns) == recorded.count("autodiff.adam") == 4
