"""Microbenchmarks of the hot kernels, at the README architecture.

Rounds are bounded with ``benchmark.pedantic`` so the module stays cheap in
the default test run; each case asserts its result, never its time.  Compare
runs with ``pytest tests/test_microbench.py --benchmark-only``.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from sd2 import autodiff as ad  # noqa: E402
from sd2 import model as M  # noqa: E402
from sd2 import rng  # noqa: E402
from sd2.losses import LossWeights, total_loss_binary  # noqa: E402

ROUNDS = 5
README_ARCH = dict(rep_dim=8, enc_hidden=64, enc_layers=2, head_hidden=32)


def _pedantic(benchmark, target, setup=None):
    return benchmark.pedantic(target, setup=setup, rounds=ROUNDS, iterations=1,
                              warmup_rounds=1)


@pytest.mark.parametrize("record", [True, False], ids=["recorded", "tape_free"])
def test_dense(benchmark, record):
    x = rng.normal_matrix(1, 10_000, 64)
    w = ad.glorot_init(2, 64, 64)
    b = np.full(64, 0.1)

    def run():
        tape = ad.Tape(record=record)
        return ad.dense(tape.constant(x), tape.parameter(w, "w"),
                        tape.parameter(b, "b"), "elu").value

    out = _pedantic(benchmark, run)
    pre = x @ w + b
    assert np.array_equal(out, np.maximum(pre, 0.0) + np.exp(np.minimum(pre, 0.0)) - 1.0)


def test_predict_outcome(benchmark):
    model = M.init_model(M.ArchConfig(input_dim=6, mode="continuous", **README_ARCH), 3)
    x = rng.normal_matrix(4, 10_000, 6)
    out = _pedantic(benchmark, lambda: M.predict_outcome(model, x, 1.5))
    assert out.shape == (10_000,) and np.all(np.isfinite(out))


def _training_step_setup(batch=256):
    model = M.init_model(M.ArchConfig(input_dim=10, **README_ARCH), 5)
    x = rng.normal_matrix(6, batch, 10)
    t = (np.arange(batch) % 2).astype(np.float64)
    y = rng.bernoulli(7, np.full(batch, 0.5))
    return model, x, t, y


def test_tape_gradients(benchmark):
    model, x, t, y = _training_step_setup()

    def setup():
        tape = ad.Tape()
        params = M.bind(model, tape)
        outputs = M.forward_binary(model, x, t, tape, params)
        bd = total_loss_binary(outputs, t, y, np.ones(len(t)), LossWeights(), params)
        return (tape, bd.node), {}

    value, grads = _pedantic(benchmark, lambda tape, node: tape.gradients(node), setup=setup)
    assert np.isfinite(value)
    assert {k: g.shape for k, g in grads.items()} == {k: p.shape
                                                       for k, p in model.params.items()}


def test_adam_step(benchmark):
    model, *_ = _training_step_setup()
    params = model.copy_params()
    grads = {k: np.ones_like(v) for k, v in params.items()}
    state = ad.AdamState(params, lr=1e-3)
    _pedantic(benchmark, lambda: ad.adam_step(params, grads, state))
    assert state.step == ROUNDS + 1
    assert all(np.all(params[k] < model.params[k]) for k in params)


def test_mmd_rbf(benchmark):
    a = rng.normal_matrix(8, 128, 8)
    b = rng.normal_matrix(9, 128, 8) + 0.5

    def run():
        tape = ad.Tape()
        return ad.mmd_rbf(tape.constant(a), tape.constant(b), bandwidth=1.0).value

    value = _pedantic(benchmark, run)
    assert 0.0 < value < 2.0
