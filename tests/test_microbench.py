"""Microbenchmarks of the hot kernels, at the README architecture.

Rounds are bounded with ``benchmark.pedantic`` so the module stays cheap in
the default test run; each case asserts its result, never its time.  Compare
runs with ``pytest tests/test_microbench.py --benchmark-only``.
"""

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

import reference_ops as R  # noqa: E402
from sd2 import autodiff as ad  # noqa: E402
from sd2 import datagen as dg  # noqa: E402
from sd2 import family as F  # noqa: E402
from sd2 import model as M  # noqa: E402
from sd2 import rng  # noqa: E402
from sd2 import training as tr  # noqa: E402
from sd2 import losses as L  # noqa: E402
from sd2.losses import LossWeights, total_loss_binary, total_loss_continuous  # noqa: E402

ROUNDS = 5
README_ARCH = dict(rep_dim=8, enc_hidden=64, enc_layers=2, head_hidden=32)
README_WEIGHTS = LossWeights(alpha=1.0, beta=0.5, gamma=1.0, delta=0.01)


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


@pytest.mark.parametrize("path", ["miss", "hit"])
def test_predict_outcome(benchmark, path):
    """One do-value on 10,000 rows, on a fresh model each round: ``miss``
    runs the encoders, ``hit`` reuses what an earlier do-value left."""
    model = M.init_model(M.ArchConfig(input_dim=6, mode="continuous", **README_ARCH), 3)
    x = rng.normal_matrix(4, 10_000, 6)

    def setup():
        fresh = M.SD2Model(model.config, model.seed, model.params)
        if path == "hit":
            M.predict_outcome(fresh, x, 0.5)
        return (fresh,), {}

    out = _pedantic(benchmark, lambda m: M.predict_outcome(m, x, 1.5), setup=setup)
    assert np.array_equal(out, R.split_outcome(model, x, 1.5))
    recorded = M.forward_continuous(model, x, np.full(10_000, 1.5), ad.Tape())
    assert np.all(np.abs(out - recorded.q_y.mean.value[:, 0])
                  <= R.prediction_bound(model, x, 1.5))


@pytest.mark.parametrize("mode", ["binary", "continuous"])
def test_validation_pass(benchmark, mode, record_every_tape):
    """`_eval_breakdown` over a 10,000-row split at the README config."""
    kind = "synthetic_binary" if mode == "binary" else "demand"
    val = dg.generate(dg.spec_from_ref({"kind": kind, "n": 10_000, "seed": 4}))
    cfg = tr.TrainConfig(mode=mode, weights=README_WEIGHTS,
                         arch=M.ArchConfig(input_dim=1, **README_ARCH))
    model = M.init_model(tr._arch_for(cfg, val.covariates().shape[1]), 3)

    def run():
        bd, criterion = tr._eval_breakdown(cfg, model, val)
        return [getattr(bd, f) for f in bd.FIELDS] + [criterion]

    values = _pedantic(benchmark, run)
    record_every_tape()  # the reference runs each chunk's forward unblocked
    assert np.all(np.isfinite(values)) and run() == values


def _training_step_setup(batch=256, mode="binary"):
    model = M.init_model(M.ArchConfig(input_dim=10, mode=mode, **README_ARCH), 5)
    x = rng.normal_matrix(6, batch, 10)
    if mode == "binary":
        t = (np.arange(batch) % 2).astype(np.float64)
        y = rng.bernoulli(7, np.full(batch, 0.5))
    else:
        t, y = rng.normals(7, 0, batch), rng.normals(8, 0, batch)
    return model, x, t, y


@pytest.mark.parametrize("mode", ["binary", "continuous"])
def test_training_step(benchmark, mode):
    """bind -> forward -> loss -> gradients -> adam_step at the README config."""
    model, x, t, y = _training_step_setup(mode=mode)
    state = ad.AdamState(model.params, lr=1e-3)
    before = model.copy_params()

    def step():
        tape = ad.Tape()
        params = M.bind(model, tape)
        if mode == "binary":
            outputs = M.forward_binary(model, x, t, tape, params)
            bd = total_loss_binary(outputs, t, y, np.ones(len(t)), README_WEIGHTS, params)
        else:
            outputs = M.forward_continuous(model, x, t, tape, params)
            bd = total_loss_continuous(outputs, t, y, README_WEIGHTS, params)
        value, grads = tape.gradients(bd.node)
        ad.adam_step(model.params, grads, state)
        return value

    value = _pedantic(benchmark, step)
    assert np.isfinite(value) and state.step == ROUNDS + 1
    assert all(not np.array_equal(model.params[k], before[k])
               for k in model.params if k.endswith(".W"))


def _gaussian(tape, key, rows=256):
    out = rng.normal_matrix(key, rows, 2)
    return F.GAUSSIAN.head(tape.parameter(out, f"out{key}"))


FAMILY_TERMS = {
    "bernoulli_ce": lambda tape: R.bernoulli_ce_vec(
        R.sigmoid(tape.parameter(rng.normal_matrix(11, 256, 1), "q")),
        rng.bernoulli(12, np.full(256, 0.5))),
    "bernoulli_kl": lambda tape: R.bernoulli_kl_vec(
        R.sigmoid(tape.parameter(rng.normal_matrix(11, 256, 1), "q")),
        R.sigmoid(tape.parameter(rng.normal_matrix(13, 256, 1), "p"))),
    "gaussian_nll": lambda tape: R.gaussian_nll_vec(_gaussian(tape, 14), rng.normals(15, 0, 256)),
    "gaussian_kl": lambda tape: R.gaussian_kl_vec(_gaussian(tape, 14), _gaussian(tape, 16)),
}


@pytest.mark.parametrize("term", sorted(FAMILY_TERMS))
def test_family_term(benchmark, term):
    """A per-sample family term as one node on 256 rows, forward and backward."""
    def run():
        tape = ad.Tape()
        return tape.gradients(R.mean_all(FAMILY_TERMS[term](tape)))

    value, grads = _pedantic(benchmark, run)
    assert np.isfinite(value)
    assert grads and all(np.all(np.isfinite(g)) and np.any(g != 0) for g in grads.values())


@pytest.mark.parametrize("mode", ["binary", "continuous"])
def test_objective(benchmark, mode):
    """The objective over the heads of a README-config forward pass on 256
    rows, forward and backward; equal to the composition it fuses."""
    model, x, t, y = _training_step_setup(mode=mode)
    outputs = (M.forward_binary if mode == "binary" else M.forward_continuous)(model, x, t)

    def run(losses):
        tape = ad.Tape()
        params = M.bind(model, tape)
        heads = {name: F.FAMILIES[mode].head(tape.parameter(
                     np.hstack([h.mean.value, h.log_std.value]) if mode == "continuous"
                     else h.value, f"head{i}"))
                 for i, (name, h) in enumerate(outputs._asdict().items())
                 if h is not None and name not in M.Representations._fields}
        if mode == "binary":
            r_a = tape.parameter(outputs.r_a.value, "r_a")
            bd = losses.total_loss_binary(M.HeadOutputs(**heads, r_a=r_a), t, y,
                                          np.ones(len(t)), README_WEIGHTS, params)
        else:
            bd = losses.total_loss_continuous(M.HeadOutputs(**heads), t, y, README_WEIGHTS,
                                              params)
        return tape.gradients(bd.node)

    value, grads = _pedantic(benchmark, lambda: run(L))
    ref_value, ref_grads = run(R)
    assert value == ref_value and list(grads) == list(ref_grads)
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)


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

