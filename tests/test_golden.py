"""Golden values for both treatment modes.

Recorded before the binary and continuous graphs and losses were merged into
one family-generic path; a refactor that changes any of them changed
behaviour.  Tiny configs keep this at tier-1 speed.  Each key names the
treatment channel its values were recorded under; ``factual`` is now the only
treatment input the outcome head has.
"""

import pytest

from sd2 import autodiff as ad
from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2 import training as tr
from sd2.losses import (LossBreakdown, LossWeights, importance_weights, total_loss_binary,
                        total_loss_continuous)
from sd2.model import ArchConfig, bind, forward_binary, forward_continuous, init_model

REL = 1e-9
ARCH = dict(rep_dim=4, enc_hidden=8, head_hidden=4)
WEIGHTS = LossWeights(alpha=1.0, beta=0.5, gamma=1.0, delta=0.01)

# LossBreakdown.FIELDS of one 64-row batch at init (seed 5).
BATCH = {
    ("binary", "factual"): (1.4341390254644981, 0.8148230602265522, 0.12998921927660628,
                            1.4551363439062845, 0.8795121964538402, 0.0,
                            105.63403904846608, 5.70494562617414),
    ("continuous", "factual"): (19.634716372180982, 292.84097203037044, 816.6110129848153,
                                3628.3918307260856, 1346.0578438173193, 1343.3191497271523,
                                134.27752626341297, 7039.8927944281495),
}

# Test-split eps_ate (binary) / counterfactual_mse (continuous) after 2 epochs.
TRAINED = {
    ("binary", "factual"): 0.20997061434080647,
    ("continuous", "factual"): 2285.258506762137,
}


def batch_breakdown(mode: str) -> LossBreakdown:
    if mode == "binary":
        ds = dg.gen_binary(dg.SyntheticSpec(n=64, mz=2, mc=2, ma=1, mu=1, seed=3))
    else:
        ds = dg.gen_continuous(dg.DemandSpec(n=64, seed=3))
    x = ds.covariates()
    model = init_model(ArchConfig(input_dim=x.shape[1], mode=mode, **ARCH), 5)
    tape = ad.Tape()
    params = bind(model, tape)
    if mode == "binary":
        outs = forward_binary(model, x, ds.t, tape, params)
        w = importance_weights(outs.q_t_c.value, ds.t)
        return total_loss_binary(outs, ds.t, ds.y, w, WEIGHTS, params)
    outs = forward_continuous(model, x, ds.t, tape, params)
    return total_loss_continuous(outs, ds.t, ds.y, WEIGHTS, params)


@pytest.mark.parametrize("key", sorted(BATCH), ids="-".join)
def test_batch_breakdown(key):
    bd = batch_breakdown(key[0])
    got = tuple(getattr(bd, f) for f in LossBreakdown.FIELDS)
    assert got == pytest.approx(BATCH[key], rel=REL)


@pytest.mark.parametrize("key", sorted(TRAINED), ids="-".join)
def test_trained_metric(key):
    mode = key[0]
    dataset = ({"kind": "synthetic_binary", "n": 300, "mz": 2, "mc": 2, "ma": 1, "mu": 1}
               if mode == "binary" else {"kind": "demand", "n": 300})
    cfg = tr.TrainConfig(mode=mode, arch=ArchConfig(input_dim=1, **ARCH),
                         weights=WEIGHTS, batch_size=64, max_epochs=2, patience=2, seed=11,
                         dataset=dataset)
    train, val, test = tr.resolve_data(cfg, cfg.seed)
    model, _ = tr.train(cfg, train, val)
    assert ev.METRICS[mode].score(model, test) == pytest.approx(TRAINED[key], rel=REL)
