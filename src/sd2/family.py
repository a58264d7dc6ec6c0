"""Outcome families: the distribution every head parameterises.

Binary treatments and outcomes are Bernoulli (a head outputs a probability
column); continuous ones are Gaussian (a head outputs a mean and a clipped
log std).  The encoders, retain networks, heads and distillation terms are the
same in both treatment modes; the family is what the mode chooses.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .infotheory import PROB_FLOOR

LOG_2PI = float(np.log(2.0 * np.pi))
LOG_STD_MIN = -5.0
LOG_STD_MAX = 3.0


class Gaussian(NamedTuple):
    mean: ad.Tensor
    log_std: ad.Tensor


def _clipped(q: ad.Tensor) -> ad.Tensor:
    return ad.clip(q, PROB_FLOOR, 1.0 - PROB_FLOOR)


def bernoulli_ce_vec(q: ad.Tensor, y: np.ndarray) -> ad.Tensor:
    """Per-sample cross-entropy -[y ln q + (1-y) ln(1-q)], q clamped."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    qc = _clipped(q)
    one_minus = ad.shift(ad.neg(qc), 1.0)
    return ad.neg(ad.add(ad.scale(ad.log(qc), y), ad.scale(ad.log(one_minus), 1.0 - y)))


def bernoulli_kl_vec(q: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
    """Per-sample KL(Bern(q) || Bern(p)), both clamped away from {0, 1}."""
    qc = _clipped(q)
    pc = _clipped(p)
    one_q = ad.shift(ad.neg(qc), 1.0)
    one_p = ad.shift(ad.neg(pc), 1.0)
    pos = ad.mul(qc, ad.sub(ad.log(qc), ad.log(pc)))
    neg_part = ad.mul(one_q, ad.sub(ad.log(one_q), ad.log(one_p)))
    return ad.add(pos, neg_part)


def gaussian_nll_vec(g: Gaussian, target: np.ndarray) -> ad.Tensor:
    """Per-sample -ln N(target; mu, sigma^2) with sigma = exp(log_std)."""
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    resid = ad.shift(ad.neg(g.mean), target)
    inv_var = ad.exp(ad.scale(g.log_std, -2.0))
    return ad.add(ad.scale(ad.mul(ad.square(resid), inv_var), 0.5),
                  ad.shift(g.log_std, 0.5 * LOG_2PI))


def gaussian_kl_vec(q: Gaussian, p: Gaussian) -> ad.Tensor:
    """Per-sample closed-form KL between two diagonal Gaussians."""
    var_q = ad.exp(ad.scale(q.log_std, 2.0))
    inv_var_p = ad.exp(ad.scale(p.log_std, -2.0))
    num = ad.add(var_q, ad.square(ad.sub(q.mean, p.mean)))
    return ad.shift(ad.add(ad.sub(p.log_std, q.log_std),
                           ad.scale(ad.mul(num, inv_var_p), 0.5)), -0.5)


def _gaussian_head(out: ad.Tensor) -> Gaussian:
    mu = ad.select_cols(out, 0)
    log_std = ad.clip(ad.select_cols(out, 1), LOG_STD_MIN, LOG_STD_MAX)
    return Gaussian(mu, log_std)


class Family(NamedTuple):
    """A head's last dense layer has ``out_dim`` units and ``activation``;
    ``head`` turns that layer's output into the family's parameters."""
    out_dim: int
    activation: str
    head: Callable
    nll_vec: Callable   # (head, targets) -> per-sample negative log-likelihood
    kl_vec: Callable    # (q, p) -> per-sample KL(q || p)
    detach: Callable    # head -> stop-gradient copy
    mean: Callable      # head -> predictive mean column


BERNOULLI = Family(out_dim=1, activation="sigmoid", head=lambda q: q,
                   nll_vec=bernoulli_ce_vec, kl_vec=bernoulli_kl_vec, detach=ad.detach,
                   mean=lambda q: q)
GAUSSIAN = Family(out_dim=2, activation="identity", head=_gaussian_head,
                  nll_vec=gaussian_nll_vec, kl_vec=gaussian_kl_vec,
                  detach=lambda g: Gaussian(ad.detach(g.mean), ad.detach(g.log_std)),
                  mean=lambda g: g.mean)
FAMILIES = {"binary": BERNOULLI, "continuous": GAUSSIAN}
