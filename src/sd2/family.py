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


def _clip(x: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """x clipped to [lo, hi], and the mask through which `ad.clip` passes
    gradients."""
    return np.clip(x, lo, hi), ((x >= lo) & (x <= hi)).astype(np.float64)


def _clipped(q: ad.Tensor) -> tuple[np.ndarray, np.ndarray]:
    """A probability column clamped away from {0, 1}, and its mask."""
    return _clip(q.value, PROB_FLOOR, 1.0 - PROB_FLOOR)


# Each per-sample term below is one tape node.  Its value and its VJPs repeat
# the elementwise operations of the term written with `ad` primitives (clip,
# neg, shift, log, scale, exp, square, mul, add, sub), in the same order, so
# values and gradients are bit-identical to that composition, which
# tests/test_losses.py keeps as the oracle.  Parents are listed in the order
# their contributions reached them in the composition; a parent the
# composition reached twice is listed twice.


def bernoulli_ce_vec(q: ad.Tensor, y: np.ndarray) -> ad.Tensor:
    """Per-sample cross-entropy -[y ln q + (1-y) ln(1-q)], q clamped."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    not_y = 1.0 - y
    qc, mask = _clipped(q)
    one_q = -qc + 1.0
    value = -(np.log(qc) * y + np.log(one_q) * not_y)

    def vjp(g):
        g = -g
        return ((g * y) / qc + -((g * not_y) / one_q)) * mask

    return ad.Tensor(q.tape, value, (q,), (vjp,), "bernoulli_ce")


def bernoulli_kl_vec(q: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
    """Per-sample KL(Bern(q) || Bern(p)), both clamped away from {0, 1}."""
    qc, mask_q = _clipped(q)
    pc, mask_p = _clipped(p)
    one_q = -qc + 1.0
    one_p = -pc + 1.0
    log_ratio = np.log(qc) - np.log(pc)
    log_ratio_1 = np.log(one_q) - np.log(one_p)
    value = qc * log_ratio + one_q * log_ratio_1

    def vjp_p(g):
        return ((-(g * qc)) / pc + -((-(g * one_q)) / one_p)) * mask_p

    def vjp_q(g):
        return (((g * log_ratio) + (g * qc) / qc)
                + -((g * log_ratio_1) + (g * one_q) / one_q)) * mask_q

    return ad.Tensor(q.tape, value, (p, q), (vjp_p, vjp_q), "bernoulli_kl")


def gaussian_nll_vec(g: Gaussian, target: np.ndarray) -> ad.Tensor:
    """Per-sample -ln N(target; mu, sigma^2) with sigma = exp(log_std)."""
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    log_std = g.log_std.value
    resid = -g.mean.value + target
    inv_var = np.exp(log_std * -2.0)
    sq = resid ** 2
    value = (sq * inv_var) * 0.5 + (log_std + 0.5 * LOG_2PI)

    def via_var(grad):
        return (((grad * 0.5) * sq) * inv_var) * -2.0

    def via_mean(grad):
        return -((((grad * 0.5) * inv_var) * 2.0) * resid)

    return ad.Tensor(g.mean.tape, value, (g.log_std, g.log_std, g.mean),
                     (lambda grad: grad, via_var, via_mean), "gaussian_nll")


def gaussian_kl_vec(q: Gaussian, p: Gaussian) -> ad.Tensor:
    """Per-sample closed-form KL between two diagonal Gaussians."""
    var_q = np.exp(q.log_std.value * 2.0)
    inv_var_p = np.exp(p.log_std.value * -2.0)
    diff = q.mean.value - p.mean.value
    num = var_q + diff ** 2
    value = ((p.log_std.value - q.log_std.value) + (num * inv_var_p) * 0.5) + -0.5

    def via_diff(grad):
        return (((grad * 0.5) * inv_var_p) * 2.0) * diff

    parents = (p.log_std, q.log_std, q.mean, p.mean, p.log_std, q.log_std)
    vjps = (lambda grad: grad,
            lambda grad: -grad,
            via_diff,
            lambda grad: -via_diff(grad),
            lambda grad: (((grad * 0.5) * num) * inv_var_p) * -2.0,
            lambda grad: (((grad * 0.5) * inv_var_p) * var_q) * 2.0)
    return ad.Tensor(q.mean.tape, value, parents, vjps, "gaussian_kl")


def _gaussian_head(out: ad.Tensor) -> Gaussian:
    """Mean column and clipped log-std column of a head's last layer; the
    log std is one node (select and clip)."""
    mu = ad.select_cols(out, 0)
    log_std, mask = _clip(out.value[:, 1:2], LOG_STD_MIN, LOG_STD_MAX)

    def vjp(g):
        grad = np.zeros_like(out.value)
        grad[:, 1:2] = g * mask
        return grad

    return Gaussian(mu, ad.Tensor(out.tape, log_std, (out,), (vjp,), "log_std"))


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
