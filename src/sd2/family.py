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

PROB_FLOOR = 1e-7  # probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR]
LOG_2PI = float(np.log(2.0 * np.pi))
LOG_STD_MIN = -5.0
LOG_STD_MAX = 3.0


class Gaussian(NamedTuple):
    mean: ad.Tensor
    log_std: ad.Tensor


def _clip(x: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """x clipped to [lo, hi] (the bits of ``np.clip``, from the ufuncs it
    calls), and the mask through which a clip passes gradients."""
    return np.minimum(np.maximum(x, lo), hi), ((x >= lo) & (x <= hi)).astype(np.float64)


def _pairs(*pairs) -> tuple:
    """(node, vjp) pairs without those of a detached teacher (node None)."""
    return tuple(pair for pair in pairs if pair[0] is not None)


# A head is prepared once per objective: everything the family's terms read of
# it (a Bernoulli head's clamped column, its complement and both logs; a
# Gaussian head's variance and inverse variance) is computed once and shared
# by every term that reads the head.  A teacher is the prepared head with its
# node dropped (``head._replace(node=None)``): the same arrays, and no pair
# through which a gradient could flow.  These stop-gradient KL terms are what
# SD² puts where other methods minimise an estimate of mutual information.
#
# Each term below returns its per-sample values and (node, vjp) pairs, and its
# name is the op its failure reports.  The values and VJPs repeat the
# elementwise operations of the term written with autodiff primitives (clip,
# neg, shift, log, scale, exp, square, mul, add, sub), in the same order, so
# values and gradients are bit-identical to that composition, which
# tests/reference_ops.py keeps as the oracle.  Pairs are listed in the order
# their contributions reached the nodes in the composition; a node the
# composition reached twice is listed twice.


class BernoulliHead(NamedTuple):
    """A probability column clamped away from {0, 1}, the mask through which
    the clamp passes gradients, the complement and both logs."""
    node: ad.Tensor | None
    qc: np.ndarray
    mask: np.ndarray
    one_q: np.ndarray
    log_q: np.ndarray
    log_one_q: np.ndarray

    @classmethod
    def of(cls, q: ad.Tensor) -> "BernoulliHead":
        qc, mask = _clip(q.value, PROB_FLOOR, 1.0 - PROB_FLOOR)
        one_q = -qc + 1.0
        return cls(q, qc, mask, one_q, np.log(qc), np.log(one_q))


class GaussianHead(NamedTuple):
    """Mean and log-std columns, exp(2 log_std) and exp(-2 log_std)."""
    node: Gaussian | None
    mean: np.ndarray
    log_std: np.ndarray
    var: np.ndarray
    inv_var: np.ndarray

    @classmethod
    def of(cls, g: Gaussian) -> "GaussianHead":
        log_std = g.log_std.value
        return cls(g, g.mean.value, log_std, np.exp(log_std * 2.0), np.exp(log_std * -2.0))

    @property
    def mean_node(self):
        return None if self.node is None else self.node.mean

    @property
    def log_std_node(self):
        return None if self.node is None else self.node.log_std


def bernoulli_ce(q: BernoulliHead, y: np.ndarray):
    """Per-sample cross-entropy -[y ln q + (1-y) ln(1-q)] of an (n, 1) target."""
    not_y = 1.0 - y
    value = -(q.log_q * y + q.log_one_q * not_y)

    def vjp(g):
        g = -g
        return ((g * y) / q.qc + -((g * not_y) / q.one_q)) * q.mask

    return value, _pairs((q.node, vjp))


def bernoulli_kl(q: BernoulliHead, p: BernoulliHead):
    """Per-sample KL(Bern(q) || Bern(p))."""
    log_ratio = q.log_q - p.log_q
    log_ratio_1 = q.log_one_q - p.log_one_q
    value = q.qc * log_ratio + q.one_q * log_ratio_1

    def vjp_p(g):
        return ((-(g * q.qc)) / p.qc + -((-(g * q.one_q)) / p.one_q)) * p.mask

    def vjp_q(g):
        return (((g * log_ratio) + (g * q.qc) / q.qc)
                + -((g * log_ratio_1) + (g * q.one_q) / q.one_q)) * q.mask

    return value, _pairs((p.node, vjp_p), (q.node, vjp_q))


def gaussian_nll(g: GaussianHead, target: np.ndarray):
    """Per-sample -ln N(target; mu, sigma^2) of an (n, 1) target, with
    sigma = exp(log_std)."""
    resid = -g.mean + target
    inv_var = g.inv_var
    sq = resid ** 2
    value = (sq * inv_var) * 0.5 + (g.log_std + 0.5 * LOG_2PI)

    def via_var(grad):
        return (((grad * 0.5) * sq) * inv_var) * -2.0

    def via_mean(grad):
        return -((((grad * 0.5) * inv_var) * 2.0) * resid)

    return value, _pairs((g.log_std_node, lambda grad: grad), (g.log_std_node, via_var),
                         (g.mean_node, via_mean))


def gaussian_kl(q: GaussianHead, p: GaussianHead):
    """Per-sample closed-form KL between two diagonal Gaussians."""
    var_q = q.var
    inv_var_p = p.inv_var
    diff = q.mean - p.mean
    num = var_q + diff ** 2
    value = ((p.log_std - q.log_std) + (num * inv_var_p) * 0.5) + -0.5

    def via_diff(grad):
        return (((grad * 0.5) * inv_var_p) * 2.0) * diff

    return value, _pairs(
        (p.log_std_node, lambda grad: grad),
        (q.log_std_node, lambda grad: -grad),
        (q.mean_node, via_diff),
        (p.mean_node, lambda grad: -via_diff(grad)),
        (p.log_std_node, lambda grad: (((grad * 0.5) * num) * inv_var_p) * -2.0),
        (q.log_std_node, lambda grad: (((grad * 0.5) * inv_var_p) * var_q) * 2.0))


def _gaussian_head(out: ad.Tensor) -> Gaussian:
    """Mean column and clipped log-std column of a head's last layer, one
    node each, unchecked: the layer has just checked ``out``, and a clip keeps
    finite values finite."""
    log_std, mask = _clip(out.value[:, 1:2], LOG_STD_MIN, LOG_STD_MAX)

    def column(j, g):
        grad = np.zeros_like(out.value)
        grad[:, j:j + 1] = g
        return grad

    return Gaussian(
        ad.Tensor(out.tape, out.value[:, 0:1], (out,), (lambda g: column(0, g),), "mean",
                  checked=True),
        ad.Tensor(out.tape, log_std, (out,), (lambda g: column(1, g * mask),), "log_std",
                  checked=True))


class Family(NamedTuple):
    """A head's last dense layer has ``out_dim`` units and ``activation``;
    ``head`` turns that layer's output into the family's parameters, and
    ``prepare`` turns those into what the terms read."""
    out_dim: int
    activation: str
    head: Callable
    prepare: Callable   # head -> BernoulliHead | GaussianHead
    nll: Callable       # (prepared head, (n, 1) targets) -> per-sample negative log-likelihood
    kl: Callable        # (prepared q, prepared p) -> per-sample KL(q || p)


BERNOULLI = Family(out_dim=1, activation="sigmoid", head=lambda q: q,
                   prepare=BernoulliHead.of, nll=bernoulli_ce, kl=bernoulli_kl)
GAUSSIAN = Family(out_dim=2, activation="identity", head=_gaussian_head,
                  prepare=GaussianHead.of, nll=gaussian_nll, kl=gaussian_kl)
FAMILIES = {"binary": BERNOULLI, "continuous": GAUSSIAN}
