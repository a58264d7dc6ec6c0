"""Training objectives: factual terms, the distillation units, the adjustment
discrepancy, context-aware importance weights, and the weighted totals.

A teacher is a stop-gradient copy of a head, the prepared head without its
node, and each teacher term is KL(student || teacher); peer terms propagate
to both sides.  The binary total is

    mean_i(w_i * CE(q_y_i, y_i)) + alpha * CE(q_t, t) + beta * disc
    + gamma * (outcome unit + treatment unit) + delta * ||W||^2

where disc is the linear-kernel MMD of the adjustment representation (the
squared distance of the two groups' means) and w holds the importance weights
in the `Total` variant and ones in the others.  The continuous total swaps
cross-entropies for Gaussian likelihoods and adds the rebalance loss with its
own coefficient.  Both totals come from one function over the outcome family
(``family.py``).  Only what the two modes define differently is
mode-specific: the adjustment term (the MMD for binary treatments, a
head-based loss for continuous ones), the binary importance weights and the
continuous rebalance loss.

``TERMS`` declares each term once: its breakdown field, its coefficient, and
per mode the forward outputs it reads, which are the ones its function is
given.  The coefficients are the only switch:
a term whose coefficient is 0 is not built, its breakdown field is None (an
empty `history.csv` cell), and the forward builds only the outputs the kept
terms read (`read_outputs`).  The L2 penalty covers the parameters of the
networks those outputs read (``model.READS``), so an unread network gets no
gradient at all and keeps its initial values.  Only the L2 penalty and the
total differ from weighting the skipped terms by 0: every other value, and
the gradient of every parameter that is read, has the same bits.

The total is one tape node, ``objective``: every per-sample family term of
both units, the factual terms, the binary MMD and the continuous adjustment
and rebalance losses, the L2 penalty and the weighted sum.  With one node per
dense layer besides it, the README binary `Total` step records 75 nodes and
the continuous one 109, most of them parameter leaves.  Each head's clamp and
logs (Bernoulli) or its exp(+-2 log_std) (Gaussian) are computed once and
shared by the terms that read it.  Values and gradients are bit-identical to
building the total from one node per term, row selection, mean, sum and
scale.  The objective checks only its total for finiteness; a NaN or Inf is
reported at the first term whose mean (or value, for the MMD and the L2
penalty) is not finite, such as ``non-finite value at node 'gaussian_nll'``,
or at ``'objective'`` when every term is finite and only their sum is not.
`sd2 train` adds the epoch and batch of the step that diverged and exits
with code 4.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, make_dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .datagen import check_fields
from .family import FAMILIES, PROB_FLOOR, Gaussian
from .model import HeadOutputs

WEIGHT_CLIP = 100.0


class DegenerateBatchError(Exception):
    """A batch contains a single treatment class."""


@dataclass(frozen=True)
class LossWeights:
    """The loss coefficients, each a finite nonnegative number (a bool is not
    one); `sd2 sweep --param` takes these field names."""
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1e-2
    omega_cont: float = 1.0

    def __post_init__(self):
        check_fields(self)


def importance_weights(pi_c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Context-aware weights 1 + (n_{1-t}/n_t) * pi(1-t|x)/pi(t|x), clipped to [1, 100].

    pi_c is the confounder head's treated-probability, already detached.
    """
    # np.minimum(np.maximum(...)): the bits of np.clip without its wrapper
    pi_c = np.minimum(np.maximum(np.asarray(pi_c, dtype=np.float64).reshape(-1), PROB_FLOOR),
                      1.0 - PROB_FLOOR)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    n1 = float(t.sum())
    n0 = float(len(t) - n1)
    if n1 == 0 or n0 == 0:
        raise DegenerateBatchError("batch contains a single treatment class")
    pi_fact = np.where(t == 1, pi_c, 1.0 - pi_c)
    class_ratio = np.where(t == 1, n0 / n1, n1 / n0)
    w = 1.0 + class_ratio * (1.0 - pi_fact) / pi_fact
    return np.minimum(np.maximum(w, 1.0), WEIGHT_CLIP)


# the forward output binary `Total` computes its importance weights from
IMPORTANCE_WEIGHT_READS = ("q_t_c",)


def adjustment_disc(rep: ad.Tensor, t: np.ndarray):
    """Squared linear-kernel MMD between adjustment representations of the two
    groups, the squared distance of their means, and its (node, vjp) pairs.

    The gradient of both groups' rows is added into one array of zeros: the
    two row selections of the composition scattered into an array each, and
    as their rows are disjoint, the sum of those arrays has the same bits.
    """
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    idx0 = np.nonzero(t == 0)[0]
    idx1 = np.nonzero(t == 1)[0]
    if len(idx0) == 0 or len(idx1) == 0:
        raise DegenerateBatchError("adjustment discrepancy needs both groups")
    r = rep.value
    # the bits of each group's .mean(axis=0), without its wrapper
    diff = np.add.reduce(r[idx0], axis=0) / len(idx0) - np.add.reduce(r[idx1], axis=0) / len(idx1)
    value = (diff ** 2).sum()

    def vjp(g):
        grad_diff = np.full_like(diff, float(g)) * 2.0 * diff
        out = np.zeros_like(r)
        out[idx0] += grad_diff / len(idx0)  # one row, broadcast over the group's
        out[idx1] += -grad_diff / len(idx1)
        return out

    return value, ((rep, vjp),)


def l2_penalty(params: dict[str, ad.Tensor]):
    """Squared L2 norm over weight matrices, biases excluded, and its (node,
    vjp) pairs."""
    weights = [p for name, p in params.items() if name.endswith(".W")]
    if not weights:
        raise ValueError("no weight matrices among parameters")
    total = 0.0
    for p in weights:  # the bits of sum(np.sum(W ** 2)), without np.sum's overhead
        total += float(np.add.reduce(p.value * p.value, axis=None))
    return total, tuple((p, (lambda p: (lambda g: (2.0 * float(g)) * p.value))(p))
                        for p in weights)


class _Objective:
    """The terms of the objective as plain arrays, and the one tape node they
    become.

    Terms are added in the order in which the objective written with autodiff
    primitives made its nodes (``tests/reference_ops.py`` keeps that
    composition as the oracle), and each value repeats its operations, so
    values and gradients are bit-identical to it:

    - a term's gradient is its group's: for a per-sample term, the mean's
      gradient spread over the rows, times the sample weights of the factual
      outcome term; for a scalar term (the MMD, the L2 penalty), the
      objective's gradient times the term's coefficient;
    - ``contribs`` holds each term's (parent, vjp) pairs in creation order;
      the node lists them in reverse, the order in which the composition's
      backward pass reached its parents;
    - each term's mean (or value) is checked as it is added, naming its op.

    It holds what the terms read besides the forward outputs: one batch's
    (n, 1) treatments and outcomes, the factual outcome term's sample weights
    (None: unweighted) and the parameters the L2 penalty covers.
    """

    def __init__(self, mode: str, t: np.ndarray, y: np.ndarray,
                 sample_weights: np.ndarray | None, params: dict[str, ad.Tensor]):
        self.mode, self.fam = mode, FAMILIES[mode]
        # the node goes on the tape the parameters are bound on
        self.tape: ad.Tape = next(iter(params.values())).tape
        self.t, self.y, self.n = t, y, len(t)
        self.sample_weights, self.params = sample_weights, params
        self.contribs: list[tuple] = []
        self.group_grads: list = []
        self.heads: dict = {}
        self.per_sample: dict[str, np.ndarray] = {}

    def group(self, coeff: float, sample_weights: np.ndarray | None = None) -> int:
        """A gradient group: per-sample terms whose means enter the total
        times ``coeff``.  Returns its index."""
        shape, n = (self.n, 1), self.n

        def grad(g):
            spread = np.full(shape, float(g * coeff) / n)
            return spread if sample_weights is None else spread * sample_weights

        self.group_grads.append(grad)
        return len(self.group_grads) - 1

    def _add(self, op: str, value, pairs, group: int):
        if not math.isfinite(value):
            raise ad.NonFiniteError(op)
        if self.tape.record:  # else the VJPs, and the arrays they hold, go at once
            self.contribs.append(tuple((parent, _in_group(group, vjp)) for parent, vjp in pairs))

    def _prepared(self, head):
        prepared = self.heads.get(head)
        if prepared is None:
            prepared = self.heads[head] = self.fam.prepare(head)
        return prepared

    def _term(self, kernel, args, group: int, sample_weights=None):
        value, pairs = kernel(*args)
        weighted = value if sample_weights is None else value * sample_weights
        # the bits of weighted.mean(), without its overhead
        mean = np.add.reduce(weighted, axis=None) / self.n
        self._add(kernel.__name__, mean, pairs, group)
        return value, mean

    def nll(self, head, target: np.ndarray, group: int, sample_weights=None):
        """Per-sample negative log-likelihood of (n, 1) targets, and the mean
        (of the weighted values, with ``sample_weights``)."""
        return self._term(self.fam.nll, (self._prepared(head), target), group, sample_weights)

    def kl(self, q, p, group: int):
        """Mean KL(q || p) of two heads; gradients reach both."""
        return self._term(self.fam.kl, (self._prepared(q), self._prepared(p)), group)[1]

    def kl_to_teacher(self, student, teacher, group: int):
        """Mean KL(student || teacher); the teacher is the prepared head
        without its node, so no gradient reaches it."""
        detached = self._prepared(teacher)._replace(node=None)
        return self._term(self.fam.kl, (self._prepared(student), detached), group)[1]

    def scalar(self, kernel, *args, coeff: float):
        """The value of a term that enters the total times ``coeff``."""
        value, pairs = kernel(*args)
        self.group_grads.append(lambda g: g * coeff)
        self._add(kernel.__name__, value, pairs, len(self.group_grads) - 1)
        return value

    @staticmethod
    def sum(values: list):
        """The values added left to right (`sum` would start from int 0)."""
        total = values[0]
        for value in values[1:]:
            total = total + value
        return total

    def node(self, total) -> ad.Tensor:
        """The objective's node, after one finiteness check of its value: a
        sum of finite terms that overflows is named ``objective``."""
        if not math.isfinite(total):
            raise ad.NonFiniteError("objective")
        parents, vjps = [], []
        for pairs in reversed(self.contribs):
            for parent, vjp in pairs:
                parents.append(parent)
                vjps.append(vjp)
        grads = self.group_grads
        return ad.Tensor(self.tape, total, tuple(parents), tuple(vjps), "objective",
                         pre_vjp=lambda g: [grad(g) for grad in grads], checked=True)


def _in_group(group: int, vjp):
    """A term's VJP, fed its group's gradient from the list that the
    objective's backward rule hands every VJP."""
    return lambda grads: vjp(grads[group])


def _factual_y(obj: _Objective, coeff: float, head):
    nll, mean = obj.nll(head, obj.y, obj.group(coeff, obj.sample_weights), obj.sample_weights)
    obj.per_sample["factual_y"] = nll[:, 0]
    return mean


def _factual_t(obj: _Objective, coeff: float, head):
    nll, mean = obj.nll(head, obj.t, obj.group(coeff))
    obj.per_sample["factual_t"] = nll[:, 0]
    return mean


def _mmd(obj: _Objective, coeff: float, rep):
    return obj.scalar(adjustment_disc, rep, obj.t, coeff=coeff)


def _anchored(obj: _Objective, coeff: float, teacher, student, partner):
    """Likelihood of T under the student head plus its KLs to the detached
    teacher (the deep treatment head) and to the partner head."""
    group = obj.group(coeff)
    return obj.sum([obj.nll(student, obj.t, group)[1], obj.kl_to_teacher(student, teacher, group),
                    obj.kl(student, partner, group)])


def _distill_outcome(obj: _Objective, coeff: float, deep, adjust, confound):
    group = obj.group(coeff)
    return obj.sum([obj.nll(adjust, obj.y, group)[1], obj.nll(confound, obj.y, group)[1],
                    obj.kl_to_teacher(adjust, deep, group),
                    obj.kl_to_teacher(confound, deep, group),
                    obj.kl(adjust, confound, group)])


def _distill_treatment(obj: _Objective, coeff: float, deep, instrument, confound):
    group = obj.group(coeff)
    return obj.sum([obj.nll(instrument, obj.t, group)[1],
                    obj.kl_to_teacher(instrument, deep, group),
                    obj.kl_to_teacher(confound, deep, group),
                    obj.kl(confound, instrument, group)])


def _reg(obj: _Objective, coeff: float):
    return obj.scalar(l2_penalty, obj.params, coeff=coeff)


class Build(NamedTuple):
    """How a mode builds a term: the forward outputs it reads, and the
    function that adds it to the objective, ``add(objective, coeff,
    *outputs)`` with the outputs ``reads`` names in that order, and returns
    its value."""
    reads: tuple[str, ...]
    add: Callable


class Term(NamedTuple):
    """A term of the objective: the breakdown field it fills, the
    `LossWeights` coefficient it is scaled by (None: it enters as it is), and
    its `Build` in each mode that defines it."""
    name: str
    coeff: str | None
    modes: dict[str, Build]


def _both(reads: tuple[str, ...], add: Callable) -> dict[str, Build]:
    return dict.fromkeys(FAMILIES, Build(reads, add))


# Every term, in the order it is built and summed.  Terms that share a
# coefficient enter the total as one sum times it.  The L2 penalty reads no
# output: it covers the parameters of the networks the other terms read.
TERMS = (
    Term("factual_y", None, _both(("q_y",), _factual_y)),
    Term("factual_t", "alpha", _both(("q_t",), _factual_t)),
    Term("adjust", "beta", {"binary": Build(("r_a",), _mmd),
                            "continuous": Build(("q_t", "q_t_c", "q_t_a"), _anchored)}),
    Term("distill_outcome", "gamma", _both(("q_y", "q_y_a", "q_y_c"), _distill_outcome)),
    Term("distill_treatment", "gamma", _both(("q_t", "q_t_z", "q_t_c"), _distill_treatment)),
    Term("rebalance", "omega_cont", {"continuous": Build(("q_t", "q_t_z", "q_t_cr"),
                                                         _anchored)}),
    Term("reg", "delta", _both((), _reg)),
)

LossBreakdown = make_dataclass(
    "LossBreakdown",
    [(term.name, float | None) for term in TERMS] + [
        ("total", float),
        ("node", ad.Tensor | None, field(default=None, repr=False)),
        # unweighted per-sample factual (outcome, treatment) losses of the
        # batch; a term that is not built has None
        ("per_sample", tuple | None, field(default=None, repr=False))],
    namespace={"__module__": __name__,
               "__doc__": "Each term's value: 0.0 for a term the mode does not "
                          "define, None for one whose coefficient is 0.",
               "FIELDS": tuple(term.name for term in TERMS) + ("total",)})


# both run once per training step and validation chunk, on a handful of configs
@functools.lru_cache(maxsize=64)
def _kept(mode: str, weights: LossWeights) -> tuple[tuple[Term, float], ...]:
    """The terms the mode defines whose coefficient is not 0, with it."""
    kept = [(term, 1.0 if term.coeff is None else getattr(weights, term.coeff))
            for term in TERMS if mode in term.modes]
    return tuple((term, coeff) for term, coeff in kept if coeff != 0.0)


@functools.lru_cache(maxsize=64)
def read_outputs(mode: str, weights: LossWeights, importance_weighted: bool) -> tuple[str, ...]:
    """The forward outputs the kept terms read, and the importance weights'
    with ``importance_weighted``, each once."""
    reads = [name for term, _ in _kept(mode, weights) for name in term.modes[mode].reads]
    if importance_weighted:
        reads += IMPORTANCE_WEIGHT_READS
    return tuple(dict.fromkeys(reads))


def _total_loss(obj: _Objective, outputs: HeadOutputs, weights: LossWeights) -> LossBreakdown:
    """The objective of both modes, as one node: the kept terms, each given
    the outputs it reads and scaled by its coefficient (those that share one,
    summed first), added in order."""
    mode = obj.mode
    values, parts = {}, []
    for term, coeff in _kept(mode, weights):
        build = term.modes[mode]
        values[term.name] = value = build.add(
            obj, coeff, *(getattr(outputs, name) for name in build.reads))
        if parts and parts[-1][0] == term.coeff:
            parts[-1][2].append(value)
        else:
            parts.append((term.coeff, coeff, [value]))
    total = obj.sum([obj.sum(part) * coeff for _, coeff, part in parts])
    return LossBreakdown(
        **{term.name: (float(values[term.name]) if term.name in values
                       else None if mode in term.modes else 0.0) for term in TERMS},
        total=float(total), node=obj.node(total),
        per_sample=(obj.per_sample["factual_y"], obj.per_sample.get("factual_t")))


def total_loss_binary(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                      sample_weights: np.ndarray, weights: LossWeights,
                      params: dict[str, ad.Tensor]) -> LossBreakdown:
    """Bernoulli objective: importance-weighted factual outcome term and the
    MMD adjustment discrepancy of the adjustment representation."""
    if any(isinstance(output, Gaussian) for output in outputs):
        raise ValueError("total_loss_binary requires binary-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != len(t):
        raise ValueError(f"sample weight count {w.shape[0]} != batch size {len(t)}")
    return _total_loss(_Objective("binary", t, y, w, params), outputs, weights)


def total_loss_continuous(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                          weights: LossWeights, params: dict[str, ad.Tensor]) -> LossBreakdown:
    """Gaussian objective: unweighted factual terms, the adjustment loss (the
    confounder treatment head anchored to the deep head and the adjustment
    head) and the rebalance loss (the instrument head anchored to the deep
    head and the rebalanced-confounder head)."""
    if not any(isinstance(output, Gaussian) for output in outputs):
        raise ValueError("total_loss_continuous requires continuous-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return _total_loss(_Objective("continuous", t, y, None, params), outputs, weights)
