"""Training objectives: factual terms, the distillation units, the adjustment
discrepancy, context-aware importance weights, and the weighted totals.

Teacher distributions are gradient-detached, and each teacher term is
KL(student || teacher); peer terms propagate to both sides.  The binary total
is

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
continuous rebalance loss.  The variant and the coefficients select the
objective; there is no other switch.

The total is one tape node, ``objective``: every per-sample family term of
both units, the factual terms, the binary MMD and the continuous adjustment
and rebalance losses, the L2 penalty and the weighted sum.  With one node per
dense layer besides it, the README binary step records 75 nodes and the
continuous step 109, most of them parameter leaves.  Each head's clamp and
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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .family import BERNOULLI, GAUSSIAN, Family, Gaussian
from .infotheory import PROB_FLOOR
from .model import HeadOutputs

WEIGHT_CLIP = 100.0


class DegenerateBatchError(Exception):
    """A batch contains a single treatment class."""


@dataclass(frozen=True)
class LossWeights:
    """The loss coefficients; `sd2 sweep --param` takes these field names."""
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1e-2
    omega_cont: float = 1.0

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass
class LossBreakdown:
    factual_y: float
    factual_t: float
    adjust: float
    distill_outcome: float
    distill_treatment: float
    rebalance: float
    reg: float
    total: float
    node: ad.Tensor | None = field(default=None, repr=False)
    # unweighted per-sample factual (outcome, treatment) losses of the batch
    per_sample: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    FIELDS = ("factual_y", "factual_t", "adjust", "distill_outcome",
              "distill_treatment", "rebalance", "reg", "total")



def importance_weights(pi_c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Context-aware weights 1 + (n_{1-t}/n_t) * pi(1-t|x)/pi(t|x), clipped to [1, 100].

    pi_c is the confounder head's treated-probability, already detached.
    """
    pi_c = np.clip(np.asarray(pi_c, dtype=np.float64).reshape(-1), PROB_FLOOR, 1.0 - PROB_FLOOR)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    n1 = float(t.sum())
    n0 = float(len(t) - n1)
    if n1 == 0 or n0 == 0:
        raise DegenerateBatchError("batch contains a single treatment class")
    pi_fact = np.where(t == 1, pi_c, 1.0 - pi_c)
    class_ratio = np.where(t == 1, n0 / n1, n1 / n0)
    w = 1.0 + class_ratio * (1.0 - pi_fact) / pi_fact
    return np.clip(w, 1.0, WEIGHT_CLIP)


def adjustment_disc(r_a: ad.Tensor, t: np.ndarray):
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
    r = r_a.value
    diff = r[idx0].mean(axis=0) - r[idx1].mean(axis=0)
    value = (diff ** 2).sum()

    def vjp(g):
        grad_diff = np.full_like(diff, float(g)) * 2.0 * diff
        out = np.zeros_like(r)
        out[idx0] += np.tile(grad_diff / len(idx0), (len(idx0), 1))
        out[idx1] += np.tile(-grad_diff / len(idx1), (len(idx1), 1))
        return out

    return value, ((r_a, vjp),)


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
    - ``terms`` holds each term's op name and mean (or value), so that a
      non-finite total names the first term that is not finite.
    """

    def __init__(self, fam: Family, tape: ad.Tape, n: int):
        self.fam, self.tape, self.n = fam, tape, n
        self.terms: list[tuple[str, float]] = []
        self.contribs: list[tuple] = []
        self.group_grads: list = []
        self.heads: dict = {}

    def group(self, coeff: float | None, sample_weights: np.ndarray | None = None) -> int:
        """A gradient group: per-sample terms whose means enter the total
        times ``coeff`` (None: as they are).  Returns its index."""
        shape, n = (self.n, 1), self.n

        def grad(g):
            mean_grad = g if coeff is None else g * coeff
            spread = np.full(shape, float(mean_grad) / n)
            return spread if sample_weights is None else spread * sample_weights

        self.group_grads.append(grad)
        return len(self.group_grads) - 1

    def _add(self, op: str, value, pairs, group: int):
        if self.tape.record:  # else the VJPs, and the arrays they hold, go at once
            self.contribs.append(tuple((parent, _in_group(group, vjp)) for parent, vjp in pairs))
        self.terms.append((op, value))

    def _prepared(self, head):
        prepared = self.heads.get(head)
        if prepared is None:
            prepared = self.heads[head] = self.fam.prepare(head)
        return prepared

    def _term(self, kernel, args, group: int, sample_weights=None):
        value, pairs = kernel(*args)
        weighted = value if sample_weights is None else value * sample_weights
        mean = weighted.sum() / self.n  # the bits of weighted.mean(), without its overhead
        self._add(kernel.__name__, mean, pairs, group)
        return value, mean

    def nll(self, head, target: np.ndarray, group: int, sample_weights=None):
        """Per-sample negative log-likelihood of (n, 1) targets, and the mean
        (of the weighted values, with ``sample_weights``)."""
        return self._term(self.fam.nll, (self._prepared(head), target), group, sample_weights)

    def kl(self, q, p, group: int):
        """Mean KL(q || p) of two heads; gradients reach both."""
        return self._term(self.fam.kl, (self._prepared(q), self._prepared(p)), group)[1]

    def teacher_kl(self, student, teacher, group: int):
        """Mean KL(student || teacher) against a detached copy of the teacher."""
        detached = self._prepared(teacher).teacher(self.tape)
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
        """The objective's node, after one finiteness check of its value; a
        failure names the first term that is not finite."""
        if not np.isfinite(total):
            raise ad.NonFiniteError(next((op for op, value in self.terms
                                          if not np.isfinite(value)), "objective"))
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


def _total_loss(fam: Family, outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                sample_weights: np.ndarray | None, weights: LossWeights,
                params: dict[str, ad.Tensor], adjust_terms,
                rebalance_terms=None) -> LossBreakdown:
    """The objective of both modes, as one node, over (n, 1) treatments and
    outcomes.  ``adjust_terms(objective, coeff)`` and ``rebalance_terms`` add
    the mode's own terms and return their value."""
    # the node goes on the tape the parameters are bound on
    obj = _Objective(fam, next(iter(params.values())).tape, len(t))
    nll_y, factual_y = obj.nll(outputs.q_y, y, obj.group(None, sample_weights),
                               sample_weights)
    nll_t, factual_t = obj.nll(outputs.q_t, t, obj.group(weights.alpha))
    adjust = adjust_terms(obj, weights.beta)
    distill = obj.group(weights.gamma)
    unit_y = obj.sum([obj.nll(outputs.q_y_a, y, distill)[1],
                      obj.nll(outputs.q_y_c, y, distill)[1],
                      obj.teacher_kl(outputs.q_y_a, outputs.q_y, distill),
                      obj.teacher_kl(outputs.q_y_c, outputs.q_y, distill),
                      obj.kl(outputs.q_y_a, outputs.q_y_c, distill)])
    unit_t = obj.sum([obj.nll(outputs.q_t_z, t, distill)[1],
                      obj.teacher_kl(outputs.q_t_z, outputs.q_t, distill),
                      obj.teacher_kl(outputs.q_t_c, outputs.q_t, distill),
                      obj.kl(outputs.q_t_c, outputs.q_t_z, distill)])
    rebalance = None if rebalance_terms is None else rebalance_terms(obj, weights.omega_cont)
    reg = obj.scalar(l2_penalty, params, coeff=weights.delta)
    parts = [(weights.alpha, factual_t), (weights.beta, adjust),
             (weights.gamma, obj.sum([unit_y, unit_t]))]
    if rebalance is not None:
        parts.append((weights.omega_cont, rebalance))
    parts.append((weights.delta, reg))
    total = obj.sum([factual_y] + [value * coeff for coeff, value in parts])
    return LossBreakdown(
        factual_y=float(factual_y), factual_t=float(factual_t),
        adjust=float(adjust),
        distill_outcome=float(unit_y), distill_treatment=float(unit_t),
        rebalance=0.0 if rebalance is None else float(rebalance),
        reg=float(reg), total=float(total), node=obj.node(total),
        per_sample=(nll_y[:, 0], nll_t[:, 0]))


def total_loss_binary(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                      sample_weights: np.ndarray, weights: LossWeights,
                      params: dict[str, ad.Tensor]) -> LossBreakdown:
    """Bernoulli objective: importance-weighted factual outcome term and the
    MMD adjustment discrepancy of the adjustment representation."""
    if isinstance(outputs.q_t, Gaussian):
        raise ValueError("total_loss_binary requires binary-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("binary mode requires treatments in {0, 1}")
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != len(t):
        raise ValueError(f"sample weight count {w.shape[0]} != batch size {len(t)}")

    def adjust_terms(obj, coeff):
        return obj.scalar(adjustment_disc, outputs.reps.r_a, t, coeff=coeff)

    return _total_loss(BERNOULLI, outputs, t, y, w, weights, params, adjust_terms)


def _anchored_treatment_terms(student: Gaussian, partner: Gaussian, teacher: Gaussian,
                              t: np.ndarray):
    """Likelihood of T under the student head plus its KLs to the (detached)
    teacher and to the partner head, as objective terms."""
    def add(obj, coeff):
        group = obj.group(coeff)
        return obj.sum([obj.nll(student, t, group)[1], obj.teacher_kl(student, teacher, group),
                        obj.kl(student, partner, group)])
    return add


def total_loss_continuous(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                          weights: LossWeights, params: dict[str, ad.Tensor]) -> LossBreakdown:
    """Gaussian objective: unweighted factual terms, the adjustment loss (the
    confounder treatment head anchored to the deep head and the adjustment
    head) and the rebalance loss (the instrument head anchored to the deep
    head and the rebalanced-confounder head)."""
    if outputs.q_t_cr is None:
        raise ValueError("total_loss_continuous requires continuous-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return _total_loss(GAUSSIAN, outputs, t, y, None, weights, params,
                       _anchored_treatment_terms(outputs.q_t_c, outputs.q_t_a, outputs.q_t, t),
                       _anchored_treatment_terms(outputs.q_t_z, outputs.q_t_cr, outputs.q_t, t))
