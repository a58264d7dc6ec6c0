"""Training objectives: factual terms, the distillation units, the adjustment
discrepancy, context-aware importance weights, and the weighted totals.

Teacher distributions are gradient-detached; peer terms propagate to both
sides.  The binary total is

    mean_i(w_i * CE(q_y_i, y_i)) + alpha * CE(q_t, t) + beta * disc
    + gamma * (outcome unit + treatment unit) + delta * ||W||^2

and the continuous total swaps cross-entropies for Gaussian likelihoods and
adds the rebalance loss with its own coefficient.  Both totals come from one
function over the outcome family (``family.py``).  Only what the two modes
define differently is mode-specific: the adjustment term (an MMD over the
adjustment representation for binary treatments, a head-based loss for
continuous ones), the binary importance weights and the continuous rebalance
loss.

The total is one tape node, ``objective``: every per-sample family term of
both units, the factual terms, the continuous adjustment and rebalance losses
and the weighted sum.  Each head's clamp and logs (Bernoulli) or its
exp(+-2 log_std) (Gaussian) are computed once and shared by the terms that
read it.  The MMD subgraph and ``l2_penalty`` keep their own nodes and enter
the objective as parents.  Values and gradients are bit-identical to building
the total from one node per term, mean, sum and scale, and a NaN or Inf is
reported at the op and place on the trace that composition would have named.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1e-2
    omega_cont: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "omega_cont"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class LossFlags:
    """Implementation switches the loss definitions leave open."""
    mmd_kernel: str = "linear"            # linear | rbf
    aux_confounder_label: bool = False    # treatment-side label CE on the confounder student
    teacher_kl_reverse: bool = False      # KL(teacher || student) instead of student-first


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

    def weighted_parts(self, w: LossWeights) -> dict[str, float]:
        return {
            "factual_y": self.factual_y,
            "factual_t": w.alpha * self.factual_t,
            "adjust": w.beta * self.adjust,
            "distill": w.gamma * (self.distill_outcome + self.distill_treatment),
            "rebalance": w.omega_cont * self.rebalance,
            "reg": w.delta * self.reg,
        }


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


def adjustment_disc(r_a: ad.Tensor, t: np.ndarray, kernel: str = "linear",
                    bandwidth: float | None = None) -> ad.Tensor:
    """Squared MMD between adjustment representations of the two groups.

    Linear kernel reduces to the squared distance of group means; the rbf
    bandwidth defaults to the median pairwise distance of the pooled batch,
    treated as a constant of the batch (recorded on the tape, replayed by
    finite_diff_check).
    """
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    idx0 = np.nonzero(t == 0)[0]
    idx1 = np.nonzero(t == 1)[0]
    if len(idx0) == 0 or len(idx1) == 0:
        raise DegenerateBatchError("adjustment discrepancy needs both groups")
    g0 = ad.select_rows(r_a, idx0)
    g1 = ad.select_rows(r_a, idx1)
    if kernel == "linear":
        diff = ad.sub(ad.mean_rows(g0), ad.mean_rows(g1))
        return ad.sum_all(ad.square(diff))
    if kernel == "rbf":
        if bandwidth is None:
            pool = r_a.value
            sq = np.sum(pool ** 2, 1)
            d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pool @ pool.T, 0.0)
            d = np.sqrt(d2[np.triu_indices(len(pool), k=1)])
            positive = d[d > 0]
            med = np.median(positive) if positive.size else 1.0
            bandwidth = float(r_a.tape.record_detached(np.array(med)))
        return ad.mmd_rbf(g0, g1, bandwidth)
    raise ValueError(f"unknown kernel {kernel!r}")


def l2_penalty(params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Squared L2 norm over weight matrices; biases excluded.

    Fused into one node: the term touches every weight, and building square
    and sum nodes per matrix would dominate small-batch traces.
    """
    weights = [p for name, p in params.items() if name.endswith(".W")]
    if not weights:
        raise ValueError("no weight matrices among parameters")
    total = 0.0
    for p in weights:  # the bits of sum(np.sum(W ** 2)), without np.sum's overhead
        total += float(np.add.reduce(p.value * p.value, axis=None))
    value = np.array(total)
    vjps = tuple((lambda p: (lambda g: (2.0 * float(g)) * p.value))(p) for p in weights)
    return ad.Tensor(weights[0].tape, value, tuple(weights), vjps, "l2_penalty")


class _Objective:
    """The terms of the objective as plain arrays, and the one tape node they
    become.

    Terms are added in the order in which the objective written with autodiff
    primitives made its nodes (``tests/reference_ops.py`` keeps that
    composition as the oracle), and each value repeats its operations, so
    values and gradients are bit-identical to it:

    - ``checks`` holds, for every value the composition checked for
      finiteness, its op name and what its check needs (``_check``); a node
      built outside the objective (the MMD subgraph, ``l2_penalty``) is built
      at its place on the trace and holds that place by its node count;
    - a per-sample term's gradient is its group's: the mean's gradient spread
      over the rows, times the sample weights of the factual outcome term;
    - ``contribs`` holds each term's (parent, vjp) pairs in creation order;
      the node lists them in reverse, the order in which the composition's
      backward pass reached its parents.
    """

    def __init__(self, fam: Family, tape: ad.Tape, n: int):
        self.fam, self.tape, self.n = fam, tape, n
        self.start = tape.created
        self.places = 0
        self.checks: list[tuple[str | None, object]] = []
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

    def _check(self, op: str, value, total=None):
        """Hold what the check of ``value`` needs later: a number itself, an
        array only when its sum ``total`` is not finite (a finite sum has
        finite entries), and nothing for a value known to be finite."""
        if total is not None and np.isfinite(total):
            value = None
        self.checks.append((op, value))
        self.places += 1

    def _prepared(self, head):
        prepared = self.heads.get(head)
        if prepared is None:
            prepared = self.heads[head] = self.fam.prepare(head)
        return prepared

    def _term(self, kernel, args, group: int, sample_weights=None):
        value, pairs = kernel(*args)
        if self.tape.record:  # else the VJPs, and the arrays they hold, go at once
            self.contribs.append(tuple((parent, _in_group(group, vjp)) for parent, vjp in pairs))
        total = value.sum()
        self._check(kernel.__name__, value, total)
        if sample_weights is not None:
            weighted = value * sample_weights
            total = weighted.sum()
            self._check("scale", weighted, total)
        mean = total / self.n  # the bits of weighted.mean(), without its overhead
        self._check("mean", mean)
        return value, mean

    def nll(self, head, target: np.ndarray, group: int, sample_weights=None):
        """Per-sample negative log-likelihood of (n, 1) targets, and the mean
        (of the weighted values, with ``sample_weights``)."""
        return self._term(self.fam.nll, (self._prepared(head), target), group, sample_weights)

    def kl(self, q, p, group: int):
        """Mean KL(q || p) of two heads; gradients reach both."""
        return self._term(self.fam.kl, (self._prepared(q), self._prepared(p)), group)[1]

    def teacher_kl(self, student, teacher, group: int, reverse: bool = False):
        """Mean KL(student || teacher), KL(teacher || student) with
        ``reverse``, against a detached copy of the teacher."""
        detached, values = self._prepared(teacher).teacher(self.tape)
        for _ in values:  # copies of checked head values
            self._check("detach", None)
        student = self._prepared(student)
        pair = (detached, student) if reverse else (student, detached)
        return self._term(self.fam.kl, pair, group)[1]

    def sum(self, values: list):
        total = values[0]
        for value in values[1:]:
            total = total + value
            self._check("add", total)
        return total

    def outside(self, build) -> ad.Tensor:
        """The scalar node ``build()`` makes, at its place on the trace."""
        at = self.tape.created = self.start + self.places
        try:
            node = build()
        except ad.NonFiniteError:
            self._raise_first_failure()  # an earlier term's failure comes first
            raise
        self.checks.append((None, self.tape.created - at))
        self.places += self.tape.created - at
        return node

    def weighted_sum(self, first, parts: list):
        """first + coeff * value for each (coeff, value) part, in order; a
        value is a number or a node built outside."""
        total = first
        for coeff, part in parts:
            if isinstance(part, ad.Tensor):
                self.contribs.append(((part, _scaled_by(coeff)),))
                part = part.value
            scaled = part * coeff
            self._check("scale", scaled)
            total = total + scaled
            self._check("add", total)
        return total

    def _raise_first_failure(self):
        """Check the values in the composition's order, as its nodes did, so
        the first non-finite one raises as it would have there."""
        self.tape.created = self.start
        for op, value in self.checks:
            if op is None:
                self.tape.created += value
            elif value is None:
                self.tape.created += 1
            else:
                ad.check_finite(self.tape, value, op)

    def node(self, total) -> ad.Tensor:
        """The objective's node, after one finiteness check of its value."""
        self.tape.created = self.start + self.places
        if not np.isfinite(total):
            self._raise_first_failure()  # raises: the total is the last value checked
        parents, vjps = [], []
        for pairs in reversed(self.contribs):
            for parent, vjp in pairs:
                parents.append(parent)
                vjps.append(vjp)
        grads = self.group_grads
        return ad.Tensor(self.tape, total, tuple(parents), tuple(vjps), "objective",
                         pre_vjp=lambda g: (g, [grad(g) for grad in grads]), checked=True)


# The objective's backward rule hands every VJP the pair (objective gradient,
# per-group gradients).

def _in_group(group: int, vjp):
    return lambda grads: vjp(grads[1][group])


def _scaled_by(coeff: float):
    return lambda grads: grads[0] * coeff


def _total_loss(fam: Family, outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                sample_weights: np.ndarray | None, weights: LossWeights,
                params: dict[str, ad.Tensor], flags: LossFlags, adjust_terms,
                rebalance_terms=None) -> LossBreakdown:
    """The objective of both modes, as one node, over (n, 1) treatments and
    outcomes.  ``adjust_terms(objective, coeff)`` and ``rebalance_terms`` add
    the mode's own terms and return their value: a number, or a node built
    outside the objective."""
    obj = _Objective(fam, fam.mean(outputs.q_y).tape, len(t))
    nll_y, factual_y = obj.nll(outputs.q_y, y, obj.group(None, sample_weights),
                               sample_weights)
    nll_t, factual_t = obj.nll(outputs.q_t, t, obj.group(weights.alpha))
    adjust = adjust_terms(obj, weights.beta)
    distill = obj.group(weights.gamma)
    reverse = flags.teacher_kl_reverse
    unit_y = obj.sum([obj.nll(outputs.q_y_a, y, distill)[1],
                      obj.nll(outputs.q_y_c, y, distill)[1],
                      obj.teacher_kl(outputs.q_y_a, outputs.q_y, distill, reverse),
                      obj.teacher_kl(outputs.q_y_c, outputs.q_y, distill, reverse),
                      obj.kl(outputs.q_y_a, outputs.q_y_c, distill)])
    unit_t = [obj.nll(outputs.q_t_z, t, distill)[1],
              obj.teacher_kl(outputs.q_t_z, outputs.q_t, distill, reverse),
              obj.teacher_kl(outputs.q_t_c, outputs.q_t, distill, reverse),
              obj.kl(outputs.q_t_c, outputs.q_t_z, distill)]
    if flags.aux_confounder_label:
        unit_t.append(obj.nll(outputs.q_t_c, t, distill)[1])
    unit_t = obj.sum(unit_t)
    rebalance = None if rebalance_terms is None else rebalance_terms(obj, weights.omega_cont)
    reg = obj.outside(lambda: l2_penalty(params))
    parts = [(weights.alpha, factual_t), (weights.beta, adjust),
             (weights.gamma, obj.sum([unit_y, unit_t]))]
    if rebalance is not None:
        parts.append((weights.omega_cont, rebalance))
    parts.append((weights.delta, reg))
    total = obj.weighted_sum(factual_y, parts)
    return LossBreakdown(
        factual_y=float(factual_y), factual_t=float(factual_t),
        adjust=float(adjust.value if isinstance(adjust, ad.Tensor) else adjust),
        distill_outcome=float(unit_y), distill_treatment=float(unit_t),
        rebalance=0.0 if rebalance is None else float(rebalance),
        reg=float(reg.value), total=float(total), node=obj.node(total),
        per_sample=(nll_y[:, 0], nll_t[:, 0]))


def total_loss_binary(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                      sample_weights: np.ndarray, weights: LossWeights,
                      params: dict[str, ad.Tensor],
                      flags: LossFlags = LossFlags()) -> LossBreakdown:
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

    def adjust_terms(obj, coeff):  # a node built outside: scaled in the weighted sum
        return obj.outside(lambda: adjustment_disc(outputs.reps.r_a, t, flags.mmd_kernel))

    return _total_loss(BERNOULLI, outputs, t, y, w, weights, params, flags, adjust_terms)


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
                          weights: LossWeights, params: dict[str, ad.Tensor],
                          flags: LossFlags = LossFlags()) -> LossBreakdown:
    """Gaussian objective: unweighted factual terms, the adjustment loss (the
    confounder treatment head anchored to the deep head and the adjustment
    head) and the rebalance loss (the instrument head anchored to the deep
    head and the rebalanced-confounder head)."""
    if outputs.q_t_cr is None:
        raise ValueError("total_loss_continuous requires continuous-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return _total_loss(GAUSSIAN, outputs, t, y, None, weights, params, flags,
                       _anchored_treatment_terms(outputs.q_t_c, outputs.q_t_a, outputs.q_t, t),
                       _anchored_treatment_terms(outputs.q_t_z, outputs.q_t_cr, outputs.q_t, t))
