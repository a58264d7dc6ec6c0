"""Training objectives: factual terms, the distillation units, the adjustment
discrepancy, context-aware importance weights, and the weighted totals.

Every term is built on an autodiff tape so one backward pass yields exact
gradients.  Teacher distributions are gradient-detached; peer terms propagate
to both sides.  The binary total is

    mean_i(w_i * CE(q_y_i, y_i)) + alpha * CE(q_t, t) + beta * disc
    + gamma * (outcome unit + treatment unit) + delta * ||W||^2

and the continuous total swaps cross-entropies for Gaussian likelihoods and
adds the rebalance loss with its own coefficient.  Both totals come from one
function over the outcome family (``family.py``).  Only what the two modes
define differently is mode-specific: the adjustment term (an MMD over the
adjustment representation for binary treatments, a head-based loss for
continuous ones), the binary importance weights and the continuous rebalance
loss.
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


def _teacher_kl(fam: Family, student, teacher, flags: LossFlags) -> ad.Tensor:
    td = fam.detach(teacher)
    if flags.teacher_kl_reverse:
        return ad.mean_all(fam.kl_vec(td, student))
    return ad.mean_all(fam.kl_vec(student, td))


def distill_unit_treatment(fam: Family, outputs: HeadOutputs, t: np.ndarray,
                           flags: LossFlags = LossFlags()) -> dict[str, ad.Tensor]:
    """Labels/teachers/peer terms of the treatment-side unit; their sum
    drives the instrument and confounder representations apart."""
    terms = {
        "label_z": ad.mean_all(fam.nll_vec(outputs.q_t_z, t)),
        "teacher_z": _teacher_kl(fam, outputs.q_t_z, outputs.q_t, flags),
        "teacher_c": _teacher_kl(fam, outputs.q_t_c, outputs.q_t, flags),
        "peer": ad.mean_all(fam.kl_vec(outputs.q_t_c, outputs.q_t_z)),
    }
    if flags.aux_confounder_label:
        terms["label_c"] = ad.mean_all(fam.nll_vec(outputs.q_t_c, t))
    return terms


def distill_unit_outcome(fam: Family, outputs: HeadOutputs, y: np.ndarray,
                         flags: LossFlags = LossFlags()) -> dict[str, ad.Tensor]:
    """Outcome-side unit; the peer term runs student-adjustment against
    student-confounder."""
    return {
        "label_a": ad.mean_all(fam.nll_vec(outputs.q_y_a, y)),
        "label_c": ad.mean_all(fam.nll_vec(outputs.q_y_c, y)),
        "teacher_a": _teacher_kl(fam, outputs.q_y_a, outputs.q_y, flags),
        "teacher_c": _teacher_kl(fam, outputs.q_y_c, outputs.q_y, flags),
        "peer": ad.mean_all(fam.kl_vec(outputs.q_y_a, outputs.q_y_c)),
    }


def _sum_terms(terms: dict[str, ad.Tensor]) -> ad.Tensor:
    node = None
    for t in terms.values():
        node = t if node is None else ad.add(node, t)
    return node


def l2_penalty(params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Squared L2 norm over weight matrices; biases excluded.

    Fused into one node: the term touches every weight, and building square
    and sum nodes per matrix would dominate small-batch traces.
    """
    weights = [p for name, p in params.items() if name.endswith(".W")]
    if not weights:
        raise ValueError("no weight matrices among parameters")
    value = np.array(sum(float(np.sum(p.value ** 2)) for p in weights))
    vjps = tuple((lambda p: (lambda g: (2.0 * float(g)) * p.value))(p) for p in weights)
    return ad.Tensor(weights[0].tape, value, tuple(weights), vjps, "l2_penalty")


def _total_loss(fam: Family, outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                sample_weights: np.ndarray | None, weights: LossWeights,
                params: dict[str, ad.Tensor], flags: LossFlags, make_adjust,
                make_rebalance=None) -> LossBreakdown:
    """The objective of both modes.  ``make_adjust`` and ``make_rebalance``
    build the mode's own terms; they are called here so that every node keeps
    its place on the tape."""
    nll_y = fam.nll_vec(outputs.q_y, y)
    factual_y = ad.mean_all(nll_y if sample_weights is None else ad.scale(nll_y, sample_weights))
    nll_t = fam.nll_vec(outputs.q_t, t)
    factual_t = ad.mean_all(nll_t)
    adjust = make_adjust()
    unit_y = _sum_terms(distill_unit_outcome(fam, outputs, y, flags))
    unit_t = _sum_terms(distill_unit_treatment(fam, outputs, t, flags))
    rebalance = None if make_rebalance is None else make_rebalance()
    reg = l2_penalty(params)
    terms = [(weights.alpha, factual_t), (weights.beta, adjust),
             (weights.gamma, ad.add(unit_y, unit_t))]
    if rebalance is not None:
        terms.append((weights.omega_cont, rebalance))
    terms.append((weights.delta, reg))
    total = factual_y
    for coeff, node in terms:
        total = ad.add(total, ad.scale(node, coeff))
    return LossBreakdown(
        factual_y=float(factual_y.value), factual_t=float(factual_t.value),
        adjust=float(adjust.value), distill_outcome=float(unit_y.value),
        distill_treatment=float(unit_t.value),
        rebalance=0.0 if rebalance is None else float(rebalance.value),
        reg=float(reg.value), total=float(total.value), node=total,
        per_sample=(nll_y.value[:, 0], nll_t.value[:, 0]))


def total_loss_binary(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                      sample_weights: np.ndarray, weights: LossWeights,
                      params: dict[str, ad.Tensor],
                      flags: LossFlags = LossFlags()) -> LossBreakdown:
    """Bernoulli objective: importance-weighted factual outcome term and the
    MMD adjustment discrepancy of the adjustment representation."""
    if isinstance(outputs.q_t, Gaussian):
        raise ValueError("total_loss_binary requires binary-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("binary mode requires treatments in {0, 1}")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != len(t):
        raise ValueError(f"sample weight count {w.shape[0]} != batch size {len(t)}")
    return _total_loss(BERNOULLI, outputs, t, y, w, weights, params, flags,
                       lambda: adjustment_disc(outputs.reps.r_a, t, kernel=flags.mmd_kernel))


def _anchored_treatment_loss(student: Gaussian, partner: Gaussian, teacher: Gaussian,
                             t: np.ndarray) -> ad.Tensor:
    nll = ad.mean_all(GAUSSIAN.nll_vec(student, t))
    kl_teacher = ad.mean_all(GAUSSIAN.kl_vec(student, GAUSSIAN.detach(teacher)))
    kl_partner = ad.mean_all(GAUSSIAN.kl_vec(student, partner))
    return ad.add(ad.add(nll, kl_teacher), kl_partner)


def continuous_adjust_loss(outputs: HeadOutputs, t: np.ndarray) -> ad.Tensor:
    """Adjustment-representation loss: likelihood of T under the confounder
    treatment head plus its KLs to the (detached) deep head and the
    adjustment head."""
    return _anchored_treatment_loss(outputs.q_t_c, outputs.q_t_a, outputs.q_t, t)


def continuous_rebalance_loss(outputs: HeadOutputs, t: np.ndarray) -> ad.Tensor:
    """Rebalance loss: likelihood of T under the instrument head plus its KLs
    to the (detached) deep head and the rebalanced-confounder head."""
    return _anchored_treatment_loss(outputs.q_t_z, outputs.q_t_cr, outputs.q_t, t)


def total_loss_continuous(outputs: HeadOutputs, t: np.ndarray, y: np.ndarray,
                          weights: LossWeights, params: dict[str, ad.Tensor],
                          flags: LossFlags = LossFlags()) -> LossBreakdown:
    """Gaussian objective: unweighted factual terms, the head-based adjustment
    loss and the rebalance loss."""
    if outputs.q_t_cr is None:
        raise ValueError("total_loss_continuous requires continuous-mode outputs")
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return _total_loss(GAUSSIAN, outputs, t, y, None, weights, params, flags,
                       lambda: continuous_adjust_loss(outputs, t),
                       lambda: continuous_rebalance_loss(outputs, t))
