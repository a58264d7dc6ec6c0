"""Reference implementations the fused code is checked against.

The autodiff primitives below (one tape node per elementary operation) are
what `autodiff.dense`, the Gaussian head's two columns, the family terms and the training objective fuse.
Tests build the same computation from them and require the fused version to
give the same bits: values and gradients.

The old objective is kept here as well: each per-sample family term one node,
the MMD as row selections, means and a square, the L2 penalty as one node, then the means, sums and weighted total as primitive
nodes, with ``tests/test_losses.py`` requiring `losses.total_loss_binary` and
`losses.total_loss_continuous` to equal it bit for bit.  Unlike the fused
objective, the composition checks every node's value, so a failure names the
first primitive that went non-finite.  It builds every term and weights a
term whose coefficient is 0 by 0; ``READ_NETWORKS`` names, per mode and
variant, the networks the terms that remain read, written out from the graph
rather than taken from the package.

The numpy forms that kernels were rewritten from are kept as their oracles:
the logistic through boolean masks (``masked_sigmoid_into``, which the
`sigmoid` primitive uses), and the importance weights and the MMD with
``np.clip``, ``.mean(axis=0)`` and ``np.tile`` (``clipped_importance_weights``
and ``mmd_mean_tile``).  ``tests/test_kernel_oracles.py`` requires the
package's kernels to give their bits, NaN payloads included.

``split_outcome`` is `model.predict_outcome` in plain numpy, its outcome
head's first layer applied as a fixed part plus the do-value's term, and
``prediction_bound`` is how far that order of summation may take it from the
recorded forward pass, which sums the first layer in one dot product.

A teacher is a `detach` node: a constant copy of the head's value.  On a
`TeacherTape` the copies are kept in order, and a tape given them hands them
out again, so the finite differences of ``tests/gradcheck.py`` hold every
teacher at its value at the base point, as the stop-gradient objective does.
"""

from __future__ import annotations

import numpy as np

from sd2 import autodiff as ad
from sd2 import family as F
from sd2.autodiff import Tensor, _elu_into
from sd2.family import BERNOULLI, GAUSSIAN, PROB_FLOOR, Gaussian
from sd2.losses import WEIGHT_CLIP, DegenerateBatchError, LossBreakdown


# -- the numpy forms kernels were rewritten from -------------------------------

def masked_sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    """Stable logistic of x written to out, the two sides selected by boolean
    masks: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)


def clipped_importance_weights(pi_c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`losses.importance_weights` with ``np.clip``."""
    pi_c = np.clip(np.asarray(pi_c, dtype=np.float64).reshape(-1), PROB_FLOOR, 1.0 - PROB_FLOOR)
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    n1 = float(t.sum())
    n0 = float(len(t) - n1)
    pi_fact = np.where(t == 1, pi_c, 1.0 - pi_c)
    class_ratio = np.where(t == 1, n0 / n1, n1 / n0)
    return np.clip(1.0 + class_ratio * (1.0 - pi_fact) / pi_fact, 1.0, WEIGHT_CLIP)


def mmd_mean_tile(r: np.ndarray, t: np.ndarray, g: float) -> tuple[float, np.ndarray]:
    """`losses.adjustment_disc`'s value and its gradient for an upstream
    gradient g, with each group's ``.mean(axis=0)`` and its gradient
    ``np.tile``-d over the group's rows."""
    idx0, idx1 = np.nonzero(t == 0)[0], np.nonzero(t == 1)[0]
    diff = r[idx0].mean(axis=0) - r[idx1].mean(axis=0)
    grad_diff = np.full_like(diff, float(g)) * 2.0 * diff
    out = np.zeros_like(r)
    out[idx0] += np.tile(grad_diff / len(idx0), (len(idx0), 1))
    out[idx1] += np.tile(-grad_diff / len(idx1), (len(idx1), 1))
    return (diff ** 2).sum(), out


# -- primitives ---------------------------------------------------------------

def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return Tensor(a.tape, a.value + b.value, (a, b),
                  (lambda g: g, lambda g: g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return Tensor(a.tape, a.value * b.value, (a, b),
                  (lambda g: g * b.value, lambda g: g * a.value), "mul")


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or array (no gradient through c)."""
    c = np.asarray(c, dtype=np.float64)
    return Tensor(a.tape, a.value * c, (a,), (lambda g: g * c,), "scale")


def shift(a: Tensor, c) -> Tensor:
    """Add a constant scalar or same-shape array."""
    c = np.asarray(c, dtype=np.float64)
    return Tensor(a.tape, a.value + c, (a,), (lambda g: g,), "shift")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return Tensor(a.tape, a.value - b.value, (a, b),
                  (lambda g: g, lambda g: -g), "sub")


def square(a: Tensor) -> Tensor:
    return Tensor(a.tape, a.value ** 2, (a,), (lambda g: g * 2.0 * a.value,), "square")


def neg(a: Tensor) -> Tensor:
    return Tensor(a.tape, -a.value, (a,), (lambda g: -g,), "neg")


def _check_matmul(x: np.ndarray, w: np.ndarray):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {x.shape} @ {w.shape}")


def _check_bias(x: np.ndarray, b: np.ndarray):
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias: incompatible shapes {x.shape} + {b.shape}")


def matmul(x: Tensor, w: Tensor) -> Tensor:
    _check_matmul(x.value, w.value)
    return Tensor(x.tape, x.value @ w.value, (x, w),
                  (lambda g: g @ w.value.T, lambda g: x.value.T @ g), "matmul")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    _check_bias(x.value, b.value)
    return Tensor(x.tape, x.value + b.value, (x, b),
                  (lambda g: g, lambda g: g.sum(axis=0)), "add_bias")


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        value = np.log(a.value)
    return Tensor(a.tape, value, (a,), (lambda g: g / a.value,), "log")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.value)
    return Tensor(a.tape, out, (a,), (lambda g: g * out,), "exp")


def sigmoid(a: Tensor) -> Tensor:
    out = np.empty_like(a.value)
    masked_sigmoid_into(a.value, out)
    return Tensor(a.tape, out, (a,), (lambda g: g * out * (1.0 - out),), "sigmoid")


def elu(a: Tensor) -> Tensor:
    out = np.empty_like(a.value)
    ex = _elu_into(a.value, out)
    return Tensor(a.tape, out, (a,), (lambda g: g * ex,), "elu")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = ((a.value >= lo) & (a.value <= hi)).astype(np.float64)
    return Tensor(a.tape, np.clip(a.value, lo, hi), (a,), (lambda g: g * mask,), "clip")


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.tape, np.array(a.value.sum()), (a,),
                  (lambda g: np.full_like(a.value, float(g)),), "sum")


def mean_rows(a: Tensor) -> Tensor:
    """Column means of an (n, k) matrix."""
    if a.value.ndim != 2:
        raise ValueError("mean_rows expects a matrix")
    n = a.value.shape[0]
    return Tensor(a.tape, a.value.mean(axis=0), (a,),
                  (lambda g: np.tile(g / n, (n, 1)),), "mean_rows")


def select_cols(a: Tensor, j: int) -> Tensor:
    """Column j of an (n, k) matrix, as an (n, 1) matrix."""
    if a.value.ndim != 2 or not 0 <= j < a.value.shape[1]:
        raise ValueError(f"select_cols: column {j} out of range for {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        out[:, j:j + 1] = g
        return out

    return Tensor(a.tape, a.value[:, j:j + 1], (a,), (vjp,), "select_cols")


def select_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Tensor(a.tape, a.value[idx], (a,), (vjp,), "select_rows")


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    return Tensor(a.tape, np.array(a.value.mean()), (a,),
                  (lambda g: np.full_like(a.value, float(g) / n),), "mean")


class TeacherTape(ad.Tape):
    """A tape that keeps the value of each teacher `detach` makes on it, in
    order, or, given the ``teachers`` of an earlier pass, hands those out
    instead."""

    def __init__(self, teachers: list[np.ndarray] | None = None, record: bool = True):
        super().__init__(record)
        self.teachers: list[np.ndarray] = []
        self._replay = None if teachers is None else iter(teachers)

    def teacher(self, value: np.ndarray) -> np.ndarray:
        if self._replay is not None:
            return next(self._replay)
        self.teachers.append(value)
        return value


def detach(a: Tensor) -> Tensor:
    """Constant copy of a's value, so that moving its source in place (a
    probed parameter) leaves it; kept or replayed by a `TeacherTape`."""
    value = np.array(a.value, dtype=np.float64)
    if isinstance(a.tape, TeacherTape):
        value = a.tape.teacher(value)
    node = Tensor(a.tape, value, (), (), "detach")
    node.constant = True
    return node


def gaussian_detach(g: Gaussian) -> Gaussian:
    return Gaussian(detach(g.mean), detach(g.log_std))


def composed_dense(x, w, b, activation):
    """`dense` written with the primitives it fuses."""
    pre = add_bias(matmul(x, w), b)
    if activation == "elu":
        return elu(pre)
    if activation == "sigmoid":
        return sigmoid(pre)
    return pre


# -- per-sample family terms --------------------------------------------------
# Each as one node from the family's kernel, and written with primitives.

def term_node(kernel, tape, *args) -> Tensor:
    """A term kernel's values and (node, vjp) pairs as one tape node."""
    value, pairs = kernel(*args)
    return Tensor(tape, value, tuple(p for p, _ in pairs), tuple(v for _, v in pairs),
                  kernel.__name__)


def _col(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def bernoulli_ce_vec(q: Tensor, y) -> Tensor:
    return term_node(F.bernoulli_ce, q.tape, F.BernoulliHead.of(q), _col(y))


def bernoulli_kl_vec(q: Tensor, p: Tensor) -> Tensor:
    return term_node(F.bernoulli_kl, q.tape, F.BernoulliHead.of(q), F.BernoulliHead.of(p))


def gaussian_nll_vec(g: Gaussian, target) -> Tensor:
    return term_node(F.gaussian_nll, g.mean.tape, F.GaussianHead.of(g), _col(target))


def gaussian_kl_vec(q: Gaussian, p: Gaussian) -> Tensor:
    return term_node(F.gaussian_kl, q.mean.tape, F.GaussianHead.of(q), F.GaussianHead.of(p))


def composed_bernoulli_ce(q, y):
    y = _col(y)
    qc = clip(q, PROB_FLOOR, 1.0 - PROB_FLOOR)
    one_minus = shift(neg(qc), 1.0)
    return neg(add(scale(log(qc), y), scale(log(one_minus), 1.0 - y)))


def composed_bernoulli_kl(q, p):
    qc = clip(q, PROB_FLOOR, 1.0 - PROB_FLOOR)
    pc = clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    one_q = shift(neg(qc), 1.0)
    one_p = shift(neg(pc), 1.0)
    pos = mul(qc, sub(log(qc), log(pc)))
    neg_part = mul(one_q, sub(log(one_q), log(one_p)))
    return add(pos, neg_part)


def composed_gaussian_nll(g, target):
    target = _col(target)
    resid = shift(neg(g.mean), target)
    inv_var = exp(scale(g.log_std, -2.0))
    return add(scale(mul(square(resid), inv_var), 0.5),
               shift(g.log_std, 0.5 * F.LOG_2PI))


def composed_gaussian_kl(q, p):
    var_q = exp(scale(q.log_std, 2.0))
    inv_var_p = exp(scale(p.log_std, -2.0))
    num = add(var_q, square(sub(q.mean, p.mean)))
    return shift(add(sub(p.log_std, q.log_std), scale(mul(num, inv_var_p), 0.5)), -0.5)


def composed_gaussian_head(out):
    return Gaussian(select_cols(out, 0), clip(select_cols(out, 1), F.LOG_STD_MIN, F.LOG_STD_MAX))


# -- the objective, one node per term, mean, sum and scale ----------------------

NLL_VEC = {BERNOULLI: bernoulli_ce_vec, GAUSSIAN: gaussian_nll_vec}
KL_VEC = {BERNOULLI: bernoulli_kl_vec, GAUSSIAN: gaussian_kl_vec}
DETACH = {BERNOULLI: detach, GAUSSIAN: gaussian_detach}


def _teacher_kl(fam, student, teacher) -> Tensor:
    return mean_all(KL_VEC[fam](student, DETACH[fam](teacher)))


def distill_unit_treatment(fam, outputs, t) -> dict:
    """Labels/teachers/peer terms of the treatment-side unit."""
    return {
        "label_z": mean_all(NLL_VEC[fam](outputs.q_t_z, t)),
        "teacher_z": _teacher_kl(fam, outputs.q_t_z, outputs.q_t),
        "teacher_c": _teacher_kl(fam, outputs.q_t_c, outputs.q_t),
        "peer": mean_all(KL_VEC[fam](outputs.q_t_c, outputs.q_t_z)),
    }


def distill_unit_outcome(fam, outputs, y) -> dict:
    """Outcome-side unit; the peer term runs student-adjustment against
    student-confounder."""
    return {
        "label_a": mean_all(NLL_VEC[fam](outputs.q_y_a, y)),
        "label_c": mean_all(NLL_VEC[fam](outputs.q_y_c, y)),
        "teacher_a": _teacher_kl(fam, outputs.q_y_a, outputs.q_y),
        "teacher_c": _teacher_kl(fam, outputs.q_y_c, outputs.q_y),
        "peer": mean_all(KL_VEC[fam](outputs.q_y_a, outputs.q_y_c)),
    }


def _sum_terms(terms: dict) -> Tensor:
    node = None
    for t in terms.values():
        node = t if node is None else add(node, t)
    return node


def _anchored_treatment_loss(student, partner, teacher, t) -> Tensor:
    nll = mean_all(gaussian_nll_vec(student, t))
    kl_teacher = mean_all(gaussian_kl_vec(student, gaussian_detach(teacher)))
    kl_partner = mean_all(gaussian_kl_vec(student, partner))
    return add(add(nll, kl_teacher), kl_partner)


def continuous_adjust_loss(outputs, t) -> Tensor:
    """Likelihood of T under the confounder treatment head plus its KLs to
    the (detached) deep head and the adjustment head."""
    return _anchored_treatment_loss(outputs.q_t_c, outputs.q_t_a, outputs.q_t, t)


def continuous_rebalance_loss(outputs, t) -> Tensor:
    """Likelihood of T under the instrument head plus its KLs to the
    (detached) deep head and the rebalanced-confounder head."""
    return _anchored_treatment_loss(outputs.q_t_z, outputs.q_t_cr, outputs.q_t, t)


def adjustment_disc(r_a: Tensor, t) -> Tensor:
    """Squared linear-kernel MMD between the two groups' adjustment
    representations, from row selections: the squared distance of group
    means."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    idx0 = np.nonzero(t == 0)[0]
    idx1 = np.nonzero(t == 1)[0]
    if len(idx0) == 0 or len(idx1) == 0:
        raise DegenerateBatchError("adjustment discrepancy needs both groups")
    g0 = select_rows(r_a, idx0)
    g1 = select_rows(r_a, idx1)
    return sum_all(square(sub(mean_rows(g0), mean_rows(g1))))


def l2_penalty(params: dict) -> Tensor:
    """Squared L2 norm over weight matrices, as one node."""
    weights = [p for name, p in params.items() if name.endswith(".W")]
    value = np.array(sum(float(np.sum(p.value ** 2)) for p in weights))
    vjps = tuple((lambda p: (lambda g: (2.0 * float(g)) * p.value))(p) for p in weights)
    return Tensor(weights[0].tape, value, tuple(weights), vjps, "l2_penalty")


def _total_loss(fam, outputs, t, y, sample_weights, weights, params, make_adjust,
                make_rebalance=None) -> LossBreakdown:
    nll_y = NLL_VEC[fam](outputs.q_y, y)
    factual_y = mean_all(nll_y if sample_weights is None else scale(nll_y, sample_weights))
    nll_t = NLL_VEC[fam](outputs.q_t, t)
    factual_t = mean_all(nll_t)
    adjust = make_adjust()
    unit_y = _sum_terms(distill_unit_outcome(fam, outputs, y))
    unit_t = _sum_terms(distill_unit_treatment(fam, outputs, t))
    rebalance = None if make_rebalance is None else make_rebalance()
    reg = l2_penalty(params)
    terms = [(weights.alpha, factual_t), (weights.beta, adjust),
             (weights.gamma, add(unit_y, unit_t))]
    if rebalance is not None:
        terms.append((weights.omega_cont, rebalance))
    terms.append((weights.delta, reg))
    total = factual_y
    for coeff, node in terms:
        total = add(total, scale(node, coeff))
    return LossBreakdown(
        factual_y=float(factual_y.value), factual_t=float(factual_t.value),
        adjust=float(adjust.value), distill_outcome=float(unit_y.value),
        distill_treatment=float(unit_t.value),
        rebalance=0.0 if rebalance is None else float(rebalance.value),
        reg=float(reg.value), total=float(total.value), node=total,
        per_sample=(nll_y.value[:, 0], nll_t.value[:, 0]))


def total_loss_binary(outputs, t, y, sample_weights, weights, params) -> LossBreakdown:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    w = np.asarray(sample_weights, dtype=np.float64).reshape(-1, 1)
    return _total_loss(BERNOULLI, outputs, t, y, w, weights, params,
                       lambda: adjustment_disc(outputs.r_a, t))


def total_loss_continuous(outputs, t, y, weights, params) -> LossBreakdown:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    return _total_loss(GAUSSIAN, outputs, t, y, None, weights, params,
                       lambda: continuous_adjust_loss(outputs, t),
                       lambda: continuous_rebalance_loss(outputs, t))


# -- what each variant's objective reads ----------------------------------------

OUTCOME_PATH = ("enc_c", "enc_a", "retain_y", "head_y")        # the factual outcome term
TREATMENT_PATH = ("enc_z", "enc_c", "retain_t", "head_t")      # the factual treatment term
# the continuous rebalance loss: the deep and instrument treatment heads and
# the rebalanced-confounder head; no variant zeroes its coefficient
REBALANCE_PATH = TREATMENT_PATH + ("head_t_z", "rebalance", "head_t_cr")

# the networks the kept terms read; None: every network.  Binary Lp+Lt+La
# adds the MMD, which reads enc_a, already read by the outcome term.
READ_NETWORKS = {
    ("binary", "Lp"): OUTCOME_PATH,
    ("binary", "Lp+Lt"): OUTCOME_PATH + TREATMENT_PATH,
    ("binary", "Lp+Lt+La"): OUTCOME_PATH + TREATMENT_PATH,
    ("binary", "Total"): None,
    ("continuous", "Lp"): OUTCOME_PATH + REBALANCE_PATH,
    ("continuous", "Lp+Lt"): OUTCOME_PATH + REBALANCE_PATH,
    ("continuous", "Lp+Lt+La"): OUTCOME_PATH + REBALANCE_PATH + ("head_t_c", "head_t_a"),
    ("continuous", "Total"): None,
}

# the breakdown fields of the terms each variant weights by 0
SKIPPED_FIELDS = {"Lp": ("factual_t", "adjust", "distill_outcome", "distill_treatment"),
                  "Lp+Lt": ("adjust", "distill_outcome", "distill_treatment"),
                  "Lp+Lt+La": ("distill_outcome", "distill_treatment"),
                  "Total": ()}


def read_params(params: dict, mode: str, variant: str) -> dict:
    """The entries of ``params`` whose network the variant's objective reads."""
    read = READ_NETWORKS[mode, variant]
    return {k: v for k, v in params.items() if read is None or k.split(".")[0] in read}


# -- prediction ---------------------------------------------------------------

def _elu(z):
    return np.maximum(z, 0.0) + np.exp(np.minimum(z, 0.0)) - 1.0


def _outcome_first_layer(m, x):
    """retain_y's output R in plain numpy over all rows at once, and the
    outcome head's first-layer weights and bias; row 0 of the weights meets
    the treatment."""
    p = m.params

    def encoder(net):
        h = x
        for i in range(m.config.enc_layers + 1):
            h = _elu(h @ p[f"{net}.l{i}.W"] + p[f"{net}.l{i}.b"])
        return h

    r = np.concatenate([encoder("enc_c"), encoder("enc_a")], axis=1)
    r = _elu(r @ p["retain_y.l0.W"] + p["retain_y.l0.b"])
    return r, p["head_y.l0.W"], p["head_y.l0.b"]


def split_outcome(m, x, t):
    """predict_outcome in plain numpy over all rows at once, the outcome
    head's first layer applied as (R @ W_R + b) + t * w_t."""
    r, w, b = _outcome_first_layer(m, x)
    h = _elu((r @ w[1:] + b) + t * w[0])
    z = (h @ m.params["head_y.l1.W"] + m.params["head_y.l1.b"])[:, 0]
    if m.config.mode == "continuous":
        return z
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


U = 2.0 ** -53  # the unit roundoff of float64


def gamma(k):
    """Higham's gamma_k: a sum of k rounded products, added in any order
    (fused or not), is within gamma_k times the sum of their magnitudes of
    the exact sum (Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return k * U / (1.0 - k * U)


def prediction_bound(m, x, t):
    """How far predict_outcome may be from the recorded forward's q_y, per row.

    Both sum the outcome head's first layer over the same K + 1 terms, the
    K = 1 + enc_hidden products of [t | R] with W and the bias, in different
    orders, so each is within gamma_{K+1} A of the exact sum, A = |[t | R]|
    @ |W| + |b|, and they differ by at most dz = 2 gamma_{K+1} A.  The ELU is
    1-Lipschitz; each computed ELU, max(z, 0) + exp(min(z, 0)) - 1, adds at
    most 2u(|z| + 1) for its two roundings plus 8u for an exp within 4 ulp.
    The last layer carries that dh through |W2| and adds its own two
    roundings of a (head_hidden + 1)-term sum; the binary sigmoid is
    1/4-Lipschitz and each computed one adds at most 12u (its exp, add and
    divide).
    """
    r, w, b = _outcome_first_layer(m, x)
    a = np.concatenate([np.full((len(x), 1), t), r], axis=1)
    z = a @ w + b
    dz = 2.0 * gamma(w.shape[0] + 1) * (np.abs(a) @ np.abs(w) + np.abs(b))
    dh = dz + 2.0 * (2.0 * U * (np.abs(z) + dz + 1.0) + 8.0 * U)
    w2, b2 = np.abs(m.params["head_y.l1.W"][:, 0]), abs(m.params["head_y.l1.b"][0])
    dout = dh @ w2 + 2.0 * gamma(len(w2) + 1) * ((np.abs(_elu(z)) + dh) @ w2 + b2)
    return dout if m.config.mode == "continuous" else dout / 4.0 + 2.0 * 12.0 * U
