import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infotheory as it
import reference_ops as R
from gradcheck import finite_diff_check
from sd2 import autodiff as ad
from sd2 import family as F
from sd2 import losses as L
from sd2 import model as M
from sd2 import rng
from sd2 import training as tr
from sd2.family import BERNOULLI, PROB_FLOOR, Gaussian
from sd2.model import HeadOutputs

LN2 = np.log(2.0)


def col(tape, values):
    return tape.constant(np.asarray(values, dtype=float).reshape(-1, 1))


def binary_outputs(tape, q_t, q_t_z, q_t_c, q_y, q_y_a, q_y_c, r_a=None):
    return HeadOutputs(q_t=col(tape, q_t), q_t_z=col(tape, q_t_z), q_t_c=col(tape, q_t_c),
                       q_y=col(tape, q_y), q_y_a=col(tape, q_y_a), q_y_c=col(tape, q_y_c),
                       r_a=r_a)


def gaussian(tape, mean, log_std):
    return Gaussian(col(tape, mean), col(tape, log_std))


def continuous_outputs(t_hat, t_hat_z, t_hat_c, t_hat_a, t_hat_cr, y_hat, y_hat_a, y_hat_c):
    return HeadOutputs(q_t=t_hat, q_t_z=t_hat_z, q_t_c=t_hat_c, q_y=y_hat, q_y_a=y_hat_a,
                       q_y_c=y_hat_c, q_t_a=t_hat_a, q_t_cr=t_hat_cr)


class TestImportanceWeights:
    def test_balanced_half(self):
        w = L.importance_weights(np.full(4, 0.5), np.array([0, 1, 0, 1.0]))
        assert np.allclose(w, 2.0)

    def test_confident_propensity_goes_to_one(self):
        w = L.importance_weights(np.array([1 - 1e-9, 1e-9]), np.array([1.0, 0.0]))
        assert np.allclose(w, 1.0, atol=1e-5)

    def test_clipped_at_hundred(self):
        w = L.importance_weights(np.array([0.001, 0.999]), np.array([1.0, 0.0]))
        assert np.allclose(w, 100.0)

    def test_degenerate_batch(self):
        with pytest.raises(L.DegenerateBatchError):
            L.importance_weights(np.full(4, 0.5), np.ones(4))

    @given(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_bounds_hold(self, probs):
        t = np.array([i % 2 for i in range(len(probs))], dtype=float)
        w = L.importance_weights(np.array(probs), t)
        assert np.all(w >= 1.0) and np.all(w <= 100.0)


class TestAdjustmentDisc:
    def test_identical_groups_zero(self):
        tape = ad.Tape()
        block = rng.normal_matrix(5, 4, 3)
        r = tape.constant(np.vstack([block, block]))
        t = np.array([0, 0, 0, 0, 1, 1, 1, 1.0])
        value, _ = L.adjustment_disc(r, t)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_singleton_groups_linear(self):
        tape = ad.Tape()
        r = tape.constant(np.array([[0.0], [1.0]]))
        assert L.adjustment_disc(r, np.array([0.0, 1.0]))[0] == pytest.approx(1.0)

    def test_equal_means_linear(self):
        tape = ad.Tape()
        r = tape.constant(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        t = np.array([0.0, 0.0, 1.0, 1.0])
        assert L.adjustment_disc(r, t)[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_in_group_labels(self):
        r_val = rng.normal_matrix(6, 8, 2)
        t = np.array([0, 1, 0, 1, 1, 0, 0, 1.0])
        tape = ad.Tape()
        a, _ = L.adjustment_disc(tape.constant(r_val), t)
        tape2 = ad.Tape()
        b, _ = L.adjustment_disc(tape2.constant(r_val), 1.0 - t)
        assert a == pytest.approx(float(b), rel=1e-12)

    def test_empty_group_rejected(self):
        tape = ad.Tape()
        with pytest.raises(L.DegenerateBatchError):
            L.adjustment_disc(tape.constant(np.ones((3, 2))), np.ones(3))


def scalar_term_run(build, values, coeff=0.7):
    """Value and parameter gradients of coeff * term + a linear function of
    every parameter, with ``build(tape, params)`` making the term's node.

    The linear part adds a second gradient to each parameter after the
    term's, so the order in which the term's contributions arrive shows in
    the rounding."""
    tape = ad.Tape()
    params = {k: tape.parameter(v, k) for k, v in values.items()}
    out = build(tape, params)
    loss = R.scale(out, coeff)
    for i, p in enumerate(params.values()):
        cotangent = rng.normal_matrix(230 + i, 1, p.value.size).reshape(p.shape)
        loss = R.add(loss, R.sum_all(R.scale(p, cotangent)))
    _, grads = tape.gradients(loss)
    return out.value, grads


def assert_same_term(fused, composed, values):
    value, grads = scalar_term_run(fused, values)
    ref_value, ref_grads = scalar_term_run(composed, values)
    assert value == ref_value
    assert list(grads) == list(ref_grads)
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in ref_grads)


class TestScalarTerms:
    """The MMD and the L2 penalty against their compositions
    (tests/reference_ops.py): values and every gradient, bit for bit."""

    @pytest.mark.parametrize("t", [
        np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1.0]),   # unequal groups
        np.array([1, 0, 0, 0, 0, 0, 0.0]),                 # a one-row treated group
        np.array([0, 1, 1, 1, 1.0]),                       # a one-row control group
        np.array([1, 0.0]),
    ], ids=["unequal", "one-treated", "one-control", "two-rows"])
    @pytest.mark.parametrize("width", [1, 3, 8], ids="width{}".format)
    def test_adjustment_disc_matches_composition_bitwise(self, t, width):
        values = {"r_a": rng.normal_matrix(220, len(t), width) * 1.5}
        assert_same_term(
            lambda tape, p: R.term_node(L.adjustment_disc, tape, p["r_a"], t),
            lambda tape, p: R.adjustment_disc(p["r_a"], t), values)

    def test_l2_penalty_matches_composition_bitwise(self):
        values = {"enc.l0.W": rng.normal_matrix(222, 5, 4), "enc.l0.b": np.full(4, 0.3),
                  "head.W": rng.normal_matrix(223, 4, 1) * 3.0}
        assert_same_term(lambda tape, p: R.term_node(L.l2_penalty, tape, p),
                         lambda tape, p: R.l2_penalty(p), values)


class TestDistillUnits:
    def test_all_heads_equal_kills_kl_terms(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, *([[0.7, 0.4]] * 6))
        t = np.array([1.0, 0.0])
        terms = R.distill_unit_treatment(BERNOULLI, outs, t)
        for name in ("teacher_z", "teacher_c", "peer"):
            assert terms[name].value == pytest.approx(0.0, abs=1e-12)
        terms_y = R.distill_unit_outcome(BERNOULLI, outs, t)
        for name in ("teacher_a", "teacher_c", "peer"):
            assert terms_y[name].value == pytest.approx(0.0, abs=1e-12)

    def test_peer_value_treatment(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.8], [0.5], [0.5], [0.5], [0.5])
        terms = R.distill_unit_treatment(BERNOULLI, outs, np.array([1.0]))
        # KL(q_t_c || q_t_z) = KL(0.5 || 0.8)
        assert terms["peer"].value == pytest.approx(0.2231, abs=1e-4)

    def test_peer_value_outcome(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.5], [0.5], [0.5], [1.0], [0.5])
        terms = R.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))
        # KL(q_y_a || q_y_c) = KL(1 || 0.5) = ln 2 (up to head clamping)
        assert terms["peer"].value == pytest.approx(LN2, abs=1e-5)

    def test_equal_peers_zero(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.5], [0.5], [0.5], [0.9], [0.9])
        assert R.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))["peer"].value == pytest.approx(0.0)

    def test_perfect_prediction_ce_near_zero(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5, 0.5], [1.0, 0.0], [0.5, 0.5],
                              [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        terms = R.distill_unit_treatment(BERNOULLI, outs, np.array([1.0, 0.0]))
        assert terms["label_z"].value == pytest.approx(0.0, abs=1e-6)

    def test_outcome_unit_always_carries_confounder_label(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, *([[0.6]] * 6))
        terms = R.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))
        assert "label_c" in terms


def small_batch(n=8, key=1):
    t = np.array([i % 2 for i in range(n)], dtype=float)
    y = rng.bernoulli(key, np.full(n, 0.5))
    return t, y


def random_binary_setup(tape, n=8, key=3):
    vals = [np.clip(0.5 + 0.3 * rng.normals(key + i, 0, n), 0.05, 0.95)
            for i in range(6)]
    params = {"layer.W": tape.parameter(rng.normal_matrix(key + 10, 3, 2), "layer.W"),
              "layer.b": tape.parameter(np.zeros(2), "layer.b")}
    r_a = tape.constant(rng.normal_matrix(key + 20, n, 3))
    return binary_outputs(tape, *vals, r_a=r_a), params


def weighted_sum(bd, w):
    """The total recomputed from the breakdown's terms and the coefficients."""
    return (bd.factual_y + w.alpha * bd.factual_t + w.beta * bd.adjust
            + w.gamma * (bd.distill_outcome + bd.distill_treatment)
            + w.omega_cont * bd.rebalance + w.delta * bd.reg)


class TestTotalLossBinary:
    def test_term_isolation(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        zero = L.LossWeights(alpha=0, beta=0, gamma=0, delta=0)
        bd = L.total_loss_binary(outs, t, y, np.ones(8), zero, params)
        expected = R.bernoulli_ce_vec(outs.q_y, y).value.mean()
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_perfect_heads_leave_only_reg(self):
        tape = ad.Tape()
        t, y = small_batch()
        p = np.clip(y, 1e-7, 1 - 1e-7)
        pt = np.clip(t, 1e-7, 1 - 1e-7)
        params = {"w.W": tape.parameter(np.array([[2.0]]), "w.W")}
        r_a = tape.constant(np.zeros((8, 2)))
        outs = binary_outputs(tape, pt, pt, pt, p, p, p, r_a=r_a)
        w = L.LossWeights(alpha=1, beta=0, gamma=0, delta=0.5)
        bd = L.total_loss_binary(outs, t, y, np.ones(8), w, params)
        assert bd.total == pytest.approx(0.5 * 4.0, abs=1e-5)

    def test_breakdown_reconciles(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        w = L.LossWeights(alpha=0.7, beta=1.3, gamma=2.1, delta=0.01)
        sw = L.importance_weights(np.full(8, 0.5), t)
        bd = L.total_loss_binary(outs, t, y, sw, w, params)
        assert abs(bd.total - weighted_sum(bd, w)) < 1e-10

    def test_linear_in_gamma(self):
        t, y = small_batch()
        def total(gamma):
            tape = ad.Tape()
            outs, params = random_binary_setup(tape)
            w = L.LossWeights(alpha=0, beta=0, gamma=gamma, delta=0)
            return L.total_loss_binary(outs, t, y, np.ones(8), w, params).total
        base, once, twice = total(0.0), total(1.0), total(2.0)
        assert twice - base == pytest.approx(2.0 * (once - base), rel=1e-10)

    def test_weight_length_mismatch(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        with pytest.raises(ValueError, match="weight count"):
            L.total_loss_binary(outs, t, y, np.ones(5), L.LossWeights(), params)

    def test_continuous_total_rejects_binary_outputs(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        with pytest.raises(ValueError, match="continuous-mode"):
            L.total_loss_continuous(outs, t, y, L.LossWeights(), params)


def continuous_breakdown(outs, t):
    """Breakdown of the continuous objective over these heads: its adjust and
    rebalance fields are the two head-based treatment losses."""
    tape = outs.q_t.mean.tape
    params = {"w.W": tape.parameter(np.eye(1), "w.W")}
    return L.total_loss_continuous(outs, t, t, L.LossWeights(), params)


class TestContinuousLosses:
    def test_adjust_identical_gaussians(self):
        tape = ad.Tape()
        g = [gaussian(tape, [0.3], [0.1])] * 5
        outs = continuous_outputs(*g, gaussian(tape, [0.0], [0.0]),
                                     gaussian(tape, [0.0], [0.0]), gaussian(tape, [0.0], [0.0]))
        val = continuous_breakdown(outs, np.array([0.3])).adjust
        # both KL terms vanish; NLL at the mean with sigma = e^{0.1}
        nll = 0.5 * np.log(2 * np.pi) + 0.1
        assert val == pytest.approx(nll)

    def test_adjust_kl_unit_shift(self):
        tape = ad.Tape()
        t_hat = gaussian(tape, [0.0], [0.0])
        t_c = gaussian(tape, [1.0], [0.0])
        t_a = gaussian(tape, [0.0], [0.0])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(t_hat, filler, t_c, t_a, filler, filler, filler, filler)
        val = continuous_breakdown(outs, np.array([1.0])).adjust
        nll = 0.5 * np.log(2 * np.pi)       # mean matches target, sigma 1
        assert val == pytest.approx(nll + 0.5 + 0.5)  # two KLs of N(1,1)||N(0,1)

    def test_rebalance_kl_value(self):
        tape = ad.Tape()
        t_z = gaussian(tape, [0.0], [0.0])
        t_cr = gaussian(tape, [1.0], [np.log(2.0)])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(t_z, t_z, filler, filler, t_cr, filler, filler, filler)
        val = continuous_breakdown(outs, np.array([0.0])).rebalance
        expected_kl = np.log(2.0) + (1.0 + 1.0) / 8.0 - 0.5   # N(0,1) || N(1,2)
        nll = 0.5 * np.log(2 * np.pi)
        assert val == pytest.approx(nll + 0.0 + expected_kl)

    def test_clamp_floor_is_finite(self):
        tape = ad.Tape()
        tight = gaussian(tape, [0.0], [-5.0])
        wide = gaussian(tape, [0.0], [3.0])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(wide, tight, tight, tight, tight,
                                     filler, filler, filler)
        val = continuous_breakdown(outs, np.array([5.0])).adjust
        assert np.isfinite(val)

    def test_gaussian_nll_at_mean(self):
        tape = ad.Tape()
        g = gaussian(tape, [2.0], [0.0])
        nll = R.gaussian_nll_vec(g, np.array([2.0]))
        assert nll.value[0, 0] == pytest.approx(0.5 * np.log(2 * np.pi))

    def test_total_isolation_and_reconciliation(self):
        tape = ad.Tape()
        heads = [gaussian(tape, rng.normals(40 + i, 0, 6), 0.2 * rng.normals(50 + i, 0, 6))
                 for i in range(8)]
        outs = continuous_outputs(*heads)
        params = {"w.W": tape.parameter(rng.normal_matrix(60, 2, 2), "w.W")}
        t = rng.normals(70, 0, 6)
        y = rng.normals(71, 0, 6)
        w0 = L.LossWeights(alpha=0, beta=0, gamma=0, delta=0, omega_cont=0)
        bd0 = L.total_loss_continuous(outs, t, y, w0, params)
        assert bd0.total == pytest.approx(bd0.factual_y, rel=1e-12)
        tape2 = ad.Tape()
        heads2 = [gaussian(tape2, rng.normals(40 + i, 0, 6), 0.2 * rng.normals(50 + i, 0, 6))
                  for i in range(8)]
        outs2 = continuous_outputs(*heads2)
        params2 = {"w.W": tape2.parameter(rng.normal_matrix(60, 2, 2), "w.W")}
        w = L.LossWeights(alpha=0.3, beta=1.7, gamma=0.9, delta=0.05, omega_cont=2.0)
        bd = L.total_loss_continuous(outs2, t, y, w, params2)
        assert abs(bd.total - weighted_sum(bd, w)) < 1e-10

    def test_doubling_gamma_doubles_distillation(self):
        t = rng.normals(70, 0, 6)
        y = rng.normals(71, 0, 6)
        def total(gamma):
            tape = ad.Tape()
            heads = [gaussian(tape, rng.normals(40 + i, 0, 6), 0.2 * rng.normals(50 + i, 0, 6))
                     for i in range(8)]
            outs = continuous_outputs(*heads)
            params = {"w.W": tape.parameter(np.eye(2), "w.W")}
            w = L.LossWeights(alpha=0, beta=0, gamma=gamma, delta=0, omega_cont=0)
            return L.total_loss_continuous(outs, t, y, w, params).total
        base, once, twice = total(0.0), total(1.0), total(2.0)
        assert twice - base == pytest.approx(2.0 * (once - base), rel=1e-10)


class TestKLProperties:
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_bernoulli_kl_nonneg_and_zero_at_equal(self, q, p):
        tape = ad.Tape()
        kl = R.bernoulli_kl_vec(col(tape, [q]), col(tape, [p])).value[0, 0]
        assert kl >= -1e-15
        tape2 = ad.Tape()
        same = R.bernoulli_kl_vec(col(tape2, [q]), col(tape2, [q])).value[0, 0]
        assert same == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(-2, 2), st.floats(-1, 1), st.floats(-2, 2), st.floats(-1, 1))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_kl_nonneg(self, m1, ls1, m2, ls2):
        tape = ad.Tape()
        kl = R.gaussian_kl_vec(gaussian(tape, [m1], [ls1]),
                               gaussian(tape, [m2], [ls2])).value[0, 0]
        assert kl >= -1e-12


# Ten rows at, beyond and inside both clip edges, then random rows: a
# reordered product or sum in a VJP changes the rounding of a few rows only.
ROWS = 256
EDGE = 1.0 - PROB_FLOOR


def with_random_rows(edges, key, lo, hi):
    return np.concatenate([edges, lo + (hi - lo) * rng.uniforms(key, 0, ROWS - len(edges))])


Q_VALUES = with_random_rows([0.0, 1e-12, PROB_FLOOR, 0.3, 0.5, 0.81, EDGE, 1.0 - 1e-12, 1.0, 0.02],
                            204, 0.0, 1.0)
P_VALUES = with_random_rows([0.4, 1e-9, 0.7, PROB_FLOOR, 0.5, EDGE, 0.2, 0.9, 1.0, 0.0],
                            205, 0.0, 1.0)
Y_VALUES = rng.bernoulli(206, np.full(ROWS, 0.5))
LS_Q = with_random_rows([-7.0, F.LOG_STD_MIN, -1.2, 0.0, 0.4, F.LOG_STD_MAX, 4.5, -4.9, 2.9, 0.1],
                        207, F.LOG_STD_MIN, F.LOG_STD_MAX)
LS_P = with_random_rows([0.3, -6.0, F.LOG_STD_MIN, 1.1, F.LOG_STD_MAX, -0.2, 0.0, 3.5, -4.0, 2.0],
                        208, F.LOG_STD_MIN, F.LOG_STD_MAX)
COTANGENT = rng.normal_matrix(201, ROWS, 1)


def run_term(term, call, values):
    """Value, node count and parameter gradients of sum(cotangent * term),
    with ``call(term, params)`` building the term from the parameters.

    Each parameter also enters the loss linearly after the term, so its
    gradient sums at least three contributions when the term reaches it
    twice, and the order in which they arrive shows in the rounding.
    """
    tape = ad.Tape()
    params = {k: tape.parameter(v.reshape(-1, 1), k) for k, v in values.items()}
    before = len(tape.nodes)
    out = call(term, params)
    nodes = len(tape.nodes) - before
    loss = R.sum_all(R.mul(out, tape.constant(COTANGENT)))
    for i, p in enumerate(params.values()):
        loss = R.add(loss, R.sum_all(R.scale(p, rng.normal_matrix(210 + i, ROWS, 1))))
    _, grads = tape.gradients(loss)
    return out.value, nodes, grads


def gaussian_of(params, side):
    """The Gaussian whose mean and log std are the parameters themselves."""
    return Gaussian(params[side + "_mean"], params[side + "_ls"])


def clipped_gaussian_of(params, side):
    """The same, with the log std clipped as a Gaussian head clips it."""
    return Gaussian(params[side + "_mean"],
                    R.clip(params[side + "_ls"], F.LOG_STD_MIN, F.LOG_STD_MAX))


GAUSSIAN_VALUES = {"q_mean": rng.normals(211, 0, ROWS), "q_ls": LS_Q,
                   "p_mean": rng.normals(212, 0, ROWS), "p_ls": LS_P}
Q_GAUSSIAN = {k: GAUSSIAN_VALUES[k] for k in ("q_mean", "q_ls")}
TARGET = rng.normals(213, 0, ROWS)

# name: (fused term, its composition, call(term, params), parameter values,
#        nodes the call adds besides the term itself)
FAMILY_CASES = {
    "bernoulli_ce": (R.bernoulli_ce_vec, R.composed_bernoulli_ce,
                     lambda term, p: term(p["q"], Y_VALUES), {"q": Q_VALUES}, 0),
    "bernoulli_kl": (R.bernoulli_kl_vec, R.composed_bernoulli_kl,
                     lambda term, p: term(p["q"], p["p"]), {"q": Q_VALUES, "p": P_VALUES}, 0),
    "bernoulli_kl_teacher": (R.bernoulli_kl_vec, R.composed_bernoulli_kl,
                             lambda term, p: term(p["q"], R.detach(p["p"])),
                             {"q": Q_VALUES, "p": P_VALUES}, 1),
    "bernoulli_kl_self": (R.bernoulli_kl_vec, R.composed_bernoulli_kl,
                          lambda term, p: term(p["q"], p["q"]), {"q": Q_VALUES}, 0),
    "gaussian_nll": (R.gaussian_nll_vec, R.composed_gaussian_nll,
                     lambda term, p: term(gaussian_of(p, "q"), TARGET), Q_GAUSSIAN, 0),
    "gaussian_kl": (R.gaussian_kl_vec, R.composed_gaussian_kl,
                    lambda term, p: term(gaussian_of(p, "q"), gaussian_of(p, "p")),
                    GAUSSIAN_VALUES, 0),
    "gaussian_kl_teacher": (R.gaussian_kl_vec, R.composed_gaussian_kl,
                            lambda term, p: term(gaussian_of(p, "q"),
                                                 R.gaussian_detach(gaussian_of(p, "p"))),
                            GAUSSIAN_VALUES, 2),
    "gaussian_kl_self": (R.gaussian_kl_vec, R.composed_gaussian_kl,
                         lambda term, p: term(gaussian_of(p, "q"), gaussian_of(p, "q")),
                         Q_GAUSSIAN, 0),
}


class TestFusedFamilyTerms:
    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_matches_composition_bitwise(self, case):
        fused, composed, call, values, extra = FAMILY_CASES[case]
        value, nodes, grads = run_term(fused, call, values)
        ref_value, _, ref_grads = run_term(composed, call, values)
        assert nodes == extra + 1
        assert np.array_equal(value, ref_value)
        assert set(grads) == set(values)
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in values)

    def test_clip_edges_pass_or_stop_gradients(self):
        tape = ad.Tape()
        q = tape.parameter(Q_VALUES.reshape(-1, 1), "q")
        _, grads = tape.gradients(R.sum_all(R.bernoulli_ce_vec(q, Y_VALUES)))
        inside = ((Q_VALUES >= PROB_FLOOR) & (Q_VALUES <= EDGE)).reshape(-1, 1)
        assert np.all(grads["q"][~inside] == 0.0) and np.all(grads["q"][inside] != 0.0)
        tape = ad.Tape()
        p = {k: tape.parameter(v.reshape(-1, 1), k) for k, v in Q_GAUSSIAN.items()}
        _, grads = tape.gradients(R.sum_all(R.gaussian_nll_vec(clipped_gaussian_of(p, "q"),
                                                                TARGET)))
        inside = ((LS_Q >= F.LOG_STD_MIN) & (LS_Q <= F.LOG_STD_MAX)).reshape(-1, 1)
        assert np.all(grads["q_ls"][~inside] == 0.0) and np.all(grads["q_ls"][inside] != 0.0)

    def test_gaussian_head_matches_composition_bitwise(self):
        out = np.stack([GAUSSIAN_VALUES["q_mean"], LS_Q], axis=1)

        def run(head):
            tape = ad.Tape()
            o = tape.parameter(out, "out")
            g = head(o)
            loss = R.sum_all(R.add(R.mul(g.mean, tape.constant(COTANGENT)),
                                     R.square(g.log_std)))
            _, grads = tape.gradients(loss)
            return g.mean.value, g.log_std.value, grads["out"]

        fused, composed = run(F.GAUSSIAN.head), run(R.composed_gaussian_head)
        assert all(np.array_equal(a, b) for a, b in zip(fused, composed))

    def test_gaussian_head_gradcheck(self):
        # the mean node and the clipped log-std node against central
        # differences; log stds below, inside and above the clip range, off its edges
        log_std = np.array([-7.0, -4.9, -1.2, 0.0, 0.4, 2.9, 4.5])
        out = np.stack([rng.normals(214, 0, len(log_std)), log_std], axis=1)
        cotangent = rng.normal_matrix(215, len(log_std), 1)

        def loss(tape, params):
            g = F.GAUSSIAN.head(tape.parameter(params["out"], "out"))
            return R.sum_all(R.add(R.mul(g.mean, tape.constant(cotangent)),
                                   R.square(g.log_std)))
        assert finite_diff_check(loss, {"out": out}) < 1e-6

    # logits so that q stays on its side of each clamp edge under probing
    LOGITS_Q = np.array([-20.0, -2.0, -0.5, 0.0, 0.7, 1.9, 20.0, 3.0])
    LOGITS_P = np.array([0.3, 25.0, -1.5, 2.2, -30.0, 0.1, -0.8, 1.0])
    Y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("term", ["ce", "kl", "kl_teacher"])
    def test_bernoulli_gradcheck(self, term):
        weights = rng.normal_matrix(202, 8, 1)

        def loss(tape, params):
            q = R.sigmoid(tape.parameter(params["q"], "q"))
            if term == "ce":
                vec = R.bernoulli_ce_vec(q, self.Y)
            else:
                p = R.sigmoid(tape.parameter(params["p"], "p"))
                vec = R.bernoulli_kl_vec(q, R.detach(p) if term == "kl_teacher" else p)
            return R.sum_all(R.mul(vec, tape.constant(weights)))

        params = {"q": self.LOGITS_Q.reshape(-1, 1).copy()}
        if term != "ce":
            params["p"] = self.LOGITS_P.reshape(-1, 1).copy()
        assert finite_diff_check(loss, params) < 1e-6

    @pytest.mark.parametrize("term", ["nll", "kl", "kl_teacher"])
    def test_gaussian_gradcheck(self, term):
        # log stds inside the clip range or well beyond it; where they are
        # clipped low, the residuals are small, so every row's term has a
        # similar scale and rounding in the summed loss stays far below the
        # tolerance
        values = {"q_mean": np.array([0.0, -1.2, 0.3, 0.8, 1.5, -0.4, 0.6, 2.0]),
                  "q_ls": np.array([-7.0, -1.2, 0.0, 0.4, 4.5, -0.5, 1.5, 0.1]),
                  "p_mean": np.array([0.01, -0.5, 1.0, 0.2, -1.0, 0.1, 0.4, 1.2]),
                  "p_ls": np.array([-6.0, 0.3, -1.0, 1.1, 5.0, -0.2, 0.0, 0.7])}
        target = np.array([0.01, -1.0, 0.5, 1.0, 2.5, -0.2, 0.3, 1.6])
        weights = rng.normal_matrix(203, 8, 1)

        def loss(tape, params):
            p = {k: tape.parameter(v, k) for k, v in params.items()}
            q = clipped_gaussian_of(p, "q")
            if term == "nll":
                vec = R.gaussian_nll_vec(q, target)
            else:
                other = clipped_gaussian_of(p, "p")
                vec = R.gaussian_kl_vec(q, R.gaussian_detach(other)
                                        if term == "kl_teacher" else other)
            return R.sum_all(R.mul(vec, tape.constant(weights)))

        names = ("q_mean", "q_ls") if term == "nll" else tuple(values)
        params = {k: values[k].reshape(-1, 1).copy() for k in names}
        assert finite_diff_check(loss, params) < 1e-6


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            L.LossWeights(alpha=-0.1)


# The objective against the composition it fuses (tests/reference_ops.py),
# through a small model: every breakdown field, the per-sample losses and
# every gradient.

OBJECTIVE_ARCH = dict(rep_dim=4, enc_hidden=8, enc_layers=1, head_hidden=4)
OBJECTIVE_WEIGHTS = L.LossWeights(alpha=0.7, beta=0.5, gamma=1.3, delta=0.01, omega_cont=0.8)


# treatment columns of n rows.  Binary: groups of equal size, unequal groups,
# and a group of one row on either side, as the MMD's group means and the
# importance weights' class ratio see them.  Continuous: standard normal, and
# scaled and shifted away from 0.
TREATMENT_LAYOUTS = {
    ("binary", "alternating"): lambda n: (np.arange(n) % 2).astype(float),
    ("binary", "unequal"): lambda n: (np.arange(n) % 3 == 1).astype(float),
    ("binary", "one-treated"): lambda n: (np.arange(n) == 0).astype(float),
    ("binary", "one-control"): lambda n: (np.arange(n) != 0).astype(float),
    ("continuous", "normal"): lambda n: rng.normals(32, 0, n),
    ("continuous", "scaled"): lambda n: 2.5 + 3.0 * rng.normals(32, 0, n),
}
LAYOUTS = sorted(TREATMENT_LAYOUTS)


def objective_run(losses, mode, layout, variant="Total", record=True, rows=48, enc_layers=1):
    """Breakdown and gradients of one step, with the objective built by
    ``losses`` (the package's or the reference).

    The package's forward builds only the outputs its kept terms read; the
    reference's builds every output and weights the other terms by 0.  Both
    L2 penalties cover the parameters of the networks ``R.READ_NETWORKS``
    names, and the binary objectives use importance weights in every variant.
    """
    arch = M.ArchConfig(input_dim=1, **dict(OBJECTIVE_ARCH, enc_layers=enc_layers))
    cfg = tr.TrainConfig(mode=mode, weights=OBJECTIVE_WEIGHTS, arch=arch)
    cfg = tr.apply_ablation(cfg, variant)
    model = M.init_model(tr._arch_for(cfg, 5), 3)
    x = rng.normal_matrix(31, rows, 5)
    t = TREATMENT_LAYOUTS[mode, layout](rows)
    tape = ad.Tape(record=record)
    params = M.bind(model, tape)
    covered = R.read_params(params, mode, variant)
    only = None
    if losses is L:
        only = L.read_outputs(mode, cfg.weights, importance_weighted=False)
        assert list(M.params_read_by(params, only)) == list(covered)
    if mode == "binary":
        y = rng.bernoulli(33, np.full(rows, 0.4))
        w = L.importance_weights(M.forward_binary(model, x, t).q_t_c.value, t)
        out = M.forward_binary(model, x, t, tape, params, only)
        forward_nodes = len(tape.nodes)
        bd = losses.total_loss_binary(out, t, y, w, cfg.weights, covered)
    else:
        y = rng.normals(34, 0, rows)
        out = M.forward_continuous(model, x, t, tape, params, only)
        forward_nodes = len(tape.nodes)
        bd = losses.total_loss_continuous(out, t, y, cfg.weights, covered)
    result = {"fields": dict(zip(bd.FIELDS, (getattr(bd, f) for f in bd.FIELDS))),
              "per_sample": bd.per_sample, "variant": variant, "read": list(covered)}
    if record:
        result["loss_nodes"] = len(tape.nodes) - forward_nodes
        _, result["grads"] = tape.gradients(bd.node)
    return result


def assert_bitwise_equal(got, ref):
    """Every field the package kept, the per-sample losses and every read
    parameter's gradient equal the reference's bit for bit; the fields of
    the terms the variant weights by 0 are None and every other gradient is
    exactly 0."""
    skipped = R.SKIPPED_FIELDS[got["variant"]]
    assert [f for f, v in got["fields"].items() if v is None] == list(skipped)
    assert {f: v for f, v in got["fields"].items() if f not in skipped} == \
        {f: v for f, v in ref["fields"].items() if f not in skipped}
    nll_y, nll_t = got["per_sample"]
    assert np.array_equal(nll_y, ref["per_sample"][0])
    assert (nll_t is None if "factual_t" in skipped
            else np.array_equal(nll_t, ref["per_sample"][1]))
    if "grads" in ref:
        assert list(got["grads"]) == list(ref["grads"])
        assert all(np.array_equal(got["grads"][k], ref["grads"][k]) for k in got["read"])
        assert all(not np.any(g) for k, g in got["grads"].items() if k not in got["read"])


# a full batch, and the short remainder batches an epoch can end on; two rows
# hold only two distinct binary columns, so the layouts that repeat one of
# them there are left out
BITWISE_CASES = [(mode, layout, rows) for rows in (2, 7, 48) for mode, layout in LAYOUTS
                 if not (rows == 2 and layout in ("unequal", "one-control"))]


def tiny_objective(mode, layout, variant):
    """A tiny model of ``mode`` on 12 rows of ``layout``, and a function that
    gives the ``variant``'s objective built by ``losses`` (the package's or the
    reference) as a ``loss(tape, params)`` for the finite-difference checks.
    As in training, the package's forward builds only the outputs the kept
    terms read; the reference's builds every output and weights the other
    terms by 0.  Both L2 penalties cover the parameters of the networks
    ``R.READ_NETWORKS`` names."""
    weights = tr.apply_ablation(tr.TrainConfig(weights=OBJECTIVE_WEIGHTS), variant).weights
    arch = M.ArchConfig(input_dim=3, rep_dim=2, enc_hidden=3, enc_layers=1, head_hidden=2,
                        mode=mode)
    model = M.init_model(arch, 5)
    rows = 12
    x = rng.normal_matrix(41, rows, 3)
    t = TREATMENT_LAYOUTS[mode, layout](rows)
    y = rng.bernoulli(42, np.full(rows, 0.5)) if mode == "binary" else rng.normals(43, 0, rows)
    w = 1.0 + rng.uniforms(43, 0, rows)

    def objective(losses):
        only = L.read_outputs(mode, weights, importance_weighted=False) if losses is L else None

        def loss(tape, params):
            p = {k: tape.parameter(v, k) for k, v in params.items()}
            covered = R.read_params(p, mode, variant)
            if mode == "binary":
                out = M.forward_binary(model, x, t, tape, p, only)
                return losses.total_loss_binary(out, t, y, w, weights, covered).node
            out = M.forward_continuous(model, x, t, tape, p, only)
            return losses.total_loss_continuous(out, t, y, weights, covered).node
        return loss

    return model, objective


def reference_gradients(model, objective):
    """The reference objective's gradients at the model's parameters, after
    requiring the package's to equal them bit for bit, and its teachers."""
    tape = ad.Tape()
    _, got = tape.gradients(objective(L)(tape, model.params))
    base = R.TeacherTape()
    _, grads = base.gradients(objective(R)(base, model.params))
    assert list(got) == list(grads)
    assert all(np.array_equal(got[k], grads[k]) for k in got)
    return grads, base.teachers


class TestObjective:
    @pytest.mark.parametrize("enc_layers", [1, 2], ids="depth{}".format)
    @pytest.mark.parametrize("variant", tr.VARIANTS)
    @pytest.mark.parametrize("mode, layout, rows", BITWISE_CASES,
                             ids=[f"{m}-{lay}-rows{n}" for m, lay, n in BITWISE_CASES])
    def test_matches_composition_bitwise(self, mode, layout, rows, variant, enc_layers):
        got = objective_run(L, mode, layout, variant, rows=rows, enc_layers=enc_layers)
        ref = objective_run(R, mode, layout, variant, rows=rows, enc_layers=enc_layers)
        assert_bitwise_equal(got, ref)
        assert got["loss_nodes"] == 1  # the MMD and l2_penalty included

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    @pytest.mark.parametrize("mode, layout", LAYOUTS, ids=["-".join(c) for c in LAYOUTS])
    def test_tape_free_matches_composition_bitwise(self, mode, layout, variant):
        # as in the validation pass: a tape that records nothing, and a
        # forward over two row blocks
        got = objective_run(L, mode, layout, variant, record=False, rows=1500)
        ref = objective_run(R, mode, layout, variant, record=False, rows=1500)
        assert_bitwise_equal(got, ref)

    @pytest.mark.parametrize("mode, layout", LAYOUTS, ids=["-".join(c) for c in LAYOUTS])
    def test_gradcheck(self, mode, layout):
        # central differences of the reference composition of the whole
        # objective through a tiny model, its teachers replayed at every probe
        # point; at the base point the package's gradients equal its bit for bit
        model, objective = tiny_objective(mode, layout, "Total")
        reference_gradients(model, objective)
        assert finite_diff_check(objective(R), model.params) < 1e-6

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    @pytest.mark.parametrize("mode, layout", LAYOUTS, ids=["-".join(c) for c in LAYOUTS])
    def test_directional_gradcheck(self, mode, layout, variant):
        # g.v against the central difference along v, for seeded Gaussian
        # directions over every parameter at once: unlike the entrywise check,
        # a tiny gradient entry cannot turn the relative error into rounding
        model, objective = tiny_objective(mode, layout, variant)
        grads, teachers = reference_gradients(model, objective)
        loss = objective(R)
        eps = 1e-5
        for k in range(8):
            direction = {n: rng.normals(rng.mix_key(k, n), 0, v.size).reshape(v.shape)
                         for n, v in model.params.items()}
            slope = sum(float((grads[n] * direction[n]).sum()) for n in model.params)

            def probe(sign):
                tape = R.TeacherTape(teachers, record=False)
                moved = {n: v + sign * eps * direction[n] for n, v in model.params.items()}
                return float(loss(tape, moved).value)

            numeric = (probe(1.0) - probe(-1.0)) / (2.0 * eps)
            assert abs(numeric - slope) / max(abs(slope), abs(numeric), 1e-8) < 1e-6


class TestDeclaredTermReads:
    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_each_term_needs_only_its_declared_outputs(self, mode):
        # each term next to the factual outcome term, the only one without a
        # coefficient, from a forward that built only the outputs they read
        model = M.init_model(M.ArchConfig(input_dim=5, mode=mode, **OBJECTIVE_ARCH), 3)
        x = rng.normal_matrix(31, 48, 5)
        t = TREATMENT_LAYOUTS[mode, "alternating" if mode == "binary" else "normal"](48)
        zero = L.LossWeights(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, omega_cont=0.0)
        terms = [term for term in L.TERMS if mode in term.modes and term.coeff]
        assert [term.name for term in terms] == [
            "factual_t", "adjust", "distill_outcome", "distill_treatment",
            *(["rebalance"] if mode == "continuous" else []), "reg"]
        for term in terms:
            weights = replace(zero, **{term.coeff: 0.5})
            only = L.read_outputs(mode, weights, importance_weighted=False)
            sharing = [other for other in terms if other.coeff == term.coeff]
            assert set(only) == {"q_y"}.union(*(other.modes[mode].reads for other in sharing))
            tape = ad.Tape()
            params = M.bind(model, tape)
            covered = M.params_read_by(params, only)
            if mode == "binary":
                out = M.forward_binary(model, x, t, tape, params, only)
                bd = L.total_loss_binary(out, t, rng.bernoulli(33, np.full(48, 0.4)),
                                         np.ones(48), weights, covered)
            else:
                out = M.forward_continuous(model, x, t, tape, params, only)
                bd = L.total_loss_continuous(out, t, rng.normals(34, 0, 48), weights, covered)
            kept = {"factual_y", "total", *(other.name for other in sharing)}
            assert {f for f in bd.FIELDS if getattr(bd, f) is not None} == \
                kept | ({"rebalance"} if mode == "binary" else set())


    @pytest.mark.parametrize("variant", tr.VARIANTS)
    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_objective_reads_only_the_declared_outputs(self, mode, variant):
        # the objective from outputs holding only what the kept terms read,
        # every other field None, has the bits of the one from all outputs
        weights = tr.apply_ablation(tr.TrainConfig(weights=OBJECTIVE_WEIGHTS), variant).weights
        model = M.init_model(M.ArchConfig(input_dim=5, mode=mode, **OBJECTIVE_ARCH), 3)
        x = rng.normal_matrix(31, 48, 5)
        t = TREATMENT_LAYOUTS[mode, "alternating" if mode == "binary" else "normal"](48)
        read = L.read_outputs(mode, weights, importance_weighted=False)

        def run(stripped):
            tape = ad.Tape()
            params = M.bind(model, tape)
            covered = M.params_read_by(params, read)
            if mode == "binary":
                out = M.forward_binary(model, x, t, tape, params)
            else:
                out = M.forward_continuous(model, x, t, tape, params)
            if stripped:
                out = M.HeadOutputs(**{name: getattr(out, name) for name in read})
                assert {k for k, v in out._asdict().items() if v is not None} == set(read)
            if mode == "binary":
                bd = L.total_loss_binary(out, t, rng.bernoulli(33, np.full(48, 0.4)),
                                         1.0 + rng.uniforms(35, 0, 48), weights, covered)
            else:
                bd = L.total_loss_continuous(out, t, rng.normals(34, 0, 48), weights, covered)
            return bd, tape.gradients(bd.node)[1]

        (got, got_grads), (want, want_grads) = run(True), run(False)
        assert [getattr(got, f) for f in got.FIELDS] == [getattr(want, f) for f in want.FIELDS]
        assert all(a is b is None or np.array_equal(a, b)
                   for a, b in zip(got.per_sample, want.per_sample))
        assert list(got_grads) == list(want_grads)
        assert all(np.array_equal(got_grads[k], want_grads[k]) for k in got_grads)

    def test_no_function_names_a_forward_output(self):
        # TERMS alone says which outputs a term reads; its function is given them
        tree = ast.parse(Path(L.__file__).read_text())
        outputs = set(M.HeadOutputs._fields)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                nodes = list(ast.walk(fn))
                attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                named = {n.id for n in nodes if isinstance(n, ast.Name)} | \
                    {n.arg for n in nodes if isinstance(n, ast.arg)} | \
                    {n.value for n in nodes if isinstance(n, ast.Constant)
                     and isinstance(n.value, str)}
                assert not (named | attributes) & outputs, fn.name
                assert not attributes & {"out", "reps"}, fn.name


FAILURE_ROWS = 6


def failing_binary(losses, sample_weight=1.0, r_a_scale=1.0, weight_scale=1.0):
    tape = ad.Tape()
    vals = [np.clip(0.5 + 0.3 * rng.normals(60 + i, 0, FAILURE_ROWS), 0.05, 0.95)
            for i in range(6)]
    outs = binary_outputs(tape, *vals, r_a=tape.constant(
        r_a_scale * rng.normal_matrix(66, FAILURE_ROWS, 3)))
    params = {"w.W": tape.parameter(weight_scale * np.ones((2, 2)), "w.W")}
    t = (np.arange(FAILURE_ROWS) % 2).astype(float)
    y = rng.bernoulli(67, np.full(FAILURE_ROWS, 0.5))
    return losses.total_loss_binary(outs, t, y, np.full(FAILURE_ROWS, sample_weight),
                                    L.LossWeights(), params)


CONTINUOUS_HEADS = ("q_t", "q_t_z", "q_t_c", "q_t_a", "q_t_cr", "q_y", "q_y_a", "q_y_c")


def failing_continuous(losses, huge_mean=()):
    tape = ad.Tape()
    scales = [1e200 if name in huge_mean else 1.0 for name in CONTINUOUS_HEADS]
    heads = [gaussian(tape, scale * rng.normals(70 + i, 0, FAILURE_ROWS),
                      0.2 * rng.normals(80 + i, 0, FAILURE_ROWS))
             for i, scale in enumerate(scales)]
    params = {"w.W": tape.parameter(np.eye(2), "w.W")}
    t, y = rng.normals(90, 0, FAILURE_ROWS), rng.normals(91, 0, FAILURE_ROWS)
    return losses.total_loss_continuous(continuous_outputs(*heads), t, y, L.LossWeights(),
                                        params)


def failure_message(build, losses) -> str:
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NonFiniteError) as failure:
        build(losses)
    return str(failure.value)


class TestObjectiveFailures:
    """A NaN or Inf in the objective names its first term whose mean (or
    value) is not finite, or the objective itself."""

    @pytest.mark.parametrize("build, op", [
        (lambda ls: failing_binary(ls, sample_weight=np.inf), "bernoulli_ce"),
        # finite entries whose weighted sum overflows
        (lambda ls: failing_binary(ls, sample_weight=1e308), "bernoulli_ce"),
        (lambda ls: failing_binary(ls, weight_scale=1e200), "l2_penalty"),
        (lambda ls: failing_binary(ls, r_a_scale=1e200), "adjustment_disc"),
        # an earlier term fails first
        (lambda ls: failing_binary(ls, sample_weight=np.inf, weight_scale=1e200),
         "bernoulli_ce"),
        (lambda ls: failing_binary(ls, sample_weight=np.inf, r_a_scale=1e200), "bernoulli_ce"),
        (lambda ls: failing_continuous(ls, ("q_y",)), "gaussian_nll"),
        (lambda ls: failing_continuous(ls, ("q_y_a",)), "gaussian_nll"),
        (lambda ls: failing_continuous(ls, ("q_t_cr",)), "gaussian_kl"),
        (lambda ls: failing_continuous(ls, ("q_t",)), "gaussian_nll"),
        # the adjustment loss's partner KL comes before the outcome unit
        (lambda ls: failing_continuous(ls, ("q_t_a", "q_y_c")), "gaussian_kl"),
        # every term finite (the MMD ~1.7e308, the outcome term ~2.4e307),
        # their weighted sum not
        (lambda ls: failing_binary(ls, sample_weight=6e307, r_a_scale=5.3e154), "objective"),
    ])
    def test_names_first_failing_term(self, build, op):
        assert failure_message(build, L) == f"non-finite value at node {op!r}"


# -- the distillation KLs against the conditional mutual informations ---------

def _cells(joint):
    """One row per (r_a, r_c) cell of a joint over (Y, R_a, R_c) with a binary
    Y: p(r_a, r_c) and the exact q(y=1 | r_a, r_c), q(y=1 | r_a) and
    q(y=1 | r_c), the probabilities the deep, adjustment and confounder
    outcome heads would hold."""
    table = joint.table
    cell = table.sum(axis=0)
    deep = table[1] / cell
    adjust = np.broadcast_to((table[1].sum(axis=1) / cell.sum(axis=1))[:, None], cell.shape)
    confound = np.broadcast_to((table[1].sum(axis=0) / cell.sum(axis=0))[None, :], cell.shape)
    return cell.ravel(), deep.ravel(), adjust.ravel(), confound.ravel()


def _expected_kl(cell, student, teacher):
    """E over p(r_a, r_c) of KL(student || teacher), through the objective's
    own `kl_to_teacher` term and the per-sample `family.bernoulli_kl` values
    it takes the mean of."""
    tape = ad.Tape(record=False)
    n = len(cell)
    zeros = np.zeros((n, 1))
    obj = L._Objective("binary", zeros, zeros, None, {"w": tape.parameter(np.zeros(1), "w")})
    heads = [col(tape, q) for q in (student, teacher)]
    mean = obj.kl_to_teacher(*heads, obj.group(1.0))
    values = F.bernoulli_kl(*(F.BernoulliHead.of(head) for head in heads))[0][:, 0]
    assert mean == values.sum() / n  # the term is the plain mean of these values
    return float(cell @ values)


def _expected_nll(joint, head):
    """E over p(y, r_a, r_c) of the cross-entropy of y under a head holding
    q(y=1 | r_a, r_c) = ``head``, one of `_cells`' heads, through the
    objective's own `nll` term on one row per (y, r_a, r_c) cell; its binary
    per-sample values are `family.bernoulli_ce`'s."""
    tape = ad.Tape(record=False)
    y = np.repeat([1.0, 0.0], len(head))[:, None]
    obj = L._Objective("binary", np.zeros_like(y), y, None, {"w": tape.parameter(np.zeros(1), "w")})
    values, _ = obj.nll(col(tape, np.tile(head, 2)), obj.y, obj.group(1.0))
    return float(np.concatenate([joint.table[1].ravel(), joint.table[0].ravel()]) @ values[:, 0])


KL_SHAPES = [(2, ka, kc) for ka in range(2, 6) for kc in range(2, 6)]


class TestTeacherKLDirection:
    """The package trains each student head towards its detached teacher with
    KL(student || teacher).  The reverse direction, teacher to student, is the
    one whose expectation is a conditional mutual information."""

    @pytest.mark.parametrize("key", [11, 12])
    @pytest.mark.parametrize("shape", KL_SHAPES, ids=str)
    def test_teacher_to_student_is_cond_mutual_info(self, shape, key):
        joint = it.random_joint(key, shape)
        cell, deep, adjust, confound = _cells(joint)
        # far from the clamp, so the heads' probabilities are the exact conditionals
        probs = np.concatenate([deep, adjust, confound])
        assert min(probs.min(), 1.0 - probs.max()) > 1e3 * PROB_FLOOR
        assert _expected_kl(cell, deep, adjust) == pytest.approx(
            it.cond_mutual_info(joint, "y", "rc", "ra"), abs=1e-12)
        assert _expected_kl(cell, deep, confound) == pytest.approx(
            it.cond_mutual_info(joint, "y", "ra", "rc"), abs=1e-12)

    def test_trained_direction_differs(self):
        # a random 2x3x3 joint, drawn from the stream of seed 0 at index 1
        joint = it.random_joint(rng.mix_key_int(0, 1), (2, 3, 3))
        cell, deep, adjust, _ = _cells(joint)
        trained = _expected_kl(cell, adjust, deep)  # kl_to_teacher(adjust, deep)
        reverse = _expected_kl(cell, deep, adjust)
        assert reverse == pytest.approx(it.cond_mutual_info(joint, "y", "rc", "ra"), abs=1e-12)
        assert trained == pytest.approx(0.1923, abs=1e-4)
        assert reverse == pytest.approx(0.1470, abs=1e-4)

    @pytest.mark.parametrize("key", [21, 22])
    @pytest.mark.parametrize("shape", KL_SHAPES, ids=str)
    def test_both_directions_vanish_with_the_cond_independence(self, shape, key):
        # cond_independent_joint makes its last two axes independent given
        # the first; moving R_a (or R_c) to the first axis gives Y independent
        # of the other representation given it, which the KLs measure
        _, ka, kc = shape
        # (axes, drawn shape, which of _cells' heads): adjustment, then confounder
        for axes, size, head in (((1, 0, 2), (ka, 2, kc), 2), ((2, 1, 0), (kc, ka, 2), 3)):
            joint = it.DiscreteJoint(it.cond_independent_joint(key, size).table.transpose(axes))
            cells = _cells(joint)
            cell, deep, student = cells[0], cells[1], cells[head]
            assert _expected_kl(cell, student, deep) == pytest.approx(0.0, abs=1e-12)
            assert _expected_kl(cell, deep, student) == pytest.approx(0.0, abs=1e-12)

    def test_independent_representations_given_y_are_not_enough(self):
        # the premise of `infotheory.premise_gap`, R_a and R_c independent
        # given Y, leaves both KLs of the adjustment head above 0
        cell, deep, adjust, _ = _cells(it.cond_independent_joint(1, (2, 3, 3)))
        assert _expected_kl(cell, adjust, deep) > 1e-3
        assert _expected_kl(cell, deep, adjust) > 1e-3


class TestOutcomeNLL:
    """At the exact conditionals, the factual outcome NLL of each outcome head
    is the conditional entropy of Y given what the head reads."""

    @pytest.mark.parametrize("key", [11, 12])
    @pytest.mark.parametrize("shape", KL_SHAPES, ids=str)
    def test_nll_is_cond_entropy(self, shape, key):
        joint = it.random_joint(key, shape)
        _, deep, adjust, confound = _cells(joint)
        probs = np.concatenate([deep, adjust, confound])
        assert min(probs.min(), 1.0 - probs.max()) > 1e3 * PROB_FLOOR
        for head, given in ((adjust, ("ra",)), (confound, ("rc",)), (deep, ("ra", "rc"))):
            assert _expected_nll(joint, head) == pytest.approx(
                it.entropy(joint, ("y", *given)) - it.entropy(joint, given), abs=1e-12)
