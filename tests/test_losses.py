import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sd2 import autodiff as ad
from sd2 import family as F
from sd2 import losses as L
from sd2 import rng
from sd2.family import BERNOULLI, Gaussian
from sd2.model import HeadOutputs, Representations

LN2 = np.log(2.0)


def col(tape, values):
    return tape.constant(np.asarray(values, dtype=float).reshape(-1, 1))


def binary_outputs(tape, q_t, q_t_z, q_t_c, q_y, q_y_a, q_y_c, r_a=None):
    reps = None if r_a is None else Representations(None, None, r_a)
    return HeadOutputs(col(tape, q_t), col(tape, q_t_z), col(tape, q_t_c),
                       col(tape, q_y), col(tape, q_y_a), col(tape, q_y_c), reps=reps)


def gaussian(tape, mean, log_std):
    return Gaussian(col(tape, mean), col(tape, log_std))


def continuous_outputs(t_hat, t_hat_z, t_hat_c, t_hat_a, t_hat_cr, y_hat, y_hat_a, y_hat_c):
    return HeadOutputs(t_hat, t_hat_z, t_hat_c, y_hat, y_hat_a, y_hat_c,
                       q_t_a=t_hat_a, q_t_cr=t_hat_cr)


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
    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_identical_groups_zero(self, kernel):
        tape = ad.Tape()
        block = rng.normal_matrix(5, 4, 3)
        r = tape.constant(np.vstack([block, block]))
        t = np.array([0, 0, 0, 0, 1, 1, 1, 1.0])
        out = L.adjustment_disc(r, t, kernel=kernel)
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_singleton_groups_linear(self):
        tape = ad.Tape()
        r = tape.constant(np.array([[0.0], [1.0]]))
        assert L.adjustment_disc(r, np.array([0.0, 1.0])).value == pytest.approx(1.0)

    def test_equal_means_linear(self):
        tape = ad.Tape()
        r = tape.constant(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        t = np.array([0.0, 0.0, 1.0, 1.0])
        assert L.adjustment_disc(r, t).value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_symmetric_in_group_labels(self, kernel):
        r_val = rng.normal_matrix(6, 8, 2)
        t = np.array([0, 1, 0, 1, 1, 0, 0, 1.0])
        tape = ad.Tape()
        a = L.adjustment_disc(tape.constant(r_val), t, kernel=kernel).value
        tape2 = ad.Tape()
        b = L.adjustment_disc(tape2.constant(r_val), 1.0 - t, kernel=kernel).value
        assert a == pytest.approx(float(b), rel=1e-12)

    def test_empty_group_rejected(self):
        tape = ad.Tape()
        with pytest.raises(L.DegenerateBatchError):
            L.adjustment_disc(tape.constant(np.ones((3, 2))), np.ones(3))

    def test_rbf_nonnegative(self):
        tape = ad.Tape()
        r = tape.constant(rng.normal_matrix(7, 10, 3))
        t = np.array([0, 1] * 5, dtype=float)
        assert L.adjustment_disc(r, t, kernel="rbf").value >= 0.0


class TestDistillUnits:
    def test_all_heads_equal_kills_kl_terms(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, *([[0.7, 0.4]] * 6))
        t = np.array([1.0, 0.0])
        terms = L.distill_unit_treatment(BERNOULLI, outs, t)
        for name in ("teacher_z", "teacher_c", "peer"):
            assert terms[name].value == pytest.approx(0.0, abs=1e-12)
        terms_y = L.distill_unit_outcome(BERNOULLI, outs, t)
        for name in ("teacher_a", "teacher_c", "peer"):
            assert terms_y[name].value == pytest.approx(0.0, abs=1e-12)

    def test_peer_value_treatment(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.8], [0.5], [0.5], [0.5], [0.5])
        terms = L.distill_unit_treatment(BERNOULLI, outs, np.array([1.0]))
        # KL(q_t_c || q_t_z) = KL(0.5 || 0.8)
        assert terms["peer"].value == pytest.approx(0.2231, abs=1e-4)

    def test_peer_value_outcome(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.5], [0.5], [0.5], [1.0], [0.5])
        terms = L.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))
        # KL(q_y_a || q_y_c) = KL(1 || 0.5) = ln 2 (up to head clamping)
        assert terms["peer"].value == pytest.approx(LN2, abs=1e-5)

    def test_equal_peers_zero(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5], [0.5], [0.5], [0.5], [0.9], [0.9])
        assert L.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))["peer"].value == pytest.approx(0.0)

    def test_perfect_prediction_ce_near_zero(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, [0.5, 0.5], [1.0, 0.0], [0.5, 0.5],
                              [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        terms = L.distill_unit_treatment(BERNOULLI, outs, np.array([1.0, 0.0]))
        assert terms["label_z"].value == pytest.approx(0.0, abs=1e-6)

    def test_aux_flag_adds_treatment_label(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, *([[0.6]] * 6))
        on = L.distill_unit_treatment(BERNOULLI, outs, np.array([1.0]),
                                      L.LossFlags(aux_confounder_label=True))
        off = L.distill_unit_treatment(BERNOULLI, outs, np.array([1.0]))
        assert "label_c" in on and "label_c" not in off

    def test_outcome_unit_always_carries_confounder_label(self):
        tape = ad.Tape()
        outs = binary_outputs(tape, *([[0.6]] * 6))
        terms = L.distill_unit_outcome(BERNOULLI, outs, np.array([1.0]))
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


class TestTotalLossBinary:
    def test_term_isolation(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        zero = L.LossWeights(alpha=0, beta=0, gamma=0, delta=0)
        bd = L.total_loss_binary(outs, t, y, np.ones(8), zero, params)
        expected = F.bernoulli_ce_vec(outs.q_y, y).value.mean()
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
        recomputed = sum(bd.weighted_parts(w).values())
        assert abs(bd.total - recomputed) < 1e-10

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

    def test_non_binary_treatment_rejected(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        _, y = small_batch()
        with pytest.raises(ValueError, match="0, 1"):
            L.total_loss_binary(outs, np.full(8, 0.5), y, np.ones(8), L.LossWeights(), params)

    def test_continuous_total_rejects_binary_outputs(self):
        tape = ad.Tape()
        outs, params = random_binary_setup(tape)
        t, y = small_batch()
        with pytest.raises(ValueError, match="continuous-mode"):
            L.total_loss_continuous(outs, t, y, L.LossWeights(), params)


class TestContinuousLosses:
    def test_adjust_identical_gaussians(self):
        tape = ad.Tape()
        g = [gaussian(tape, [0.3], [0.1])] * 5
        outs = continuous_outputs(*g, gaussian(tape, [0.0], [0.0]),
                                     gaussian(tape, [0.0], [0.0]), gaussian(tape, [0.0], [0.0]))
        val = L.continuous_adjust_loss(outs, np.array([0.3]))
        # both KL terms vanish; NLL at the mean with sigma = e^{0.1}
        nll = 0.5 * np.log(2 * np.pi) + 0.1
        assert val.value == pytest.approx(nll)

    def test_adjust_kl_unit_shift(self):
        tape = ad.Tape()
        t_hat = gaussian(tape, [0.0], [0.0])
        t_c = gaussian(tape, [1.0], [0.0])
        t_a = gaussian(tape, [0.0], [0.0])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(t_hat, filler, t_c, t_a, filler, filler, filler, filler)
        val = L.continuous_adjust_loss(outs, np.array([1.0]))
        nll = 0.5 * np.log(2 * np.pi)       # mean matches target, sigma 1
        assert val.value == pytest.approx(nll + 0.5 + 0.5)  # two KLs of N(1,1)||N(0,1)

    def test_rebalance_kl_value(self):
        tape = ad.Tape()
        t_z = gaussian(tape, [0.0], [0.0])
        t_cr = gaussian(tape, [1.0], [np.log(2.0)])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(t_z, t_z, filler, filler, t_cr, filler, filler, filler)
        val = L.continuous_rebalance_loss(outs, np.array([0.0]))
        expected_kl = np.log(2.0) + (1.0 + 1.0) / 8.0 - 0.5   # N(0,1) || N(1,2)
        nll = 0.5 * np.log(2 * np.pi)
        assert val.value == pytest.approx(nll + 0.0 + expected_kl)

    def test_clamp_floor_is_finite(self):
        tape = ad.Tape()
        tight = gaussian(tape, [0.0], [-5.0])
        wide = gaussian(tape, [0.0], [3.0])
        filler = gaussian(tape, [0.0], [0.0])
        outs = continuous_outputs(wide, tight, tight, tight, tight,
                                     filler, filler, filler)
        val = L.continuous_adjust_loss(outs, np.array([5.0]))
        assert np.isfinite(val.value)

    def test_gaussian_nll_at_mean(self):
        tape = ad.Tape()
        g = gaussian(tape, [2.0], [0.0])
        nll = F.gaussian_nll_vec(g, np.array([2.0]))
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
        assert abs(bd.total - sum(bd.weighted_parts(w).values())) < 1e-10

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
        kl = F.bernoulli_kl_vec(col(tape, [q]), col(tape, [p])).value[0, 0]
        assert kl >= -1e-15
        tape2 = ad.Tape()
        same = F.bernoulli_kl_vec(col(tape2, [q]), col(tape2, [q])).value[0, 0]
        assert same == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(-2, 2), st.floats(-1, 1), st.floats(-2, 2), st.floats(-1, 1))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_kl_nonneg(self, m1, ls1, m2, ls2):
        tape = ad.Tape()
        kl = F.gaussian_kl_vec(gaussian(tape, [m1], [ls1]),
                               gaussian(tape, [m2], [ls2])).value[0, 0]
        assert kl >= -1e-12

    def test_gaussian_kl_matches_closed_form_module(self):
        from sd2.infotheory import GaussianParams, gaussian_kl
        tape = ad.Tape()
        got = F.gaussian_kl_vec(gaussian(tape, [0.0], [0.0]),
                                gaussian(tape, [1.0], [np.log(2.0)])).value[0, 0]
        assert got == pytest.approx(gaussian_kl(GaussianParams(0, 1), GaussianParams(1, 2)))


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            L.LossWeights(alpha=-0.1)
