import numpy as np
import pytest

import reference_ops as R
from gradcheck import finite_diff_check
from sd2 import autodiff as ad
from sd2 import model as M
from sd2 import rng


def scalar_param(tape, v, name="x"):
    return tape.parameter(np.array([float(v)]), name)


class TestBasics:
    def test_square(self):
        tape = ad.Tape()
        x = scalar_param(tape, 3.0)
        value, grads = tape.gradients(R.sum_all(R.mul(x, x)))
        assert value == 9.0
        assert grads["x"][0] == 6.0

    def test_sigmoid_at_zero(self):
        tape = ad.Tape()
        x = scalar_param(tape, 0.0)
        value, grads = tape.gradients(R.sum_all(R.sigmoid(x)))
        assert value == 0.5
        assert grads["x"][0] == 0.25

    def test_bernoulli_kl_stationary_at_match(self):
        # KL(sigmoid(w) || 0.5) at w=0: value 0, gradient 0
        tape = ad.Tape()
        w = tape.parameter(np.zeros((1, 1)), "w")
        q = R.sigmoid(w)
        p = tape.constant(np.full((1, 1), 0.5))
        value, grads = tape.gradients(R.mean_all(R.bernoulli_kl_vec(q, p)))
        assert value == pytest.approx(0.0, abs=1e-15)
        assert grads["w"][0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_backward_leaves_forward_values(self):
        tape = ad.Tape()
        x = scalar_param(tape, 2.0)
        y = R.square(x)
        before = y.value.copy()
        tape.gradients(R.sum_all(y))
        assert np.array_equal(y.value, before)

    def test_non_scalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.parameter(np.ones(3), "x")
        with pytest.raises(ValueError, match="not scalar"):
            tape.gradients(R.square(x))

    def test_non_finite_reported_with_node(self):
        tape = ad.Tape()
        x = tape.parameter(np.array([-1.0]), "x")
        with pytest.raises(ad.NonFiniteError, match="log"):
            R.log(x)

    def test_determinism_bitwise(self):
        def run():
            tape = ad.Tape()
            w = tape.parameter(ad.glorot_init(3, 4, 4), "w")
            h = R.elu(R.matmul(tape.constant(np.arange(8.0).reshape(2, 4)), w))
            return tape.gradients(R.sum_all(h))
        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1["w"], g2["w"])


class TestDense:
    def test_identity_map(self):
        tape = ad.Tape()
        w = tape.parameter(np.eye(2), "w")
        b = tape.parameter(np.zeros(2), "b")
        out = ad.dense(tape.constant([[1.0, 2.0]]), w, b, "identity")
        assert np.array_equal(out.value, [[1.0, 2.0]])

    def test_sigmoid_of_zero_weights(self):
        tape = ad.Tape()
        w = tape.parameter(np.zeros((3, 4)), "w")
        b = tape.parameter(np.zeros(4), "b")
        out = ad.dense(tape.constant(np.ones((2, 3))), w, b, "sigmoid")
        assert np.all(out.value == 0.5)

    def test_elu_negative_preactivation(self):
        tape = ad.Tape()
        w = tape.parameter(np.array([[1.0]]), "w")
        b = tape.parameter(np.zeros(1), "b")
        out = ad.dense(tape.constant([[-1.0]]), w, b, "elu")
        assert out.value[0, 0] == pytest.approx(np.exp(-1.0) - 1.0)

    def test_dimension_mismatch(self):
        tape = ad.Tape()
        w = tape.parameter(np.zeros((3, 4)), "w")
        b = tape.parameter(np.zeros(4), "b")
        with pytest.raises(ValueError):
            ad.dense(tape.constant(np.ones((2, 5))), w, b, "elu")


class TestFusedDense:
    X = rng.normal_matrix(71, 12, 5) * 3.0   # pre-activations of both signs
    W = ad.glorot_init(72, 5, 4)
    B = rng.normal_matrix(73, 1, 4)[0]
    COTANGENT = rng.normal_matrix(74, 12, 4)

    def run(self, layer, activation):
        tape = ad.Tape()
        x, w, b = (tape.parameter(v, n) for v, n in ((self.X, "x"), (self.W, "w"), (self.B, "b")))
        out = layer(x, w, b, activation)
        nodes = len(tape.nodes)
        loss = R.sum_all(R.mul(out, tape.constant(self.COTANGENT)))
        _, grads = tape.gradients(loss)
        return out.value, grads, nodes

    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_matches_composition_bitwise(self, activation):
        value, grads, nodes = self.run(ad.dense, activation)
        ref_value, ref_grads, _ = self.run(R.composed_dense, activation)
        assert nodes == 4   # three leaves and one dense node
        assert np.array_equal(value, ref_value)
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in ("x", "w", "b"))

    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_gradcheck(self, activation):
        def loss(tape, params):
            h = ad.dense(tape.constant(self.X), tape.parameter(params["w"], "w"),
                         tape.parameter(params["b"], "b"), activation)
            return R.sum_all(R.mul(h, tape.constant(self.COTANGENT)))
        assert finite_diff_check(loss, {"w": self.W.copy(), "b": self.B.copy()}) < 1e-6


class TestConstantLeaves:
    def test_no_vjp_into_constant_or_detached_leaf(self):
        tape = ad.Tape()
        w = scalar_param(tape, 2.0, "w")
        c = tape.constant(np.array([3.0]))
        d = R.detach(R.square(w))
        called = []

        def vjp(name):
            def rule(g):
                called.append(name)
                return g
            return rule

        node = ad.Tensor(tape, w.value + c.value + d.value, (c, w, d),
                         (vjp("const"), vjp("param"), vjp("detach")))
        _, grads = tape.gradients(R.sum_all(node))
        assert called == ["param"] and grads["w"][0] == 1.0
        assert c.grad is None and d.grad is None

    def test_parameter_grads_unchanged(self):
        x_value = rng.normal_matrix(75, 6, 3)
        w_value = ad.glorot_init(76, 3, 2)

        def run(x_is_parameter):
            tape = ad.Tape()
            x = tape.parameter(x_value, "x") if x_is_parameter else tape.constant(x_value)
            w = tape.parameter(w_value, "w")
            b = tape.parameter(np.full(2, 0.1), "b")
            h = ad.dense(x, w, b, "elu")
            teacher = R.detach(h)
            _, grads = tape.gradients(R.sum_all(R.mul(h, R.sub(h, R.scale(teacher, 0.5)))))
            return grads, (x, teacher)

        grads, leaves = run(False)
        ref, _ = run(True)
        assert set(grads) == {"w", "b"}
        assert all(np.array_equal(grads[k], ref[k]) for k in grads)
        assert all(leaf.grad is None for leaf in leaves)


class TestNonRecordingTape:
    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_dense_matches_recorded_bitwise(self, activation):
        x = rng.normal_matrix(7, 50, 6) * 3.0   # pre-activations of both signs
        w = ad.glorot_init(8, 6, 5)
        b = rng.normal_matrix(9, 1, 5)[0]
        values = []
        for record in (True, False):
            tape = ad.Tape(record=record)
            out = ad.dense(tape.constant(x), tape.parameter(w, "w"),
                           tape.parameter(b, "b"), activation)
            values.append(out.value)
        assert np.array_equal(values[0], values[1])

    def test_keeps_nothing(self):
        tape = ad.Tape(record=False)
        w = tape.parameter(ad.glorot_init(3, 4, 2), "w")
        b = tape.parameter(np.zeros(2), "b")
        h = ad.dense(tape.constant(np.ones((3, 4))), w, b, "elu")
        loss = R.sum_all(R.sub(h, R.detach(h)))
        assert tape.nodes == [] and tape.params == {}
        assert loss.parents == () and loss.vjps == ()
        assert loss.value == 0.0

    def test_gradients_rejected(self):
        tape = ad.Tape(record=False)
        x = scalar_param(tape, 2.0)
        with pytest.raises(ad.AutodiffError, match="does not record"):
            tape.gradients(R.sum_all(R.square(x)))

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("overflows", ["product", "bias add"])
    def test_non_finite_inside_dense_names_its_layer(self, record, overflows):
        # an infinite pre-activation would leave elu and sigmoid finite; the
        # product overflows, or a finite product overflows when the bias is added
        product = overflows == "product"
        for activation in ("identity", "sigmoid"):
            tape = ad.Tape(record=record)
            w = tape.parameter(np.array([[1e308 if product else 1.0]]), "enc_a.l1.W")
            b = tape.parameter(np.array([0.0 if product else 1e308]), "enc_a.l1.b")
            x = tape.constant([[10.0 if product else 1e308]])
            with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as failure:
                ad.dense(x, w, b, activation)
            assert str(failure.value) == "non-finite value at node 'enc_a.l1'"
            assert failure.value.op == "enc_a.l1"

    @pytest.mark.parametrize("record", [True, False])
    def test_non_finite_row_in_a_later_row_block(self, record):
        # a 3,000-row tape-free forward runs in three row blocks; only row
        # 1,500, in the second block, overflows the first product
        m = M.init_model(M.ArchConfig(input_dim=6, mode="continuous"), seed=3)
        m.params["enc_z.l0.W"][0] = 10.0
        x = rng.normal_matrix(4, 3000, 6)
        x[1500, 0] = 1e308
        tape = ad.Tape() if record else None
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as failure:
            M.forward_continuous(m, x, np.zeros(3000), tape)
        assert failure.value.op == "enc_z.l0"


class TestFiniteCheck:
    """Finite entries pass even when their sum overflows; a NaN or Inf still
    raises with the same message."""

    @staticmethod
    def rows_of_1e308(inf_at=None):
        x = rng.normal_matrix(4, 3000, 6)
        x[1500] = 1e308
        if inf_at is not None:
            x[inf_at] = np.inf
        return x

    @pytest.mark.parametrize("record", [True, False])
    def test_overflowing_sum_of_finite_entries_is_accepted(self, record):
        tape = ad.Tape(record=record)
        with np.errstate(over="ignore"):
            node = tape.constant(self.rows_of_1e308())
        assert node.value[1500, 0] == 1e308

    def test_inf_entry_still_raises(self):
        tape = ad.Tape()
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as failure:
            tape.constant(self.rows_of_1e308(inf_at=(2000, 3)))
        assert str(failure.value) == "non-finite value at node 'const'"

    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_dense_output_with_an_overflowing_sum(self, activation):
        # the product, the biased sum and the activation hold 1e308 (or 1.0)
        # in every entry
        tape = ad.Tape(record=False)
        w = tape.parameter(np.ones((1, 2)), "w")
        b = tape.parameter(np.zeros(2), "b")
        with np.errstate(over="ignore"):
            h = ad.dense(tape.constant(np.full((2, 1), 1e308)), w, b, activation)
        assert np.all(np.isfinite(h.value))


class TestTapeRelease:
    def test_gradients_release_the_tape(self):
        tape = ad.Tape()
        x = scalar_param(tape, 3.0)
        out = R.sum_all(R.mul(x, x))
        tape.gradients(out)
        assert tape.nodes == [] and tape.params == {}
        with pytest.raises(ad.AutodiffError, match="released"):
            tape.gradients(out)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.ones((2, 2))}
        st = ad.AdamState(p, lr=0.1)
        ad.adam_step(p, {"w": np.zeros((2, 2))}, st)
        assert np.array_equal(p["w"], np.ones((2, 2)))
        assert st.step == 1

    def test_zero_learning_rate(self):
        p = {"w": np.full((2,), 5.0)}
        st = ad.AdamState(p, lr=0.0)
        ad.adam_step(p, {"w": np.ones(2)}, st)
        assert np.array_equal(p["w"], np.full((2,), 5.0))

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes |step| ~= lr for any nonzero gradient; eps
        # (1e-8) shrinks this one by about 3e-11
        p = {"w": np.array([1.0])}
        st = ad.AdamState(p, lr=0.01)
        ad.adam_step(p, {"w": np.array([-3.7])}, st)
        assert p["w"][0] == pytest.approx(1.0 + 0.01, abs=1e-9)

    def test_shape_mismatch(self):
        p = {"w": np.ones(3)}
        st = ad.AdamState(p)
        with pytest.raises(ValueError):
            ad.adam_step(p, {"w": np.ones(4)}, st)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            ad.AdamState({"w": np.ones(1)}, lr=-1.0)

    def test_parameters_become_views_of_one_flat_buffer(self):
        p = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])}
        st = ad.AdamState(p)
        assert all(np.shares_memory(v, st.flat) for v in p.values())
        assert np.array_equal(st.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        assert st.m.shape == st.v.shape == (7,)

    def test_matches_per_array_update_bitwise(self):
        # the update written per array, as the optimizer once ran it
        def reference(params, grads, m, v, step, lr=3e-3, b1=0.9, b2=0.999, eps=1e-8):
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for name, p in params.items():
                g = grads[name]
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * g * g
                p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)

        # enough scalars that any reordering of the update shows in the rounding
        init = {"a": rng.normal_matrix(81, 40, 30), "b": rng.normal_matrix(82, 1, 50)[0]}
        params = {k: v.copy() for k, v in init.items()}
        ref = {k: v.copy() for k, v in init.items()}
        m = {k: np.zeros_like(v) for k, v in init.items()}
        v = {k: np.zeros_like(v) for k, v in init.items()}
        st = ad.AdamState(params, lr=3e-3)
        for step in range(1, 4):
            grads = {"a": rng.normal_matrix(83 + step, 40, 30) * 10.0 ** -step,
                     "b": rng.normal_matrix(90 + step, 1, 50)[0]}
            ad.adam_step(params, grads, st)
            reference(ref, grads, m, v, step)
        assert all(np.array_equal(params[k], ref[k]) for k in init)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_parameter(self, bad):
        p = {"a": np.ones((2, 3)), "b": np.ones(4), "c": np.ones(2)}
        st = ad.AdamState(p, lr=0.1)
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        grads["b"][2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError,
                                                          match="'b'") as failure:
            ad.adam_step(p, grads, st)
        assert failure.value.op == "b"
        assert np.isfinite(p["a"]).all() and np.isfinite(p["c"]).all()

    def test_several_non_finite_parameters_name_the_first(self):
        p = {"a": np.ones(3), "b": np.ones(3), "c": np.ones(3)}
        st = ad.AdamState(p, lr=0.1)
        grads = {"a": np.zeros(3), "b": np.array([0.0, np.nan, 0.0]),
                 "c": np.array([np.nan, 0.0, 0.0])}
        with pytest.raises(ad.NonFiniteError) as failure:
            ad.adam_step(p, grads, st)
        assert failure.value.op == "b"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected_at_construction(self, bad):
        p = {"w": np.ones((2, 2)), "b": np.array([0.0, bad])}
        with pytest.raises(ad.NonFiniteError, match="'b'"):
            ad.AdamState(p)

    def test_finite_parameters_whose_sum_overflows_are_accepted(self):
        p = {"w": np.full(4, 1e308), "b": np.ones(2)}
        with np.errstate(over="ignore"):
            st = ad.AdamState(p, lr=0.0)
            ad.adam_step(p, {"w": np.ones(4), "b": np.ones(2)}, st)
        assert np.array_equal(p["w"], np.full(4, 1e308))

    def test_rebound_parameter_rejected(self):
        p = {"w": np.ones(3)}
        st = ad.AdamState(p)
        p["w"] = np.ones(3)
        with pytest.raises(ValueError, match="not the array"):
            ad.adam_step(p, {"w": np.ones(3)}, st)
        assert st.step == 0


def two_layer_params(seed=0):
    return {
        "w1": ad.glorot_init(rng.mix_key(seed, "w1"), 4, 8),
        "b1": np.zeros(8),
        "w2": ad.glorot_init(rng.mix_key(seed, "w2"), 8, 1),
        "b2": np.zeros(1),
    }


X10 = rng.normal_matrix(101, 10, 4)
Y10 = rng.bernoulli(102, np.full(10, 0.5)).reshape(-1, 1)


def net_ce_loss(tape, params):
    p = {k: tape.parameter(v, k) for k, v in params.items()}
    h = ad.dense(tape.constant(X10), p["w1"], p["b1"], "elu")
    q = R.clip(ad.dense(h, p["w2"], p["b2"], "sigmoid"), 1e-7, 1 - 1e-7)
    ce = R.neg(R.add(R.scale(R.log(q), Y10),
                       R.scale(R.log(R.shift(R.neg(q), 1.0)), 1.0 - Y10)))
    return R.mean_all(ce)


class TestFiniteDiff:
    def test_linear_loss_exact(self):
        def loss(tape, params):
            x = tape.parameter(params["x"], "x")
            return R.sum_all(R.scale(x, 3.0))
        err = finite_diff_check(loss, {"x": np.arange(4.0)})
        assert err < 1e-10

    def test_two_layer_network(self):
        err = finite_diff_check(net_ce_loss, two_layer_params())
        assert err < 1e-4

    def test_injected_fault_detected(self):
        def loss(tape, params):
            x = tape.parameter(params["x"], "x")
            doubled = ad.Tensor(tape, x.value.copy(), (x,), (lambda g: 2.0 * g,), "bad")
            return R.sum_all(doubled)
        err = finite_diff_check(loss, {"x": np.arange(1.0, 4.0)})
        assert err == pytest.approx(0.5, abs=1e-6)

    def test_detached_values_replayed(self):
        # teacher held at base value: the stop-gradient objective's gradient
        def loss(tape, params):
            x = tape.parameter(params["x"], "x")
            s = R.sigmoid(x)
            teacher = R.detach(s)
            return R.mean_all(R.square(R.sub(s, R.scale(teacher, 0.5))))
        err = finite_diff_check(loss, {"x": np.array([0.3, -0.7])})
        assert err < 1e-7

    def test_detached_parameter_replayed(self):
        # the teacher is a parameter itself: probing the parameter in place
        # must not move the recorded teacher
        def loss(tape, params):
            x = tape.parameter(params["x"], "x")
            return R.mean_all(R.square(R.sub(x, R.scale(R.detach(x), 0.5))))
        err = finite_diff_check(loss, {"x": np.array([0.3, -0.7])})
        assert err < 1e-7

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda t, p: None, {}, eps=0.1)


class TestCompositeOps:
    @pytest.mark.parametrize("builder", [
        lambda t, x: R.mean_all(R.exp(R.scale(x, 0.3))),
        lambda t, x: R.sum_all(R.square(R.elu(x))),
        lambda t, x: R.sum_all(R.mean_rows(R.mul(x, x))),
        lambda t, x: R.sum_all(R.select_cols(ad.concat_cols([x, R.neg(x)]), 2)),
        lambda t, x: R.sum_all(R.select_rows(R.sigmoid(x), np.array([0, 2, 2]))),
        lambda t, x: R.sum_all(R.clip(x, -0.4, 0.4)),
    ])
    def test_gradcheck(self, builder):
        def loss(tape, params):
            x = tape.parameter(params["x"], "x")
            return builder(tape, x)
        x = rng.normal_matrix(55, 3, 2)
        assert finite_diff_check(loss, {"x": x}) < 1e-6


def test_glorot_bounds():
    w = ad.glorot_init(1, 30, 40)
    limit = np.sqrt(6.0 / 70.0)
    assert np.all(np.abs(w) <= limit)
