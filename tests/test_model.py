import gc
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_ops as R
from sd2 import autodiff as ad
from sd2 import family as F
from sd2 import rng
from sd2 import model as M
from sd2 import training as tr


def small_cfg(**kw):
    base = dict(input_dim=6, rep_dim=4, enc_hidden=8, head_hidden=4)
    base.update(kw)
    return M.ArchConfig(**base)


def rand_x(n=9, d=6, key=1):
    return rng.normal_matrix(key, n, d)


def rand_t(n=9, key=2):
    return rng.bernoulli(key, np.full(n, 0.5))


class TestEncode:
    def test_zero_weights_give_zero_representations(self):
        m = M.init_model(small_cfg(), seed=1)
        for k in m.params:
            m.params[k][:] = 0.0
        reps = M.encode(m, rand_x())
        assert np.all(reps.r_z == 0) and np.all(reps.r_c == 0) and np.all(reps.r_a == 0)

    def test_deterministic(self):
        x = rand_x()
        a = M.encode(M.init_model(small_cfg(), seed=3), x)
        b = M.encode(M.init_model(small_cfg(), seed=3), x)
        assert np.array_equal(a.r_z, b.r_z)
        assert np.array_equal(a.r_c, b.r_c)

    def test_shapes(self):
        reps = M.encode(M.init_model(small_cfg(), seed=1), rand_x(n=13))
        assert reps.r_z.shape == reps.r_c.shape == reps.r_a.shape == (13, 4)

    def test_row_locality(self):
        m = M.init_model(small_cfg(), seed=4)
        x = rand_x()
        base = M.encode(m, x).r_c
        x2 = x.copy()
        x2[3] += 1.0
        perturbed = M.encode(m, x2).r_c
        changed = np.any(base != perturbed, axis=1)
        assert changed[3]
        assert not changed[np.arange(len(x)) != 3].any()

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="input"):
            M.encode(M.init_model(small_cfg(), seed=1), rand_x(d=5))


class TestForwardBinary:
    def test_zero_head_weights_give_half(self):
        m = M.init_model(small_cfg(), seed=1)
        for k in m.params:
            if k.startswith("head_"):
                m.params[k][:] = 0.0
        outs = M.forward_binary(m, rand_x(), rand_t())
        for q in (outs.q_t, outs.q_t_z, outs.q_t_c, outs.q_y, outs.q_y_a, outs.q_y_c):
            assert np.all(q.value == 0.5)

    def test_probabilities_bounded(self):
        m = M.init_model(small_cfg(), seed=2)
        for k in m.params:
            m.params[k] *= 40.0
        outs = M.forward_binary(m, rand_x(), rand_t())
        for q in (outs.q_t, outs.q_t_z, outs.q_t_c, outs.q_y, outs.q_y_a, outs.q_y_c):
            assert np.all(q.value >= 0.0) and np.all(q.value <= 1.0)

    def test_permutation_equivariance(self):
        m = M.init_model(small_cfg(), seed=5)
        x, t = rand_x(), rand_t()
        perm = rng.permutation(9, len(x))
        a = M.forward_binary(m, x, t).q_t.value
        b = M.forward_binary(m, x[perm], t[perm]).q_t.value
        assert np.allclose(a[perm], b)

    def test_wrong_mode(self):
        m = M.init_model(small_cfg(mode="continuous"), seed=1)
        with pytest.raises(ValueError, match="binary"):
            M.forward_binary(m, rand_x(), rand_t())

    def test_non_binary_treatment(self):
        m = M.init_model(small_cfg(), seed=1)
        with pytest.raises(ValueError, match="0, 1"):
            M.forward_binary(m, rand_x(), np.full(9, 0.3))


class TestPredictOutcome:
    def test_binary_ite_shape(self):
        m = M.init_model(small_cfg(), seed=6)
        x = rand_x()
        ite = M.predict_outcome(m, x, 1.0) - M.predict_outcome(m, x, 0.0)
        assert ite.shape == (9,)
        assert np.any(ite != 0)

    def test_channel_weights_zeroed_kills_effect(self):
        m = M.init_model(small_cfg(), seed=6)
        m.params["head_y.l0.W"][0, :] = 0.0  # first input row is the treatment
        x = rand_x()
        assert np.array_equal(M.predict_outcome(m, x, 0.0), M.predict_outcome(m, x, 1.0))

    def test_binary_do_value_domain(self):
        m = M.init_model(small_cfg(), seed=6)
        with pytest.raises(ValueError, match="do-value"):
            M.predict_outcome(m, rand_x(), 0.5)

    def test_continuous_grid(self):
        m = M.init_model(small_cfg(mode="continuous"), seed=7)
        x = rand_x()
        grid = np.linspace(20, 30, 10)
        preds = [M.predict_outcome(m, x, tv) for tv in grid]
        assert len(preds) == 10 and all(p.shape == (9,) for p in preds)


def _unmemoised(m):
    """The same config, seed and parameter arrays, without predict_outcome's
    memo."""
    return M.SD2Model(m.config, m.seed, m.params)


# encoder depths: one hidden layer, the default two, and one more; each adds
# a dense node per encoder to every forward
ENC_LAYERS = (1, 2, 3)

# layer widths beside small_cfg's (rep 4, hidden 8, head 4): every width at
# one, and ArchConfig's defaults (rep 8, hidden 64, head 32), the widths every
# run uses; each gives the matrix products other shapes
WIDTHS = {"narrow": dict(rep_dim=1, enc_hidden=1, head_hidden=1),
          "default": dict(rep_dim=8, enc_hidden=64, head_hidden=32)}


def modes(*widths):
    """Both modes at small_cfg's widths, then at each named width.  The ids
    also name the hidden layers' activation, which is always ELU, so the
    small_cfg ids read as they did when the activation was a setting."""
    cases = [pytest.param(mode, {}, id=f"{mode}-elu") for mode in ("binary", "continuous")]
    cases += [pytest.param(mode, WIDTHS[w], id=f"{mode}-elu-{w}")
              for w in widths for mode in ("binary", "continuous")]
    return pytest.mark.parametrize("mode, widths", cases)


class TestTapeFreeInference:
    @pytest.mark.parametrize("enc_layers", ENC_LAYERS)
    @modes("narrow", "default")
    def test_matches_recorded_forward_bitwise(self, mode, widths, enc_layers,
                                              record_every_tape):
        m = M.init_model(small_cfg(mode=mode, enc_layers=enc_layers, **widths), seed=12)
        x = rand_x(n=40) * 2.0

        def run(model_for):
            reps = M.encode(m, x)
            return [*reps, *(M.predict_outcome(model_for(), x, tv) for tv in (0.0, 1.0))]

        tape_free = run(lambda: m)  # the second do-value reads the memo
        record_every_tape()
        recorded = run(lambda: _unmemoised(m))  # every pass runs the encoders
        assert all(np.array_equal(a, b) for a, b in zip(tape_free, recorded))

    def test_no_node_kept(self, monkeypatch):
        m = M.init_model(small_cfg(mode="continuous"), seed=12)
        tapes = []

        class CapturedTape(ad.Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tapes.append(self)

        monkeypatch.setattr(ad, "Tape", CapturedTape)
        M.predict_outcome(m, rand_x(), 0.5)
        M.encode(m, rand_x())
        assert len(tapes) == 2
        assert all(not t.record and t.nodes == [] and t.params == {} for t in tapes)

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_tapeless_forward_leaves_no_cyclic_garbage(self, mode):
        m = M.init_model(small_cfg(mode=mode), seed=12)
        forward = M.forward_binary if mode == "binary" else M.forward_continuous
        t = rand_t(n=50) if mode == "binary" else rng.normals(9, 0, 50)
        gc.collect()
        gc.disable()
        try:
            outs = forward(m, rand_x(n=50), t)
            assert not outs.r_c.tape.record
            del outs
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_instrument_encoder_not_read(self, mode):
        m = M.init_model(small_cfg(mode=mode), seed=12)
        x = rand_x()
        before = M.predict_outcome(m, x, 1.0)
        for name in m.params:
            if name.startswith("enc_z."):
                m.params[name][:] = np.nan
        after = M.predict_outcome(_unmemoised(m), x, 1.0)  # the encoders run again
        assert np.all(np.isfinite(after)) and np.array_equal(before, after)


BLOCK_TEST_ROWS = (1023, 1024, 1025, 1039, 1040, 2049, 4097, 10000)


def _tensor_values(outputs) -> list[np.ndarray]:
    """The value of every tensor in a (nested) forward output, in field order."""
    values = []
    for field in outputs:
        if isinstance(field, ad.Tensor):
            values.append(field.value)
        elif field is not None:
            values += _tensor_values(field)
    return values


PARAMETER_ORDER = {
    "binary": ["enc_z", "enc_c", "enc_a", "retain_t", "retain_y", "head_t", "head_t_z",
               "head_t_c", "head_y", "head_y_a", "head_y_c"],
    "continuous": ["enc_z", "enc_c", "enc_a", "retain_t", "retain_y", "head_t", "head_t_z",
                   "head_t_c", "head_t_a", "head_t_cr", "head_y", "head_y_a", "head_y_c",
                   "rebalance"]}
BUILD_ORDER = {
    "binary": ["enc_z", "enc_c", "enc_a", "retain_t", "head_t", "head_t_z", "head_t_c",
               "retain_y", "head_y", "head_y_a", "head_y_c"],
    "continuous": ["enc_z", "enc_c", "enc_a", "retain_t", "head_t", "head_t_z", "head_t_c",
                   "head_t_a", "rebalance", "head_t_cr", "retain_y", "head_y", "head_y_a",
                   "head_y_c"]}
# dense layers per network at small_cfg's enc_layers=2
LAYER_COUNTS = {"enc_z": 3, "enc_c": 3, "enc_a": 3, "retain_t": 1, "retain_y": 1,
                "rebalance": 2, **{head: 2 for head in ("head_t", "head_t_z", "head_t_c",
                                                        "head_t_a", "head_t_cr", "head_y",
                                                        "head_y_a", "head_y_c")}}


class TestDeclaredReads:
    def test_output_fields_follow_the_table(self):
        assert M.HeadOutputs._fields == tuple(net.output for net in M.NETWORKS if net.output)
        assert M.Representations._fields == ("r_z", "r_c", "r_a")
        assert all(field is None for field in M.HeadOutputs())

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_each_output_needs_only_its_declared_networks(self, mode):
        # only those networks are bound, so reading another raises
        m = M.init_model(small_cfg(mode=mode), seed=12)
        forward = M.forward_binary if mode == "binary" else M.forward_continuous
        x, t = rand_x(), rand_t() if mode == "binary" else rng.normals(9, 0, 9)
        full = forward(m, x, t)
        names = [n for n in M.READS if mode == "continuous" or n not in ("q_t_a", "q_t_cr")]
        for name in names:
            tape = ad.Tape(record=False)
            out = forward(m, x, t, tape, M.bind(m, tape, M.networks((name,))), (name,))
            heads = {k: v for k, v in out._asdict().items()
                     if k not in M.Representations._fields}
            assert [k for k, v in heads.items() if v is not None] == \
                ([] if name in M.Representations._fields else [name])
            assert all(np.array_equal(a, b) for a, b in
                       zip(_tensor_values((getattr(out, name),)),
                           _tensor_values((getattr(full, name),))))

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_parameter_order(self, mode, tmp_path):
        # the order init_model draws and a checkpoint stores the layers in
        m = M.init_model(small_cfg(mode=mode), seed=1)
        assert list(dict.fromkeys(k.partition(".")[0] for k in m.params)) == \
            PARAMETER_ORDER[mode]
        assert list(m.params) == [f"{net}.l{i}.{kind}" for net in PARAMETER_ORDER[mode]
                                  for i in range(LAYER_COUNTS[net]) for kind in "Wb"]
        M.checkpoint_save(m, tmp_path / "m.bin")
        manifest = json.loads((tmp_path / "m.bin").read_bytes().partition(b"\n")[0])
        assert [entry["name"] for entry in manifest["params"]] == list(m.params)

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_build_order(self, mode):
        # the order a recorded `Total` step makes its dense nodes in
        cfg = tr.TrainConfig(mode=mode, arch=small_cfg(mode=mode))
        m = M.init_model(cfg.arch, seed=1)
        t = (np.arange(9) % 2).astype(float) if mode == "binary" else rng.normals(9, 0, 9)
        tape = ad.Tape()
        tr._batch_breakdown(cfg, m, rand_x(), t, rand_t(), tape)
        layers = [node.parents[1].name.rpartition(".")[0] for node in tape.nodes
                  if len(node.parents) == 3 and node.parents[1].name.endswith(".W")]
        assert list(dict.fromkeys(layer.partition(".")[0] for layer in layers)) == \
            BUILD_ORDER[mode]
        assert layers == [f"{net}.l{i}" for net in BUILD_ORDER[mode]
                          for i in range(LAYER_COUNTS[net])]

    def test_networks(self):
        assert M.ENCODERS == ("enc_z", "enc_c", "enc_a")
        assert M.networks(("q_y", "r_z", "q_t")) == ("enc_c", "enc_a", "retain_y", "head_y",
                                                     "enc_z", "retain_t", "head_t")
        m = M.init_model(small_cfg(), seed=1)
        assert list(M.params_read_by(m.params, ("q_t_z",))) == [
            "enc_z.l0.W", "enc_z.l0.b", "enc_z.l1.W", "enc_z.l1.b", "enc_z.l2.W", "enc_z.l2.b",
            "head_t_z.l0.W", "head_t_z.l0.b", "head_t_z.l1.W", "head_t_z.l1.b"]


def _block_case(n, mode, enc_layers, widths):
    m = M.init_model(small_cfg(mode=mode, enc_layers=enc_layers, **widths), seed=12)
    x = rand_x(n=n, key=n) * 2.0
    if mode == "binary":
        return m, M.forward_binary, x, rand_t(n=n, key=n + 1), 1.0
    return m, M.forward_continuous, x, rng.normals(n + 1, 0, n), 0.7


class TestRowBlocks:
    @given(st.integers(0, 40_000))
    @example(1)
    @example(M.BLOCK_ROWS + 15)
    @example(M.BLOCK_ROWS + 16)
    @example(3 * M.BLOCK_ROWS)
    def test_partition(self, n):
        blocks = M._row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % M.BLOCK_ROWS == 0 for b in blocks)
        sizes = [b.stop - b.start for b in blocks]
        assert all(size >= 16 for size in sizes) or n < 16
        # only the last block can hold a folded tail, and it is not split again
        assert all(size == M.BLOCK_ROWS for size in sizes[:-1])
        assert sizes[-1] < M.BLOCK_ROWS + 16

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    @pytest.mark.parametrize("recorded", [False, True], ids=["tape-free", "recorded"])
    @pytest.mark.parametrize("t_rows", [2100, 1999])
    def test_treatment_rows_must_match(self, mode, recorded, t_rows):
        # the tape-free pass runs in row blocks, which cut off a longer t
        m = M.init_model(small_cfg(mode=mode), seed=1)
        forward = M.forward_binary if mode == "binary" else M.forward_continuous
        tape = ad.Tape() if recorded else None
        with pytest.raises(ValueError, match=rf"\({t_rows},\), x has 2000 rows"):
            forward(m, rand_x(n=2000), rand_t(n=t_rows), tape)
        with pytest.raises(ValueError, match=r"\(2000, 1\), x has 2000 rows"):
            forward(m, rand_x(n=2000), rand_t(n=2000).reshape(-1, 1), tape)

    @pytest.mark.parametrize("enc_layers", ENC_LAYERS)
    @modes("default")
    @pytest.mark.parametrize("n", BLOCK_TEST_ROWS)
    def test_forward_matches_recorded_bitwise(self, n, mode, widths, enc_layers):
        m, forward, x, t, _ = _block_case(n, mode, enc_layers, widths)
        tape_free = _tensor_values(forward(m, x, t))
        recorded = _tensor_values(forward(m, x, t, ad.Tape()))
        assert len(tape_free) == len(recorded) == (19 if mode == "continuous" else 9)
        assert all(np.array_equal(a, b) for a, b in zip(tape_free, recorded))

    @pytest.mark.parametrize("enc_layers", ENC_LAYERS)
    @modes("default")
    @pytest.mark.parametrize("n", BLOCK_TEST_ROWS)
    def test_predict_and_encode_match_recorded(self, n, mode, widths, enc_layers):
        # encode bit for bit; predict_outcome within the rounding of the
        # outcome head's first-layer sum, which it adds up in another order
        m, forward, x, _, do_value = _block_case(n, mode, enc_layers, widths)
        recorded = forward(m, x, np.full(n, do_value), ad.Tape())
        q_y_mean = (recorded.q_y.mean if mode == "continuous" else recorded.q_y).value[:, 0]
        bound = R.prediction_bound(m, x, do_value)
        assert np.all(np.abs(M.predict_outcome(m, x, do_value) - q_y_mean) <= bound)
        assert np.all(bound <= 1e-12 * (1.0 + np.abs(q_y_mean)))  # the bound is not vacuous
        reps = M.encode(m, x)
        assert all(np.array_equal(a, getattr(recorded, r).value)
                   for a, r in zip(reps, M.Representations._fields))

    @pytest.mark.parametrize("enc_layers", ENC_LAYERS)
    @modes("narrow", "default")
    @pytest.mark.parametrize("n", BLOCK_TEST_ROWS)
    def test_predict_matches_split_oracle_bitwise(self, n, mode, widths, enc_layers):
        m, _, x, _, do_value = _block_case(n, mode, enc_layers, widths)
        for t in (0.0, do_value):
            assert np.array_equal(M.predict_outcome(m, x, t), R.split_outcome(m, x, t))


def _edit_enc_c(m, x, adam):
    m.params["enc_c.l1.W"][0, 0] += 0.5
    return x


def _edit_enc_a(m, x, adam):
    m.params["enc_a.l0.b"][3] -= 0.5
    return x


def _edit_retain_y(m, x, adam):
    m.params["retain_y.l0.W"][0, 0] += 0.5
    return x


def _adam_step(m, x, adam):
    ad.adam_step(m.params, {k: np.ones_like(v) for k, v in m.params.items()}, adam)
    return x


def _replace_entry(m, x, adam):
    m.params["enc_a.l2.W"] = m.params["enc_a.l2.W"] * 1.5
    return x


def _edit_x(m, x, adam):
    x[4, 2] += 0.5
    return x


def _new_shape(m, x, adam):
    return x[:-3]


def _edit_head_weights(m, x, adam):
    m.params["head_y.l0.W"][1, 0] += 0.5  # row 0 meets the treatment
    return x


def _edit_head_bias(m, x, adam):
    m.params["head_y.l0.b"][0] += 0.5
    return x


def _negative_zero(m, x, adam):
    x = x.copy()
    x[0, 0] = -0.0  # the memo was stored for +0.0
    return x


def _new_mode(m, x, adam):
    # the memo is keyed on the whole config; the outcome head's last layer
    # takes the new mode's activation, and prediction reads its first column
    m.config = replace(m.config, mode="continuous" if m.config.mode == "binary" else "binary")
    return x


MEMO_MISSES = {f.__name__.lstrip("_"): f for f in (
    _edit_enc_c, _edit_enc_a, _edit_retain_y, _edit_head_weights, _edit_head_bias, _adam_step,
    _replace_entry, _edit_x, _new_shape, _negative_zero, _new_mode)}


class TestOutcomeMemo:
    @modes("narrow", "default")
    @pytest.mark.parametrize("n", BLOCK_TEST_ROWS)
    def test_hit_matches_fresh_model_bitwise(self, n, mode, widths):
        m, _, x, _, do_value = _block_case(n, mode, 2, widths)
        M.predict_outcome(m, x, 0.0)
        memo = m._outcome_memo
        kept = memo.fixed.copy()
        hit = M.predict_outcome(m, x, do_value)
        assert m._outcome_memo is memo
        # head_y's first-layer sum over retain_y's output, without the treatment term
        assert memo.fixed.shape == (n, m.config.head_hidden)
        assert np.array_equal(memo.fixed.view(np.uint64), kept.view(np.uint64))
        fresh = M.predict_outcome(_unmemoised(m), x, do_value)
        other = _unmemoised(m)
        M.predict_outcome(other, x[::-1].copy(), 0.0)
        missed = M.predict_outcome(other, x, do_value)  # the memo held other covariates
        assert np.array_equal(hit, fresh) and np.array_equal(hit, missed)

    @pytest.mark.parametrize("do_value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_do_value_on_hit(self, do_value):
        m = M.init_model(small_cfg(mode="continuous"), seed=12)
        x = rand_x(n=40)
        M.predict_outcome(m, x, 0.7)
        memo = m._outcome_memo
        with pytest.raises(ad.NonFiniteError, match="'t'"):
            M.predict_outcome(m, x, do_value)
        assert m._outcome_memo is memo
        after = M.predict_outcome(m, x, -0.3)
        assert m._outcome_memo is memo
        assert np.array_equal(after, M.predict_outcome(_unmemoised(m), x, -0.3))

    def test_nonfinite_treatment_term_on_hit(self):
        # the unsplit product [t | R] @ W would overflow too, in the same layer
        m = M.init_model(small_cfg(mode="continuous"), seed=12)
        x = rand_x(n=40)
        M.predict_outcome(m, x, 0.7)
        memo = m._outcome_memo
        m.params["head_y.l0.W"][0, 0] = 10.0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ad.NonFiniteError, match="'head_y.l0'"):
            M.predict_outcome(m, x, 1e308)
        assert m._outcome_memo is memo

    def test_binary_do_value_checked_before_write(self):
        m = M.init_model(small_cfg(), seed=12)
        x = rand_x(n=40)
        M.predict_outcome(m, x, 1.0)
        memo = m._outcome_memo
        kept = memo.fixed.copy()
        with pytest.raises(ValueError, match="do-value"):
            M.predict_outcome(m, x, 0.5)
        assert m._outcome_memo is memo
        assert np.array_equal(memo.fixed.view(np.uint64), kept.view(np.uint64))

    def test_hit_copies_no_head_input(self):
        # a narrow head keeps its own layer outputs well below the bound
        cfg = M.ArchConfig(input_dim=6, enc_hidden=64, head_hidden=4, mode="continuous")
        m = M.init_model(cfg, seed=12)
        x = rand_x(n=10_000)
        M.predict_outcome(m, x, 0.1)
        M.predict_outcome(m, x, 0.2)
        tracemalloc.start()
        try:
            M.predict_outcome(m, x, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than one row block of [do-value | retain_y], let alone all n rows
        assert peak < M.BLOCK_ROWS * (cfg.enc_hidden + 1) * 8

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    @pytest.mark.parametrize("cause", sorted(MEMO_MISSES))
    def test_miss_recomputes(self, cause, mode):
        m = M.init_model(small_cfg(mode=mode), seed=12)
        adam = ad.AdamState(m.params)  # the parameters become views of its buffer
        x = rand_x(n=40)
        x[0, 0] = 0.0
        M.predict_outcome(m, x, 1.0)
        memo = m._outcome_memo
        x = MEMO_MISSES[cause](m, x, adam)
        missed = M.predict_outcome(m, x, 1.0)
        assert m._outcome_memo is not memo
        assert np.array_equal(m._outcome_memo.key[0], x)
        assert np.array_equal(missed, M.predict_outcome(_unmemoised(m), x, 1.0))

    @pytest.mark.parametrize("name", ["head_y.l0.W", "head_y.l1.b"])
    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_outcome_networks_still_read(self, mode, name):
        m = M.init_model(small_cfg(mode=mode), seed=12)
        x = rand_x(n=40)
        before = M.predict_outcome(m, x, 1.0)
        memo = m._outcome_memo
        m.params[name][0] += 0.5
        after = M.predict_outcome(m, x, 1.0)
        assert m._outcome_memo is memo
        assert not np.array_equal(before, after)
        assert np.array_equal(after, M.predict_outcome(_unmemoised(m), x, 1.0))

    @pytest.mark.parametrize("network", ["enc_c", "head_y"])
    def test_nonfinite_keeps_previous_memo(self, network):
        m = M.init_model(small_cfg(), seed=12)
        x = rand_x(n=40)
        M.predict_outcome(m, x, 1.0)
        memo = m._outcome_memo
        m.params[f"{network}.l1.b"][0] = np.nan
        with pytest.raises(ad.NonFiniteError):
            M.predict_outcome(m, x * 2.0, 1.0)
        assert m._outcome_memo is memo

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_nonfinite_head_after_hit_keeps_memo(self, mode):
        m = M.init_model(small_cfg(mode=mode), seed=12)
        x = rand_x(n=40)
        M.predict_outcome(m, x, 1.0)
        memo = m._outcome_memo
        bias = m.params["head_y.l1.b"].copy()
        m.params["head_y.l1.b"][0] = np.inf
        with pytest.raises(ad.NonFiniteError):
            M.predict_outcome(m, x, 0.0)
        assert m._outcome_memo is memo
        m.params["head_y.l1.b"][:] = bias
        after = M.predict_outcome(m, x, 0.0)
        assert m._outcome_memo is memo
        assert np.array_equal(after, M.predict_outcome(_unmemoised(m), x, 0.0))

    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    @pytest.mark.parametrize("n", [40, 2049])
    def test_footprint(self, n, mode):
        cfg = small_cfg(mode=mode)
        m = M.init_model(cfg, seed=12)
        M.predict_outcome(m, rand_x(n=n), 1.0)
        memo = m._outcome_memo
        copied = sum(v.size for k, v in m.params.items()
                     if k.startswith(("enc_c.", "enc_a.", "retain_y.", "head_y.l0.")))
        arrays = [a for f in memo for a in (f if isinstance(f, list) else [f])
                  if isinstance(a, np.ndarray)]
        # head_y.l0.W's treatment row is read on every call, never copied
        assert sum(a.size for a in arrays) == \
            n * (cfg.input_dim + cfg.head_hidden) + copied - cfg.head_hidden
        assert all(a.dtype == np.float64 for a in arrays)

    def test_not_saved_compared_or_printed(self, tmp_path):
        m = M.init_model(small_cfg(), seed=12)
        M.checkpoint_save(m, tmp_path / "before.bin")
        M.predict_outcome(m, rand_x(), 1.0)
        assert m._outcome_memo is not None
        M.checkpoint_save(m, tmp_path / "after.bin")
        assert (tmp_path / "before.bin").read_bytes() == (tmp_path / "after.bin").read_bytes()
        assert M.checkpoint_load(tmp_path / "after.bin")._outcome_memo is None
        assert m == _unmemoised(m) and repr(m) == repr(_unmemoised(m))


class TestForwardContinuous:
    def test_zero_weights_standard_gaussian(self):
        m = M.init_model(small_cfg(mode="continuous"), seed=1)
        for k in m.params:
            m.params[k][:] = 0.0
        outs = M.forward_continuous(m, rand_x(), rng.normals(9, 0, 9))
        assert np.all(outs.q_t.mean.value == 0.0)
        assert np.all(outs.q_t.log_std.value == 0.0)

    def test_log_std_clamped(self):
        m = M.init_model(small_cfg(mode="continuous"), seed=2)
        for k in m.params:
            m.params[k] *= 100.0
        outs = M.forward_continuous(m, rand_x(), rng.normals(9, 0, 9))
        for head in (outs.q_t, outs.q_t_z, outs.q_t_c, outs.q_t_a, outs.q_t_cr,
                     outs.q_y, outs.q_y_a, outs.q_y_c):
            assert np.all(head.log_std.value >= F.LOG_STD_MIN)
            assert np.all(head.log_std.value <= F.LOG_STD_MAX)

    def test_deterministic(self):
        x, t = rand_x(), rng.normals(9, 0, 9)
        a = M.forward_continuous(M.init_model(small_cfg(mode="continuous"), 3), x, t)
        b = M.forward_continuous(M.init_model(small_cfg(mode="continuous"), 3), x, t)
        assert np.array_equal(a.q_y.mean.value, b.q_y.mean.value)

    def test_wrong_mode(self):
        m = M.init_model(small_cfg(), seed=1)
        with pytest.raises(ValueError, match="continuous"):
            M.forward_continuous(m, rand_x(), rng.normals(9, 0, 9))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = M.init_model(small_cfg(), seed=11)
        path = tmp_path / "model.bin"
        M.checkpoint_save(m, path)
        loaded = M.checkpoint_load(path)
        assert loaded.config == m.config
        assert loaded.seed == m.seed
        assert set(loaded.params) == set(m.params)
        for k in m.params:
            assert np.array_equal(loaded.params[k], m.params[k])

    def test_edited_shape_rejected(self, tmp_path):
        import json
        m = M.init_model(small_cfg(), seed=11)
        path = tmp_path / "model.bin"
        M.checkpoint_save(m, path)
        blob = path.read_bytes()
        header, rest = blob.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["params"][0]["shape"] = [2, 2]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + rest)
        with pytest.raises(M.SchemaError, match="shape"):
            M.checkpoint_load(path)

    @pytest.mark.parametrize("version, error", [
        (M.CHECKPOINT_VERSION + 1, "checkpoint version 2 is not supported"),
        # a bool or a float equal to a supported version is not one
        (True, "checkpoint manifest field 'version' is not int"),
        (1.0, "checkpoint manifest field 'version' is not int")])
    def test_unsupported_version_rejected(self, tmp_path, version, error):
        import json
        m = M.init_model(small_cfg(), seed=11)
        path = tmp_path / "model.bin"
        M.checkpoint_save(m, path)
        blob = path.read_bytes()
        header, rest = blob.split(b"\n", 1)
        manifest = json.loads(header)
        manifest["version"] = version
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + rest)
        with pytest.raises(M.SchemaError, match=error):
            M.checkpoint_load(path)

    def test_truncated_rejected(self, tmp_path):
        m = M.init_model(small_cfg(), seed=11)
        path = tmp_path / "model.bin"
        M.checkpoint_save(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(M.SchemaError, match="truncated"):
            M.checkpoint_load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = M.init_model(small_cfg(), seed=11)
        path = tmp_path / "model.bin"
        M.checkpoint_save(m, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(M.SchemaError, match="trailing"):
            M.checkpoint_load(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"{\"format\": \"other\"}\n")
        with pytest.raises(M.SchemaError):
            M.checkpoint_load(path)


class TestArchConfig:
    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            M.ArchConfig(input_dim=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            M.ArchConfig(input_dim=3, mode="ordinal")
