import gc
import hashlib
import json
import logging
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import reference_ops as R
from sd2 import autodiff as ad
from sd2 import cli
from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2 import model as M
from sd2 import rng
from sd2 import training as tr
from sd2.family import FAMILIES
from sd2.losses import LossWeights
from sd2.model import ArchConfig, init_model, predict_outcome


def tiny_config(**kw):
    base = dict(
        mode="binary",
        arch=ArchConfig(input_dim=1, rep_dim=4, enc_hidden=8, head_hidden=4),
        batch_size=64, max_epochs=4, patience=4, seed=11,
        dataset={"kind": "synthetic_binary", "n": 300, "mz": 2, "mc": 2, "ma": 1, "mu": 1},
    )
    base.update(kw)
    return tr.TrainConfig(**base)


TWINS_REF = {"kind": "twins", "csv_path": str(dg.fixture_path()),
             "m_columns": list(dg.FIXTURE_M_COLUMNS), "hide_count": 3}


@pytest.fixture(scope="module")
def tiny_triple():
    return tr.resolve_data(tiny_config(), 11)


class TestTrainBasics:
    @pytest.mark.parametrize("max_epochs, patience, error", [
        (0, 0, "max_epochs must be at least 1, got 0"),
        (-1, -5, "max_epochs must be at least 1, got -1"),
        (3, 0, "patience must be at least 1, got 0")])
    def test_fewer_than_one_epoch_rejected(self, max_epochs, patience, error):
        # a run that can never take an optimizer step does not start
        with pytest.raises(ValueError, match=error):
            tiny_config(max_epochs=max_epochs, patience=patience)

    def test_zero_lr_keeps_init(self, tiny_triple):
        cfg = tiny_config(optimizer=tr.OptimizerConfig(lr=0.0), max_epochs=2, patience=2)
        model, _ = tr.train(cfg, tiny_triple[0], tiny_triple[1])
        ref = init_model(replace(cfg.arch, input_dim=5, mode="binary"),
                         rng.mix_key(cfg.seed, "init"))
        assert all(np.array_equal(model.params[k], ref.params[k]) for k in ref.params)

    def test_deterministic(self, tiny_triple):
        a, ha = tr.train(tiny_config(), tiny_triple[0], tiny_triple[1])
        b, hb = tr.train(tiny_config(), tiny_triple[0], tiny_triple[1])
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert ha.criterion == hb.criterion

    def test_selected_epoch_minimizes_criterion(self, tiny_triple):
        cfg = tiny_config(max_epochs=6, patience=6)
        model, history = tr.train(cfg, tiny_triple[0], tiny_triple[1])
        assert history.selected_epoch == int(np.argmin(history.criterion))

    def test_history_rows_cover_both_splits(self, tiny_triple):
        _, history = tr.train(tiny_config(max_epochs=2, patience=2),
                              tiny_triple[0], tiny_triple[1])
        splits = {r["split"] for r in history.rows}
        assert splits == {"train", "val"}

    def test_mode_mismatch(self, tiny_triple):
        cfg = tiny_config(mode="continuous")
        with pytest.raises(ValueError, match="mode"):
            tr.train(cfg, tiny_triple[0], tiny_triple[1])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_config(batch_size=1)
        with pytest.raises(ValueError, match="patience"):
            tiny_config(patience=10, max_epochs=5)
        with pytest.raises(ValueError, match="variant"):
            tiny_config(variant="L")


class TestEarlyStopping:
    def test_flat_criterion_stops_after_patience_epochs(self, tiny_triple):
        # lr 0 keeps the weights, so every epoch's criterion equals epoch 0's
        # and none improves on it: epochs 1-3 are the three bad ones
        cfg = tiny_config(optimizer=tr.OptimizerConfig(lr=0.0), max_epochs=10, patience=3)
        model, history = tr.train(cfg, tiny_triple[0], tiny_triple[1])
        assert len(history.criterion) == 4
        assert len(set(history.criterion)) == 1
        assert history.selected_epoch == 0
        ref = init_model(tr._arch_for(cfg, 5), rng.mix_key(cfg.seed, "init"))
        assert all(np.array_equal(model.params[k], ref.params[k]) for k in ref.params)

    def test_stop_returns_the_best_epochs_parameters(self, tiny_triple, monkeypatch):
        # the best criterion is epoch 3's; three epochs without a better one
        # stop the run before epoch 7's 1 is seen
        evaluate = tr._eval_breakdown

        def run(max_epochs):
            criteria = iter([5.0, 4.0, 4.5, 3.0, 3.5, 3.5, 3.5, 1.0])
            monkeypatch.setattr(tr, "_eval_breakdown", lambda *args: (
                evaluate(*args)[0], next(criteria)))
            return tr.train(tiny_config(max_epochs=max_epochs, patience=3),
                            tiny_triple[0], tiny_triple[1])

        model, history = run(8)
        assert history.criterion == [5.0, 4.0, 4.5, 3.0, 3.5, 3.5, 3.5]
        assert history.selected_epoch == 3
        at_epoch_3, short = run(4)
        assert short.selected_epoch == 3
        assert all(np.array_equal(model.params[k], at_epoch_3.params[k]) for k in model.params)


class TestDivergence:
    def test_non_finite_update_names_its_parameter_epoch_and_batch(self, tiny_triple,
                                                                    monkeypatch):
        gradients, calls = ad.Tape.gradients, []

        def nan_at_batch_1(tape, output):
            value, grads = gradients(tape, output)
            calls.append(output)
            if len(calls) == 2:  # epoch 0, batch 1
                grads["retain_y.l0.W"] = np.full_like(grads["retain_y.l0.W"], np.nan)
            return value, grads

        monkeypatch.setattr(ad.Tape, "gradients", nan_at_batch_1)
        with pytest.raises(tr.TrainingError) as failure:
            tr.train(tiny_config(), tiny_triple[0], tiny_triple[1])
        assert str(failure.value) == ("non-finite value at node 'retain_y.l0.W' "
                                      "in epoch 0, batch 1")
        assert len(calls) == 2

    @pytest.mark.parametrize("suffix", [".W", ".b"])
    @pytest.mark.parametrize("mode, layer", [
        (mode, layer) for mode in FAMILIES
        for layers in M._layers(ArchConfig(input_dim=3, mode=mode)).values()
        for layer, *_ in layers])
    def test_parameter_edited_outside_training_is_named_by_its_layer(self, mode, layer, suffix):
        # every pass that reads the layer names it, recorded or tape-free;
        # encode and predict_outcome read only some networks, and pass otherwise
        cfg = ArchConfig(input_dim=3, rep_dim=2, enc_hidden=4, head_hidden=3, mode=mode)
        model = init_model(cfg, 2)
        model.params[layer + suffix].flat[-1] = np.nan
        x = np.random.default_rng(0).standard_normal((10, 3))
        t = np.arange(10.0) % 2
        forward = M.forward_binary if mode == "binary" else M.forward_continuous
        network = layer.partition(".")[0]
        for run, reads in ((lambda: forward(model, x, t, ad.Tape()), True),
                           (lambda: forward(model, x, t), True),
                           (lambda: M.encode(model, x), network in M.ENCODERS),
                           (lambda: predict_outcome(model, x, 1.0),
                            network in M.networks(("q_y",)))):
            if not reads:
                run()
                continue
            with pytest.raises(ad.NonFiniteError) as failure:
                run()
            assert failure.value.op == layer


class TestDegenerateBatches:
    def test_skewed_data_trains_with_warning(self, caplog):
        # nearly all treated: some batches have one class
        spec = dg.SyntheticSpec(n=120, mz=2, mc=2, ma=1, mu=1, seed=1)
        ds = dg.gen_binary(spec)
        ds.t[:] = 1.0
        ds.t[:3] = 0.0
        cfg = tiny_config(batch_size=16, max_epochs=1, patience=1)
        with caplog.at_level(logging.WARNING):
            model, history = tr.train(cfg, ds, ds)
        assert model is not None
        assert any("single-class" in r.message for r in caplog.records)

    def test_zero_optimizer_steps_is_a_failure(self, tiny_triple):
        train_ds = tiny_triple[0].subset(np.arange(tiny_triple[0].n))
        train_ds.t[:] = 1.0
        with pytest.raises(tr.TrainingError, match="no optimizer step"):
            tr.train(tiny_config(max_epochs=2, patience=2), train_ds, tiny_triple[1])

    def test_single_class_validation_cannot_select(self, tiny_triple, caplog, monkeypatch):
        val_ds = tiny_triple[1].subset(np.arange(tiny_triple[1].n))
        val_ds.t[:] = 0.0
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 100)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(tr.TrainingError, match="no validation chunk"):
                tr._eval_breakdown(tiny_config(), init_model(
                    replace(tiny_config().arch, input_dim=5), 0), val_ds)
        dropped = [r for r in caplog.records if "dropping validation rows" in r.getMessage()]
        assert len(dropped) == 3


class TestValidationChunks:
    def test_single_class_tail_chunk_joins_the_chunk_before_it(self, caplog, monkeypatch):
        # 4,097 rows: the last 4,096-row chunk would hold one row, so one class
        cfg = tiny_config()
        kind = {"kind": "synthetic_binary", "mz": 2, "mc": 2, "ma": 1, "mu": 1}
        val = dg.generate(dg.spec_from_ref({**kind, "n": 4097, "seed": 4}))
        model = init_model(tr._arch_for(cfg, val.covariates().shape[1]), 3)
        with caplog.at_level(logging.WARNING):
            bd, criterion = tr._eval_breakdown(cfg, model, val)
        assert not caplog.records
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 4097)
        one_chunk = tr._eval_breakdown(cfg, model, val)
        assert [getattr(bd, f) for f in bd.FIELDS] + [criterion] == \
            [getattr(one_chunk[0], f) for f in bd.FIELDS] + [one_chunk[1]]

    def test_chunks(self):
        t = np.array([0, 1, 0, 1, 0, 1, 1.0])
        assert tr._eval_chunks("binary", t, 3) == [slice(0, 3), slice(3, 7)]
        assert tr._eval_chunks("continuous", t, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert tr._eval_chunks("binary", t[:6], 3) == [slice(0, 3), slice(3, 6)]
        # together still one class: the tail keeps its own chunk
        assert tr._eval_chunks("binary", np.zeros(7), 3) == [slice(0, 3), slice(3, 6),
                                                              slice(6, 7)]


class TestTapes:
    # tiny_config's widths, every width at one, and ArchConfig's defaults; the
    # ids name the hidden layers' activation, always ELU, as they did when it
    # was a setting
    @pytest.mark.parametrize("widths", [
        pytest.param({}, id="elu"),
        pytest.param(dict(rep_dim=1, enc_hidden=1, head_hidden=1), id="elu-narrow"),
        pytest.param(dict(rep_dim=8, enc_hidden=64, head_hidden=32), id="elu-default")])
    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_validation_pass_matches_recorded_bitwise(self, mode, widths, record_every_tape,
                                                      monkeypatch):
        dataset = ({"kind": "demand", "n": 300} if mode == "continuous"
                   else tiny_config().dataset)
        cfg = tiny_config(mode=mode, dataset=dataset,
                          arch=replace(tiny_config().arch, **widths))
        _, val, _ = tr.resolve_data(cfg, 11)
        model = init_model(tr._arch_for(cfg, val.covariates().shape[1]), 3)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 64)

        def run():
            bd, criterion = tr._eval_breakdown(cfg, model, val)
            return [getattr(bd, f) for f in bd.FIELDS] + [criterion]

        tape_free = run()
        record_every_tape()
        assert run() == tape_free

    @pytest.mark.parametrize("n", [4097, 10000])
    @pytest.mark.parametrize("mode", ["binary", "continuous"])
    def test_blocked_validation_pass_matches_unblocked(self, mode, n, record_every_tape):
        # the split spans several row blocks and, at 4,097 rows, ends in a
        # one-row chunk that joins the chunk before it
        kind = ({"kind": "demand"} if mode == "continuous"
                else {"kind": "synthetic_binary", "mz": 2, "mc": 2, "ma": 1, "mu": 1})
        cfg = tiny_config(mode=mode)
        val = dg.generate(dg.spec_from_ref({**kind, "n": n, "seed": 4}))
        model = init_model(tr._arch_for(cfg, val.covariates().shape[1]), 3)

        def run():
            bd, criterion = tr._eval_breakdown(cfg, model, val)
            return [getattr(bd, f) for f in bd.FIELDS] + [criterion]

        blocked = run()
        record_every_tape()  # every forward then runs over its whole chunk at once
        assert run() == blocked

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    @pytest.mark.parametrize("mode, nodes", [
        ("binary", {"Lp": 60, "Lp+Lt": 67, "Lp+Lt+La": 67, "Total": 75}),
        ("continuous", {"Lp": 93, "Lp+Lt": 93, "Lp+Lt+La": 101, "Total": 109})],
        ids=["binary", "continuous"])
    def test_step_tape_size(self, mode, nodes, variant):
        # README arch and weights: every parameter leaf, one node per dense
        # layer and per Gaussian head column of the networks the variant's
        # terms read, and the one objective node
        cfg = tr.apply_ablation(tr.TrainConfig(
            mode=mode, arch=ArchConfig(input_dim=1, rep_dim=8, enc_hidden=64, enc_layers=2,
                                       head_hidden=32),
            weights=LossWeights(alpha=1.0, beta=0.5, gamma=1.0, delta=0.01)), variant)
        model = init_model(tr._arch_for(cfg, 6), 3)
        x = rng.normal_matrix(21, 32, 6)
        t = ((np.arange(32) % 2).astype(float) if mode == "binary"
             else rng.normals(22, 0, 32))
        y = rng.bernoulli(23, np.full(32, 0.5))
        tape = ad.Tape()
        tr._batch_breakdown(cfg, model, x, t, y, tape)
        assert len(tape.nodes) == nodes[variant]

    def test_training_leaves_no_cyclic_garbage(self, tiny_triple):
        gc.collect()
        gc.disable()
        try:
            tr.train(tiny_config(max_epochs=2, patience=2), tiny_triple[0], tiny_triple[1])
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAblation:
    def test_lp_zeroes_everything(self, tiny_triple):
        cfg = tr.apply_ablation(tiny_config(max_epochs=1, patience=1), "Lp")
        assert (cfg.weights.alpha, cfg.weights.beta, cfg.weights.gamma) == (0, 0, 0)
        assert cfg.variant == "Lp"
        # Lp keeps the outcome head's treatment input, so its effect is not 0
        model, _ = tr.train(cfg, tiny_triple[0], tiny_triple[1])
        x = tiny_triple[2].covariates()
        assert np.any(predict_outcome(model, x, 1.0) != predict_outcome(model, x, 0.0))

    def test_lp_lt_restores_alpha(self):
        base = tiny_config()
        cfg = tr.apply_ablation(base, "Lp+Lt")
        assert cfg.weights.alpha == base.weights.alpha
        assert cfg.weights.beta == 0 and cfg.weights.gamma == 0
        assert cfg.arch == base.arch

    def test_lp_lt_la_restores_beta(self):
        base = tiny_config()
        cfg = tr.apply_ablation(base, "Lp+Lt+La")
        assert cfg.weights.beta == base.weights.beta
        assert cfg.weights.gamma == 0

    def test_only_total_weights_the_outcome_term(self, tiny_triple):
        ds = tiny_triple[0]
        base = tiny_config()
        model = init_model(tr._arch_for(base, ds.covariates().shape[1]), 3)
        for variant in tr.VARIANTS:
            cfg = tr.apply_ablation(base, variant)
            _, w = tr._batch_breakdown(cfg, model, ds.covariates(), ds.t, ds.y, ad.Tape())
            assert np.all(w == 1.0) == (variant != "Total"), variant

    def test_total_is_identity(self):
        base = tiny_config()
        assert tr.apply_ablation(base, "Total") == replace(base, variant="Total")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            tr.apply_ablation(tiny_config(), "Lq")

    @pytest.mark.parametrize("variant", ["Lp", "Lp+Lt", "Lp+Lt+La"])
    def test_config_rejects_variant_its_weights_do_not_match(self, variant):
        with pytest.raises(ValueError, match=f"variant '{re.escape(variant)}' does not match"):
            tiny_config(variant=variant)  # alpha = beta = gamma = 1
        cfg = tr.apply_ablation(tiny_config(), variant)
        assert tr.apply_ablation(cfg, variant) == cfg
        with pytest.raises(ValueError, match="does not match"):
            replace(cfg, weights=replace(cfg.weights, gamma=0.5))
        assert tr.apply_ablation(cfg, "Total").variant == "Total"  # Total takes any weights


def reads_config(mode: str, variant: str) -> tr.TrainConfig:
    dataset = ({"kind": "demand", "n": 300} if mode == "continuous"
               else tiny_config().dataset)
    return tr.apply_ablation(tiny_config(mode=mode, dataset=dataset, max_epochs=3, patience=3),
                             variant)


# sha256 over the name and bytes of every parameter the variant's objective
# reads (R.READ_NETWORKS), after training reads_config; recorded while a
# zero coefficient still built its term and weighted it by 0
READ_PARAMS_SHA256 = {
    ("binary", "Lp"): "a8b129d5dd82761fdf4fab7bf0238d94ba6021fb10ffafbd5c3cfd903ea641b2",
    ("binary", "Lp+Lt"): "537a870a019926fd475f8834f3d50955b4731e78d7a40d66eb3707972316461e",
    ("binary", "Lp+Lt+La"): "aea8040253c3ebaa6db1c0b860e58b82863bec107f763693f311a99e77742a5b",
    ("binary", "Total"): "7c176054689385d943e77ff66d50ebdfb12a74cc41ec9c1d3f15ade941826100",
    ("continuous", "Lp"): "05fdd2d93264fc08f193754d77da333eb416ca9fba83c6aa87eff6b0dd8e2691",
    ("continuous", "Lp+Lt"): "8df74f54c31a5a138fd0792961f1651953ec7e5937d0b5e942a10ddb83f3e137",
    ("continuous", "Lp+Lt+La"): "31248bfa9293683681dfb6cf56861907daa4450496685f78edc968c7a559b759",
    ("continuous", "Total"): "1bad7409a290d8ae649f582db078020a89a2cac6387f53b27f72cda9992a66b5",
}


@pytest.mark.parametrize("variant", tr.VARIANTS)
@pytest.mark.parametrize("mode", ["binary", "continuous"])
class TestUnreadNetworks:
    """A network that no kept term reads is not trained at all."""

    def test_step_gives_unread_parameters_zero_gradient(self, mode, variant):
        cfg = reads_config(mode, variant)
        ds = tr.resolve_data(cfg, 11)[0]
        model = init_model(tr._arch_for(cfg, ds.covariates().shape[1]), 3)
        tape = ad.Tape()
        bd, _ = tr._batch_breakdown(cfg, model, ds.covariates(), ds.t, ds.y, tape)
        _, grads = tape.gradients(bd.node)
        read = R.read_params(grads, mode, variant)
        assert list(grads) == list(model.params)
        # the L2 penalty included: an unread weight matrix gets no decay either
        assert all(not np.any(g) for k, g in grads.items() if k not in read)
        assert all(np.any(g) for k, g in read.items() if k.endswith(".W"))
        assert (len(read) == len(grads)) == (variant == "Total")

    def test_training_keeps_unread_parameters_and_reads_as_recorded(self, mode, variant):
        cfg = reads_config(mode, variant)
        train_ds, val_ds, _ = tr.resolve_data(cfg, 11)
        model, history = tr.train(cfg, train_ds, val_ds)
        initial = init_model(model.config, rng.mix_key(cfg.seed, "init"))
        read = R.read_params(model.params, mode, variant)
        assert history.selected_epoch == 2
        assert all(np.array_equal(v, initial.params[k])
                   for k, v in model.params.items() if k not in read)
        digest = hashlib.sha256()
        for name, value in read.items():
            digest.update(name.encode() + value.tobytes())
        assert digest.hexdigest() == READ_PARAMS_SHA256[mode, variant]


class TestResolveData:
    def test_synthetic_independent_triple(self):
        cfg = tiny_config()
        a, b, c = tr.resolve_data(cfg, 5)
        assert a.n == b.n == c.n == 300
        assert not np.array_equal(a.x, b.x)

    def test_twins_reference(self):
        cfg = tiny_config(dataset=TWINS_REF)
        a, b, c = tr.resolve_data(cfg, 5)
        assert a.mode == "binary" and a.n > b.n > c.n

    def test_twins_split_shares(self):
        # the fixture keeps 210 rows after its filters
        cfg = tiny_config(dataset=TWINS_REF)
        a, b, c = tr.resolve_data(cfg, 5)
        assert (a.n, b.n, c.n) == (132, 57, 21)

    def test_dir_reference(self, tmp_path):
        ds = dg.gen_binary(dg.SyntheticSpec(n=100, seed=3))
        dg.write_dataset(ds, tmp_path)
        cfg = tiny_config(dataset={"kind": "dir", "path": str(tmp_path)})
        a, b, c = tr.resolve_data(cfg, 5)
        assert (a.n, b.n, c.n) == (63, 27, 10)
        assert not np.array_equal(a.x, tr.resolve_data(cfg, 6)[0].x)  # re-split per seed

    def test_dir_triple_reference(self, tmp_path):
        written = [dg.gen_binary(dg.SyntheticSpec(n=n, seed=n)) for n in (60, 50, 40)]
        for name, ds in zip(dg.SPLITS, written):
            dg.write_dataset(ds, tmp_path / name)
        cfg = tiny_config(dataset={"kind": "dir", "path": str(tmp_path)})
        for seed in (5, 6):  # used as it is, whatever the seed
            triple = tr.resolve_data(cfg, seed)
            assert [ds.n for ds in triple] == [60, 50, 40]
            assert all(np.array_equal(got.x, ds.x) and np.array_equal(got.y, ds.y)
                       for got, ds in zip(triple, written))

    def test_mode_mismatch(self, tmp_path):
        # every set of a triple must have the config's mode
        for name, n in zip(dg.SPLITS, (60, 50, 40)):
            ds = (dg.gen_continuous(dg.DemandSpec(n=n)) if name == "test"
                  else dg.gen_binary(dg.SyntheticSpec(n=n)))
            dg.write_dataset(ds, tmp_path / name)
        cfg = tiny_config(dataset={"kind": "dir", "path": str(tmp_path)})
        with pytest.raises(dg.SchemaError, match="dataset mode 'continuous' != config mode"):
            tr.resolve_data(cfg, 5)

    def test_unknown_kind(self):
        cfg = tiny_config(dataset={"kind": "mystery"})
        with pytest.raises(ValueError, match="mystery"):
            tr.resolve_data(cfg, 5)

    def test_fresh_draws_per_seed(self):
        cfg = tiny_config()
        a1 = tr.resolve_data(cfg, 5)[0]
        a2 = tr.resolve_data(cfg, 6)[0]
        assert not np.array_equal(a1.x, a2.x)


class TestReplicate:
    """Replications run through the CLI's one path, whatever --jobs is."""

    def test_single_replication_matches_direct_train(self):
        cfg = tiny_config(max_epochs=2, patience=2)
        [([row], _)] = cli._replicated([cfg], SimpleNamespace(reps=1, jobs=1), base_seed=99)
        assert "error" not in row
        seed0 = rng.mix_key_int(99, 0)
        assert row["seed"] == seed0
        direct_cfg = replace(cfg, seed=seed0)
        triple = tr.resolve_data(direct_cfg, seed0)
        direct_model, history = tr.train(direct_cfg, triple[0], triple[1])
        assert row["within"] == ev.eps_ate(direct_model, triple[0])
        assert row["out"] == ev.eps_ate(direct_model, triple[2])
        assert row["selected_epoch"] == history.selected_epoch

    def test_identical_train_test_equal_metrics(self, tmp_path):
        # a dir triple that holds one dataset three times scores the same in and out
        ds = dg.gen_binary(dg.SyntheticSpec(n=200, mz=2, mc=2, ma=1, mu=1, seed=9))
        for name in dg.SPLITS:
            dg.write_dataset(ds, tmp_path / name)
        cfg = tiny_config(max_epochs=2, patience=2,
                          dataset={"kind": "dir", "path": str(tmp_path)})
        row = cli._one_replication((cfg, 0, 5))
        assert row["within"] == pytest.approx(row["out"], abs=1e-12)
        assert row["selected_epoch"] >= 0

    def test_same_base_seed_identical_results(self):
        cfg, args = tiny_config(max_epochs=2, patience=2), SimpleNamespace(reps=2, jobs=1)
        [(a, _)] = cli._replicated([cfg], args, base_seed=7)
        [(b, _)] = cli._replicated([cfg], args, base_seed=7)
        assert [r["seed"] for r in a] == [rng.mix_key_int(7, i) for i in range(2)]
        assert a == b

    @pytest.mark.parametrize("case", ["missing_dir", "dir_mode_mismatch"])
    def test_failures_collected(self, tmp_path, case):
        # errors that depend on the data are rows; a malformed reference exits 2
        if case == "missing_dir":
            dataset, error = {"kind": "dir", "path": str(tmp_path / "absent")}, "absent"
        else:
            dg.write_dataset(dg.gen_continuous(dg.DemandSpec(n=60)), tmp_path / "demand")
            dataset = {"kind": "dir", "path": str(tmp_path / "demand")}
            error = "dataset mode 'continuous' != config mode 'binary'"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cli.config_json(tiny_config(dataset=dataset))))
        out = tmp_path / "rep"
        # none of them scored, so the command fails after writing the rows
        assert cli.main(["replicate", "--config", str(config), "--out", str(out),
                         "--reps", "3", "--seed", "1"]) == 4
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == 3
        assert all(error in r["error"] for r in rows)

    def test_invalid_count(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cli.config_json(tiny_config())))
        assert cli.main(["replicate", "--config", str(config), "--out", str(tmp_path / "r"),
                         "--reps", "0"]) == 2
