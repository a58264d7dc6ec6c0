import numpy as np
import pytest

from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2 import rng
from sd2.model import ArchConfig, init_model, predict_outcome


def small_model(seed=3, **kw):
    base = dict(input_dim=10, rep_dim=4, enc_hidden=8, head_hidden=4)
    base.update(kw)
    return init_model(ArchConfig(**base), seed)


@pytest.fixture(scope="module")
def binary_ds():
    return dg.gen_binary(dg.SyntheticSpec(n=400, seed=21))


class TestEpsAte:
    def test_perfect_predictions_give_zero(self, binary_ds):
        model = small_model()
        ds = binary_ds.subset(np.arange(200))
        x = ds.covariates()
        ds.p1 = predict_outcome(model, x, 1.0)
        ds.p0 = predict_outcome(model, x, 0.0)
        assert ev.eps_ate(model, ds) == pytest.approx(0.0, abs=1e-15)

    def test_constant_offset(self, binary_ds):
        model = small_model()
        ds = binary_ds.subset(np.arange(200))
        x = ds.covariates()
        ds.p1 = predict_outcome(model, x, 1.0) + 0.05
        ds.p0 = predict_outcome(model, x, 0.0)
        assert ev.eps_ate(model, ds) == pytest.approx(0.05)

    def test_zero_effect_model_scores_true_ate(self, binary_ds):
        model = small_model()
        model.params["head_y.l0.W"][0, :] = 0.0  # the treatment input's weights
        assert ev.eps_ate(model, binary_ds) == pytest.approx(
            abs(dg.true_ate(binary_ds)), abs=1e-12)

    def test_row_permutation_invariant(self, binary_ds):
        model = small_model()
        perm = rng.permutation(5, binary_ds.n)
        assert ev.eps_ate(model, binary_ds) == pytest.approx(
            ev.eps_ate(model, binary_ds.subset(perm)), abs=1e-12)

    def test_requires_ground_truth(self, binary_ds):
        ds = binary_ds.subset(np.arange(10))
        ds.p1 = None
        with pytest.raises(ValueError):
            ev.eps_ate(small_model(), ds)

    def test_requires_binary_mode(self, binary_ds):
        model = small_model(mode="continuous")
        with pytest.raises(ValueError):
            ev.eps_ate(model, binary_ds)


@pytest.fixture(scope="module")
def continuous_ds():
    return dg.gen_continuous(dg.DemandSpec(n=300, seed=8))


class TestCounterfactualMse:
    def test_matching_surface_gives_zero(self, continuous_ds, monkeypatch):
        model = small_model(mode="continuous")
        monkeypatch.setattr(ev, "predict_outcome",
                            lambda m, x, tv: continuous_ds.surface(tv))
        assert ev.counterfactual_mse(model, continuous_ds) == pytest.approx(0.0)

    def test_constant_offset_squares(self, continuous_ds, monkeypatch):
        model = small_model(mode="continuous")
        monkeypatch.setattr(ev, "predict_outcome",
                            lambda m, x, tv: continuous_ds.surface(tv) + 2.0)
        assert ev.counterfactual_mse(model, continuous_ds) == pytest.approx(4.0)

    def test_single_point_grid(self, continuous_ds):
        model = small_model(mode="continuous", input_dim=6)
        got = ev.counterfactual_mse(model, continuous_ds, t_grid=np.array([25.0]))
        pred = predict_outcome(model, continuous_ds.covariates(), 25.0)
        expected = np.mean((pred - continuous_ds.surface(25.0)) ** 2)
        assert got == pytest.approx(expected)

    def test_default_grid_covers_central_mass(self, continuous_ds):
        grid = ev.default_grid(continuous_ds.t)
        assert len(grid) == 10
        assert grid[0] >= continuous_ds.t.min()
        assert grid[-1] <= continuous_ds.t.max()

    def test_requires_surface(self, continuous_ds):
        ds = continuous_ds.subset(np.arange(10))
        ds.surface_a = None
        with pytest.raises(ValueError):
            ev.counterfactual_mse(small_model(mode="continuous", input_dim=6), ds)


class TestAttribution:
    def test_concentrated_weights(self):
        model = small_model()
        roles = ["z"] * 4 + ["c"] * 4 + ["a"] * 2
        for enc, factor in (("enc_z", "z"), ("enc_c", "c"), ("enc_a", "a")):
            w = np.zeros_like(model.params[f"{enc}.l0.W"])
            mask = np.asarray(roles) == factor
            w[mask] = 1.0
            model.params[f"{enc}.l0.W"] = w
        report = ev.attribution(model, roles)
        for factor in ("z", "c", "a"):
            assert report.other_mean[factor] == 0.0
            assert report.ratio(factor) == np.inf

    @pytest.mark.parametrize("dead", ["enc_z", "enc_c", "enc_a"])
    def test_dead_encoder_ratio_is_nan(self, dead):
        # an all-zero first layer reads no column: 0/0, not a perfect score
        model = small_model()
        roles = ["z"] * 4 + ["c"] * 4 + ["a"] * 2
        model.params[f"{dead}.l0.W"] = np.zeros_like(model.params[f"{dead}.l0.W"])
        report = ev.attribution(model, roles)
        factor = dead[-1]
        assert np.isnan(report.ratio(factor))
        assert all(np.isfinite(report.ratio(f)) for f in dg.ROLES if f != factor)
        assert np.isnan(report.min_ratio())
        assert np.isnan(next(r["ratio"] for r in report.rows() if r["factor"] == factor))

    def test_min_ratio(self):
        report = ev.AttributionReport({"z": 2.0, "c": 3.0, "a": 1.0},
                                      {"z": 1.0, "c": 0.0, "a": 4.0})
        assert [report.ratio(f) for f in dg.ROLES] == [2.0, np.inf, 0.25]
        assert report.min_ratio() == 0.25

    def test_uniform_weights_ratio_one(self):
        model = small_model()
        roles = ["z"] * 4 + ["c"] * 4 + ["a"] * 2
        for enc in ("enc_z", "enc_c", "enc_a"):
            model.params[f"{enc}.l0.W"] = np.ones_like(model.params[f"{enc}.l0.W"])
        report = ev.attribution(model, roles)
        assert all(report.ratio(f) == pytest.approx(1.0) for f in ("z", "c", "a"))

    def test_roles_validated(self):
        with pytest.raises(ValueError):
            ev.attribution(small_model(), ["z"] * 3)
        with pytest.raises(ValueError):
            ev.attribution(small_model(), ["z"] * 10)

    def test_rows_structure(self):
        roles = ["z"] * 4 + ["c"] * 4 + ["a"] * 2
        rows = ev.attribution(small_model(), roles).rows()
        assert [r["factor"] for r in rows] == ["z", "c", "a"]
        assert all(r["true_slice_mean"] >= 0 for r in rows)


class TestAggregate:
    def test_single_value(self):
        mean, std, text = ev.aggregate([0.25])
        assert (mean, std) == (0.25, 0.0)
        assert text == "0.250(0.000)"

    def test_two_values(self):
        mean, std, text = ev.aggregate([0.01, 0.03])
        assert mean == pytest.approx(0.02)
        assert std == pytest.approx(0.01)
        assert text == "0.020(0.010)"

    def test_table_formatting(self):
        _, _, text = ev.aggregate([0.0104 - 0.0081, 0.0104 + 0.0081])
        assert text == "0.010(0.008)"

    def test_two_pass_recomputation(self):
        values = list(rng.uniforms(3, 0, 50))
        mean, std, _ = ev.aggregate(values)
        m2 = sum(values) / len(values)
        s2 = np.sqrt(sum((v - m2) ** 2 for v in values) / len(values))
        assert abs(mean - m2) < 1e-12
        assert abs(std - s2) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.aggregate([])

