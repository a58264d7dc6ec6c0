import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import reference_ops as R
from sd2 import datagen as dg
from sd2 import rng


def syn(n=2000, seed=0, **kw):
    return dg.gen_binary(dg.SyntheticSpec(n=n, seed=seed, **kw))


def latent(seed, tag, n, dim):
    """The latent a generator draws under the key ``latent/<tag>``."""
    return rng.normal_matrix(rng.mix_key(seed, "latent/" + tag), n, dim)


class TestGenBinary:
    def test_shapes_for_standard_setting(self):
        ds = syn(n=500)
        assert ds.x.shape == (500, 10)
        assert ds.v.shape == (500, 0)
        assert ds.roles == ["z"] * 4 + ["c"] * 4 + ["a"] * 2
        assert ds.has_ground_truth

    def test_observed_instruments(self):
        ds = dg.gen_binary(dg.SyntheticSpec(mv=2, n=100, seed=1))
        assert ds.v.shape == (100, 2)
        assert ds.covariates().shape == (100, 12)
        assert ds.input_roles() == ds.roles + ["z", "z"]

    def test_deterministic(self):
        a, b = syn(seed=5), syn(seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = syn(seed=6)
        assert not np.array_equal(a.t, c.t)

    def test_binary_values(self):
        ds = syn()
        assert set(np.unique(ds.t)) <= {0.0, 1.0}
        assert set(np.unique(ds.y)) <= {0.0, 1.0}
        assert np.all((ds.p1 >= 0) & (ds.p1 <= 1))

    def test_treatment_rate_near_half(self):
        # symmetric zero-mean index; 3 s.e. at n=20000 is ~0.011
        ds = syn(n=20000, seed=3)
        assert abs(ds.t.mean() - 0.5) < 0.011

    def test_stored_probabilities_match_latents(self):
        ds = syn(n=300, seed=9)
        lat = {tag: latent(9, tag, 300, dim) for tag, dim in (("c", 4), ("a", 2), ("u", 2))}
        den = 2 + 4 + 2
        quad = (lat["a"] ** 2).sum(1) + (lat["c"] ** 2).sum(1) + (lat["u"] ** 2).sum(1)
        lin = lat["a"].sum(1) + lat["c"].sum(1) + lat["u"].sum(1)
        # bitwise against the boolean-mask logistic; ulp-close to the naive form
        for got, index in ((ds.p1, quad / den), (ds.p0, lin / den)):
            want = np.empty(300)
            R.masked_sigmoid_into(index, want)
            assert np.array_equal(got, want)
        naive = lambda v: 1 / (1 + np.exp(-v))
        assert np.allclose(ds.p0, naive(lin / den), rtol=1e-15, atol=0)

    def test_hidden_latents_not_in_x(self):
        ds = syn(n=50, seed=2)
        assert ds.x.shape[1] == 10  # u never appears
        assert np.array_equal(ds.x[:, :4], latent(2, "z", 50, 4))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            dg.SyntheticSpec(mz=0, mc=0, ma=0)


class TestTrueAte:
    def test_null_effect(self):
        ds = syn(n=20, seed=1)
        ds.p1 = ds.p0.copy()
        assert dg.true_ate(ds) == 0.0

    def test_two_unit_arithmetic(self):
        ds = syn(n=2, seed=1)
        ds.p1 = np.array([0.8, 0.6])
        ds.p0 = np.array([0.5, 0.5])
        assert dg.true_ate(ds) == pytest.approx(0.2)

    def test_missing_ground_truth(self):
        ds = syn(n=10, seed=1)
        ds.p1 = None
        with pytest.raises(ValueError):
            dg.true_ate(ds)


class TestGenContinuous:
    def test_response_at_25(self):
        assert dg.demand_response(np.array(25.0)) == pytest.approx(3.0)

    def test_beta_zero_surface_ignores_confounders(self):
        ds = dg.gen_continuous(dg.DemandSpec(beta=0.0, n=50, seed=4))
        s = ds.surface(24.0)
        expected = dg.demand_response(np.array(24.0)) * (1 + 0.5 * ds.surface_a) - 48.0
        assert np.allclose(s, expected)

    def test_deterministic(self):
        a = dg.gen_continuous(dg.DemandSpec(n=100, seed=7))
        b = dg.gen_continuous(dg.DemandSpec(n=100, seed=7))
        assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)

    def test_surface_matches_structure(self):
        spec = dg.DemandSpec(alpha=0.0, beta=1.0, n=400, seed=11)
        ds = dg.gen_continuous(spec)
        lat = {tag: latent(11, tag, 400, 2) for tag in ("c", "a")}
        tv = 26.5
        expected = (dg.demand_response(np.array(tv)) * (1 + 0.5 * lat["a"].sum(1))
                    - 2 * tv + spec.beta * lat["c"].sum(1))
        assert np.allclose(ds.surface(tv), expected)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            dg.DemandSpec(alpha=-1.0)


class TestSplit:
    def test_documented_sizes(self):
        ds = syn(n=1000, seed=1)
        tr, va, te = dg.split(ds, seed=5)
        assert (tr.n, va.n, te.n) == (630, 270, 100)

    def test_partition(self):
        ds = syn(n=257, seed=1)
        tr, va, te = dg.split(ds, seed=5)
        rows = np.vstack([tr.x, va.x, te.x])
        assert rows.shape[0] == 257
        # all original rows appear exactly once
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.x))

    def test_same_seed_identical(self):
        ds = syn(n=100, seed=1)
        a = dg.split(ds, seed=7)
        b = dg.split(ds, seed=7)
        assert np.array_equal(a[0].x, b[0].x)

    def test_shares_never_exceed_the_rows(self):
        # the rounded train and val shares leave the test set 0 rows or more,
        # and from 7 rows on every share at least one
        train, val, _ = dg.SPLIT_RATIOS
        assert all(round(train * n) + round(val * n) <= n for n in range(1, 100_001))
        assert [n for n in range(1, 100_001)
                if min(round(train * n), round(val * n),
                       n - round(train * n) - round(val * n)) == 0] == [1, 2, 3, 4, 6]

    @pytest.mark.parametrize("n, empty", [(1, "val and test shares"), (2, "test share"),
                                          (3, "test share"), (4, "test share"),
                                          (6, "test share")])
    def test_empty_share_raises(self, n, empty):
        with pytest.raises(dg.SchemaError, match=f"{n} rows leaves the {empty} of the split"):
            dg.split(syn(n=n, seed=1), seed=1)

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_smallest_splits(self, n):
        assert min(ds.n for ds in dg.split(syn(n=n, seed=1), seed=1)) >= 1

    def test_independent_triple(self):
        spec = dg.SyntheticSpec(n=200, seed=3)
        tr, va, te = dg.independent_triple(spec)
        assert tr.n == va.n == te.n == 200
        assert not np.array_equal(tr.x, va.x)


class TestRoundTrip:
    def test_binary_exact(self, tmp_path):
        ds = syn(n=60, seed=13)
        dg.write_dataset(ds, tmp_path)
        back = dg.read_dataset(tmp_path)
        assert back.mode == "binary"
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.t, ds.t)
        assert np.array_equal(back.p1, ds.p1)
        assert back.roles == ds.roles

    def test_continuous_exact(self, tmp_path):
        ds = dg.gen_continuous(dg.DemandSpec(n=40, seed=13))
        dg.write_dataset(ds, tmp_path)
        back = dg.read_dataset(tmp_path)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.surface_a, ds.surface_a)
        assert back.beta == ds.beta
        assert np.allclose(back.surface(25.5), ds.surface(25.5))

    @pytest.mark.parametrize("ds", [
        dg.gen_binary(dg.SyntheticSpec(mv=2, n=40, seed=13)),
        dg.gen_continuous(dg.DemandSpec(n=40, seed=13)),
        dg.twins_transform(dg.fixture_spec(mv=2, seed=13)),
    ], ids=["synthetic_mv2", "demand", "twins"])
    def test_write_read_write_byte_identical(self, tmp_path, ds):
        first = dg.write_dataset(ds, tmp_path / "first")
        second = dg.write_dataset(dg.read_dataset(first), tmp_path / "second")
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        assert "truth.csv" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_missing_truth_loads_without_ground_truth(self, tmp_path):
        ds = syn(n=20, seed=1)
        dg.write_dataset(ds, tmp_path)
        (tmp_path / "truth.csv").unlink()
        back = dg.read_dataset(tmp_path)
        assert not back.has_ground_truth

    def test_header_mismatch_names_column(self, tmp_path):
        ds = syn(n=20, seed=1)
        dg.write_dataset(ds, tmp_path)
        truth = (tmp_path / "truth.csv").read_text().replace("p1", "prob1")
        (tmp_path / "truth.csv").write_text(truth)
        with pytest.raises(dg.SchemaError, match="truth.csv"):
            dg.read_dataset(tmp_path)

    def test_missing_data_csv(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dg.read_dataset(tmp_path)

    def test_truncated_truth_rejected(self, tmp_path):
        dg.write_dataset(syn(n=50, seed=1), tmp_path)
        lines = (tmp_path / "truth.csv").read_text().splitlines(keepends=True)
        (tmp_path / "truth.csv").write_text("".join(lines[:20]))
        with pytest.raises(dg.SchemaError, match="truth.csv: p1 has 19 rows, t has 50"):
            dg.read_dataset(tmp_path)

    @pytest.mark.parametrize("keep", [0, 20, 49])
    def test_rows_cut_at_a_line_boundary_rejected(self, tmp_path, keep):
        # data.csv and truth.csv cut alike agree with each other, not with spec.json
        dg.write_dataset(syn(n=50, seed=1), tmp_path)
        for name in ("data.csv", "truth.csv"):
            lines = (tmp_path / name).read_text().splitlines(keepends=True)
            (tmp_path / name).write_text("".join(lines[:keep + 1]))
        message = "a header and no rows" if keep == 0 else \
            f"data.csv: {keep} rows, but spec.json records n 50"
        with pytest.raises(dg.SchemaError, match=message):
            dg.read_dataset(tmp_path)

    def test_rows_added_rejected(self, tmp_path):
        dg.write_dataset(syn(n=50, seed=1), tmp_path)
        for name in ("data.csv", "truth.csv"):
            lines = (tmp_path / name).read_text().splitlines(keepends=True)
            (tmp_path / name).write_text("".join(lines + lines[1:3]))
        with pytest.raises(dg.SchemaError, match="data.csv: 52 rows, but spec.json records n 50"):
            dg.read_dataset(tmp_path)

    def test_spec_without_n_reads_any_rows(self, tmp_path):
        # a twins dataset's spec records no n
        ds = dg.twins_transform(dg.fixture_spec())
        dg.write_dataset(ds.subset(np.arange(30)), tmp_path)
        assert dg.read_dataset(tmp_path).n == 30

    def test_row_with_extra_cells_rejected(self, tmp_path):
        dg.write_dataset(syn(n=50, seed=1), tmp_path)
        lines = (tmp_path / "data.csv").read_text().splitlines(keepends=True)
        lines[7] = lines[7].rstrip("\r\n") + ",1.0,2.0\r\n"
        (tmp_path / "data.csv").write_text("".join(lines))
        with pytest.raises(dg.SchemaError, match="data.csv: line 8 has 14 cells"):
            dg.read_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["data.csv", "roles.csv", "truth.csv", "spec.json"])
    @pytest.mark.parametrize("content", [
        b"x0,t,y\n\xff\xfe,0.0,1.0\n",                 # not UTF-8
        b"x0,t,y\n" + b"1" * 200_000 + b",0.0,1.0\n",    # a cell over csv's field limit
    ], ids=["not_utf8", "huge_cell"])
    def test_unreadable_file_names_it(self, tmp_path, name, content):
        dg.write_dataset(syn(n=5, seed=1), tmp_path)
        (tmp_path / name).write_bytes(content)
        with pytest.raises(dg.SchemaError, match=name):
            dg.read_dataset(tmp_path)

    @pytest.mark.parametrize("header, column", [
        ("x0,x1,v0,v5,foo,t,y", "'v5'"),             # instruments skip v1..v4
        ("x0,x1,foo,t,y", "'foo'"),                  # a column of no role
        ("x0,x1,t,y,foo", "'foo'"),                  # a column after y
        ("x1,x0,t,y", "'x1'"),                       # covariates out of order
        ("x0,x2,t,y", "'x2'"),                       # covariates skip x1
        ("x0,x1,y,t", "'y'"),                        # outcome before treatment
        ("x0,x1,x1,t,y", "'x1' appears more than once"),
    ])
    def test_header_read_in_full(self, tmp_path, header, column):
        dg.write_dataset(syn(n=5, seed=1), tmp_path)
        cells = header.count(",") + 1
        rows = ",".join(["0.5"] * cells) + "\n"
        (tmp_path / "data.csv").write_text(header + "\n" + rows * 5)
        (tmp_path / "truth.csv").unlink()
        with pytest.raises(dg.SchemaError, match=f"data.csv.*column {column}"):
            dg.read_dataset(tmp_path)


class TestContentsChecked:
    """GeneratedDataset checks its contents on construction, from a generator,
    a file or a library caller alike, and names the field."""

    # case -> (mode, changed fields, field at fault, message)
    FAULTS = {
        "unknown_mode": ("binary", {"mode": "ordinal"}, "mode",
                         "mode must be one of binary, continuous, got 'ordinal'"),
        "short_y": ("binary", {"y": np.zeros(9)}, "y", "y has 9 rows, t has 10"),
        "long_p0": ("binary", {"p0": np.zeros(11)}, "p0", "p0 has 11 rows, t has 10"),
        "short_surface": ("continuous", {"surface_c": np.zeros(3)}, "surface_c",
                          "surface_c has 3 rows"),
        "nan_x": ("binary", {"x": np.where(np.eye(10, 10, 3) == 1, np.nan, 0.0)}, "x",
                  "x must be finite, got nan at row index 0"),
        "inf_y": ("binary", {"y": np.r_[np.zeros(6), np.inf, np.zeros(3)]}, "y",
                  "y must be finite, got inf at row index 6"),
        "inf_t": ("continuous", {"t": np.r_[np.zeros(2), -np.inf, np.zeros(7)]}, "t",
                  "t must be finite"),
        "nan_p1": ("binary", {"p1": np.full(10, np.nan)}, "p1", "p1 must be finite"),
        "no_covariates": ("binary", {"x": np.zeros((10, 0)), "roles": []}, "x",
                          "a dataset needs at least one covariate column"),
        "roles_short": ("binary", {"roles": ["z"] * 9}, "roles", "9 roles for 10 x columns"),
        "role_u": ("binary", {"roles": ["z"] * 9 + ["u"]}, "roles",
                   "roles must be one of z, c, a, got 'u'"),
        "t_two": ("binary", {"t": np.r_[np.zeros(5), 2.0, np.zeros(4)]}, "t",
                  "binary t must be 0 or 1, got 2.0 at row index 5"),
        "beta_none": ("continuous", {"beta": None}, "beta", "beta must be a finite number"),
        "beta_string": ("continuous", {"beta": "1.0"}, "beta", "got '1.0'"),
        "beta_bool": ("continuous", {"beta": True}, "beta", "got True"),
        "beta_nan": ("continuous", {"beta": float("nan")}, "beta", "got nan"),
    }

    @pytest.mark.parametrize("case", FAULTS)
    def test_invalid_contents_name_the_field(self, case):
        mode, change, field, message = self.FAULTS[case]
        ds = syn(n=10, seed=1) if mode == "binary" else dg.gen_continuous(
            dg.DemandSpec(mz=4, mc=4, ma=2, n=10, seed=1))
        with pytest.raises(dg.SchemaError, match=message) as info:
            replace(ds, **change)
        assert info.value.field == field
        assert isinstance(info.value, ValueError)

    def test_beta_only_needed_with_the_surface(self):
        ds = dg.gen_continuous(dg.DemandSpec(n=10, seed=1))
        assert replace(ds, surface_a=None, surface_c=None, beta=None).beta is None


class TestSpecFromRef:
    @pytest.mark.parametrize("ds", [
        syn(n=30, seed=2),
        dg.gen_continuous(dg.DemandSpec(n=30, seed=2)),
        dg.twins_transform(dg.fixture_spec(seed=2)),
    ], ids=["synthetic_binary", "demand", "twins"])
    def test_spec_record_round_trips_through_json(self, ds):
        spec = dg.spec_from_ref(json.loads(json.dumps(ds.spec)))
        assert dg.generate(spec).spec == ds.spec

    @pytest.mark.parametrize("ref, field", [
        ({"kind": "mystery"}, "mystery"),
        ({"kind": "demand", "zz": 1}, "zz"),
        ({"kind": "synthetic_binary", "mz": -1}, "mz must be at least 0, got -1"),
        ({"kind": "twins", "csv_path": "t.csv"}, "m_columns"),
        # the twins columns and weight cap are constants (TWINS_*)
        ({"kind": "twins", "csv_path": "t.csv", "m_columns": ["m"], "hide_count": 0,
          "max_weight": 2500.0}, "max_weight"),
        (None, "dataset reference"),
    ])
    def test_bad_reference_names_field(self, ref, field):
        with pytest.raises(dg.SchemaError, match=field):
            dg.spec_from_ref(ref)


class TestTwins:
    def test_fixture_exists_and_loads(self):
        assert dg.fixture_path().exists()
        ds = dg.twins_transform(dg.fixture_spec())
        assert ds.mode == "binary"
        assert ds.has_ground_truth

    def test_shipped_fixture_is_what_write_twins_fixture_writes(self, tmp_path):
        # scripts/make_twins_fixture.py writes the shipped file with this call
        written = dg.write_twins_fixture(tmp_path / "twins_fixture.csv")
        assert written.read_bytes() == dg.fixture_path().read_bytes()

    def test_hidden_columns_removed(self):
        spec = dg.fixture_spec()
        ds = dg.twins_transform(spec)
        n_features = len(dg.FIXTURE_FEATURES)
        assert ds.x.shape[1] == n_features - spec.hide_count
        assert len(ds.spec["hidden_columns"]) == spec.hide_count
        assert not set(ds.spec["hidden_columns"]) & set(ds.spec["x_columns"])

    def test_filters_applied(self):
        ds = dg.twins_transform(dg.fixture_spec())
        raw = dg._read_csv_columns(dg.fixture_path())
        n_raw = len(raw["mort_0"])
        assert ds.n < n_raw  # overweight and opposite-sex rows dropped

    def test_potential_outcomes_are_cotwin_outcomes(self):
        ds = dg.twins_transform(dg.fixture_spec())
        assert set(np.unique(ds.p1)) <= {0.0, 1.0}
        observed = np.where(ds.t == 1, ds.p1, ds.p0)
        assert np.array_equal(observed, ds.y)

    def test_equal_outcomes_contribute_zero(self):
        ds = dg.twins_transform(dg.fixture_spec())
        same = ds.p1 == ds.p0
        contrib = (ds.p1 - ds.p0)[same]
        assert np.all(contrib == 0)

    def test_deterministic_policy(self):
        a = dg.twins_transform(dg.fixture_spec(seed=5))
        b = dg.twins_transform(dg.fixture_spec(seed=5))
        assert np.array_equal(a.t, b.t)
        c = dg.twins_transform(dg.fixture_spec(seed=6))
        assert not np.array_equal(a.t, c.t)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "twins.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "b"])
            w.writerow([1.0, 2.0])
        with pytest.raises(dg.SchemaError, match="missing"):
            dg.twins_transform(dg.fixture_spec(csv_path=str(path)))

    def test_non_finite_cell_named_even_in_a_hidden_column(self, tmp_path):
        # a NaN in a hidden M column would make every standardized policy index NaN
        hidden = dg.twins_transform(dg.fixture_spec()).spec["hidden_columns"][0]
        lines = dg.fixture_path().read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[dg.FIXTURE_FEATURES.index(hidden)] = "nan"
        lines[5] = ",".join(cells)
        path = tmp_path / "twins.csv"
        path.write_text("".join(lines))
        with pytest.raises(dg.SchemaError, match=f"twins.csv: column '{hidden}' is not finite "
                                                 "at line 6"):
            dg.twins_transform(dg.fixture_spec(csv_path=str(path)))

    @pytest.mark.parametrize("column", [*dg.TWINS_OUTCOME_COLUMNS, *dg.TWINS_WEIGHT_COLUMNS,
                                        *dg.TWINS_SEX_COLUMNS])
    def test_m_columns_name_no_twins_column(self, column):
        # birth weight decides which twin is p1 and sex filters the pairs, so
        # neither may drive the policy or be a covariate
        with pytest.raises(ValueError, match=f"m_columns names '{column}', a "):
            dg.fixture_spec(m_columns=("gestat", column), hide_count=1)

    def test_hide_count_validation(self):
        with pytest.raises(ValueError, match="hide_count"):
            dg.fixture_spec(hide_count=len(dg.FIXTURE_M_COLUMNS))

    def test_split_ratio_sizes(self):
        ds = dg.twins_transform(dg.fixture_spec())
        tr, va, te = dg.split(ds, seed=1)
        assert tr.n == round(0.63 * ds.n)
        assert tr.n + va.n + te.n == ds.n
