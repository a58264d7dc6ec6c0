"""Benchmark construction with ground truth.

Three generators: a binary synthetic design (treatment from a sigmoid over
instrument/confounder sums, outcome from quadratic-vs-linear response
surfaces), a demand-style continuous design with a known counterfactual
surface, and a transform that turns a twin-records CSV into a confounded
observational study with both potential outcomes observed.

All randomness flows through the counter-based streams in `rng`, so a dataset
is a pure function of its spec.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import rng


class SchemaError(ValueError):
    """A dataset file or spec violates its schema; message names the field."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Binary design, named mv-mz-mc-ma-mu."""
    mv: int = 0
    mz: int = 4
    mc: int = 4
    ma: int = 2
    mu: int = 2
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if min(self.mv, self.mz, self.mc, self.ma, self.mu) < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.mz + self.mc + self.ma < 1:
            raise ValueError("mz + mc + ma must be at least 1")
        if self.ma + self.mc + self.mu < 1:
            raise ValueError("ma + mc + mu must be at least 1 (outcome scaling)")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def name(self) -> str:
        return f"{self.mv}-{self.mz}-{self.mc}-{self.ma}-{self.mu}"


@dataclass(frozen=True)
class DemandSpec:
    """Continuous design; alpha scales instrument strength, beta confounding."""
    alpha: float = 0.0
    beta: float = 1.0
    mz: int = 2
    mc: int = 2
    ma: int = 2
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if min(self.mz, self.mc, self.ma) < 0 or self.n < 1:
            raise ValueError("invalid dimensions")


# both twins' birth weights (grams) and one-year mortality; pairs where either
# twin weighs TWINS_MAX_WEIGHT or more are dropped, and so are opposite-sex
# pairs when the CSV has the sex columns
TWINS_WEIGHT_COLUMNS = ("dbirwt_0", "dbirwt_1")
TWINS_OUTCOME_COLUMNS = ("mort_0", "mort_1")
TWINS_SEX_COLUMNS = ("sex_0", "sex_1")
TWINS_MAX_WEIGHT = 2000.0


@dataclass(frozen=True)
class TwinsSpec:
    """Transform of a twin-records CSV into a confounded benchmark.

    The columns in `m_columns` drive the simulated treatment policy;
    `hide_count` of them are removed from the observed covariates to act as
    unobserved confounders.  The other columns it reads are the TWINS_* ones.
    """
    csv_path: str
    m_columns: tuple[str, ...]
    hide_count: int = 4
    mv: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.hide_count >= len(self.m_columns):
            raise ValueError("hide_count must be smaller than the number of M columns")


@dataclass
class GeneratedDataset:
    """Observed data plus whatever ground truth the generator can provide."""
    mode: str                       # binary | continuous
    x: np.ndarray                   # (n, k) observed covariates
    v: np.ndarray                   # (n, mv) designated instruments
    t: np.ndarray                   # (n,)
    y: np.ndarray                   # (n,)
    roles: list[str]                # z/c/a per x column
    p1: np.ndarray | None = None    # binary: outcome prob (or co-twin outcome) under t=1
    p0: np.ndarray | None = None
    surface_a: np.ndarray | None = None   # continuous: per-row sum of adjustment latents
    surface_c: np.ndarray | None = None   # continuous: per-row sum of confounder latents
    beta: float | None = None
    latents: dict[str, np.ndarray] | None = field(default=None, repr=False)
    spec: dict | None = None

    def __post_init__(self):
        n = len(self.t)
        if self.x.shape[0] != n or self.v.shape[0] != n or len(self.y) != n:
            raise ValueError("inconsistent row counts")
        if len(self.roles) != self.x.shape[1]:
            raise ValueError("role labels must cover every x column")
        if any(r not in ("z", "c", "a") for r in self.roles):
            raise ValueError("roles must be z, c, or a")

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def has_ground_truth(self) -> bool:
        if self.mode == "binary":
            return self.p1 is not None and self.p0 is not None
        return self.surface_a is not None and self.surface_c is not None

    def covariates(self) -> np.ndarray:
        """Model input: observed covariates with designated instruments appended."""
        return np.concatenate([self.x, self.v], axis=1) if self.v.shape[1] else self.x

    def input_roles(self) -> list[str]:
        """Roles aligned with covariates(); designated instruments count as z."""
        return self.roles + ["z"] * self.v.shape[1]

    def surface(self, t_value) -> np.ndarray:
        """Continuous counterfactual surface E[y | do(t), x] per row."""
        if self.mode != "continuous" or not self.has_ground_truth:
            raise ValueError("no counterfactual surface available")
        tv = np.asarray(t_value, dtype=np.float64)
        return (demand_response(tv) * (1.0 + 0.5 * self.surface_a)
                - 2.0 * tv + self.beta * self.surface_c)

    def subset(self, idx: np.ndarray) -> "GeneratedDataset":
        pick = lambda a: None if a is None else a[idx]
        return GeneratedDataset(
            mode=self.mode, x=self.x[idx], v=self.v[idx], t=self.t[idx],
            y=self.y[idx], roles=list(self.roles),
            p1=pick(self.p1), p0=pick(self.p0),
            surface_a=pick(self.surface_a), surface_c=pick(self.surface_c),
            beta=self.beta, latents=None, spec=self.spec)


def gen_binary(spec: SyntheticSpec) -> GeneratedDataset:
    """Binary benchmark: T ~ Bern(sigmoid(sums of Z, C, V, U)); outcome
    probability sigmoid of the scaled quadratic (treated) or linear (control)
    response over A, C, U."""
    n = spec.n
    lat = {}
    for tag, dim in (("z", spec.mz), ("c", spec.mc), ("a", spec.ma),
                     ("v", spec.mv), ("u", spec.mu)):
        lat[tag] = rng.normal_matrix(rng.mix_key(spec.seed, "latent/" + tag), n, dim)
    index_t = lat["z"].sum(1) + lat["c"].sum(1) + lat["v"].sum(1) + lat["u"].sum(1)
    t = rng.bernoulli(rng.mix_key(spec.seed, "draw/t"), _sigmoid(index_t))
    den = spec.ma + spec.mc + spec.mu
    quad = (lat["a"] ** 2).sum(1) + (lat["c"] ** 2).sum(1) + (lat["u"] ** 2).sum(1)
    lin = lat["a"].sum(1) + lat["c"].sum(1) + lat["u"].sum(1)
    p1 = _sigmoid(quad / den)
    p0 = _sigmoid(lin / den)
    y = rng.bernoulli(rng.mix_key(spec.seed, "draw/y"), np.where(t == 1, p1, p0))
    x = np.concatenate([lat["z"], lat["c"], lat["a"]], axis=1)
    roles = ["z"] * spec.mz + ["c"] * spec.mc + ["a"] * spec.ma
    return GeneratedDataset(mode="binary", x=x, v=lat["v"], t=t, y=y, roles=roles,
                            p1=p1, p0=p0, latents=lat,
                            spec={"kind": "synthetic_binary", **asdict(spec)})


def demand_response(t: np.ndarray) -> np.ndarray:
    """Nonlinear treatment-response curve of the continuous design."""
    s = np.asarray(t, dtype=np.float64) - 25.0
    return 2.0 * (s ** 4 / 6000.0 + np.exp(-(s ** 2) / 10.0) + np.asarray(t) / 10.0 - 2.0)


def gen_continuous(spec: DemandSpec) -> GeneratedDataset:
    """Demand-style continuous benchmark with stored counterfactual surface.

    t = 25 + (1+alpha) sum(z) + sum(c) + u + noise;
    y = response(t) (1 + 0.5 sum(a)) - 2t + beta sum(c) + 2u + noise.
    The structural constants are original to this artifact; alpha and beta
    keep their roles as instrument and confounder strength.
    """
    n = spec.n
    z = rng.normal_matrix(rng.mix_key(spec.seed, "latent/z"), n, spec.mz)
    c = rng.normal_matrix(rng.mix_key(spec.seed, "latent/c"), n, spec.mc)
    a = rng.normal_matrix(rng.mix_key(spec.seed, "latent/a"), n, spec.ma)
    u = rng.normals(rng.mix_key(spec.seed, "latent/u"), 0, n)
    eps_t = rng.normals(rng.mix_key(spec.seed, "noise/t"), 0, n)
    eps_y = rng.normals(rng.mix_key(spec.seed, "noise/y"), 0, n)
    sum_z, sum_c, sum_a = z.sum(1), c.sum(1), a.sum(1)
    t = 25.0 + (1.0 + spec.alpha) * sum_z + sum_c + u + eps_t
    y = (demand_response(t) * (1.0 + 0.5 * sum_a) - 2.0 * t
         + spec.beta * sum_c + 2.0 * u + eps_y)
    x = np.concatenate([z, c, a], axis=1)
    roles = ["z"] * spec.mz + ["c"] * spec.mc + ["a"] * spec.ma
    return GeneratedDataset(mode="continuous", x=x, v=np.zeros((n, 0)), t=t, y=y,
                            roles=roles, surface_a=sum_a, surface_c=sum_c,
                            beta=spec.beta,
                            latents={"z": z, "c": c, "a": a, "u": u},
                            spec={"kind": "demand", **asdict(spec)})


def true_ate(dataset: GeneratedDataset) -> float:
    """Ground-truth average treatment effect, mean(p1 - p0)."""
    if dataset.p1 is None or dataset.p0 is None:
        raise ValueError("dataset carries no ground-truth potential outcomes")
    return float(np.mean(dataset.p1 - dataset.p0))


def _read_csv_columns(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV") from None
        rows = list(reader)
    for line, r in enumerate(rows, start=2):
        if len(r) != len(header):
            raise SchemaError(f"{path}: line {line} has {len(r)} cells, "
                              f"the header has {len(header)}")
    repeated = [name for j, name in enumerate(header) if name in header[:j]]
    if repeated:
        raise SchemaError(f"{path}: column {repeated[0]!r} appears more than once")
    data = {}
    for j, name in enumerate(header):
        try:
            data[name] = np.array([float(r[j]) for r in rows])
        except ValueError as exc:
            raise SchemaError(f"{path}: column {name!r} is not numeric: {exc}") from exc
    return data


def twins_transform(spec: TwinsSpec) -> GeneratedDataset:
    """Assign a simulated treatment over the designated M columns (plus
    generated instruments), hide part of M as unobserved confounders, and
    keep both twins' outcomes as the two potential outcomes."""
    data = _read_csv_columns(spec.csv_path)
    for col in (*spec.m_columns, *TWINS_WEIGHT_COLUMNS, *TWINS_OUTCOME_COLUMNS):
        if col not in data:
            raise SchemaError(f"designated column {col!r} missing from {spec.csv_path}")
    w0, w1 = (data[c] for c in TWINS_WEIGHT_COLUMNS)
    keep = (w0 < TWINS_MAX_WEIGHT) & (w1 < TWINS_MAX_WEIGHT)
    if all(c in data for c in TWINS_SEX_COLUMNS):
        keep &= data[TWINS_SEX_COLUMNS[0]] == data[TWINS_SEX_COLUMNS[1]]
    data = {k: v[keep] for k, v in data.items()}
    n = int(keep.sum())
    if n == 0:
        raise SchemaError("no rows survive the filter criteria")

    w0, w1 = (data[c] for c in TWINS_WEIGHT_COLUMNS)
    m0, m1 = (data[c] for c in TWINS_OUTCOME_COLUMNS)
    heavier_is_1 = w1 >= w0
    p1 = np.where(heavier_is_1, m1, m0)   # outcome of the heavier twin
    p0 = np.where(heavier_is_1, m0, m1)   # outcome of the lighter twin

    special = {*TWINS_WEIGHT_COLUMNS, *TWINS_OUTCOME_COLUMNS, *TWINS_SEX_COLUMNS}
    feature_cols = [c for c in data if c not in special]
    rest_cols = [c for c in feature_cols if c not in spec.m_columns]

    # treatment policy: standardized M columns plus generated instruments
    m_mat = np.column_stack([data[c] for c in spec.m_columns])
    std = m_mat.std(axis=0)
    std[std == 0] = 1.0
    m_std = (m_mat - m_mat.mean(axis=0)) / std
    v = rng.normal_matrix(rng.mix_key(spec.seed, "twins/v"), n, spec.mv)
    index_t = m_std.sum(1) + v.sum(1)
    t = rng.bernoulli(rng.mix_key(spec.seed, "twins/t"), _sigmoid(index_t))
    y = np.where(t == 1, p1, p0)

    order = rng.permutation(rng.mix_key(spec.seed, "twins/hide"), len(spec.m_columns))
    hidden = {spec.m_columns[i] for i in order[:spec.hide_count]}
    visible_m = [c for c in spec.m_columns if c not in hidden]
    x_cols = visible_m + rest_cols
    x = np.column_stack([data[c] for c in x_cols]) if x_cols else np.zeros((n, 0))
    roles = ["c"] * len(visible_m) + ["a"] * len(rest_cols)
    spec_record = asdict(spec)
    spec_record.update({"kind": "twins", "hidden_columns": sorted(hidden),
                        "x_columns": x_cols})
    return GeneratedDataset(mode="binary", x=x, v=v, t=t, y=y, roles=roles,
                            p1=p1, p0=p0, spec=spec_record)


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Raise ValueError unless the (train, val, test) shares are positive and sum to 1."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split_ratios must be three positive numbers summing to 1, "
                         f"got {list(ratios)}")


def split(dataset: GeneratedDataset, ratios: tuple[float, float, float],
          seed: int) -> tuple[GeneratedDataset, GeneratedDataset, GeneratedDataset]:
    """Disjoint train/val/test partition with sizes rounded from ratios."""
    check_split_ratios(ratios)
    n = dataset.n
    n0 = int(round(ratios[0] * n))
    n1 = int(round(ratios[1] * n))
    if n0 + n1 > n:
        raise ValueError("ratios leave no test rows")
    perm = rng.permutation(rng.mix_key(seed, "split"), n)
    return (dataset.subset(perm[:n0]), dataset.subset(perm[n0:n0 + n1]),
            dataset.subset(perm[n0 + n1:]))


def independent_triple(spec: SyntheticSpec | DemandSpec
                       ) -> tuple[GeneratedDataset, ...]:
    """Three independent draws of size n (train, val, test) from one spec."""
    return tuple(generate(replace(spec, seed=rng.mix_key(spec.seed, "triple/" + tag)))
                 for tag in SPLITS)


DATASET_KINDS = {
    "synthetic_binary": (SyntheticSpec, gen_binary),
    "demand": (DemandSpec, gen_continuous),
    "twins": (TwinsSpec, twins_transform),
}
SPLITS = ("train", "val", "test")  # the sets of a triple, in order


def spec_from_ref(ref: dict | None) -> SyntheticSpec | DemandSpec | TwinsSpec:
    """A JSON dataset reference (`kind` plus spec fields) as a spec."""
    if not ref:
        raise SchemaError("config carries no dataset reference")
    kind = ref.get("kind")
    if kind not in DATASET_KINDS:
        raise SchemaError(f"unknown dataset kind {kind!r}")
    cls = DATASET_KINDS[kind][0]
    # twins_transform records hidden_columns and x_columns next to the spec;
    # they follow from the spec, so a record read back as a reference drops them
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in ref.items()
              if k not in ("kind", "hidden_columns", "x_columns")}
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"dataset {kind!r}: {exc}") from exc


def generate(spec: SyntheticSpec | DemandSpec | TwinsSpec) -> GeneratedDataset:
    """The dataset a spec describes, from its kind's generator."""
    return next(gen for cls, gen in DATASET_KINDS.values() if type(spec) is cls)(spec)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset(dataset: GeneratedDataset, out_dir: str | Path) -> Path:
    """Directory layout: data.csv, roles.csv, truth.csv (if ground truth),
    spec.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = dataset.x.shape[1]
    mv = dataset.v.shape[1]
    headers = [f"x{i}" for i in range(k)] + [f"v{i}" for i in range(mv)] + ["t", "y"]
    with open(out / "data.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(headers)
        for i in range(dataset.n):
            row = ([_fmt(v) for v in dataset.x[i]] + [_fmt(v) for v in dataset.v[i]]
                   + [_fmt(dataset.t[i]), _fmt(dataset.y[i])])
            w.writerow(row)
    with open(out / "roles.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["column", "role"])
        for i, role in enumerate(dataset.roles):
            w.writerow([f"x{i}", role])
    if dataset.has_ground_truth:
        with open(out / "truth.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            if dataset.mode == "binary":
                w.writerow(["p1", "p0"])
                for i in range(dataset.n):
                    w.writerow([_fmt(dataset.p1[i]), _fmt(dataset.p0[i])])
            else:
                w.writerow(["sum_a", "sum_c"])
                for i in range(dataset.n):
                    w.writerow([_fmt(dataset.surface_a[i]), _fmt(dataset.surface_c[i])])
    spec_record = dict(dataset.spec or {})
    spec_record["mode"] = dataset.mode
    if dataset.mode == "continuous":
        spec_record["beta"] = dataset.beta
    with open(out / "spec.json", "w") as fh:
        json.dump(spec_record, fh, indent=2, sort_keys=True)
    return out


def read_dataset(in_dir: str | Path) -> GeneratedDataset:
    src = Path(in_dir)
    if not (src / "data.csv").exists():
        raise FileNotFoundError(f"{src}/data.csv not found")
    data = _read_csv_columns(src / "data.csv")
    for col in ("t", "y"):
        if col not in data:
            raise SchemaError(f"data.csv missing column {col!r}")
    k, m = (sum(c.startswith(prefix) for c in data) for prefix in "xv")
    x_cols, v_cols = [f"x{i}" for i in range(k)], [f"v{i}" for i in range(m)]
    for got, want in zip_longest(data, [*x_cols, *v_cols, "t", "y"]):
        if got != want:
            raise SchemaError(f"data.csv column {got!r} is out of place: the header must be "
                              "x0, x1, .. then v0, v1, .. then t, y")
    n = len(data["t"])
    x = np.column_stack([data[c] for c in x_cols]) if x_cols else np.zeros((n, 0))
    v = np.column_stack([data[c] for c in v_cols]) if v_cols else np.zeros((n, 0))

    with open(src / "spec.json") as fh:
        spec_record = json.load(fh)
    mode = spec_record.get("mode")
    if mode not in ("binary", "continuous"):
        raise SchemaError("spec.json missing or invalid field 'mode'")

    roles_path = src / "roles.csv"
    if not roles_path.exists():
        raise SchemaError("roles.csv not found")
    roles_map = {}
    with open(roles_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["column", "role"]:
            raise SchemaError(f"roles.csv has unexpected header {header}")
        for col, role in reader:
            roles_map[col] = role
    try:
        roles = [roles_map[c] for c in x_cols]
    except KeyError as exc:
        raise SchemaError(f"roles.csv missing column {exc.args[0]!r}") from None

    p1 = p0 = surface_a = surface_c = None
    truth_path = src / "truth.csv"
    if truth_path.exists():
        truth = _read_csv_columns(truth_path)
        if mode == "binary":
            if set(truth) != {"p1", "p0"}:
                raise SchemaError(f"truth.csv columns {sorted(truth)} != ['p0', 'p1']")
            p1, p0 = truth["p1"], truth["p0"]
        else:
            if set(truth) != {"sum_a", "sum_c"}:
                raise SchemaError(f"truth.csv columns {sorted(truth)} != ['sum_a', 'sum_c']")
            surface_a, surface_c = truth["sum_a"], truth["sum_c"]
        truth_rows = len(next(iter(truth.values())))
        if truth_rows != n:
            raise SchemaError(f"{truth_path}: {truth_rows} rows, data.csv has {n}")
    return GeneratedDataset(mode=mode, x=x, v=v, t=data["t"], y=data["y"],
                            roles=roles, p1=p1, p0=p0,
                            surface_a=surface_a, surface_c=surface_c,
                            beta=spec_record.get("beta"), spec=spec_record)


def read_data_dir(path: str | Path) -> tuple[GeneratedDataset, ...]:
    """A data directory holds one dataset, or a train/ val/ test/ triple."""
    if Path(path, "train").is_dir():
        return tuple(read_dataset(Path(path, name)) for name in SPLITS)
    return (read_dataset(path),)


FIXTURE_FEATURES = ["gestat", "dmage", "dmeduc", "mpcb", "cigar", "drink",
                    "wtgain", "nprevist", "anemia", "cardiac", "lung",
                    "diabetes", "herpes", "hydra", "incervix", "pre4000"]
FIXTURE_M_COLUMNS = tuple(FIXTURE_FEATURES[:10])


def write_twins_fixture(path: str | Path, n: int = 220, seed: int = 2024) -> Path:
    """Synthetic twin-records CSV shaped like the real export: per-twin
    weights and one-year mortality flags plus shared pregnancy features."""
    feats = rng.normal_matrix(rng.mix_key(seed, "fx/features"), n, len(FIXTURE_FEATURES))
    # discretize the flag-like columns
    for j in range(8, len(FIXTURE_FEATURES)):
        feats[:, j] = (feats[:, j] > 1.0).astype(float)
    base = 1200.0 + 300.0 * feats[:, 0] + 50.0 * feats[:, 1]
    gap = 80.0 * np.abs(rng.normals(rng.mix_key(seed, "fx/gap"), 0, n)) + 20.0
    w0 = base - gap / 2 + 40.0 * rng.normals(rng.mix_key(seed, "fx/w0"), 0, n)
    w1 = base + gap / 2 + 40.0 * rng.normals(rng.mix_key(seed, "fx/w1"), 0, n)
    risk = _sigmoid(-2.0 - (base - 1200.0) / 250.0 + 0.8 * feats[:, 2])
    m0 = rng.bernoulli(rng.mix_key(seed, "fx/m0"), np.clip(risk * 1.3, 0, 1))
    m1 = rng.bernoulli(rng.mix_key(seed, "fx/m1"), risk)
    sex = rng.bernoulli(rng.mix_key(seed, "fx/sex"), np.full(n, 0.5))
    flip = rng.bernoulli(rng.mix_key(seed, "fx/flip"), np.full(n, 0.05))
    sex1 = np.where(flip == 1, 1 - sex, sex)   # a few opposite-sex rows to filter
    heavy = rng.bernoulli(rng.mix_key(seed, "fx/heavy"), np.full(n, 0.04))
    w1 = np.where(heavy == 1, w1 + 900.0, w1)  # a few >= 2kg rows to filter
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*FIXTURE_FEATURES, *TWINS_SEX_COLUMNS, *TWINS_WEIGHT_COLUMNS,
                    *TWINS_OUTCOME_COLUMNS])
        for i in range(n):
            w.writerow([_fmt(v) for v in feats[i]]
                       + [_fmt(sex[i]), _fmt(sex1[i]), _fmt(w0[i]), _fmt(w1[i]),
                          _fmt(m0[i]), _fmt(m1[i])])
    return path


def fixture_path() -> Path:
    """Shipped synthetic twin-records fixture."""
    return Path(__file__).parent / "data" / "twins_fixture.csv"


def fixture_spec(**overrides) -> TwinsSpec:
    """TwinsSpec wired to the shipped fixture's column names."""
    kw = dict(csv_path=str(fixture_path()), m_columns=FIXTURE_M_COLUMNS,
              hide_count=4, mv=0, seed=0)
    kw.update(overrides)
    return TwinsSpec(**kw)
