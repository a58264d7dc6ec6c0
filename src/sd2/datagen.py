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
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, asdict, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import rng
from .family import FAMILIES

ROLES = ("z", "c", "a")  # the covariate roles, each the target factor of an encoder


class SchemaError(ValueError):
    """The one exception for rejected input (a dataset file, spec, config, flag
    or checkpoint), exit 2 in the CLI; the message names the field, and `field`
    holds the name of the field at fault, if there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_one_of(name: str, value, names) -> None:
    """SchemaError naming ``name`` unless ``value`` is a string of ``names``
    (iterated, as a dict's keys): the one check, and wording, of a closed set."""
    if not (isinstance(value, str) and value in names):
        raise SchemaError(f"{name} must be one of {', '.join(names)}, got {value!r}", name)


def check_fields(obj, at_least: dict[str, int] | None = None, one_of: dict | None = None) -> None:
    """Raise SchemaError naming the first field of the dataclass ``obj`` whose
    value its declared type, bound or set does not allow, and the value: an
    ``int`` field holds an integer, a ``float`` field a finite nonnegative
    number, a ``str`` field a string and a ``tuple[str, ...]`` field a tuple
    of strings; a bool is neither an integer nor a number.  A field named in
    ``at_least`` is at least its bound, and one in ``one_of`` a name of its
    set (`check_one_of`), each item of a ``list[str]`` field.  Fields of other
    types are the caller's to check."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if one_of and f.name in one_of:
            for item in (value if f.type == "list[str]" else [value]):
                check_one_of(f.name, item, one_of[f.name])
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        # annotations are strings here (``from __future__ import annotations``)
        if f.type == "int" and not (number and isinstance(value, numbers.Integral)):
            kind = "an integer"
        # exact comparisons: NaN, inf and an integer too large for a float fail
        elif f.type == "float" and not (number and 0 <= value <= sys.float_info.max):
            kind = "a finite nonnegative number"
        elif f.type == "str" and not isinstance(value, str):
            kind = "a string"
        elif f.type == "tuple[str, ...]" and not (
                isinstance(value, tuple) and all(isinstance(v, str) for v in value)):
            kind = "a tuple of strings"
        elif at_least and f.name in at_least and value < at_least[f.name]:
            kind = f"at least {at_least[f.name]}"
        else:
            continue
        raise SchemaError(f"{f.name} must be {kind}, got {value!r}", f.name)


def _check_fits_memory(n: int, columns: int, culprit: str) -> None:
    """SchemaError naming ``culprit``, the spec field and value that set n or
    the column count, when n rows of float64 columns overflow memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n * columns * 8 > have:
        raise SchemaError(f"{culprit} is too large: {n} rows of {columns} float64 columns "
                          f"need more than the {have} bytes of memory this machine has")


@dataclass(frozen=True)
class SyntheticSpec:
    """Binary design; each dimension is at least 0, n at least 1
    (`check_fields`), and its n rows of data and ground truth fit in memory."""
    mv: int = 0
    mz: int = 4
    mc: int = 4
    ma: int = 2
    mu: int = 2
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"mv": 0, "mz": 0, "mc": 0, "ma": 0, "mu": 0, "n": 1})
        if self.mz + self.mc + self.ma < 1:
            raise ValueError("mz + mc + ma must be at least 1")
        if self.ma + self.mc + self.mu < 1:
            raise ValueError("ma + mc + mu must be at least 1 (outcome scaling)")
        _check_fits_memory(self.n, self.mz + self.mc + self.ma + self.mv + 4, f"n = {self.n}")


@dataclass(frozen=True)
class DemandSpec:
    """Continuous design; alpha scales instrument strength, beta confounding.
    Both are finite nonnegative numbers, each dimension is at least 0, n at
    least 1 (`check_fields`), and its n rows of data and truth fit in memory."""
    alpha: float = 0.0
    beta: float = 1.0
    mz: int = 2
    mc: int = 2
    ma: int = 2
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"mz": 0, "mc": 0, "ma": 0, "n": 1})
        if self.mz + self.mc + self.ma < 1:
            raise ValueError("mz + mc + ma must be at least 1")
        _check_fits_memory(self.n, self.mz + self.mc + self.ma + 4, f"n = {self.n}")


# both twins' birth weights (grams) and one-year mortality; pairs where either
# twin weighs TWINS_MAX_WEIGHT or more are dropped, and so are opposite-sex
# pairs when the CSV has the sex columns
TWINS_WEIGHT_COLUMNS = ("dbirwt_0", "dbirwt_1")
TWINS_OUTCOME_COLUMNS = ("mort_0", "mort_1")
TWINS_SEX_COLUMNS = ("sex_0", "sex_1")
TWINS_MAX_WEIGHT = 2000.0
# the columns the transform reads for a purpose of their own, which no M
# column may name, and why
_TWINS_RESERVED = {
    **dict.fromkeys(TWINS_OUTCOME_COLUMNS, "a potential outcome"),
    **dict.fromkeys(TWINS_WEIGHT_COLUMNS, "a birth weight, which decides which twin is p1"),
    **dict.fromkeys(TWINS_SEX_COLUMNS, "a sex column, which filters the pairs")}


@dataclass(frozen=True)
class TwinsSpec:
    """Transform of a twin-records CSV into a confounded benchmark.

    The columns in `m_columns` drive the simulated treatment policy;
    `hide_count` of them are removed from the observed covariates to act as
    unobserved confounders.  The other columns it reads are the TWINS_* ones.
    An M column is named once and is none of the TWINS_* columns: not a
    potential outcome, a birth weight or a sex column; `hide_count` and `mv`
    are at least 0 (`check_fields`).
    """
    csv_path: str
    m_columns: tuple[str, ...]
    hide_count: int = 4
    mv: int = 0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"hide_count": 0, "mv": 0})
        for j, col in enumerate(self.m_columns):
            if col in _TWINS_RESERVED:
                raise ValueError(f"m_columns names {col!r}, {_TWINS_RESERVED[col]}")
            if col in self.m_columns[:j]:
                raise ValueError(f"m_columns names {col!r} more than once")
        if self.hide_count >= len(self.m_columns):
            raise ValueError("hide_count must be smaller than the number of M columns")


@dataclass(frozen=True)
class DirSpec:
    """The `dir` dataset kind: a dataset directory or a train/ val/ test/ triple,
    read (`read_data_dir`), not generated; `path` is a string (`check_fields`)."""
    path: str

    def __post_init__(self):
        check_fields(self)


@dataclass
class GeneratedDataset:
    """Observed data plus whatever ground truth the generator can provide."""
    mode: str                       # a key of family.FAMILIES
    x: np.ndarray                   # (n, k) observed covariates
    v: np.ndarray                   # (n, mv) designated instruments
    t: np.ndarray                   # (n,)
    y: np.ndarray                   # (n,)
    roles: list[str]                # one of ROLES per x column
    p1: np.ndarray | None = None    # binary: outcome prob (or co-twin outcome) under t=1
    p0: np.ndarray | None = None
    surface_a: np.ndarray | None = None   # continuous: per-row sum of adjustment latents
    surface_c: np.ndarray | None = None   # continuous: per-row sum of confounder latents
    beta: float | None = None
    spec: dict | None = None

    def __post_init__(self):
        """The one check of a dataset's contents; SchemaError names the field."""
        check_fields(self, one_of={"mode": FAMILIES, "roles": ROLES})
        n = len(self.t)
        for name in ("x", "v", "t", "y", *TRUTH_COLUMNS[self.mode].values()):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) != n:
                raise SchemaError(f"{name} has {len(values)} rows, t has {n}", name)
            bad = ~np.isfinite(values)
            if bad.any():
                raise SchemaError(f"{name} must be finite, got {values[bad][0]} "
                                  f"at row index {np.argwhere(bad)[0][0]}", name)
        if self.x.shape[1] + self.v.shape[1] < 1:
            raise SchemaError("a dataset needs at least one covariate column (x or v)", "x")
        if len(self.roles) != self.x.shape[1]:
            raise SchemaError(f"{len(self.roles)} roles for {self.x.shape[1]} x columns", "roles")
        for name in ("t", "y") if self.mode == "binary" else ():
            values = getattr(self, name)
            not_binary = (values != 0) & (values != 1)
            if not_binary.any():
                raise SchemaError(f"binary {name} must be 0 or 1, got {values[not_binary][0]} "
                                  f"at row index {np.argmax(not_binary)}", name)
        if self.mode == "continuous" and self.has_ground_truth and not (
                isinstance(self.beta, (int, float)) and not isinstance(self.beta, bool)
                and np.isfinite(self.beta)):
            raise SchemaError(f"beta must be a finite number when the counterfactual "
                              f"surface is present, got {self.beta!r}", "beta")

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def has_ground_truth(self) -> bool:
        return all(getattr(self, name) is not None for name in TRUTH_COLUMNS[self.mode].values())

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
        return replace(self, x=self.x[idx], v=self.v[idx], t=self.t[idx], y=self.y[idx],
                       roles=list(self.roles), p1=pick(self.p1), p0=pick(self.p0),
                       surface_a=pick(self.surface_a), surface_c=pick(self.surface_c))


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
    t = rng.bernoulli(rng.mix_key(spec.seed, "draw/t"), ad.sigmoid_into(index_t, np.empty(n)))
    den = spec.ma + spec.mc + spec.mu
    quad = (lat["a"] ** 2).sum(1) + (lat["c"] ** 2).sum(1) + (lat["u"] ** 2).sum(1)
    lin = lat["a"].sum(1) + lat["c"].sum(1) + lat["u"].sum(1)
    p1 = ad.sigmoid_into(quad / den, np.empty(n))
    p0 = ad.sigmoid_into(lin / den, np.empty(n))
    y = rng.bernoulli(rng.mix_key(spec.seed, "draw/y"), np.where(t == 1, p1, p0))
    x = np.concatenate([lat["z"], lat["c"], lat["a"]], axis=1)
    roles = ["z"] * spec.mz + ["c"] * spec.mc + ["a"] * spec.ma
    return GeneratedDataset(mode="binary", x=x, v=lat["v"], t=t, y=y, roles=roles,
                            p1=p1, p0=p0, spec={"kind": "synthetic_binary", **asdict(spec)})


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        t = 25.0 + (1.0 + spec.alpha) * sum_z + sum_c + u + eps_t
        y = (demand_response(t) * (1.0 + 0.5 * sum_a) - 2.0 * t
             + spec.beta * sum_c + 2.0 * u + eps_y)
        if not np.isfinite(y).all():  # beta scales the confounding, alpha the rest
            cause = "alpha" if np.isfinite(spec.beta * sum_c).all() else "beta"
            raise SchemaError(f"{cause} = {getattr(spec, cause)!r} is too large: the outcome "
                              "y overflows")
    x = np.concatenate([z, c, a], axis=1)
    roles = ["z"] * spec.mz + ["c"] * spec.mc + ["a"] * spec.ma
    return GeneratedDataset(mode="continuous", x=x, v=np.zeros((n, 0)), t=t, y=y,
                            roles=roles, surface_a=sum_a, surface_c=sum_c,
                            beta=spec.beta, spec={"kind": "demand", **asdict(spec)})


def true_ate(dataset: GeneratedDataset) -> float:
    """Ground-truth average treatment effect, mean(p1 - p0)."""
    if dataset.p1 is None or dataset.p0 is None:
        raise ValueError("dataset carries no ground-truth potential outcomes")
    return float(np.mean(dataset.p1 - dataset.p0))


def read_csv(path: str | Path) -> dict[str, list[str]]:
    """A CSV file's cells by column, read in full; SchemaError names the file if
    it is empty, a row's cell count is not the header's or a column repeats."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not a CSV text file: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: empty CSV")
    header, body = rows[0], rows[1:]
    for line, r in enumerate(body, start=2):
        if len(r) != len(header):
            raise SchemaError(f"{path}: line {line} has {len(r)} cells, "
                              f"the header has {len(header)}")
    repeated = [name for j, name in enumerate(header) if name in header[:j]]
    if repeated:
        raise SchemaError(f"{path}: column {repeated[0]!r} appears more than once")
    return {name: [r[j] for r in body] for j, name in enumerate(header)}


def _read_csv_columns(path: str | Path) -> dict[str, np.ndarray]:
    data = {}
    for name, cells in read_csv(path).items():
        try:
            data[name] = np.array([float(c) for c in cells])
        except ValueError as exc:
            raise SchemaError(f"{path}: column {name!r} is not numeric: {exc}") from exc
        if not np.isfinite(data[name]).all():
            raise SchemaError(f"{path}: column {name!r} is not finite at line "
                              f"{np.argmin(np.isfinite(data[name])) + 2}")
    return data


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """A header and rows of cells as CSV; a float is written as its repr,
    None as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return Path(path)


def read_json_object(path: str | Path) -> dict:
    """A JSON file whose top level is an object; SchemaError names the file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: the top level must be a JSON object, got {type(raw).__name__}")
    return raw


def read_record(cls, raw, where: str, given: dict | None = None):
    """The dataclass ``cls`` from the JSON object ``raw`` and the fields the
    caller sets itself (``given``): the one reader of config sections, dataset
    references and a checkpoint's config.  SchemaError, prefixed ``where``,
    names a key that is no field or one of ``given``, a missing field without
    a default, or what `check_fields` (unprefixed for a ``given`` field) or
    ``__post_init__`` rejects.  A JSON list becomes a tuple only for a
    ``tuple[str, ...]`` field."""
    given = given or {}
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(raw).__name__}")
    declared = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in declared:
            raise SchemaError(f"{where}: unknown field {key!r}")
        if key in given:
            raise SchemaError(f"{where}: {key} is set elsewhere, so it may not be set here")
    for name, f in declared.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if required and name not in raw and name not in given:
            raise SchemaError(f"{where}: missing field {name!r}")
    values = {k: tuple(v) if declared[k].type == "tuple[str, ...]" and isinstance(v, list) else v
              for k, v in raw.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        if getattr(exc, "field", None) in given:
            raise
        raise SchemaError(f"{where}: {exc}") from exc


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
    _check_fits_memory(n, spec.mv, f"mv = {spec.mv}")  # before v is drawn

    w0, w1 = (data[c] for c in TWINS_WEIGHT_COLUMNS)
    m0, m1 = (data[c] for c in TWINS_OUTCOME_COLUMNS)
    heavier_is_1 = w1 >= w0
    p1 = np.where(heavier_is_1, m1, m0)   # outcome of the heavier twin
    p0 = np.where(heavier_is_1, m0, m1)   # outcome of the lighter twin

    feature_cols = [c for c in data if c not in _TWINS_RESERVED]
    rest_cols = [c for c in feature_cols if c not in spec.m_columns]

    # treatment policy: standardized M columns plus generated instruments
    m_mat = np.column_stack([data[c] for c in spec.m_columns])
    std = m_mat.std(axis=0)
    std[std == 0] = 1.0
    m_std = (m_mat - m_mat.mean(axis=0)) / std
    v = rng.normal_matrix(rng.mix_key(spec.seed, "twins/v"), n, spec.mv)
    index_t = m_std.sum(1) + v.sum(1)
    t = rng.bernoulli(rng.mix_key(spec.seed, "twins/t"), ad.sigmoid_into(index_t, np.empty(n)))
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


def split(dataset: GeneratedDataset,
          seed: int) -> tuple[GeneratedDataset, GeneratedDataset, GeneratedDataset]:
    """Disjoint train/val/test partition: the train and val sizes are rounded
    from `SPLIT_RATIOS`, and test takes the rest.  A dataset too small to
    give every set a row (1, 2, 3, 4 or 6 rows) raises SchemaError naming
    the empty sets."""
    n = dataset.n
    n0 = int(round(SPLIT_RATIOS[0] * n))
    n1 = int(round(SPLIT_RATIOS[1] * n))
    empty = [name for name, size in zip(SPLITS, (n0, n1, n - n0 - n1)) if size == 0]
    if empty:
        raise SchemaError(f"a dataset of {n} rows leaves the {' and '.join(empty)} "
                          f"share{'s' * (len(empty) > 1)} of the split empty "
                          f"({n0}/{n1}/{n - n0 - n1} rows)")
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
    "dir": (DirSpec, None),  # read by `read_data_dir`, not generated
}
SPLITS = ("train", "val", "test")  # the sets of a triple, in order
# the (train, val, test) shares `split` gives one dataset, as in CFR-style benchmarks
SPLIT_RATIOS = (0.63, 0.27, 0.10)


def spec_from_ref(ref: dict | None) -> SyntheticSpec | DemandSpec | TwinsSpec | DirSpec:
    """A JSON dataset reference (`kind` plus its spec's fields) as its kind's spec."""
    if not ref:
        raise SchemaError("no dataset reference: a spec, or a config's 'dataset', "
                          "needs a 'kind'")
    kind = ref.get("kind")
    check_one_of("kind", kind, DATASET_KINDS)
    # twins_transform records hidden_columns and x_columns next to the spec;
    # they follow from the spec, so a twins record read back as a reference drops them
    recorded = ("kind", "hidden_columns", "x_columns") if kind == "twins" else ("kind",)
    record = {k: v for k, v in ref.items() if k not in recorded}
    return read_record(DATASET_KINDS[kind][0], record, f"dataset {kind!r}")


def generate(spec: SyntheticSpec | DemandSpec | TwinsSpec) -> GeneratedDataset:
    """The dataset a generated kind's spec describes, from its kind's generator."""
    return next(gen for cls, gen in DATASET_KINDS.values() if type(spec) is cls)(spec)


def _float_rows(*columns: np.ndarray) -> list[list[float]]:
    """Columns side by side as rows of floats, which csv writes as their repr."""
    return np.column_stack(columns).astype(np.float64, copy=False).tolist()


# truth.csv's columns per mode, and the GeneratedDataset field each holds
TRUTH_COLUMNS = {"binary": {"p1": "p1", "p0": "p0"},
                 "continuous": {"sum_a": "surface_a", "sum_c": "surface_c"}}
# the dataset directory file that holds each GeneratedDataset field
FIELD_FILES = {"mode": "spec.json", "beta": "spec.json", "roles": "roles.csv",
               **dict.fromkeys(("x", "v", "t", "y"), "data.csv"),
               **dict.fromkeys(("p1", "p0", "surface_a", "surface_c"), "truth.csv")}


def write_dataset(dataset: GeneratedDataset, out_dir: str | Path) -> Path:
    """Directory layout: data.csv, roles.csv, truth.csv (if ground truth),
    spec.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x_cols = [f"x{i}" for i in range(dataset.x.shape[1])]
    write_csv(out / "data.csv", [*x_cols, *(f"v{i}" for i in range(dataset.v.shape[1])), "t", "y"],
              _float_rows(dataset.x, dataset.v, dataset.t, dataset.y))
    write_csv(out / "roles.csv", ["column", "role"], zip(x_cols, dataset.roles))
    if dataset.has_ground_truth:
        columns = TRUTH_COLUMNS[dataset.mode]
        write_csv(out / "truth.csv", list(columns),
                  _float_rows(*(getattr(dataset, name) for name in columns.values())))
    spec_record = {**(dataset.spec or {}), "mode": dataset.mode}
    if dataset.mode == "continuous":
        spec_record["beta"] = dataset.beta
    with open(out / "spec.json", "w") as fh:
        json.dump(spec_record, fh, indent=2, sort_keys=True)
    return out


def read_dataset(in_dir: str | Path) -> GeneratedDataset:
    """The dataset a write_dataset directory holds, read and checked in full;
    SchemaError names the file and the field."""
    src = Path(in_dir)
    data = _read_csv_columns(src / "data.csv")
    k, m = (sum(c.startswith(prefix) for c in data) for prefix in "xv")
    x_cols, v_cols = [f"x{i}" for i in range(k)], [f"v{i}" for i in range(m)]
    for got, want in zip_longest(data, [*x_cols, *v_cols, "t", "y"]):
        if got != want:
            raise SchemaError(f"{src / 'data.csv'}: column {got!r} is out of place: the header "
                              "must be x0, x1, .. then v0, v1, .. then t, y")
    n = len(data["t"])
    if n == 0:
        raise SchemaError(f"{src / 'data.csv'}: a header and no rows")
    x = np.column_stack([data[c] for c in x_cols]) if x_cols else np.zeros((n, 0))
    v = np.column_stack([data[c] for c in v_cols]) if v_cols else np.zeros((n, 0))
    spec_record = read_json_object(src / "spec.json")
    if "n" in spec_record and spec_record["n"] != n:
        raise SchemaError(f"{src / 'data.csv'}: {n} rows, but spec.json records n "
                          f"{spec_record['n']!r}")

    roles_path = src / "roles.csv"
    roles = read_csv(roles_path)
    if list(roles) != ["column", "role"]:
        raise SchemaError(f"{roles_path}: header {list(roles)} is not ['column', 'role']")
    for line, (got, want) in enumerate(zip_longest(roles["column"], x_cols), start=2):
        if got != want:
            found = f"line {line} lists {got!r}" if got is not None else f"{want!r} is missing"
            raise SchemaError(f"{roles_path}: {found}; the rows must list the x columns of "
                              "data.csv, x0, x1, .., once each and in order")

    mode, truth = spec_record.get("mode"), {}
    truth_path = src / "truth.csv"
    try:
        check_one_of("mode", mode, FAMILIES)  # before it picks truth.csv's columns
        if truth_path.exists():
            columns = _read_csv_columns(truth_path)
            if set(columns) != set(TRUTH_COLUMNS[mode]):
                raise SchemaError(f"{truth_path}: columns {sorted(columns)} != "
                                  f"{sorted(TRUTH_COLUMNS[mode])}")
            truth = {name: columns[c] for c, name in TRUTH_COLUMNS[mode].items()}
        return GeneratedDataset(mode=mode, x=x, v=v, t=data["t"], y=data["y"],
                                roles=roles["role"], beta=spec_record.get("beta"),
                                spec=spec_record, **truth)
    except SchemaError as exc:
        if exc.field is None:  # a truth.csv fault names the file itself
            raise
        raise SchemaError(f"{src / FIELD_FILES[exc.field]}: {exc}", exc.field) from None


def read_data_dir(path: str | Path) -> dict[Path, GeneratedDataset]:
    """The datasets of a data directory, one or a train/ val/ test/ triple, by directory."""
    dirs = [Path(path, name) for name in SPLITS] if Path(path, "train").is_dir() else [Path(path)]
    return {d: read_dataset(d) for d in dirs}


FIXTURE_FEATURES = ["gestat", "dmage", "dmeduc", "mpcb", "cigar", "drink",
                    "wtgain", "nprevist", "anemia", "cardiac", "lung",
                    "diabetes", "herpes", "hydra", "incervix", "pre4000"]
FIXTURE_M_COLUMNS = tuple(FIXTURE_FEATURES[:10])
FIXTURE_ROWS = 220
FIXTURE_SEED = 2024


def write_twins_fixture(path: str | Path) -> Path:
    """Synthetic twin-records CSV shaped like the real export: per-twin
    weights and one-year mortality flags plus shared pregnancy features."""
    n, seed = FIXTURE_ROWS, FIXTURE_SEED
    feats = rng.normal_matrix(rng.mix_key(seed, "fx/features"), n, len(FIXTURE_FEATURES))
    # discretize the flag-like columns
    for j in range(8, len(FIXTURE_FEATURES)):
        feats[:, j] = (feats[:, j] > 1.0).astype(float)
    base = 1200.0 + 300.0 * feats[:, 0] + 50.0 * feats[:, 1]
    gap = 80.0 * np.abs(rng.normals(rng.mix_key(seed, "fx/gap"), 0, n)) + 20.0
    w0 = base - gap / 2 + 40.0 * rng.normals(rng.mix_key(seed, "fx/w0"), 0, n)
    w1 = base + gap / 2 + 40.0 * rng.normals(rng.mix_key(seed, "fx/w1"), 0, n)
    risk = ad.sigmoid_into(-2.0 - (base - 1200.0) / 250.0 + 0.8 * feats[:, 2], np.empty(n))
    m0 = rng.bernoulli(rng.mix_key(seed, "fx/m0"), np.clip(risk * 1.3, 0, 1))
    m1 = rng.bernoulli(rng.mix_key(seed, "fx/m1"), risk)
    sex = rng.bernoulli(rng.mix_key(seed, "fx/sex"), np.full(n, 0.5))
    flip = rng.bernoulli(rng.mix_key(seed, "fx/flip"), np.full(n, 0.05))
    sex1 = np.where(flip == 1, 1 - sex, sex)   # a few opposite-sex rows to filter
    heavy = rng.bernoulli(rng.mix_key(seed, "fx/heavy"), np.full(n, 0.04))
    w1 = np.where(heavy == 1, w1 + 900.0, w1)  # a few >= 2kg rows to filter
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return write_csv(path, [*FIXTURE_FEATURES, *TWINS_SEX_COLUMNS, *TWINS_WEIGHT_COLUMNS,
                            *TWINS_OUTCOME_COLUMNS],
                     _float_rows(feats, sex, sex1, w0, w1, m0, m1))


def fixture_path() -> Path:
    """Shipped synthetic twin-records fixture."""
    return Path(__file__).parent / "data" / "twins_fixture.csv"


def fixture_spec(**overrides) -> TwinsSpec:
    """TwinsSpec wired to the shipped fixture's column names."""
    kw = dict(csv_path=str(fixture_path()), m_columns=FIXTURE_M_COLUMNS,
              hide_count=4, mv=0, seed=0)
    kw.update(overrides)
    return TwinsSpec(**kw)
