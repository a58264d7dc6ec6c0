"""The disentangling network: three encoders over shared covariates, retain
networks joining pairs of representations, deep and shallow prediction heads.

One graph serves both treatment modes.  Every head parameterises the mode's
outcome family (``family.py``): a Bernoulli probability in binary mode, a
Gaussian mean and log std in continuous mode, where the treatment side also
has an adjustment head and a rebalance network feeding a second confounder
head.  The deep outcome head reads the factual treatment as one extra input
column; at prediction time the do-value is substituted into that column.
Every layer but a head's last is ELU (``HIDDEN_ACTIVATION``).
`predict_outcome` keeps retain_y's output for the last covariates it scored,
so a sweep over do-values on the same covariates, such as eps_ATE's do(1) and
do(0) or the 10-point grid of the counterfactual MSE, runs the encoders and
retain_y once and then only head_y's two layers per do-value.  The cache
costs n x (input_dim + enc_hidden) floats per model, 5.6 MB for a 10,000-row
demand split (6 covariates) at the README architecture.  It is not model
state: checkpoints, ``==`` and ``repr`` never see it.

A forward pass on a tape that does not record runs in row blocks of at most
``BLOCK_ROWS`` rows, each through the whole network, and the per-block
outputs are stitched back in row order.  A block's layer output (1,024 x 64
floats, 512 KB) stays in cache for the bias add and the activation's passes,
where a 10,000-row output (5 MB) would stream through memory on each of them.
A tail shorter than ``_MIN_BLOCK_ROWS`` joins the block before it: a one-row
product goes through the BLAS matrix-vector path, whose sums can differ in the
last bit, while blocks of two rows or more give the same bits as one product
over all rows.  Every operation is row-wise, so the values equal one pass over
all rows bit for bit (``tests/test_model.py`` checks this around the block
boundaries).  The validation pass keeps its 4,096-row loss chunks, because
the MMD, the KLs and the means are batch statistics; only the forward inside a
chunk is blocked.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import rng
from .family import FAMILIES, Family, Gaussian

CHECKPOINT_FORMAT = "sd2-checkpoint"
CHECKPOINT_VERSION = 1

HIDDEN_ACTIVATION = "elu"  # as in CFR/TARNet

BLOCK_ROWS = 1024
# a shorter tail joins the block before it: a one-row block takes another
# BLAS path (matrix-vector) whose sums differ in the last bit
_MIN_BLOCK_ROWS = 16


@dataclass(frozen=True)
class ArchConfig:
    input_dim: int
    rep_dim: int = 8
    enc_hidden: int = 64
    enc_layers: int = 2
    head_hidden: int = 32
    mode: str = "binary"

    def __post_init__(self):
        for field in ("input_dim", "rep_dim", "enc_hidden", "enc_layers", "head_hidden"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.mode not in ("binary", "continuous"):
            raise ValueError(f"mode must be binary or continuous, got {self.mode!r}")


class Representations(NamedTuple):
    """Instrument, confounder and adjustment representations: arrays from
    ``encode``, tape tensors inside ``HeadOutputs``."""
    r_z: np.ndarray
    r_c: np.ndarray
    r_a: np.ndarray


class HeadOutputs(NamedTuple):
    """The heads of one forward pass and the representations it read; a head
    or representation the pass did not build is None.

    Each head holds its family's parameters: a probability column or a
    Gaussian.  The adjustment and rebalanced-confounder treatment heads exist
    in continuous mode only.
    """
    q_t: ad.Tensor | Gaussian | None = None
    q_t_z: ad.Tensor | Gaussian | None = None
    q_t_c: ad.Tensor | Gaussian | None = None
    q_y: ad.Tensor | Gaussian | None = None
    q_y_a: ad.Tensor | Gaussian | None = None
    q_y_c: ad.Tensor | Gaussian | None = None
    q_t_a: Gaussian | None = None
    q_t_cr: Gaussian | None = None
    reps: Representations | None = None


# The networks each output of the forward reads.  A forward asked for some
# outputs runs only these networks; the training objective asks for the
# outputs its kept terms read (``losses.TERMS``), `encode` for the
# representations and `predict_outcome` for q_y.
READS = {
    "r_z": ("enc_z",), "r_c": ("enc_c",), "r_a": ("enc_a",),
    "q_t": ("enc_z", "enc_c", "retain_t", "head_t"),
    "q_t_z": ("enc_z", "head_t_z"),
    "q_t_c": ("enc_c", "head_t_c"),
    "q_t_a": ("enc_a", "head_t_a"),
    "q_t_cr": ("enc_c", "rebalance", "head_t_cr"),
    "q_y": ("enc_c", "enc_a", "retain_y", "head_y"),
    "q_y_a": ("enc_a", "head_y_a"),
    "q_y_c": ("enc_c", "head_y_c"),
}
CONTINUOUS_ONLY = ("q_t_a", "q_t_cr")


@functools.lru_cache(maxsize=64)  # every forward asks, for a handful of output tuples
def networks(outputs: tuple[str, ...]) -> tuple[str, ...]:
    """The networks the named outputs read, each once."""
    return tuple(dict.fromkeys(net for name in outputs for net in READS[name]))


def params_read_by(params: dict, outputs: tuple[str, ...]) -> dict:
    """The entries of ``params`` that belong to a network the outputs read,
    in their order."""
    read = set(networks(tuple(outputs)))
    return {name: value for name, value in params.items() if name.partition(".")[0] in read}


def _layer_specs(cfg: ArchConfig) -> list[tuple[str, int, int]]:
    """(name, fan_in, fan_out) for every dense layer, in declared order."""
    out_dim = FAMILIES[cfg.mode].out_dim
    specs = []
    for enc in ("enc_z", "enc_c", "enc_a"):
        dims = [cfg.input_dim] + [cfg.enc_hidden] * cfg.enc_layers + [cfg.rep_dim]
        for i in range(len(dims) - 1):
            specs.append((f"{enc}.l{i}", dims[i], dims[i + 1]))
    specs.append(("retain_t.l0", 2 * cfg.rep_dim, cfg.enc_hidden))
    specs.append(("retain_y.l0", 2 * cfg.rep_dim, cfg.enc_hidden))
    heads = [("head_t", cfg.enc_hidden), ("head_t_z", cfg.rep_dim), ("head_t_c", cfg.rep_dim)]
    if cfg.mode == "continuous":
        heads.append(("head_t_a", cfg.rep_dim))
        heads.append(("head_t_cr", cfg.rep_dim))
    heads += [("head_y", cfg.enc_hidden + 1),
              ("head_y_a", cfg.rep_dim), ("head_y_c", cfg.rep_dim)]
    for name, fan_in in heads:
        specs.append((f"{name}.l0", fan_in, cfg.head_hidden))
        specs.append((f"{name}.l1", cfg.head_hidden, out_dim))
    if cfg.mode == "continuous":
        specs.append(("rebalance.l0", cfg.rep_dim, cfg.head_hidden))
        specs.append(("rebalance.l1", cfg.head_hidden, cfg.rep_dim))
    return specs


class _OutcomeMemo(NamedTuple):
    """The retain_y output that `predict_outcome` computed, and copies of what
    it was computed from: the config, the covariates and every enc_c, enc_a
    and retain_y parameter."""
    config: ArchConfig
    key: list[np.ndarray]
    h_y: np.ndarray


@dataclass
class SD2Model:
    config: ArchConfig
    seed: int
    params: dict[str, np.ndarray]
    # never saved, compared or printed: a cache, not model state
    _outcome_memo: _OutcomeMemo | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def init_model(config: ArchConfig, seed: int) -> SD2Model:
    """Seeded init: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    params: dict[str, np.ndarray] = {}
    for name, fan_in, fan_out in _layer_specs(config):
        key = rng.mix_key(seed, "init/" + name)
        params[name + ".W"] = ad.glorot_init(key, fan_in, fan_out)
        params[name + ".b"] = np.zeros(fan_out)
    return SD2Model(config=config, seed=seed, params=params)


def bind(model: SD2Model, tape: ad.Tape,
         layers: tuple[str, ...] | None = None) -> dict[str, ad.Tensor]:
    """Register every parameter on a tape, in declared order; with ``layers``,
    only the parameters of those networks (``"enc_c"``, ``"head_y"``, ...)."""
    prefixes = None if layers is None else tuple(name + "." for name in layers)
    return {name: tape.parameter(value, name) for name, value in model.params.items()
            if prefixes is None or name.startswith(prefixes)}


def _mlp(p: dict[str, ad.Tensor], prefix: str, x: ad.Tensor, n_layers: int,
         out_activation: str = HIDDEN_ACTIVATION) -> ad.Tensor:
    for i in range(n_layers):
        act = out_activation if i == n_layers - 1 else HIDDEN_ACTIVATION
        x = ad.dense(x, p[f"{prefix}.l{i}.W"], p[f"{prefix}.l{i}.b"], act)
    return x


ENCODERS = networks(Representations._fields)


def _encode(cfg: ArchConfig, p: dict[str, ad.Tensor], x: ad.Tensor,
            reps=Representations._fields) -> Representations:
    """The representations named in ``reps``; the others are None."""
    return Representations(*(_mlp(p, READS[r][0], x, cfg.enc_layers + 1) if r in reps else None
                             for r in Representations._fields))


def _head(fam: Family, p, prefix: str, x: ad.Tensor):
    return fam.head(_mlp(p, prefix, x, 2, fam.activation))


def _retain(p, prefix: str, a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """A retain network over two representations side by side."""
    return ad.dense(ad.concat_cols([a, b]), p[f"{prefix}.l0.W"], p[f"{prefix}.l0.b"],
                    HIDDEN_ACTIVATION)


def _outcome_head(fam: Family, p, tape: ad.Tape, r_c: ad.Tensor, r_a: ad.Tensor,
                  t: np.ndarray):
    """retain_y over r_c and r_a, then the treatment column ``t`` (n x 1, a
    constant), then the deep outcome head."""
    h_y = _retain(p, "retain_y", r_c, r_a)
    return _head(fam, p, "head_y", ad.concat_cols([tape.constant(t), h_y]))


def _check_input(cfg: ArchConfig, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"input width {x.shape} does not match input_dim {cfg.input_dim}")
    return x


def _row_blocks(n: int) -> list[slice]:
    """Row slices starting at multiples of BLOCK_ROWS; a tail shorter than
    _MIN_BLOCK_ROWS rows is folded into the block before it."""
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if len(starts) > 1 and n - starts[-1] < _MIN_BLOCK_ROWS:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _stitch(parts: list):
    """One output from the outputs of consecutive row blocks: arrays and
    tensors are concatenated by rows, named tuples field by field."""
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, ad.Tensor):
        # every block's values were checked as they were made
        return ad.Tensor(first.tape, np.concatenate([p.value for p in parts]),
                         name=first.name, checked=True)
    return type(first)(*(_stitch(list(field)) for field in zip(*parts)))


def _blocked(tape: ad.Tape, run, *rows: np.ndarray):
    """``run(*rows)``; on a tape that does not record, run once per row block
    and stitched."""
    blocks = _row_blocks(len(rows[0]))
    if tape.record or len(blocks) == 1:
        return run(*rows)
    return _stitch([run(*(a[sl] for a in rows)) for sl in blocks])


def _forward(model: SD2Model, x: np.ndarray, t: np.ndarray, tape: ad.Tape | None,
             params: dict[str, ad.Tensor] | None, only) -> HeadOutputs:
    """The graph of both modes, on checked inputs; without a tape, a forward
    pass that records nothing."""
    if tape is None:
        tape = ad.Tape(record=False)
    p = params or bind(model, tape)
    return _blocked(tape, lambda xb, tb: _forward_rows(model.config, p, tape, xb, tb, only),
                    x, t)


def _forward_rows(cfg: ArchConfig, p: dict[str, ad.Tensor], tape: ad.Tape,
                  x: np.ndarray, t: np.ndarray, only=None) -> HeadOutputs:
    """Every output of the mode or, with ``only``, the outputs it names; only
    the networks those read run, always in the order below."""
    fam = FAMILIES[cfg.mode]
    read = networks(tuple(READS if only is None else only))
    reps = _encode(cfg, p, tape.constant(x),
                   [r for r in Representations._fields if READS[r][0] in read])
    r_z, r_c, r_a = reps
    build = {
        "q_t": lambda: _head(fam, p, "head_t", _retain(p, "retain_t", r_z, r_c)),
        "q_t_z": lambda: _head(fam, p, "head_t_z", r_z),
        "q_t_c": lambda: _head(fam, p, "head_t_c", r_c),
        "q_t_a": lambda: _head(fam, p, "head_t_a", r_a),
        "q_t_cr": lambda: _head(fam, p, "head_t_cr", _mlp(p, "rebalance", r_c, 2)),
        "q_y": lambda: _outcome_head(fam, p, tape, r_c, r_a, t.reshape(-1, 1)),
        "q_y_a": lambda: _head(fam, p, "head_y_a", r_a),
        "q_y_c": lambda: _head(fam, p, "head_y_c", r_c),
    }
    return HeadOutputs(reps=reps, **{
        name: make() for name, make in build.items()
        if (only is None or name in only)
        and (cfg.mode == "continuous" or name not in CONTINUOUS_ONLY)})


def forward_binary(model: SD2Model, x: np.ndarray, t: np.ndarray,
                   tape: ad.Tape | None = None,
                   params: dict[str, ad.Tensor] | None = None, only=None) -> HeadOutputs:
    """Forward pass of a binary-mode model; treatments must lie in {0, 1}.
    Without a tape it records nothing: only the values are computed.  With
    ``only``, just the named outputs (keys of ``READS``) are built."""
    if model.config.mode != "binary":
        raise ValueError("forward_binary requires a binary-mode model")
    x = _check_input(model.config, x)
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("binary mode requires treatments in {0, 1}")
    return _forward(model, x, t, tape, params, only)


def forward_continuous(model: SD2Model, x: np.ndarray, t: np.ndarray,
                       tape: ad.Tape | None = None,
                       params: dict[str, ad.Tensor] | None = None, only=None) -> HeadOutputs:
    """Forward pass of a continuous-mode model; without a tape it records
    nothing, and with ``only`` it builds just the named outputs."""
    if model.config.mode != "continuous":
        raise ValueError("forward_continuous requires a continuous-mode model")
    x = _check_input(model.config, x)
    return _forward(model, x, np.asarray(t, dtype=np.float64), tape, params, only)


def encode(model: SD2Model, x: np.ndarray) -> Representations:
    """Representations as plain arrays (convenience wrapper; builds no tape)."""
    x = _check_input(model.config, x)
    tape = ad.Tape(record=False)
    p = bind(model, tape, ENCODERS)

    def run(xb):
        return Representations(*(r.value for r in _encode(model.config, p, tape.constant(xb))))

    return _blocked(tape, run, x)


# what predict_outcome keeps: every network q_y reads but its head, run over
# the representations q_y reads
_MEMO_NETWORKS = tuple(net for net in READS["q_y"] if net != "head_y")
_MEMO_PREFIXES = tuple(net + "." for net in _MEMO_NETWORKS)
_OUTCOME_REPS = tuple(r for r in Representations._fields
                      if READS[r][0] in _MEMO_NETWORKS)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit patterns: -0.0 differs from 0.0.  (A memo key
    never holds a NaN: a NaN input or parameter raises before the memo is
    stored.)"""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def predict_outcome(model: SD2Model, x: np.ndarray, t_value: float) -> np.ndarray:
    """Potential-outcome estimate with the do-value substituted into the
    outcome head's treatment input; representations come from x only.

    Builds no tape and runs only the networks the outcome reads: the
    confounder and adjustment encoders, retain_y and head_y.  retain_y's
    output is kept on the model for the last covariates scored, with copies
    of the covariates and of every enc_c, enc_a and retain_y parameter:
    n x (input_dim + enc_hidden) floats, 5.6 MB for the 10,000 x 6 demand
    split.  A later call reuses it only when its checked covariates, those
    parameters and the config match the copies bit for bit; anything else,
    an in-place edit or an Adam step included, runs them again.  A sweep over
    do-values on the same covariates thus runs only head_y's two layers per
    do-value, each row block reading ``[do-value | retain_y output]`` as the
    same contiguous input the full forward builds, so every prediction equals
    a fresh model's bit for bit.  The cache is only read, never written, by a
    hit.  Nothing is kept from a call that raises.
    """
    cfg = model.config
    x = _check_input(cfg, x)
    if cfg.mode == "binary" and t_value not in (0.0, 1.0):
        raise ValueError("binary mode requires a do-value in {0, 1}")
    tape = ad.Tape(record=False)
    blocks = _row_blocks(len(x))
    key = [x] + [v for k, v in model.params.items() if k.startswith(_MEMO_PREFIXES)]
    memo = model._outcome_memo
    if (memo is None or memo.config != cfg or len(memo.key) != len(key)
            or not all(map(_same_bits, memo.key, key))):
        p = bind(model, tape, _MEMO_NETWORKS)
        h_y = np.empty((len(x), cfg.enc_hidden))
        for sl in blocks:
            reps = _encode(cfg, p, tape.constant(x[sl]), _OUTCOME_REPS)
            h_y[sl] = _retain(p, "retain_y", reps.r_c, reps.r_a).value
        memo = _OutcomeMemo(cfg, [a.copy() for a in key], h_y)
    p = bind(model, tape, ("head_y",))
    out = np.empty(len(x))
    for sl in blocks:
        head_in = np.empty((sl.stop - sl.start, cfg.enc_hidden + 1))
        head_in[:, 0] = float(t_value)
        head_in[:, 1:] = memo.h_y[sl]
        head_out = _mlp(p, "head_y", tape.constant(head_in), 2, FAMILIES[cfg.mode].activation)
        out[sl] = head_out.value[:, 0]
    model._outcome_memo = memo
    return out


def checkpoint_save(model: SD2Model, path: str | Path) -> None:
    """Manifest line (JSON) + little-endian float64 arrays in declared order."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "seed": model.seed,
        "params": [{"name": n, "shape": list(v.shape)} for n, v in model.params.items()],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest).encode("utf-8") + b"\n")
        for value in model.params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


class CheckpointError(Exception):
    pass


_MANIFEST_FIELDS = {"format", "version", "config", "seed", "params"}


def checkpoint_load(path: str | Path) -> SD2Model:
    """The model a checkpoint holds; a fault in any manifest field raises
    CheckpointError naming the field."""
    with open(path, "rb") as fh:
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError("not a model checkpoint file")
        odd = sorted(set(manifest) ^ _MANIFEST_FIELDS)
        if odd:
            state = "unknown" if odd[0] in manifest else "missing"
            raise CheckpointError(f"checkpoint manifest field {odd[0]!r} is {state}")
        if manifest["version"] not in range(1, CHECKPOINT_VERSION + 1):
            raise CheckpointError(f"checkpoint version {manifest['version']!r} is not "
                                  f"supported (this build reads 1 to {CHECKPOINT_VERSION})")
        for key, kind in (("seed", int), ("params", list)):
            if type(manifest[key]) is not kind:
                raise CheckpointError(f"checkpoint manifest field {key!r} is not "
                                      f"{kind.__name__}")
        try:
            config = ArchConfig(**manifest["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint manifest field 'config': {exc}") from exc
        listed = manifest["params"]
        declared = [{"name": name + suffix, "shape": shape}
                    for name, fan_in, fan_out in _layer_specs(config)
                    for suffix, shape in ((".W", [fan_in, fan_out]), (".b", [fan_out]))]
        if listed != declared:
            i = next(i for i in range(len(listed) + 1) if listed[i:i + 1] != declared[i:i + 1])
            raise CheckpointError(f"checkpoint manifest field 'params': entry {i} lists "
                                  f"{listed[i:i + 1]}, the config declares "
                                  f"{declared[i:i + 1]}")
        params: dict[str, np.ndarray] = {}
        for entry in declared:
            name, shape = entry["name"], entry["shape"]
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise CheckpointError(f"truncated checkpoint at parameter {name!r}")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last parameter")
    return SD2Model(config=config, seed=manifest["seed"], params=params)
