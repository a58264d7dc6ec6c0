"""The disentangling network: three encoders over shared covariates, retain
networks joining pairs of representations, deep and shallow prediction heads.

`NETWORKS` declares each network once (`Net`); the parameters, `READS`, the
forward's build steps, its `HeadOutputs` fields, `encode` and what
`predict_outcome` keeps are derived from it.  The table's order is the
parameter order, which fixes the checkpoint bytes; a forward builds its
outputs in that order, each after the networks it reads that are not built
yet, which fixes the tape and so the gradient sums.

One graph serves both treatment modes.  Every head parameterises the mode's
outcome family (``family.py``): a Bernoulli probability in binary mode, a
Gaussian mean and log std in continuous mode, where the treatment side also
has an adjustment head and a rebalance network feeding a second confounder
head.  The deep outcome head reads the factual treatment as one extra input
column, into which prediction substitutes the do-value.

A forward pass on a tape that does not record runs in row blocks of at most
``BLOCK_ROWS`` rows, each through the whole network, stitched back in row
order, so that a block's layer output (1,024 x 64 floats, 512 KB) stays in
cache for the bias add and the activation.  A tail shorter than
``_MIN_BLOCK_ROWS`` joins the block before it: a one-row product takes the
BLAS matrix-vector path, whose sums can differ in the last bit.  Blocks start
at multiples of ``BLOCK_ROWS`` so that every row sits where one pass puts it:
in ``head_y``'s one- or two-column last layer, a row's last bits depend on its
place in the product (passes of 31, 63 or 819 rows differ from a 2,048-row
pass in 1-2 rows, and so did equal-length blocks).  Validation keeps its loss
chunks, as the MMD, the KLs and the means are batch statistics.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import rng
from .datagen import SchemaError, check_fields, read_record
from .family import FAMILIES

CHECKPOINT_FORMAT = "sd2-checkpoint"
CHECKPOINT_VERSION = 1

HIDDEN_ACTIVATION = "elu"  # as in CFR/TARNet

BLOCK_ROWS = 1024
# a shorter tail joins the block before it: a one-row block takes another
# BLAS path (matrix-vector) whose sums differ in the last bit
_MIN_BLOCK_ROWS = 16


@dataclass(frozen=True)
class ArchConfig:
    """Network sizes, each at least 1, and the treatment mode (`check_fields`)."""
    input_dim: int
    rep_dim: int = 8
    enc_hidden: int = 64
    enc_layers: int = 2
    head_hidden: int = 32
    mode: str = "binary"

    def __post_init__(self):
        check_fields(self, {"input_dim": 1, "rep_dim": 1, "enc_hidden": 1, "enc_layers": 1,
                            "head_hidden": 1}, one_of={"mode": FAMILIES})


COVARIATES, TREATMENT = "x", "t"  # the inputs a network reads that are not networks


class Net(NamedTuple):
    """A network: the output it fills (None: it feeds other networks only),
    what it reads side by side (`COVARIATES`, `TREATMENT` or networks), its
    layer widths, whether its last layer is the mode family's head (every
    other layer is ELU), and the modes it exists in."""
    name: str
    output: str | None
    inputs: tuple[str, ...]
    widths: Callable[[ArchConfig], tuple[int, ...]]
    head: bool = False
    modes: tuple[str, ...] = tuple(FAMILIES)


def _encoder(a: ArchConfig) -> tuple[int, ...]:
    return (a.enc_hidden,) * a.enc_layers + (a.rep_dim,)


def _head(a: ArchConfig) -> tuple[int, ...]:
    return (a.head_hidden, FAMILIES[a.mode].out_dim)


# Every network once, in parameter order: `init_model` draws the layers, and a
# checkpoint stores them, in this order.  A forward builds its outputs in this
# order, each after the networks it reads that are not built yet (`_steps`),
# so rebalance, last here, is built just before head_t_cr.
NETWORKS = (
    Net("enc_z", "r_z", (COVARIATES,), _encoder),
    Net("enc_c", "r_c", (COVARIATES,), _encoder),
    Net("enc_a", "r_a", (COVARIATES,), _encoder),
    Net("retain_t", None, ("enc_z", "enc_c"), lambda a: (a.enc_hidden,)),
    Net("retain_y", None, ("enc_c", "enc_a"), lambda a: (a.enc_hidden,)),
    Net("head_t", "q_t", ("retain_t",), _head, True),
    Net("head_t_z", "q_t_z", ("enc_z",), _head, True),
    Net("head_t_c", "q_t_c", ("enc_c",), _head, True),
    Net("head_t_a", "q_t_a", ("enc_a",), _head, True, ("continuous",)),
    Net("head_t_cr", "q_t_cr", ("rebalance",), _head, True, ("continuous",)),
    Net("head_y", "q_y", (TREATMENT, "retain_y"), _head, True),
    Net("head_y_a", "q_y_a", ("enc_a",), _head, True),
    Net("head_y_c", "q_y_c", ("enc_c",), _head, True),
    Net("rebalance", None, ("enc_c",), lambda a: (a.head_hidden, a.rep_dim),
        modes=("continuous",)),
)
_BY_NAME = {net.name: net for net in NETWORKS}
NETWORK_OF = {net.output: net.name for net in NETWORKS if net.output}
# the encoders read the covariates alone; their outputs are the representations
ENCODERS = tuple(net.name for net in NETWORKS if net.inputs == (COVARIATES,))

HeadOutputs = namedtuple("HeadOutputs", NETWORK_OF, defaults=(None,) * len(NETWORK_OF),
                         module=__name__)
HeadOutputs.__doc__ = """The outputs of one forward pass, one field per `Net.output` in
table order: the representations as tensors, each head as its family's
parameters (a probability column or a Gaussian); what the pass did not build
is None."""
Representations = namedtuple("Representations", (_BY_NAME[net].output for net in ENCODERS),
                             module=__name__)
Representations.__doc__ = """The encoders' outputs as arrays, from ``encode``."""


def _closure(name: str) -> tuple[str, ...]:
    """The network and every network it reads, each after what it reads."""
    reads = [n for src in _BY_NAME[name].inputs if src in _BY_NAME for n in _closure(src)]
    return tuple(dict.fromkeys(reads + [name]))


# the networks each output reads: a forward asked for some outputs runs only these
READS = {output: _closure(name) for output, name in NETWORK_OF.items()}
# the outcome head is the network that reads the treatment, beside one
# network's output; predict_outcome keeps its first layer's sum over that
# output, which the other networks it reads make
_OUTCOME = next(net for net in NETWORKS if TREATMENT in net.inputs)
(_OUTCOME_REST,) = (src for src in _OUTCOME.inputs if src != TREATMENT)
_MEMO_NETWORKS = READS[_OUTCOME.output][:-1]
_MEMO_PREFIXES = tuple(net + "." for net in _MEMO_NETWORKS)


@functools.lru_cache(maxsize=64)  # every forward asks, for a handful of output tuples
def networks(outputs: tuple[str, ...]) -> tuple[str, ...]:
    """The networks the named outputs read, each once."""
    return tuple(dict.fromkeys(net for name in outputs for net in READS[name]))


def params_read_by(params: dict, outputs: tuple[str, ...]) -> dict:
    """The entries of ``params`` that belong to a network the outputs read,
    in their order."""
    read = set(networks(tuple(outputs)))
    return {name: value for name, value in params.items() if name.partition(".")[0] in read}


def _widths(cfg: ArchConfig) -> dict[str, int]:
    """The width of everything a network can read."""
    return {COVARIATES: cfg.input_dim, TREATMENT: 1,
            **{net.name: net.widths(cfg)[-1] for net in NETWORKS}}


@functools.lru_cache(maxsize=64)
def _columns(cfg: ArchConfig, net: Net) -> dict[str, slice]:
    """Where each input of ``net`` sits in the side-by-side input of its
    first layer."""
    width, columns, at = _widths(cfg), {}, 0
    for src in net.inputs:
        columns[src] = slice(at, at + width[src])
        at += width[src]
    return columns


@functools.lru_cache(maxsize=64)
def _layers(cfg: ArchConfig) -> dict[str, tuple[tuple[str, int, int, str], ...]]:
    """Each network of the config's mode, in parameter order, with its dense
    layers: (name, fan_in, fan_out, activation)."""
    width = _widths(cfg)
    layers = {}
    for net in NETWORKS:
        if cfg.mode in net.modes:
            dims = (sum(width[src] for src in net.inputs),) + net.widths(cfg)
            acts = [HIDDEN_ACTIVATION] * (len(dims) - 2) + [
                FAMILIES[cfg.mode].activation if net.head else HIDDEN_ACTIVATION]
            layers[net.name] = tuple((f"{net.name}.l{i}", *dims[i:i + 2], act)
                                     for i, act in enumerate(acts))
    return layers


@functools.lru_cache(maxsize=64)  # every forward asks, for a handful of configs and outputs
def _steps(cfg: ArchConfig, outputs: tuple[str, ...] | None) -> tuple[tuple[Net, tuple], ...]:
    """The networks, with their layers, that a forward making ``outputs``
    (None: every output of the mode) builds: the outputs' networks and the
    encoders they read in table order, each after what it reads."""
    layers = _layers(cfg)
    read = networks(tuple(output for output, name in NETWORK_OF.items()
                          if name in layers and (outputs is None or output in outputs)))
    order = dict.fromkeys(name for net in NETWORKS if net.output and net.name in read
                          for name in READS[net.output])
    return tuple((_BY_NAME[name], layers[name]) for name in order)


class _OutcomeMemo(NamedTuple):
    """The outcome head's first-layer sum without its treatment term, as
    `predict_outcome` last made it: one n x head_hidden array holding
    ``R @ W_R + b``, where ``R`` is the head's input beside the treatment
    and ``W_R`` the rows of its first weight matrix that ``R`` meets; and
    copies of what it was computed from: the config, the covariates, every
    parameter of the networks that made ``R``, ``W_R`` and ``b``."""
    config: ArchConfig
    key: list[np.ndarray]
    fixed: np.ndarray


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
    for layers in _layers(config).values():
        for name, fan_in, fan_out, _ in layers:
            params[name + ".W"] = ad.glorot_init(rng.mix_key(seed, "init/" + name), fan_in, fan_out)
            params[name + ".b"] = np.zeros(fan_out)
    return SD2Model(config=config, seed=seed, params=params)


def bind(model: SD2Model, tape: ad.Tape,
         layers: tuple[str, ...] | None = None) -> dict[str, ad.Tensor]:
    """Register every parameter on a tape, in declared order; with ``layers``,
    only the parameters of the networks it names.

    Nothing is checked here: the parameters' producers keep them finite
    (`init_model`, `checkpoint_load`, and `ad.AdamState` after every step),
    and a value edited to a NaN or Inf in between is named by the first
    dense layer that reads it, such as ``'enc_a.l1'``."""
    prefixes = None if layers is None else tuple(name + "." for name in layers)
    return {name: tape.parameter(value, name) for name, value in model.params.items()
            if prefixes is None or name.startswith(prefixes)}


def _dense(p: dict[str, ad.Tensor], layers: tuple, h: ad.Tensor) -> ad.Tensor:
    for name, _, _, activation in layers:
        h = ad.dense(h, p[name + ".W"], p[name + ".b"], activation)
    return h


def _build(cfg: ArchConfig, p: dict[str, ad.Tensor], tape: ad.Tape, steps,
           sources: dict[str, np.ndarray]) -> dict:
    """Each network the steps build, by name, a head as its family's parameters;
    a covariate or treatment input becomes a constant where it is first read."""
    values: dict = {}
    for net, layers in steps:
        for src in net.inputs:
            if src not in values:
                values[src] = tape.constant(sources[src])
        parts = [values[src] for src in net.inputs]
        h = _dense(p, layers, parts[0] if len(parts) == 1 else ad.concat_cols(parts))
        values[net.name] = FAMILIES[cfg.mode].head(h) if net.head else h
    return values


def _forward_rows(cfg: ArchConfig, p: dict[str, ad.Tensor], tape: ad.Tape,
                  sources: dict[str, np.ndarray], only=None) -> HeadOutputs:
    """Every output of the mode or, with ``only``, the outputs it names, and
    the representations they read."""
    values = _build(cfg, p, tape, _steps(cfg, None if only is None else tuple(only)), sources)
    return HeadOutputs(**{output: values[name] for output, name in NETWORK_OF.items()
                          if name in values})


def _check_input(cfg: ArchConfig, x):
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


def _forward(model: SD2Model, mode: str, x, t, tape: ad.Tape | None,
             params: dict[str, ad.Tensor] | None, only) -> HeadOutputs:
    """The graph of both modes, after checking the model's mode and the
    inputs; without a tape, a forward pass that records nothing."""
    if model.config.mode != mode:
        raise ValueError(f"forward_{mode} requires a {mode}-mode model")
    x = _check_input(model.config, x)
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (len(x),):
        raise ValueError(f"t has shape {t.shape}, x has {len(x)} rows: one treatment per row")
    if mode == "binary" and not np.all((t == 0) | (t == 1)):
        raise ValueError("binary mode requires treatments in {0, 1}")
    if tape is None:
        tape = ad.Tape(record=False)
    p = params or bind(model, tape)
    return _blocked(tape, lambda xb, tb: _forward_rows(
        model.config, p, tape, {COVARIATES: xb, TREATMENT: tb.reshape(-1, 1)}, only), x, t)


def forward_binary(model: SD2Model, x: np.ndarray, t: np.ndarray,
                   tape: ad.Tape | None = None,
                   params: dict[str, ad.Tensor] | None = None, only=None) -> HeadOutputs:
    """Forward pass of a binary-mode model, ``t`` holding one treatment in
    {0, 1} per row of ``x``; without a tape it records nothing, and with
    ``only`` it builds just the named outputs (keys of ``READS``)."""
    return _forward(model, "binary", x, t, tape, params, only)


def forward_continuous(model: SD2Model, x: np.ndarray, t: np.ndarray,
                       tape: ad.Tape | None = None,
                       params: dict[str, ad.Tensor] | None = None, only=None) -> HeadOutputs:
    """Forward pass of a continuous-mode model, ``t`` holding one treatment
    per row of ``x``; without a tape it records nothing, and with ``only`` it
    builds just the named outputs."""
    return _forward(model, "continuous", x, t, tape, params, only)


def encode(model: SD2Model, x: np.ndarray) -> Representations:
    """Representations as plain arrays (convenience wrapper; builds no tape)."""
    cfg = model.config
    x = _check_input(cfg, x)
    tape = ad.Tape(record=False)
    p = bind(model, tape, ENCODERS)
    steps = _steps(cfg, Representations._fields)

    def run(xb):
        values = _build(cfg, p, tape, steps, {COVARIATES: xb})
        return Representations(*(values[net].value for net in ENCODERS))
    return _blocked(tape, run, x)


def predict_outcome(model: SD2Model, x: np.ndarray, t_value: float) -> np.ndarray:
    """Potential-outcome estimate with the do-value substituted into the
    outcome head's treatment input; representations come from x only.

    Builds no tape and runs only the networks the outcome reads.  The outcome
    head's first layer reads ``[t | R]``, ``R`` being retain_y's output, and
    is applied as ``(R @ W_R + b) + t * w_t``: ``w_t`` is the treatment row
    of its weights, ``W_R`` the other rows.  The fixed part ``R @ W_R + b`` is
    kept on the model for the last covariates scored, with copies of the
    covariates and of the parameters it was computed from (``w_t`` is not
    one): n x (input_dim + head_hidden) floats, 3.0 MB for the 10,000 x 6
    demand split.  A later call whose covariates, parameters and config match
    the copies bit for bit (an Adam step or an in-place edit does not) adds
    ``t * w_t`` to it and runs the ELU and head_y's other layers per row
    block, on the same contiguous rows the full forward builds, so a sweep
    over do-values equals a fresh model's bit for bit.  Against the recorded
    forward pass, which sums the first layer's 1 + enc_hidden products in
    one dot product, only the order of that sum differs, so an output can
    move by its rounding carried through the ELU and the last layer.  A
    non-finite do-value raises `ad.NonFiniteError` naming the treatment input
    ``'t'``, and a NaN or Inf in the head's first-layer sum names that layer,
    ``'head_y.l0'``, as the full forward does.  A call that raises keeps no
    new cache, and a hit writes nothing to it.  The cache is not model
    state: checkpoints, ``==`` and ``repr`` never see it.
    """
    cfg = model.config
    x = _check_input(cfg, x)
    if cfg.mode == "binary" and t_value not in (0.0, 1.0):
        raise ValueError("binary mode requires a do-value in {0, 1}")
    t_value = float(t_value)
    if not np.isfinite(t_value):
        raise ad.NonFiniteError(TREATMENT)
    tape = ad.Tape(record=False)
    blocks = _row_blocks(len(x))
    *memo_steps, (_, head_layers) = _steps(cfg, (_OUTCOME.output,))
    p = bind(model, tape, (_OUTCOME.name,))
    (name, _, _, activation), *last_layers = head_layers
    w, bias = p[name + ".W"].value, p[name + ".b"].value
    treatment = _columns(cfg, _OUTCOME)[TREATMENT]
    w_rest = np.delete(w, treatment, axis=0)
    key = [x, *(v for k, v in model.params.items() if k.startswith(_MEMO_PREFIXES)),
           w_rest, bias]
    memo = model._outcome_memo
    # equal bit patterns (-0.0 is not 0.0); a stored key holds no NaN, because
    # only a miss that raised nothing stores one, and every value in the key
    # went through a finiteness check on the way to `fixed`
    if (memo is None or memo.config != cfg or len(memo.key) != len(key) or not all(
            np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(memo.key, key))):
        p_memo = bind(model, tape, _MEMO_NETWORKS)
        fixed = np.empty((len(x), len(bias)))
        for sl in blocks:
            values = _build(cfg, p_memo, tape, memo_steps, {COVARIATES: x[sl]})
            fixed[sl] = ad.affine(values[_OUTCOME_REST].value, w_rest, bias, name)
        memo = _OutcomeMemo(cfg, [a.copy() for a in key], fixed)
    shift = t_value * w[treatment]
    out = np.empty(len(x))
    for sl in blocks:
        h = memo.fixed[sl] + shift
        ad.check_finite(h, name)
        ad.activate(h, activation)
        h = ad.Tensor(tape, h, name=name, checked=True)
        out[sl] = _dense(p, last_layers, h).value[:, 0]
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


_MANIFEST_FIELDS = {"format", "version", "config", "seed", "params"}


def checkpoint_load(path: str | Path) -> SD2Model:
    """The model a checkpoint holds; a fault in any manifest field, or a
    parameter holding a NaN or Inf, raises SchemaError naming it."""
    with open(path, "rb") as fh:
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"unreadable checkpoint manifest: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
            raise SchemaError("not a model checkpoint file")
        odd = sorted(set(manifest) ^ _MANIFEST_FIELDS)
        if odd:
            state = "unknown" if odd[0] in manifest else "missing"
            raise SchemaError(f"checkpoint manifest field {odd[0]!r} is {state}")
        for key, kind in (("version", int), ("seed", int), ("params", list)):
            if type(manifest[key]) is not kind:
                raise SchemaError(f"checkpoint manifest field {key!r} is not {kind.__name__}")
        if manifest["version"] not in range(1, CHECKPOINT_VERSION + 1):
            raise SchemaError(f"checkpoint version {manifest['version']!r} is not "
                              f"supported (this build reads 1 to {CHECKPOINT_VERSION})")
        config = read_record(ArchConfig, manifest["config"], "checkpoint manifest field 'config'")
        listed = manifest["params"]
        declared = [{"name": name + suffix, "shape": shape}
                    for layers in _layers(config).values()
                    for name, fan_in, fan_out, _ in layers
                    for suffix, shape in ((".W", [fan_in, fan_out]), (".b", [fan_out]))]
        if listed != declared:
            i = next(i for i in range(len(listed) + 1) if listed[i:i + 1] != declared[i:i + 1])
            raise SchemaError(f"checkpoint manifest field 'params': entry {i} lists "
                              f"{listed[i:i + 1]}, the config declares {declared[i:i + 1]}")
        params: dict[str, np.ndarray] = {}
        for entry in declared:
            name, shape = entry["name"], entry["shape"]
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise SchemaError(f"truncated checkpoint at parameter {name!r}")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(params[name]).all():
                raise SchemaError(f"checkpoint parameter {name!r} is not finite")
        if fh.read(1):
            raise SchemaError("trailing bytes after the last parameter")
    return SD2Model(config=config, seed=manifest["seed"], params=params)
