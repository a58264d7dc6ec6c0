"""Tape-based reverse-mode differentiation over float64 numpy arrays.

A Tape records every operation in creation order (which is a topological
order), and `gradients` replays it backwards, accumulating exact adjoints.
Shapes are explicit: no broadcasting beyond bias addition.  Values are checked
for finiteness as nodes are created, so a NaN/Inf is reported at the operation
that produced it; a value whose entries are all finite passes even when their
sum overflows.  Parameters are checked where they change, not where they are
read: `AdamState` checks its flat buffer when it is made and after every
`adam_step`, and a failure names the first non-finite parameter, so
`Tape.parameter` takes a value as it is.  A parameter edited to a NaN or Inf
outside training is named by the first `dense` layer that reads it: a layer
is named by its weight (``enc_a.l1.W`` is layer ``enc_a.l1``).  `dense` checks
once, after the bias add (`affine`): a non-finite product stays non-finite
when a finite bias is added, and elu and sigmoid map finite values to finite
ones.  The training objective (``losses.py``) checks only its total, and on
failure names its first non-finite term.

A tape made with ``record=False`` serves forward passes whose gradients nobody
takes (prediction, validation): its nodes keep no parents or backward rules
and the tape keeps no nodes or parameters, so each intermediate array is
freed as soon as nothing reads it; its values are bit-identical to a recorded
pass, and a NaN or Inf is still named at the operation that produced it.
Only training steps record.  A recording tape drops its nodes and parameters
when `gradients` returns, so no tape outlives its step and neither kind waits
for Python's cycle collector.

The recorded graph is coarse where the model spends its steps: `dense` is one
node, and so is the whole training objective in ``losses.py``.  The primitives
these fused nodes stand for are kept in ``tests/reference_ops.py`` as the
oracles they are checked against, and ``tests/gradcheck.py`` checks the
primitives' gradients against central differences.  A node's backward rule is
an optional ``pre_vjp``, applied once to its gradient, then one VJP per
parent; no VJP is evaluated for a constant leaf.  A fused node's rule repeats
the operations of its composition in the same order and lists a parent once
for each contribution the composition made to it, so values, gradients and
checkpoints are bit-identical to building it from the primitives.  A
stop-gradient teacher is no node at all: the objective reads its arrays and
lists no parent for it.

`AdamState` keeps the parameters, both moments and the gathered gradient in
flat float64 buffers (the model's parameter arrays become views of one of
them), and `adam_step` updates every scalar with one set of vector operations.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    """A kernel operation, named by ``op``, produced a NaN or Inf."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value at node {op!r}")
        self.op = op


class Tape:
    """Operation trace: nodes in creation order, parameters by name.

    With ``record=False`` nothing is kept: only forward values are computed.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.released = False
        self.nodes: list[Tensor] = []
        self.params: dict[str, Tensor] = {}

    def parameter(self, value: np.ndarray, name: str) -> "Tensor":
        """A leaf for ``value``, unchecked: its producer (`AdamState`, the
        initialiser, `checkpoint_load`) keeps it finite."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = Tensor(self, value, name=name, checked=True)
        if self.record:
            self.params[name] = node
        return node

    def constant(self, value) -> "Tensor":
        node = Tensor(self, value, name="const")
        node.constant = True
        return node

    def gradients(self, output: "Tensor") -> tuple[float, dict[str, np.ndarray]]:
        """Backward pass from a scalar node; returns (value, grads per parameter).

        Constant leaves get no gradient: no VJP into them is evaluated.
        Releases the tape: its nodes and parameters are dropped, so the graph
        is freed as soon as the caller lets go of its tensors, and a second
        call raises.
        """
        if not self.record:
            raise AutodiffError("gradients of a tape that does not record")
        if self.released:
            raise AutodiffError("gradients already taken; the tape was released")
        if output.tape is not self:
            raise ValueError("output node belongs to a different tape")
        if output.value.size != 1:
            raise ValueError(f"output node {output.name!r} is not scalar "
                             f"(shape {output.value.shape})")
        output.grad = np.ones_like(output.value)
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            if node.pre_vjp is not None:
                g = node.pre_vjp(g)
            for parent, vjp in zip(node.parents, node.vjps):
                if parent.constant:
                    continue
                contrib = vjp(g)
                if parent.grad is None:
                    # contrib may alias node.grad; never mutated in place below
                    parent.grad = contrib
                else:
                    parent.grad = parent.grad + contrib
        grads = {}
        for name, p in self.params.items():
            grads[name] = p.grad if p.grad is not None else np.zeros_like(p.value)
        self.nodes, self.params, self.released = [], {}, True
        return float(output.value), grads


class Tensor:
    """Node on a tape: a float64 array plus the local backward rules (none on
    a tape that does not record).

    ``vjps[i]`` maps the node's gradient to the contribution for
    ``parents[i]``; a parent listed twice receives two contributions, in
    order.  ``pre_vjp``, when given, is applied to the gradient once and its
    result is what every VJP receives.  ``constant`` marks a leaf that takes
    no gradient (`Tape.constant`).
    """

    __slots__ = ("tape", "value", "parents", "vjps", "pre_vjp", "grad", "name", "constant")

    def __init__(self, tape: Tape, value, parents=(), vjps=(), name: str = "op",
                 pre_vjp=None, checked: bool = False):
        self.tape = tape
        self.value = np.asarray(value, dtype=np.float64)
        if not checked:  # else the caller checked the value
            check_finite(self.value, name)
        self.grad = None
        self.name = name
        self.constant = False
        if tape.record:
            self.parents = parents
            self.vjps = vjps
            self.pre_vjp = pre_vjp
            tape.nodes.append(self)
        else:
            self.parents = self.vjps = ()
            self.pre_vjp = None

    @property
    def shape(self):
        return self.value.shape


def all_finite(value: np.ndarray) -> bool:
    """Whether every entry of ``value`` is finite.

    Any NaN or Inf makes the sum non-finite, so one reduction settles the
    common case; a non-finite sum is confirmed entry by entry, because finite
    entries can overflow it.  (``np.add.reduce`` is the reduction
    ``ndarray.sum`` calls, without its Python wrapper.)
    """
    return math.isfinite(np.add.reduce(value, axis=None)) or bool(np.isfinite(value).all())


def check_finite(value: np.ndarray, name: str):
    """Raise `NonFiniteError` naming ``name`` if ``value`` holds a NaN or Inf."""
    if not all_finite(value):
        raise NonFiniteError(name)


def sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Stable logistic of x written to out (which may be x itself), and out:
    1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere, both
    from e = exp(-|x|), without boolean masks.  -|x| is taken as
    min(x, -x), which keeps a NaN's sign and payload, so every output,
    NaN included, has the bits of computing the two sides apart."""
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=out)


def _elu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ELU of x written to out (which may be x itself); returns exp(min(x,0)).

    exp(min(x,0)) equals the derivative everywhere, and
    max(x,0) + exp(min(x,0)) - 1 equals the activation.
    """
    ex = np.minimum(x, 0.0)
    np.exp(ex, out=ex)
    np.maximum(x, 0.0, out=out)
    out += ex
    out -= 1.0
    return ex


def concat_cols(parts: list[Tensor]) -> Tensor:
    n = parts[0].value.shape[0]
    for p in parts:
        if p.value.ndim != 2 or p.value.shape[0] != n:
            raise ValueError("concat_cols: row-count mismatch")
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.value.shape[1])
    value = np.concatenate([p.value for p in parts], axis=1)
    vjps = tuple((lambda lo, hi: (lambda g: g[:, lo:hi]))(offsets[i], offsets[i + 1])
                 for i in range(len(parts)))
    return Tensor(parts[0].tape, value, tuple(parts), vjps, "concat")


ACTIVATIONS = ("identity", "elu", "sigmoid")


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, layer: str) -> np.ndarray:
    """x @ w + b as a new array, for the dense layer named ``layer``: the
    shapes are checked once, and so is the biased sum, whose NaN or Inf names
    the layer."""
    if (x.ndim != 2 or w.ndim != 2 or b.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ValueError(f"{layer}: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w
    out += b
    check_finite(out, layer)
    return out


def activate(out: np.ndarray, activation: str):
    """Apply the activation to ``out`` in place; return the rule that maps a
    gradient of the result to one of its input (None for identity)."""
    if activation == "identity":
        return None
    if activation == "elu":
        ex = _elu_into(out, out)
        return lambda g: g * ex
    sigmoid_into(out, out)
    return lambda g: g * out * (1.0 - out)


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str) -> Tensor:
    """activation(x @ w + b) as one node, named by its layer: the weight's
    name without ``.W``; activation in {identity, elu, sigmoid}.

    The bias and the activation are applied in place on the product, with the
    operations of the product, the bias add and the activation in the same
    order, so values and gradients are bit-identical to composing them
    (``tests/reference_ops.py``).  One finiteness check on the biased sum
    (`affine`) stands for the product's, the sum's and the activation's, and
    a failure names the layer.  The backward rule takes the activation's
    derivative once, then the three VJPs of the product and the bias.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    layer = w.name.removesuffix(".W")
    out = affine(x.value, w.value, b.value, layer)
    pre_vjp = activate(out, activation)
    return Tensor(x.tape, out, (x, w, b),
                  (lambda g: g @ w.value.T, lambda g: x.value.T @ g,
                   lambda g: np.add.reduce(g, axis=0)),  # g.sum(axis=0), without its wrapper
                  layer, pre_vjp, checked=True)


def glorot_init(key: int, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.init_uniform(key, (fan_in, fan_out), limit)


# Adam's moment decays and epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment accumulators and step counter over one flat buffer.

    The parameters move into a flat float64 buffer too: each entry of
    ``params`` is replaced by a view of its slice, so the caller's arrays see
    every update and `adam_step` updates all scalars with one set of vector
    operations.  The buffer is checked for finiteness here and after every
    `adam_step` (`check_params`), the only places training changes it.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.lr = lr
        self.step = 0
        self.flat = np.zeros(sum(np.size(v) for v in params.values()))
        self.views: dict[str, np.ndarray] = {}
        self.slices: dict[str, slice] = {}
        lo = 0
        for name, value in params.items():
            hi = lo + np.size(value)
            view = self.flat[lo:hi].reshape(np.shape(value))
            view[...] = value
            self.slices[name], self.views[name] = slice(lo, hi), view
            params[name] = view
            lo = hi
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        # gathered gradient and two scratch buffers: a step allocates nothing
        self.grad, self._update, self._denom = (np.empty_like(self.flat) for _ in range(3))
        self.check_params()

    def check_params(self) -> None:
        """Raise `NonFiniteError` naming the first parameter, in order, that
        holds a NaN or Inf; one reduction over the flat buffer when none does."""
        if not all_finite(self.flat):
            raise NonFiniteError(next(name for name, view in self.views.items()
                                      if not np.isfinite(view).all()))


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place, of the arrays ``state`` holds;
    an update that leaves a parameter non-finite raises `NonFiniteError`
    naming the first such parameter (the update stays applied)."""
    for name, view in state.views.items():
        g = grads[name]
        if g.shape != view.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != "
                             f"parameter shape {view.shape} for {name!r}")
        if params[name] is not view:
            raise ValueError(f"adam_step: parameter {name!r} is not the array "
                             "AdamState was made with")
        state.grad[state.slices[name]] = g.ravel()
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    g, m, v, update, denom = state.grad, state.m, state.v, state._update, state._denom
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), after m += (1 - b1) * g and
    # v += (1 - b2) * g * g, with each product and quotient in that order
    m *= b1
    np.multiply(g, 1.0 - b1, out=update)
    m += update
    v *= b2
    np.multiply(g, 1.0 - b2, out=update)
    update *= g
    v += update
    np.divide(m, c1, out=update)
    update *= state.lr
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    state.flat -= update
    state.check_params()

