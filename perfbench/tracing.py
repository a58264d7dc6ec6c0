"""Spans and counters for a traced benchmark run.

The tracer wraps the package's entry points where their callers look them up:
``training`` and ``evaluation`` bind ``forward_*``, ``bind``, ``total_loss_*``
and ``predict_outcome`` by from-import, so those names are replaced in the
calling module; ``Tape.gradients`` is replaced on the class.  Spans stay in
memory and are written out when the run ends.  Nothing is wrapped in an
untraced run.
"""

from __future__ import annotations

import functools
import gc
import logging
import statistics
import time
from collections import Counter, defaultdict

from sd2 import autodiff as ad
from sd2 import evaluation, training
from sd2.losses import DegenerateBatchError

MIB = float(2 ** 20)

# Per-layer metrics: name -> unit.  perfbench/README.md maps each one to the
# end-to-end metric it should move.
LAYER_METRICS = {
    "datagen.generate_s": "s",
    "model.checkpoint_save_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "training.val_pass_ms": "ms",
    "training.val_pass_self_ms": "ms",
    "training.steps": "count",
    "training.skipped_batches": "count",
    "model.bind_ms": "ms",
    "model.forward_step_ms": "ms",
    "losses.total_step_ms": "ms",
    "model.forward_val_ms": "ms",
    "losses.degenerate_raised": "count",
    "autodiff.backward_ms": "ms",
    "autodiff.adam_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.matmul_mflop_per_step": "MFLOP",
    "autodiff.tape_mb_per_step": "MB",
    "autodiff.tape_mb_per_eval_call": "MB",
    "autodiff.gc_ms": "ms",
    "autodiff.gc_gen2_collections": "count",
    "model.predict_ms": "ms",
    "evaluation.cf_mse_self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

# Layer metrics that are exact functions of the code and the workload, not
# of timing; two traced runs of one seed must agree on them.
EXACT_METRICS = ("training.steps", "training.skipped_batches", "losses.degenerate_raised",
                 "autodiff.nodes_per_step", "autodiff.matmul_mflop_per_step",
                 "autodiff.tape_mb_per_step", "autodiff.tape_mb_per_eval_call")


def tape_stats(tape) -> tuple[int, float, float]:
    """Node count, forward matmul MFLOP and MB of node values on a tape."""
    mflop = 0.0
    nbytes = 0
    for node in tape.nodes:
        nbytes += node.value.nbytes
        if node.name == "matmul":
            (m, k), n = node.parents[0].value.shape, node.parents[1].value.shape[1]
            mflop += 2.0 * m * k * n / 1e6
    return len(tape.nodes), mflop, nbytes / MIB


class _SkipCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def emit(self, record):
        if str(record.msg).startswith("skipping single-class batch"):
            self.tracer.events[("skipped", self.tracer.run_id)] += 1


class Tracer:
    """In-memory spans ``[name, start, end, parent index, run id]`` plus
    counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.events: Counter = Counter()        # (event, run id) -> count
        self.step_tapes: list[tuple] = []       # tape_stats of each backward pass
        self.eval_tape_mb: list[float] = []
        self.gc_ms = 0.0
        self.gc_gen2 = 0
        self._stack: list[int] = []
        self._captured: list | None = None
        self._gc_started = 0.0
        self._between_units = False
        self._undo: list[tuple] = []
        self._handler = _SkipCounter(self)

    def span(self, name: str):
        return _Span(self, name)

    def collect(self):
        """A full collection between units, kept out of the gc counters."""
        self._between_units = True
        try:
            gc.collect()
        finally:
            self._between_units = False

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        self._timed(training, "bind", "model.bind")
        self._timed(training, "forward_binary", "model.forward")
        self._timed(training, "forward_continuous", "model.forward")
        self._timed(training, "total_loss_binary", "losses.total", counts=True)
        self._timed(training, "total_loss_continuous", "losses.total", counts=True)
        self._counted(training, "importance_weights")
        self._timed(training, "_eval_breakdown", "training.val_pass")
        self._timed(ad, "adam_step", "autodiff.adam")
        self._backward()
        self._predict()
        gc.callbacks.append(self._on_gc)
        logging.getLogger("sd2.training").addHandler(self._handler)

    def uninstall(self):
        logging.getLogger("sd2.training").removeHandler(self._handler)
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner, attr, name, counts=False):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    if not counts:
                        return original(*args, **kwargs)
                    try:
                        return original(*args, **kwargs)
                    except DegenerateBatchError:
                        self.events[("degenerate", self.run_id)] += 1
                        raise
            return wrapper
        self._replace(owner, attr, make)

    def _counted(self, owner, attr):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                try:
                    return original(*args, **kwargs)
                except DegenerateBatchError:
                    self.events[("degenerate", self.run_id)] += 1
                    raise
            return wrapper
        self._replace(owner, attr, make)

    def _backward(self):
        def make(original):
            @functools.wraps(original)
            def gradients(tape, output):
                self.step_tapes.append(tape_stats(tape))
                with self.span("autodiff.backward"):
                    return original(tape, output)
            return gradients
        self._replace(ad.Tape, "gradients", make)

    def _predict(self):
        """Time ``predict_outcome`` and size the tapes it builds.

        ``model`` creates its tapes as ``ad.Tape()``, so a subclass put in
        that attribute sees each one; it records only inside a predict call.
        """
        tracer = self

        def make_tape(original):
            class CapturedTape(original):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    if tracer._captured is not None:
                        tracer._captured.append(self)
            return CapturedTape

        def make_predict(original):
            @functools.wraps(original)
            def predict_outcome(*args, **kwargs):
                self._captured = []
                try:
                    with self.span("model.predict"):
                        return original(*args, **kwargs)
                finally:
                    self.eval_tape_mb.append(sum(tape_stats(t)[2] for t in self._captured))
                    self._captured = None
            return predict_outcome

        self._replace(ad, "Tape", make_tape)
        self._replace(evaluation, "predict_outcome", make_predict)

    def _on_gc(self, phase, info):
        if self._between_units:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_ms += (time.perf_counter() - self._gc_started) * 1e3
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- per-layer metrics --------------------------------------------------

    def spans_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run_id": r}
                for n, s, e, p, r in self.spans]

    def layer_metrics(self, setup_timings: list[dict], units: int) -> dict:
        """Per-layer values from the recorded spans and counters.

        Times are medians per call unless named per pass; counts are medians
        per unit of work; ``gc`` totals cover the whole traced phase.
        """
        spans = self.spans
        duration = [(s[2] - s[1]) * 1e3 for s in spans]
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[0]].append(i)

        def in_val(i):
            return spans[i][3] >= 0 and spans[spans[i][3]][0] == "training.val_pass"

        def med(values):
            return statistics.median(values) if values else 0.0

        def times(name, where=lambda i: True):
            return [duration[i] for i in by_name[name] if where(i)]

        def self_times(name):
            return [duration[i] - sum(duration[c] for c in children[i]) for i in by_name[name]]

        def setup(key):
            return [t[key] for t in setup_timings if key in t]

        def per_unit(counts):
            return med([counts.get(r, 0) for r in range(units)])

        val = by_name["training.val_pass"]
        adam_runs = Counter(spans[i][4] for i in by_name["autodiff.adam"])
        return {
            "datagen.generate_s": med(setup("generate_s")),
            "model.checkpoint_save_ms": med(times("model.checkpoint_save")
                                            or setup("checkpoint_save_ms")),
            "model.checkpoint_load_ms": med(times("model.checkpoint_load")
                                            or setup("checkpoint_load_ms")),
            "training.val_pass_ms": med(times("training.val_pass")),
            "training.val_pass_self_ms": med(self_times("training.val_pass")),
            "training.steps": per_unit(adam_runs),
            "training.skipped_batches": per_unit(
                {r: c for (e, r), c in self.events.items() if e == "skipped"}),
            "model.bind_ms": med(times("model.bind", lambda i: not in_val(i))),
            "model.forward_step_ms": med(times("model.forward", lambda i: not in_val(i))),
            "losses.total_step_ms": med(times("losses.total", lambda i: not in_val(i))),
            "model.forward_val_ms": med([sum(duration[c] for c in children[i]
                                             if spans[c][0] == "model.forward") for i in val]),
            "losses.degenerate_raised": per_unit(
                {r: c for (e, r), c in self.events.items() if e == "degenerate"}),
            "autodiff.backward_ms": med(times("autodiff.backward")),
            "autodiff.adam_ms": med(times("autodiff.adam")),
            "autodiff.nodes_per_step": med([s[0] for s in self.step_tapes]),
            "autodiff.matmul_mflop_per_step": med([s[1] for s in self.step_tapes]),
            "autodiff.tape_mb_per_step": med([s[2] for s in self.step_tapes]),
            "autodiff.tape_mb_per_eval_call": med(self.eval_tape_mb),
            "autodiff.gc_ms": self.gc_ms,
            "autodiff.gc_gen2_collections": self.gc_gen2,
            "model.predict_ms": med(times("model.predict")),
            "evaluation.cf_mse_self_ms": med(self_times("evaluation.counterfactual_mse")),
        }


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False
