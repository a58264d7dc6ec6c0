"""sd2 benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload train_binary --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one process each

Run from the repository root.  The package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it are the full report: the environment, every timing with
its sample count, the output checks and, in a traced run, the tracing
overhead.  Full results (and the spans of a traced run) are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("train_binary", "train_demand", "train_twins", "evaluate_demand")
# Set-ups per run: this process plus SETUP_PROBES fresh processes.
SETUP_PROBES = 6
# Units an untraced run does at least (peak RSS is read after them), and the
# untraced/traced pairs of a traced run.
MIN_UNITS = 2
TRACE_PAIRS = 3
PROBE_TIMEOUT_S = 120
# One BLAS thread on every run: the same on every machine, never more than
# nproc, and no oversubscription when the machine is shared.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for the harness self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for the set-up probes)")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else None


def high_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    q = int(100 * (1 - 10 / n)) if n else 0
    return q if q > 50 else None


def timing(values, unit):
    """Median, p90 and the highest percentile with ten samples beyond it."""
    out = {"unit": unit, "n": len(values), "p50": percentile(values, 50),
           "p90": percentile(values, 90)}
    hi = high_percentile(len(values))
    if hi is not None:
        out[f"p{hi}"] = percentile(values, hi)
    return out


def blas_threads():
    """Threads the loaded OpenBLAS will use, read back from the library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sd2").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS, "blas_threads": blas_threads(),
            "commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def run_probe(args) -> dict:
    """One set-up in a fresh process, timed from before ``import sd2``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, state, clock, tracer, seconds, min_units, between):
    """Repeat the workload's unit, untraced, until `seconds` have passed and
    at least `min_units` units are done, calling `between()` after each.
    Peak RSS is read after the first `min_units` units, so it covers a fixed
    amount of work.

    Each unit starts from a fully collected heap, as a fresh ``sd2 train`` or
    ``sd2 evaluate`` process would; otherwise garbage tapes from earlier units
    pile up until Python's next full collection and every later unit pays for
    them.
    """
    results = []
    rss = None
    started = time.perf_counter()
    while len(results) < min_units or time.perf_counter() - started < seconds:
        tracer.collect()
        results.append(workload.unit(state, clock, tracer))
        if len(results) == min_units:
            rss = peak_rss_mb()
        between()
    return results, rss


def measure_traced(workload, state, clock, null, tracer, units, between):
    """`units` pairs of one untraced and one traced unit, calling `between()`
    after each pair.  Alternating puts drift in the machine's speed on both
    sides of the tracing overhead."""
    untraced, traced = [], []
    for i in range(units):
        null.collect()
        untraced.append(workload.unit(state, clock, null))
        tracer.run_id = i
        tracer.install()
        try:
            tracer.collect()
            traced.append(workload.unit(state, clock, tracer))
        finally:
            tracer.uninstall()
        between()
    return untraced, traced


def collect(results) -> dict:
    pooled = {"epoch_s": [], "step_ms": [], "eval_ms": [], "pass_s": [], "errors": []}
    attempted = 0
    for r in results:
        attempted += r.attempted
        for key in ("epoch_s", "step_ms", "eval_ms", "errors"):
            pooled[key] += getattr(r, key)
        if r.pass_s is not None:
            pooled["pass_s"].append(r.pass_s)
    pooled["attempted"] = attempted
    pooled["failed"] = len(pooled["errors"])
    return pooled


def end_to_end(workload_name, pooled, setup_s, rss) -> dict:
    """The BENCHMARK.json end-to-end metrics of one workload.

    ``pass_s`` is one pass over the workload's data: a steady training epoch,
    or one sweep of the do-grid.  ``op_ms`` is one operation: a training step
    for train_binary and train_demand, a steady epoch for train_twins (one
    step plus validation, so no step-to-step interval exists), a do-value
    evaluation for evaluate_demand.
    """
    if workload_name == "evaluate_demand":
        passes, ops = pooled["pass_s"], pooled["eval_ms"]
    elif workload_name == "train_twins":
        passes, ops = pooled["epoch_s"], [s * 1e3 for s in pooled["epoch_s"]]
    else:
        passes, ops = pooled["epoch_s"], pooled["step_ms"]
    return {"setup_s": (setup_s, "s"),
            "pass_s_p50": (percentile(passes, 50), "s"),
            "op_ms_p50": (percentile(ops, 50), "ms"),
            "op_ms_p90": (percentile(ops, 90), "ms"),
            "peak_rss_mb": (rss, "MB")}


def report(workload_name, pooled, setup_s, setup_samples, rss, units, quality, digest):
    """Every end-to-end figure under its own name, for the workloads it applies to."""
    out = {"setup_s": {"value": setup_s, "unit": "s", "n": len(setup_samples),
                       "samples": setup_samples},
           "peak_rss_mb": {"value": rss, "unit": "MB", "after_units": units}}
    if workload_name.startswith("train_"):
        out["epoch_s"] = timing(pooled["epoch_s"], "s")
        out["quality_out"] = {"value": quality, "metric": (
            "counterfactual_mse" if workload_name == "train_demand" else "eps_ate"),
            "checkpoint_sha256": digest}
    if workload_name in ("train_binary", "train_demand"):
        out["step_ms"] = timing(pooled["step_ms"], "ms")
    if workload_name == "evaluate_demand":
        out["eval_ms"] = timing(pooled["eval_ms"], "ms")
        out["grid_sweep_s"] = timing(pooled["pass_s"], "s")
        out["quality_out"] = {"value": quality, "metric": "counterfactual_mse over the grid",
                              "checkpoint_sha256": digest}
    out["failed_frac"] = {"value": pooled["failed"] / max(pooled["attempted"], 1),
                          "failed": pooled["failed"], "attempted": pooled["attempted"]}
    return out


def headline(workload_name, pooled):
    """The figure a traced run's overhead is measured on, in ms."""
    if workload_name == "evaluate_demand":
        return percentile(pooled["eval_ms"], 50)
    return percentile([s * 1e3 for s in pooled["epoch_s"]], 50)


def run_all(args) -> int:
    """Every workload, each in a fresh process with the same seed."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "sd2" / "__init__.py").is_file():
        print(f"error: no sd2 package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))

    # The set-up clock starts before sd2, and with it numpy, is imported;
    # nothing above imports numpy.
    started = time.perf_counter()
    import sd2
    import workloads as wl
    if Path(sd2.__file__).resolve().parent != ROOT / "src" / "sd2":
        print(f"error: imported sd2 from {sd2.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = wl.workloads(args.tiny)[args.workload]
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - started
        timings = dict(state.timings, setup_s=setup_s)
        if args.setup_only:
            print(json.dumps(timings))
            return 0
        # The probes run between units, spread over the run: the machine's
        # speed drifts over seconds, and probes taken back to back would all
        # see the same moment of it.
        setup_timings = [timings]

        def probe_between_units():
            if len(setup_timings) <= SETUP_PROBES:
                setup_timings.append(run_probe(args))

        clock = wl.StepClock()
        clock.install()
        try:
            if args.trace:
                import tracing
                tracer = tracing.Tracer()
                untraced, traced = measure_traced(workload, state, clock, wl.NullTracer(),
                                                  tracer, TRACE_PAIRS, probe_between_units)
                results, rss = untraced + traced, peak_rss_mb()
                units = len(results)
            else:
                results, rss = measure(workload, state, clock, wl.NullTracer(),
                                       args.seconds, MIN_UNITS, probe_between_units)
                units = MIN_UNITS
        finally:
            clock.uninstall()
        quality, digest = state.quality, state.digest
        while len(setup_timings) <= SETUP_PROBES:
            setup_timings.append(run_probe(args))
        setup_samples = [t["setup_s"] for t in setup_timings]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pooled = collect(results)
    setup_median = statistics.median(setup_samples)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "units": len(results),
              "environment": environment(),
              "report": report(args.workload, pooled, setup_median, setup_samples, rss,
                               units, quality, digest),
              "errors": pooled["errors"]}
    if args.trace:
        before = headline(args.workload, collect(untraced))
        after = headline(args.workload, collect(traced))
        layers = tracer.layer_metrics(setup_timings, TRACE_PAIRS)
        measured = before is not None and after is not None  # None: every unit failed
        layers["trace.overhead_ms"] = after - before if measured else None
        layers["trace.overhead_pct"] = 100.0 * (after - before) / before if measured else None
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in layers.items()}
        result["overhead"] = {"untraced_ms": before, "traced_ms": after, "on": (
            "eval_ms_p50" if args.workload == "evaluate_demand" else "epoch_s_p50")}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   end_to_end(args.workload, pooled, setup_median, rss).items()}
    result["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans_json()))
    print_report(result)
    correct = pooled["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": pooled["attempted"],
                      "failed": pooled["failed"], "metrics": metrics}))
    return 0


def print_report(result):
    print(f"# sd2 benchmark  workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} units={result['units']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, figure in result["report"].items():
        if name in ("setup_s", "peak_rss_mb", "quality_out", "failed_frac"):
            print(f"{name:<14} " + json.dumps(figure))
        else:
            parts = [f"{k}={v:.6g}" for k, v in figure.items()
                     if k.startswith("p") and v is not None]
            print(f"{name:<14} {' '.join(parts)} {figure['unit']} n={figure['n']}")
    if "overhead" in result:
        print("trace_overhead " + json.dumps(result["overhead"]))
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']} {metric['unit']}")
    for error in result["errors"]:
        print(f"failed: {error}")


if __name__ == "__main__":
    sys.exit(main())
