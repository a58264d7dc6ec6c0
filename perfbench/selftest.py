"""Harness self-test at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark once untraced and
twice traced, on shrunken inputs, and checks that

- each run exits 0 and reports ``correct`` with no failed operation;
- every metric BENCHMARK.json names is emitted, with its unit;
- the counts computed from the tape repeat exactly across the traced runs;
- the runs of one seed give the same checkpoint sha256 and quality;

and that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600)


def check_workload(name: str, spec: dict, exact: tuple) -> list[str]:
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traced, outputs = [], set()
    for trace in (0, 1, 1):
        done = run(name, trace)
        where = f"{name} --trace {trace}"
        if done.returncode != 0:
            problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                            f"attempted={result['attempted']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted[trace]:
            problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted[trace]}")
        for metric, value in result["metrics"].items():
            if not isinstance(value["value"], (int, float)):
                problems.append(f"{where}: {metric} = {value['value']!r}")
        detail = json.loads((HERE / "out" / f"{name}-seed{SEED}-trace{trace}.json").read_text())
        quality = detail["report"]["quality_out"]
        outputs.add((quality["value"], quality["checkpoint_sha256"]))
        if trace:
            traced.append({k: result["metrics"][k]["value"] for k in exact})
    if len(outputs) > 1:
        problems.append(f"{name}: runs of seed {SEED} disagree on (quality, sha256): {outputs}")
    if len(traced) == 2 and traced[0] != traced[1]:
        problems.append(f"{name}: tape counts differ between traced runs: {traced}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the package the benchmark must fail, not report."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = run("train_binary", 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import EXACT_METRICS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        found = check_workload(workload["name"], spec, EXACT_METRICS)
        print(f"{workload['name']}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print("problem: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
