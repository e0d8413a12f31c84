"""Self-test of the benchmark: one short run per workload in both modes.

    python3 perfbench/selftest.py

Checks that the last output line is the result object, that every metric
named in BENCHMARK.json is emitted (in the JSON and on its own line) with
its unit, that fail_ratio is 0, and that the benchmark refuses to run, with
a non-zero exit and no result, in a directory without the program sources.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_run(workload: str, trace: int, listed: list[dict]) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not any(line.startswith("fail_ratio 0 ratio") for line in lines):
        problems.append(f"{where}: fail_ratio is not reported as 0")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is {m}")
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no '{name} <value> {unit}' line")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "exact", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"run without sources: exit code {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_run(workload, trace, listed)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
