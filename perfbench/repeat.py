"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workloads exact cells cli --seeds 1-10 [--trace 0] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json.  For every metric it prints the median,
the quartiles from `statistics.quantiles(values, n=4)` and their distance
as a share of the median, next to the metric's bound.  With `--trace 0` it
does the same for the unscaled wall figures of each run, and prints the
median over runs of the per-pass coefficient of variation, scaled and wall,
which shows how much of the pass-to-pass noise the host-speed scaling
removes.  With --out the per-run values, per-pass times included, and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    wall = next((json.loads(line[5:]) for line in lines if line.startswith("wall ")), None)
    return {**result, "env": env, "wall": wall}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def coefficient_of_variation(values: list[float]) -> float:
    return statistics.pstdev(values) / statistics.mean(values)


def print_summary(title: str, summary: dict, bounds: dict) -> None:
    print(f"{title}: metric, median, q1, q3, spread, bound")
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name:28s} {s['median']:.6g} {s['unit']}  [{s['q1']:.6g}, {s['q3']:.6g}]"
              f"  spread {spread}  bound {bounds.get(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["exact", "cells", "cli"])
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print_summary(workload, summary, bounds)
        if all(r["wall"] for r in runs):
            units = {"pass_s": "s", "answers_per_s": "1/s", "task_ms.p50": "ms", "task_ms.p90": "ms",
                     "setup_s": "s", "kernel_ms": "ms"}
            wall = {name: {"unit": unit, **summarise([r["wall"][name] for r in runs])}
                    for name, unit in units.items()}
            cv = {key: statistics.median(coefficient_of_variation(r["wall"][key]) for r in runs)
                  for key in ("passes_s", "passes_wall_s")}
            report["workloads"][workload].update(wall_summary=wall, pass_cv=cv)
            print_summary(f"{workload} unscaled wall", wall, {})
            print(f"  per-pass coefficient of variation, median over runs: "
                  f"scaled {cv['passes_s']:.4f}, wall {cv['passes_wall_s']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
