"""Benchmark two revisions in alternating pairs and write BENCH_<pr>.json.

    python3 bench/write_bench.py --pr 6 --base HEAD~1 --change HEAD \
        --pairs cells=10 exact=4 cli=4 [--seed-start 1] [--trace] [--workdir DIR]

Each revision is exported with `git archive` into a temporary directory and
benchmarked with its own copy of the benchmark command from BENCHMARK.json
(`perfbench/run.py`), for the run length BENCHMARK.json sets; both revisions
must declare the same command, run length and metrics.  Pair k of a
workload runs both revisions on seed `seed-start + k`, one run at a time,
the base first in even pairs and the change first in odd ones.

For every end-to-end metric the file holds both sides' values, medians and
quartiles (`statistics.quantiles(n=4)`), the pairs the change won, lost and
tied, the relative change of the median, whether it is a regression beyond
the metric's bound, and whether a gain claim would hold: at least ten
pairs, wins in nine tenths of them and a median gap wider than the base's
quartile spread.  It also records the failed tasks per side, the seeds,
both revisions (commit and `src` tree), nproc and the Python, numpy and
scipy versions.  `--trace` adds one traced run per side on each of the first
three seeds of every workload (fewer if it has fewer pairs), in the same
alternating order, and stores each per-layer metric per side as values,
median and quartiles, with the traced runs' own failed and attempted task
counts per side under `trace.failed`; a traced run that fails any task is
also printed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
ENV_KEYS = ("nproc", "affinity", "machine", "python", "numpy", "scipy")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the committed files of `commit` into the new directory `dest`."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_benchmark(tree: Path, spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {**json.loads(lines[-1]), "env": env}


def pair_order(seeds: list[int]):
    """(seed, side) in run order: the base first in even pairs, the change in odd ones."""
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            yield seed, side


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "base": summary(base), "change": summary(change),
           "wins": sum(g > 0 for g in gains), "losses": sum(g < 0 for g in gains),
           "ties": sum(g == 0 for g in gains)}
    mb, mc = out["base"]["median"], out["change"]["median"]
    out["relative_change"] = (mc - mb) / mb if mb else None
    out["regression"] = sign * (mc - mb) > metric["bound"] * abs(mb)
    out["gain_rule_met"] = (
        len(gains) >= 10
        and out["wins"] >= math.ceil(0.9 * len(gains))
        and sign * (mb - mc) > out["base"]["q3"] - out["base"]["q1"]
    )
    return out


def failed_counts(runs: dict[str, list[dict]]) -> dict:
    return {side: {"failed": sum(r["failed"] for r in runs[side]),
                   "attempted": sum(r["attempted"] for r in runs[side])}
            for side in SIDES}


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: --pairs takes workload=count, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", nargs="+", required=True, help="workload=count ...")
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", type=Path, default=None, help="parent of the exported trees")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    pairs = parse_pairs(args.pairs)
    out_path = args.out or ROOT / f"BENCH_{args.pr}.json"

    workdir = Path(tempfile.mkdtemp(prefix="bench-", dir=args.workdir))
    revisions, trees = {}, {}
    try:
        for side, rev in zip(SIDES, (args.base, args.change)):
            commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
            trees[side] = workdir / side
            export(commit, trees[side])
            revisions[side] = {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{commit}:src")}
        specs = {side: json.loads((trees[side] / "BENCHMARK.json").read_text()) for side in SIDES}
        keys = ("command", "run_seconds", "end_to_end")
        if any(specs["base"][k] != specs["change"][k] for k in keys):
            raise SystemExit("error: the two revisions declare different benchmarks")
        spec = specs["base"]
        unknown = set(pairs) - {w["name"] for w in spec["workloads"]}
        if unknown:
            raise SystemExit(f"error: unknown workloads {sorted(unknown)}")

        report = {"pr": args.pr, "command": spec["command"], "run_seconds": spec["run_seconds"],
                  "revisions": revisions, "workloads": {}}
        for workload, count in pairs.items():
            seeds = [args.seed_start + k for k in range(count)]
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for seed, side in pair_order(seeds):
                runs[side].append(run_benchmark(trees[side], spec, workload, seed, False))
                print(f"{workload} seed {seed} {side} done", flush=True)
            entry = {
                "seeds": seeds,
                "first_in_pair": ["base" if k % 2 == 0 else "change" for k in range(count)],
                "metrics": {
                    m["name"]: compare(
                        m,
                        [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    )
                    for m in spec["end_to_end"]
                },
                "failed": failed_counts(runs),
            }
            if args.trace:
                traced: dict[str, list[dict]] = {side: [] for side in SIDES}
                for seed, side in pair_order(seeds[:3]):
                    run = run_benchmark(trees[side], spec, workload, seed, True)
                    traced[side].append(run)
                    failed = f", {run['failed']} of {run['attempted']} tasks failed" if run["failed"] else ""
                    print(f"{workload} seed {seed} {side} traced{failed}", flush=True)
                entry["trace"] = {"seeds": seeds[:3], "failed": failed_counts(traced)}
                for side, side_runs in traced.items():
                    entry["trace"][side] = {
                        name: summary([r["metrics"][name]["value"] for r in side_runs])
                        for name in side_runs[0]["metrics"]
                    }
            report["workloads"][workload] = entry
            env = runs["base"][0]["env"]
            report.setdefault("environment", {k: env[k] for k in ENV_KEYS})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:6s} {name:14s} base {m['base']['median']:.6g} -> change "
                  f"{m['change']['median']:.6g} {m['unit']}  wins {m['wins']}/{len(entry['seeds'])}"
                  f"  regression {m['regression']}  gain rule {m['gain_rule_met']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
