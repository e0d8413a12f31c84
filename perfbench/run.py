"""hyperglue benchmark: one workload per run, as a single-process closed loop.

    python3 perfbench/run.py --workload {exact,cells,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  A run
sets up (imports `hyperglue.cli`, builds the seeded task list, runs one
warm-up pass), then repeats full passes over the task list, one task at a
time, until `--seconds` have elapsed.  Every answer is checked outside the
timed region.  With `--trace 0` it reports the end-to-end metrics: task
times are scaled to a nominal host speed by the reference kernel in
hostspeed.py, and the unscaled wall figures are printed on the `wall` line;
set-up, scaled the same way, is taken in this process and in four fresh
interpreters, and the median is reported.  With `--trace 1` it spends half the time on
untraced passes and half on passes with every public hyperglue function
wrapped as a span, and reports per-layer metrics per traced pass in wall
seconds.

Human-readable lines (environment, metrics with units, fail_ratio and sample
counts) come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# pinned before numpy or scipy can be imported
THREAD_SETTINGS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "cells", "cli")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
PROBE_TIMEOUT_S = 150


@dataclass
class PassResult:
    wall: list[float]  # wall seconds per task
    latencies: list[float]  # the same, scaled to the nominal host speed
    kernel: list[float]  # reference kernel times, before the first task and after each
    failed: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def wall_seconds(self) -> float:
        return sum(self.wall)


def _judge(task, result, task_counts) -> bool:
    """Untimed: per-layer counts (traced passes only), then the answer check."""
    try:
        if task_counts is not None and task.counts is not None:
            for name, value in task.counts(result).items():
                task_counts[name] += value
        return bool(task.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def run_pass(tasks, tracer=None, task_counts=None) -> PassResult:
    """One task at a time; only `task.run` is inside the timed region.

    The reference kernel of hostspeed.py is timed before the first task and
    after each task, and every task's wall time is scaled by the two kernel
    times around it.
    """
    wall: list[float] = []
    kernel = [hostspeed.sample()]
    failed: Counter = Counter()
    for task in tasks:
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = task.run()
            else:
                tracer.active = True
                try:
                    result = tracer.call(f"task.{task.kind}", task.run)
                finally:
                    tracer.active = False
        except Exception as exc:
            error = exc
        wall.append(time.perf_counter() - start)
        kernel.append(hostspeed.sample())
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
        if error is not None or not _judge(task, result, task_counts):
            failed[task.kind] += 1
    scaled = [x * hostspeed.NOMINAL_S / (0.5 * (kernel[i] + kernel[i + 1])) for i, x in enumerate(wall)]
    return PassResult(wall, scaled, kernel, failed)


def passes_until(deadline: float, tasks, **kwargs) -> list[PassResult]:
    passes = [run_pass(tasks, **kwargs)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(tasks, **kwargs))
    return passes


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs and run one warm-up pass.

    Returns the tasks, the set-up time scaled to the nominal host speed, the
    same in wall seconds, and the warm-up pass.  Set-up time is the import,
    input generation and the warm-up pass's tasks; the reference kernel runs
    between them are not counted.  The import and input generation are
    scaled by the kernel times just before and just after them.
    """
    before = statistics.median(hostspeed.sample() for _ in range(3))
    start = time.perf_counter()
    import hyperglue.cli  # noqa: F401

    if Path(hyperglue.cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: hyperglue was imported from outside {SRC}")
    import workloads

    tasks = workloads.build_tasks(workload, seed, workdir)
    generated = time.perf_counter() - start
    warm_up = run_pass(tasks)
    scale = hostspeed.NOMINAL_S / (0.5 * (before + warm_up.kernel[0]))
    return tasks, generated * scale + warm_up.seconds, generated + warm_up.wall_seconds, warm_up


def probe_setup(args) -> tuple[float, float]:
    """Set-up time, scaled and wall, of a fresh interpreter running the same workload and seed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["setup_wall_s"])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "threads": {name: os.environ.get(name) for name in THREAD_SETTINGS},
    }


def end_to_end(args, tasks, setup) -> tuple[dict, list[PassResult]]:
    passes = passes_until(time.perf_counter() + args.seconds, tasks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    latencies = [x for p in passes for x in p.latencies]
    answered = len(latencies) - sum(sum(p.failed.values()) for p in passes)
    metrics = {
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "answers_per_s": (answered / sum(p.seconds for p in passes), "1/s"),
        "task_ms.p50": (1000.0 * percentile(latencies, 0.50), "ms"),
        "task_ms.p90": (1000.0 * percentile(latencies, 0.90), "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_latencies = [x for p in passes for x in p.wall]
    wall = {
        "pass_s": statistics.median(p.wall_seconds for p in passes),
        "answers_per_s": answered / sum(p.wall_seconds for p in passes),
        "task_ms.p50": 1000.0 * percentile(wall_latencies, 0.50),
        "task_ms.p90": 1000.0 * percentile(wall_latencies, 0.90),
        "setup_s": statistics.median(w for _, w in setups),
        "kernel_ms": 1000.0 * statistics.median(k for p in passes for k in p.kernel),
        "passes_s": [p.seconds for p in passes],
        "passes_wall_s": [p.wall_seconds for p in passes],
    }
    print(f"setup samples: {' '.join(f'{s:.4f}' for s, _ in setups)} s")
    print("wall " + json.dumps(wall))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, passes


def per_layer(args, tasks) -> tuple[dict, list[PassResult]]:
    from spans import Tracer, per_layer_metrics

    start = time.perf_counter()
    untraced = passes_until(start + args.seconds / 2.0, tasks)
    tracer = Tracer()
    task_counts: dict = defaultdict(float)
    tracer.install()
    try:
        traced = passes_until(
            start + args.seconds, tasks, tracer=tracer, task_counts=task_counts
        )
    finally:
        tracer.uninstall()
    traced_s = statistics.median(p.wall_seconds for p in traced)
    untraced_s = statistics.median(p.wall_seconds for p in untraced)
    metrics = per_layer_metrics(tracer, len(traced), traced_s, untraced_s, task_counts)
    metrics["wall.pass_s"] = {"value": untraced_s, "unit": "s"}
    kernel_ms = 1000.0 * statistics.median(k for p in untraced for k in p.kernel)
    metrics["host.kernel_ms"] = {"value": kernel_ms, "unit": "ms"}
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}, spans kept {len(tracer.spans)}")
    print("self-time share of the traced pass:")
    for name in ("numfield.self_s", "qforms.self_s", "hyperboloid.exact.self_s",
                 "hyperboloid.float.self_s", "voronoi.self_s", "voronoi.lp.self_s", "glueing.self_s",
                 "svgout.self_s", "cli.self_s", "trace.uncovered_s"):
        print(f"  {name:26s} {100.0 * metrics[name]['value'] / traced_s:6.1f} %")
    return metrics, untraced + traced


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperglue" / "__init__.py").is_file():
        print(f"error: no hyperglue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tasks, setup_s, setup_wall_s, warm_up = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        print("env " + json.dumps(environment(args), sort_keys=True))
        if args.trace:
            metrics, passes = per_layer(args, tasks)
        else:
            metrics, passes = end_to_end(args, tasks, (setup_s, setup_wall_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    runs = [warm_up] + passes
    attempted = sum(len(p.latencies) for p in runs)
    failures = sum((p.failed for p in runs), Counter())
    failed = sum(failures.values())
    measured = sum(len(p.latencies) for p in passes)
    print(f"workload {args.workload}: {len(passes)} passes of {len(tasks)} tasks, {measured} task samples")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} tasks, warm-up included)")
    if failures:
        print(f"failed task kinds: {dict(failures)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
