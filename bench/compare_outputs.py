"""Compare the CLI outputs of two revisions byte for byte.

    python3 bench/compare_outputs.py --base HEAD~1 --change HEAD

Each revision is exported with `git archive`.  Both run the same
commands, each with its own source tree on PYTHONPATH and a fresh working
directory: every `hyperglue ...` line of the change's README.md, plus a few
more with non-round arguments (EXTRA).  For every command the exit code,
stdout and stderr are kept as files next to the files it writes under
`--out`; stderr has the exported tree's path replaced by `<tree>`.

Two passes are compared byte for byte, every file of one working directory
against the same file of the other:
- base against change, each command in a process of its own;
- the change's per-process run against the change's in-process run, which
  calls `hyperglue.cli.main` for the whole command list in one interpreter,
  so that any state one call leaves for the next shows up.

One line is printed per differing or missing file; the exit code is 1 on
any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from write_bench import SIDES, export, git

EXTRA = (
    "geom nesting --angle 37 --lenH 2.2 --lenV 3.1 --out out/nesting37",
    # the `equal` and `crossing` nesting verdicts
    "geom nesting --angle 0 --lenH 1 --lenV 1 --out out/nesting-equal",
    "geom nesting --angle 90 --lenH 0.5 --lenV 0.5 --out out/nesting-crossing",
    'forms family --n 3 --field "Q(sqrt2)" --out out/forms-sqrt2',
    "count --m-max 8 --mode proper --out out/counts-proper",
    # the assembly checks with m past the checked range
    "count --m-max 9 --mode free --check-assemblies --out out/counts-checked9",
    # the geom defaults, left out here and set in README's commands or the reverse
    "geom admissible --out out/admissible-default",
    "geom shrink --R 1,3 --spacing 3 --out out/shrink-spacing3",
    "geom extension --length 3 --q 2 --seed 5 --samples 12 --out out/extension-set",
    # outcomes that rest on the last bits of far orbit points: the first is
    # refused by the f(x - y) check, the second answers
    "geom shrink --R 2,4,19 --out out/shrink-refused",
    "geom shrink --R 2,4,18 --out out/shrink-far",
    # a usage error: in process, argparse's exit must leave the parser as it was
    "geom spin --out out/spin",
)


def readme_commands(readme: Path) -> list[list[str]]:
    """Arguments of every `hyperglue ...` line in the README's code blocks."""
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("hyperglue ")]


# Runs every command through `main` in one interpreter and writes
# [exit code, stdout, stderr] per command as JSON to the file in argv[2].
IN_PROCESS = """
import contextlib, io, json, sys
from hyperglue.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def run_all(tree: Path, run_dir: Path, commands: list[list[str]], in_process: bool = False) -> None:
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    if in_process:
        result_file = run_dir.parent / f"{run_dir.name}.json"
        proc = subprocess.run(
            [sys.executable, "-c", IN_PROCESS, json.dumps(commands), str(result_file)],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=1800, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"in-process run failed:\n{proc.stderr}")
        results = json.loads(result_file.read_text(encoding="utf-8"))
    else:
        results = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperglue.cli", *argv],
                cwd=run_dir, env=env, capture_output=True, text=True, timeout=600, check=False,
            )
            results.append([proc.returncode, proc.stdout, proc.stderr])
    for k, (code, stdout, stderr) in enumerate(results):
        stem = f"{k:02d}"
        (logs / f"{stem}.exit").write_text(f"{code}\n")
        (logs / f"{stem}.stdout").write_text(stdout)
        (logs / f"{stem}.stderr").write_text(stderr.replace(str(tree), "<tree>"))


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def compare_runs(title: str, left: Path, right: Path, commands: list[list[str]]) -> tuple[int, int]:
    """Print one line per file that differs or is missing; return (files, differing)."""
    names = sorted(files_under(left) | files_under(right))
    differing = 0
    for name in names:
        a, b = left / name, right / name
        label = name
        if name.parts[0] == "logs":
            label = f"{name} (hyperglue {shlex.join(commands[int(name.stem)])})"
        if not a.is_file() or not b.is_file():
            print(f"{title}: {label}: missing in {left.name if not a.is_file() else right.name}")
        elif not filecmp.cmp(a, b, shallow=False):
            print(f"{title}: {label}: differs")
        else:
            continue
        differing += 1
    return len(names), differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="compare-"))
    trees = {}
    try:
        for side, rev in zip(SIDES, (args.base, args.change)):
            commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
            trees[side] = workdir / side
            export(commit, trees[side])
        commands = readme_commands(trees["change"] / "README.md")
        commands += [shlex.split(line) for line in EXTRA]
        runs = {side: workdir / f"{side}-run" for side in SIDES}
        for side in SIDES:
            run_all(trees[side], runs[side], commands)
        in_process = workdir / "change-in-process-run"
        run_all(trees["change"], in_process, commands, in_process=True)

        passes = (
            ("base vs change", runs["base"], runs["change"]),
            ("change per process vs in process", runs["change"], in_process),
        )
        counts = [(title, *compare_runs(title, left, right, commands)) for title, left, right in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for title, files, differing in counts:
        print(f"{title}: {len(commands)} commands, {files} files: "
              f"{files - differing} identical, {differing} differing")
    return 1 if any(differing for _, _, differing in counts) else 0


if __name__ == "__main__":
    sys.exit(main())
