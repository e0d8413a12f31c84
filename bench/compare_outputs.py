"""Compare the CLI outputs of two revisions byte for byte.

    python3 bench/compare_outputs.py --base HEAD~1 --change HEAD

Each revision is checked out with `git worktree`.  Both run the same
commands, each with its own source tree on PYTHONPATH and a fresh working
directory: every `hyperglue ...` line of the change's README.md, plus a few
more with non-round arguments (EXTRA).  For every command the exit code,
stdout and stderr are kept as files next to the files it writes under
`--out`; stderr has the worktree path replaced by `<tree>`.  Every file of
the two working directories is then compared byte for byte.  One line is
printed per differing or missing file; the exit code is 1 on any difference
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from write_bench import ROOT, SIDES, git

EXTRA = (
    "geom nesting --angle 37 --lenH 2.2 --lenV 3.1 --out out/nesting37",
    'forms family --n 3 --field "Q(sqrt2)" --out out/forms-sqrt2',
    "count --m-max 8 --mode proper --out out/counts-proper",
    # the geom defaults, left out here and set in README's commands or the reverse
    "geom admissible --out out/admissible-default",
    "geom shrink --R 1,3 --spacing 3 --out out/shrink-spacing3",
    "geom extension --length 3 --q 2 --seed 5 --samples 12 --out out/extension-set",
)


def readme_commands(readme: Path) -> list[list[str]]:
    """Arguments of every `hyperglue ...` line in the README's code blocks."""
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("hyperglue ")]


def run_all(tree: Path, run_dir: Path, commands: list[list[str]]) -> None:
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for k, argv in enumerate(commands):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperglue.cli", *argv],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=600, check=False,
        )
        stem = f"{k:02d}"
        (logs / f"{stem}.exit").write_text(f"{proc.returncode}\n")
        (logs / f"{stem}.stdout").write_text(proc.stdout)
        (logs / f"{stem}.stderr").write_text(proc.stderr.replace(str(tree), "<tree>"))


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


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
            git("worktree", "add", "--detach", str(trees[side]), commit)
        commands = readme_commands(trees["change"] / "README.md")
        commands += [shlex.split(line) for line in EXTRA]
        runs = {side: workdir / f"{side}-run" for side in SIDES}
        for side in SIDES:
            run_all(trees[side], runs[side], commands)

        names = sorted(files_under(runs["base"]) | files_under(runs["change"]))
        differing = 0
        for name in names:
            base, change = runs["base"] / name, runs["change"] / name
            label = name
            if name.parts[0] == "logs":
                label = f"{name} (hyperglue {shlex.join(commands[int(name.stem)])})"
            if not base.is_file() or not change.is_file():
                print(f"{label}: missing in {'base' if not base.is_file() else 'change'}")
            elif not filecmp.cmp(base, change, shallow=False):
                print(f"{label}: differs")
            else:
                continue
            differing += 1
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=False)
        shutil.rmtree(workdir, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    print(f"{len(commands)} commands, {len(names)} files: "
          f"{len(names) - differing} identical, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
