"""Compare the CLI outputs of two revisions byte for byte, or rewrite the golden.

    python3 bench/compare_outputs.py --base HEAD~1 --change HEAD
    python3 bench/compare_outputs.py --write-golden

The commands are the `hyperglue ...` lines of `tests/golden/cli/commands.txt`,
in order.  Each runs in a fresh interpreter and a working directory of its
own, named `NN` after its place in the list.  Its exit code, stdout and
stderr are kept there as the files `exit`, `stdout` and `stderr`, next to
the files it writes under `--out`; stderr has the source tree's path
replaced by `<tree>`.  A file over 4 KB is compared and stored as
`<name>.sha256`, its digest and size.

With --base and --change, both revisions are exported with `git archive`
and run the change's command list, each with its own source tree on
PYTHONPATH.  Every file of one run is compared with the same file of the
other; one line is printed per differing or missing file, and the exit code
is 1 on any difference and 0 otherwise.

With --write-golden, the working tree runs the list and `tests/golden/cli/`
is rewritten from its files, with the Python, numpy and scipy versions in
`versions.json`.  `tests/test_cli.py` runs the same list twice in one
interpreter through `hyperglue.cli.main` and compares it with the golden.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from write_bench import ROOT, SIDES, export, git

GOLDEN = Path("tests", "golden", "cli")
LARGE = 4096


def read_commands(tree: Path) -> list[str]:
    """The `hyperglue ...` lines of the tree's golden command list, in order."""
    lines = (tree / GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.startswith("hyperglue ")]


def save_result(run_dir: Path, code, stdout: str, stderr: str) -> None:
    for name, text in (("exit", f"{code}\n"), ("stdout", stdout), ("stderr", stderr)):
        (run_dir / name).write_text(text, encoding="utf-8")


def run_all(tree: Path, root: Path, commands: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for k, line in enumerate(commands):
        run_dir = root / f"{k:02d}"
        run_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "hyperglue.cli", *shlex.split(line)[1:]],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=600, check=False,
        )
        save_result(run_dir, proc.returncode, proc.stdout, proc.stderr.replace(str(tree), "<tree>"))


def snapshot(root: Path) -> dict[str, bytes]:
    """Every file of the command directories under `root`, by its path there;
    a file over 4 KB as `<path>.sha256`, holding its digest and size."""
    files = {}
    # `*/**/*` matches only below a command directory, not the list beside them
    for path in sorted(root.glob("*/**/*")):
        if path.is_file():
            name, data = path.relative_to(root).as_posix(), path.read_bytes()
            if len(data) > LARGE:
                name += ".sha256"
                data = f"{hashlib.sha256(data).hexdigest()} {len(data)}\n".encode()
            files[name] = data
    return files


def differences(left: dict, right: dict, commands: list[str], sides: tuple[str, str]) -> list[str]:
    """One line per file that differs or is missing, naming its command."""
    lines = []
    for name in sorted(left.keys() | right.keys()):
        if left.get(name) != right.get(name):
            k, _, file = name.partition("/")
            command = commands[int(k)] if int(k) < len(commands) else "not in the list"
            state = ("differs" if name in left and name in right
                     else f"missing in {sides[name in left]}")
            lines.append(f"{k} ({command}): {file}: {state}")
    return lines


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def write_golden() -> int:
    golden, commands = ROOT / GOLDEN, read_commands(ROOT)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        run_all(ROOT, Path(tmp), commands)
        files = snapshot(Path(tmp))
    for old in golden.iterdir():
        if old.is_dir():
            shutil.rmtree(old)
    for name, data in files.items():
        (golden / name).parent.mkdir(parents=True, exist_ok=True)
        (golden / name).write_bytes(data)
    (golden / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(commands)} commands, {len(files)} files")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite tests/golden/cli from the working tree and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()

    workdir = Path(tempfile.mkdtemp(prefix="compare-"))
    runs = {}
    try:
        for side, rev in zip(SIDES, (args.base, args.change)):
            export(git("rev-parse", "--verify", f"{rev}^{{commit}}"), workdir / side)
        commands = read_commands(workdir / "change")
        for side in SIDES:
            run_all(workdir / side, workdir / f"{side}-run", commands)
            runs[side] = snapshot(workdir / f"{side}-run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = differences(runs["base"], runs["change"], commands, SIDES)
    files = len(runs["base"].keys() | runs["change"].keys())
    for line in lines:
        print(line)
    print(f"base vs change: {len(commands)} commands, {files} files: "
          f"{files - len(lines)} identical, {len(lines)} differing")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
