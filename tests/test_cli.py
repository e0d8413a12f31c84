"""CLI behaviour: outputs, exit codes, determinism, CSV/SVG pairing."""

import csv
import json
import shlex
import shutil
from pathlib import Path

import pytest

from hyperglue import cli, glueing
from hyperglue.cli import main
from oracles import run_python

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


def run_subprocess(*argv):
    return run_python("-m", "hyperglue.cli", *argv)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestForms:
    def test_family_csv(self, tmp_path, capsys):
        out = tmp_path / "fam"
        assert run_cli("forms", "family", "--n", "3", "--field", "Q", "--out", str(out)) == 0
        rows = read_csv(out / "family.csv")
        assert len(rows) == 7  # header + six forms
        assert all(r[3] == "true" for r in rows[1:])
        certs = read_csv(out / "certificates.csv")
        assert len(certs) == 16  # header + 15 pairs
        assert all(r[2] == "non-equivalent" for r in certs[1:])
        assert (out / "manifest.json").exists()

    def test_family_sqrt2(self, tmp_path):
        out = tmp_path / "fam2"
        assert run_cli("forms", "family", "--n", "2", "--field", "Q(sqrt2)", "--out", str(out)) == 0
        rows = read_csv(out / "family.csv")
        assert len(rows) == 7

    def test_check_flag_value_with_leading_dash(self, capsys):
        assert run_cli("forms", "check", "--coeffs", "-1,1,1", "--field", "Q") == 0
        assert "admissible=true" in capsys.readouterr().out

    def test_check_non_admissible(self, capsys):
        assert run_cli("forms", "check", "--coeffs", "1,1,1", "--field", "Q") == 0
        assert "admissible=false" in capsys.readouterr().out

    def test_missing_required_flag_exits_2(self):
        result = run_subprocess("forms", "family", "--field", "Q")
        assert result.returncode == 2


class TestGeomCommands:
    def test_nesting_orthogonal_regime(self, tmp_path, capsys):
        out = tmp_path / "n"
        code = run_cli(
            "geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "6",
            "--out", str(out),
        )
        assert code == 0
        assert "no nesting, Poincare pass" in capsys.readouterr().out
        rows = read_csv(out / "nesting.csv")
        verdicts = {r[2] for r in rows[1:] if r[0].startswith("H")}
        assert verdicts == {"disjoint-not-nested"}

    def test_nesting_oblique_regime(self, tmp_path, capsys):
        out = tmp_path / "n2"
        code = run_cli(
            "geom", "nesting", "--angle", "60", "--lenH", "0.3", "--lenV", "8",
            "--out", str(out),
        )
        assert code == 0
        assert "nested pair found" in capsys.readouterr().out
        rows = read_csv(out / "nesting.csv")
        assert any(r[2] == "nested" for r in rows[1:])
        assert any(r[0] == "poincare" and r[2] == "fail" for r in rows[1:])

    def test_shrink_table(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("geom", "shrink", "--R", "2,4,8", "--out", str(out)) == 0
        rows = read_csv(out / "shrink.csv")
        radii = [float(r[2]) for r in rows[1:]]
        assert radii == sorted(radii, reverse=True)

    def test_admissible_demo(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run_cli("geom", "admissible", "--seed", "3", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "violation found" in text and "admissible" in text

    def test_extension_demo(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert run_cli("geom", "extension", "--out", str(out)) == 0
        assert "two conformal copies" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "job, cause",
        [
            (("geom", "shrink", "--R", "2,4,800"), "800"),
            (("geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "800"), "800"),
            (("geom", "extension", "--length", "900"), "900"),
            # far orbit points that binary64 cannot resolve, or cannot hold
            (("geom", "extension", "--length", "15"), "not finite and positive"),
            (("geom", "shrink", "--R", "2,4,19"), "not finite and positive"),
            (("geom", "extension", "--length", "300"), "word length 3 overflow"),
        ],
    )
    def test_overflowing_length_is_an_error(self, tmp_path, job, cause):
        result = run_subprocess(*job, "--out", str(tmp_path / "o"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and cause in result.stderr
        assert len(result.stderr.splitlines()) == 1  # no RuntimeWarning first
        assert "Traceback" not in result.stderr

    def test_unknown_demo_exits_2(self):
        result = run_subprocess("geom", "spin")
        assert result.returncode == 2

    def test_config_file_is_not_an_input(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 9}))
        result = run_subprocess("geom", "admissible", "--config", str(cfg))
        assert result.returncode == 2
        assert "unrecognized arguments: --config" in result.stderr
        assert "Traceback" not in result.stderr

    def test_every_svg_has_sibling_csv(self, tmp_path):
        jobs = [
            ("geom", "admissible", "--seed", "0"),
            ("geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "6"),
            ("geom", "shrink", "--R", "2,4"),
            ("geom", "extension"),
        ]
        for k, job in enumerate(jobs):
            out = tmp_path / f"job{k}"
            assert run_cli(*job, "--out", str(out)) == 0
            svgs = list(out.glob("*.svg"))
            assert svgs
            for svg in svgs:
                assert svg.with_suffix(".csv").exists()


class TestCount:
    def test_table_and_checks(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = run_cli(
            "count", "--m-max", "7", "--mode", "free", "--check-assemblies",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(out / "counts.csv")
        assert [r[1] for r in rows[1:]] == ["1", "15", "465"]
        text = capsys.readouterr().out
        assert "all passed" in text
        assert "growth fit" in text

    def test_empty_table_below_five(self, tmp_path, capsys):
        out = tmp_path / "c4"
        assert run_cli("count", "--m-max", "4", "--out", str(out)) == 0
        rows = read_csv(out / "counts.csv")
        assert len(rows) == 1  # header only
        assert "warning" in capsys.readouterr().out

    def test_too_large_refused(self, tmp_path):
        out = tmp_path / "big"
        assert run_cli("count", "--m-max", "12", "--out", str(out)) == 2

    def test_checks_below_five_check_nothing(self, tmp_path, capsys):
        out = tmp_path / "c4"
        assert run_cli("count", "--m-max", "4", "--check-assemblies", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "assembly checks: nothing checked" in text
        assert "all passed" not in text

    def test_checks_above_seven_name_unchecked_m(self, tmp_path, capsys):
        out = tmp_path / "c9"
        assert run_cli("count", "--m-max", "9", "--check-assemblies", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "assembly checks: all passed (481 graphs, m = 5..7; m = 8..9 not checked)" in text
        rows = read_csv(out / "counts.csv")
        assert [r[1] for r in rows[1:]] == ["1", "15", "465", "19355", "1024380"]

    def test_failed_assembly_check_is_reported(self, tmp_path, capsys, monkeypatch):
        # the complex itself is no orientable cover of it, nor of twice its volume
        monkeypatch.setattr(glueing, "orientation_double_cover", lambda manifold: manifold)
        code = run_cli("count", "--m-max", "5", "--check-assemblies", "--out", str(tmp_path / "c"))
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL m=5: double cover not orientable" in captured.err.splitlines()
        assert "assembly checks: 2 failures (1 graph, m = 5)" in captured.out.splitlines()

    def test_proper_up_to_the_cap(self, tmp_path, capsys):
        out = tmp_path / "p9"
        assert run_cli("count", "--m-max", "9", "--mode", "proper", "--out", str(out)) == 0
        totals = {int(r[0]): int(r[2]) for r in read_csv(out / "counts.csv")[1:]}
        assert totals == {5: 0, 6: 4320, 7: 0, 8: 23063040, 9: 0}

    def test_too_large_message(self, tmp_path, capsys):
        assert run_cli("count", "--m-max", "10", "--mode", "proper", "--out", str(tmp_path / "p")) == 2
        err = capsys.readouterr().err
        assert "capped at 9" in err and "proper-mode" in err
        assert "exhaustive enumeration" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "job",
        [
            ("geom", "admissible", "--seed", "7"),
            ("geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "6"),
            ("geom", "nesting", "--angle", "60", "--lenH", "0.3", "--lenV", "8"),
            ("geom", "shrink", "--R", "2,4,8,16"),
            ("geom", "extension", "--seed", "5"),
            ("forms", "family", "--n", "3", "--field", "Q"),
            ("count", "--m-max", "6", "--mode", "free"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, job):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*job, "--out", str(out1)) == 0
        assert run_cli(*job, "--out", str(out2)) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def readme_commands() -> list[list[str]]:
    """Arguments of every `hyperglue ...` line in README.md."""
    lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("hyperglue ")]


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRepeatedCalls:
    """`main` keeps no state from one call to the next."""

    def test_readme_commands_repeat_after_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) >= 8

        def run_all(between=()):
            results = []
            for k, argv in enumerate(commands):
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
                if k < len(between):
                    between[k]()
            return results

        def usage_error():
            with pytest.raises(SystemExit) as exc:
                main(["geom", "spin", "--out", "out/spin"])
            assert exc.value.code == 2
            assert "invalid choice: 'spin'" in capsys.readouterr().err

        def refused_input():
            assert main(["geom", "extension", "--length", "13", "--out", "out/refused"]) == 1
            assert capsys.readouterr().err.startswith("error: the bisector")
            shutil.rmtree("out/refused", ignore_errors=True)

        first = run_all(between=(usage_error, refused_input))
        first_files = files_under(tmp_path / "out")
        assert [code for code, _, _ in first] == [0] * len(commands)
        shutil.rmtree(tmp_path / "out")
        assert run_all() == first
        assert files_under(tmp_path / "out") == first_files

    def test_handler_rebound_after_first_call_runs(self, monkeypatch, capsys):
        assert run_cli("forms", "check", "--coeffs", "-1,1,1", "--field", "Q") == 0
        seen = []

        def fake(args):
            seen.append(args.coeffs)
            return 7

        monkeypatch.setattr(cli, "cmd_forms_check", fake)
        assert run_cli("forms", "check", "--coeffs", "-1,1,1", "--field", "Q") == 7
        assert seen == ["-1,1,1"]
        monkeypatch.undo()
        assert run_cli("forms", "check", "--coeffs", "-1,1,1", "--field", "Q") == 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


# the last line a fresh interpreter prints: which scipy modules it loaded
REPORT_SCIPY = (
    "\nimport json, sys\n"
    "print(json.dumps([m for m in ('scipy', 'scipy.spatial', 'scipy.optimize') if m in sys.modules]))"
)


def scipy_loaded_after(code, cwd):
    result = run_python("-c", code + REPORT_SCIPY, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestStartup:
    """scipy loads at the first Dirichlet cell; `forms` and `count` need numpy only."""

    def test_import_loads_no_scipy(self, tmp_path):
        assert scipy_loaded_after("import hyperglue.cli", tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["forms", "check", "--coeffs", "-1,1,1", "--field", "Q"],
            ["forms", "family", "--n", "3", "--out", "out"],
            ["count", "--m-max", "7", "--mode", "free", "--check-assemblies", "--out", "out"],
        ],
        ids=["forms-check", "forms-family", "count"],
    )
    def test_exact_commands_load_no_scipy(self, tmp_path, argv):
        code = f"from hyperglue.cli import main\nassert main({argv!r}) == 0"
        assert scipy_loaded_after(code, tmp_path) == []

    def test_cells_load_the_hull_but_not_the_lp_solver(self, tmp_path):
        argv = ["geom", "shrink", "--R", "2,4,8,16", "--out", "out"]
        code = f"from hyperglue.cli import main\nassert main({argv!r}) == 0"
        assert scipy_loaded_after(code, tmp_path) == ["scipy", "scipy.spatial"]

    def test_linprog_resolves_on_first_access(self, tmp_path):
        code = (
            "import sys\n"
            "from hyperglue import voronoi\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "lp = voronoi.linprog\n"
            "import scipy.optimize\n"
            "assert lp is scipy.optimize.linprog\n"
            "try:\n"
            "    voronoi.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('voronoi.no_such_name resolved')"
        )
        assert "scipy.optimize" in scipy_loaded_after(code, tmp_path)
