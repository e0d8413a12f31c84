"""CLI behaviour: outputs, exit codes, determinism, CSV/SVG pairing."""

import csv
import dataclasses
import functools
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperglue import cli, glueing
from hyperglue.cli import main
from hyperglue.hyperboloid import basepoint
from hyperglue.voronoi import MarkedGeodesic, classify_facets
from oracles import E1, J2, Pairing, glued, plane_config, row_refs, run_python

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the golden's format is defined once, by the script that writes it
sys.path.insert(0, str(ROOT / "bench"))
from compare_outputs import GOLDEN, differences, read_commands, save_result, snapshot, versions  # noqa: E402


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

    def test_check_rational_field_takes_a_zero_sqrt2_part(self, capsys):
        assert run_cli("forms", "check", "--coeffs", "3 + 0*r2,-1,1", "--field", "Q") == 0
        out = capsys.readouterr().out
        assert "form: <3, -1, 1> over Q" in out
        assert "admissible=true" in out

    def test_check_non_admissible(self, capsys):
        assert run_cli("forms", "check", "--coeffs", "1,1,1", "--field", "Q") == 0
        assert "admissible=false" in capsys.readouterr().out

    def test_zero_denominator_is_an_error(self):
        result = run_subprocess("forms", "check", "--coeffs", "1/0,1,1")
        assert result.returncode == 1
        assert result.stderr == "error: '1/0' has a zero denominator\n"

    def test_unwritable_out_is_an_error(self, tmp_path):
        parent = tmp_path / "file"
        parent.write_text("")
        result = run_subprocess("forms", "family", "--n", "3", "--out", str(parent / "x"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "Not a directory" in result.stderr
        assert len(result.stderr.splitlines()) == 1

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

    @pytest.mark.parametrize("samples", ["-3", "-1", "10001"])
    def test_extension_samples_outside_the_cap_refused(self, tmp_path, capsys, samples):
        out = tmp_path / "e"
        assert run_cli("geom", "extension", "--samples", samples, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples must lie in 0..10000: ") and "3.3 MB" in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", [0, 10000])
    def test_extension_samples_at_the_ends_of_the_range(self, tmp_path, capsys, samples):
        out = tmp_path / "e"
        assert run_cli("geom", "extension", "--samples", str(samples), "--out", str(out)) == 0
        ideal = sum(r[0] == "ideal-sample" for r in read_csv(out / "extension.csv"))
        # a draw inside the unit disk gives one row per cap
        assert ideal % 2 == 0 and (ideal > 0) == (samples > 0) and ideal <= 2 * samples
        assert json.loads((out / "manifest.json").read_text())["params"]["samples"] == samples

    @pytest.mark.parametrize(
        "job, cause",
        [
            (("geom", "shrink", "--R", "2,4,800"), "800"),
            (("geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "800"), "800"),
            (("geom", "extension", "--length", "900"), "900"),
            # far orbit points that binary64 cannot resolve, or cannot hold
            (("geom", "extension", "--length", "15"), "not finite and positive"),
            (("geom", "shrink", "--R", "2,4,19"), "not finite and positive"),
            # walls so close that the other family is pruned within tolerance
            (("geom", "shrink", "--R", "2,4", "--spacing", "0.001"), "lost its second-type walls"),
            (("geom", "extension", "--length", "300"), "word length 3 overflow"),
            (("geom", "extension", "--q", "inf"), "summand inf is not finite"),
            # a NaN angle turns the second axis into a NaN tangent
            (("geom", "nesting", "--angle", "nan", "--lenH", "1", "--lenV", "1"), "tangent must be space-like"),
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


class TestCellRows:
    def test_facet_rows(self):
        _, _, cell = plane_config("cyclic", (2.0,))
        axis = MarkedGeodesic(J2, basepoint(J2), E1, 0, 2.0)
        rows = cli._cell_facet_rows(classify_facets(cell, [axis]))
        assert rows[0][0] == "center"
        assert len(rows) == 1 + len(cell.facets)
        assert all(r[3] == "first" for r in rows[1:])


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

    def test_too_large_refused(self, tmp_path, capsys):
        out = tmp_path / "big"
        assert run_cli("count", "--m-max", "41", "--mode", "free", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "capped at 40" in err and "free-mode" in err and "proper" not in err
        assert not out.exists()

    def test_free_mode_past_the_proper_cap(self, tmp_path):
        out = tmp_path / "f12"
        assert run_cli("count", "--m-max", "12", "--mode", "free", "--out", str(out)) == 0
        rows = [[int(x) for x in r] for r in read_csv(out / "counts.csv")[1:]]
        # OEIS A005815 from m = 5 on
        assert [r[1] for r in rows] == [
            1, 15, 465, 19355, 1024380, 66462606, 5188453830, 480413921130
        ]
        assert all(total == base * m * 4 ** (2 * m) for m, base, total in rows)

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

    def test_checks_build_one_cover_per_batch(self, tmp_path, capsys, monkeypatch):
        # the root block v decides the base and all-+1 flags orient the
        # cover, so no check builds the cover of a cover
        cover_of = glueing.AssemblyBatch.cover.func
        built = []

        def counted(batch):
            built.append(batch.layout)
            return cover_of(batch)

        counting = functools.cached_property(counted)
        counting.__set_name__(glueing.AssemblyBatch, "cover")
        monkeypatch.setattr(glueing.AssemblyBatch, "cover", counting)
        assert run_cli("count", "--m-max", "7", "--check-assemblies", "--out", str(tmp_path / "c")) == 0
        assert "assembly checks: all passed (481 graphs, m = 5..7)" in capsys.readouterr().out
        # one batch of m = 5 and of m = 6, and ceil(465 / 64) = 8 of m = 7
        assert len(built) == 10
        assert not any(piece.provenance[0] == "cover" for layout in built for piece in layout.pieces)

    def test_failed_assembly_check_is_reported(self, tmp_path, capsys, monkeypatch):
        # the complex itself is no orientable cover of it, has no deck
        # involution, and is not of twice its volume
        monkeypatch.setattr(glueing.AssemblyBatch, "cover", property(lambda batch: batch))
        code = run_cli("count", "--m-max", "5", "--check-assemblies", "--out", str(tmp_path / "c"))
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL m=5: double cover not orientable" in captured.err.splitlines()
        assert "FAIL m=5: deck involution not free or not commuting" in captured.err.splitlines()
        assert "assembly checks: 3 failures (1 graph, m = 5)" in captured.out.splitlines()

    def test_cover_without_glueings_fails(self, tmp_path, capsys, monkeypatch):
        # the cover's pieces and deck involution, but no join and no slot glued to another
        cover_of = glueing.AssemblyBatch.cover.func

        def unglued(batch):
            cover = cover_of(batch)
            slots = np.broadcast_to(np.arange(cover.partner.shape[1]), cover.partner.shape)
            return dataclasses.replace(cover, partner=slots, internal_joins=())

        monkeypatch.setattr(glueing.AssemblyBatch, "cover", property(unglued))
        code = run_cli("count", "--m-max", "7", "--check-assemblies", "--out", str(tmp_path / "c"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines().count("FAIL m=7: double cover not closed") == 465
        assert "assembly checks: 481 failures (481 graphs, m = 5..7)" in captured.out.splitlines()

    def test_vertex_blocks_glued_together_fail(self, tmp_path, capsys, monkeypatch):
        # K5's complex with vertex blocks 0 and 2 glued to each other, and
        # edge blocks 5 and 6 (edges (0, 1) and (0, 2)), in place of the
        # glueings (0, 0)-(5, 0) and (2, 0)-(6, 1): closed, connected and
        # non-orientable, so only the vertex-edge check fails
        assemble_batch = glueing.assemble_batch

        def crossed(m, edges, root, labels):
            k5 = row_refs(assemble_batch(m, edges, root, labels), 0)
            moved = {((0, 0), (5, 0)), ((2, 0), (6, 1))}
            pairings = [p for p in k5.pairings if (p.a, p.b) not in moved]
            pairings += [Pairing((0, 0), (2, 0)), Pairing((5, 0), (6, 1))]
            complex_ = glued(k5.pieces, pairings)
            assert complex_.closed()[0] and complex_.components[0] == 1
            assert not complex_.orientable()[0]
            return complex_

        monkeypatch.setattr(glueing, "assemble_batch", crossed)
        code = run_cli("count", "--m-max", "5", "--check-assemblies", "--out", str(tmp_path / "c"))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == ["FAIL m=5: glueing not between a vertex block and an edge block"]
        assert "assembly checks: 1 failures (1 graph, m = 5)" in captured.out.splitlines()

    def test_proper_up_to_the_cap(self, tmp_path, capsys):
        out = tmp_path / "p13"
        assert run_cli("count", "--m-max", "13", "--mode", "proper", "--out", str(out)) == 0
        totals = {int(r[0]): int(r[2]) for r in read_csv(out / "counts.csv")[1:]}
        assert sorted(totals) == list(range(5, 14))
        assert {m: totals[m] for m in (6, 8, 10)} == {6: 4320, 8: 23063040, 10: 217532044800}
        assert all(totals[m] == 0 for m in range(5, 14, 2))

    def test_too_large_message(self, tmp_path, capsys):
        assert run_cli("count", "--m-max", "14", "--mode", "proper", "--out", str(tmp_path / "p")) == 2
        err = capsys.readouterr().err
        assert "capped at 13" in err and "proper-mode" in err
        assert "exhaustive enumeration" not in err


class TestGolden:
    """The byte contract: every command of the golden's list, run twice in
    one interpreter, gives the exit code, stdout, stderr and files that
    each gave in a fresh interpreter when the golden was written.  Each
    manifest lists exactly the other files of its directory, and a command
    that exits non-zero leaves no directory at its --out path."""

    def test_every_command_matches_the_golden_twice(self, tmp_path, monkeypatch, capsys):
        commands = read_commands(ROOT)
        golden = snapshot(ROOT / GOLDEN)
        written = json.loads((ROOT / GOLDEN / "versions.json").read_text(encoding="utf-8"))
        for run in ("first", "second"):
            for k, line in enumerate(commands):
                run_dir = tmp_path / run / f"{k:02d}"
                run_dir.mkdir(parents=True)
                monkeypatch.chdir(run_dir)
                argv = shlex.split(line)[1:]
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                save_result(run_dir, code, *capsys.readouterr())
                if code != 0 and "--out" in argv:
                    out = run_dir / argv[argv.index("--out") + 1]
                    assert not out.exists(), f"{k:02d} ({line}) exited {code} and left {out}"
            for manifest in sorted((tmp_path / run).glob("*/**/manifest.json")):
                others = sorted(p.name for p in manifest.parent.iterdir() if p != manifest)
                listed = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
                assert listed == others, f"{manifest.relative_to(tmp_path)} lists {listed}, beside {others}"
            lines = differences(golden, snapshot(tmp_path / run), commands, ("golden", f"the {run} run"))
            assert not lines, "\n".join(
                [f"{run} run of {GOLDEN}/commands.txt in one interpreter:", *lines,
                 f"golden written with {written}; this run has {versions()}"]
            )

    def test_every_readme_command_is_listed(self):
        listed = set(read_commands(ROOT))
        lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()]
        readme = [line for line in lines if line.startswith("hyperglue ")]
        assert len(readme) >= 8
        assert [line for line in readme if line not in listed] == []


class TestRepeatedCalls:
    """`main` keeps no state from one call to the next."""

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
