"""Re-run the recorded mutants and check that the named tests kill them.

    python3 bench/mutants.py

Each mutant names a source file, an exact string in it (it must occur
once), the string that replaces it, and the test ids expected to kill it.
For each mutant the committed files of HEAD are exported with `git archive`
into a fresh directory, the string is replaced there, and only the test
files of those ids run there with pytest.  A mutant is killed when every
expected id fails.  One line is printed per mutant, and the exit code is 1
when an expected kill does not happen.

A known survivor lists the test files it was run against instead of ids,
and the reason no test kills it; it is reported but never fails the run.
Commit before running: uncommitted edits are not exported.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from write_bench import export


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]  # ids expected to kill it; test files for a survivor
    survives: str = ""  # why no test kills it, for a known survivor


GLUEING = "src/hyperglue/glueing.py"
HYPERBOLOID = "src/hyperglue/hyperboloid.py"
NUMFIELD = "src/hyperglue/numfield.py"
VORONOI = "src/hyperglue/voronoi.py"
T_GLUEING = "tests/test_glueing.py"
T_VORONOI = "tests/test_voronoi.py"
GOLDEN = "tests/test_cli.py::TestGolden::test_every_command_matches_the_golden_twice"
EXTENSION_CAP = tuple(
    f"tests/test_cli.py::TestGeomCommands::test_extension_samples_outside_the_cap_refused[{n}]"
    for n in ("-3", "-1", "10001")
)
WALLS_AT_THE_CIRCLE = tuple(
    f"tests/test_voronoi.py::TestPoincare::test_walls_meeting_at_the_circle_make_no_vertex[{d}]"
    for d in ("1e-07", "1e-09", "1e-11")
)
SELF_PAIRED_MIRRORS = tuple(
    f"tests/test_voronoi.py::TestReflectionPolygons::test_self_paired_mirrors_pass_poincare"
    f"[{polygon}-{cutoff}-{offset}]"
    for polygon in ("n3-pi/4", "n5-pi/2", "n6-pi/2", "n8-pi/4")
    for cutoff in (2, 3)
    for offset in ("x0", "offset")
)
ORTHOGONAL_THRESHOLD = tuple(
    f"tests/test_voronoi.py::TestNestingClosedForm::test_orthogonal_threshold[{len_h}]"
    for len_h in ("0.3", "1.0", "2.0")
)
CHART = tuple(
    f"tests/test_voronoi.py::TestCellChart::test_centre_at_the_origin_and_inverse[{d}-{form}]"
    for d in ("1e-06", "0.1", "1.0", "3.0", "10.0")
    for form in ("J2", "J3", "sqrt2")
)
MOVED_DOMAINS = tuple(
    f"tests/test_voronoi.py::TestIsometryInvariance::test_moved_domain_keeps_its_report[{move}]"
    for move in (f"{length}-{angle}" for length in (0.1, 1.0, 2.0) for angle in (0.0, 17.0, 90.0))
)
ORBIT_ORACLE = tuple(
    f"tests/test_voronoi.py::test_orbit_matches_scalar_oracle_bit_for_bit[{n_gens}-{form}]"
    for n_gens in (1, 2, 3)
    for form in ("J2", "J3", "sqrt2")
)
NEAR_MISSES = tuple(
    f"tests/test_voronoi.py::TestAdmissibility::test_near_misses_are_violations[{seed}]"
    for seed in range(0, 200, 40)
)
# the Q forms of the hyperboloid tests' ORACLE_FORMS, and the tests that run every kernel on each
Q_FORMS = ("<-1, 1, 1> over Q", "<-2, 1, 1, 1> over Q", "<-1/2, 3, 5/4> over Q")
RATIONAL_KERNEL_TESTS = (
    "TestExactKernelsAgainstFractionPairs::test_reflection_product_and_isometry",
    "TestRationalBranchAgainstSqrt2Path::test_reflection_product_and_isometry",
)

MUTANTS = [
    # the CLI byte contract: a rounding change, state carried between calls,
    # a manifest that leaves out a file written, and a directory made before a refusal
    Mutant(
        "cli-f-11-digits", "src/hyperglue/cli.py",
        'return f"{float(x):.12g}"', 'return f"{float(x):.11g}"', (GOLDEN,),
    ),
    Mutant(
        "cli-writes-into-the-previous-out", "src/hyperglue/cli.py",
        "        self.path = Path(args.out)\n",
        '        self.path, _OutDir.last = Path(getattr(_OutDir, "last", args.out)), args.out\n',
        (GOLDEN,),
    ),
    Mutant(
        "manifest-omits-the-svg", "src/hyperglue/cli.py",
        "        self.written.append(name)\n",
        '        if not name.endswith(".svg"):\n            self.written.append(name)\n',
        (GOLDEN,),
    ),
    Mutant(
        "extension-writer-before-the-cap", "src/hyperglue/cli.py",
        "    cap, why = MAX_EXTENSION_SAMPLES\n",
        "    out = _OutDir(args)\n    cap, why = MAX_EXTENSION_SAMPLES\n",
        EXTENSION_CAP,
    ),
    Mutant(
        "extension-samples-uncapped", "src/hyperglue/cli.py",
        "    if not 0 <= args.samples <= cap:\n", "    if False:\n", EXTENSION_CAP,
    ),
    # exact elements: a same-field product left unreduced, a part printed
    # unreduced, and a writable field
    Mutant(
        "mul-fast-path-skips-the-gcd", NUMFIELD,
        "    def __mul__(self, other):\n"
        "        if type(other) is QuadFieldElement and other._field is self._field:\n"
        "            p, q, d = other._p, other._q, other._d\n",
        "    def __mul__(self, other):\n"
        "        if type(other) is QuadFieldElement and other._field is self._field:\n"
        "            sp, sq, p, q, d = self._p, self._q, other._p, other._q, other._d\n"
        "            return _make(sp * p + 2 * sq * q, sp * q + sq * p, self._d * d, self._field)\n",
        ("tests/test_numfield.py::TestFractionPairOracle::test_ring_operations",),
    ),
    # (over Q, gcd(p, d) is already 1, so only Q(sqrt2) parts can print unreduced)
    Mutant(
        "format-element-skips-the-gcd", NUMFIELD,
        "    g = math.gcd(n, d)\n", "    g = 1\n",
        ("tests/test_numfield.py::TestSerialization::test_matches_fraction_formatting[Q_SQRT2]",),
    ),
    Mutant(
        "field-property-with-a-setter", NUMFIELD,
        "        return self._field\n\n    @property\n",
        "        return self._field\n\n    @field.setter\n    def field(self, value):\n"
        "        self._field = value\n\n    @property\n",
        tuple(
            f"tests/test_numfield.py::TestImmutability::test_assignment_and_deletion_refused[{x}-field]"
            for x in ("qs2", "q")
        ),
    ),
    # the exact kernels' rational branches: a mirror without its factor 2, a
    # product of rows with rows (a b^t), and an isometry check of the diagonal alone
    Mutant(
        "rational-reflection-without-its-factor-2", HYPERBOLOID,
        "            t = [2 * x for x in w]\n", "            t = w\n",
        (
            "tests/test_hyperboloid.py::TestReflection::test_coordinate_mirror",
            "tests/test_hyperboloid.py::TestReflection::test_negates_mirror_vector",
            *(f"tests/test_hyperboloid.py::{test}[{form}]" for test in RATIONAL_KERNEL_TESTS for form in Q_FORMS),
        ),
    ),
    Mutant(
        "rational-product-of-rows-with-rows", HYPERBOLOID,
        "        cols = list(zip(*bp))\n", "        cols = bp\n",
        (
            "tests/test_hyperboloid.py::TestReflection::test_involution_and_isometry_exact",
            *(f"tests/test_hyperboloid.py::{test}[{form}]" for test in RATIONAL_KERNEL_TESTS for form in Q_FORMS),
        ),
    ),
    Mutant(
        "rational-isometry-check-reads-the-diagonal", HYPERBOLOID,
        "                for j in range(i, n)\n            )", "                for j in (i,)\n            )",
        (
            "tests/test_hyperboloid.py::TestRationalBranchAgainstSqrt2Path::"
            "test_wrong_off_diagonal_with_the_right_diagonal",
        ),
    ),
    # the cell chart moves the centre away from the origin, not onto it
    Mutant(
        "cell-chart-without-its-inverse", VORONOI,
        "return (j[:, None] * boost * j[None, :]) @ t, tinv @ boost", "return boost @ t, tinv @ boost",
        CHART + MOVED_DOMAINS,
    ),
    # orbit shells: a whole-shell gemm in place of one gemv per image, and
    # words that may end in the inverse of their last letter
    Mutant(
        "orbit-shell-as-one-gemm", VORONOI,
        "[g @ column for g in gens]", "[(front @ g.T)[:, :, None] for g in gens]",
        ORBIT_ORACLE,
    ),
    # (with one J2 translation the unreduced images still round onto their grandparents' keys)
    Mutant(
        "orbit-keeps-the-inverse-letter", VORONOI,
        "candidates = images[(letters != np.array(inverses)[:, None]).ravel()]",
        "candidates, inverses = images, [n_gens] * len(front)",
        tuple(t for t in ORBIT_ORACLE if not t.endswith("[1-J2]")),
    ),
    # the orbit radius: each seed's displacements as one (1, d) @ (d, k) product, not one row product per image
    Mutant(
        "displacement-as-one-gemm", VORONOI,
        "cosh_moved = (-(fs @ moved[..., None])).ravel().tolist()",
        "cosh_moved = (-(fs[:, 0] @ moved.transpose(0, 2, 1))).ravel().tolist()",
        tuple(t for t in ORBIT_ORACLE if t.endswith(("[2-J3]", "[2-sqrt2]"))),
    ),
    # admissibility on the whole segment: another surface's interval read on
    # [-tanh L, tanh L], lines kept by the own lines' least minimum (too few),
    # the nearest-seed distance read at the segment ends alone, and the
    # witness always taken at its interval's midpoint
    Mutant(
        "admissible-interval-before-the-segment-start", VORONOI,
        "b[theirs, None], 0.0, top)", "b[theirs, None], -top, top)",
        (
            f"{T_VORONOI}::TestAdmissibility::test_verdicts_and_refusals_match_brute_force",
            f"{T_VORONOI}::TestAdmissibility::test_surface_without_own_points_is_a_violation",
        ),
    ),
    Mutant(
        "admissible-prefilter-by-the-least-own-minimum", VORONOI,
        "np.maximum(a, a + b * top)[own].min(initial=np.inf)",
        "np.minimum(a, a + b * top)[own].min(initial=np.inf)",
        NEAR_MISSES,
    ),
    Mutant(
        "admissible-radius-at-the-segment-ends", VORONOI,
        "peaks = np.concatenate([lo, hi])[np.tile(lo <= hi, 2)]", "peaks = np.array([0.0, top])",
        (f"{T_VORONOI}::TestAdmissibility::test_verdicts_and_refusals_match_brute_force",),
    ),
    Mutant(
        "admissible-witness-at-the-midpoint", VORONOI,
        "3 * np.arange(len(gap)) + gap.argmax(axis=1)", "3 * np.arange(len(gap)) + 1",
        (GOLDEN, f"{T_VORONOI}::TestAdmissibility::test_surface_without_own_points_is_a_violation"),
    ),
    # the shared interval rule without its rows parallel to the line, which facet types need
    Mutant(
        "interval-ignores-parallel-rows", VORONOI,
        "return np.where(((slope == 0) & (base < 0)).any(axis=-1), np.inf, lo), hi", "return lo, hi",
        (
            f"{T_VORONOI}::TestFacetTypes::test_disjoint_marked_lift_second",
            f"{T_VORONOI}::TestFacetTypeLPReference::test_plane[1-0.0-1.0-None]",
        ),
    ),
    # the Poincare check: a self-pairing counted twice, or by a map that is no involution
    Mutant(
        "poincare-self-pairing-counted-twice", VORONOI,
        "for ref in dict.fromkeys((p.source, p.target)):", "for ref in (p.source, p.target):",
        SELF_PAIRED_MIRRORS,
    ),
    Mutant(
        "poincare-self-pairing-no-involution-check", VORONOI,
        "        if p.source == p.target:\n", "        if False:\n",
        ("tests/test_voronoi.py::TestPoincare::test_self_pairing_must_be_an_involution",),
    ),
    # the Poincare check: a wall cut less than 1e-7 inside the unit circle ends ideally
    Mutant(
        "poincare-no-ideal-end-rule", VORONOI,
        "j if np.linalg.norm(k_e) < 1.0 - 1e-7 else None", "j",
        WALLS_AT_THE_CIRCLE,
    ),
    Mutant(
        "nesting-crossing-band-1e-7", HYPERBOLOID,
        "    crossing = np.abs(s) < 1.0 - EPS\n", "    crossing = np.abs(s) < 1.0 - 1e-7\n",
        ORTHOGONAL_THRESHOLD,
    ),
    # the nesting table: pairs outside a halfspace decided anyway, and EQUAL never found
    Mutant(
        "nesting-table-ignores-margins", HYPERBOLOID,
        "    inside = ((inward_a * fx).sum(-1) > EPS)[:, None] & ((inward_b * fx).sum(-1) > EPS)[None, :]\n",
        "    inside = np.ones((len(inward_a), len(inward_b)), dtype=bool)\n",
        (
            "tests/test_hyperboloid.py::TestNesting::test_basepoint_must_be_interior",
            *(
                f"tests/test_voronoi.py::TestNestingTableOracle::"
                f"test_a_halfspace_at_most_eps_inside_skips_its_row[{m}]"
                for m in ("0.0", "5e-10", "1e-09")
            ),
        ),
    ),
    Mutant(
        "nesting-table-without-equal", HYPERBOLOID,
        "    equal = close_to(planes_a[:, None, :], planes_b[None, :, :], 1e-7)\n",
        "    equal = np.zeros((len(planes_a), len(planes_b)), dtype=bool)\n",
        (
            GOLDEN,
            "tests/test_hyperboloid.py::TestNesting::test_equal_halfspaces",
            "tests/test_voronoi.py::TestNestingTableOracle::test_golden_scenes[0/1/1]",
        ),
    ),
    # the tangent frame without its refusal, and a sheet point without its finiteness test
    Mutant(
        "unit-tangent-no-refusal", HYPERBOLOID,
        '    if not EPS < q < math.inf:\n        raise ValueError(f"tangent must',
        '    if False:\n        raise ValueError(f"tangent must',
        (
            "tests/test_hyperboloid.py::TestTranslation::test_direction_along_the_point_rejected",
            "tests/test_hyperboloid.py::TestUnitTangent::test_vanishing_projection_refused[tangent0]",
            "tests/test_hyperboloid.py::TestUnitTangent::test_vanishing_projection_refused[tangent1]",
            "tests/test_voronoi.py::TestFacetTypes::test_tangent_along_the_point_refused",
        ),
    ),
    # the sheet rule: f(x) summed by .sum in place of np.dot's order, which moves verdicts at the 1e-7 boundary
    Mutant(
        "sheet-rule-sums-by-sum", HYPERBOLOID,
        "        sums = ((xf[:, None, None, :] * weights) @ xf[:, None, :, None]).reshape(-1, 2).tolist()\n",
        "        sums = (xf[:, None, None, :] * weights * xf[:, None, None, :]).sum(axis=-1).reshape(-1, 2).tolist()\n",
        (
            "tests/test_hyperboloid.py::TestOneSheetRule::test_witness",
            "tests/test_hyperboloid.py::TestOneSheetRule::test_bisection_to_the_boundary[J2]",
            "tests/test_hyperboloid.py::TestOneSheetRule::test_bisection_to_the_boundary[sqrt2]",
        ),
    ),
    Mutant(
        "normalize-point-no-finiteness-test", HYPERBOLOID,
        "        if not math.isfinite(scale):\n            raise", "        if False:\n            raise",
        tuple(
            f"tests/test_hyperboloid.py::TestNonFiniteRefused::test_sheet_point[{x}]"
            for x in ("nan", "inf", "-inf")
        )
        + tuple(
            f"tests/test_hyperboloid.py::TestNonFiniteRefused::test_overflowing_terms[{x}]"
            for x in ("light-like", "nan-f")
        ),
    ),
    # the graph enumeration: a pair bound one too tight drops partial graphs that
    # grow into graphs (it still finds K5, and none of the 15 and 465 graphs on
    # 6 and 7 vertices)
    Mutant(
        "enumeration-bound-for-j-too-tight", GLUEING,
        "residual[:, j] <= m - i - 2", "residual[:, j] <= m - i - 3",
        tuple(
            f"{T_GLUEING}::TestEnumeration::test_counts_match_oracle[{m}-{n}]"
            for m, n in ((6, 15), (7, 465))
        ),
    ),
    # assembly: every graph of one m is a row of slot arrays, and the CLI checks each batch
    Mutant(
        "assembly-edge-slots-left-open", GLUEING,
        "    np.put_along_axis(partner, 4 * m + order, vertex_slot, 1)\n", "",
        (
            GOLDEN,
            f"{T_GLUEING}::TestSharedPieces::test_equal_an_unshared_build",
            f"{T_GLUEING}::TestAssembly::test_k5_shape",
        ),
    ),
    # the input checks of a batch: a root or an edge end that names no vertex,
    # flags other than +-1, and copies whose arrays can be written under their
    # cached checks
    Mutant(
        "assembly-accepts-any-root", GLUEING,
        "    if not 0 <= root < m:\n", "    if False:\n",
        (f"{T_GLUEING}::TestGraphValidation::test_rejects_bad_root",),
    ),
    Mutant(
        "assembly-accepts-any-edge-end", GLUEING,
        "    if not ((0 <= i) & (i < j) & (j < m)).all():\n", "    if False:\n",
        tuple(
            f"{T_GLUEING}::TestGraphValidation::test_rejects_edge_ends_that_name_no_vertex[{pair}]"
            for pair in ("3,12", "3,5", "3,7", "4,3", "2,2", "-1,3")
        ),
    ),
    Mutant(
        "batch-accepts-other-flags", GLUEING,
        "        if not (abs(self.flag) == 1).all():\n", "        if False:\n",
        tuple(f"{T_GLUEING}::TestBatchValidation::test_refuses_other_flags[{v}]" for v in (0, 2, -2)),
    ),
    Mutant(
        "batch-copies-keep-their-arrays", GLUEING,
        "    def __reduce__(self):\n", "    def _reduce(self):\n",
        tuple(
            f"{T_GLUEING}::TestClosedness::test_copies_after_the_cached_check[{clone}]"
            for clone in ("deepcopy", "pickle")
        ),
    ),
    # the mutant that passed the CLI while closedness was assumed: a cover
    # built with no pairings and no joins
    Mutant(
        "cover-without-pairings", GLUEING,
        "        partner = np.hstack([self.partner + size * reverses, self.partner + size * ~reverses])\n"
        "        joins = [(i, i + n) for i in self.layout.non_orientable]\n"
        "        joins += [(i + n, j + n) for i, j in self.internal_joins] + list(self.internal_joins)\n",
        "        partner, joins = np.tile(np.arange(2 * size), (len(self.partner), 1)), []\n",
        (GOLDEN, "tests/test_cli.py::TestCount::test_checks_above_seven_name_unchecked_m"),
    ),
    Mutant(
        "cover-sheets-keep-the-base-template", GLUEING,
        'PieceTemplate(p.template.label + "~", p.template.boundary_count, True)', "p.template",
        (
            GOLDEN,
            f"{T_GLUEING}::TestSharedPieces::test_cover_equals_one_built_piece_by_piece",
            f"{T_GLUEING}::TestDoubleCover::test_cover_of_non_orientable_is_connected_orientable",
            f"{T_GLUEING}::TestDoubleCover::test_reversing_decorations_of_every_m6_graph",
        ),
    ),
    Mutant(
        "cover-no-sheet-swap", GLUEING,
        "[self.partner + size * reverses, self.partner + size * ~reverses]",
        "[self.partner, self.partner + size]",
        (
            f"{T_GLUEING}::TestSharedPieces::test_cover_equals_one_built_piece_by_piece",
            f"{T_GLUEING}::TestDoubleCover::test_reversing_decorations_of_every_m6_graph",
            f"{T_GLUEING}::TestDoubleCover::test_reversing_flags_lift_to_preserving",
        ),
    ),
    Mutant(
        "cover-identity-deck", GLUEING,
        "deck = tuple(range(n, 2 * n)) + tuple(range(n))", "deck = tuple(range(2 * n))",
        (
            GOLDEN,
            f"{T_GLUEING}::TestSharedPieces::test_cover_equals_one_built_piece_by_piece",
            f"{T_GLUEING}::TestDoubleCover::test_deck_involution_fixed_point_free",
        ),
    ),
    Mutant(
        "deck-check-skips-the-glueings", GLUEING,
        "return (self.partner[:, moved] == moved[self.partner]).all(1)",
        "return np.ones(len(self.partner), dtype=bool)",
        (f"{T_GLUEING}::TestDoubleCover::test_deck_checks_can_fail",),
    ),
    # the component count: slots that lead back to their own piece, and a
    # propagation stopped after one sweep
    Mutant(
        "components-ignore-the-glueings", GLUEING,
        "piece_of[self.partner.T]", "np.repeat(piece_of[:, None], rows, 1)",
        (
            GOLDEN,
            f"{T_GLUEING}::TestAssembly::test_k5_shape",
            f"{T_GLUEING}::TestOrientability::test_flag_subsets_against_brute_force",
        ),
    ),
    Mutant(
        "components-after-one-sweep", GLUEING,
        "        while not np.array_equal(label, previous):\n", "        for _ in range(1):\n",
        (f"{T_GLUEING}::TestBatchAgainstOracles::test_ring_of_twelve_blocks",),
    ),
    # orientability: the double-graph rule, which only rows with a -1 flag
    # reach (so the CLI never does), a root block v that no longer decides,
    # and the all-+1 witness taken for every row
    Mutant(
        "orientability-count-skipped", GLUEING,
        "return witnessed | (self.cover.components == 2 * self.components)",
        "return np.ones(len(self.partner), dtype=bool)",
        (
            f"{T_GLUEING}::TestOrientability::test_single_reversing_flag_on_cycle",
            f"{T_GLUEING}::TestOrientability::test_flag_subsets_against_brute_force",
            f"{T_GLUEING}::TestOrientability::test_witness_agrees_with_the_double_graph",
            f"{T_GLUEING}::TestDoubleCover::test_reversing_flags_lift_to_preserving",
        ),
    ),
    Mutant(
        "orientable-ignores-non-orientable-blocks", GLUEING,
        "        if self.layout.non_orientable:\n            return np.zeros(len(self.partner), dtype=bool)\n",
        "",
        (GOLDEN, f"{T_GLUEING}::TestOrientability::test_root_block_forces_non_orientable"),
    ),
    Mutant(
        "signing-witness-ignores-flags", GLUEING,
        "witnessed = (self.flag == 1).all(1)", "witnessed = np.ones(len(self.partner), dtype=bool)",
        (
            f"{T_GLUEING}::TestOrientability::test_single_reversing_flag_on_cycle",
            f"{T_GLUEING}::TestOrientability::test_flag_subsets_against_brute_force",
            f"{T_GLUEING}::TestOrientability::test_witness_agrees_with_the_double_graph",
            f"{T_GLUEING}::TestDoubleCover::test_reversing_flags_lift_to_preserving",
            f"{T_GLUEING}::TestBatchAgainstOracles::test_every_assembly_flipped_corrupted_and_covered",
            f"{T_GLUEING}::TestBatchAgainstOracles::test_ring_of_twelve_blocks",
        ),
    ),
    Mutant(
        "assembly-pieces-ignore-the-root", GLUEING,
        'TEMPLATES["v" if v == root else "u"]', 'TEMPLATES["v" if v == 0 else "u"]',
        (f"{T_GLUEING}::TestSharedPieces::test_equal_an_unshared_build",),
    ),
    Mutant(
        "volume-as-an-int", GLUEING,
        "return float(len(batch.layout.pieces))", "return len(batch.layout.pieces)",
        (f"{T_GLUEING}::TestAssembly::test_volume_linear",),
    ),
    # the CLI's vertex-edge check, which a closed complex can fail
    Mutant(
        "vertex-edge-check-passes", "src/hyperglue/cli.py",
        "(vertex_slots >= 4 * m).all(1) & (edge_slots < 4 * m).all(1)", "np.ones(len(edges), dtype=bool)",
        ("tests/test_cli.py::TestCount::test_vertex_blocks_glued_together_fail",),
    ),
    # known survivors
    Mutant(
        "enumeration-bound-for-j-too-loose", GLUEING,
        "residual[:, j] <= m - i - 2", "residual[:, j] <= m - i - 1",
        (T_GLUEING,),
        survives="a looser bound only prunes less: the final filter still drops every row with a "
        "residual degree, so the enumeration gives the same 1, 15 and 465 graphs in the same order",
    ),
]


def failures(tree: Path, files: list[str]) -> set[str]:
    """The ids that fail or error when pytest runs `files` in `tree`; a file that fails to collect counts whole."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider", *files],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    return {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def run(mutant: Mutant, tree: Path) -> bool:
    """Apply `mutant` to a fresh export in `tree`, print its verdict, and say whether it went as recorded."""
    export("HEAD", tree)
    target = tree / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        print(f"{mutant.name}: the old string occurs {text.count(mutant.old)} times in {mutant.path}")
        return False
    target.write_text(text.replace(mutant.old, mutant.new))
    failed = failures(tree, sorted({t.split("::")[0] for t in mutant.tests}))
    if mutant.survives:
        verdict = "survived" if not failed else f"killed by {len(failed)} tests, listed as a survivor"
        print(f"{mutant.name}: {verdict} ({mutant.survives})")
        return True
    missed = [t for t in mutant.tests if t not in failed and t.split("::")[0] not in failed]
    if missed:
        print(f"{mutant.name}: survived {len(missed)} of {len(mutant.tests)} expected tests: {', '.join(missed)}")
        return False
    print(f"{mutant.name}: killed by {len(mutant.tests)} expected tests ({len(failed)} failed in all)")
    return True


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        results = [run(mutant, Path(work) / mutant.name) for mutant in MUTANTS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
