"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement
from hyperglue.qforms import (
    LABELS,
    build_counting_family,
    counting_base_form,
    equivalence_certificate,
    evaluate,
    is_admissible,
    restrict_to_orthogonal,
)
from hyperglue.hyperboloid import (
    NestingVerdict,
    basepoint,
    exact_identity,
    exact_mat_mul,
    is_isometry,
    reflection,
    rotation_in_plane,
    translation_along,
)
from hyperglue.voronoi import (
    AdmissibleSet,
    FacetPairing,
    GroupData,
    MarkedGeodesic,
    build_admissible_set,
    build_orbit,
    check_admissible,
    check_poincare_2d,
    dirichlet_cell,
    sphere_shrink_report,
)
from hyperglue import glueing
from hyperglue.cli import main as cli_main

import oracles
from oracles import J2, E1, are_nested, bitmask_oracle, nearest_center_agreement, plane_config

GOLDEN = Path(__file__).parent / "golden"


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.1f}s exceeds {self.seconds}s budget"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({self.elapsed:.2f}s)")
        return False


def random_qs2(rng, bound=9):
    return QuadFieldElement(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 6)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, 6)),
        FieldTag.Q_SQRT2,
    )


def random_space_like(rng, form, bound=4):
    while True:
        v = []
        for _ in range(form.dimension):
            a = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            if form.field is FieldTag.Q:
                v.append(QuadFieldElement(a))
            else:
                b = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                v.append(QuadFieldElement(a, b, FieldTag.Q_SQRT2))
        v = tuple(v)
        value = evaluate(form, v)
        if value and value.sign_at(Embedding.IDENTITY) > 0:
            return v


def test_criterion_01_exact_algebra():
    """10^4 randomized exact checks: field axioms, Galois, reflection identities."""
    rng = random.Random(2024)
    with Budget(10.0, "1 exact-algebra"):
        for _ in range(6000):
            x, y, z = (random_qs2(rng) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            if y:
                assert (x / y) * y == x
        for _ in range(2000):
            x, y = random_qs2(rng), random_qs2(rng)
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert x.conjugate().conjugate() == x
        identity = exact_identity(J2)
        for _ in range(2000):
            v = random_space_like(rng, J2, bound=3)
            mat = reflection(J2, v)
            assert exact_mat_mul(mat, mat) == identity  # r_v^2 = I, exact
            assert is_isometry(J2, mat)  # r_v^t F r_v = F, exact


def test_criterion_02_admissible_families():
    """f_n admissible and six pairwise non-equivalent forms, n in 2..8, both fields."""
    with Budget(5.0, "2 admissible-families"):
        for n in range(2, 9):
            for field in (FieldTag.Q, FieldTag.Q_SQRT2):
                # f_n lives on n+1 coordinates; the family in n variables
                # extends the base f_{n-1}
                assert is_admissible(counting_base_form(n + 1, field))
                family = build_counting_family(n, field)
                assert len(family.forms) == 6
                for form in family.forms.values():
                    assert is_admissible(form)
                for la, lb in itertools.combinations(LABELS, 2):
                    assert equivalence_certificate(
                        family.forms[la], family.forms[lb]
                    ).non_equivalent


def test_criterion_03_restriction_admissibility():
    """Restriction to 100 random space-like complements stays admissible, exactly."""
    rng = random.Random(99)
    with Budget(10.0, "3 restriction-admissibility"):
        for trial in range(100):
            field = FieldTag.Q if trial % 2 == 0 else FieldTag.Q_SQRT2
            form = counting_base_form(2 + trial % 4, field)
            v = random_space_like(rng, form)
            assert is_admissible(restrict_to_orthogonal(form, v))


def test_criterion_04_dirichlet_oracle():
    """Cell membership vs brute-force nearest-center on 20 desk configurations."""
    rng = random.Random(7)
    configs = []
    for k in range(7):
        configs.append(("cyclic", (1.5 + 0.5 * k,)))
    for k in range(7):
        configs.append(("orthogonal", (4.0 + 0.3 * k, 5.0 + 0.2 * k)))
    for k in range(6):
        configs.append(("oblique", (50.0 + 5.0 * k, 4.5 + 0.2 * k, 5.5 + 0.2 * k)))
    with Budget(60.0, "4 dirichlet-oracle"):
        for i, (kind, params) in enumerate(configs):
            _, orbit, cell = plane_config(kind, params)
            checked, mismatches = nearest_center_agreement(
                cell, orbit, 10_000, seed=1000 + i, tol=1e-9
            )
            assert checked > 9000, f"config {i}: too many skipped samples"
            assert mismatches == 0, f"config {i} ({kind} {params}): {mismatches} mismatches"


def test_criterion_05_admissibility_dichotomy():
    """Sparse two-point sets fail with a witness; covering sets pass (10 random configs)."""
    rng = np.random.default_rng(555)
    x0 = basepoint(J2)
    with Budget(30.0, "5 admissibility-dichotomy"):
        for trial in range(10):
            delta = 0.4 + 0.8 * float(rng.random())
            window = 3.0 + 2.0 * float(rng.random())
            offset = 4.0 + 2.0 * float(rng.random())
            p2 = np.array([math.cosh(delta), 0.0, math.sinh(delta)])
            s1 = MarkedGeodesic(J2, x0, E1, surface_id=1, fundamental_length=window)
            s2 = MarkedGeodesic(J2, p2, E1, surface_id=2, fundamental_length=window)
            group = GroupData(J2, [], marked=[s1, s2])
            sparse = AdmissibleSet(((s1.point_at(0.0), 1), (s2.point_at(offset), 2)))
            verdict = check_admissible(sparse, group, orbit_cutoff=1)
            assert not verdict.admissible and verdict.witness is not None
            dense = build_admissible_set([s1, s2], group)
            assert check_admissible(dense, group, orbit_cutoff=1).admissible


def test_criterion_06_nesting_dichotomy():
    """Above the bisection threshold orthogonal axes pass; oblique short-H nests."""
    x0 = basepoint(J2)

    def build(angle_deg, len_h, len_v):
        t_h = translation_along(J2, x0, E1, len_h)
        axis = rotation_in_plane(J2, 1, 2, math.radians(angle_deg)) @ E1
        t_v = translation_along(J2, x0, axis, len_v)
        cell_h = dirichlet_cell(x0, build_orbit([x0], GroupData(J2, [t_h]), 3))
        cell_v = dirichlet_cell(x0, build_orbit([x0], GroupData(J2, [t_v]), 3))
        wh = [f.source_word for f in cell_h.facets]
        wv = [f.source_word for f in cell_v.facets]
        pairings = [
            FacetPairing((0, wh.index((1,))), (0, wh.index((0,))), t_h),
            FacetPairing((1, wv.index((1,))), (1, wv.index((0,))), t_v),
        ]
        return [cell_h, cell_v], pairings

    def any_crossing(len_v):
        cells, _ = build(90.0, 1.0, len_v)
        for fh in cells[0].facets:
            for fv in cells[1].facets:
                if are_nested(J2, fh.halfspace, fv.halfspace, x0) is NestingVerdict.CROSSING:
                    return True
        return False

    with Budget(10.0, "6 nesting-dichotomy"):
        lo, hi = 0.5, 6.0
        assert any_crossing(lo) and not any_crossing(hi)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if any_crossing(mid):
                lo = mid
            else:
                hi = mid
        threshold = hi
        cells, pairings = build(90.0, 1.0, threshold + 0.5)
        report = check_poincare_2d(cells, pairings)
        assert report.passed and not report.nested_pairs

        cells, pairings = build(60.0, 0.3, 8.0)
        report = check_poincare_2d(cells, pairings)
        assert not report.passed
        assert report.nested_pairs, "expected a nested witness"


def test_criterion_07_sphere_shrinking():
    """Second-type radii shrink by >= 1.5x per step (frozen goldens); first-type constant."""
    golden = json.loads((GOLDEN / "shrink_radii.json").read_text())
    with Budget(10.0, "7 sphere-shrinking"):
        report = sphere_shrink_report([2.0, 4.0, 8.0, 16.0], spacing=golden["spacing"])
        for row, want in zip(report.rows, golden["rows"]):
            assert row.r == want["R"]
            assert abs(row.first_radius - want["first_radius"]) <= 1e-9
            assert abs(row.second_radius - want["second_radius"]) <= 1e-9
        seconds = [row.second_radius for row in report.rows]
        assert all(b < a for a, b in zip(seconds, seconds[1:]))
        for factor in report.shrink_factors:
            assert factor >= 1.5
        firsts = [row.first_radius for row in report.rows]
        assert max(firsts) - min(firsts) <= 1e-9


def test_criterion_08_graph_counts():
    """Enumeration matches the bitmask oracle; free-mode totals follow the product rule."""
    with Budget(120.0, "8 graph-counts"):
        expected = {5: 1, 6: 15, 7: 465}
        for m, count in expected.items():
            ours = sorted(oracles.base_graphs(m))
            oracle = sorted(bitmask_oracle(m))
            assert len(ours) == count
            assert ours == oracle
        for row in glueing.count_graphs(7, "free"):
            assert row.rooted_labelled == row.base_count * row.m * 4 ** (2 * row.m)


def test_criterion_09_assembly_suite():
    """Every assembly for m <= 6, as the CLI builds it: closed, 4m pairings, non-orientable, cover doubles."""
    with Budget(60.0, "9 assembly-suite"):
        for m, count in ((5, 1), (6, 15)):
            labels = tuple(glueing.EDGE_LABELS[k % 4] for k in range(2 * m))
            edges = glueing.enumerate_base_graphs(m)
            assembled = glueing.assemble_batch(m, edges, 0, labels)
            slots = np.arange(assembled.partner.shape[1])
            assert assembled.partner.shape[0] == count
            assert assembled.closed().all()
            assert ((assembled.partner > slots).sum(1) == 4 * m).all()
            assert not assembled.orientable().any()
            cover = assembled.cover
            assert cover.orientable().all()
            assert abs(glueing.volume(cover) - 2 * glueing.volume(assembled)) < 1e-12
            deck = np.array(cover.deck_involution)
            assert (deck != np.arange(len(cover.layout.pieces))).all()
            assert cover.deck_free().all()


def test_criterion_10_growth():
    """Free-mode growth fit: positive c, residuals below 0.2 in log scale."""
    with Budget(1.0, "10 growth"):
        counts = {r.m: r.rooted_labelled for r in glueing.count_graphs(7, "free")}
        fit = glueing.growth_fit(counts)
        assert fit.c > 0
        assert all(abs(res) < 0.2 for res in fit.residuals.values())


def test_criterion_11_cli_determinism(tmp_path):
    """Every demo, rerun with the same seed, produces byte-identical CSV/SVG."""
    jobs = [
        ("forms", "family", "--n", "3", "--field", "Q"),
        ("geom", "admissible", "--seed", "11"),
        ("geom", "nesting", "--angle", "90", "--lenH", "1", "--lenV", "6"),
        ("geom", "nesting", "--angle", "60", "--lenH", "0.3", "--lenV", "8"),
        ("geom", "shrink", "--R", "2,4,8,16"),
        ("geom", "extension", "--seed", "3"),
        ("count", "--m-max", "6", "--mode", "free"),
    ]
    with Budget(120.0, "11 cli-determinism"):
        for k, job in enumerate(jobs):
            out1 = tmp_path / f"run{k}a"
            out2 = tmp_path / f"run{k}b"
            assert cli_main([*job, "--out", str(out1)]) == 0
            assert cli_main([*job, "--out", str(out2)]) == 0
            names = sorted(p.name for p in out1.iterdir())
            assert names == sorted(p.name for p in out2.iterdir())
            for name in names:
                if name.endswith((".csv", ".svg")):
                    assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (
                        f"{job}: {name} differs between runs"
                    )
