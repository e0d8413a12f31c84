"""Voronoi machinery: orbits, cells, facet types, admissible sets, Poincare."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from hyperglue import voronoi
from hyperglue.hyperboloid import (
    EPS,
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    basepoint,
    bilinear,
    boundary_sphere,
    distance,
    float_coefficients,
    hyperplane_distance,
    isometry_inverse,
    reflection,
    rotation_in_plane,
    translation_along,
)
from hyperglue.numfield import FieldTag
from hyperglue.qforms import counting_base_form, jn_form
from hyperglue.voronoi import (
    AdmissibleSet,
    CellFacet,
    FacetPairing,
    FacetType,
    GroupData,
    MarkedGeodesic,
    UndecidableError,
    build_admissible_set,
    build_orbit,
    check_admissible,
    check_poincare_2d,
    classify_facets,
    dirichlet_cell,
    orthogonal_extension,
    sphere_shrink_report,
    surface_separations,
)

import oracles
from oracles import J2, E1, E2, are_nested, nearest_center_agreement, plane_config

X0 = basepoint(J2)


@pytest.fixture
def forbid_lp(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("voronoi must not solve LPs")

    monkeypatch.setattr(voronoi, "linprog", fail)
    monkeypatch.setattr("scipy.optimize.linprog", fail)


# H3 and plane cutoff-3 cells and the plane cell's facet types, in a fresh
# interpreter: the cell code must not even import the LP solver
NO_LP_SCRIPT = """
import math, sys
import numpy as np
from hyperglue.hyperboloid import basepoint, rotation_in_plane, translation_along
from hyperglue.qforms import jn_form
from hyperglue.voronoi import GroupData, MarkedGeodesic, build_orbit, classify_facets, dirichlet_cell

j3 = jn_form(3)
x3 = basepoint(j3)
gens = [translation_along(j3, x3, axis, 3.0) for axis in np.eye(4)[1:]]
assert dirichlet_cell(x3, build_orbit([x3], GroupData(j3, gens), 3)).facets

j2 = jn_form(2)
x2 = basepoint(j2)
e1 = np.array([0.0, 1.0, 0.0])
axis = rotation_in_plane(j2, 1, 2, math.radians(75.0)) @ e1
gens = [translation_along(j2, x2, e1, 2.0), translation_along(j2, x2, axis, 2.5)]
cell = dirichlet_cell(x2, build_orbit([x2], GroupData(j2, gens), 3))
assert classify_facets(cell, [MarkedGeodesic(j2, x2, e1, 0, 2.0)]).facets
assert "scipy.spatial" in sys.modules
assert "scipy.optimize" not in sys.modules
"""


def test_cells_never_import_the_lp_solver(tmp_path):
    result = oracles.run_python("-c", NO_LP_SCRIPT, cwd=tmp_path)
    assert result.returncode == 0, result.stderr


class TestOrbit:
    def test_cyclic_translation_distances(self):
        t = translation_along(J2, X0, E1, 1.5)
        orbit = build_orbit([X0], GroupData(J2, [t]), 3)
        assert len(orbit.points) == 7
        dists = sorted(round(distance(J2, X0, op.point), 9) for op in orbit.points)
        assert dists == [0.0, 1.5, 1.5, 3.0, 3.0, 4.5, 4.5]

    def test_empty_generators(self):
        orbit = build_orbit([X0], GroupData(J2, []), 2)
        assert len(orbit.points) == 1
        assert math.isinf(orbit.certification_radius)

    def test_free_pair_reduced_word_count(self):
        t1 = translation_along(J2, X0, E1, 2.0)
        t2 = translation_along(J2, X0, E2, 2.0)
        orbit = build_orbit([X0], GroupData(J2, [t1, t2]), 2)
        assert len(orbit.points) == 1 + 4 + 12

    def test_certification_radius_formula(self):
        t = translation_along(J2, X0, E1, 2.0)
        orbit = build_orbit([X0], GroupData(J2, [t]), 3)
        assert abs(orbit.certification_radius - 3.0) < 1e-9

    def test_non_isometry_rejected(self):
        with pytest.raises(ValueError):
            GroupData(J2, [np.diag([1.0, 2.0, 1.0])])

    def test_marked_lift_must_be_a_geodesic(self):
        with pytest.raises(TypeError, match="Hyperplane"):
            GroupData(J2, [], marked=[Hyperplane(J2, E2)])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_orbit_refused(self):
        # cosh(900) is beyond binary64; words of length 2 still fit
        t = translation_along(J2, X0, E1, 300.0)
        assert len(build_orbit([X0], GroupData(J2, [t]), 2).points) == 5
        with pytest.raises(ValueError, match="word length 3 overflow"):
            build_orbit([X0], GroupData(J2, [t]), 3)

    def test_empty_seed_list_refused_under_generators(self):
        t = translation_along(J2, X0, E1, 2.0)
        with pytest.raises(ValueError, match="at least one seed point"):
            build_orbit([], GroupData(J2, [t]), 1)
        # with no generator there is nothing to certify: the orbit is empty
        assert build_orbit([], GroupData(J2, []), 1).points == ()

    def test_coordinates_are_built_once_and_read_only(self):
        t1 = translation_along(J2, X0, E1, 2.0)
        t2 = translation_along(J2, X0, E2, 2.0)
        orbit = build_orbit([X0], GroupData(J2, [t1, t2]), 2)
        coords = orbit.coordinates()
        assert orbit.coordinates() is coords
        assert coords.tobytes() == np.array([op.point for op in orbit.points]).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 1.0
        off_orbit = translation_along(J2, X0, E1, 0.3) @ X0
        with pytest.raises(ValueError, match="center must be one of the orbit points"):
            dirichlet_cell(off_orbit, orbit)
        empty = build_orbit([], GroupData(J2, []), 1)
        assert empty.coordinates().shape == (0, 3)
        with pytest.raises(ValueError, match="center must be one of the orbit points"):
            dirichlet_cell(X0, empty)

    def test_points_view_is_built_once_from_the_arrays(self):
        t1 = translation_along(J2, X0, E1, 2.0)
        t2 = translation_along(J2, X0, E2, 2.0)
        y = translation_along(J2, X0, E2, 0.4) @ X0
        orbit = build_orbit([X0, y], GroupData(J2, [t1, t2]), 2, tags=[7, 8])
        points = orbit.points
        assert orbit.points is points
        coords = orbit.coordinates()
        assert [op.point.tobytes() for op in points] == [row.tobytes() for row in coords]
        assert [op.word for op in points] == list(orbit.words)
        assert [op.tag for op in points] == list(orbit.tags)
        assert set(orbit.tags) == {7, 8} and orbit.words[:2] == ((), ())
        for row in (coords[0], points[-1].point):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0


def test_cells_and_admissibility_never_read_the_points_view(monkeypatch):
    def fail(orbit):
        raise AssertionError("the cell code must read the orbit's arrays")

    monkeypatch.setattr(voronoi.OrbitSet, "points", property(fail))
    t1 = translation_along(J2, X0, E1, 2.0)
    t2 = translation_along(J2, X0, E2, 2.0)
    orbit = build_orbit([X0], GroupData(J2, [t1, t2]), 2)
    assert len(dirichlet_cell(X0, orbit).facets) == 4
    group, s1, s2 = two_geodesic_setup()
    assert check_admissible(build_admissible_set([s1, s2], group), group, orbit_cutoff=1).admissible
    with pytest.raises(AssertionError, match="arrays"):
        orbit.points


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stacked_product_keeps_the_bits_of_the_pointwise_product(n):
    # `build_orbit` images a shell X as g @ X[:, :, None]: one gemv per point
    # in g's own layout, as g @ x runs; the whole-shell gemm X @ g.T sums in
    # another order, and some of its entries differ
    rng = np.random.default_rng(n)
    gemm_differs = False
    for order in ("C", "F"):
        for _ in range(40):
            g = np.asarray(rng.standard_normal((n, n)) * np.exp(rng.uniform(0.0, 14.0, (n, n))), order=order)
            xs = rng.standard_normal((8, n)) * np.exp(rng.uniform(0.0, 14.0, (8, n)))
            assert g.flags[f"{order}_CONTIGUOUS"]
            want = np.array([g @ x for x in xs]).tobytes()
            assert (g @ xs[:, :, None]).tobytes() == want
            gemm_differs |= (xs @ g.T).tobytes() != want
    assert gemm_differs


ORACLE_FORMS = pytest.mark.parametrize(
    "form",
    [jn_form(2), jn_form(3), counting_base_form(4, FieldTag.Q_SQRT2)],
    ids=["J2", "J3", "sqrt2"],
)


def _random_translation(form, rng, length):
    x0 = basepoint(form)
    spatial = float_coefficients(form) > 0
    return translation_along(form, x0, rng.standard_normal(form.dimension) * spatial, length)


@ORACLE_FORMS
@pytest.mark.parametrize("n_gens", [0, 1, 2, 3])
def test_orbit_matches_scalar_oracle_bit_for_bit(form, n_gens):
    rng = np.random.default_rng(10 + n_gens)
    x0 = basepoint(form)
    group = GroupData(form, [_random_translation(form, rng, L) for L in rng.uniform(1.0, 3.5, n_gens)])
    near = _random_translation(form, rng, 0.7) @ x0
    # translations up to 9 long reach coordinates near e^27 at cutoff 3, where
    # a whole-shell gemm moves last bits and an unreduced word's image of
    # its grandparent no longer rounds to the same key
    far = GroupData(form, [_random_translation(form, rng, L) for L in rng.uniform(3.5, 9.0, n_gens)])
    runs = [(group, cutoff) for cutoff in (1, 2, 3, 4)] + [(far, 3)]
    # 2-6 more seeds, drawn after the data above: x0 off the sheet as 2.5 x0,
    # and points up to 10 out, with coordinates near e^9
    lengths = rng.uniform(0.5, 10.0, rng.integers(1, 6))
    spread = [2.5 * x0] + [_random_translation(form, rng, L) @ x0 for L in lengths]
    for group, cutoff in runs:
        # the third seed repeats the first; the fourth lies on the first seed's orbit
        for seeds in ([x0, near, x0.copy()] + [g @ x0 for g in group.generators[:1]], spread):
            tags = list(range(5, 5 + len(seeds)))
            got = build_orbit(seeds, group, cutoff, tags=tags)
            want = oracles.scalar_orbit(seeds, group, cutoff, tags=tags)
            # one tag per seed, so the tags also say which seed each point came from
            assert [(op.word, op.tag) for op in got.points] == [(op.word, op.tag) for op in want.points]
            assert [op.point.tobytes() for op in got.points] == [
                op.point.tobytes() for op in want.points
            ]
            assert got.certification_radius == want.certification_radius


@ORACLE_FORMS
def test_orbit_overflow_matches_scalar_oracle(form):
    # cosh(900) is beyond binary64: both refuse at word length 3, with one message
    group = GroupData(form, [_random_translation(form, np.random.default_rng(0), 300.0)])
    x0 = basepoint(form)
    assert len(build_orbit([x0], group, 2).points) == len(oracles.scalar_orbit([x0], group, 2).points)
    with pytest.raises(ValueError, match="word length 3 overflow") as got:
        build_orbit([x0], group, 3)
    with pytest.raises(ValueError) as want:
        oracles.scalar_orbit([x0], group, 3)
    assert str(got.value) == str(want.value)


class TestDirichletCell:
    def test_strip(self):
        _, orbit, cell = plane_config("cyclic", (2.0,))
        assert len(cell.facets) == 2
        for facet in cell.facets:
            h = facet.halfspace.hyperplane
            # the strip walls are orthogonal to the axis at distance 1
            d = math.asinh(abs((h.normal)[0]))  # wall at parameter t has normal sinh(t)
            assert abs(d - 1.0) <= 1e-9

    def test_two_point_orbit_single_halfspace(self):
        y = translation_along(J2, X0, E1, 1.0) @ X0
        orbit = build_orbit([X0], GroupData(J2, []), 1)
        # splice a second point in by using two seeds instead
        orbit = build_orbit([X0, y], GroupData(J2, []), 1)
        cell = dirichlet_cell(X0, orbit)
        assert len(cell.facets) == 1

    def test_lone_bisector_follows_the_radius(self):
        # seeds 4 apart: the only wall lies 2 from the center, outside a box of radius 1.5
        y = translation_along(J2, X0, E1, 4.0) @ X0
        orbit = build_orbit([X0, y], GroupData(J2, []), 1)
        assert len(dirichlet_cell(X0, orbit).facets) == 1
        assert len(dirichlet_cell(X0, orbit, prune_radius=3.0).facets) == 1
        with pytest.raises(UndecidableError, match="keeps no facet of the 1 bisectors"):
            dirichlet_cell(X0, orbit, prune_radius=1.5)

    def test_zero_radius_refused(self):
        # the second seed lies farther from the first than the generator
        # moves either seed, so the cutoff-1 orbit certifies rho = 0
        t = translation_along(J2, X0, E1, 2.0)
        y = translation_along(J2, X0, E2, 3.0) @ X0
        orbit = build_orbit([X0, y], GroupData(J2, [t]), 1)
        assert orbit.certification_radius == 0.0
        with pytest.raises(UndecidableError, match="rho = 0 "):
            dirichlet_cell(X0, orbit)
        with pytest.raises(UndecidableError, match="rho = -1 "):
            dirichlet_cell(X0, orbit, prune_radius=-1.0)

    @pytest.mark.parametrize(
        "gens",
        [
            [(E1, 1.3), (E2, 2.0)],
            [(E1, 1.0)],
        ],
    )
    def test_radius_keeping_no_facet_refused(self, gens):
        # at cutoff 1, rho = delta_min / 2 puts the nearest bisector on a face
        # of the Klein box, so pruning would leave a cell with no walls
        group = GroupData(J2, [translation_along(J2, X0, e, t) for e, t in gens])
        orbit = build_orbit([X0], group, 1)
        rho = orbit.certification_radius
        with pytest.raises(UndecidableError, match=f"rho = {rho:.6g} keeps no facet"):
            dirichlet_cell(X0, orbit)

    @pytest.mark.filterwarnings("error")
    def test_bisector_beyond_binary64_refused(self):
        # the word-3 point has coordinates near cosh(45) ~ 1.7e19, where
        # f(x - y) = 2 (cosh d - 1) cancels to nothing
        t = translation_along(J2, X0, E1, 15.0)
        orbit = build_orbit([X0], GroupData(J2, [t]), 3)
        with pytest.raises(UndecidableError, match=r"word \(0, 0, 0\) .* not finite and positive"):
            dirichlet_cell(X0, orbit)

    def test_center_must_be_in_orbit(self):
        _, orbit, _ = plane_config("cyclic", (2.0,))
        with pytest.raises(ValueError):
            dirichlet_cell(translation_along(J2, X0, E1, 0.37) @ X0, orbit)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("cyclic", (2.0,)),
            ("cyclic", (3.5,)),
            ("orthogonal", (4.0, 5.0)),
            ("orthogonal", (6.0, 6.0)),
            ("oblique", (60.0, 5.0, 6.0)),
            ("oblique", (75.0, 4.5, 5.5)),
        ],
    )
    def test_sampled_oracle(self, kind, params):
        _, orbit, cell = plane_config(kind, params)
        checked, mismatches = nearest_center_agreement(cell, orbit, 2000, seed=42)
        assert checked > 1500
        assert mismatches == 0

    def test_equivariance(self):
        _, orbit, cell = plane_config("orthogonal", (4.0, 5.0))
        g = translation_along(J2, X0, np.array([0.0, 0.4, 1.0]), 0.8)
        gens = [g @ t @ isometry_inverse(J2, g) for t in
                [translation_along(J2, X0, E1, 4.0), translation_along(J2, X0, E2, 5.0)]]
        moved_orbit = build_orbit([g @ X0], GroupData(J2, gens), 2)
        moved_cell = dirichlet_cell(g @ X0, moved_orbit)

        def normal_set(c, transform=None):
            out = []
            for f in c.facets:
                n = f.halfspace.hyperplane.normal
                if transform is not None:
                    n = Hyperplane(J2, transform @ n).normal
                out.append(tuple(np.round(n, 6)))
            return sorted(out)

        assert normal_set(moved_cell) == normal_set(cell, transform=g)


@functools.cache
def reflection_polygon_cell(n, angle, cutoff, offset):
    """(mirror normals, Dirichlet cell) of `oracles.reflection_polygon`, centred `offset` along E1."""
    group, normals = oracles.reflection_polygon(n, angle)
    center = translation_along(J2, X0, E1, offset) @ X0 if offset else X0
    return normals, dirichlet_cell(center, build_orbit([center], group, cutoff))


# At cutoff 1 the default radius is the distance to the nearest mirror, and
# the cell keeps only some of the mirrors (ROADMAP item 5), so it is not asserted.
@pytest.mark.parametrize("offset", [0.0, 0.2], ids=["x0", "offset"])
@pytest.mark.parametrize("cutoff", [2, 3])
@pytest.mark.parametrize(
    "n,angle",
    [(3, math.pi / 4), (5, math.pi / 2), (6, math.pi / 2), (8, math.pi / 4)],
    ids=["n3-pi/4", "n5-pi/2", "n6-pi/2", "n8-pi/4"],
)
class TestReflectionPolygons:
    """The Dirichlet cell of a reflection group at an interior point is its polygon."""

    def test_facets_are_the_mirrors(self, n, angle, cutoff, offset):
        normals, cell = reflection_polygon_cell(n, angle, cutoff, offset)
        assert len(cell.facets) == n
        mirrors = set()
        for facet in cell.facets:
            (k,) = [
                k for k, normal in enumerate(normals)
                if np.allclose(facet.halfspace.inward_normal(), -normal, atol=1e-9)
            ]
            # the reflection in mirror k, generator k, is word (2k,)
            assert facet.source_word == (2 * k,)
            mirrors.add(k)
        assert mirrors == set(range(n))

    def test_membership_is_inside_every_mirror(self, n, angle, cutoff, offset):
        normals, cell = reflection_polygon_cell(n, angle, cutoff, offset)
        # points out to 1.5 circumradii, cosh R = cot(pi/n) cot(angle/2)
        reach = 1.5 * math.acosh(1 / (math.tan(math.pi / n) * math.tan(angle / 2)))
        rng = np.random.default_rng(n * 10 + cutoff)
        verdicts = set()
        for t, theta in zip(rng.uniform(0, reach, 200), rng.uniform(0, 2 * math.pi, 200)):
            x = np.array([math.cosh(t), math.sinh(t) * math.cos(theta), math.sinh(t) * math.sin(theta)])
            sides = [bilinear(J2, x, normal) for normal in normals]
            if min(map(abs, sides)) < 1e-9:
                continue
            inside = all(side < 0 for side in sides)
            assert cell.contains(x) == inside, (t, theta)
            verdicts.add(inside)
        assert verdicts == {True, False}

    def test_vertex_angles(self, n, angle, cutoff, offset):
        _, cell = reflection_polygon_cell(n, angle, cutoff, offset)
        vertices = oracles.plane_cell_vertices(cell)
        assert len(vertices) == n
        assert all(abs(a - angle) <= 1e-12 for _, _, _, a in vertices)

    def test_self_paired_mirrors_pass_poincare(self, n, angle, cutoff, offset):
        normals, cell = reflection_polygon_cell(n, angle, cutoff, offset)
        # each mirror is paired with itself by the reflection in it, word (2k,)
        pairings = [
            FacetPairing((0, i), (0, i), reflection(J2, normals[f.source_word[0] // 2]))
            for i, f in enumerate(cell.facets)
        ]
        report = check_poincare_2d([cell], pairings)
        assert report.passed, report.summary()
        assert not report.unpaired and not report.pairing_errors
        # one cycle per vertex, through both of its mirrors: angle sum 2 angle
        assert len(report.cycles) == n
        for cyc in report.cycles:
            assert abs(cyc.angle_sum - 2 * angle) <= 1e-9
            assert cyc.order == round(math.pi / angle) and cyc.ok


class TestFacetTypes:
    def test_strip_along_marked_axis_first(self):
        _, orbit, cell = plane_config("cyclic", (2.0,))
        axis = MarkedGeodesic(J2, X0, E1, 0, 2.0)
        tagged = classify_facets(cell, [axis])
        assert all(f.facet_type is FacetType.FIRST for f in tagged.facets)

    def test_disjoint_marked_lift_second(self):
        _, orbit, cell = plane_config("cyclic", (2.0,))
        far_point = translation_along(J2, X0, E2, 5.0) @ X0
        far = MarkedGeodesic(J2, far_point, E1, 1, 2.0)
        tagged = classify_facets(cell, [far])
        assert all(f.facet_type is FacetType.SECOND for f in tagged.facets)

    def test_mixed_types(self):
        # center on the marked axis; one neighbour on the axis (wall crosses it),
        # one neighbour off the axis (wall ultraparallel to it)
        t_on = translation_along(J2, X0, E1, 2.0)
        t_off = translation_along(J2, X0, E2, 3.0)
        group = GroupData(J2, [t_on, t_off])
        orbit = build_orbit([X0], group, 1)
        cell = dirichlet_cell(X0, orbit, prune_radius=4.0)
        axis = MarkedGeodesic(J2, X0, E1, 0, 2.0)
        tagged = classify_facets(cell, [axis], box_radius=4.0)
        types = {f.source_word: f.facet_type for f in tagged.facets}
        assert types[(0,)] is FacetType.FIRST and types[(1,)] is FacetType.FIRST
        assert types[(2,)] is FacetType.SECOND and types[(3,)] is FacetType.SECOND
        # independent check: distance between supporting hyperplane and the axis
        axis_plane = axis.hyperplanes[0]
        for f in tagged.facets:
            gap = hyperplane_distance(J2, f.halfspace.hyperplane, axis_plane)
            if f.facet_type is FacetType.FIRST:
                assert gap <= 1e-9
            else:
                assert gap > 0.1


    def test_makes_no_lp_call(self, forbid_lp):
        _, _, cell = plane_config("cyclic", (2.0,))
        tagged = classify_facets(cell, [MarkedGeodesic(J2, X0, E1, 0, 2.0)])
        assert all(f.facet_type is FacetType.FIRST for f in tagged.facets)

    def test_lift_must_be_a_geodesic(self):
        _, _, cell = plane_config("cyclic", (2.0,))
        axis_plane = MarkedGeodesic(J2, X0, E1, 0, 2.0).hyperplanes[0]
        with pytest.raises(TypeError, match="Hyperplane"):
            classify_facets(cell, [axis_plane])

    def test_tangent_along_the_point_refused(self):
        # the tangent's projection vanishes
        with pytest.raises(ValueError, match="space-like after projection"):
            MarkedGeodesic(J2, X0, 2.0 * X0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_lift_refused(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            MarkedGeodesic(J2, np.array([bad, 0.0, 0.0]), E1, 0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"got f\(u\) = nan"):
            MarkedGeodesic(J2, X0, np.array([0.0, bad, 0.0]), 0)


def _facet_signature(cell):
    return [
        (f.source_word, tuple(f.halfspace.hyperplane.normal), f.halfspace.side)
        for f in cell.facets
    ]


def _facet_types(cell):
    return [f.facet_type for f in cell.facets]


def _reference_plane_cases():
    """(cutoff, angle in degrees, length along e1, length along the rotated axis)."""
    cases = [
        (1, 90.0, 1.3, 2.0),  # the nearest wall lies on a face of the Klein box
        (1, 0.0, 1.0, None),  # the same tie for a cyclic group
        (4, 169.19, 2.10, 1.71),  # bisectors through a common vertex
    ]
    rng = np.random.default_rng(2024)
    for cutoff, count in ((1, 2), (2, 4), (3, 3), (4, 1)):
        for _ in range(count):
            angle, len_h, len_v = rng.uniform((20.0, 0.5, 0.5), (170.0, 4.0, 4.0))
            cases.append((cutoff, *(round(float(x), 2) for x in (angle, len_h, len_v))))
    return cases


def _reference_plane_orbit(cutoff, angle, len_h, len_v):
    gens = [translation_along(J2, X0, E1, len_h)]
    if len_v is not None:
        axis = rotation_in_plane(J2, 1, 2, math.radians(angle)) @ E1
        gens.append(translation_along(J2, X0, axis, len_v))
    return build_orbit([X0], GroupData(J2, gens), cutoff)


H3_FORMS = pytest.mark.parametrize(
    "form", [jn_form(3), counting_base_form(4, FieldTag.Q_SQRT2)], ids=["J3", "sqrt2"]
)


def _reference_h3_orbit(form, cutoff):
    rng = np.random.default_rng(cutoff)
    x0 = basepoint(form)
    spatial = float_coefficients(form) > 0
    gens = [
        translation_along(form, x0, rng.standard_normal(form.dimension) * spatial, length)
        for length in rng.uniform(2.5, 3.5, 3)
    ]
    return build_orbit([x0], GroupData(form, gens), cutoff)


def _marked_geodesics(form):
    """Geodesics through the basepoint, offset from it, and along a second axis."""
    x0 = basepoint(form)
    spatial = np.flatnonzero(float_coefficients(form) > 0)
    first, second = np.eye(form.dimension)[spatial[:2]]
    offset = translation_along(form, x0, second, 0.6) @ x0
    return [
        MarkedGeodesic(form, x0, first, 0),
        MarkedGeodesic(form, offset, first, 1),
        MarkedGeodesic(form, x0, second, 2),
    ]


@pytest.mark.usefixtures("forbid_lp")
class TestLPReference:
    """Hull pruning keeps the facets of the duplicate-scan-plus-LP reference."""

    @pytest.mark.parametrize("cutoff,angle,len_h,len_v", _reference_plane_cases())
    def test_plane(self, cutoff, angle, len_h, len_v):
        orbit = _reference_plane_orbit(cutoff, angle, len_h, len_v)
        for radius in (None, 3.0, 0.5):
            reference = oracles.lp_pruned_cell(X0, orbit, prune_radius=radius)
            if not reference.facets:
                # a radius that keeps no wall is refused, not answered by a
                # cell that contains everything
                with pytest.raises(UndecidableError, match="keeps no facet"):
                    dirichlet_cell(X0, orbit, prune_radius=radius)
                continue
            hull = dirichlet_cell(X0, orbit, prune_radius=radius)
            assert _facet_signature(hull) == _facet_signature(reference), radius

    @pytest.mark.parametrize("cutoff", [2, 3])
    @H3_FORMS
    def test_h3(self, form, cutoff):
        orbit = _reference_h3_orbit(form, cutoff)
        x0 = basepoint(form)
        hull = dirichlet_cell(x0, orbit)
        assert hull.facets
        assert _facet_signature(hull) == _facet_signature(oracles.lp_pruned_cell(x0, orbit))


@pytest.mark.usefixtures("forbid_lp")
class TestFacetTypeLPReference:
    """Closed-form facet types equal the one-LP-per-facet reference."""

    BOX_RADII = (None, 4.0, 1.0)

    def assert_types_match(self, cell, marked_list):
        for box in self.BOX_RADII:
            for marked in [[m] for m in marked_list] + [marked_list]:
                expected = _facet_types(oracles.lp_classified_facets(cell, marked, box))
                assert _facet_types(classify_facets(cell, marked, box)) == expected, (
                    [m.surface_id for m in marked],
                    box,
                )

    @pytest.mark.parametrize("cutoff,angle,len_h,len_v", _reference_plane_cases())
    def test_plane(self, cutoff, angle, len_h, len_v):
        orbit = _reference_plane_orbit(cutoff, angle, len_h, len_v)
        compared = 0
        for radius in (None, 3.0, 0.5):
            try:
                cell = dirichlet_cell(X0, orbit, prune_radius=radius)
            except UndecidableError:
                continue
            self.assert_types_match(cell, _marked_geodesics(J2))
            compared += 1
        assert compared

    @pytest.mark.parametrize("cutoff", [2, 3])
    @H3_FORMS
    def test_h3(self, form, cutoff):
        orbit = _reference_h3_orbit(form, cutoff)
        cell = dirichlet_cell(basepoint(form), orbit)
        self.assert_types_match(cell, _marked_geodesics(form))

    def test_marked_geodesic_along_a_wall(self):
        # the wall between X0 and its translate by 2 along e2 is the geodesic
        # through the midpoint with tangent e1: parallel to the line, margin 0
        orbit = build_orbit([X0], GroupData(J2, [translation_along(J2, X0, E2, 2.0)]), 2)
        cell = dirichlet_cell(X0, orbit)
        wall = MarkedGeodesic(J2, translation_along(J2, X0, E2, 1.0) @ X0, E1, 0)
        tagged = classify_facets(cell, [wall])
        types = {f.source_word: f.facet_type for f in tagged.facets}
        assert types == {(0,): FacetType.FIRST, (1,): FacetType.SECOND}
        assert _facet_types(tagged) == _facet_types(oracles.lp_classified_facets(cell, [wall]))

    @pytest.mark.parametrize("len_v", [None, 2.0])
    def test_box_face_tie(self, len_v):
        # typed in the cutoff-1 box, rho = 0.35: the walls of the length-0.7
        # translation touch its faces, and rounding puts them ~1e-16 outside;
        # the LP accepts the touch within its tolerance, and so must the closed form
        orbit = _reference_plane_orbit(1, 90.0, 0.7, len_v)
        cell = dirichlet_cell(X0, orbit, prune_radius=3.0)
        axis = _marked_geodesics(J2)[0]
        types = _facet_types(classify_facets(cell, [axis]))
        assert types[:2] == [FacetType.FIRST] * 2
        assert types == _facet_types(oracles.lp_classified_facets(cell, [axis]))


def two_geodesic_setup(delta=0.8, window=4.0):
    p2 = np.array([math.cosh(delta), 0.0, math.sinh(delta)])
    s1 = MarkedGeodesic(J2, X0, E1, surface_id=1, fundamental_length=window)
    s2 = MarkedGeodesic(J2, p2, E1, surface_id=2, fundamental_length=window)
    group = GroupData(J2, [], marked=[s1, s2])
    return group, s1, s2


def near_miss_set(seed):
    """A set on the `geom admissible` scene of `seed` with a violation only
    near s1(t*): s1's points leave a gap of half-width D + eps around t*,
    where D is the distance from s1(t*) to its nearest point q of s2, which
    is in the set; eps runs log-uniformly from 1e-6 to 1e-2."""
    rng = np.random.default_rng(seed)
    delta, window = 0.4 + 0.8 * rng.random(), 3.0 + 2.0 * rng.random()
    u, v = rng.random(2)
    t_star, eps = 0.2 + 0.6 * u, 10.0 ** (-6.0 + 4.0 * v)
    group, s1, s2 = two_geodesic_setup(delta, window)
    x = s1.point_at(t_star)
    # -b(x, s2(t)) = A cosh t + B sinh t is least where tanh t = -B / A
    q = s2.point_at(math.atanh(bilinear(J2, x, s2.tangent) / -bilinear(J2, x, s2.point)))
    h = distance(J2, x, q) + eps
    ts = np.linspace(0.0, window, 60)
    ts = np.append(ts[np.abs(ts - t_star) >= h], [t_star - h, t_star + h])
    points = [(s1.point_at(t), 1) for t in ts] + [(q, 2)]
    points += [(s2.point_at(t), 2) for t in np.linspace(0.0, window, 60)]
    return group, AdmissibleSet(tuple(points))


def translated_pair_set(seed):
    """Two surfaces at distance delta under one translation of length 1-4
    along any axis through the basepoint, with cutoff 1 or 2, and their
    covering set (30 % of it, the first point kept, for odd seeds); None
    when the covering construction refuses the pair."""
    rng = np.random.default_rng(seed)
    delta, window = 0.4 + 0.8 * rng.random(), 1.0 + 2.0 * rng.random()
    length, angle, cutoff = 1.0 + 3.0 * rng.random(), 360.0 * rng.random(), int(rng.integers(1, 3))
    _, s1, s2 = two_geodesic_setup(delta, window)
    axis = rotation_in_plane(J2, 1, 2, math.radians(angle)) @ E1
    group = GroupData(J2, [translation_along(J2, X0, axis, length)], marked=[s1, s2])
    try:
        points = build_admissible_set([s1, s2], group).points
    except ValueError:
        return None
    if seed % 2:
        keep = rng.random(len(points)) >= 0.7
        keep[0] = True
        points = tuple(p for p, k in zip(points, keep) if k)
    return group, AdmissibleSet(points), cutoff


class TestAdmissibility:
    def test_sparse_pair_fails_with_witness(self):
        group, s1, s2 = two_geodesic_setup()
        sparse = AdmissibleSet(((s1.point_at(0.0), 1), (s2.point_at(4.0), 2)))
        verdict = check_admissible(sparse, group, orbit_cutoff=1)
        assert not verdict.admissible
        assert verdict.witness is not None
        assert verdict.witness_surface == 2

    def test_covering_construction_passes(self):
        group, s1, s2 = two_geodesic_setup()
        dense = build_admissible_set([s1, s2], group)
        assert check_admissible(dense, group, orbit_cutoff=1).admissible

    def test_single_surface_any_point(self):
        s1 = MarkedGeodesic(J2, X0, E1, surface_id=1, fundamental_length=3.0)
        group = GroupData(J2, [], marked=[s1])
        one = AdmissibleSet(((s1.point_at(1.2), 1),))
        assert check_admissible(one, group, orbit_cutoff=1).admissible

    def test_zero_fundamental_length_refused(self):
        s1 = MarkedGeodesic(J2, X0, E1, surface_id=1)  # fundamental_length 0
        group = GroupData(J2, [], marked=[s1])
        one = AdmissibleSet(((X0, 1),))
        with pytest.raises(ValueError, match="positive fundamental segment"):
            check_admissible(one, group, orbit_cutoff=1)

    def test_separations_value(self):
        group, s1, s2 = two_geodesic_setup(delta=0.8)
        seps = surface_separations(group, [s1, s2])
        assert abs(seps[1] - 0.8) < 1e-9 and abs(seps[2] - 0.8) < 1e-9

    @pytest.mark.parametrize("cutoff", [1, 2])
    @pytest.mark.parametrize("angle", [60.0, 90.0, 120.0])
    def test_separations_with_a_generator_match_words(self, angle, cutoff):
        _, s1, s2 = two_geodesic_setup(delta=0.8)
        axis = rotation_in_plane(J2, 1, 2, math.radians(angle)) @ E1
        group = GroupData(J2, [translation_along(J2, X0, axis, 1.5)], marked=[s1, s2])
        seps = surface_separations(group, [s1, s2], cutoff)
        want = oracles.word_separations(group, [s1, s2], cutoff)
        assert seps.keys() == want.keys()
        for i, d in want.items():
            assert 0.0 < d < 0.8  # a translated lift is nearer than the other surface
            assert abs(seps[i] - d) <= 1e-9

    def test_asymptotic_surfaces_rejected(self):
        # two geodesics through the same ideal point: distance zero
        s1 = MarkedGeodesic(J2, X0, E1, surface_id=1, fundamental_length=2.0)
        crossing = MarkedGeodesic(J2, X0, E1 + 0.5 * E2, surface_id=2, fundamental_length=2.0)
        group = GroupData(J2, [], marked=[s1, crossing])
        with pytest.raises(ValueError, match="touches"):
            build_admissible_set([s1, crossing], group)

    def test_point_off_surface_rejected(self):
        group, s1, s2 = two_geodesic_setup()
        off = translation_along(J2, X0, E2, 0.2) @ X0
        bad = AdmissibleSet(((off, 1),))
        with pytest.raises(ValueError, match="does not lie"):
            check_admissible(bad, group, orbit_cutoff=1)

    def test_point_off_surface_rejected_among_valid_points(self):
        group, s1, s2 = two_geodesic_setup()
        off = translation_along(J2, X0, E2, 0.2) @ X0
        bad = AdmissibleSet(((s2.point_at(1.0), 2), (s1.point_at(0.5), 1), (off, 1)))
        with pytest.raises(ValueError, match="does not lie"):
            check_admissible(bad, group, orbit_cutoff=1)

    def test_unknown_surface_rejected(self):
        group, s1, _ = two_geodesic_setup()
        bad = AdmissibleSet(((s1.point_at(0.0), 1), (s1.point_at(1.0), 3)))
        with pytest.raises(ValueError, match="unknown surface 3"):
            check_admissible(bad, group, orbit_cutoff=1)

    def test_undecidable_when_cutoff_too_small(self):
        # a translation group with a long fundamental window needs a deep orbit
        s1 = MarkedGeodesic(J2, X0, E1, surface_id=1, fundamental_length=14.0)
        t = translation_along(J2, X0, E1, 2.0)
        group = GroupData(J2, [t], marked=[s1])
        x = AdmissibleSet(((s1.point_at(0.0), 1),))
        # the nearest seed is farthest at the segment's end: 14 away, past rho = (2 - 0) / 2
        want = (
            "surface 1 at t = 14 is 14 from its nearest seed, "
            "beyond the certification radius rho = 1 of orbit cutoff 1"
        )
        with pytest.raises(UndecidableError, match=want):
            check_admissible(x, group, orbit_cutoff=1)

    @pytest.mark.parametrize("seed", range(0, 200, 40))
    def test_near_misses_are_violations(self, seed):
        # 40 near-miss sets per case, 200 in all; a grid at spacing delta / 10 steps over most of them
        for k in range(seed, seed + 40):
            group, x_set = near_miss_set(k)
            verdict = check_admissible(x_set, group, orbit_cutoff=1)
            assert not verdict.admissible, k
            # the witness is nearer another surface's point than its own, and the
            # oracle (about 30 ms a set) finds its surface the first one with such a point
            seeds, tags = x_set.seeds_and_tags()
            d = {i: min(distance(J2, verdict.witness, p) for p, t in zip(seeds, tags) if t == i) for i in (1, 2)}
            own = d[verdict.witness_surface]
            assert min(v for t, v in d.items() if t != verdict.witness_surface) < own - 1e-12, k
            if k % 10 == 0:
                first = next(w for w in oracles.brute_force_admissible(x_set, group, 1) if w.violation)
                assert first.surface_id == verdict.witness_surface, k

    def test_verdicts_and_refusals_match_brute_force(self):
        # two surfaces under one translation; UndecidableError exactly where the
        # nearest seed is farther than rho somewhere on a segment
        outcomes = {"refused": 0, "skipped": 0, "admissible": 0, "undecidable": 0, "violation": 0}
        for seed in range(300):
            drawn = translated_pair_set(seed)
            if drawn is None:
                outcomes["refused"] += 1
                continue
            group, x_set, cutoff = drawn
            bound = build_orbit(x_set.seeds_and_tags()[0], group, cutoff).certification_radius + EPS
            samples = oracles.brute_force_admissible(x_set, group, cutoff)
            if any(abs(w.reach - bound) <= 1e-9 for w in samples):
                outcomes["skipped"] += 1
                continue
            # surface by surface, as the check reads them: first the radius, then the cover
            want = next(("undecidable" if w.reach > bound else "violation" for w in samples
                         if w.reach > bound or w.violation), "admissible")
            try:
                got = "admissible" if check_admissible(x_set, group, cutoff) else "violation"
            except UndecidableError:
                got = "undecidable"
            assert got == want, seed
            outcomes[got] += 1
        assert outcomes == {
            "refused": 132, "skipped": 0, "admissible": 87, "undecidable": 68, "violation": 13
        }

    @pytest.mark.parametrize("start", [-3.0, 1.0])
    def test_violation_beyond_the_segment_reads_admissible(self, start):
        # surface 1's segment is [start, start + 2] of a geodesic 0.8 from
        # surface 2's [-1, 1] at 0: its geodesic is nearer surface 2's points
        # between them, after its end or before its start, and only there
        _, g1, g2 = two_geodesic_setup(delta=0.8)

        def segment(g, a, length, surface_id):
            tangent = math.sinh(a) * g.point + math.cosh(a) * g.tangent
            return MarkedGeodesic(J2, g.point_at(a), tangent, surface_id, fundamental_length=length)

        s1, s2 = segment(g1, start, 2.0, 1), segment(g2, -1.0, 2.0, 2)
        points = [(s1.point_at(t), 1) for t in np.linspace(0.0, 2.0, 9)]
        points += [(s2.point_at(t), 2) for t in np.linspace(0.0, 2.0, 9)]
        x_set = AdmissibleSet(tuple(points))
        group = GroupData(J2, [], marked=[s1, s2])
        assert check_admissible(x_set, group, orbit_cutoff=1).admissible
        assert [w.violation for w in oracles.brute_force_admissible(x_set, group, 1)] == [False, False]
        wider = GroupData(J2, [], marked=[segment(g1, -3.0, 6.0, 1), s2])
        verdict = check_admissible(x_set, wider, orbit_cutoff=1)
        assert not verdict.admissible and verdict.witness_surface == 1

    def test_surface_without_own_points_is_a_violation(self):
        group, s1, s2 = two_geodesic_setup()
        x_set = AdmissibleSet(((s2.point_at(1.0), 2), (s2.point_at(3.0), 2)))
        verdict = check_admissible(x_set, group, orbit_cutoff=1)
        assert not verdict.admissible
        assert verdict.witness_surface == 1 and np.array_equal(verdict.witness, s1.point)
        assert "d_own=inf" in verdict.message

    def test_randomized_covering_properties(self):
        rng = np.random.default_rng(1234)
        for trial in range(20):
            delta = 0.4 + 1.0 * float(rng.random())
            window = 2.0 + 3.0 * float(rng.random())
            group, s1, s2 = two_geodesic_setup(delta=delta, window=window)
            dense = build_admissible_set([s1, s2], group)
            assert check_admissible(dense, group, orbit_cutoff=1).admissible

    def test_induced_decomposition_matches(self):
        # admissible: the nearest center overall equals the nearest own-surface
        # center, i.e. ambient cells restrict to the surface's own cells
        group, s1, s2 = two_geodesic_setup()
        dense = build_admissible_set([s1, s2], group)
        seeds, tags = dense.seeds_and_tags()
        orbit = build_orbit(seeds, group, 1, tags=tags)
        coords = orbit.coordinates()
        tags_arr = np.array([op.tag for op in orbit.points])
        c = np.array([-1.0, 1.0, 1.0])
        for s in (s1, s2):
            ts = np.linspace(0.0, s.fundamental_length, 60)
            pts = np.cosh(ts)[:, None] * s.point + np.sinh(ts)[:, None] * s.tangent
            d = np.arccosh(np.maximum(1.0, -(pts * c) @ coords.T))
            overall = np.argmin(d, axis=1)
            own = np.where(tags_arr == s.surface_id, d, np.inf).argmin(axis=1)
            assert np.all(overall == own)


class TestOrthogonalExtension:
    def build(self):
        _, orbit, cell = plane_config("cyclic", (2.0,))
        axis = MarkedGeodesic(J2, X0, E1, 0, 2.0)
        return classify_facets(cell, [axis])

    def test_cross_section_recovers_strip(self):
        cell = self.build()
        ext = orthogonal_extension(cell, 1)
        form3 = ext.form
        # sample along the base axis: inside iff within the strip
        for t in np.linspace(-2.0, 2.0, 41):
            p = np.array([math.cosh(t), math.sinh(t), 0.0, 0.0])
            assert ext.contains(p) == (abs(t) <= 1.0 + 1e-9)

    def test_extended_normals_orthogonal_to_horizontal(self):
        ext = orthogonal_extension(self.build(), 1)
        horizontal = np.array([0.0, 0.0, 0.0, 1.0])
        for f in ext.facets:
            assert abs(bilinear(ext.form, f.halfspace.hyperplane.normal, horizontal)) <= 1e-12

    def test_types_inherited_and_commute_with_classify(self):
        cell = self.build()
        ext = orthogonal_extension(cell, 1)
        assert [f.facet_type for f in ext.facets] == [f.facet_type for f in cell.facets]
        # classify after extension against the extended marked axis
        e1_4 = np.array([0.0, 1.0, 0.0, 0.0])
        x0_4 = np.array([1.0, 0.0, 0.0, 0.0])
        axis3 = MarkedGeodesic(ext.form, x0_4, e1_4, 0, 2.0)
        retagged = classify_facets(ext, [axis3], box_radius=3.0)
        assert [f.facet_type for f in retagged.facets] == [
            f.facet_type for f in cell.facets
        ]

    def test_ideal_boundary_two_conformal_copies(self):
        ext = orthogonal_extension(self.build(), 1)
        form3 = ext.form
        rng = np.random.default_rng(7)
        half = math.tanh(0.5)  # klein half-width of the strip (walls at distance 1)
        cap_signs = set()
        for _ in range(200):
            k1 = (2.0 * float(rng.random()) - 1.0) * half
            k2 = (2.0 * float(rng.random()) - 1.0) * 0.95
            if k1 * k1 + k2 * k2 >= 1.0 - 1e-6:
                continue
            k3 = math.sqrt(1.0 - k1 * k1 - k2 * k2)
            for sign in (1.0, -1.0):
                ideal = np.array([1.0, k1, k2, sign * k3])
                margins = [f.halfspace.margin(ideal) for f in ext.facets]
                assert min(margins) >= -1e-9  # ideal point lies over the cell
                cap_signs.add(sign)
        # projecting away the last coordinate recovers base-strip membership
        assert cap_signs == {1.0, -1.0}

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("length", [0.3, 1.0, 2.0, 5.0, 9.0, 12.0])
    def test_wall_spheres_match_closed_form(self, length, q):
        # `geom extension` draws these spheres: the strip walls of a
        # translation by `length`, centred at (+-coth(length/2), 0, 0) with
        # radius 1/sinh(length/2), whatever the summand q
        t = translation_along(J2, X0, E1, length)
        ext = orthogonal_extension(dirichlet_cell(X0, build_orbit([X0], GroupData(J2, [t]), 3)), q)
        centre, radius = 1.0 / math.tanh(length / 2.0), 1.0 / math.sinh(length / 2.0)
        signs = []
        for f in ext.facets:
            sphere = boundary_sphere(ext.form, f.halfspace.hyperplane)
            sign = math.copysign(1.0, sphere.center[0])
            expected = np.array([sign * centre, 0.0, 0.0])
            assert np.linalg.norm(sphere.center - expected) <= 1e-10 * centre
            assert abs(sphere.radius - radius) <= 1e-10 * radius
            signs.append(sign)
        assert signs == [1.0, -1.0]

    def test_ideal_points_off_base_cell_excluded(self):
        ext = orthogonal_extension(self.build(), 1)
        k1 = math.tanh(0.5) * 1.8  # beyond the strip wall
        k3 = math.sqrt(max(0.0, 1.0 - k1 * k1))
        ideal = np.array([1.0, k1, 0.0, k3])
        margins = [f.halfspace.margin(ideal) for f in ext.facets]
        assert min(margins) < -1e-9


class TestShrink:
    def test_monotone_and_constant(self):
        report = sphere_shrink_report([2.0, 4.0, 8.0], spacing=2.0)
        assert report.second_strictly_decreasing
        assert report.first_constant
        for row in report.rows:
            assert abs(row.second_radius - 1.0 / math.sinh(row.r / 2.0)) <= 1e-9
            assert abs(row.first_radius - 1.0 / math.sinh(1.0)) <= 1e-9

    def test_single_r_single_row(self):
        report = sphere_shrink_report([3.0])
        assert len(report.rows) == 1
        assert report.shrink_factors == ()
        assert report.second_strictly_decreasing and report.first_constant

    def test_requires_increasing_r(self):
        with pytest.raises(ValueError):
            sphere_shrink_report([4.0, 2.0])

    @pytest.mark.parametrize("spacing", [0.7, 2.0, 3.0])
    def test_wall_spheres_match_closed_form(self, spacing):
        # a FIRST wall sits at (+-coth(s/2), 0, 0) with radius 1/sinh(s/2), a
        # SECOND wall at (0, 0, +-coth(R/2)) with radius 1/sinh(R/2); `geom
        # shrink` draws these spheres, in facet order +first, -first, +second, -second
        report = sphere_shrink_report([0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0], spacing=spacing)
        for row in report.rows:
            placed = []
            for sphere, kind in row.spheres:
                length, axis = (spacing, 0) if kind is FacetType.FIRST else (row.r, 2)
                sign = math.copysign(1.0, sphere.center[axis])
                expected = np.zeros(3)
                expected[axis] = sign / math.tanh(length / 2.0)
                radius = 1.0 / math.sinh(length / 2.0)
                assert np.linalg.norm(sphere.center - expected) <= 1e-9 * abs(expected[axis])
                assert abs(sphere.radius - radius) <= 1e-9 * radius
                placed.append((kind, sign))
            assert placed == [
                (FacetType.FIRST, 1.0),
                (FacetType.FIRST, -1.0),
                (FacetType.SECOND, 1.0),
                (FacetType.SECOND, -1.0),
            ]

    def test_lost_wall_family_is_undecidable(self):
        # with walls 0.001 apart the second-type walls at R = 4 are pruned
        # within the feasibility tolerance
        with pytest.raises(UndecidableError, match="R = 4, spacing 0.001 lost its second-type"):
            sphere_shrink_report([2.0, 4.0], spacing=0.001)


def translation_walls(angle, length):
    """The Dirichlet walls at X0 of one translation whose axis leaves X0 at `angle`, by word."""
    axis = rotation_in_plane(J2, 1, 2, angle) @ E1
    t = translation_along(J2, X0, axis, length)
    cell = dirichlet_cell(X0, build_orbit([X0], GroupData(J2, [t]), 3))
    return {f.source_word: f.halfspace for f in cell.facets}


class TestNestingClosedForm:
    """Nesting verdicts and the crossing threshold against their closed forms.

    Walls of translations of lengths a and b, with axes meeting at X0 at
    angle theta, have inward normals whose product is
    s = sigma cosh(a/2) cosh(b/2) cos(theta) - sinh(a/2) sinh(b/2),
    sigma = +1 for two walls of words of one sign, -1 otherwise.
    """

    def test_products_and_verdicts(self):
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(300):
            theta = math.radians(rng.uniform(5.0, 175.0))
            a, b = rng.uniform(0.2, 6.0, 2)
            h_walls, v_walls = translation_walls(0.0, a), translation_walls(theta, b)
            assert sorted(h_walls) == sorted(v_walls) == [(0,), (1,)]
            ch, sh = math.cosh(a / 2) * math.cosh(b / 2), math.sinh(a / 2) * math.sinh(b / 2)
            for (wh, hs_h), (wv, hs_v) in itertools.product(h_walls.items(), v_walls.items()):
                s = (1.0 if wh == wv else -1.0) * ch * math.cos(theta) - sh
                # the worst of 300 draws was 2.3e-14 relative on this seed
                # and 3.6e-14 on seed 1
                tol = 1e-13 * max(1.0, abs(s))
                assert abs(bilinear(J2, hs_h.inward_normal(), hs_v.inward_normal()) - s) <= tol
                # no draw comes within the tolerance of a verdict boundary
                assert abs(abs(s) - (1.0 - EPS)) > tol
                if abs(s) < 1.0 - EPS:
                    want = NestingVerdict.CROSSING
                else:
                    want = NestingVerdict.NESTED if s > 0 else NestingVerdict.DISJOINT_NOT_NESTED
                assert are_nested(J2, hs_h, hs_v, X0) is want
                verdicts.add(want)
        assert len(verdicts) == 3

    @pytest.mark.parametrize("len_h", [0.3, 1.0, 2.0])
    def test_orthogonal_threshold(self, len_h):
        # at 90 degrees s = -sinh(lenH/2) sinh(lenV/2), so the walls stop
        # crossing at lenV* = 2 asinh(1 / sinh(lenH/2))
        h_walls = translation_walls(0.0, len_h).values()

        def crossing(len_v):
            return any(
                are_nested(J2, hs_h, hs_v, X0) is NestingVerdict.CROSSING
                for hs_h in h_walls
                for hs_v in translation_walls(math.pi / 2, len_v).values()
            )

        lo, hi = 0.5, 6.0
        assert crossing(lo) and not crossing(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if crossing(mid):
                lo = mid
            else:
                hi = mid
        # the bracket is 5e-12 wide; the verdict's band |s| < 1 - EPS moves
        # the threshold by EPS / |ds/dlenV|: 2.0e-9, 1.8e-9 and 1.3e-9 here
        assert abs(hi - 2.0 * math.asinh(1.0 / math.sinh(len_h / 2))) <= 3e-9


def strip_domain(length=2.0):
    t = translation_along(J2, X0, E1, length)
    orbit = build_orbit([X0], GroupData(J2, [t]), 3)
    cell = dirichlet_cell(X0, orbit)
    words = [f.source_word for f in cell.facets]
    pairing = FacetPairing((0, words.index((1,))), (0, words.index((0,))), t)
    return cell, [pairing]


def translation_move(length, angle_deg):
    """Translation of the given length from the basepoint, at the angle to e1."""
    axis = rotation_in_plane(J2, 1, 2, math.radians(angle_deg)) @ E1
    return translation_along(J2, X0, axis, length)


# translations that move a whole domain off the basepoint
MOVES = [(length, angle) for length in (0.1, 1.0, 2.0) for angle in (0.0, 17.0, 90.0)]


def moved(move, gens):
    """The image of the basepoint under `move`, and the generators conjugated
    by it; the basepoint and the generators themselves when `move` is None."""
    if move is None:
        return X0, gens
    back = isometry_inverse(J2, move)
    return move @ X0, [move @ g @ back for g in gens]


def two_cell_domain(angle_deg, len_h, len_v, move=None):
    x, (t_h, t_v) = moved(
        move,
        [translation_along(J2, X0, E1, len_h), translation_move(len_v, angle_deg)],
    )
    cell_h = dirichlet_cell(x, build_orbit([x], GroupData(J2, [t_h]), 3))
    cell_v = dirichlet_cell(x, build_orbit([x], GroupData(J2, [t_v]), 3))
    wh = [f.source_word for f in cell_h.facets]
    wv = [f.source_word for f in cell_v.facets]
    pairings = [
        FacetPairing((0, wh.index((1,))), (0, wh.index((0,))), t_h),
        FacetPairing((1, wv.index((1,))), (1, wv.index((0,))), t_v),
    ]
    return [cell_h, cell_v], pairings


# side length of the square cell whose corner angles add up to pi
SQUARE_ORBIFOLD = 2.0 * math.asinh(2.0 ** -0.25)


def square_domain(length, pair_t2=True, move=None):
    """Square cell of translations t1, t2 along e1, e2; (1,) -> (0,) by t1, (3,) -> (2,) by t2."""
    x, (t1, t2) = moved(
        move, [translation_along(J2, X0, E1, length), translation_along(J2, X0, E2, length)]
    )
    cell = dirichlet_cell(x, build_orbit([x], GroupData(J2, [t1, t2]), 1), prune_radius=3.0)
    words = {f.source_word: i for i, f in enumerate(cell.facets)}
    pairings = [FacetPairing((0, words[(1,)]), (0, words[(0,)]), t1)]
    if pair_t2:
        pairings.append(FacetPairing((0, words[(3,)]), (0, words[(2,)]), t2))
    return cell, pairings


def seeded_translation_domain(seed, move=None):
    """One or two translations at the basepoint, cutoff 1-3, prune radius 3 or 5;
    generator g pairs facet (2g+1,) with facet (2g,).  The whole domain is
    then moved by `move`."""
    rng = np.random.default_rng(seed)
    x, gens = moved(
        move,
        [
            translation_along(
                J2,
                X0,
                rotation_in_plane(J2, 1, 2, rng.uniform(0.0, 2.0 * math.pi)) @ E1,
                rng.uniform(0.4, 4.0),
            )
            for _ in range(rng.integers(1, 3))
        ],
    )
    orbit = build_orbit([x], GroupData(J2, gens), int(rng.integers(1, 4)))
    cell = dirichlet_cell(x, orbit, prune_radius=float(rng.choice([3.0, 5.0])))
    words = {f.source_word: i for i, f in enumerate(cell.facets)}
    pairings = [
        FacetPairing((0, words[(2 * g + 1,)]), (0, words[(2 * g,)]), t)
        for g, t in enumerate(gens)
        if (2 * g + 1,) in words and (2 * g,) in words
    ]
    return cell, pairings


def domain_report(build, move):
    """What moving a domain by an isometry must leave as it is: the facet
    words, the nesting verdicts between the first and the last cell, the
    Poincare verdict, pairing errors and cycle orders; or the exception."""
    try:
        cells, pairings = build(move)
        cells = cells if isinstance(cells, list) else [cells]
        report = check_poincare_2d(cells, pairings)
    except (ValueError, UndecidableError) as exc:
        return type(exc).__name__, str(exc)
    verdicts = [
        are_nested(J2, a.halfspace, b.halfspace, cells[0].center)
        for a in cells[0].facets
        for b in cells[-1].facets
        if len(cells) > 1
    ]
    return (
        [[f.source_word for f in cell.facets] for cell in cells],
        verdicts,
        report.passed,
        report.unpaired,
        report.pairing_errors,
        [(c.order, c.ok) for c in report.cycles],
        report.nested_pairs,
        report.skipped_nesting,
    )


# both README `geom nesting` scenes and the seeded one-cell domains
INVARIANT_DOMAINS = {
    "nesting 90/1/6": lambda move: two_cell_domain(90.0, 1.0, 6.0, move),
    "nesting 60/0.3/8": lambda move: two_cell_domain(60.0, 0.3, 8.0, move),
    **{f"seed {seed}": functools.partial(seeded_translation_domain, seed) for seed in range(40)},
}


class TestPoincare:
    def test_strip_passes(self):
        cell, pairings = strip_domain()
        report = check_poincare_2d([cell], pairings)
        assert report.passed, report.summary()

    def test_ping_pong_passes(self):
        cells, pairings = two_cell_domain(90.0, 1.0, 6.0)
        report = check_poincare_2d(cells, pairings)
        assert report.passed, report.summary()
        assert not report.nested_pairs

    def test_oblique_fails_with_nested_witness(self):
        cells, pairings = two_cell_domain(60.0, 0.3, 8.0)
        report = check_poincare_2d(cells, pairings)
        assert not report.passed
        assert report.nested_pairs

    def test_unpaired_facet_reported(self):
        cell, pairings = strip_domain()
        report = check_poincare_2d([cell], [])
        assert not report.passed
        assert len(report.unpaired) == 2

    def test_wrong_isometry_reported(self):
        cell, pairings = strip_domain(2.0)
        bad = translation_along(J2, X0, E1, 1.7)
        wrong = [FacetPairing(pairings[0].source, pairings[0].target, bad)]
        report = check_poincare_2d([cell], wrong)
        assert not report.passed
        assert report.pairing_errors

    def test_square_orbifold_vertex_cycle(self):
        # square cell with corner angle pi/4: translation side-pairings give
        # a torus-with-one-cone-point orbifold, vertex cycle angle sum 2 pi / 2.
        # corner angle theta satisfies cos(theta) = sinh^2(l/2) for walls
        # orthogonal to perpendicular axes at distance l/2.
        length = 2.0 * math.asinh(2.0 ** -0.25)
        t1 = translation_along(J2, X0, E1, length)
        t2 = translation_along(J2, X0, E2, length)
        group = GroupData(J2, [t1, t2])
        orbit = build_orbit([X0], group, 1)
        cell = dirichlet_cell(X0, orbit, prune_radius=3.0)
        assert len(cell.facets) == 4
        words = {f.source_word: i for i, f in enumerate(cell.facets)}
        pairings = [
            FacetPairing((0, words[(1,)]), (0, words[(0,)]), t1),
            FacetPairing((0, words[(3,)]), (0, words[(2,)]), t2),
        ]
        report = check_poincare_2d([cell], pairings)
        assert report.cycles, "square cell should produce vertex cycles"
        assert report.passed, report.summary()
        assert any(c.order == 2 for c in report.cycles)
        total = sum(c.angle_sum for c in report.cycles)
        assert abs(total - math.pi) <= 1e-6

    def test_reflection_is_not_a_side_pairing(self):
        # the mirror x1 = 0 maps facet (1,) onto facet (0,) end to end, but
        # leaves the cell on the inner side of (0,)
        cell, pairings = strip_domain(2.0)
        p = pairings[0]
        report = check_poincare_2d([cell], [FacetPairing(p.source, p.target, reflection(J2, E1))])
        assert not report.passed
        assert report.pairing_errors == (
            f"pairing {p.source}->{p.target}: image of the cell does not lie across "
            "the partner facet",
        )

    def test_self_pairing_must_be_an_involution(self):
        # the reflection in a wall of the strip pairs the wall with itself; a
        # glide reflection along the wall also keeps the wall and its ideal
        # ends and takes the cell across it, but its square is a translation
        cell, _ = strip_domain(2.0)
        mirrors = [reflection(J2, f.halfspace.hyperplane.normal) for f in cell.facets]
        pairings = [FacetPairing((0, i), (0, i), m) for i, m in enumerate(mirrors)]
        report = check_poincare_2d([cell], pairings)
        assert report.passed, report.summary()
        assert not report.cycles
        y = X0 + mirrors[0] @ X0  # x0 and its image are symmetric about wall 0
        foot = y / math.sqrt(-bilinear(J2, y, y))
        glide = translation_along(J2, foot, E2, 0.5) @ mirrors[0]
        pairings[0] = FacetPairing((0, 0), (0, 0), glide)
        report = check_poincare_2d([cell], pairings)
        assert not report.passed and not report.unpaired
        assert report.pairing_errors == (
            "pairing (0, 0)->(0, 0): a facet paired with itself needs an involution",
        )

    def test_ideal_end_must_map_onto_partner_ideal_end(self):
        # t2 runs along the line through e2 at distance 1 that is parallel to
        # e1, so its bisectors cut the t1 facets at their upper ends only;
        # rho, the mirror through the vertex of (0,) perpendicular to it,
        # keeps that vertex and both sides of (0,) but swaps its two rays
        t1 = translation_along(J2, X0, E1, 1.0)
        t2 = translation_along(J2, translation_along(J2, X0, E2, 1.0) @ X0, E1, 2.0)
        cell = dirichlet_cell(X0, build_orbit([X0], GroupData(J2, [t1, t2]), 1), prune_radius=3.0)
        words = {f.source_word: i for i, f in enumerate(cell.facets)}
        source, target = (0, words[(1,)]), (0, words[(0,)])
        (vertex,) = [w for w, i, j, _ in oracles.plane_cell_vertices(cell) if target[1] in (i, j)]
        normal = cell.facets[target[1]].halfspace.inward_normal()
        rho = reflection(J2, np.cross(vertex, normal) / float_coefficients(J2))
        assert not check_poincare_2d([cell], [FacetPairing(source, target, t1)]).pairing_errors
        report = check_poincare_2d([cell], [FacetPairing(source, target, rho @ t1)])
        assert report.pairing_errors == (
            f"pairing {source}->{target}: facet endpoints do not map onto partner",
        )

    @pytest.mark.parametrize("delta", [1e-7, 1e-9, 1e-11])
    def test_walls_meeting_at_the_circle_make_no_vertex(self, delta):
        # at angle +-acos(tanh 1) from e1, walls (0,) and (2,) of length-2
        # translations meet on the unit circle; delta moves that point less
        # than 1e-7 inside it, so both ends stay ideal and no cycle is walked
        angle = math.acos(math.tanh(1.0)) - delta
        t1, t2 = (
            translation_along(J2, X0, rotation_in_plane(J2, 1, 2, a) @ E1, 2.0)
            for a in (-angle, angle)
        )
        cell = dirichlet_cell(X0, build_orbit([X0], GroupData(J2, [t1, t2]), 1), prune_radius=3.0)
        words = {f.source_word: i for i, f in enumerate(cell.facets)}
        pairings = [
            FacetPairing((0, words[(1,)]), (0, words[(0,)]), t1),
            FacetPairing((0, words[(3,)]), (0, words[(2,)]), t2),
        ]
        report = check_poincare_2d([cell], pairings)
        assert report.passed, report.summary()
        assert not report.cycles and not report.pairing_errors

    def test_no_cells_refused(self):
        with pytest.raises(ValueError):
            check_poincare_2d([], [])
        lone = dirichlet_cell(X0, build_orbit([X0], GroupData(J2, []), 1))
        assert not lone.facets
        assert check_poincare_2d([lone], []).passed

    def test_unpaired_square_sides_give_bad_cycles(self):
        cell, pairings = square_domain(SQUARE_ORBIFOLD, pair_t2=False)
        report = check_poincare_2d([cell], pairings)
        assert not report.passed
        assert report.unpaired == ((0, 2), (0, 3))
        assert len(report.cycles) == 4
        for cyc in report.cycles:
            assert abs(cyc.angle_sum - math.pi / 4) <= 1e-9
            assert cyc.order is None and not cyc.ok

    @pytest.mark.parametrize("length", [1.0, 1.5])
    def test_square_angle_sum_not_2pi_over_m_is_bad(self, length):
        cell, pairings = square_domain(length)
        report = check_poincare_2d([cell], pairings)
        assert not report.passed
        assert not report.unpaired and not report.pairing_errors
        (cyc,) = report.cycles
        corner = math.acos(math.sinh(length / 2.0) ** 2)
        assert abs(cyc.angle_sum - 4.0 * corner) <= 1e-9
        assert cyc.order is None and not cyc.ok
        assert report.summary().endswith("BAD")

    def test_walk_ends_at_a_revisited_vertex(self):
        # (1,) -> (2,) by a quarter turn then t2 is a side pairing too; as the
        # later pairing it takes over the ends of (1,), so the end map is no
        # longer one to one and the first walk runs into a loop without its start
        cell, pairings = square_domain(SQUARE_ORBIFOLD)
        quarter = rotation_in_plane(J2, 1, 2, math.pi / 2.0)
        pairings.append(
            FacetPairing(pairings[0].source, pairings[1].target, pairings[1].isometry @ quarter)
        )
        report = check_poincare_2d([cell], pairings)
        assert not report.pairing_errors
        assert [c.ok for c in report.cycles] == [False, False]
        assert abs(sum(c.angle_sum for c in report.cycles) - math.pi) <= 1e-9

    def test_pairing_across_cells_with_their_own_centers(self):
        # the strip and a copy moved off the basepoint by h; each pairing
        # carries a facet of one onto a facet of the other, so its ends go
        # from the source cell's chart to the target cell's
        h = translation_move(1.0, 90.0)
        t = translation_along(J2, X0, E1, 2.0)
        cells = []
        for move in (None, h):
            x, gens = moved(move, [t])
            cells.append(dirichlet_cell(x, build_orbit([x], GroupData(J2, gens), 3)))
        words = [f.source_word for f in cells[0].facets]
        assert words == [f.source_word for f in cells[1].facets]
        lo, hi = words.index((1,)), words.index((0,))
        pairings = [
            FacetPairing((0, lo), (1, hi), h @ t),
            FacetPairing((1, lo), (0, hi), t @ isometry_inverse(J2, h)),
        ]
        report = check_poincare_2d(cells, pairings)
        assert report.passed, report.summary()
        assert report.skipped_nesting == 4

    def test_nesting_holds_every_verdict(self):
        # scenes whose cells share their center, so check (iv) decides every
        # cross-cell facet pair: both README nesting scenes, the 0, 37 and 90
        # degree scenes of the output comparison, and 20 pairs of seeded
        # one-cell domains
        scenes = [
            two_cell_domain(*args)[0]
            for args in [(90.0, 1.0, 6.0), (60.0, 0.3, 8.0), (37.0, 2.2, 3.1), (0.0, 1.0, 1.0),
                         (90.0, 0.5, 0.5)]
        ]
        scenes += [
            [seeded_translation_domain(seed)[0], seeded_translation_domain(seed + 20)[0]]
            for seed in range(24)
        ]
        verdicts, compared = set(), 0
        for cells in scenes:
            try:
                report = check_poincare_2d(cells, [])
            except ValueError as exc:
                assert str(exc) == "facet is empty"  # see test_cycle_angles_add_up_to_vertex_oracle
                continue
            compared += 1
            expected = [
                ((0, i), (1, j), are_nested(J2, a.halfspace, b.halfspace, cells[0].center))
                for i, a in enumerate(cells[0].facets)
                for j, b in enumerate(cells[1].facets)
            ]
            assert list(report.nesting) == expected
            assert report.nested_pairs == tuple(
                (a, b) for a, b, v in expected if v is NestingVerdict.NESTED
            )
            assert report.skipped_nesting == 0
            verdicts.update(v for _, _, v in expected)
        assert compared == 5 + 20
        assert verdicts == set(NestingVerdict)

    def test_cycle_angles_add_up_to_vertex_oracle(self):
        domains = []
        for move in [None] + [translation_move(*m) for m in MOVES]:
            domains.append(square_domain(SQUARE_ORBIFOLD, move=move))
            domains += [seeded_translation_domain(seed, move) for seed in range(40)]
        compared = 0
        for cell, pairings in domains:
            try:
                report = check_poincare_2d([cell], pairings)
            except ValueError as exc:
                # dirichlet_cell prunes in the Klein box, whose corners lie
                # outside the disk, so it can keep a bisector that meets the
                # cell only there; the check refuses that cell
                assert str(exc) == "facet is empty"
                continue
            vertices = oracles.plane_cell_vertices(cell)
            total = sum(c.angle_sum for c in report.cycles)
            assert abs(total - sum(v[3] for v in vertices)) <= 1e-9, report.summary()
            compared += bool(vertices)
        assert compared >= 15 * (1 + len(MOVES))


# the five `geom nesting` scenes of the golden command list
GOLDEN_NESTING = [(90.0, 1.0, 6.0), (60.0, 0.3, 8.0), (37.0, 2.2, 3.1), (0.0, 1.0, 1.0), (90.0, 0.5, 0.5)]


class TestNestingTableOracle:
    """Check (iv)'s tables against `oracles.scalar_nesting`, which decides
    each facet pair on its own with `math.fsum` and the thresholds that
    `nesting_table` documents."""

    @staticmethod
    def agreed(cells):
        report = check_poincare_2d(cells, [])
        nesting, skipped = oracles.scalar_nesting(cells)
        assert list(report.nesting) == nesting
        assert report.skipped_nesting == skipped
        return report

    @pytest.mark.parametrize("scene", GOLDEN_NESTING, ids=lambda s: "/".join(f"{x:g}" for x in s))
    def test_golden_scenes(self, scene):
        verdicts = {v for _, _, v in self.agreed(two_cell_domain(*scene)[0]).nesting}
        if scene == (0.0, 1.0, 1.0):
            assert NestingVerdict.EQUAL in verdicts
        if scene == (90.0, 0.5, 0.5):
            assert verdicts == {NestingVerdict.CROSSING}

    def test_seeded_two_translation_scenes(self):
        verdicts = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cells = two_cell_domain(rng.uniform(0.0, 180.0), *rng.uniform(0.2, 4.0, 2))[0]
            report = self.agreed(cells)
            assert report.skipped_nesting == 0
            verdicts.update(v for _, _, v in report.nesting)
        assert verdicts == {
            NestingVerdict.CROSSING, NestingVerdict.NESTED, NestingVerdict.DISJOINT_NOT_NESTED
        }

    def test_cells_with_different_centres_skip_every_pair(self):
        t = translation_along(J2, X0, E1, 2.0)
        cells = []
        for move in (None, translation_move(1.0, 90.0)):
            x, gens = moved(move, [t])
            cells.append(dirichlet_cell(x, build_orbit([x], GroupData(J2, gens), 3)))
        report = self.agreed(cells)
        assert report.nesting == ()
        assert report.skipped_nesting == len(cells[0].facets) * len(cells[1].facets) == 4

    @pytest.mark.parametrize("margin", [0.0, 0.5 * EPS, EPS])
    def test_a_halfspace_at_most_eps_inside_skips_its_row(self, margin):
        # a wall through (or EPS-near) the basepoint, parallel to the H cell's own walls
        cell_h, cell_v = two_cell_domain(60.0, 0.3, 8.0)[0]
        wall = HalfSpace(Hyperplane(J2, np.array([-margin, 1.0, 0.0])), 1)
        assert wall.margin(X0) <= EPS
        cells = [replace(cell_h, facets=cell_h.facets + (CellFacet(wall, (9,)),)), cell_v]
        report = self.agreed(cells)
        assert report.skipped_nesting == len(cell_v.facets)
        assert [(a, b) for a, b, _ in report.nesting] == [
            ((0, i), (1, j)) for i in range(len(cell_h.facets)) for j in range(len(cell_v.facets))
        ]
        with pytest.raises(ValueError, match="^basepoint must be interior to both halfspaces$"):
            are_nested(J2, wall, cell_v.facets[0].halfspace, X0)


class TestIsometryInvariance:
    """Moving a whole domain by an isometry leaves its Poincare report as it is."""

    @pytest.fixture(scope="class")
    def unmoved(self):
        return {name: domain_report(build, None) for name, build in INVARIANT_DOMAINS.items()}

    @pytest.mark.parametrize("length, angle", MOVES)
    def test_moved_domain_keeps_its_report(self, unmoved, length, angle):
        move = translation_move(length, angle)
        for name, build in INVARIANT_DOMAINS.items():
            assert domain_report(build, move) == unmoved[name], name

    def test_pairing_lost_to_rounding_is_undecidable(self):
        # 8 off the basepoint the image of the V facet's normal under the
        # pairing is no longer space-like in binary64
        cells, pairings = two_cell_domain(90.0, 1.0, 6.0, translation_move(8.0, 17.0))
        pairing = pairings[1]
        with pytest.raises(UndecidableError) as exc:
            check_poincare_2d(cells, pairings)
        message = str(exc.value)
        assert message.startswith(f"pairing {pairing.source}->{pairing.target}: ")
        assert f"entries up to {np.abs(pairing.isometry).max():.6g};" in message

    @pytest.mark.parametrize("length", [12.0, 13.0, 14.0])
    def test_generator_lost_to_rounding_is_undecidable(self, length):
        # from 12 off the basepoint the moved H translation takes the
        # basepoint's image off the upper sheet in binary64, so build_orbit
        # cannot measure its displacement
        move = translation_move(length, 17.0)
        _, (t_h,) = moved(move, [translation_along(J2, X0, E1, 1.0)])
        with pytest.raises(UndecidableError) as exc:
            two_cell_domain(90.0, 1.0, 6.0, move)
        message = str(exc.value)
        assert message.startswith("generator 0 ")
        assert f"entries up to {np.abs(t_h).max():.6g};" in message

    def test_only_the_second_generator_lost_to_rounding(self):
        # the first generator, a short translation at the basepoint, keeps the
        # far seed on the sheet; the second takes it off, and it alone is named
        move = translation_move(13.0, 17.0)
        seed, (t_h,) = moved(move, [translation_along(J2, X0, E1, 1.0)])
        group = GroupData(J2, [translation_along(J2, X0, E2, 1.0), t_h])
        with pytest.raises(UndecidableError) as exc:
            build_orbit([seed], group, 2)
        message = str(exc.value)
        assert message.startswith("generator 1 ")
        assert f"entries up to {np.abs(t_h).max():.6g};" in message


class TestCellChart:
    """The Klein chart centred on a cell, against a frame built by translation."""

    @ORACLE_FORMS
    @pytest.mark.parametrize("d", [1e-6, 0.1, 1.0, 3.0, 10.0])
    def test_centre_at_the_origin_and_inverse(self, form, d):
        rng = np.random.default_rng(round(100 * d))
        x0 = basepoint(form)
        t, tinv = form.jn_chart
        for _ in range(20):
            center = _random_translation(form, rng, d) @ x0
            to_chart, to_world = voronoi._cell_chart(form, center)
            image = to_chart @ center
            assert np.linalg.norm(image[1:]) <= 1e-10 * np.linalg.norm(center)
            size = np.abs(to_chart).max() * np.abs(to_world).max()
            assert np.abs(to_chart @ to_world - np.eye(form.dimension)).max() <= 1e-14 * size
            if d >= 0.1:
                move = translation_along(form, x0, center / d, d)
                for got, want in zip((to_chart, to_world), (t @ isometry_inverse(form, move), move @ tinv)):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1e-12, 1e-9, 1e-8, 1.5e-8, 1e-5])
    def test_cell_just_off_the_basepoint_keeps_its_facets(self, d):
        gens = [translation_along(J2, X0, E1, 1.0), translation_along(J2, X0, E2, 1.5)]
        x, moved_gens = moved(translation_along(J2, X0, E1, d), gens)

        def words(center, generators):
            cell = dirichlet_cell(center, build_orbit([center], GroupData(J2, generators), 2))
            return [f.source_word for f in cell.facets]

        assert words(x, moved_gens) == words(X0, gens)
