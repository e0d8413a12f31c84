"""Geometry: bilinear form, reflections, distances, ball model, nesting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement, sqrt2
from hyperglue.qforms import counting_base_form, direct_sum, form_from_rationals, jn_form
from hyperglue.hyperboloid import (
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    are_nested,
    are_orthogonal,
    ball_coordinates,
    basepoint,
    bilinear,
    bisector,
    boundary_sphere,
    distance,
    exact_identity,
    exact_mat_mul,
    exact_mat_vec,
    is_isometry,
    isometry_inverse,
    normalize_point,
    normalize_points,
    quadratic,
    reflection,
    rotation_in_plane,
    translation_along,
    translation_length,
)

J2 = jn_form(2)
J3 = jn_form(3)
E1 = np.array([0.0, 1.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0])


def exact_vec(*values):
    return tuple(QuadFieldElement(Fraction(v)) for v in values)


def random_exact_vector(rng, form, bound=5):
    while True:
        v = tuple(
            QuadFieldElement(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))
            for _ in range(form.dimension)
        )
        q = quadratic(form, v)
        if q and q.sign_at(Embedding.IDENTITY) > 0:
            return v


def random_sheet_point(rng, form=J2, spread=1.5):
    x0 = basepoint(form)
    direction = np.zeros(form.dimension)
    direction[1:] = rng.standard_normal(form.dimension - 1)
    t = spread * rng.random()
    if np.linalg.norm(direction) < 1e-12 or t < 1e-9:
        return x0
    return translation_along(form, x0, direction, t) @ x0


class TestBilinear:
    def test_time_vector(self):
        assert bilinear(J2, exact_vec(1, 0, 0), exact_vec(1, 0, 0)) == QuadFieldElement(-1)

    def test_orthogonal_basis_vectors(self):
        assert bilinear(J2, exact_vec(1, 0, 0), exact_vec(0, 1, 0)) == QuadFieldElement(0)

    def test_symmetry_random(self):
        rng = random.Random(5)
        for _ in range(50):
            u = tuple(QuadFieldElement(rng.randint(-5, 5)) for _ in range(3))
            w = tuple(QuadFieldElement(rng.randint(-5, 5)) for _ in range(3))
            assert bilinear(J2, u, w) == bilinear(J2, w, u)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bilinear(J2, exact_vec(1, 0), exact_vec(1, 0))


class TestReflection:
    def test_coordinate_mirror(self):
        mat = reflection(J2, exact_vec(0, 0, 1))
        expected = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        assert [[int(x.a) for x in row] for row in mat] == expected

    def test_negates_mirror_vector(self):
        rng = random.Random(13)
        for _ in range(25):
            v = random_exact_vector(rng, J2)
            mat = reflection(J2, v)
            assert exact_mat_vec(mat, v) == tuple(-x for x in v)

    def test_involution_and_isometry_exact(self):
        rng = random.Random(17)
        for _ in range(25):
            v = random_exact_vector(rng, J2)
            mat = reflection(J2, v)
            assert exact_mat_mul(mat, mat) == exact_identity(J2)
            assert is_isometry(J2, mat)

    def test_fixes_hyperplane_vectors_exactly(self):
        rng = random.Random(19)
        v = random_exact_vector(rng, J2)
        mat = reflection(J2, v)
        fv = quadratic(J2, v)
        basis = []
        for i in range(3):
            e = tuple(QuadFieldElement(1 if j == i else 0) for j in range(3))
            w = tuple(fv * e[j] - bilinear(J2, e, v) * v[j] for j in range(3))
            if any(w):
                basis.append(w)
        # five exact sample vectors of the mirror hyperplane, all fixed exactly
        for _ in range(5):
            coeffs = [QuadFieldElement(rng.randint(-4, 4)) for _ in basis]
            w = tuple(
                sum((c * b[j] for c, b in zip(coeffs, basis)), QuadFieldElement(0))
                for j in range(3)
            )
            assert bilinear(J2, w, v) == QuadFieldElement(0)
            assert exact_mat_vec(mat, w) == w

    def test_matches_entrywise_definition(self):
        # r_v[i][j] = delta_ij - 2 v_i c_j v_j / f(v), over Q and Q(sqrt2)
        rng = random.Random(29)
        form = counting_base_form(4, FieldTag.Q_SQRT2)
        for _ in range(10):
            v = tuple(
                QuadFieldElement(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    FieldTag.Q_SQRT2,
                )
                for _ in range(form.dimension)
            )
            fv = quadratic(form, v)
            if not fv or fv.sign_at(Embedding.IDENTITY) < 0:
                continue
            mat = reflection(form, v)
            c = form.coefficients
            n = form.dimension
            assert mat == [
                [(1 if i == j else 0) - 2 * v[i] * c[j] * v[j] / fv for j in range(n)]
                for i in range(n)
            ]
            assert is_isometry(form, mat)
            bent = [row[:] for row in mat]
            bent[0][1] = bent[0][1] + sqrt2()
            assert not is_isometry(form, bent)

    def test_rejects_time_like_mirror(self):
        with pytest.raises(ValueError):
            reflection(J2, exact_vec(1, 0, 0))


class TestIsometry:
    def test_identity(self):
        assert is_isometry(J2, np.eye(3))

    def test_non_isometry(self):
        assert not is_isometry(J2, np.diag([1.0, 2.0, 1.0]))

    def test_product_of_reflections(self):
        rng = random.Random(23)
        for _ in range(10):
            a = reflection(J2, random_exact_vector(rng, J2))
            b = reflection(J2, random_exact_vector(rng, J2))
            assert is_isometry(J2, exact_mat_mul(a, b))

    def test_inverse_helper(self):
        t = translation_along(J2, basepoint(J2), E1, 0.7)
        assert np.allclose(isometry_inverse(J2, t) @ t, np.eye(3), atol=1e-12)


class TestDistance:
    def test_zero(self):
        x = basepoint(J2)
        assert distance(J2, x, x) == 0.0

    def test_geodesic_parameter(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        assert abs(distance(J2, x, y) - 1.0) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y, z = (random_sheet_point(rng) for _ in range(3))
            assert distance(J2, x, z) <= distance(J2, x, y) + distance(J2, y, z) + 1e-9

    def test_off_sheet_rejected(self):
        with pytest.raises(ValueError):
            distance(J2, np.array([2.0, 0.0, 0.0]), basepoint(J2))


class TestNormalizePoints:
    def test_matches_normalize_point(self):
        rng = np.random.default_rng(5)
        form = counting_base_form(4, FieldTag.Q_SQRT2)
        xs = [random_sheet_point(rng, form, spread=6.0) for _ in range(20)]
        xs += [2.5 * basepoint(form), exact_vec(1, 0, 0, 0)]
        out = normalize_points(form, xs)
        assert len(out) == len(xs)
        for x, y in zip(xs, out):
            assert np.array_equal(y, normalize_point(form, x))

    @pytest.mark.parametrize(
        "xs",
        [
            [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])],  # lower sheet
            [np.array([0.0, 1.0, 0.0])],  # space-like
            [np.array([1.0, 0.0, 0.0, 0.0])],  # wrong dimension
        ],
    )
    def test_rejects_what_normalize_point_rejects(self, xs):
        with pytest.raises(ValueError):
            normalize_points(J2, xs)

    def test_empty(self):
        assert normalize_points(J2, []) == []


class TestBisector:
    def test_symmetric_pair(self):
        x = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        y = np.array([math.cosh(1.0), -math.sinh(1.0), 0.0])
        h = bisector(J2, x, y)
        assert h.same_as(Hyperplane(J2, E1))

    def test_equidistance_sampled(self):
        rng = np.random.default_rng(11)
        x = random_sheet_point(rng)
        y = random_sheet_point(rng)
        h = bisector(J2, x, y)
        # sample points of the bisector geodesic via its two tangent directions
        p = normalize_point(J2, x + y)
        u = x - y
        for t in np.linspace(-1.5, 1.5, 7):
            w = np.zeros(3)
            w[1:] = rng.standard_normal(2)
            w = w + bilinear(J2, w, p) * p
            w = w - (bilinear(J2, w, u) / quadratic(J2, u)) * u
            if quadratic(J2, w) < 1e-9:
                continue
            w = w / math.sqrt(quadratic(J2, w))
            z = math.cosh(t) * p + math.sinh(t) * w
            assert abs(distance(J2, z, x) - distance(J2, z, y)) <= 1e-9

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(13)
        x = random_sheet_point(rng)
        y = random_sheet_point(rng)
        assert bisector(J2, x, y).same_as(bisector(J2, y, x))

    def test_separates_endpoints(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = random_sheet_point(rng)
            y = random_sheet_point(rng)
            if np.allclose(x, y, atol=1e-6):
                continue
            h = bisector(J2, x, y)
            sx = bilinear(J2, x, h.normal)
            sy = bilinear(J2, y, h.normal)
            assert sx * sy < 0

    def test_equal_points_rejected(self):
        x = basepoint(J2)
        with pytest.raises(ValueError):
            bisector(J2, x, x)


class TestOrthogonality:
    def test_coordinate_hyperplanes(self):
        assert are_orthogonal(J2, Hyperplane(J2, E1), Hyperplane(J2, E2))

    def test_exact_normals_decide_exactly(self):
        # b_f = 1e-12 is within the float tolerance but not zero
        zero, one = QuadFieldElement(0), QuadFieldElement(1)
        u = (zero, one, zero)
        v = (zero, QuadFieldElement(Fraction(1, 10**12)), one)
        assert not are_orthogonal(J2, Hyperplane(J2, u), Hyperplane(J2, v))
        assert are_orthogonal(J2, Hyperplane(J2, u), Hyperplane(J2, (zero, zero, one)))
        u_float = np.array([0.0, 1.0, 0.0])
        v_float = np.array([0.0, 1e-12, 1.0])
        assert are_orthogonal(J2, Hyperplane(J2, u_float), Hyperplane(J2, v_float))

    def test_same_hyperplane_not_orthogonal(self):
        h = Hyperplane(J2, E1)
        assert not are_orthogonal(J2, h, h)

    def test_horizontal_vs_vertical_in_extended_form(self):
        # horizontal normal (0,...,0,1) in f + <q> meets every lifted normal (v, 0)
        base = form_from_rationals([-1, 1, 1])
        ext = direct_sum(base, Fraction(5, 3))
        horizontal = Hyperplane(ext, np.array([0.0, 0.0, 0.0, 1.0]))
        rng = random.Random(3)
        for _ in range(20):
            v = random_exact_vector(rng, base)
            lifted = tuple(list(v) + [QuadFieldElement(0)])
            vertical = Hyperplane(ext, lifted)
            assert are_orthogonal(ext, horizontal, vertical)


class TestBallModel:
    def test_origin(self):
        assert np.allclose(ball_coordinates(J2, basepoint(J2)), [0.0, 0.0])

    def test_light_cone(self):
        assert np.allclose(ball_coordinates(J2, np.array([1.0, 1.0, 0.0])), [1.0, 0.0])

    def test_inside_ball(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            x = random_sheet_point(rng, spread=4.0)
            assert np.linalg.norm(ball_coordinates(J2, x)) < 1.0

    def test_rejects_space_like(self):
        with pytest.raises(ValueError):
            ball_coordinates(J2, np.array([0.0, 1.0, 0.0]))


class TestBoundarySphere:
    def test_diameter_geodesic(self):
        sphere = boundary_sphere(J2, Hyperplane(J2, E1))
        assert sphere.is_plane
        assert np.allclose(sphere.center, [1.0, 0.0])

    def test_radius_decreases_along_translates(self):
        x0 = basepoint(J2)
        t = translation_along(J2, x0, E1, 1.0)
        h = Hyperplane(J2, np.array([math.sinh(0.5), math.cosh(0.5), 0.0]))
        radii = []
        current = h
        for _ in range(5):
            current = current.apply(t)
            radii.append(boundary_sphere(J2, current).radius)
        assert all(b < a for a, b in zip(radii, radii[1:]))

    def test_scaling_invariance(self):
        h1 = Hyperplane(J2, np.array([math.sinh(0.7), math.cosh(0.7), 0.0]))
        h2 = Hyperplane(J2, 3.7 * np.array([math.sinh(0.7), math.cosh(0.7), 0.0]))
        s1, s2 = boundary_sphere(J2, h1), boundary_sphere(J2, h2)
        assert np.allclose(s1.center, s2.center) and abs(s1.radius - s2.radius) < 1e-12

    def test_ideal_endpoints_on_sphere(self):
        h = Hyperplane(J2, np.array([math.sinh(0.9), math.cosh(0.9), 0.0]))
        sphere = boundary_sphere(J2, h)
        # ideal endpoints of the geodesic: light-cone vectors orthogonal to the normal
        n = h.normal
        p = normalize_point(J2, basepoint(J2) - (bilinear(J2, basepoint(J2), n)) * n)
        w = np.zeros(3)
        w[1:] = [-n[2], n[1]]
        w = w + bilinear(J2, w, p) * p
        w = w / math.sqrt(quadratic(J2, w))
        for sign in (1.0, -1.0):
            ideal = ball_coordinates(J2, p + sign * w)
            assert abs(np.linalg.norm(ideal - sphere.center) - sphere.radius) <= 1e-9


class TestTranslation:
    def test_moves_basepoint(self):
        t = translation_along(J2, basepoint(J2), E1, 1.0)
        assert np.allclose(t @ basepoint(J2), [math.cosh(1.0), math.sinh(1.0), 0.0])
        assert is_isometry(J2, t)
        assert abs(translation_length(t) - 1.0) <= 1e-9

    def test_composition_adds_lengths(self):
        x0 = basepoint(J2)
        t1 = translation_along(J2, x0, E1, 0.8)
        t2 = translation_along(J2, x0, E1, 1.3)
        t3 = translation_along(J2, x0, E1, 2.1)
        assert np.allclose(t1 @ t2, t3, atol=1e-9)

    def test_conjugation_by_orthogonal_reflection_inverts(self):
        x0 = basepoint(J2)
        t = translation_along(J2, x0, E1, 1.1)
        mirror = reflection(J2, E1)  # hyperplane orthogonal to the axis at x0
        conjugated = mirror @ t @ mirror
        assert np.allclose(conjugated, isometry_inverse(J2, t), atol=1e-9)

    def test_displacement_equals_length(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            x = random_sheet_point(rng)
            direction = np.zeros(3)
            direction[1:] = rng.standard_normal(2)
            length = 0.3 + 2.0 * rng.random()
            t = translation_along(J2, x, direction, length)
            assert abs(distance(J2, x, t @ x) - length) <= 1e-9

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            translation_along(J2, basepoint(J2), np.zeros(3), 1.0)


def wall_halfspaces(angle_deg, len_h, len_v):
    """The four Dirichlet walls of two translations with axes at the given angle."""
    x0 = basepoint(J2)
    walls = []
    for theta, length in ((0.0, len_h), (math.radians(angle_deg), len_v)):
        axis = rotation_in_plane(J2, 1, 2, theta) @ E1
        t = translation_along(J2, x0, axis, length)
        tinv = isometry_inverse(J2, t)
        for mat in (t, tinv):
            h = bisector(J2, x0, mat @ x0)
            walls.append(HalfSpace.containing(h, x0))
    return x0, walls[:2], walls[2:]


def disk_disjoint(form, h1, h2) -> bool:
    """Independent ball-model oracle: do two geodesics miss each other in the disk?

    Samples one geodesic densely and evaluates the other's halfspace
    margins; a sign change means they cross.
    """
    p = normalize_point(form, basepoint(form) - bilinear(form, basepoint(form), h1.normal) * h1.normal)
    w = np.zeros(3)
    w[1:] = [-h1.normal[2], h1.normal[1]]
    w = w + bilinear(form, w, p) * p
    w = w / math.sqrt(quadratic(form, w))
    ts = np.linspace(-14.0, 14.0, 4001)
    points = np.cosh(ts)[:, None] * p[None, :] + np.sinh(ts)[:, None] * w[None, :]
    margins = points @ (np.array([-1.0, 1.0, 1.0]) * h2.normal)
    return bool(np.all(margins > 0) or np.all(margins < 0))


class TestNesting:
    def test_strip_walls_disjoint_not_nested(self):
        x0, h_walls, _ = wall_halfspaces(90.0, 2.0, 2.0)
        assert are_nested(J2, h_walls[0], h_walls[1], x0) is NestingVerdict.DISJOINT_NOT_NESTED

    def test_oblique_configuration_nests(self):
        x0, h_walls, v_walls = wall_halfspaces(60.0, 0.3, 8.0)
        verdicts = {
            are_nested(J2, hw, vw, x0) for hw in h_walls for vw in v_walls
        }
        assert NestingVerdict.NESTED in verdicts

    def test_orthogonal_configuration_never_nests(self):
        x0, h_walls, v_walls = wall_halfspaces(90.0, 1.0, 6.0)
        for hw in h_walls:
            for vw in v_walls:
                assert are_nested(J2, hw, vw, x0) is NestingVerdict.DISJOINT_NOT_NESTED

    def test_threshold_against_disk_oracle(self):
        # bisection on the V-translation length where walls stop crossing
        def crossing(len_v):
            x0, h_walls, v_walls = wall_halfspaces(90.0, 1.0, len_v)
            return not disk_disjoint(J2, h_walls[0].hyperplane, v_walls[0].hyperplane)

        lo, hi = 0.5, 6.0
        assert crossing(lo) and not crossing(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if crossing(mid):
                lo = mid
            else:
                hi = mid
        threshold = 0.5 * (lo + hi)
        # analytic threshold: sinh(lenV/2) * sinh(lenH/2) = 1
        expected = 2.0 * math.asinh(1.0 / math.sinh(0.5))
        assert abs(threshold - expected) < 1e-3
        x0, h_walls, v_walls = wall_halfspaces(90.0, 1.0, hi + 0.5)
        assert (
            are_nested(J2, h_walls[0], v_walls[0], x0)
            is NestingVerdict.DISJOINT_NOT_NESTED
        )

    def test_equal_halfspaces(self):
        x0 = basepoint(J2)
        h = Hyperplane(J2, np.array([math.sinh(0.5), math.cosh(0.5), 0.0]))
        hs = HalfSpace.containing(h, x0)
        assert are_nested(J2, hs, hs, x0) is NestingVerdict.EQUAL

    def test_crossing(self):
        x = np.array([math.sqrt(1.08), 0.2, 0.2])
        hs1 = HalfSpace.containing(Hyperplane(J2, E1), x)
        hs2 = HalfSpace.containing(Hyperplane(J2, E2), x)
        assert are_nested(J2, hs1, hs2, x) is NestingVerdict.CROSSING

    def test_basepoint_must_be_interior(self):
        x0 = basepoint(J2)
        h = Hyperplane(J2, E1)
        hs = HalfSpace(h, 1)
        with pytest.raises(ValueError):
            are_nested(J2, hs, hs, x0)

    def test_isometry_invariance_and_symmetry(self):
        rng = np.random.default_rng(37)
        x0, h_walls, v_walls = wall_halfspaces(60.0, 0.3, 8.0)
        g = translation_along(J2, basepoint(J2), np.array([0.0, 0.3, 1.0]), 0.9)
        for hw in h_walls:
            for vw in v_walls:
                v1 = are_nested(J2, hw, vw, x0)
                v2 = are_nested(J2, vw, hw, x0)
                assert v1 is v2
                moved_h = HalfSpace(hw.hyperplane.apply(g), hw.side)
                moved_v = HalfSpace(vw.hyperplane.apply(g), vw.side)
                # sides may flip under canonicalization; re-derive from the moved basepoint
                gx = g @ x0
                moved_h = HalfSpace.containing(moved_h.hyperplane, gx)
                moved_v = HalfSpace.containing(moved_v.hyperplane, gx)
                assert are_nested(J2, moved_h, moved_v, gx) is v1
