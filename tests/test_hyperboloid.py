"""Geometry: bilinear form, reflections, distances, ball model, nesting."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement, int_matrix, sqrt2
from hyperglue.qforms import (
    DiagonalForm,
    counting_base_form,
    direct_sum,
    form_from_rationals,
    jn_form,
)
from hyperglue.hyperboloid import (
    EPS,
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    _canonical_normals,
    _close_table,
    ball_coordinates,
    basepoint,
    bilinear,
    boundary_sphere,
    close_to,
    distance,
    exact_identity,
    exact_mat_mul,
    float_coefficients,
    is_isometry,
    is_point,
    isometry_inverse,
    normalize_point,
    normalize_points,
    quadratic,
    reflection,
    rotation_in_plane,
    translation_along,
    unit_tangent,
)

from oracles import (
    FractionPair,
    are_nested,
    are_orthogonal,
    bisector,
    exact_mat_vec,
    halfspace_containing,
    is_point_by_dot,
    scalar_canonical_normal,
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


QS2 = FieldTag.Q_SQRT2
# jn_form(2..4), counting_base_form(2..5) over both fields, and two forms whose
# coefficients are not integral, so that both common denominators exceed 1
ORACLE_FORMS = (
    [jn_form(n) for n in (2, 3, 4)]
    + [counting_base_form(n, field) for n in (2, 3, 4, 5) for field in (FieldTag.Q, QS2)]
    + [
        form_from_rationals([Fraction(-1, 2), 3, Fraction(5, 4)]),
        DiagonalForm(
            (
                QuadFieldElement(-1, 0, QS2),
                QuadFieldElement(2, 1, QS2),
                QuadFieldElement(Fraction(3, 2), Fraction(-1, 3), QS2),
            ),
            QS2,
        ),
    ]
)


def random_vector(rng, form, bound=4):
    """Seeded entries with denominators up to 3 in both parts, f(v) of either sign."""
    return tuple(
        QuadFieldElement(
            Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
            Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) if form.field is QS2 else 0,
            form.field,
        )
        for _ in range(form.dimension)
    )


def pairs(mat):
    return [[FractionPair(x.a, x.b, x.field) for x in row] for row in mat]


def pair_quadratic(form, v):
    acc = FractionPair(0, 0, form.field)
    for c, x in zip(form.coefficients, v):
        acc = acc + FractionPair(c.a, c.b, form.field) * FractionPair(x.a, x.b, form.field) ** 2
    return acc


def pair_reflection(form, v):
    """delta_ij - 2 v_i c_j v_j / f(v), on FractionPairs."""
    c = [FractionPair(x.a, x.b, form.field) for x in form.coefficients]
    u = [FractionPair(x.a, x.b, form.field) for x in v]
    two_over_fv = FractionPair(2, 0, form.field) / pair_quadratic(form, v)
    n = form.dimension
    return [
        [FractionPair(int(i == j), 0, form.field) - two_over_fv * u[i] * c[j] * u[j] for j in range(n)]
        for i in range(n)
    ]


def pair_product(a, b):
    zero = a[0][0] - a[0][0]
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = zero
            for x, brow in zip(row, b):
                acc = acc + x * brow[j]
            out[-1].append(acc)
    return out


def pair_is_isometry(form, a):
    """sum_k a_ki c_k a_kj == c_i delta_ij for all i, j, on FractionPairs."""
    c = [FractionPair(x.a, x.b, form.field) for x in form.coefficients]
    n = form.dimension
    zero = FractionPair(0, 0, form.field)
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + a[k][i] * c[k] * a[k][j]
            if not acc == (c[i] if i == j else zero):
                return False
    return True


class TestExactKernelsAgainstFractionPairs:
    @pytest.mark.parametrize("form", ORACLE_FORMS, ids=str)
    def test_reflection_product_and_isometry(self, form):
        rng = random.Random(str(form))
        mirrors, refused = [], 0
        while len(mirrors) < 8 or not refused:
            v = random_vector(rng, form)
            if pair_quadratic(form, v).sign_at(Embedding.IDENTITY) <= 0:
                refused += 1
                with pytest.raises(ValueError, match="reflection mirror must be space-like"):
                    reflection(form, v)
                continue
            mat = reflection(form, v)
            assert pairs(mat) == pair_reflection(form, v)
            mirrors.append(mat)
        for r, w in zip(mirrors, mirrors[1:] + mirrors[:1]):
            product = exact_mat_mul(r, w)
            assert pairs(product) == pair_product(pairs(r), pairs(w))
            assert is_isometry(form, product) is pair_is_isometry(form, pairs(product)) is True
            bent = [row[:] for row in product]
            i, j = rng.randrange(form.dimension), rng.randrange(form.dimension)
            bent[i][j] = bent[i][j] + random_vector(rng, form)[0]
            assert is_isometry(form, bent) is pair_is_isometry(form, pairs(bent))

    def test_mirror_of_negative_norm(self):
        # f(v) = 1 + sqrt2 is positive but its conjugate is not, so the kernel
        # folds the sign of the norm N conj(N) = -1 into its numerators
        form = ORACLE_FORMS[-1]
        for scale in (1, Fraction(3, 2)):
            v = tuple(QuadFieldElement(x * scale, 0, QS2) for x in (1, 1, 0))
            assert pair_quadratic(form, v).norm() < 0
            mat = reflection(form, v)
            assert pairs(mat) == pair_reflection(form, v)
            assert is_isometry(form, mat)


Q_ORACLE_FORMS = [form for form in ORACLE_FORMS if form.field is FieldTag.Q]


def lifted(form):
    """The form with the same coefficients over Q(sqrt2), each with a zero sqrt-2 part."""
    return DiagonalForm(tuple(QuadFieldElement(c.a, 0, QS2) for c in form.coefficients), QS2)


def lift(mat):
    return [[QuadFieldElement(x.a, 0, QS2) for x in row] for row in mat]


def values(mat):
    return [[(x.a, x.b) for x in row] for row in mat]


class TestRationalBranchAgainstSqrt2Path:
    """Over Q the kernels read P alone; the Q(sqrt2) path on the same values must agree."""

    @pytest.mark.parametrize("form", Q_ORACLE_FORMS, ids=str)
    def test_reflection_product_and_isometry(self, form):
        rng = random.Random(str(form))
        form2 = lifted(form)
        vectors = []
        while len(vectors) < 8:
            v = random_vector(rng, form)
            if pair_quadratic(form, v).sign_at(Embedding.IDENTITY) > 0:
                vectors.append(v)
        assert any(x.a.denominator > 1 for v in vectors for x in v)
        mirrors = [reflection(form, v) for v in vectors]
        for v, mat in zip(vectors, mirrors):
            assert all(x.field is FieldTag.Q for row in mat for x in row)
            assert values(mat) == values(reflection(form2, lift([v])[0]))
        for r, w in zip(mirrors, mirrors[1:] + mirrors[:1]):
            product = exact_mat_mul(r, w)
            assert values(product) == values(exact_mat_mul(lift(r), lift(w)))
            assert is_isometry(form, product) is is_isometry(form2, lift(product)) is True
            bent = [row[:] for row in product]
            i, j = rng.randrange(form.dimension), rng.randrange(form.dimension)
            bent[i][j] = bent[i][j] + random_vector(rng, form)[0]
            verdict = pair_is_isometry(form, pairs(bent))
            assert is_isometry(form, bent) is is_isometry(form2, lift(bent)) is verdict

    @pytest.mark.parametrize("form", Q_ORACLE_FORMS, ids=str)
    def test_time_like_and_isotropic_mirrors_refused_alike(self, form):
        # the basis vector of the negative coefficient, the zero vector and,
        # where the form has one, a nonzero isotropic vector with entries 0..2
        time_like = tuple(QuadFieldElement(int(c.sign_at(Embedding.IDENTITY) < 0)) for c in form.coefficients)
        entries = itertools.product(range(3), repeat=form.dimension)
        isotropic = [v for v in (exact_vec(*e) for e in entries) if not quadratic(form, v)]
        for v in [time_like, *isotropic[:2]]:
            assert pair_quadratic(form, v).sign_at(Embedding.IDENTITY) <= 0
            messages = []
            for f, u in ((form, v), (lifted(form), lift([v])[0])):
                with pytest.raises(ValueError) as info:
                    reflection(f, u)
                messages.append(str(info.value))
            assert messages == ["reflection mirror must be space-like"] * 2

    def test_wrong_off_diagonal_with_the_right_diagonal(self):
        # columns (1, 0, 0), (1, 1, 1) and (0, 0, 1) have f = -1, 1, 1, as the
        # diagonal of F asks, but the first two columns have b = -1, not 0
        mat = [[QuadFieldElement(x) for x in row] for row in ([1, 1, 0], [0, 1, 0], [0, 1, 1])]
        columns = list(zip(*mat))
        assert [quadratic(J2, col) for col in columns] == list(J2.coefficients)
        assert bilinear(J2, columns[0], columns[1]) == -1
        assert pair_is_isometry(J2, pairs(mat)) is False
        assert is_isometry(J2, mat) is False
        assert is_isometry(lifted(J2), lift(mat)) is False


class TestExactShapes:
    def test_product_of_unmatched_shapes(self):
        a = exact_identity(J2)
        with pytest.raises(ValueError, match="matrix shapes do not match"):
            exact_mat_mul(a, exact_identity(J3))
        with pytest.raises(ValueError, match="matrix shapes do not match"):
            exact_mat_mul([row[:2] for row in a], a)
        with pytest.raises(ValueError, match="matrix shapes do not match"):
            exact_mat_mul(a, [a[0], a[1][:2], a[2]])

    def test_isometry_check_of_smaller_matrix(self):
        # the upper-left 2 x 2 block of the identity satisfies A^t F A = F on its own block
        with pytest.raises(ValueError, match="matrix dimension does not match form"):
            is_isometry(J2, [row[:2] for row in exact_identity(J2)[:2]])

    def test_empty_matrices_refused(self):
        identity = exact_identity(J2)
        for a, b in (([], identity), (identity, []), ([], []), ([[]], [])):
            with pytest.raises(ValueError, match="matrix shapes do not match"):
                exact_mat_mul(a, b)
        for mat in ([], [[]], (), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="matrix dimension does not match form"):
                is_isometry(J2, mat)
        for rows in ([[]], []):
            with pytest.raises(ValueError, match="matrix has no entry"):
                int_matrix(rows)


class TestMixedFields:
    def test_product_of_rational_and_sqrt2_matrices(self):
        a = exact_identity(J2)
        b = [[QuadFieldElement(x, 0, QS2) for x in row] for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        with pytest.raises(ValueError, match="mixed fields"):
            exact_mat_mul(a, b)
        with pytest.raises(ValueError, match="mixed fields"):
            exact_mat_mul(b, a)

    def test_isometry_check_of_rational_matrix_on_sqrt2_form(self):
        with pytest.raises(ValueError, match="mixed fields"):
            is_isometry(counting_base_form(3, QS2), exact_identity(J2))

    def test_reflection_in_rational_vector_on_sqrt2_form(self):
        with pytest.raises(ValueError, match="mixed fields"):
            reflection(counting_base_form(3, QS2), exact_vec(0, 0, 1))


def at_the_bound(b, direction, beyond, atol=1e-7):
    """The float a farthest from b toward `direction` with |a - b| <= atol + 1e-5 |b|
    as numpy rounds it, or the first float beyond it."""
    bound = atol + 1e-5 * np.abs(b)
    away = direction * np.inf
    a = b + direction * bound
    while np.abs(a - b) > bound:
        a = np.nextafter(a, -away)
    while np.abs(np.nextafter(a, away) - b) <= bound:
        a = np.nextafter(a, away)
    return np.nextafter(a, away) if beyond else a


class TestCloseTo:
    """`close_to` against `np.isclose(...).all()`, whose rule it is for finite input."""

    def test_agrees_with_isclose_on_both_sides_of_the_bound(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            b = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            atol = 10.0 ** int(rng.integers(-9, -4))
            bound = atol + 1e-5 * np.abs(b)
            # each entry of a lands well inside, just inside, just outside or well outside its bound
            a = b + rng.choice([-1.0, 1.0], n) * bound * rng.choice([0.0, 0.5, 0.999, 1.001, 2.0], n)
            for x, y in ((a, b), (b, a)):
                want = bool(np.isclose(x, y, atol=atol).all())
                assert close_to(x, y, atol) == want
                seen.add(want)
            assert close_to(a[None, :], np.stack([b, a]), atol).tolist() == [
                bool(np.isclose(a, b, atol=atol).all()), True
            ]
        assert seen == {True, False}

    @pytest.mark.parametrize("atol", [0.0, 1e-9, 1e-7])
    def test_zero_vectors(self, atol):
        zero = np.zeros(3)
        assert close_to(zero, zero, atol)
        near, far = np.full(3, 0.5 * atol), np.full(3, 2.0 * atol + 1e-300)
        assert close_to(zero, near, atol) and close_to(near, zero, atol)
        assert not close_to(zero, far, atol) and not close_to(far, zero, atol)
        assert not close_to(zero, E1, atol) and not close_to(E1, zero, atol)

    def test_not_symmetric_in_its_arguments(self):
        # |a - b| = 1.00005e-5 lies between 1e-5 |a| and 1e-5 |b|
        a, b = np.array([1.0]), np.array([1.0 + 1e-5 + 5e-11])
        assert close_to(a, b, 0.0) and np.isclose(a, b, atol=0.0).all()
        assert not close_to(b, a, 0.0) and not np.isclose(b, a, atol=0.0).all()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_entry_never_matches(self, bad):
        assert not close_to(np.array([bad, 0.0]), np.array([0.5, 0.0]), 1e-6)

    def test_screened_table_equals_the_full_table(self):
        # seeded stacks sized like a Dirichlet cell's inward normals, with near copies
        # of earlier rows: each entry kept, at the bound, one float beyond it, or a zero
        # of the other sign; from +-0 and tiny powers of two, the entry at the bound
        # lies exactly on it
        rng = np.random.default_rng(38)
        by_rtol = on_the_bound = 0
        for _ in range(60):
            n, d = int(rng.integers(2, 40)), int(rng.integers(3, 6))
            vs = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 8.0, (n, 1)))
            special = rng.random((n, d)) < 0.15
            vs[special] = rng.choice([0.0, -0.0, 2.0**-40, -(2.0**-33)], special.sum())
            for j in rng.choice(np.arange(1, n), size=n // 2, replace=False):
                i = int(rng.integers(0, j))
                row = vs[i].copy()
                for m, how in enumerate(rng.choice(["same", "in", "in", "out", "zero"], d)):
                    if how == "zero":
                        vs[i, m], row[m] = (0.0, -0.0) if rng.random() < 0.5 else (-0.0, 0.0)
                    elif how != "same":
                        row[m] = at_the_bound(row[m], rng.choice([-1.0, 1.0]), how == "out")
                vs[j] = row
            # rows picked as a hull's vertex indices come: int32, in order
            rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            rows = rows.astype(np.int32)
            want = close_to(vs[None, :, :], vs[rows][:, None, :], 1e-7)
            assert _close_table(vs, vs[rows], 1e-7).tolist() == want.tolist()
            gap = np.abs(vs[None, :, 0] - vs[rows][:, None, 0])
            on_the_bound += int((gap == 1e-7 + 1e-5 * np.abs(vs[rows][:, None, 0])).sum())
            # pairs that match only through the 1e-5 |b| term on the screened coordinate
            by_rtol += int((want & (gap > 1e-7)).sum())
        assert by_rtol > 20 and on_the_bound > 20


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


class TestOneSheetRule:
    """`normalize_points`, `normalize_point` and `is_point` read one row rule, so
    they agree bit for bit where f(x) = -1 meets its 1e-7 tolerance."""

    # f(x) = -1.0000002612431291 in np.dot's order, just past 1e-7 * scale
    # (summed with .sum(axis=1) it read -1.000000261243129, just inside)
    WITNESS = np.array([1.3439552727769555, 0.6190212336654549, -0.6504062009645588])

    @staticmethod
    def assert_agree(form, xs):
        batch = normalize_points(form, xs)
        assert len(batch) == len(xs)
        for x, y in zip(xs, batch):
            one = normalize_point(form, x)
            assert y.tobytes() == one.tobytes()
            # a point on the sheet comes back as it is, and only such a point
            assert is_point(form, x) == (one.tobytes() == np.asarray(x).tobytes())
            # and f(x) is summed in np.dot's order
            assert is_point(form, x) == is_point_by_dot(form, x)

    def test_witness(self):
        assert not is_point(J2, self.WITNESS)
        assert normalize_point(J2, self.WITNESS).tobytes() != self.WITNESS.tobytes()
        self.assert_agree(J2, [self.WITNESS])

    @pytest.mark.parametrize("form", [J2, counting_base_form(4, FieldTag.Q_SQRT2)], ids=["J2", "sqrt2"])
    def test_bisection_to_the_boundary(self, form):
        # each sheet point p is scaled by t > 1 until is_point flips, and the
        # last scales on either side of the flip are kept
        rng = np.random.default_rng(35)
        xs = []
        for _ in range(300):
            p = random_sheet_point(rng, form, spread=4.0)
            lo, hi = 1.0, 1.0 + 1e-9
            while is_point(form, hi * p):
                lo, hi = hi, 1.0 + 2.0 * (hi - 1.0)
            while lo < (mid := (lo + hi) / 2.0) < hi:
                lo, hi = (mid, hi) if is_point(form, mid * p) else (lo, mid)
            xs += [lo * p, hi * p]
        self.assert_agree(form, xs)

    def test_wrong_dimension_refused_with_the_module_message(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        for call in (
            lambda: is_point(J2, x),
            lambda: distance(J2, basepoint(J2), x),
            lambda: distance(J2, x, basepoint(J2)),
            lambda: normalize_point(J2, x),
            lambda: normalize_points(J2, [basepoint(J2), x]),
        ):
            with pytest.raises(ValueError, match="vector dimension does not match form"):
                call()


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


class TestCanonicalNormals:
    """The batch rule behind `Hyperplane` keeps the bits of one row at a time."""

    FORMS = pytest.mark.parametrize(
        "form", [J2, J3, counting_base_form(4, QS2)], ids=["J2", "J3", "sqrt2"]
    )

    @staticmethod
    def space_like_rows(form, rng, n=300):
        """Seeded rows with entries up to about e^14; in a third of them the
        first entry lies within EPS of 0 (exactly +-0 in some), and in some
        of those the second entry too, so the lead entry moves right."""
        d = form.dimension
        rows = rng.standard_normal((n, d)) * np.exp(rng.uniform(0.0, 14.0, (n, d)))
        near = rng.choice([-1.0, 1.0], (n, 2)) * rng.uniform(0.0, EPS, (n, 2))
        near[::7] *= 0.0
        rows[: n // 3, 0] = near[: n // 3, 0]
        rows[: n // 9, 1] = near[: n // 9, 1]
        c = float_coefficients(form)
        q = (rows * rows * c).sum(axis=1)
        return rows[q > 1e-6 * (rows * rows * np.abs(c)).sum(axis=1)]

    @FORMS
    def test_batch_equals_each_hyperplane_bit_for_bit(self, form):
        rows = self.space_like_rows(form, np.random.default_rng(form.dimension))
        assert len(rows) > 100
        normals, signs = _canonical_normals(form, rows)
        flips = 0
        for row, normal, sign in zip(rows, normals, signs):
            want = Hyperplane(form, row).normal
            assert normal.tobytes() == want.tobytes()
            assert want.tobytes() == scalar_canonical_normal(form, row).tobytes()
            # the sign is the one the row took: the side `dirichlet_cell` reads off it
            assert sign == (1.0 if np.dot(normal, row) > 0 else -1.0)
            flips += sign < 0 and row[0] > 0
        # some rows lead with a positive entry 0 within EPS of 0 and are still flipped
        assert flips > 0

    @FORMS
    def test_a_row_that_is_not_space_like_is_refused(self, form):
        spatial = np.eye(form.dimension)[1]
        # time-like, zero, and space-like with f(v) = 1e-10 <= EPS
        for bad in (basepoint(form), 0.0 * spatial, 1e-5 * spatial):
            with pytest.raises(ValueError) as want:
                scalar_canonical_normal(form, bad)
            assert "hyperplane normal must be space-like, got f(v) = " in str(want.value)
            # the batch names its first refused row
            for call in (
                lambda: _canonical_normals(form, np.stack([spatial, bad, basepoint(form)])),
                lambda: Hyperplane(form, bad),
            ):
                with pytest.raises(ValueError) as got:
                    call()
                assert str(got.value) == str(want.value)


class TestOrthogonality:
    def test_coordinate_hyperplanes(self):
        assert are_orthogonal(J2, E1, E2)

    def test_exact_normals_decide_exactly(self):
        # b_f = 1e-12 is within the float tolerance but not zero
        zero, one = QuadFieldElement(0), QuadFieldElement(1)
        u = (zero, one, zero)
        v = (zero, QuadFieldElement(Fraction(1, 10**12)), one)
        assert not are_orthogonal(J2, u, v)
        assert are_orthogonal(J2, u, (zero, zero, one))
        u_float = np.array([0.0, 1.0, 0.0])
        v_float = np.array([0.0, 1e-12, 1.0])
        assert are_orthogonal(J2, u_float, v_float)

    def test_same_hyperplane_not_orthogonal(self):
        assert not are_orthogonal(J2, E1, E1)

    def test_horizontal_vs_vertical_in_extended_form(self):
        # horizontal normal (0,...,0,1) in f + <q> meets every lifted normal (v, 0)
        base = form_from_rationals([-1, 1, 1])
        ext = direct_sum(base, Fraction(5, 3))
        horizontal = np.array([0.0, 0.0, 0.0, 1.0])
        rng = random.Random(3)
        for _ in range(20):
            v = random_exact_vector(rng, base)
            lifted = tuple(list(v) + [QuadFieldElement(0)])
            assert are_orthogonal(ext, horizontal, lifted)


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

    def test_direction_along_the_point_rejected(self):
        # the tangent's projection vanishes
        x0 = basepoint(J2)
        with pytest.raises(ValueError, match="space-like after projection"):
            translation_along(J2, x0, x0, 1.0)


class TestUnitTangent:
    def test_orthonormal_frame(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = random_sheet_point(rng, J3)
            p, u = unit_tangent(J3, 2.5 * x, rng.standard_normal(4))
            assert np.allclose(p, x, atol=1e-12)
            assert abs(quadratic(J3, u) - 1.0) <= 1e-12
            assert abs(bilinear(J3, p, u)) <= 1e-12

    def test_keeps_the_direction(self):
        p, u = unit_tangent(J2, basepoint(J2), np.array([5.0, 3.0, 0.0]))
        assert np.array_equal(p, basepoint(J2))
        assert np.allclose(u, E1)

    @pytest.mark.parametrize("tangent", [np.zeros(3), np.array([2.0, 0.0, 0.0])])
    def test_vanishing_projection_refused(self, tangent):
        with pytest.raises(ValueError, match="space-like after projection"):
            unit_tangent(J2, basepoint(J2), tangent)


def test_sheet_test_needs_hyperbolic_signature():
    with pytest.raises(ValueError, match="hyperbolic signature"):
        is_point(form_from_rationals([1, 1, 1]), np.array([1.0, 0.0, 0.0]))


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


class TestNonFiniteRefused:
    """A NaN passes every sign test, and an infinite time coordinate passes the sheet test."""

    @NON_FINITE
    def test_sheet_point(self, bad):
        x = np.array([bad, 0.0, 0.0])
        assert not is_point(J2, x)
        with pytest.raises(ValueError, match=r"not finite: f\(x\) = (nan|-inf)"):
            normalize_point(J2, x)
        with pytest.raises(ValueError, match="not finite"):
            normalize_points(J2, [basepoint(J2), x])

    @pytest.mark.parametrize("x", [[1e154, 1e154, 0.0], [1e200, -1e200, 0.0]], ids=["light-like", "nan-f"])
    def test_overflowing_terms(self, x):
        # the squared terms overflow to inf, while f(x) stays finite or is NaN
        x = np.array(x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not is_point(J2, x)
            with pytest.raises(ValueError, match=r"not finite: f\(x\) = \S+ from terms of size inf"):
                normalize_point(J2, x)
            with pytest.raises(ValueError, match="not finite"):
                normalize_points(J2, [basepoint(J2), x])

    @NON_FINITE
    def test_translation(self, bad):
        x0 = basepoint(J2)
        with pytest.raises(ValueError, match="not finite"):
            translation_along(J2, np.array([bad, 0.0, 0.0]), E1, 1.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"space-like after projection, got f\(u\) = nan"
        ):
            translation_along(J2, x0, np.array([0.0, bad, 0.0]), 1.0)

    @NON_FINITE
    def test_hyperplane_normal(self, bad):
        with pytest.raises(ValueError, match=r"normal must be space-like, got f\(v\) = (nan|inf)"):
            Hyperplane(J2, np.array([0.0, bad, 0.0]))

    @NON_FINITE
    def test_float_mirror(self, bad):
        with pytest.raises(ValueError, match=r"mirror must be space-like, got f\(v\) = (nan|inf)"):
            reflection(J2, np.array([0.0, 1.0, bad]))


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
            walls.append(halfspace_containing(h, x0))
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
        hs = halfspace_containing(h, x0)
        assert are_nested(J2, hs, hs, x0) is NestingVerdict.EQUAL

    def test_crossing(self):
        x = np.array([math.sqrt(1.08), 0.2, 0.2])
        hs1 = halfspace_containing(Hyperplane(J2, E1), x)
        hs2 = halfspace_containing(Hyperplane(J2, E2), x)
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
                moved_h = halfspace_containing(moved_h.hyperplane, gx)
                moved_v = halfspace_containing(moved_v.hyperplane, gx)
                assert are_nested(J2, moved_h, moved_v, gx) is v1
