"""Forms: signatures, admissibility, restriction, certificates, counting family."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperglue import hyperboloid
from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement, int_matrix, sqrt2
from hyperglue.qforms import (
    DiagonalForm,
    IsotropicVectorError,
    LABELS,
    build_counting_family,
    counting_base_form,
    direct_sum,
    equivalence_certificate,
    evaluate,
    form_from_rationals,
    gram_matrix,
    is_admissible,
    jn_form,
    restrict_to_orthogonal,
    ring_primes,
    signature_at,
)

from oracles import FractionPair


def qs2(a, b=0):
    return QuadFieldElement(Fraction(a), Fraction(b), FieldTag.Q_SQRT2)


def qs2_form(*coeff_pairs):
    return DiagonalForm(tuple(qs2(a, b) for a, b in coeff_pairs), FieldTag.Q_SQRT2)


def random_element(rng, field=FieldTag.Q, bound=6):
    a = Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
    if field is FieldTag.Q:
        return QuadFieldElement(a)
    b = Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
    return QuadFieldElement(a, b, FieldTag.Q_SQRT2)


class TestSignature:
    def test_j2(self):
        assert signature_at(jn_form(2), Embedding.IDENTITY) == (2, 1)

    def test_sqrt2_form_under_sigma(self):
        f3 = qs2_form((0, -1), (1, 0), (1, 0), (1, 0))  # <-sqrt2, 1, 1, 1>
        assert signature_at(f3, Embedding.SIGMA) == (4, 0)

    def test_rational_head(self):
        form = form_from_rationals([-2, 1, 1, 1])
        assert signature_at(form, Embedding.IDENTITY) == (3, 1)

    def test_invariance_under_permutation_and_square_scaling(self):
        rng = random.Random(7)
        form = qs2_form((0, -1), (1, 0), (3, 1), (2, 0))
        base = signature_at(form, Embedding.IDENTITY), signature_at(form, Embedding.SIGMA)
        for _ in range(20):
            perm = list(form.coefficients)
            rng.shuffle(perm)
            scale = random_element(rng, FieldTag.Q_SQRT2)
            while not scale:
                scale = random_element(rng, FieldTag.Q_SQRT2)
            square = scale * scale
            k = rng.randrange(len(perm))
            perm[k] = perm[k] * square
            scaled = DiagonalForm(tuple(perm), FieldTag.Q_SQRT2)
            assert (
                signature_at(scaled, Embedding.IDENTITY),
                signature_at(scaled, Embedding.SIGMA),
            ) == base


class TestAdmissibility:
    def test_counting_base_forms(self):
        for n in range(2, 9):
            assert is_admissible(counting_base_form(n, FieldTag.Q))
            assert is_admissible(counting_base_form(n, FieldTag.Q_SQRT2))

    def test_wrong_identity_signature(self):
        form = qs2_form((0, -1), (-1, 0), (1, 0))  # <-sqrt2, -1, 1>
        assert not is_admissible(form)

    def test_rational_coefficients_fail_over_extension(self):
        over_ext = qs2_form((-3, 0), (1, 0), (1, 0))
        over_q = form_from_rationals([-3, 1, 1])
        assert not is_admissible(over_ext)
        assert is_admissible(over_q)


class TestDirectSum:
    def test_append(self):
        assert direct_sum(form_from_rationals([-1, 1]), 1) == jn_form(2)

    def test_family_forms_match_direct_sum_over_q(self):
        family = build_counting_family(3, FieldTag.Q)
        for label in LABELS:
            p = family.primes[label]
            assert direct_sum(family.base, p.a) == family.forms[label]

    def test_random_preserves_admissibility(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 5)
            field = rng.choice([FieldTag.Q, FieldTag.Q_SQRT2])
            form = counting_base_form(n, field)
            q = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            assert is_admissible(direct_sum(form, q))

    def test_rejects_bad_summands(self):
        with pytest.raises(ValueError):
            direct_sum(jn_form(2), 0)
        with pytest.raises(ValueError):
            direct_sum(jn_form(2), -3)
        with pytest.raises(ValueError):
            direct_sum(counting_base_form(2, FieldTag.Q_SQRT2), sqrt2())
        for q in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite"):
                direct_sum(jn_form(2), q)

    def test_dimension_and_field(self):
        rng = random.Random(3)
        for _ in range(20):
            field = rng.choice([FieldTag.Q, FieldTag.Q_SQRT2])
            form = counting_base_form(rng.randint(2, 5), field)
            out = direct_sum(form, rng.randint(1, 9))
            assert out.dimension == form.dimension + 1
            assert out.field is field


class TestBilinear:
    """The one exact b_f(u, w) = sum c_i u_i w_i, against the FractionPair oracle."""

    @staticmethod
    def oracle(form, u, w):
        def pair(x):
            return FractionPair(x.a, x.b, form.field)

        total = FractionPair(0, 0, form.field)
        for c, x, y in zip(form.coefficients, u, w):
            total = total + pair(c) * pair(x) * pair(y)
        return total

    @staticmethod
    def random_form(rng, field, n):
        coeffs = []
        while len(coeffs) < n:
            c = random_element(rng, field)
            if c:
                coeffs.append(c)
        return DiagonalForm(tuple(coeffs), field)

    @pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.Q_SQRT2])
    def test_gram_matrix_evaluate_and_oracle_agree(self, field):
        rng = random.Random(23)
        for n in (3, 4, 5):
            for _ in range(4):
                form = self.random_form(rng, field, n)
                basis = [
                    tuple(random_element(rng, field) for _ in range(n))
                    for _ in range(rng.randint(1, n))
                ]
                g = gram_matrix(form, basis)
                for (i, u), (j, w) in itertools.product(enumerate(basis), repeat=2):
                    b = form.bilinear(u, w)
                    assert g[i][j] == b
                    assert FractionPair(b.a, b.b, field) == self.oracle(form, u, w)
                    assert hyperboloid.bilinear(form, u, w) == b
                for v in basis:
                    assert evaluate(form, v) == form.bilinear(v, v)

    @pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.Q_SQRT2])
    def test_short_basis_row_refused(self, field):
        rng = random.Random(5)
        form = self.random_form(rng, field, 4)
        basis = [
            tuple(random_element(rng, field) for _ in range(4)),
            tuple(random_element(rng, field) for _ in range(3)),
        ]
        with pytest.raises(ValueError, match="dimension does not match"):
            gram_matrix(form, basis)
        with pytest.raises(ValueError, match="dimension does not match"):
            evaluate(form, basis[1])


def random_space_like_vector(rng, form):
    """A k-vector with f(v) not zero and positive at the identity embedding."""
    while True:
        v = tuple(random_element(rng, form.field, bound=4) for _ in range(form.dimension))
        value = evaluate(form, v)
        if value and value.sign_at(Embedding.IDENTITY) > 0:
            return v


class TestRestriction:
    def test_coordinate_hyperplane(self):
        v = tuple(QuadFieldElement(c) for c in (0, 0, 1))
        assert restrict_to_orthogonal(jn_form(2), v) == form_from_rationals([-1, 1])

    def test_hand_oracle(self):
        # perp basis of (0,1,1) is {(1,0,0), (0,1,-1)}; Gram diag is (-1, 2)
        v = tuple(QuadFieldElement(c) for c in (0, 1, 1))
        restricted = restrict_to_orthogonal(jn_form(2), v)
        assert restricted == form_from_rationals([-1, 2])

    def test_isotropic_rejected(self):
        v = tuple(QuadFieldElement(c) for c in (1, 1, 0))
        with pytest.raises(IsotropicVectorError):
            restrict_to_orthogonal(jn_form(2), v)

    def test_isotropic_basis_needs_transvection(self):
        # v = (1,1,1) gives a complement basis of isotropic vectors, so the
        # elimination must create a pivot by a row+column addition
        v = tuple(QuadFieldElement(c) for c in (1, 1, 1))
        restricted = restrict_to_orthogonal(jn_form(2), v)
        assert restricted == DiagonalForm(
            (QuadFieldElement(-2), QuadFieldElement(Fraction(1, 2))), FieldTag.Q
        )
        assert signature_at(restricted, Embedding.IDENTITY) == (1, 1)
        assert is_admissible(restricted)

    def test_dimension_drop(self):
        rng = random.Random(23)
        for _ in range(100):
            field = rng.choice([FieldTag.Q, FieldTag.Q_SQRT2])
            form = counting_base_form(rng.randint(2, 5), field)
            v = random_space_like_vector(rng, form)
            out = restrict_to_orthogonal(form, v)
            assert out.dimension == form.dimension - 1

    def test_admissibility_preserved(self):
        rng = random.Random(29)
        for _ in range(60):
            field = rng.choice([FieldTag.Q, FieldTag.Q_SQRT2])
            form = counting_base_form(rng.randint(2, 4), field)
            v = random_space_like_vector(rng, form)
            assert is_admissible(restrict_to_orthogonal(form, v))


class TestCertificates:
    def test_distinct_primes(self):
        f = direct_sum(counting_base_form(3, FieldTag.Q), 3)
        g = direct_sum(counting_base_form(3, FieldTag.Q), 5)
        assert equivalence_certificate(f, g).non_equivalent

    def test_self_comparison_unknown(self):
        f = jn_form(3)
        assert not equivalence_certificate(f, f).non_equivalent

    def test_sqrt2_ratio(self):
        family = build_counting_family(2, FieldTag.Q_SQRT2)
        fa = family.forms["a+"]
        fb = family.forms["b-"]
        ratio = fa.discriminant / fb.discriminant
        assert not ratio.is_square()
        assert equivalence_certificate(fa, fb).non_equivalent

    def test_permutation_never_certified(self):
        rng = random.Random(31)
        for _ in range(20):
            field = rng.choice([FieldTag.Q, FieldTag.Q_SQRT2])
            form = counting_base_form(rng.randint(2, 5), field)
            coeffs = list(form.coefficients)
            rng.shuffle(coeffs)
            permuted = DiagonalForm(tuple(coeffs), field)
            assert not equivalence_certificate(form, permuted).non_equivalent

    @pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.Q_SQRT2])
    def test_discriminant_against_oracle(self, field):
        rng = random.Random(41)
        forms = [TestBilinear.random_form(rng, field, n) for n in (1, 2, 3, 5) for _ in range(3)]
        forms += build_counting_family(4, field).forms.values()
        for form in forms:
            product = FractionPair(1, 0, field)
            for c in form.coefficients:
                product = product * FractionPair(c.a, c.b, field)
            d = form.discriminant
            assert FractionPair(d.a, d.b, field) == product
            assert form.discriminant is d

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            equivalence_certificate(jn_form(2), jn_form(3))
        with pytest.raises(ValueError):
            equivalence_certificate(jn_form(2), counting_base_form(3, FieldTag.Q_SQRT2))


class TestRingPrimes:
    def test_rational_stream(self):
        stream = ring_primes(FieldTag.Q)
        assert [next(stream).a for _ in range(6)] == [2, 3, 5, 7, 11, 13]

    def test_sqrt2_stream_is_totally_positive_and_norm_sorted(self):
        stream = ring_primes(FieldTag.Q_SQRT2)
        primes = [next(stream) for _ in range(8)]
        norms = [abs(p.norm()) for p in primes]
        assert norms == sorted(norms)
        assert all(p.is_totally_positive() for p in primes)
        assert all(p.a.denominator == 1 and p.b.denominator == 1 for p in primes)
        assert norms[:4] == [2, 7, 7, 9]


class TestCountingFamily:
    def test_rational_family(self):
        family = build_counting_family(3, FieldTag.Q)
        assert family.base == form_from_rationals([-2, 1, 1])
        assert [family.primes[l].a for l in LABELS] == [2, 3, 5, 7, 11, 13]
        for form in family.forms.values():
            assert is_admissible(form)
        for la, lb in itertools.combinations(LABELS, 2):
            assert equivalence_certificate(
                family.forms[la], family.forms[lb]
            ).non_equivalent

    def test_sqrt2_family(self):
        family = build_counting_family(2, FieldTag.Q_SQRT2)
        assert len(family.forms) == 6
        for form in family.forms.values():
            assert is_admissible(form)
        for la, lb in itertools.combinations(LABELS, 2):
            assert equivalence_certificate(
                family.forms[la], family.forms[lb]
            ).non_equivalent

    @pytest.mark.parametrize("field", [FieldTag.Q, FieldTag.Q_SQRT2])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_one_certificate_per_pair(self, n, field):
        # keyed (earlier label, later label), in the orientation the CLI prints
        family = build_counting_family(n, field)
        assert len(family.certificates) == 15
        assert set(family.certificates) == set(itertools.combinations(LABELS, 2))
        for (la, lb), cert in family.certificates.items():
            assert cert == equivalence_certificate(family.forms[la], family.forms[lb])
            assert cert.non_equivalent

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_counting_family(1, FieldTag.Q)


class TestJson:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            form_from_rationals([-1, 0, 1])


class TestFloatView:
    FORMS = [jn_form(3), counting_base_form(4, FieldTag.Q_SQRT2)]

    @pytest.mark.parametrize("form", FORMS, ids=["J3", "sqrt2"])
    def test_built_once_and_read_only(self, form):
        c = form.float_coefficients
        t, tinv = form.jn_chart
        assert form.float_coefficients is c and form.jn_chart[0] is t
        assert list(c) == [x.embed(Embedding.IDENTITY) for x in form.coefficients]
        assert np.allclose(t @ tinv, np.eye(form.dimension))
        for array in (c, t, tinv):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("form", FORMS, ids=["J3", "sqrt2"])
    def test_copies_after_the_view_is_built(self, form):
        key = hash(form)
        fresh = DiagonalForm(form.coefficients, form.field)
        t, _ = form.jn_chart
        assert hash(form) == key and form == fresh and hash(fresh) == key
        copies = (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form)))
        for y in copies:
            assert y == form and hash(y) == key
            assert np.array_equal(y.jn_chart[0], t)
            assert not y.float_coefficients.flags.writeable
            assert not y.jn_chart[1].flags.writeable

    @pytest.mark.parametrize(
        "form",
        FORMS + [form_from_rationals([Fraction(-3, 4), Fraction(5, 6), 2])],
        ids=["J3", "sqrt2", "fractions"],
    )
    def test_int_coefficients(self, form):
        (cp,), (cq,) = int_matrix([form.coefficients])[:2]
        assert form.int_coefficients == (tuple(cp), tuple(cq))
        assert form.int_coefficients is form.int_coefficients
        # copies carry the fields only and rebuild the view
        for y in (copy.copy(form), copy.deepcopy(form), pickle.loads(pickle.dumps(form))):
            assert "int_coefficients" not in vars(y)
            assert y.int_coefficients == form.int_coefficients

    def test_non_hyperbolic_chart_refused(self):
        form = form_from_rationals([1, 1, 1])
        assert list(form.float_coefficients) == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="hyperbolic signature"):
            form.jn_chart
