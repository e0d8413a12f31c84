"""Exact field arithmetic: axioms, Galois action, signs, squares, parsing."""

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperglue.numfield import (
    Embedding,
    FieldTag,
    QuadFieldElement,
    format_element,
    parse_element,
    sqrt2,
)
from hyperglue.qforms import jn_form

from oracles import FractionPair

SQRT2 = math.sqrt(2.0)


def qs2(a, b=0):
    return QuadFieldElement(Fraction(a), Fraction(b), FieldTag.Q_SQRT2)


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
elements_st = st.builds(qs2, fractions_st, fractions_st)
nonzero_st = elements_st.filter(bool)


class TestArithmetic:
    def test_norm_identity(self):
        assert qs2(1, 1) * qs2(1, -1) == qs2(-1)

    def test_mixed_sum(self):
        assert qs2(3, 0) + qs2(0, 2) == qs2(3, 2)

    def test_rationalized_inverse(self):
        assert 1 / qs2(1, 1) == qs2(-1, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qs2(1, 1) / qs2(0, 0)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            QuadFieldElement(1) + qs2(1, 1)

    def test_int_coercion(self):
        assert qs2(1, 1) + 2 == qs2(3, 1)
        assert 3 * qs2(1, 1) == qs2(3, 3)

    def test_rational_field_forbids_sqrt_part(self):
        with pytest.raises(ValueError):
            QuadFieldElement(1, 1, FieldTag.Q)

    @given(elements_st, elements_st, elements_st)
    @settings(max_examples=200)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(nonzero_st)
    def test_multiplicative_inverse(self, x):
        assert x * (1 / x) == qs2(1)


class TestGalois:
    def test_conjugate_values(self):
        assert qs2(1, 1).conjugate() == qs2(1, -1)
        assert QuadFieldElement(7).conjugate() == QuadFieldElement(7)

    @given(elements_st)
    def test_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(elements_st, elements_st)
    def test_automorphism(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


class TestSigns:
    def test_examples(self):
        assert sqrt2().sign_at(Embedding.SIGMA) == -1
        assert qs2(3, 1).sign_at(Embedding.SIGMA) == 1
        assert qs2(0).sign_at(Embedding.IDENTITY) == 0

    @given(elements_st)
    @settings(max_examples=500)
    def test_sign_matches_float(self, x):
        for emb in (Embedding.IDENTITY, Embedding.SIGMA):
            value = x.embed(emb)
            if abs(value) > 1e-9:
                assert x.sign_at(emb) == (1 if value > 0 else -1)

    def test_totally_positive(self):
        assert qs2(3, 1).is_totally_positive()
        assert not sqrt2().is_totally_positive()
        assert qs2(1).is_totally_positive()


def _square_by_search(x: QuadFieldElement, bound: int = 8) -> bool:
    """Independent oracle: exhaust candidates c + d*sqrt2 with small numerators."""
    denominators = range(1, 4)
    for cd in denominators:
        for dd in denominators:
            for cn in range(-bound, bound + 1):
                for dn in range(-bound, bound + 1):
                    c = Fraction(cn, cd)
                    d = Fraction(dn, dd)
                    if c * c + 2 * d * d == x.a and 2 * c * d == x.b:
                        return True
    return False


class TestSquares:
    def test_examples(self):
        assert qs2(3, 2).is_square()  # (1 + sqrt2)^2
        assert not QuadFieldElement(2).is_square()
        assert qs2(2).is_square()  # (sqrt 2)^2
        assert not QuadFieldElement(5).is_square()
        assert not qs2(5).is_square()

    def test_against_search_oracle(self):
        cases = [qs2(a, b) for a in range(-6, 7) for b in range(-4, 5)]
        for x in cases:
            assert x.is_square() == _square_by_search(x), str(x)

    @given(elements_st)
    def test_square_of_element_is_square(self, x):
        assert (x * x).is_square()

    @given(elements_st)
    def test_square_implies_totally_positive(self, x):
        if x.is_square():
            assert x == qs2(0) or x.is_totally_positive()


class TestSerialization:
    @given(elements_st)
    def test_round_trip(self, x):
        assert parse_element(format_element(x)) == x

    def test_rational_round_trip(self):
        x = QuadFieldElement(Fraction(-7, 3))
        assert parse_element(format_element(x)) == x

    def test_field_preserved(self):
        x = qs2(3, 0)
        y = parse_element(format_element(x))
        assert y.field is FieldTag.Q_SQRT2

    @pytest.mark.parametrize("field", list(FieldTag), ids=lambda field: field.name)
    def test_matches_fraction_formatting(self, field):
        # (p, q, d) with zero, negative p and q, and d > 1 sharing a factor
        # with p or q alone, then seeded ones; over Q the sqrt-2 part drops
        rng = random.Random(field.value)
        triples = [(0, 0, 1), (0, 0, 7), (-3, -5, 1), (-4, 3, 6), (9, -10, 6), (5, 0, 15), (0, -14, 21)]
        triples += [
            (rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
            for _ in range(500)
        ]
        for p, q, d in triples:
            x, ref = _both(Fraction(p, d), Fraction(q, d), field)
            assert format_element(x) == str(ref), (p, q, d)

    def test_parse_forms(self):
        assert parse_element("1/2 - 3*r2") == qs2(Fraction(1, 2), -3)
        assert parse_element("-5*r2") == qs2(0, -5)
        with pytest.raises(ValueError):
            parse_element("one plus r2")
        with pytest.raises(ValueError):
            parse_element("1 + 1*r2", FieldTag.Q)
        for text in ("1/0", "-3/00", "1 + 1/0*r2", "1/0*r2"):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_element(text)

    @pytest.mark.parametrize("text", ["3 + 0*r2", "-1/2 - 0*r2", "0*r2"])
    def test_zero_sqrt2_part_lies_in_q(self, text):
        x = parse_element(text, FieldTag.Q)
        assert x.field is FieldTag.Q
        assert (x.a, x.b) == (parse_element(text).a, 0)
        # without a field the r2 term keeps the element in Q(sqrt2)
        assert parse_element(text).field is FieldTag.Q_SQRT2

    @pytest.mark.parametrize("text", ["1 + 1*r2", "-2*r2", "0 - 1/3*r2"])
    def test_nonzero_sqrt2_part_refused_in_q(self, text):
        with pytest.raises(ValueError, match="does not lie in Q"):
            parse_element(text, FieldTag.Q)


# operands with numerators and denominators far above 2**64 besides small ones
big_fractions_st = st.builds(
    Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**80)
)
parts_st = st.one_of(fractions_st, big_fractions_st)
pairs_st = st.tuples(parts_st, parts_st)


def _both(a, b, field=FieldTag.Q_SQRT2):
    """The element a + b*sqrt2 and its oracle; over Q the sqrt-2 part is dropped."""
    if field is FieldTag.Q:
        b = 0
    return QuadFieldElement(a, b, field), FractionPair(a, b, field)


def _agrees(x: QuadFieldElement, ref: FractionPair) -> bool:
    """Same value and field as the oracle, held in canonical (p, q, d) form."""
    canonical = x._d > 0 and math.gcd(x._p, x._q, x._d) == 1
    return canonical and x.field is ref.field and (x.a, x.b) == (ref.a, ref.b)


class TestFractionPairOracle:
    @given(pairs_st, pairs_st)
    @settings(max_examples=300)
    def test_ring_operations(self, u, v):
        x, rx = _both(*u)
        y, ry = _both(*v)
        assert _agrees(x, rx) and _agrees(y, ry)
        assert _agrees(x + y, rx + ry)
        assert _agrees(x - y, rx - ry)
        assert _agrees(x * y, rx * ry)
        assert _agrees(-x, FractionPair(0) - rx)
        assert _agrees(x.conjugate(), rx.conjugate())
        assert x.norm() == rx.norm()
        if ry.norm() != 0:
            assert _agrees(x / y, rx / ry)
        # int and Fraction operands on either side go through the coercion path
        for k in (2, Fraction(3, 7), -5):
            rk = FractionPair(k)
            assert _agrees(x + k, rx + rk) and _agrees(k + x, rk + rx)
            assert _agrees(x - k, rx - rk) and _agrees(k - x, rk - rx)
            assert _agrees(x * k, rx * rk) and _agrees(k * x, rk * rx)
            assert _agrees(x / k, rx / rk)
            if rx.norm() != 0:
                assert _agrees(k / x, rk / rx)
        # an element of Q meets one of Q(sqrt2): refused whichever side it is on
        q = QuadFieldElement(u[0], 0, FieldTag.Q)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((q, y), (y, q)):
                with pytest.raises(ValueError, match="mixed fields"):
                    op(left, right)

    @given(pairs_st, st.integers(-4, 4))
    def test_powers(self, u, k):
        x, rx = _both(*u)
        if k >= 0 or rx.norm() != 0:
            assert _agrees(x**k, rx**k)

    @given(pairs_st)
    @settings(max_examples=300)
    def test_signs_and_embeddings(self, u):
        x, rx = _both(*u)
        for emb in (Embedding.IDENTITY, Embedding.SIGMA):
            assert x.sign_at(emb) == rx.sign_at(emb)
            # bit for bit, so CSV and SVG outputs keep their bytes
            assert x.embed(emb) == rx.embed(emb)

    @given(pairs_st, st.sampled_from([FieldTag.Q, FieldTag.Q_SQRT2]))
    def test_text(self, u, field):
        x, rx = _both(*u, field)
        assert str(x) == str(rx)
        assert _agrees(parse_element(str(x), field), rx)

    @given(pairs_st, pairs_st, st.sampled_from([FieldTag.Q, FieldTag.Q_SQRT2]))
    def test_is_square(self, u, v, field):
        x, rx = _both(*u, field)
        y, ry = _both(*v, field)
        assert x.is_square() == rx.is_square()
        assert (x * x).is_square() and (rx * rx).is_square()
        assert (x * x * y).is_square() == (rx * rx * ry).is_square()

    def test_squares_on_a_grid(self):
        for field in (FieldTag.Q, FieldTag.Q_SQRT2):
            for a in range(-12, 13):
                for b in range(-6, 7):
                    for den in (1, 2, 3, 8):
                        x, rx = _both(Fraction(a, den), Fraction(b, den), field)
                        assert x.is_square() == rx.is_square(), str(x)

    def test_division_by_negative_norm(self):
        y, ry = _both(1, 2)  # norm 1 - 8 = -7
        for u in [(1, 0), (3, -5), (Fraction(2**70 + 1, 3), Fraction(-(2**65), 7))]:
            x, rx = _both(*u)
            assert _agrees(x / y, rx / ry)
            assert _agrees(y / x, ry / rx)

    def test_canonical_zero(self):
        x = qs2(Fraction(5, 6), Fraction(-1, 4))
        zero = x - x
        assert (zero._p, zero._q, zero._d) == (0, 0, 1)
        assert ((x * 0)._p, (x * 0)._q, (x * 0)._d) == (0, 0, 1)


class TestHashing:
    def test_rational_values_hash_like_numbers(self):
        assert {QuadFieldElement(3): 1}.get(3) == 1
        assert {qs2(3): 1}.get(3) == 1
        assert {qs2(Fraction(-7, 4)): 1}.get(Fraction(-7, 4)) == 1
        assert hash(qs2(Fraction(1, 2))) == hash(Fraction(1, 2))

    @given(elements_st, elements_st)
    def test_equal_elements_hash_equal(self, x, y):
        z = x + y - y
        assert z == x and hash(z) == hash(x)


class TestImmutability:
    """The public attributes are read-only properties over private slots."""

    @pytest.mark.parametrize("name", ["field", "a", "b", "extra"])
    @pytest.mark.parametrize(
        "parts",
        [(Fraction(3, 4), -2, FieldTag.Q_SQRT2), (Fraction(-5, 2), 0, FieldTag.Q)],
        ids=["qs2", "q"],
    )
    def test_assignment_and_deletion_refused(self, parts, name):
        x, twin = QuadFieldElement(*parts), QuadFieldElement(*parts)
        key = hash(x)
        with pytest.raises(AttributeError):
            setattr(x, name, FieldTag.Q if name == "field" else Fraction(1, 3))
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x == twin and hash(x) == key and x.field is twin.field


class TestCopying:
    @pytest.mark.parametrize(
        "x",
        [qs2(Fraction(2**70 + 1, 9), -3), QuadFieldElement(Fraction(-5, 2)), qs2(0)],
    )
    def test_round_trips(self, x):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and y.field is x.field

    def test_form_round_trips(self):
        form = jn_form(3)
        assert copy.deepcopy(form) == form
        assert pickle.loads(pickle.dumps(form)) == form
