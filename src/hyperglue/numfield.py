"""Exact arithmetic in Q and Q(sqrt 2).

Every downstream decision that matters (form signatures, orthogonality,
reflection identities, square classes) is discrete, so all predicates are
decided algebraically.  An element is held as Python ints (p, q, d) meaning
(p + q*sqrt2)/d, with d > 0 and gcd(p, q, d) = 1: one integer vector over a
common denominator (Cohen, A Course in Computational Algebraic Number
Theory, ch. 4), normalised by one gcd per operation.  The ints and the
field sit in four private slots filled by plain stores.  Results are built
without the constructor, and an operation on two elements of one field
reads the other's slots directly.  The public `field`, `a` and `b` are
read-only properties, as in `fractions.Fraction`, so assigning them or any
new attribute raises AttributeError.  Exact matrices take the same
layout: integer matrices (P, Q) over one common denominator D
(`int_matrix`), on which `hyperboloid` computes reflections and products
with one gcd per result entry (`canonical`) and checks isometries with
none.  Over Q, Q is all zeros and those kernels read P alone.  No
floating point enters this module except through the explicit `embed()`
accessor.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction


class FieldTag(enum.Enum):
    """The two ground fields: the rationals and the real quadratic field Q(sqrt 2)."""

    Q = "Q"
    Q_SQRT2 = "Q(sqrt2)"

    def embeddings(self) -> tuple["Embedding", ...]:
        if self is FieldTag.Q:
            return (Embedding.IDENTITY,)
        return (Embedding.IDENTITY, Embedding.SIGMA)

    @classmethod
    def parse(cls, text: str) -> "FieldTag":
        key = text.strip().lower().replace(" ", "")
        if key in ("q", "rationals"):
            return cls.Q
        if key in ("q(sqrt2)", "qsqrt2", "q(sqrt(2))", "q[sqrt2]"):
            return cls.Q_SQRT2
        raise ValueError(f"unknown field tag {text!r}")


class Embedding(enum.Enum):
    """Real embeddings: identity and, for Q(sqrt 2), sigma: sqrt2 -> -sqrt2."""

    IDENTITY = "identity"
    SIGMA = "sigma"


_SQRT2_FLOAT = math.sqrt(2.0)


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class QuadFieldElement:
    """An element (p + q*sqrt2)/d of Q or Q(sqrt 2), held as canonical ints.

    d > 0 and gcd(p, q, d) = 1, so equal values have equal (p, q, d) and zero
    is (0, 0, 1).  The constructor takes a + b*sqrt2 with int or Fraction
    parts a, b; the read-only properties `a` and `b` return them as
    Fractions and `field` the ground field.  Arithmetic stays inside a
    single field and is exact.  For FieldTag.Q the sqrt-2 part is forced to
    zero.
    """

    # read-only properties, not a __setattr__ override, keep the values
    # immutable: an override would take every slot store off CPython's fast path
    __slots__ = ("_p", "_q", "_d", "_field")

    def __init__(self, a, b=0, field: FieldTag | None = None):
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        if field is None:
            field = FieldTag.Q_SQRT2 if bn != 0 else FieldTag.Q
        if field is FieldTag.Q and bn != 0:
            raise ValueError("rational field element cannot carry a sqrt-2 part")
        # a and b are in lowest terms, so over d = lcm(ad, bd) the gcd is 1
        d = math.lcm(ad, bd)
        self._p = an * (d // ad)
        self._q = bn * (d // bd)
        self._d = d
        self._field = field

    def __reduce__(self):
        return (QuadFieldElement, (self.a, self.b, self._field))

    @property
    def field(self) -> FieldTag:
        """The ground field, Q or Q(sqrt 2)."""
        return self._field

    @property
    def a(self) -> Fraction:
        """The rational part p/d."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The sqrt-2 coefficient q/d."""
        return Fraction(self._q, self._d)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, field: FieldTag) -> "QuadFieldElement":
        return _make(0, 0, 1, field)

    @classmethod
    def one(cls, field: FieldTag) -> "QuadFieldElement":
        return _make(1, 0, 1, field)

    def _operand(self, other) -> tuple[int, int, int] | None:
        """(p, q, d) of an element of the same field, an int or a Fraction.

        The binary operators read an element of their own field directly and
        call this for every other operand.
        """
        if isinstance(other, QuadFieldElement):
            if other._field is not self._field:
                raise ValueError(
                    f"mixed fields: {self._field.value} vs {other._field.value}"
                )
            return other._p, other._q, other._d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if type(other) is QuadFieldElement and other._field is self._field:
            p, q, d = other._p, other._q, other._d
        else:
            o = self._operand(other)
            if o is None:
                return NotImplemented
            p, q, d = o
        sd = self._d
        if d == sd:
            return _norm(self._p + p, self._q + q, d, self._field)
        return _norm(self._p * d + p * sd, self._q * d + q * sd, sd * d, self._field)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is QuadFieldElement and other._field is self._field:
            p, q, d = other._p, other._q, other._d
        else:
            o = self._operand(other)
            if o is None:
                return NotImplemented
            p, q, d = o
        sd = self._d
        if d == sd:
            return _norm(self._p - p, self._q - q, d, self._field)
        return _norm(self._p * d - p * sd, self._q * d - q * sd, sd * d, self._field)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(-self._p, -self._q, self._d, self._field)

    def __mul__(self, other):
        if type(other) is QuadFieldElement and other._field is self._field:
            p, q, d = other._p, other._q, other._d
        else:
            o = self._operand(other)
            if o is None:
                return NotImplemented
            p, q, d = o
        sp, sq = self._p, self._q
        return _norm(sp * p + 2 * sq * q, sp * q + sq * p, self._d * d, self._field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is QuadFieldElement and other._field is self._field:
            p, q, d = other._p, other._q, other._d
        else:
            o = self._operand(other)
            if o is None:
                return NotImplemented
            p, q, d = o
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        # x / y = x * conjugate(y) * d / n with n = p^2 - 2 q^2 of either sign
        sp, sq = self._p, self._q
        if n < 0:
            d, n = -d, -n
        return _norm((sp * p - 2 * sq * q) * d, (sq * p - sp * q) * d, self._d * n, self._field)

    def __rtruediv__(self, other):
        return QuadFieldElement(other, 0, self._field) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (QuadFieldElement.one(self._field) / self) ** (-exponent)
        result = QuadFieldElement.one(self._field)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, QuadFieldElement):
            return (
                self._field is other._field
                and self._p == other._p
                and self._q == other._q
                and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return (
                self._q == 0
                and self._p == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        if self._q == 0:
            return hash(Fraction(self._p, self._d))
        return hash((self._p, self._q, self._d, self._field))

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def __repr__(self):
        return f"QuadFieldElement({self.a!r}, {self.b!r}, {self._field})"

    def __str__(self):
        return format_element(self)

    # -- field structure ---------------------------------------------------

    def conjugate(self) -> "QuadFieldElement":
        """Galois conjugate a + b*sqrt2 -> a - b*sqrt2 (identity on Q)."""
        return _make(self._p, -self._q, self._d, self._field)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (= x * conjugate(x))."""
        p, q, d = self._p, self._q, self._d
        return Fraction(p * p - 2 * q * q, d * d)

    def sign_at(self, embedding: Embedding) -> int:
        """Exact sign of the real number (p + q*(+-sqrt2))/d, no floating point.

        d > 0, and when p and q pull in opposite directions the winner is
        decided by comparing p^2 with 2 q^2 (equality is impossible for
        nonzero integers since sqrt 2 is irrational).
        """
        p = self._p
        q = self._q if embedding is Embedding.IDENTITY else -self._q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0) or p * p < 2 * q * q:
            return 1 if q > 0 else -1
        return 1 if p > 0 else -1

    def is_totally_positive(self) -> bool:
        return all(self.sign_at(e) == 1 for e in self._field.embeddings())

    def is_square(self) -> bool:
        """Exact decision whether the element is a square inside its own field.

        A rational r/s (s > 0) is a square iff the integer r*s is.  Over
        Q(sqrt2), x = a + b*sqrt2 with b != 0 is (c + e*sqrt2)^2 iff
        c^2 + 2 e^2 = a and 2 c e = b.  Then the norm a^2 - 2 b^2 is a
        square t^2, c^2 = (a +- t)/2 is a nonzero rational square, and
        e = b/(2c) solves both equations.  With a = p/d, b = q/d this means
        p^2 - 2 q^2 = s^2 and 2 d (p +- s) a nonzero square.
        """
        p, q, d = self._p, self._q, self._d
        if q == 0:
            # c^2 = a (e = 0), or over Q(sqrt2) also 2 e^2 = a (c = 0)
            return _is_square_int(p * d) or (
                self._field is FieldTag.Q_SQRT2 and _is_square_int(2 * p * d)
            )
        n = p * p - 2 * q * q
        if not _is_square_int(n):
            return False
        s = math.isqrt(n)
        return any(t != 0 and _is_square_int(2 * d * t) for t in (p + s, p - s))

    def embed(self, embedding: Embedding = Embedding.IDENTITY) -> float:
        """Floating image under the chosen real embedding.

        Int true division is correctly rounded, so p/d and q/d are the
        floats of the Fractions a and b.
        """
        q = self._q if embedding is Embedding.IDENTITY else -self._q
        return self._p / self._d + (q / self._d) * _SQRT2_FLOAT


_new = object.__new__


def _make(p: int, q: int, d: int, field: FieldTag) -> QuadFieldElement:
    """The element with canonical ints (p, q, d), skipping the constructor."""
    x = _new(QuadFieldElement)
    x._p = p
    x._q = q
    x._d = d
    x._field = field
    return x


def _norm(p: int, q: int, d: int, field: FieldTag) -> QuadFieldElement:
    """The element (p + q*sqrt2)/d for d > 0, reduced by gcd(p, q, d)."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    # the stores of `_make`, inlined: every arithmetic result comes through here
    x = _new(QuadFieldElement)
    x._p = p
    x._q = q
    x._d = d
    x._field = field
    return x


def canonical(p: int, q: int, d: int, field: FieldTag) -> QuadFieldElement:
    """The element (p + q*sqrt2)/d of `field` for ints p, q and d > 0.

    The public face of `_norm`; the arithmetic calls `_norm` itself so that
    a tracer wrapping public names does not wrap every element operation.
    """
    return _norm(p, q, d, field)


def int_matrix(rows, field: FieldTag | None = None):
    """(P, Q, D, field) with rows[i][j] = (P[i][j] + Q[i][j]*sqrt2)/D.

    D > 0 is the lcm of the entries' denominators.  All entries must lie in
    one field, `field` when given; otherwise ValueError("mixed fields ...").
    Without `field`, a matrix with no entry raises ValueError.  Over Q, Q is
    all zeros and is not computed from the entries.
    """
    if field is None:
        if not rows or not rows[0]:
            raise ValueError("matrix has no entry to take its field from")
        field = rows[0][0]._field
    dens = set()
    for row in rows:
        for x in row:
            if x._field is not field:
                raise ValueError(f"mixed fields: {field.value} vs {x._field.value}")
            dens.add(x._d)
    d = math.lcm(*dens)
    p = [[x._p * (d // x._d) for x in row] for row in rows]
    if field is FieldTag.Q:
        return p, [[0] * len(row) for row in rows], d, field
    q = [[x._q * (d // x._d) for x in row] for row in rows]
    return p, q, d, field


def sqrt2() -> QuadFieldElement:
    return QuadFieldElement(0, 1, FieldTag.Q_SQRT2)


# -- textual serialization ---------------------------------------------------
#
# canonical forms:  "3", "-5/4"               (Q)
#                   "3 + 1/2*r2", "0 - 2*r2"  (Q(sqrt2), both terms always)

_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_ELEMENT_RE = re.compile(
    rf"^\s*(?P<a>{_RATIONAL})\s*(?:(?P<sign>[+-])\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*r2)?\s*$"
)
_PURE_SQRT_RE = re.compile(rf"^\s*(?P<b>{_RATIONAL})\s*\*\s*r2\s*$")


def _format_ratio(n: int, d: int) -> str:
    """n/d in lowest terms as `str(Fraction(n, d))` writes it, for d > 0."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_element(x: QuadFieldElement) -> str:
    p, q, d = x._p, x._q, x._d
    if x._field is FieldTag.Q:
        return _format_ratio(p, d)
    if q >= 0:
        return f"{_format_ratio(p, d)} + {_format_ratio(q, d)}*r2"
    return f"{_format_ratio(p, d)} - {_format_ratio(-q, d)}*r2"


def _fraction(part: str, text: str) -> Fraction:
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def parse_element(text: str, field: FieldTag | None = None) -> QuadFieldElement:
    """Parse "a/b + c/d*r2" (or a bare rational); exact round-trip with format_element.

    With `field` the element lies in that field, so over Q a zero sqrt-2 part
    is dropped and any other is refused.  Without it, text with an r2 term
    gives an element of Q(sqrt2), whatever its value.
    """
    m = _PURE_SQRT_RE.match(text)
    if m:
        b = _fraction(m.group("b"), text)
        if field is FieldTag.Q and b != 0:
            raise ValueError(f"{text!r} does not lie in Q")
        return QuadFieldElement(0, b, field or FieldTag.Q_SQRT2)
    m = _ELEMENT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse field element {text!r}")
    a = _fraction(m.group("a"), text)
    if m.group("b") is None:
        tag = field if field is not None else FieldTag.Q
        return QuadFieldElement(a, 0, tag)
    b = _fraction(m.group("b"), text)
    if m.group("sign") == "-":
        b = -b
    if field is FieldTag.Q and b != 0:
        raise ValueError(f"{text!r} does not lie in Q")
    return QuadFieldElement(a, b, field or FieldTag.Q_SQRT2)
