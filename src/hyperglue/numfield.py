"""Exact arithmetic in Q and Q(sqrt 2).

Every downstream decision that matters (form signatures, orthogonality,
reflection identities, square classes) is discrete, so elements are pairs
of `fractions.Fraction` and all predicates are decided algebraically.
No floating point enters this module except through the explicit
`embed()` accessor.
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QuadFieldElement:
    """An element a + b*sqrt(2) of Q or Q(sqrt 2), held as reduced fractions.

    Values are immutable; arithmetic stays inside a single field and is
    exact.  For FieldTag.Q the sqrt-2 part is forced to zero.
    """

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b=0, field: FieldTag | None = None):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if field is None:
            field = FieldTag.Q_SQRT2 if b != 0 else FieldTag.Q
        if field is FieldTag.Q and b != 0:
            raise ValueError("rational field element cannot carry a sqrt-2 part")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("QuadFieldElement is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def rational(cls, value, field: FieldTag = FieldTag.Q) -> "QuadFieldElement":
        return cls(_as_fraction(value), 0, field)

    @classmethod
    def zero(cls, field: FieldTag) -> "QuadFieldElement":
        return cls(0, 0, field)

    @classmethod
    def one(cls, field: FieldTag) -> "QuadFieldElement":
        return cls(1, 0, field)

    def _coerce(self, other) -> "QuadFieldElement":
        if isinstance(other, QuadFieldElement):
            if other.field is not self.field:
                raise ValueError(
                    f"mixed fields: {self.field.value} vs {other.field.value}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElement(other, 0, self.field)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadFieldElement(self.a + other.a, self.b + other.b, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadFieldElement(self.a - other.a, self.b - other.b, self.field)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadFieldElement(-self.a, -self.b, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadFieldElement(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.field,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        inv = QuadFieldElement(other.a / norm, -other.b / norm, self.field)
        return self * inv

    def __rtruediv__(self, other):
        return QuadFieldElement(other, 0, self.field) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (QuadFieldElement.one(self.field) / self) ** (-exponent)
        result = QuadFieldElement.one(self.field)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadFieldElement):
            return (
                self.field is other.field and self.a == other.a and self.b == other.b
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.field))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadFieldElement({self.a!r}, {self.b!r}, {self.field})"

    def __str__(self):
        return format_element(self)

    # -- field structure ---------------------------------------------------

    def conjugate(self) -> "QuadFieldElement":
        """Galois conjugate a + b*sqrt2 -> a - b*sqrt2 (identity on Q)."""
        return QuadFieldElement(self.a, -self.b, self.field)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (= x * conjugate(x))."""
        return self.a * self.a - 2 * self.b * self.b

    def sign_at(self, embedding: Embedding) -> int:
        """Exact sign of the real number a + b*(+-sqrt2), no floating point.

        When a and b pull in opposite directions the winner is decided by
        comparing a^2 with 2 b^2 (equality is impossible for nonzero
        rationals since sqrt 2 is irrational).
        """
        b = self.b if embedding is Embedding.IDENTITY else -self.b
        a = self.a
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        if a * a > 2 * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def is_totally_positive(self) -> bool:
        return all(self.sign_at(e) == 1 for e in self.field.embeddings())

    def is_square(self) -> bool:
        """Exact decision whether the element is a square inside its own field.

        Over Q(sqrt2) this solves c^2 + 2 d^2 = a, 2 c d = b over the
        rationals: the field norm a^2 - 2 b^2 must be a rational square s^2
        and then (a +- s)/2 must be a rational square c^2.
        """
        if self.field is FieldTag.Q:
            return self.b == 0 and _fraction_sqrt(self.a) is not None
        if self.b == 0:
            if self.a == 0:
                return True
            # c^2 = a  (d = 0)  or  2 d^2 = a  (c = 0)
            return (
                _fraction_sqrt(self.a) is not None
                or _fraction_sqrt(self.a / 2) is not None
            )
        s = _fraction_sqrt(self.norm())
        if s is None:
            return False
        for root in ((self.a + s) / 2, (self.a - s) / 2):
            c = _fraction_sqrt(root)
            if c is not None and c != 0:
                d = self.b / (2 * c)
                if c * c + 2 * d * d == self.a and 2 * c * d == self.b:
                    return True
        return False

    def is_integral(self) -> bool:
        """Membership in the ring of integers (Z, or Z[sqrt2])."""
        return self.a.denominator == 1 and self.b.denominator == 1

    def embed(self, embedding: Embedding = Embedding.IDENTITY) -> float:
        """Floating image under the chosen real embedding."""
        b = self.b if embedding is Embedding.IDENTITY else -self.b
        return float(self.a) + float(b) * _SQRT2_FLOAT


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


def format_element(x: QuadFieldElement) -> str:
    if x.field is FieldTag.Q:
        return str(x.a)
    if x.b >= 0:
        return f"{x.a} + {x.b}*r2"
    return f"{x.a} - {-x.b}*r2"


def parse_element(text: str, field: FieldTag | None = None) -> QuadFieldElement:
    """Parse "a/b + c/d*r2" (or a bare rational); exact round-trip with format_element."""
    m = _PURE_SQRT_RE.match(text)
    if m:
        b = Fraction(m.group("b"))
        if field is FieldTag.Q:
            raise ValueError(f"{text!r} does not lie in Q")
        return QuadFieldElement(0, b, FieldTag.Q_SQRT2)
    m = _ELEMENT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse field element {text!r}")
    a = Fraction(m.group("a"))
    if m.group("b") is None:
        tag = field if field is not None else FieldTag.Q
        return QuadFieldElement(a, 0, tag)
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    if field is FieldTag.Q and b != 0:
        raise ValueError(f"{text!r} does not lie in Q")
    return QuadFieldElement(a, b, FieldTag.Q_SQRT2)
