"""Diagonal quadratic forms over Q and Q(sqrt 2).

Covers admissibility (hyperbolic signature at the identity embedding,
definite everywhere else), direct sums, exact restriction to orthogonal
complements, discriminant square-class certificates for non-equivalence,
and the six-prime counting family of labelled forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .numfield import (
    Embedding,
    FieldTag,
    QuadFieldElement,
    format_element,
    sqrt2,
)


class Signature(NamedTuple):
    positives: int
    negatives: int


@dataclass(frozen=True)
class DiagonalForm:
    """A non-degenerate diagonal form <c_0, ..., c_n> over a fixed field."""

    coefficients: tuple[QuadFieldElement, ...]
    field: FieldTag

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("form needs at least one coefficient")
        for c in self.coefficients:
            if not isinstance(c, QuadFieldElement):
                raise TypeError("coefficients must be QuadFieldElement")
            if c.field is not self.field:
                raise ValueError("coefficient field does not match form field")
            if not c:
                raise ValueError("degenerate form: zero diagonal coefficient")

    @property
    def dimension(self) -> int:
        return len(self.coefficients)

    @cached_property
    def float_coefficients(self) -> np.ndarray:
        """The coefficients at the identity embedding; built once, read-only."""
        c = np.array([x.embed(Embedding.IDENTITY) for x in self.coefficients])
        c.setflags(write=False)
        return c

    @cached_property
    def jn_chart(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrices (T, T^-1) with b_f(x, y) = b_J(Tx, Ty), J = diag(-1, 1, ..., 1).

        The unique identity-negative coefficient is routed to slot 0.  Built
        once, read-only; a form without hyperbolic signature raises ValueError.
        """
        c = self.float_coefficients
        neg = np.where(c < 0)[0]
        if len(neg) != 1:
            raise ValueError("form must have hyperbolic signature (n, 1)")
        order = [int(neg[0])] + [i for i in range(len(c)) if i != neg[0]]
        t = np.zeros((len(c), len(c)))
        tinv = np.zeros_like(t)
        for slot, src in enumerate(order):
            t[slot, src] = math.sqrt(abs(c[src]))
            tinv[src, slot] = 1.0 / math.sqrt(abs(c[src]))
        t.setflags(write=False)
        tinv.setflags(write=False)
        return t, tinv

    def __getstate__(self):
        # copies and pickles carry the fields only; a copy rebuilds its own
        # read-only float views (deepcopy and unpickling would make them writeable)
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self):
        inner = ", ".join(format_element(c) for c in self.coefficients)
        return f"<{inner}> over {self.field.value}"


def form_from_rationals(values: Sequence, field: FieldTag = FieldTag.Q) -> DiagonalForm:
    coeffs = tuple(QuadFieldElement(Fraction(v), 0, field) for v in values)
    return DiagonalForm(coeffs, field)


def jn_form(n: int) -> DiagonalForm:
    """The standard hyperbolic form <-1, 1, ..., 1> on R^{n+1} over Q."""
    return form_from_rationals([-1] + [1] * n)


def signature_at(form: DiagonalForm, embedding: Embedding) -> Signature:
    pos = sum(1 for c in form.coefficients if c.sign_at(embedding) > 0)
    return Signature(pos, form.dimension - pos)


def is_admissible(form: DiagonalForm) -> bool:
    """Hyperbolic signature (n, 1) at the identity, definite at every other embedding."""
    n = form.dimension - 1
    if signature_at(form, Embedding.IDENTITY) != Signature(n, 1):
        return False
    for emb in form.field.embeddings():
        if emb is Embedding.IDENTITY:
            continue
        if signature_at(form, emb) != Signature(n + 1, 0):
            return False
    return True


def direct_sum(form: DiagonalForm, q) -> DiagonalForm:
    """Append a positive rational <q> as the last diagonal coefficient."""
    if isinstance(q, QuadFieldElement):
        if q.b != 0:
            raise ValueError("direct summand must be rational")
        q = q.a
    q = Fraction(q)
    if q <= 0:
        raise ValueError("direct summand must be positive")
    tail = QuadFieldElement(q, 0, form.field)
    return DiagonalForm(form.coefficients + (tail,), form.field)


def _append_ring_element(form: DiagonalForm, c: QuadFieldElement) -> DiagonalForm:
    # internal: the counting family appends totally positive ring primes,
    # which over Q(sqrt2) are not rational, so it bypasses direct_sum's
    # rationality contract
    if not c.is_totally_positive():
        raise ValueError("appended coefficient must be totally positive")
    return DiagonalForm(form.coefficients + (c,), form.field)


class IsotropicVectorError(ValueError):
    pass


def evaluate(form: DiagonalForm, v: Sequence[QuadFieldElement]) -> QuadFieldElement:
    if len(v) != form.dimension:
        raise ValueError("vector dimension does not match form")
    total = QuadFieldElement.zero(form.field)
    for c, x in zip(form.coefficients, v):
        total = total + c * x * x
    return total


def gram_matrix(
    form: DiagonalForm, basis: Sequence[Sequence[QuadFieldElement]]
) -> list[list[QuadFieldElement]]:
    """Symmetric Gram matrix of the bilinear form on the given row basis."""
    m = len(basis)
    zero = QuadFieldElement.zero(form.field)
    g = [[zero for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = zero
            for c, x, y in zip(form.coefficients, basis[i], basis[j]):
                acc = acc + c * x * y
            g[i][j] = acc
            g[j][i] = acc
    return g


def diagonalize_symmetric(
    matrix: Sequence[Sequence[QuadFieldElement]], field: FieldTag
) -> list[QuadFieldElement]:
    """Congruence-diagonalize a symmetric matrix over k by Gaussian elimination.

    Pivots take the first nonzero diagonal entry, swapping rows/columns
    when the current one vanishes; if the whole diagonal of the trailing
    block vanishes, a row+column addition creates a pivot.  Deterministic,
    so the resulting diagonal is stable for golden tests.
    """
    m = len(matrix)
    a = [list(row) for row in matrix]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_into(i, j):
        # row_i += row_j and col_i += col_j (congruence by a transvection)
        for c in range(m):
            a[i][c] = a[i][c] + a[j][c]
        for r in range(m):
            a[r][i] = a[r][i] + a[r][j]

    diag: list[QuadFieldElement] = []
    for k in range(m):
        if not a[k][k]:
            pivot = next((j for j in range(k + 1, m) if a[j][j]), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                j = next((j for j in range(k + 1, m) if a[k][j]), None)
                if j is None:
                    raise ValueError("matrix is degenerate")
                add_into(k, j)
        pivot_val = a[k][k]
        for i in range(k + 1, m):
            if not a[i][k]:
                continue
            factor = a[i][k] / pivot_val
            for c in range(m):
                a[i][c] = a[i][c] - factor * a[k][c]
            for r in range(m):
                a[r][i] = a[r][i] - factor * a[r][k]
        diag.append(a[k][k])
    return diag


def restrict_to_orthogonal(
    form: DiagonalForm, v: Sequence[QuadFieldElement]
) -> DiagonalForm:
    """Restrict the form to the orthogonal complement of a non-isotropic k-vector.

    The complement basis comes from the single linear equation
    sum_i c_i v_i w_i = 0 with denominators cleared; the Gram matrix on
    that basis is then congruence-diagonalized.  For admissible input with
    f(v) positive at the identity embedding the result is again admissible
    over the same field.
    """
    n1 = form.dimension
    if len(v) != n1:
        raise ValueError("vector dimension does not match form")
    if not evaluate(form, v):
        raise IsotropicVectorError("cannot restrict to the complement of an isotropic vector")
    zero = QuadFieldElement.zero(form.field)
    weights = [c * x for c, x in zip(form.coefficients, v)]
    pivot = next(i for i, w in enumerate(weights) if w)
    basis = []
    for j in range(n1):
        if j == pivot:
            continue
        row = [zero] * n1
        row[j] = weights[pivot]
        row[pivot] = -weights[j]
        basis.append(row)
    g = gram_matrix(form, basis)
    diag = diagonalize_symmetric(g, form.field)
    return DiagonalForm(tuple(diag), form.field)


def discriminant(form: DiagonalForm) -> QuadFieldElement:
    d = QuadFieldElement.one(form.field)
    for c in form.coefficients:
        d = d * c
    return d


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Outcome of the discriminant square-class test.

    `non_equivalent` is a sound certificate; `Unknown` (non_equivalent =
    False) never claims equivalence.
    """

    non_equivalent: bool
    reason: str | None = None

    def __str__(self):
        return f"NonEquivalent({self.reason})" if self.non_equivalent else "Unknown"


def equivalence_certificate(
    f: DiagonalForm, g: DiagonalForm
) -> EquivalenceCertificate:
    if f.field is not g.field:
        raise ValueError("forms live over different fields")
    if f.dimension != g.dimension:
        raise ValueError("forms have different dimensions")
    ratio = discriminant(f) / discriminant(g)
    if not ratio.is_square():
        return EquivalenceCertificate(
            True, f"discriminant ratio {format_element(ratio)} is not a square"
        )
    return EquivalenceCertificate(False)


# -- primes of the ring of integers, ordered by absolute norm ---------------


def _rational_primes() -> Iterator[int]:
    yield 2
    candidate = 3
    while True:
        if all(candidate % p for p in range(3, math.isqrt(candidate) + 1, 2)):
            yield candidate
        candidate += 2


def _make_totally_positive(pi: QuadFieldElement) -> QuadFieldElement:
    """Adjust a prime of Z[sqrt2] by units so it becomes totally positive."""
    if pi.norm() < 0:
        pi = pi * QuadFieldElement(1, 1, FieldTag.Q_SQRT2)  # fundamental unit 1+sqrt2
    if pi.sign_at(Embedding.IDENTITY) < 0:
        pi = -pi
    assert pi.is_totally_positive()
    return pi


def _split_prime_factor(p: int) -> QuadFieldElement | None:
    """A degree-one factor a + b*sqrt2 of p with a^2 - 2 b^2 = +-p, if one exists."""
    for b in range(1, 2 * p + 2):
        for target in (p + 2 * b * b, 2 * b * b - p):
            if target <= 0:
                continue
            a = math.isqrt(target)
            if a * a == target:
                return QuadFieldElement(a, b, FieldTag.Q_SQRT2)
    return None


def ring_primes(field: FieldTag) -> Iterator[QuadFieldElement]:
    """Totally positive primes of the ring of integers, by increasing norm.

    Over Q these are the rational primes.  Over Q(sqrt2) each rational
    prime contributes the ramified factor (p = 2), a conjugate pair of
    degree-one factors when a^2 - 2 b^2 = +-p is solvable, or itself when
    inert; factors are normalized to totally positive associates.
    """
    if field is FieldTag.Q:
        for p in _rational_primes():
            yield QuadFieldElement(p, 0, FieldTag.Q)
        return

    buffer: list[tuple[Fraction, float, QuadFieldElement]] = []
    prime_iter = _rational_primes()

    def push(el: QuadFieldElement):
        buffer.append((abs(el.norm()), el.embed(), el))

    while True:
        p = next(prime_iter)
        if p == 2:
            push(_make_totally_positive(sqrt2()))
        else:
            factor = _split_prime_factor(p) if p % 8 in (1, 7) else None
            if factor is not None:
                push(_make_totally_positive(factor))
                push(_make_totally_positive(factor.conjugate()))
            else:
                push(QuadFieldElement(p, 0, FieldTag.Q_SQRT2))
        # everything with norm <= p is final: later rational primes only
        # contribute factors of norm >= next prime
        buffer.sort(key=lambda t: (t[0], t[1]))
        while buffer and buffer[0][0] <= p:
            yield buffer.pop(0)[2]


LABELS = ("a+", "a-", "b+", "b-", "u", "v")


@dataclass(frozen=True)
class CountingFamily:
    """The base form plus six labelled, pairwise non-equivalent extensions."""

    base: DiagonalForm
    forms: dict[str, DiagonalForm]
    primes: dict[str, QuadFieldElement]
    certificates: dict[tuple[str, str], EquivalenceCertificate]


def counting_base_form(n: int, field: FieldTag) -> DiagonalForm:
    """The hyperbolic base form in n variables: <-2,1,..> over Q, <-sqrt2,1,..> over Q(sqrt2)."""
    if n < 2:
        raise ValueError("need at least two variables")
    if field is FieldTag.Q:
        head = QuadFieldElement(-2, 0, FieldTag.Q)
    else:
        head = -sqrt2()
    ones = tuple(QuadFieldElement.one(field) for _ in range(n - 1))
    return DiagonalForm((head,) + ones, field)


def build_counting_family(n: int, field: FieldTag) -> CountingFamily:
    """Six labelled admissible forms f_{n-1} + p*x_n^2 with pairwise non-equivalence certified.

    Ring primes are consumed in increasing norm; a candidate is kept only
    if the discriminant certificate separates it from everything already
    chosen, so the certificates in the result are all NonEquivalent.
    """
    if n < 2:
        raise ValueError("counting family needs n >= 2")
    base = counting_base_form(n, field)
    chosen: list[tuple[str, QuadFieldElement, DiagonalForm]] = []
    certificates: dict[tuple[str, str], EquivalenceCertificate] = {}
    labels = iter(LABELS)
    for prime in ring_primes(field):
        candidate = _append_ring_element(base, prime)
        certs = {}
        ok = True
        for label, _, other in chosen:
            cert = equivalence_certificate(candidate, other)
            if not cert.non_equivalent:
                ok = False
                break
            certs[label] = cert
        if not ok:
            continue
        label = next(labels)
        for other_label, cert in certs.items():
            certificates[(label, other_label)] = cert
            certificates[(other_label, label)] = cert
        chosen.append((label, prime, candidate))
        if len(chosen) == len(LABELS):
            break
    forms = {label: form for label, _, form in chosen}
    primes = {label: prime for label, prime, _ in chosen}
    return CountingFamily(base, forms, primes, certificates)

