"""Hyperbolic geometry inside the quadratic space (R^{n+1}, f).

Two scalar regimes, matching how the objects are used:

* exact: vectors/matrices with QuadFieldElement entries, for everything
  that is k-rational (reflections, bilinear values of k-vectors,
  isometry verification).  These computations never round.  Reflections,
  products and isometry checks run on integer matrices over one common
  denominator (`numfield.int_matrix`): one gcd per result entry, and none
  in `is_isometry`, which cross-multiplies instead.  Both read the form's
  integer coefficients, built once per form (`DiagonalForm.int_coefficients`).
  Over Q each kernel reads P alone: one integer product per entry, where
  Q(sqrt2) needs two on rows twice as long.
* floating: numpy binary64 with tolerance EPS = 1e-9 for the metric side
  (distances, bisectors, ball-model output, nesting of halfspaces).

A point of H^n satisfies f(x) = -1 on the upper sheet; a space-like
vector satisfies f(v) > 0 and cuts out the hyperplane H_v = v-perp.  One
row rule (`_sheet_rows`) is the only sheet test: `is_point`, `distance`,
`normalize_point` (its one-row call) and `normalize_points` read it, and it
sums f(x) in `np.dot`'s order, so they agree at the 1e-7 boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .numfield import Embedding, FieldTag, QuadFieldElement, canonical, int_matrix
from .qforms import DiagonalForm

EPS = 1e-9


# -- scalars and dispatch ------------------------------------------------------


def _is_exact_vector(v) -> bool:
    return (
        isinstance(v, (tuple, list))
        and len(v) > 0
        and isinstance(v[0], QuadFieldElement)
    )


def float_coefficients(form: DiagonalForm) -> np.ndarray:
    """The form's read-only float coefficients, built once per form."""
    return form.float_coefficients


def as_float_vector(form: DiagonalForm, v) -> np.ndarray:
    if _is_exact_vector(v):
        return np.array([x.embed(Embedding.IDENTITY) for x in v])
    return np.asarray(v, dtype=float)


def bilinear(form: DiagonalForm, u, w):
    """b_f(u, w) = sum_i c_i u_i w_i; exact when both vectors are exact."""
    if _is_exact_vector(u) and _is_exact_vector(w):
        return form.bilinear(u, w)
    uf = as_float_vector(form, u)
    wf = as_float_vector(form, w)
    if uf.shape[-1] != form.dimension or wf.shape[-1] != form.dimension:
        raise ValueError("vector dimension does not match form")
    return float(np.dot(uf * float_coefficients(form), wf))


def quadratic(form: DiagonalForm, v):
    return bilinear(form, v, v)


def close_to(a: np.ndarray, b: np.ndarray, atol: float) -> np.ndarray:
    """|a - b| <= atol + 1e-5 |b| in every entry along the last axis, broadcast over the others.

    This is `np.isclose`'s rule for finite input (rtol 1e-5); it is not
    symmetric in a and b.  A NaN or infinite entry of a never matches a
    finite b.
    """
    return (np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all(axis=-1)


# -- exact matrices ------------------------------------------------------------


def exact_identity(form: DiagonalForm) -> list[list[QuadFieldElement]]:
    n = form.dimension
    zero = QuadFieldElement.zero(form.field)
    one = QuadFieldElement.one(form.field)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _entrywise(ap, aq, bp, bq) -> tuple[list[int], list[int]]:
    """The (p, q) parts of a_k * b_k for vectors a = ap + aq sqrt2 and b = bp + bq sqrt2."""
    return (
        [x * y + 2 * s * t for x, s, y, t in zip(ap, aq, bp, bq)],
        [x * t + s * y for x, s, y, t in zip(ap, aq, bp, bq)],
    )


def _times_columns(yp, yq) -> tuple[list[int], list[int]]:
    """Rows that take x = xp + xq to the (p, q) parts of x * y by two dot products.

    (xp + xq sqrt2)(yp + yq sqrt2) = (xp yp + 2 xq yq) + (xp yq + xq yp) sqrt2.
    """
    return [*yp, *(2 * y for y in yq)], [*yq, *yp]


def exact_mat_mul(a, b):
    """The exact product a @ b: one integer product, one gcd per entry.

    Over Q an entry is the dot product of a row of P_a with a column of P_b.
    """
    if not a or not b or any(len(row) != len(b) for row in a) or any(len(row) != len(b[0]) for row in b):
        raise ValueError("matrix shapes do not match")
    ap, aq, ad, field = int_matrix(a)
    bp, bq, bd, _ = int_matrix(b, field)
    d = ad * bd
    if field is FieldTag.Q:
        cols = list(zip(*bp))
        return [[canonical(sum(map(mul, x, y)), 0, d, field) for y in cols] for x in ap]
    cols = [_times_columns(yp, yq) for yp, yq in zip(zip(*bp), zip(*bq))]
    return [
        [canonical(sum(map(mul, x, tp)), sum(map(mul, x, tq)), d, field) for tp, tq in cols]
        for x in map(list.__add__, ap, aq)
    ]


def reflection(form: DiagonalForm, v):
    """Matrix of r_v(w) = w - 2 b(w,v)/f(v) * v; exact for exact v.

    Requires f(v) > 0 at the identity embedding (space-like mirror).  The
    exact matrix does not change when v is scaled, so with u = d*v and
    C = fd*c integral (d and fd the common denominators), entry (i, j) is
    delta_ij - 2 u_i C_j u_j conj(N)/nn for N = sum_k C_k u_k^2 and the
    integer nn = N conj(N).  Over Q, N is an integer with the sign of f(v),
    and entry (i, j) is (N delta_ij - 2 u_i C_j u_j)/N: the denominator is N,
    not N conj(N) = N^2.
    """
    if _is_exact_vector(v):
        n = form.dimension
        if len(v) != n:
            raise ValueError("vector dimension does not match form")
        (up,), (uq,), _, field = int_matrix([v], form.field)
        cp, cq = form.int_coefficients
        if field is FieldTag.Q:
            w = list(map(mul, cp, up))
            nn = sum(map(mul, w, up))
            if nn <= 0:
                raise ValueError("reflection mirror must be space-like")
            t = [2 * x for x in w]
            return [
                [canonical((nn if i == j else 0) - x * t[j], 0, nn, field) for j in range(n)]
                for i, x in enumerate(up)
            ]
        wp, wq = _entrywise(cp, cq, up, uq)
        np_ = sum(map(mul, wp, up)) + 2 * sum(map(mul, wq, uq))
        nq = sum(map(mul, wp, uq)) + sum(map(mul, wq, up))
        if canonical(np_, nq, 1, field).sign_at(Embedding.IDENTITY) <= 0:
            raise ValueError("reflection mirror must be space-like")
        nn = np_ * np_ - 2 * nq * nq
        s = 2 if nn > 0 else -2
        nn = abs(nn)
        # t_j = 2 sign(nn) C_j u_j conj(N), so that entry (i, j) is delta_ij - u_i t_j / |nn|
        tp = [s * (x * np_ - 2 * y * nq) for x, y in zip(wp, wq)]
        tq = [s * (y * np_ - x * nq) for x, y in zip(wp, wq)]
        return [
            [
                canonical(
                    (nn if i == j else 0) - x * tp[j] - 2 * y * tq[j],
                    -x * tq[j] - y * tp[j],
                    nn,
                    field,
                )
                for j in range(n)
            ]
            for i, (x, y) in enumerate(zip(up, uq))
        ]
    vf = as_float_vector(form, v)
    fv = float(np.dot(vf * float_coefficients(form), vf))
    if not 0 < fv < math.inf:
        raise ValueError(f"reflection mirror must be space-like, got f(v) = {fv:g}")
    n = form.dimension
    return np.eye(n) - 2.0 * np.outer(vf, vf * float_coefficients(form)) / fv


def is_isometry(form: DiagonalForm, mat, tol: float = EPS) -> bool:
    """Check A^t F A = F; exact equality for exact matrices, sup-norm <= tol otherwise."""
    if isinstance(mat, (list, tuple)) and (not mat or _is_exact_vector(mat[0])):
        # with A = (P + Q sqrt2)/D and c = C/fd: sum_k A_ki C_k A_kj == C_i delta_ij D^2,
        # for j >= i only since A^t F A is symmetric
        n = form.dimension
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError("matrix dimension does not match form")
        ap, aq, d, field = int_matrix(mat, form.field)
        cp, cq = form.int_coefficients
        dd = d * d
        if field is FieldTag.Q:
            cols = list(zip(*ap))
            fcols = [list(map(mul, cp, y)) for y in cols]
            return all(
                sum(map(mul, x, fcols[j])) == (cp[i] * dd if i == j else 0)
                for i, x in enumerate(cols)
                for j in range(i, n)
            )
        cols = list(zip(zip(*ap), zip(*aq)))
        fcols = [_times_columns(*_entrywise(cp, cq, xp, xq)) for xp, xq in cols]
        for i, (xp, xq) in enumerate(cols):
            x = xp + xq
            for j in range(i, n):
                tp, tq = fcols[j]
                p = sum(map(mul, x, tp))
                q = sum(map(mul, x, tq))
                if i == j:
                    p, q = p - cp[i] * dd, q - cq[i] * dd
                if p or q:
                    return False
        return True
    a = np.asarray(mat, dtype=float)
    if a.shape != (form.dimension, form.dimension):
        raise ValueError("matrix dimension does not match form")
    f = np.diag(float_coefficients(form))
    scale = max(1.0, float(np.max(np.abs(a))) ** 2)
    return bool(np.max(np.abs(a.T @ f @ a - f)) <= tol * scale)


def isometry_inverse(form: DiagonalForm, mat: np.ndarray) -> np.ndarray:
    """Inverse of A in O(f): F^{-1} A^t F (numerically cleaner than a solve)."""
    c = float_coefficients(form)
    return (mat.T * c[None, :]) / c[:, None]


# -- the J_n chart and sheet bookkeeping ---------------------------------------


def jn_chart(form: DiagonalForm) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (T, T^-1) with b_f(x, y) = b_J(Tx, Ty), built once per form."""
    return form.jn_chart


def _float_rows(form: DiagonalForm, xs) -> np.ndarray:
    """The (N, d) float array of the vectors xs, each of the form's dimension."""
    rows = [as_float_vector(form, x) for x in xs]
    if any(x.shape != (form.dimension,) for x in rows):
        raise ValueError("vector dimension does not match form")
    return np.array(rows).reshape(-1, form.dimension)


def _sheet_rows(form: DiagonalForm, xf: np.ndarray) -> list[tuple[float, float, bool, bool]]:
    """The sheet test of each row x of the (N, d) array xf: (f(x), scale, near, upper).

    scale = max(1, sum |c_i| x_i^2) sizes the test: far sheet points have
    coordinates ~cosh(d), so f(x) = -1 is computed with absolute
    cancellation error ~ eps * cosh(d)^2.  It is NaN or inf for a row whose
    terms overflow or are not finite, and a finite scale bounds |f(x)|.
    near says that the scale is finite and |f(x) + 1| <= 1e-7 * scale, upper
    that the J-chart time coordinate is positive; x lies on the upper sheet
    iff both hold.  f(x) and the scale come from one stacked product of
    (1, d) rows c * x and |c| * x with the (d, 1) column x, which numpy runs
    as one `np.dot` per row and sum, so a row's values have the same bits
    whatever N is.
    """
    c = float_coefficients(form)
    weights = np.array((c, np.abs(c)))[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = ((xf[:, None, None, :] * weights) @ xf[:, None, :, None]).reshape(-1, 2).tolist()
        times = (xf @ jn_chart(form)[0][0]).tolist()
    return [
        (q, scale, math.isfinite(scale) and abs(q + 1.0) <= 1e-7 * scale, time > 0)
        for (q, t), time in zip(sums, times)
        for scale in (1.0 if t < 1.0 else t,)  # max(1, t), with a NaN kept
    ]


def is_point(form: DiagonalForm, x) -> bool:
    """Upper-sheet membership, f(x) = -1 within 1e-7 relative to the coordinates' size."""
    ((_, _, near, upper),) = _sheet_rows(form, _float_rows(form, [x]))
    return near and upper


def normalize_point(form: DiagonalForm, x) -> np.ndarray:
    """Scale a time-like upper vector onto the sheet f = -1; `normalize_points` of one vector."""
    return normalize_points(form, [x])[0]


def normalize_points(form: DiagonalForm, xs) -> list[np.ndarray]:
    """Scale each time-like upper vector onto the sheet f = -1.

    Vectors already on the upper sheet up to relative roundoff are returned
    unchanged: rescaling a far point by its noisy quadratic value would
    amplify the cancellation error.  The first vector that is not finite,
    not time-like or on the lower sheet is refused, in that order.
    """
    xf = _float_rows(form, xs)
    out = []
    for x, (q, scale, near, upper) in zip(xf, _sheet_rows(form, xf)):
        if not math.isfinite(scale):
            raise ValueError(f"vector is not finite: f(x) = {q:g} from terms of size {scale:g}")
        if not near:
            if q >= -EPS * scale:
                raise ValueError("vector is not time-like")
            x = x / math.sqrt(-q)  # keeps the sign of the time coordinate
        if not upper:
            raise ValueError("vector lies on the lower sheet")
        out.append(x)
    return out


def basepoint(form: DiagonalForm) -> np.ndarray:
    """The sheet point mapping to (1, 0, ..., 0) in the J chart."""
    _, tinv = jn_chart(form)
    e0 = np.zeros(form.dimension)
    e0[0] = 1.0
    return tinv @ e0


def distance(form: DiagonalForm, x, y) -> float:
    """Hyperbolic distance via cosh d = -b_f(x, y) for sheet points."""
    xy = _float_rows(form, [x, y])
    if not all(near and upper for _, _, near, upper in _sheet_rows(form, xy)):
        raise ValueError("distance requires points on the upper sheet")
    return math.acosh(max(1.0, -float(np.dot(xy[0] * float_coefficients(form), xy[1]))))


# -- hyperplanes and halfspaces -------------------------------------------------


class Hyperplane:
    """H_v = v-perp intersected with the sheet, for a space-like normal v.

    Floating normals are canonicalized to f(v) = 1 with the first
    coordinate of absolute value > EPS made positive, so structurally
    equal hyperplanes compare equal under `same_as`.
    """

    __slots__ = ("form", "normal")

    def __init__(self, form: DiagonalForm, normal):
        vf = as_float_vector(form, normal)
        q = float(np.dot(vf * float_coefficients(form), vf))
        if not EPS < q < math.inf:
            raise ValueError(f"hyperplane normal must be space-like, got f(v) = {q:g}")
        vf = vf / math.sqrt(q)
        lead = next(i for i, x in enumerate(vf) if abs(x) > EPS)
        if vf[lead] < 0:
            vf = -vf
        self.form = form
        self.normal = vf

    def same_as(self, other: "Hyperplane", tol: float = 1e-7) -> bool:
        return bool(close_to(self.normal, other.normal, tol))

    def apply(self, mat: np.ndarray) -> "Hyperplane":
        return Hyperplane(self.form, mat @ self.normal)

    def __repr__(self):
        return f"Hyperplane({np.array2string(self.normal, precision=6)})"


@dataclass(frozen=True)
class HalfSpace:
    """One side of a hyperplane: {x : side * b_f(x, normal) >= 0}."""

    hyperplane: Hyperplane
    side: int

    def __post_init__(self):
        if self.side not in (-1, 1):
            raise ValueError("side must be +1 or -1")

    def margin(self, x) -> float:
        """Signed membership margin; >= 0 inside."""
        return self.side * bilinear(self.hyperplane.form, x, self.hyperplane.normal)

    def contains(self, x) -> bool:
        return self.margin(x) >= -EPS

    def inward_normal(self) -> np.ndarray:
        return self.side * self.hyperplane.normal


def hyperplane_distance(form: DiagonalForm, h1: Hyperplane, h2: Hyperplane) -> float:
    """Distance between two hyperplanes: arccosh |b| when ultraparallel, else 0."""
    b = abs(bilinear(form, h1.normal, h2.normal))
    if b <= 1.0:
        return 0.0
    return math.acosh(b)


# -- ball model ------------------------------------------------------------------


def ball_coordinates(form: DiagonalForm, x) -> np.ndarray:
    """Conformal ball-model coordinates of a sheet point or light-cone vector.

    Sheet points land strictly inside the unit ball, light-cone rays on
    the unit sphere.  Space-like or lower-sheet input is rejected.
    """
    t, _ = jn_chart(form)
    y = t @ as_float_vector(form, x)
    q = -y[0] * y[0] + float(np.dot(y[1:], y[1:]))
    scale = float(np.dot(y, y))
    if scale <= EPS * EPS:
        raise ValueError("cannot project the zero vector")
    if q > EPS * max(1.0, scale):
        raise ValueError("space-like vectors have no ball image")
    if y[0] <= 0:
        raise ValueError("vector lies on the lower sheet")
    if abs(q) <= EPS * max(1.0, scale):
        return y[1:] / y[0]
    y = y / math.sqrt(-q)
    return y[1:] / (1.0 + y[0])


@dataclass(frozen=True)
class BoundarySphere:
    """The sphere at infinity of a hyperplane, drawn in the ball model.

    For a normal with nonzero time component this is the Euclidean sphere
    (orthogonal to the unit sphere) meeting it in the hyperplane's ideal
    boundary; a normal with zero time component gives a plane through the
    ball's center, reported with radius = inf.
    """

    center: np.ndarray
    radius: float

    @property
    def is_plane(self) -> bool:
        return math.isinf(self.radius)


def boundary_sphere(form: DiagonalForm, h: Hyperplane) -> BoundarySphere:
    t, _ = jn_chart(form)
    v = t @ h.normal
    v = v / math.sqrt(abs(-v[0] * v[0] + float(np.dot(v[1:], v[1:]))))
    if abs(v[0]) <= EPS:
        unit = v[1:] / np.linalg.norm(v[1:])
        return BoundarySphere(unit, math.inf)
    return BoundarySphere(v[1:] / v[0], 1.0 / abs(v[0]))


# -- isometries ------------------------------------------------------------------


def unit_tangent(form: DiagonalForm, point, tangent) -> tuple[np.ndarray, np.ndarray]:
    """The sheet point p of `point` and the unit tangent u at p along `tangent`.

    The tangent is projected onto p's tangent space and scaled to f(u) = 1;
    a projection that is not space-like (or not finite) is refused.
    """
    p = normalize_point(form, point)
    u = as_float_vector(form, tangent)
    u = u + bilinear(form, u, p) * p  # f(p) = -1
    q = quadratic(form, u)
    if not EPS < q < math.inf:
        raise ValueError(f"tangent must be space-like after projection, got f(u) = {q:g}")
    return p, u / math.sqrt(q)


def translation_along(form: DiagonalForm, point, tangent, length: float) -> np.ndarray:
    """Hyperbolic translation with the given axis and translation length.

    The axis passes through `point` with direction `tangent` (projected
    into the tangent space and normalized); positive length translates in
    the tangent direction.  Lengths whose cosh squared overflows binary64
    (about 355.6 and up) are refused: the entries have size cosh(length),
    and `is_isometry` squares them.
    """
    if not length > 0:
        raise ValueError("translation length must be positive")
    try:
        ch, sh = math.cosh(length), math.sinh(length)
    except OverflowError:
        ch = sh = math.inf
    if not math.isfinite(ch * ch):
        raise ValueError(f"translation length {length:g} is too large: cosh^2 overflows binary64")
    p, u = unit_tangent(form, point, tangent)
    c = float_coefficients(form)
    fp = p * c
    fu = u * c
    n = form.dimension
    return (
        np.eye(n)
        + (ch - 1.0) * (np.outer(u, fu) - np.outer(p, fp))
        + sh * (np.outer(p, fu) - np.outer(u, fp))
    )


def rotation_in_plane(form: DiagonalForm, i: int, j: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in the (i, j) coordinate plane (both space-like, equal weight)."""
    c = float_coefficients(form)
    if c[i] <= 0 or c[j] <= 0 or abs(c[i] - c[j]) > EPS:
        raise ValueError("rotation plane must have two equal positive coefficients")
    n = form.dimension
    mat = np.eye(n)
    mat[i, i] = math.cos(angle)
    mat[j, j] = math.cos(angle)
    mat[i, j] = -math.sin(angle)
    mat[j, i] = math.sin(angle)
    return mat


# -- nesting ---------------------------------------------------------------------


class NestingVerdict(enum.Enum):
    NESTED = "nested"
    CROSSING = "crossing"
    DISJOINT_NOT_NESTED = "disjoint-not-nested"
    EQUAL = "equal"


def stack_halfspaces(form: DiagonalForm, halfspaces) -> tuple[np.ndarray, np.ndarray]:
    """The hyperplane normals and the inward normals of `halfspaces`, one row each."""
    planes = np.reshape([h.hyperplane.normal for h in halfspaces], (-1, form.dimension))
    sides = np.array([float(h.side) for h in halfspaces])
    return planes, sides[:, None] * planes


def nesting_table(form: DiagonalForm, first, second, x) -> list[list[NestingVerdict | None]]:
    """The verdict of every pair of halfspaces, row i of `first` against row j of `second`.

    Both are stacks from `stack_halfspaces`.  Entry (i, j) is None unless x
    lies inside both halfspaces by a margin b_f(x, u) > EPS.  Otherwise the
    two hyperplanes are EQUAL when their normals agree within
    `close_to(..., 1e-7)`, as in `Hyperplane.same_as`.  Else, with both
    inward normals u, u' scaled to f = 1 and oriented toward x, the product
    s = b_f(u, u') decides: |s| < 1 - EPS means the boundary hyperplanes
    cross, s > 0 beyond that means one halfspace contains the other
    (nested), s < 0 means disjoint boundaries facing away from each other.
    Tangency at infinity (|s| = 1) is classified with its closure.  Every
    entry is a sum over the last axis of broadcast products, so it is the
    same whatever the table's shape.
    """
    planes_a, inward_a = first
    planes_b, inward_b = second
    c = float_coefficients(form)
    fx = as_float_vector(form, x) * c
    inside = ((inward_a * fx).sum(-1) > EPS)[:, None] & ((inward_b * fx).sum(-1) > EPS)[None, :]
    equal = close_to(planes_a[:, None, :], planes_b[None, :, :], 1e-7)
    s = ((inward_a * c)[:, None, :] * inward_b[None, :, :]).sum(-1)
    crossing = np.abs(s) < 1.0 - EPS
    return [
        [
            None if not ok
            else NestingVerdict.EQUAL if eq
            else NestingVerdict.CROSSING if cross
            else NestingVerdict.NESTED if si > 0
            else NestingVerdict.DISJOINT_NOT_NESTED
            for ok, eq, cross, si in zip(*row)
        ]
        for row in zip(inside.tolist(), equal.tolist(), crossing.tolist(), s.tolist())
    ]
