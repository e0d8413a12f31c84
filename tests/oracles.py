"""Shared brute-force oracles, desk configurations and a fresh-interpreter
runner for the test suite."""

import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import linprog

import hyperglue
from hyperglue.glueing import (
    EDGE_LABELS,
    CountRow,
    GlueingGraph,
    enumerate_base_graphs,
    proper_labelings,
)
from hyperglue.hyperboloid import (
    EPS,
    HalfSpace,
    Hyperplane,
    basepoint,
    bilinear,
    bisector,
    distance,
    float_coefficients,
    isometry_inverse,
    jn_chart,
    normalize_point,
    normalize_points,
    quadratic,
    rotation_in_plane,
    translation_along,
)
from hyperglue.numfield import Embedding, FieldTag
from hyperglue.qforms import DiagonalForm, jn_form
from hyperglue.voronoi import (
    _BOX_CAP,
    _FEAS_EPS,
    CellFacet,
    FacetType,
    GroupData,
    OrbitPoint,
    OrbitSet,
    VoronoiCell,
    _centering_isometry,
    _klein_rows,
    build_orbit,
    dirichlet_cell,
)

J2 = jn_form(2)
E1 = np.array([0.0, 1.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0])

# a fresh interpreter imports the same package as the tests, installed or not
PACKAGE_ROOT = str(Path(hyperglue.__file__).resolve().parent.parent)


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter with the package on its path."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def plane_config(kind: str, params) -> tuple[GroupData, OrbitSet, VoronoiCell]:
    """Desk configurations in the plane: cyclic, orthogonal or oblique pairs."""
    x0 = basepoint(J2)
    if kind == "cyclic":
        (length,) = params
        gens = [translation_along(J2, x0, E1, length)]
    elif kind == "orthogonal":
        lh, lv = params
        gens = [
            translation_along(J2, x0, E1, lh),
            translation_along(J2, x0, E2, lv),
        ]
    elif kind == "oblique":
        angle_deg, lh, lv = params
        axis = rotation_in_plane(J2, 1, 2, math.radians(angle_deg)) @ E1
        gens = [
            translation_along(J2, x0, E1, lh),
            translation_along(J2, x0, axis, lv),
        ]
    else:
        raise ValueError(kind)
    group = GroupData(J2, gens)
    cutoff = 3 if len(gens) == 1 else 2
    orbit = build_orbit([x0], group, cutoff)
    cell = dirichlet_cell(x0, orbit)
    return group, orbit, cell


@np.errstate(over="ignore", invalid="ignore")
def scalar_orbit(
    seeds: Sequence,
    group: GroupData,
    word_cutoff: int,
    tags: Sequence[int] | None = None,
) -> OrbitSet:
    """`build_orbit` as it was before it handled a word shell as one array.

    Every candidate image is rounded, keyed and stored on its own; the
    array version must give the same points bit for bit, the same words,
    seed indices, tags and radius, and the same overflow error.
    """
    if word_cutoff < 1:
        raise ValueError("word cutoff must be at least 1")
    form = group.form
    seeds = normalize_points(form, seeds)
    if tags is not None and len(tags) != len(seeds):
        raise ValueError("one tag per seed required")
    gens = group.gens_with_inverses

    seen: dict[tuple, int] = {}
    points: list[OrbitPoint] = []

    def key_of(p: np.ndarray) -> tuple:
        return tuple(np.round(p, 7))

    frontier: list[OrbitPoint] = []
    for i, (s, key) in enumerate(zip(seeds, np.round(seeds, 7))):
        op = OrbitPoint(s, (), i, tags[i] if tags is not None else None)
        seen[tuple(key)] = len(points)
        points.append(op)
        frontier.append(op)

    for length in range(1, word_cutoff + 1):
        next_frontier: list[OrbitPoint] = []
        for op in frontier:
            for gi, g in enumerate(gens):
                if op.word and (op.word[-1] ^ 1) == gi:
                    continue  # reduced words only
                y = g @ op.point
                k = key_of(y)
                if k in seen:
                    continue
                new = OrbitPoint(y, op.word + (gi,), op.seed_index, op.tag)
                seen[k] = len(points)
                points.append(new)
                next_frontier.append(new)
        if next_frontier and not np.isfinite([op.point for op in next_frontier]).all():
            raise ValueError(
                f"orbit points of word length {length} overflow binary64; "
                "shorten the translations or lower the word cutoff"
            )
        frontier = next_frontier

    if not group.generators:
        radius = math.inf
    else:
        delta_min = min(
            min(distance(form, s, g @ s) for s in seeds) for g in group.generators
        )
        diameter = 0.0
        for a, b in itertools.combinations(seeds, 2):
            diameter = max(diameter, distance(form, a, b))
        radius = max(0.0, (delta_min * word_cutoff - diameter) / 2.0)
    return OrbitSet(form, tuple(points), radius)


def sample_in_cert_ball(cell: VoronoiCell, n: int, rng) -> np.ndarray:
    """Uniform Klein samples in the certified ball around the cell center."""
    form = cell.form
    rho = min(cell.certification_radius, 18.0) * 0.95
    r_klein = math.tanh(rho)
    dim = form.dimension - 1
    directions = rng.standard_normal((n, dim))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = r_klein * rng.random(n) ** (1.0 / dim)
    ks = directions * radii[:, None]
    # the Klein lift x = T^-1 (1, k) / sqrt(1 - |k|^2) of every sample at once
    _, tinv = jn_chart(form)
    homogeneous = np.hstack([np.ones((n, 1)), ks]) / np.sqrt(1.0 - (ks * ks).sum(axis=1))[:, None]
    move = _centering_isometry(form, cell.center)
    return homogeneous @ (move @ tinv).T


def nearest_center_agreement(
    cell: VoronoiCell, orbit: OrbitSet, n_samples: int, seed: int, tol: float = 1e-9
) -> tuple[int, int]:
    """Compare halfspace membership with brute-force nearest-center classification.

    Returns (checked, mismatches); samples within `tol` of a distance tie
    or a facet boundary are skipped.
    """
    form = cell.form
    rng = np.random.default_rng(seed)
    samples = sample_in_cert_ball(cell, n_samples, rng)
    c = float_coefficients(form)
    coords = orbit.coordinates()
    center_idx = next(
        i
        for i, op in enumerate(orbit.points)
        if np.allclose(op.point, cell.center, atol=1e-7)
    )

    cosh_d = -(samples * c[None, :]) @ coords.T
    dists = np.arccosh(np.maximum(1.0, cosh_d))
    d_center = dists[:, center_idx]
    others = np.delete(dists, center_idx, axis=1)
    d_other = others.min(axis=1)

    normals = np.array([f.halfspace.inward_normal() for f in cell.facets])
    margins = (samples * c[None, :]) @ normals.T
    min_margin = margins.min(axis=1)

    near_tie = np.abs(d_center - d_other) <= tol
    near_wall = np.abs(min_margin) <= tol
    usable = ~(near_tie | near_wall)

    by_distance = d_center[usable] < d_other[usable]
    by_halfspace = min_margin[usable] >= 0
    mismatches = int(np.sum(by_distance != by_halfspace))
    return int(np.sum(usable)), mismatches


def lp_pruned_cell(center, orbit: OrbitSet, prune_radius: float | None = None) -> VoronoiCell:
    """Reference Dirichlet cell: pairwise duplicate scan, then one LP per bisector.

    Bisector halfspaces whose inward normals match an earlier one (the
    `Hyperplane.same_as` test) are dropped.  Each remaining halfspace i is
    kept iff min a_i . k over the other halfspaces and the Klein box
    |k_j| <= tanh(rho) falls below rhs_i - _FEAS_EPS; a solver failure keeps it.
    """
    form = orbit.form
    center = normalize_point(form, center)
    idx = next(
        i for i, op in enumerate(orbit.points) if np.allclose(op.point, center, atol=1e-7)
    )
    raw: list[CellFacet] = []
    for i, op in enumerate(orbit.points):
        if i == idx:
            continue
        hs = HalfSpace.containing(bisector(form, center, op.point), center)
        if any(
            hs.side == prev.halfspace.side
            and hs.hyperplane.same_as(prev.halfspace.hyperplane)
            for prev in raw
        ):
            continue
        raw.append(CellFacet(hs, op.word, op.point))

    rho = prune_radius if prune_radius is not None else orbit.certification_radius
    box = math.tanh(min(rho, _BOX_CAP))
    if len(raw) <= 1:
        return VoronoiCell(form, center, tuple(raw), orbit.certification_radius)

    t, _ = jn_chart(form)
    world_to_local = isometry_inverse(form, _centering_isometry(form, center))
    rows = []
    for f in raw:
        n_chart = t @ (world_to_local @ f.halfspace.hyperplane.normal)
        rows.append(f.halfspace.side * n_chart)
    a_all = np.array([r[1:] for r in rows])
    rhs_all = np.array([r[0] for r in rows])
    bounds = [(-box, box)] * a_all.shape[1]

    kept = []
    for i in range(len(raw)):
        others = [j for j in range(len(raw)) if j != i]
        res = linprog(
            c=a_all[i],
            A_ub=-a_all[others],
            b_ub=-rhs_all[others],
            bounds=bounds,
            method="highs",
        )
        if res.status != 0 or res.fun < rhs_all[i] - _FEAS_EPS:
            kept.append(raw[i])
    return VoronoiCell(form, center, tuple(kept), orbit.certification_radius)


def lp_classified_facets(cell: VoronoiCell, marked, box_radius: float | None = None) -> VoronoiCell:
    """Reference facet types: one HiGHS feasibility LP per facet per marked geodesic.

    The LP asks for a Klein point on the facet's supporting hyperplane,
    inside all other halfspaces relaxed by _FEAS_EPS, on every hyperplane
    cutting out the marked geodesic and inside the box |k_j| <= tanh(rho).
    A feasible LP means FIRST, an infeasible one SECOND; any other solver
    status raises RuntimeError.
    """
    form = cell.form
    rho = box_radius if box_radius is not None else cell.certification_radius
    box = math.tanh(min(rho, _BOX_CAP))
    world_to_local = isometry_inverse(form, _centering_isometry(form, cell.center))
    a_all, rhs_all = _klein_rows(
        form, [f.halfspace.inward_normal() for f in cell.facets], world_to_local
    )
    eq_rows = [
        _klein_rows(form, [h.normal for h in m.hyperplanes()], world_to_local)
        for m in marked
    ]
    dim = form.dimension - 1

    new_facets = []
    for i, facet in enumerate(cell.facets):
        others = np.arange(len(cell.facets)) != i
        ftype = FacetType.SECOND
        for a_eq, b_eq in eq_rows:
            res = linprog(
                c=np.zeros(dim),
                A_ub=-a_all[others],
                b_ub=-rhs_all[others] + _FEAS_EPS,
                A_eq=np.vstack([a_all[i], a_eq]),
                b_eq=np.concatenate([rhs_all[i : i + 1], b_eq]),
                bounds=[(-box, box)] * dim,
                method="highs",
            )
            if res.status == 0:
                ftype = FacetType.FIRST
                break
            if res.status != 2:
                raise RuntimeError(f"facet {i}: linprog status {res.status} ({res.message})")
        new_facets.append(replace(facet, facet_type=ftype))
    return replace(cell, facets=tuple(new_facets))


def word_separations(group: GroupData, surfaces, cutoff: int) -> dict[int, float]:
    """Reference surface separations of plane geodesics, by brute force over words.

    Each geodesic's unit normal is the cross product of its point and
    tangent weighted by the form's coefficients, which is b_f-orthogonal to
    both.  Every word w of length <= cutoff in the generators
    and their inverses, reduced or not, gives the lift normals w . n; delta_i
    is the least arccosh |b_f| between a lift of surface i and a lift of
    another surface, 0 when they meet, inf when there is no other surface.
    """
    c = float_coefficients(group.form)
    gens = list(group.generators) + [np.linalg.inv(g) for g in group.generators]
    words = frontier = [np.eye(3)]
    for _ in range(cutoff):
        frontier = [g @ w for w in frontier for g in gens]
        words = words + frontier
    lifts = {}
    for s in surfaces:
        n = np.cross(c * s.point, c * s.tangent)
        n = n / math.sqrt(float(np.dot(c * n, n)))
        lifts.setdefault(s.surface_id, []).extend(w @ n for w in words)
    out = {}
    for i, own in lifts.items():
        others = [v for j, vs in lifts.items() if j != i for v in vs]
        pairings = [abs(float(np.dot(c * a, b))) for a in own for b in others]
        out[i] = math.acosh(max(1.0, min(pairings))) if pairings else math.inf
    return out


def plane_cell_vertices(cell: VoronoiCell) -> list[tuple[np.ndarray, int, int, float]]:
    """Finite vertices of a plane cell, by brute force over facet pairs.

    For facets i < j the point w = (n_i x n_j) / c is b_f-orthogonal to
    both inward normals.  It is kept when it is time-like and, taken on
    the center's sheet, inside every other halfspace; a vertex at Klein
    radius >= 0.999999 - 1e-7 counts as ideal and is left out, as the
    Poincare check does.  Each vertex (w, i, j, angle) carries its
    interior angle acos(-b(u_i, u_j)).
    """
    form = cell.form
    c = float_coefficients(form)
    t, _ = jn_chart(form)
    normals = [f.halfspace.inward_normal() for f in cell.facets]
    out = []
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            w = np.cross(normals[i], normals[j]) / c
            if not bilinear(form, w, w) < 0:
                continue
            w = w / math.sqrt(-bilinear(form, w, w))
            if bilinear(form, w, cell.center) > 0:
                w = -w
            if any(
                cell.facets[k].halfspace.margin(w) < -1e-9 * np.abs(w).max()
                for k in range(len(normals))
                if k not in (i, j)
            ):
                continue
            y = t @ w
            if np.linalg.norm(y[1:] / y[0]) >= 0.999999 - 1e-7:
                continue
            cos = -bilinear(form, normals[i], normals[j])
            out.append((w, i, j, math.acos(max(-1.0, min(1.0, cos)))))
    return out


def are_orthogonal(form: DiagonalForm, h1: Hyperplane, h2: Hyperplane) -> bool:
    """True iff b_f(u, v) = 0 and the hyperplanes meet in H^n.

    The span form Gram([u,v]) must be positive definite for the
    hyperplanes to intersect; with b = 0 that reduces to both normals
    being space-like, which they are by construction.
    """
    if h1.exact_normal is not None and h2.exact_normal is not None:
        b = bilinear(form, h1.exact_normal, h2.exact_normal)
        if b:
            return False
        fu = quadratic(form, h1.exact_normal)
        fv = quadratic(form, h2.exact_normal)
        return (fu * fv).sign_at(Embedding.IDENTITY) > 0
    b = bilinear(form, h1.normal, h2.normal)
    if abs(b) > EPS:
        return False
    det = 1.0 - b * b  # normals are scaled to f = 1
    return det > EPS


def exact_mat_vec(a, v):
    """The exact product a @ v, one element operation at a time."""
    n = len(a)
    zero = v[0] - v[0]
    return tuple(sum((a[i][j] * v[j] for j in range(n)), zero) for i in range(n))


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if not a square."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class FractionPair:
    """Reference element a + b*sqrt2 of Q or Q(sqrt2) held as two Fractions.

    The textbook arithmetic on the pair, kept as the oracle for the
    integer-backed `numfield.QuadFieldElement`.
    """

    def __init__(self, a, b=0, field: FieldTag = FieldTag.Q_SQRT2):
        self.a, self.b, self.field = Fraction(a), Fraction(b), field
        if field is FieldTag.Q and self.b != 0:
            raise ValueError("rational field element cannot carry a sqrt-2 part")

    def __eq__(self, other):
        return (self.a, self.b, self.field) == (other.a, other.b, other.field)

    def __add__(self, other):
        return FractionPair(self.a + other.a, self.b + other.b, self.field)

    def __sub__(self, other):
        return FractionPair(self.a - other.a, self.b - other.b, self.field)

    def __mul__(self, other):
        return FractionPair(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.field,
        )

    def __truediv__(self, other):
        norm = other.norm()
        if norm == 0:
            raise ZeroDivisionError("division by zero field element")
        return self * FractionPair(other.a / norm, -other.b / norm, self.field)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (FractionPair(1, 0, self.field) / self) ** (-exponent)
        result = FractionPair(1, 0, self.field)
        for _ in range(exponent):
            result = result * self
        return result

    def conjugate(self) -> "FractionPair":
        return FractionPair(self.a, -self.b, self.field)

    def norm(self) -> Fraction:
        return self.a * self.a - 2 * self.b * self.b

    def sign_at(self, embedding: Embedding) -> int:
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

    def is_square(self) -> bool:
        """Solve c^2 + 2 d^2 = a, 2 c d = b over Q and check the solution."""
        if self.field is FieldTag.Q:
            return _fraction_sqrt(self.a) is not None
        if self.b == 0:
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

    def embed(self, embedding: Embedding = Embedding.IDENTITY) -> float:
        b = self.b if embedding is Embedding.IDENTITY else -self.b
        return float(self.a) + float(b) * math.sqrt(2.0)

    def __str__(self):
        if self.field is FieldTag.Q:
            return str(self.a)
        if self.b >= 0:
            return f"{self.a} + {self.b}*r2"
        return f"{self.a} - {-self.b}*r2"


def count_proper_labelings(edges, m: int) -> int:
    """Proper 4-edge-colourings of one graph, by enumerating them."""
    return sum(1 for _ in proper_labelings(edges, m))


def enumerated_counts(m_max: int, mode: str = "free", m_min: int = 5) -> list[CountRow]:
    """The rows of `count_graphs`, found by enumerating every base graph.

    Free mode multiplies each graph by m roots and 4^(2m) labellings;
    proper mode adds m times the graph's proper 4-edge-colourings.
    """
    rows = []
    for m in range(m_min, m_max + 1):
        base = 0
        total = 0
        for edges in enumerate_base_graphs(m):
            base += 1
            if mode == "free":
                total += m * 4 ** len(edges)
            else:
                total += m * count_proper_labelings(edges, m)
        rows.append(CountRow(m, base, total))
    return rows


def enumerate_graphs(m: int, mode: str = "free") -> Iterator[GlueingGraph]:
    """Stream of decorated graphs: every base graph, root choice and labeling.

    Free mode runs over all 4^(2m) label tuples, so consume lazily.
    Returns an empty stream (no error) below m = 5, where no simple
    4-regular graph exists.
    """
    if mode not in ("free", "proper"):
        raise ValueError("mode must be 'free' or 'proper'")
    if m < 5:
        warnings.warn("no simple 4-regular graph exists below 5 vertices")
    for edges in enumerate_base_graphs(m):
        if mode == "free":
            labelings: Iterator = itertools.product(EDGE_LABELS, repeat=len(edges))
        else:
            labelings = proper_labelings(edges, m)
        for labels in labelings:
            for root in range(m):
                yield GlueingGraph(m, edges, tuple(labels), root, proper=mode == "proper")
