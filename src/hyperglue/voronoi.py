"""Relative Voronoi machinery: orbits, Dirichlet cells, facet types,
admissible point sets, orthogonal extension, sphere shrinking and a
Poincare pairing check for plane domains.

Cells are built with floating arithmetic in the Klein model, where
halfspaces are affine constraints a . k >= rhs.  Each cell has one Klein
chart, centred on the cell by the Lorentz boost that takes the J_n
chart's e_0 to the cell's center, in closed form: pruning, facet types
and the Poincare check all read their rows in it, so up to rounding no
decision depends on where the cell sits in H^n.  Redundant bisectors are
pruned with one convex hull of their polar points a / rhs.  Facet types
and admissibility share one closed-form interval rule along each marked
geodesic.  A facet is first type iff the root of its row lies where all
rows and box faces hold, relaxed by the feasibility tolerance; a segment
is admissible iff no other surface's point is nearer than every own
point on an interval of tanh t.
Everything is deterministic: orbit points are ordered breadth-first by
provenance word, and facets keep that order.

scipy is imported at the first Dirichlet cell (the `geom` commands), so
the exact side (`forms`, `count`) loads numpy only.  The name `linprog`
resolves lazily to `scipy.optimize.linprog`; no code here calls it, but
the benchmark tracer and the no-LP tests patch it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .qforms import DiagonalForm, direct_sum, jn_form
from .hyperboloid import (
    EPS,
    BoundarySphere,
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    as_float_vector,
    basepoint,
    bilinear,
    boundary_sphere,
    close_to,
    float_coefficients,
    is_isometry,
    isometry_inverse,
    jn_chart,
    normalize_point,
    nesting_table,
    normalize_points,
    quadratic,
    stack_halfspaces,
    translation_along,
    unit_tangent,
    _sheet_rows,
)

_FEAS_EPS = 1e-7
_BOX_CAP = 19.0  # tanh saturates at ~19 in binary64


def __getattr__(name: str):
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UndecidableError(RuntimeError):
    """The truncated orbit cannot certify the answer; increase the cutoff."""


# -- marked hypersurface lifts -------------------------------------------------


@dataclass(frozen=True)
class MarkedGeodesic:
    """A marked geodesic lift, with a fundamental segment for sampling.

    `point` lies on the sheet, `tangent` is projected/normalized at
    construction.  In the plane the geodesic is itself a hyperplane; in
    higher dimension it is the intersection of the complement normals'
    hyperplanes.
    """

    form: DiagonalForm
    point: np.ndarray
    tangent: np.ndarray
    surface_id: int
    fundamental_length: float = 0.0

    def __post_init__(self):
        p, u = unit_tangent(self.form, self.point, self.tangent)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "tangent", u)

    def point_at(self, t: float) -> np.ndarray:
        return math.cosh(t) * self.point + math.sinh(t) * self.tangent

    @functools.cached_property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """Hyperplanes whose intersection is this geodesic, built on the first read."""
        form = self.form
        collected: list[np.ndarray] = []
        planes: list[Hyperplane] = []
        n = form.dimension
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            w = e + bilinear(form, e, self.point) * self.point
            w = w - bilinear(form, w, self.tangent) * self.tangent
            for prev in collected:
                w = w - (bilinear(form, w, prev) / quadratic(form, prev)) * prev
            q = quadratic(form, w)
            if q > 1e-7:
                collected.append(w)
                planes.append(Hyperplane(form, w))
        assert len(planes) == n - 2
        return tuple(planes)


# -- group data ------------------------------------------------------------------


@dataclass
class GroupData:
    """Generators of a group acting on H^n, with its marked geodesic lifts.

    Every generator must verify the isometry identity.  Every marked lift
    must be a `MarkedGeodesic`; anything else raises TypeError.
    """

    form: DiagonalForm
    generators: list[np.ndarray]
    marked: list[MarkedGeodesic] = field(default_factory=list)

    def __post_init__(self):
        for m in self.marked:
            if not isinstance(m, MarkedGeodesic):
                raise TypeError(f"unsupported marked lift {type(m).__name__}")
        self.generators = [np.asarray(g, dtype=float) for g in self.generators]
        for g in self.generators:
            if not is_isometry(self.form, g, tol=1e-7):
                raise ValueError("generator fails the isometry identity")

    @functools.cached_property
    def gens_with_inverses(self) -> list[np.ndarray]:
        """Each generator followed by its inverse, built on the first read."""
        out = []
        for g in self.generators:
            out.append(g)
            out.append(isometry_inverse(self.form, g))
        return out


# -- orbits ----------------------------------------------------------------------


class OrbitPoint(NamedTuple):
    point: np.ndarray
    word: tuple[int, ...]
    tag: int | None = None


@dataclass(frozen=True)
class OrbitSet:
    """A truncated orbit: one read-only (N, d) coordinate array in orbit
    order, with the provenance word and the seed's tag of each row.

    `points` pairs them up as `OrbitPoint`s on its first read, for callers
    that walk the orbit point by point; the cell code reads the arrays.
    """

    form: DiagonalForm
    _coordinates: np.ndarray
    words: tuple[tuple[int, ...], ...]
    tags: tuple[int | None, ...]
    certification_radius: float

    def __post_init__(self):
        coords = np.asarray(self._coordinates, dtype=float).reshape(-1, self.form.dimension)
        coords.flags.writeable = False
        object.__setattr__(self, "_coordinates", coords)

    def coordinates(self) -> np.ndarray:
        """The (N, d) array of the points, in orbit order; read-only."""
        return self._coordinates

    @functools.cached_property
    def points(self) -> tuple[OrbitPoint, ...]:
        """Each row with its word and tag as an `OrbitPoint`, built on the first read."""
        return tuple(map(OrbitPoint, self._coordinates, self.words, self.tags))


@np.errstate(over="ignore", invalid="ignore")
def build_orbit(
    seeds: Sequence,
    group: GroupData,
    word_cutoff: int,
    tags: Sequence[int] | None = None,
) -> OrbitSet:
    """Images of the seeds under all reduced words of length <= cutoff.

    Points are deduplicated at tolerance 1e-7 and ordered breadth-first
    by (seed index, provenance word).  The certification radius is
    (delta_min * cutoff - D) / 2 where delta_min is the least generator
    displacement over the seeds and D the seed-set diameter: any omitted
    orbit point provably lies at distance > 2 rho from every seed for
    groups whose displacement grows linearly in word length.  Both are read
    off rows the orbit already holds, the normalized seeds and the
    generators' images of them in shell 1: one sheet test over those images,
    then cosh d = -b(x, y) as one row product per pair, in `distance`'s
    operand order.  Images too large for binary64 raise ValueError, and so
    does an empty seed list under generators, which has no displacement to
    certify with.  A generator so large that its image of a seed leaves the
    upper sheet in binary64 raises UndecidableError, naming the first such
    generator.

    Each word shell is one array program: one stacked product
    `g @ front[:, :, None]` per generator and inverse, then one index step
    that keeps the reduced words in parent-major order.  numpy runs a
    stacked product as one gemv per point in g's own C or F layout, the
    same kernel as the point-wise `g @ x`, so every image keeps its bits.
    A product of the whole shell with one matrix (`front @ g.T` or
    `einsum`) sums in another order and changes the last bits of far
    points; those bits decide the sign of a cancelled f(x - y) in
    `dirichlet_cell`, and with it whether a long translation is refused.
    """
    if word_cutoff < 1:
        raise ValueError("word cutoff must be at least 1")
    form = group.form
    gens = group.gens_with_inverses
    n_gens, dim = len(gens), form.dimension
    seeds = front = np.array(normalize_points(form, seeds)).reshape(-1, dim)
    if tags is not None and len(tags) != len(seeds):
        raise ValueError("one tag per seed required")
    if group.generators and not len(seeds):
        raise ValueError("an orbit under generators needs at least one seed point")

    shells = [front]
    words = [()] * len(seeds)
    point_tags = list(tags) if tags is not None else [None] * len(seeds)
    # rounded coordinates as tuples of floats, hashing like tuples of np.float64
    seen = set(map(tuple, front.round(7).tolist()))
    # per frontier point, the inverse of its word's last letter (none for a seed)
    inverses = [n_gens] * len(seeds)
    letters = np.arange(n_gens)
    start = 0  # index of the frontier's first point in `words`

    for length in range(1, word_cutoff + 1):
        if not (gens and len(front)):
            break
        column = front[:, :, None]
        images = np.concatenate([g @ column for g in gens], axis=1).reshape(-1, dim)
        if length == 1:
            first_images = candidates = images
        else:
            # the reduced words: each parent drops the letter that would undo its last
            candidates = images[(letters != np.array(inverses)[:, None]).ravel()]
        width = len(candidates) // len(front)  # letters each parent keeps
        fresh = []
        for c, key in enumerate(map(tuple, candidates.round(7).tolist())):
            if key not in seen:
                seen.add(key)
                fresh.append(c)
        front = candidates if len(fresh) == len(candidates) else candidates[fresh]
        if not np.isfinite(front).all():
            raise ValueError(
                f"orbit points of word length {length} overflow binary64; "
                "shorten the translations or lower the word cutoff"
            )
        parent_inverses, inverses = inverses, []
        for c in fresh:
            p, gi = divmod(c, width)
            if gi >= parent_inverses[p]:
                gi += 1  # past the dropped letter
            words.append(words[start + p] + (gi,))
            point_tags.append(point_tags[start + p])
            inverses.append(gi ^ 1)
        start = len(words) - len(fresh)
        shells.append(front)

    if not group.generators:
        radius = math.inf
    else:
        # shell 1 holds each seed's images in letter order: generator k is letter 2k
        moved = first_images.reshape(len(seeds), n_gens, dim)[:, ::2]
        on_sheet = [near and upper for _, _, near, upper in _sheet_rows(form, moved.reshape(-1, dim))]
        for k, g in enumerate(group.generators):
            if not all(on_sheet[k :: len(group.generators)]):
                raise UndecidableError(
                    f"generator {k} moves a seed off the upper sheet in binary64, so its "
                    f"displacement certifies no radius; it has entries up to "
                    f"{np.abs(g).max():.6g}; move the group nearer the basepoint"
                )
        # cosh d(x, y) = -b(x, y) with one row product per pair, in `distance`'s
        # order: each seed against its generators' images, then against every seed
        fs = (seeds * float_coefficients(form))[:, None, None, :]
        cosh_moved = (-(fs @ moved[..., None])).ravel().tolist()
        cosh_seeds = (-(fs @ seeds[None, :, :, None])).reshape(len(seeds), -1).tolist()
        delta_min = min(math.acosh(max(1.0, b)) for b in cosh_moved)
        diameter = max(
            (math.acosh(max(1.0, b)) for i, row in enumerate(cosh_seeds) for b in row[i + 1 :]), default=0.0
        )
        radius = max(0.0, (delta_min * word_cutoff - diameter) / 2.0)
    return OrbitSet(form, np.concatenate(shells), tuple(words), tuple(point_tags), radius)


# -- cells -----------------------------------------------------------------------


class FacetType(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class CellFacet:
    halfspace: HalfSpace
    source_word: tuple[int, ...]
    facet_type: FacetType | None = None


@dataclass(frozen=True)
class VoronoiCell:
    """A Dirichlet cell: irredundant bounding halfspaces around a center."""

    form: DiagonalForm
    center: np.ndarray
    facets: tuple[CellFacet, ...]
    certification_radius: float

    def contains(self, x) -> bool:
        return all(f.halfspace.contains(x) for f in self.facets)

    @functools.cached_property
    def _chart(self) -> tuple[np.ndarray, np.ndarray]:
        """(world -> chart, chart -> world) of the Klein chart centred on the cell."""
        return _cell_chart(self.form, self.center)


def _cell_chart(form: DiagonalForm, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Klein chart centred on `center`: world -> chart J B J T and chart -> world T^-1 B.

    T is the J_n chart and B = J + w w^T / w_0, with w = T center + e_0, is
    the symmetric J-boost taking e_0 to T center (Ratcliffe, Foundations of
    Hyperbolic Manifolds, ch. 3), so the center sits at the chart's origin;
    J B J is its inverse.  On the upper sheet w_0 >= 2; where T center is
    exactly e_0, as at a J_n form's basepoint, B is exactly the identity.
    """
    t, tinv = jn_chart(form)
    w = t @ center
    w[0] += 1.0
    j = np.ones(len(w))
    j[0] = -1.0
    boost = np.diag(j) + np.outer(w, w) / w[0]
    return (j[:, None] * boost * j[None, :]) @ t, tinv @ boost


def _klein_rows(to_chart: np.ndarray, normals):
    """Affine Klein rows (a, rhs), one per normal, in the chart `to_chart` maps into.

    An inward halfspace normal gives the constraint a . k >= rhs; a
    hyperplane normal gives the equality a . k = rhs.
    """
    chart = to_chart @ np.reshape(normals, (-1, len(to_chart))).T
    return chart[1:].T, chart[0]


def dirichlet_cell(
    center,
    orbit: OrbitSet,
    prune_radius: float | None = None,
) -> VoronoiCell:
    """Intersection of bisector halfspaces toward every other orbit point.

    Only bisectors supporting a facet inside the Klein box |k_j| <= tanh(rho)
    are kept, rho = `prune_radius` (default: the orbit's certification
    radius); rho <= 0 raises UndecidableError, and so does a radius that
    keeps no facet while other orbit points exist.  A bisector a . k >= rhs
    (rhs < 0 at the center) supports a facet iff its polar point a / rhs is
    a vertex of the convex hull of all polar points and the box's
    +-e_j / tanh(rho).  A vertex is kept iff a / (rhs - 1e-7), relaxed by the
    feasibility tolerance, lies outside the hull of the polar points other
    than its duplicates (inward normals equal within 1e-7, as in
    `Hyperplane.same_as`).  That hull is built only for a vertex that the
    summed normals of its hull facets do not clearly separate from the other
    points.  Each facet comes from the earliest orbit point of its duplicate
    class, in orbit order.
    """
    from scipy.spatial import ConvexHull

    form = orbit.form
    center = normalize_point(form, center)
    coords = orbit.coordinates()
    matches = np.flatnonzero(close_to(coords, center, 1e-7))
    if not len(matches):
        raise ValueError("center must be one of the orbit points")
    idx = int(matches[0])
    rho = prune_radius if prune_radius is not None else orbit.certification_radius
    if not rho > 0:
        raise UndecidableError(
            f"pruning radius rho = {rho:.6g} certifies no ball around the center; "
            "increase the orbit cutoff"
        )

    other_words = orbit.words[:idx] + orbit.words[idx + 1 :]
    if not other_words:
        return VoronoiCell(form, center, (), orbit.certification_radius)

    # the bisector normal x - y, scaled to f = 1, points toward the center x
    points = np.delete(coords, idx, axis=0)
    diff = center[None, :] - points
    if close_to(center, points, EPS).any():
        raise ValueError("bisector requires two distinct points")
    c = float_coefficients(form)
    with np.errstate(over="ignore", invalid="ignore"):
        f_norm = (diff * diff * c[None, :]).sum(axis=1)
    lost = ~(np.isfinite(f_norm) & (f_norm > 0))
    if lost.any():
        k = int(np.argmax(lost))
        raise UndecidableError(
            f"the bisector toward orbit word {other_words[k]} has f(x - y) = "
            f"{f_norm[k]:.6g}, not finite and positive: coordinates of size "
            f"{np.abs(points[k]).max():.6g} exceed binary64 precision; "
            "shorten the translations or lower the orbit cutoff"
        )
    inward = diff / np.sqrt(f_norm)[:, None]
    a_all, rhs_all = _klein_rows(_cell_chart(form, center)[0], inward)
    polar = a_all / rhs_all[:, None]
    dim = form.dimension - 1
    box = math.tanh(min(rho, _BOX_CAP))
    box_polar = np.vstack([np.eye(dim), -np.eye(dim)]) / box

    hull = ConvexHull(np.vstack([polar, box_polar]))
    vertices = hull.vertices[hull.vertices < len(other_words)]
    dups = close_to(inward[None, :, :], inward[vertices][:, None, :], 1e-7)
    classes: dict[int, int] = {}  # earliest orbit index -> row of `dups`
    for row, first in enumerate(np.argmax(dups, axis=1)):
        classes.setdefault(int(first), row)
    firsts = sorted(classes)
    rows = [classes[f] for f in firsts]

    # The summed unit normals of the hull facets around a vertex give a
    # direction in which it beats every point not on all of those facets.
    # A relaxed polar point that beats the rest of the hull's points in
    # that direction by a clear margin lies outside their hull; only the
    # others need that hull built.
    around = np.zeros_like(hull.points)
    np.add.at(around, hull.simplices, hull.equations[:, None, :-1])
    w = around[vertices[rows]]
    relaxed = a_all[firsts] / (rhs_all[firsts] - _FEAS_EPS)[:, None]
    reach = hull.points @ w.T
    reach[: len(other_words)][dups[rows].T] = -np.inf
    gap = np.einsum("ij,ij->i", relaxed, w) - reach.max(axis=0)
    clear = gap > 1e-9 * np.linalg.norm(w, axis=1) * max(1.0, np.abs(hull.points).max())

    kept: list[CellFacet] = []
    for first, row, r, sure in zip(firsts, rows, relaxed, clear):
        if not sure:
            eq = ConvexHull(np.vstack([polar[~dups[row]], box_polar])).equations
            if not np.max(eq[:, :-1] @ r + eq[:, -1]) > 0:
                continue
        # b_f(center, diff) = cosh d - 1 > 0, so the inward side is where diff points
        h = Hyperplane(form, diff[first])
        hs = HalfSpace(h, 1 if np.dot(h.normal, diff[first]) > 0 else -1)
        kept.append(CellFacet(hs, other_words[first]))
    if not kept:
        raise UndecidableError(
            f"pruning radius rho = {rho:.6g} keeps no facet of the "
            f"{len(other_words)} bisectors, so the cell would be everything; "
            "increase the orbit cutoff or the radius"
        )
    return VoronoiCell(form, center, tuple(kept), orbit.certification_radius)


@np.errstate(divide="ignore", invalid="ignore")
def _interval(base, slope, lo, hi):
    """The s in [lo, hi] where base + slope * s >= 0 on every entry of the
    last axis, as its ends over the leading axes: lo > hi when it is empty,
    as it is wherever an entry of slope 0 has base < 0."""
    bound = -base / slope
    lo = np.maximum(lo, np.where(slope > 0, bound, -np.inf).max(axis=-1, initial=-np.inf))
    hi = np.minimum(hi, np.where(slope < 0, bound, np.inf).min(axis=-1, initial=np.inf))
    return np.where(((slope == 0) & (base < 0)).any(axis=-1), np.inf, lo), hi


def classify_facets(
    cell: VoronoiCell, marked: Sequence, box_radius: float | None = None
) -> VoronoiCell:
    """Tag each facet FIRST iff it meets some marked geodesic, in closed form.

    In the cell's local Klein chart a marked geodesic lies on the line
    k(l) = k_p + l d through the image k_p of its point, and every
    constraint is affine in l: the facet rows a_j . k(l) >= rhs_j and the
    box faces |k_j(l)| <= tanh(rho) alike.  Facet i is FIRST iff the root
    l_i of its own row lies in the interval where every row holds within
    the feasibility tolerance: facet rows and box faces are both relaxed by
    _FEAS_EPS, as a solver's primal tolerance would, so a wall touching a
    box face stays FIRST.  A facet parallel to the line is FIRST iff its row
    is 0 within _FEAS_EPS and the interval is not empty.  Each lift must be
    a `MarkedGeodesic`; anything else raises TypeError.
    """
    rho = box_radius if box_radius is not None else cell.certification_radius
    box = math.tanh(min(rho, _BOX_CAP))
    to_chart, _ = cell._chart
    a_all, rhs_all = _klein_rows(to_chart, [f.halfspace.inward_normal() for f in cell.facets])
    n, dim = a_all.shape
    # facet rows, then the box faces -k_j >= -box and k_j >= -box
    rows = np.vstack([a_all, -np.eye(dim), np.eye(dim)])
    rhs = np.concatenate([rhs_all, np.full(2 * dim, -box)])
    facet_norms = np.linalg.norm(a_all, axis=1)

    first = np.zeros(n, dtype=bool)
    for m in marked:
        if not isinstance(m, MarkedGeodesic):
            raise TypeError(f"unsupported marked lift {type(m).__name__}")
        (p_sp, u_sp), (p_0, u_0) = _klein_rows(to_chart, [m.point, m.tangent])
        d = (u_sp * p_0 - p_sp * u_0) / (p_0 * p_0)
        base = rows @ (p_sp / p_0) - rhs
        slope = rows @ d
        lo, hi = _interval(base + _FEAS_EPS, slope, -np.inf, np.inf)
        if lo > hi:
            continue
        parallel = np.abs(slope[:n]) <= 1e-12 * facet_norms * np.linalg.norm(d)
        root = -base[:n] / np.where(parallel, 1.0, slope[:n])
        first |= np.where(
            parallel, np.abs(base[:n]) <= _FEAS_EPS, (lo <= root) & (root <= hi)
        )

    new_facets = tuple(
        replace(f, facet_type=FacetType.FIRST if is_first else FacetType.SECOND)
        for f, is_first in zip(cell.facets, first)
    )
    return replace(cell, facets=new_facets)


# -- admissible sets --------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleSet:
    """Finite points on the marked lifts, each tagged by its surface id."""

    points: tuple[tuple[np.ndarray, int], ...]

    def seeds_and_tags(self):
        return [p for p, _ in self.points], [t for _, t in self.points]


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    witness: np.ndarray | None = None
    witness_surface: int | None = None
    message: str = ""

    def __bool__(self):
        return self.admissible


def surface_separations(
    group: GroupData,
    surfaces: Sequence[MarkedGeodesic],
    lift_cutoff: int = 2,
) -> dict[int, float]:
    """delta_i = min distance from surface i's lifts to all other surfaces' lifts.

    Lifts are expanded through group words up to `lift_cutoff`; geodesics
    here are plane geodesics, so distances are arccosh of the normal
    pairing, taken for all pairs of one surface id at once.  Surfaces
    meeting another family give delta = 0; a lone surface id gives inf.
    """
    form = group.form
    if form.dimension != 3:
        raise ValueError("surface separations are implemented for plane geodesics")
    # breadth first over words: a lift is new when its (surface id, normal
    # rounded to 6 places) is, and only new lifts are moved on
    gens = group.gens_with_inverses
    seen: set[tuple] = set()
    lifts: list[tuple[int, np.ndarray]] = []
    frontier = [(s.surface_id, s.hyperplanes[0].normal) for s in surfaces]
    for depth in range(lift_cutoff + 1):
        if depth:
            frontier = [(i, Hyperplane(form, g @ n).normal) for i, n in frontier for g in gens]
        fresh = []
        for i, n in frontier:
            key = (i, *np.round(n, 6))
            if key not in seen:
                seen.add(key)
                fresh.append((i, n))
        lifts += fresh
        frontier = fresh
    ids = np.array([i for i, _ in lifts])
    normals = np.array([n for _, n in lifts])
    c = float_coefficients(form)
    out: dict[int, float] = {}
    for i in sorted({s.surface_id for s in surfaces}):
        own, other = normals[ids == i], normals[ids != i]
        if not len(other):
            out[i] = math.inf
            continue
        s = float(np.abs((own * c) @ other.T).min())
        out[i] = math.acosh(s) if s > 1.0 else 0.0
    return out


def build_admissible_set(
    surfaces: Sequence[MarkedGeodesic], group: GroupData
) -> AdmissibleSet:
    """Points along each fundamental segment at spacing <= delta_i / 2.

    Mirrors the covering construction: delta_i is the separation of
    surface i from the others (lifts through words of length <= 2), and
    the spacing guarantees every point of the surface is much closer to
    its own centers than to any other surface.
    """
    deltas = surface_separations(group, surfaces)
    for i, d in deltas.items():
        if d <= EPS and len({s.surface_id for s in surfaces}) > 1:
            raise ValueError(
                f"surface {i} touches another surface (asymptotic pairs are out of scope)"
            )
    points: list[tuple[np.ndarray, int]] = []
    for s in surfaces:
        length = s.fundamental_length
        if length <= 0:
            raise ValueError("surfaces need a positive fundamental segment")
        delta = deltas[s.surface_id]
        if math.isinf(delta):
            count = 1
        else:
            count = max(1, math.ceil(length / (delta / 2.0)))
        for j in range(count):
            points.append((s.point_at(j * length / count), s.surface_id))
    return AdmissibleSet(tuple(points))


def check_admissible(
    x_set: AdmissibleSet,
    group: GroupData,
    orbit_cutoff: int = 2,
) -> AdmissibilityVerdict:
    """Decide the covering property on each whole fundamental segment, in closed form.

    Along s(t) = cosh t p + sinh t v, cosh d(s(t), x) = cosh t (a_x + b_x tanh t)
    with a_x = -b(p, x) and b_x = -b(v, x), so the nearest point of the orbit
    (words of length <= `orbit_cutoff`) is decided by lines in tanh t.  The
    first interval, in surface and then orbit order, where a point of another
    surface is nearer than every own point, by more than 1e-12 at one of its
    ends or midpoint, is a violation; of those three the witness has the
    largest d_own - d_other.  Each distance is convex in t, so the nearest-seed
    distance peaks at a segment end or where the nearest seed changes; a peak
    beyond the certification radius raises UndecidableError.  A surface
    without a positive fundamental length raises ValueError.
    """
    surfaces = group.marked
    if not surfaces:
        raise ValueError("group data carries no marked geodesics to check")
    if any(not s.fundamental_length > 0 for s in surfaces):
        raise ValueError("surfaces need a positive fundamental segment")
    seeds, tags = x_set.seeds_and_tags()
    normals: dict[int, np.ndarray] = {}  # surface id -> normals of its hyperplanes
    for t in tags:
        if t not in normals:
            geo = next((s for s in surfaces if s.surface_id == t), None)
            if geo is None:
                raise ValueError(f"point tagged with unknown surface {t}")
            normals[t] = np.array([h.normal for h in geo.hyperplanes])
    c = float_coefficients(group.form)
    for t, n in normals.items():
        on = np.array([as_float_vector(group.form, p) for p, tag in x_set.points if tag == t])
        if np.any(np.abs((on * c) @ n.T) > 1e-6):
            raise ValueError("admissible-set point does not lie on its surface lift")

    orbit = build_orbit(seeds, group, orbit_cutoff, tags=tags)
    coords, rho, n = orbit.coordinates(), orbit.certification_radius, len(seeds)

    for s in surfaces:
        length, top = s.fundamental_length, math.tanh(s.fundamental_length)
        a, b = -(np.array([s.point, s.tangent]) * c) @ coords.T
        # where the nearest-seed distance can peak: the ends of where each seed (listed first) is nearest
        peaks = np.empty(0)
        if rho < math.inf:
            lo, hi = _interval(a[:n] - a[:n, None], b[:n] - b[:n, None], 0.0, top)
            peaks = np.concatenate([lo, hi])[np.tile(lo <= hi, 2)]
        # where another surface's point is nearer than every own point, from the lines that can be
        # least on [0, top]: those whose least there is at most the smallest own line's largest
        own = np.array(orbit.tags) == s.surface_id
        keep = np.minimum(a, a + b * top) <= np.maximum(a, a + b * top)[own].min(initial=np.inf)
        mine, theirs = own & keep, ~own & keep
        lo, hi = _interval(a[mine] - a[theirs, None], b[mine] - b[theirs, None], 0.0, top)
        near = np.stack([lo, (lo + hi) / 2.0, hi], axis=1)[lo <= hi]
        ts = np.minimum(np.arctanh(np.concatenate([peaks, near.ravel()])), length)
        points = np.cosh(ts)[:, None] * s.point[None, :] + np.sinh(ts)[:, None] * s.tangent[None, :]
        dists = np.arccosh(np.maximum(1.0, -(points * c[None, :]) @ coords.T))
        reach = dists[: len(peaks), :n].min(axis=1, initial=np.inf)
        if np.any(reach > rho + EPS):
            k = int(np.argmax(reach))
            raise UndecidableError(
                f"surface {s.surface_id} at t = {ts[k]:.6g} is {reach[k]:.6g} from its nearest seed, "
                f"beyond the certification radius rho = {rho:.6g} of orbit cutoff {orbit_cutoff}; "
                "increase the orbit cutoff"
            )
        d_own, d_other = np.where(own, dists, np.inf).min(axis=1), np.where(own, np.inf, dists).min(axis=1)
        gap = (d_own - d_other)[len(peaks) :].reshape(-1, 3)
        best = len(peaks) + 3 * np.arange(len(gap)) + gap.argmax(axis=1)
        hits = best[d_other[best] < d_own[best] - 1e-12]
        if len(hits):
            k = hits[0]
            return AdmissibilityVerdict(False, points[k], s.surface_id, (
                f"point of surface {s.surface_id} is covered by a cell centred on another surface "
                f"(d_own={d_own[k]:.6f}, d_other={d_other[k]:.6f})"
            ))
    return AdmissibilityVerdict(True, message="all surfaces covered by their own cells")


# -- orthogonal extension ----------------------------------------------------------


def orthogonal_extension(cell: VoronoiCell, q) -> VoronoiCell:
    """Extend a cell of the hyperplane {last coordinate 0} to the space one dimension up.

    Every bounding normal v becomes (v, 0) in the extended form f + <q>;
    facet types are inherited unchanged, and the extended cell is the
    preimage of the original under orthogonal projection.
    """
    new_form = direct_sum(cell.form, q)
    new_center = np.append(cell.center, 0.0)
    new_facets = []
    for f in cell.facets:
        n = np.append(f.halfspace.hyperplane.normal, 0.0)
        hp = Hyperplane(new_form, n)
        hs = HalfSpace(hp, f.halfspace.side)
        new_facets.append(CellFacet(hs, f.source_word, f.facet_type))
    return VoronoiCell(
        new_form, new_center, tuple(new_facets), cell.certification_radius
    )


# -- sphere shrinking ---------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkRow:
    """One R of the shrink demo: the (ball-model boundary sphere, type) of
    every wall of its cell, in facet order, and their mean radius by type.
    """

    r: float
    first_radius: float
    second_radius: float
    spheres: tuple[tuple[BoundarySphere, FacetType], ...]


@dataclass(frozen=True)
class ShrinkReport:
    rows: tuple[ShrinkRow, ...]
    second_strictly_decreasing: bool
    first_constant: bool
    shrink_factors: tuple[float, ...]


def sphere_shrink_report(
    r_list: Sequence[float], spacing: float = 2.0
) -> ShrinkReport:
    """Radii of the boundary spheres of a vertical-plane cell as R grows.

    The demo lives in the 3-space hyperboloid: V is the vertical plane
    {x_2 = 0}, the marked geodesic runs along e_1 inside V, a fixed
    translation along it (length `spacing`) cuts the first-type walls,
    and the R-parametrized translation orthogonal to it inside V cuts the
    second-type walls.  First-type radii stay constant while second-type
    radii shrink like 1/sinh(R/2).  A cell that keeps no wall of one type
    (its walls pruned within the feasibility tolerance) raises
    UndecidableError.
    """
    if not r_list:
        raise ValueError("need at least one R value")
    if any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("R values must be strictly increasing")
    form = jn_form(3)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    marked = MarkedGeodesic(form, x0, e1, surface_id=0, fundamental_length=spacing)
    t_s = translation_along(form, x0, e1, spacing)

    rows = []
    for r in r_list:
        t_r = translation_along(form, x0, e3, float(r))
        group = GroupData(form, [t_s, t_r], marked=[marked])
        orbit = build_orbit([x0], group, word_cutoff=2)
        cell = dirichlet_cell(x0, orbit, prune_radius=max(spacing, float(r)) / 2.0 + 1.0)
        cell = classify_facets(
            cell, [marked], box_radius=max(spacing, float(r)) / 2.0 + 1.0
        )
        spheres = tuple(
            (boundary_sphere(form, f.halfspace.hyperplane), f.facet_type) for f in cell.facets
        )
        first, second = ([s.radius for s, t in spheres if t is kind] for kind in FacetType)
        if not first or not second:
            raise UndecidableError(
                f"the shrink cell at R = {float(r):g}, spacing {spacing:g} lost its "
                f"{'first' if not first else 'second'}-type walls to pruning within the "
                f"{_FEAS_EPS:g} feasibility tolerance; widen the spacing or lower R"
            )
        rows.append(ShrinkRow(float(r), float(np.mean(first)), float(np.mean(second)), spheres))

    seconds = [row.second_radius for row in rows]
    firsts = [row.first_radius for row in rows]
    factors = tuple(a / b for a, b in zip(seconds, seconds[1:]))
    return ShrinkReport(
        rows=tuple(rows),
        second_strictly_decreasing=all(f > 1.0 for f in factors),
        first_constant=max(firsts) - min(firsts) <= 1e-9,
        shrink_factors=factors,
    )


# -- Poincare check in the plane -----------------------------------------------------


FacetRef = tuple[int, int]  # (cell index, facet index)


@dataclass(frozen=True)
class FacetPairing:
    source: FacetRef
    target: FacetRef
    isometry: np.ndarray


@dataclass(frozen=True)
class VertexCycle:
    """A vertex cycle; `start` is (cell index, Klein point in that cell's chart)."""

    start: tuple[int, np.ndarray]
    angle_sum: float
    order: int | None
    ok: bool


@dataclass(frozen=True)
class PoincareReport:
    """What `check_poincare_2d` found; `nesting` holds every (facet of an
    earlier cell, facet of a later cell, verdict) that check (iv) decided.
    """

    passed: bool
    unpaired: tuple[FacetRef, ...]
    pairing_errors: tuple[str, ...]
    cycles: tuple[VertexCycle, ...]
    nesting: tuple[tuple[FacetRef, FacetRef, NestingVerdict], ...]
    skipped_nesting: int

    @property
    def nested_pairs(self) -> tuple[tuple[FacetRef, FacetRef], ...]:
        """The facet pairs of `nesting` whose verdict is NESTED."""
        return tuple((a, b) for a, b, v in self.nesting if v is NestingVerdict.NESTED)

    def summary(self) -> str:
        lines = [f"poincare check: {'PASS' if self.passed else 'FAIL'}"]
        if self.unpaired:
            lines.append(f"  unpaired facets: {list(self.unpaired)}")
        for err in self.pairing_errors:
            lines.append(f"  pairing error: {err}")
        for cyc in self.cycles:
            lines.append(
                f"  vertex cycle at cell {cyc.start[0]}: angle sum "
                f"{cyc.angle_sum:.9f} (order {cyc.order}) "
                f"{'ok' if cyc.ok else 'BAD'}"
            )
        for a, b in self.nested_pairs:
            lines.append(f"  nested bounding hyperplanes: {a} vs {b}")
        if self.skipped_nesting:
            lines.append(
                f"  ({self.skipped_nesting} cross-cell pairs skipped: no common basepoint)"
            )
        return "\n".join(lines)


def _facet_ends(cell: VoronoiCell, inward: np.ndarray):
    """Both ends of every facet of a plane cell, in the cell's own Klein chart.

    `inward` holds the facets' inward normals, one row each.  Each end is
    (k, j): the Klein point and the facet j whose wall cuts the facet
    there, with j = None where the facet runs out to its ideal point on
    the unit circle (k is then that point) or is cut no more than 1e-7
    inside it.  Ends come in the order lo, hi along the facet line.
    """
    if not cell.facets:
        return []
    a, rhs = _klein_rows(cell._chart[0], inward)
    norm = np.linalg.norm(a, axis=1)
    base = a * rhs[:, None] / (norm * norm)[:, None]
    direction = a[:, ::-1] * [-1.0, 1.0] / norm[:, None]
    # base is the foot of the perpendicular from the origin, so the line
    # leaves the disk at t = -+ half
    half_sq = 1.0 - np.einsum("ij,ij->i", base, base)
    if (half_sq <= 0).any():
        raise ValueError("facet line misses the Klein disk")
    half = np.sqrt(half_sq)
    # wall j meets the line of facet i at t = offset[i, j] / coeff[i, j]
    coeff = direction @ a.T
    offset = rhs[None, :] - base @ a.T
    bounds, cuts = [], []
    for i, (coeff_i, offset_i) in enumerate(zip(coeff.tolist(), offset.tolist())):
        t_lo, t_hi, j_lo, j_hi = -half[i], half[i], None, None
        for j, (c, o) in enumerate(zip(coeff_i, offset_i)):
            if j == i or abs(c) <= 1e-12:
                continue
            t_star = o / c
            if c > 0:
                if t_star > t_lo + 1e-12:
                    t_lo, j_lo = t_star, j
            elif t_star < t_hi - 1e-12:
                t_hi, j_hi = t_star, j
        if t_lo >= t_hi - 1e-12:
            raise ValueError("facet is empty")
        bounds.append((t_lo, t_hi))
        cuts.append((j_lo, j_hi))
    k = base[:, None, :] + np.array(bounds)[:, :, None] * direction[:, None, :]
    return [
        tuple((k_e, j if np.linalg.norm(k_e) < 1.0 - 1e-7 else None) for k_e, j in zip(k_i, cut))
        for k_i, cut in zip(k, cuts)
    ]


def _interior_angle(form, cell, i, j) -> float:
    u = cell.facets[i].halfspace.inward_normal()
    v = cell.facets[j].halfspace.inward_normal()
    c = max(-1.0, min(1.0, -bilinear(form, u, v)))
    return math.acos(c)


def check_poincare_2d(
    cells: Sequence[VoronoiCell],
    pairings: Sequence[FacetPairing],
) -> PoincareReport:
    """Poincare-style verification for a plane domain given as paired cells.

    Checks: (i) every facet paired exactly once, a facet paired with
    itself counting once, (ii) each pairing isometry carries its facet onto
    the partner facet, end to end, and the source cell's center to beyond
    the partner facet, and a facet paired with itself is paired by an
    involution (g g = I within `is_isometry`'s tolerance), (iii) vertex
    cycles close up with angle sum 2 pi / m for integer m >= 1, within
    1e-6 relative in m, and (iv) no two bounding hyperplanes from distinct
    cells are nested.  Check (iv) decides each pair of cells with one
    `nesting_table` at their common center, from each cell's halfspaces
    stacked once; a pair of cells whose centers differ, and a facet pair
    whose halfspaces do not hold the center by more than EPS, is skipped
    and counted.

    Facet ends are taken in each cell's own Klein chart, an uncut facet
    ending at its ideal point, so moving the whole domain by an isometry
    leaves the report as it is.  A facet end (cell, facet, 0 or 1) cut by
    facet j is a vertex; the same vertex is the end of j cut by the facet,
    its twin.  Check (ii) maps each pairing's ends onto its partner's
    once, projectively from the source cell's chart to the target's, and
    check (iii) walks each vertex cycle through that end map: leave
    through the cutting facet from the twin end, cross its pairing, and go
    on from the end it arrives at.  A walk that cannot cross, arrives at
    an end that is no vertex, or meets an end seen before other than its
    start is a BAD cycle.  A pairing matrix so large that the image of its
    facet's hyperplane is lost to rounding raises UndecidableError.
    """
    if not cells:
        raise ValueError("the Poincare check needs at least one cell")
    form = cells[0].form
    if form.dimension != 3:
        raise ValueError("the Poincare check runs in the hyperbolic plane")

    # (i) coverage
    counts: dict[FacetRef, int] = {
        (ci, fi): 0 for ci, cell in enumerate(cells) for fi in range(len(cell.facets))
    }
    errors: list[str] = []
    for p in pairings:
        # a facet paired with itself counts once; source before target otherwise
        for ref in dict.fromkeys((p.source, p.target)):
            if ref in counts:
                counts[ref] += 1
            else:
                errors.append(f"pairing references unknown facet {ref}")
    unpaired = tuple(ref for ref, c in counts.items() if c != 1)

    # (ii) geometric pairing
    walls = [stack_halfspaces(form, [f.halfspace for f in cell.facets]) for cell in cells]
    ends = {
        (ci, fi): pair
        for ci, (cell, (_, inward)) in enumerate(zip(cells, walls))
        for fi, pair in enumerate(_facet_ends(cell, inward))
    }
    end_map: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for p in pairings:
        if p.source not in counts or p.target not in counts:
            continue
        name = f"pairing {p.source}->{p.target}"
        if not is_isometry(form, p.isometry, tol=1e-7):
            errors.append(f"{name}: matrix is not an isometry")
            continue
        if p.source == p.target:
            scale = max(1.0, float(np.max(np.abs(p.isometry))) ** 2)
            if np.max(np.abs(p.isometry @ p.isometry - np.eye(3))) > 1e-7 * scale:
                errors.append(f"{name}: a facet paired with itself needs an involution")
                continue
        src_cell, dst_cell = cells[p.source[0]], cells[p.target[0]]
        dst_hs = dst_cell.facets[p.target[1]].halfspace
        src_h = src_cell.facets[p.source[1]].halfspace.hyperplane
        try:
            image = src_h.apply(p.isometry)
        except ValueError:
            raise UndecidableError(
                f"{name}: the image of the facet's hyperplane is not space-like in "
                f"binary64; the pairing matrix has entries up to "
                f"{np.abs(p.isometry).max():.6g}; move the domain nearer the basepoint"
            ) from None
        if not image.same_as(dst_hs.hyperplane, tol=1e-6):
            errors.append(f"{name}: image hyperplane does not match")
            continue
        if dst_hs.contains(p.isometry @ src_cell.center):
            errors.append(f"{name}: image of the cell does not lie across the partner facet")
            continue
        have, want = ends[p.source], ends[p.target]
        # chart_dst . g . chart_src^-1, taken projectively: ideal ends stay ideal
        move = dst_cell._chart[0] @ p.isometry @ src_cell._chart[1]
        y = np.array([(1.0, *k) for k, _ in have]) @ move.T
        mapped = y[:, 1:] / y[:, :1]
        # lands[e][o]: end e arrives on end o, both ideal or both cut
        lands = (
            close_to(mapped[:, None, :], np.array([k for k, _ in want])[None, :, :], 1e-6)
            & np.equal.outer([j is None for _, j in have], [j is None for _, j in want])
        ).tolist()
        order = next((o for o in ((0, 1), (1, 0)) if lands[0][o[0]] and lands[1][o[1]]), None)
        if order is None:
            errors.append(f"{name}: facet endpoints do not map onto partner")
            continue
        for e, o in enumerate(order):
            end_map[(*p.source, e)] = (*p.target, o)
            end_map[(*p.target, o)] = (*p.source, e)

    # (iii) vertex cycles
    twin = {
        (ci, fi, e): (ci, j, e2)
        for (ci, fi), pair in ends.items()
        for e, (_, j) in enumerate(pair)
        if j is not None
        for e2, (_, back) in enumerate(ends[(ci, j)])
        if back == fi
    }
    cycles: list[VertexCycle] = []
    covered: set[tuple[int, int, int]] = set()  # vertex ends of earlier walks
    for start in twin:
        if start in covered:
            continue
        angle, state, path = 0.0, start, []
        # each step enters a vertex end not met before, so no walk outlasts them
        for _ in range(len(twin)):
            path.append(state)
            out = twin[state]
            angle += _interior_angle(form, cells[state[0]], state[1], out[1])
            state = end_map.get(out)
            if state not in twin or state in path or state in covered:
                break
        covered.update(path)
        covered.update(twin[s] for s in path)
        ci, fi, e = start
        k0 = ends[(ci, fi)][e][0]
        if state != start:
            cycles.append(VertexCycle((ci, k0), angle, None, False))
            continue
        m_hat = 2.0 * math.pi / angle if angle > 0 else math.inf
        m = round(m_hat)
        ok = m >= 1 and abs(m_hat - m) <= 1e-6 * max(1.0, m_hat)
        cycles.append(VertexCycle((ci, k0), angle, m if ok else None, ok))

    # (iv) nesting across distinct cells, one table per pair of cells
    nesting: list[tuple[FacetRef, FacetRef, NestingVerdict]] = []
    skipped = 0
    for (ci, cell_a), (cj, cell_b) in itertools.combinations(enumerate(cells), 2):
        if not close_to(cell_a.center, cell_b.center, 1e-7):
            skipped += len(cell_a.facets) * len(cell_b.facets)
            continue
        table = nesting_table(form, walls[ci], walls[cj], cell_a.center)
        for fi, row in enumerate(table):
            for fj, verdict in enumerate(row):
                if verdict is None:
                    skipped += 1
                else:
                    nesting.append(((ci, fi), (cj, fj), verdict))

    nested = any(v is NestingVerdict.NESTED for _, _, v in nesting)
    return PoincareReport(
        passed=not unpaired and not errors and all(c.ok for c in cycles) and not nested,
        unpaired=unpaired,
        pairing_errors=tuple(errors),
        cycles=tuple(cycles),
        nesting=tuple(nesting),
        skipped_nesting=skipped,
    )
