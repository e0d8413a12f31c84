"""Relative Voronoi machinery: orbits, Dirichlet cells, facet types,
admissible point sets, orthogonal extension, sphere shrinking and a
Poincare pairing check for plane domains.

Cells are built with floating arithmetic in the Klein model, where
halfspaces are affine constraints a . k >= rhs.  Redundant bisectors are
pruned with one convex hull of their polar points a / rhs.  Facet types
are decided in closed form along the Klein line of each marked geodesic:
a facet is first type iff the root of its own row lies in the interval
where all rows and the box faces hold, both relaxed by the feasibility
tolerance.  Everything is deterministic: orbit points are ordered
breadth-first by provenance word, and facets keep that order.

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

from .qforms import DiagonalForm, direct_sum
from .hyperboloid import (
    EPS,
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    are_nested,
    as_float_vector,
    basepoint,
    bilinear,
    boundary_sphere,
    distance,
    float_coefficients,
    is_isometry,
    isometry_inverse,
    jn_chart,
    normalize_point,
    normalize_points,
    quadratic,
    translation_along,
    translation_length,
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
        p = normalize_point(self.form, self.point)
        u = as_float_vector(self.form, self.tangent)
        u = u + bilinear(self.form, u, p) * p
        q = quadratic(self.form, u)
        if q <= EPS:
            raise ValueError("tangent must be space-like after projection")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "tangent", u / math.sqrt(q))

    def point_at(self, t: float) -> np.ndarray:
        return math.cosh(t) * self.point + math.sinh(t) * self.tangent

    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """Hyperplanes whose intersection is this geodesic, built on the first call."""
        return self._hyperplanes

    @functools.cached_property
    def _hyperplanes(self) -> tuple[Hyperplane, ...]:
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

    def apply(self, mat: np.ndarray) -> "MarkedGeodesic":
        return MarkedGeodesic(
            self.form,
            mat @ self.point,
            mat @ self.tangent,
            self.surface_id,
            self.fundamental_length,
        )


# -- group data ------------------------------------------------------------------


@dataclass
class GroupData:
    """Generators with a declared translation-length floor R.

    Every generator must verify the isometry identity.  When a horizontal
    hyperplane is declared, generators not stabilizing it must move by at
    least `r_floor` (the user-supplied surrogate for a deep finite-index
    subgroup).  Every marked lift must be a `MarkedGeodesic`; anything
    else raises TypeError.
    """

    form: DiagonalForm
    generators: list[np.ndarray]
    marked: list[MarkedGeodesic] = field(default_factory=list)
    r_floor: float = 0.0
    horizontal: Hyperplane | None = None

    def __post_init__(self):
        for m in self.marked:
            if not isinstance(m, MarkedGeodesic):
                raise TypeError(f"unsupported marked lift {type(m).__name__}")
        self.generators = [np.asarray(g, dtype=float) for g in self.generators]
        for g in self.generators:
            if not is_isometry(self.form, g, tol=1e-7):
                raise ValueError("generator fails the isometry identity")
        if self.r_floor > 0:
            for g in self.generators:
                if self.horizontal is not None and _stabilizes(g, self.horizontal):
                    continue
                if translation_length(g) < self.r_floor - 1e-6:
                    raise ValueError(
                        "generator moves by less than the declared floor R"
                    )

    @property
    def gens_with_inverses(self) -> list[np.ndarray]:
        out = []
        for g in self.generators:
            out.append(g)
            out.append(isometry_inverse(self.form, g))
        return out


def _stabilizes(mat: np.ndarray, h: Hyperplane) -> bool:
    return h.apply(mat).same_as(h)


# -- orbits ----------------------------------------------------------------------


class OrbitPoint(NamedTuple):
    point: np.ndarray
    word: tuple[int, ...]
    seed_index: int
    tag: int | None = None


@dataclass(frozen=True)
class OrbitSet:
    form: DiagonalForm
    points: tuple[OrbitPoint, ...]
    certification_radius: float
    _coordinates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coords = np.array([op.point for op in self.points]).reshape(-1, self.form.dimension)
        coords.flags.writeable = False
        object.__setattr__(self, "_coordinates", coords)

    def coordinates(self) -> np.ndarray:
        """The (N, d) array of the points, in orbit order; built once, read-only."""
        return self._coordinates


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
    groups whose displacement grows linearly in word length.  Images too
    large for binary64 raise ValueError, and so does an empty seed list
    under generators, which has no displacement to certify with.

    Each word shell is rounded, keyed and checked for overflow as one
    array, but every image is still one product `g @ x` of a generator and
    a point.  A product over the whole shell (a matrix product or `einsum`)
    changes the last bits of far points: the inverse generators are
    F-ordered, so BLAS sums them in another order than the point-wise
    product does.  Those bits decide the sign of a cancelled f(x - y) in
    `dirichlet_cell`, and with it whether a long translation is refused.
    """
    if word_cutoff < 1:
        raise ValueError("word cutoff must be at least 1")
    form = group.form
    seeds = normalize_points(form, seeds)
    if tags is not None and len(tags) != len(seeds):
        raise ValueError("one tag per seed required")
    if group.generators and not seeds:
        raise ValueError("an orbit under generators needs at least one seed point")
    gens = group.gens_with_inverses

    frontier = [
        OrbitPoint(s, (), i, tags[i] if tags is not None else None)
        for i, s in enumerate(seeds)
    ]
    points = list(frontier)
    # rounded coordinates as tuples of floats, hashing like tuples of np.float64
    seen = set(map(tuple, np.round(seeds, 7).tolist()))

    for length in range(1, word_cutoff + 1):
        parents = [
            (op, gi)
            for op in frontier
            for gi in range(len(gens))
            if not op.word or (op.word[-1] ^ 1) != gi  # reduced words only
        ]
        images = np.array([gens[gi] @ op.point for op, gi in parents])
        fresh = []
        for c, key in enumerate(map(tuple, np.round(images, 7).tolist())):
            if key not in seen:
                seen.add(key)
                fresh.append(c)
        shell = images[fresh]
        if not np.isfinite(shell).all():
            raise ValueError(
                f"orbit points of word length {length} overflow binary64; "
                "shorten the translations or lower the word cutoff"
            )
        frontier = []
        for y, c in zip(shell, fresh):
            op, gi = parents[c]
            frontier.append(OrbitPoint(y, op.word + (gi,), op.seed_index, op.tag))
        points += frontier

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


# -- cells -----------------------------------------------------------------------


class FacetType(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class CellFacet:
    halfspace: HalfSpace
    source_word: tuple[int, ...]
    source_point: np.ndarray
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


def _centering_isometry(form: DiagonalForm, center: np.ndarray) -> np.ndarray:
    """Isometry taking the chart basepoint to `center`."""
    b0 = basepoint(form)
    if np.allclose(b0, center, atol=EPS):
        return np.eye(form.dimension)
    d = distance(form, b0, center)
    u = (center - math.cosh(d) * b0) / math.sinh(d)
    return translation_along(form, b0, u, d)


def _klein_rows(form: DiagonalForm, normals, world_to_local: np.ndarray):
    """Affine Klein rows (a, rhs), one per normal, in local coordinates.

    An inward halfspace normal gives the constraint a . k >= rhs; a
    hyperplane normal gives the equality a . k = rhs.
    """
    t, _ = jn_chart(form)
    chart = t @ (world_to_local @ np.reshape(normals, (-1, form.dimension)).T)
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
    # np.allclose(op.point, center, atol=1e-7) for every orbit point at once
    matches = np.flatnonzero(np.isclose(coords, center, atol=1e-7).all(axis=1))
    if not len(matches):
        raise ValueError("center must be one of the orbit points")
    idx = int(matches[0])
    rho = prune_radius if prune_radius is not None else orbit.certification_radius
    if not rho > 0:
        raise UndecidableError(
            f"pruning radius rho = {rho:.6g} certifies no ball around the center; "
            "increase the orbit cutoff"
        )

    others = orbit.points[:idx] + orbit.points[idx + 1 :]
    if not others:
        return VoronoiCell(form, center, (), orbit.certification_radius)

    # the bisector normal x - y, scaled to f = 1, points toward the center x
    points = np.delete(coords, idx, axis=0)
    diff = center[None, :] - points
    if np.any(np.all(np.abs(diff) <= EPS + 1e-5 * np.abs(points), axis=1)):
        raise ValueError("bisector requires two distinct points")
    c = float_coefficients(form)
    with np.errstate(over="ignore", invalid="ignore"):
        f_norm = (diff * diff * c[None, :]).sum(axis=1)
    lost = ~(np.isfinite(f_norm) & (f_norm > 0))
    if lost.any():
        k = int(np.argmax(lost))
        raise UndecidableError(
            f"the bisector toward orbit word {others[k].word} has f(x - y) = "
            f"{f_norm[k]:.6g}, not finite and positive: coordinates of size "
            f"{np.abs(points[k]).max():.6g} exceed binary64 precision; "
            "shorten the translations or lower the orbit cutoff"
        )
    inward = diff / np.sqrt(f_norm)[:, None]
    world_to_local = isometry_inverse(form, _centering_isometry(form, center))
    a_all, rhs_all = _klein_rows(form, inward, world_to_local)
    polar = a_all / rhs_all[:, None]
    dim = form.dimension - 1
    box = math.tanh(min(rho, _BOX_CAP))
    box_polar = np.vstack([np.eye(dim), -np.eye(dim)]) / box

    hull = ConvexHull(np.vstack([polar, box_polar]))
    vertices = hull.vertices[hull.vertices < len(others)]
    # np.isclose(inward, inward[v], atol=1e-7) for every hull vertex v at once
    near = inward[vertices][:, None, :]
    dups = np.all(np.abs(inward[None, :, :] - near) <= 1e-7 + 1e-5 * np.abs(near), axis=2)
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
    reach[: len(others)][dups[rows].T] = -np.inf
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
        kept.append(CellFacet(hs, others[first].word, others[first].point))
    if not kept:
        raise UndecidableError(
            f"pruning radius rho = {rho:.6g} keeps no facet of the "
            f"{len(others)} bisectors, so the cell would be everything; "
            "increase the orbit cutoff or the radius"
        )
    return VoronoiCell(form, center, tuple(kept), orbit.certification_radius)


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
    form = cell.form
    rho = box_radius if box_radius is not None else cell.certification_radius
    box = math.tanh(min(rho, _BOX_CAP))
    world_to_local = isometry_inverse(form, _centering_isometry(form, cell.center))
    a_all, rhs_all = _klein_rows(
        form, [f.halfspace.inward_normal() for f in cell.facets], world_to_local
    )
    n, dim = a_all.shape
    # facet rows, then the box faces -k_j >= -box and k_j >= -box
    rows = np.vstack([a_all, -np.eye(dim), np.eye(dim)])
    rhs = np.concatenate([rhs_all, np.full(2 * dim, -box)])
    facet_norms = np.linalg.norm(a_all, axis=1)

    first = np.zeros(n, dtype=bool)
    for m in marked:
        if not isinstance(m, MarkedGeodesic):
            raise TypeError(f"unsupported marked lift {type(m).__name__}")
        (p_sp, u_sp), (p_0, u_0) = _klein_rows(
            form, [m.point, m.tangent], world_to_local
        )
        d = (u_sp * p_0 - p_sp * u_0) / (p_0 * p_0)
        base = rows @ (p_sp / p_0) - rhs
        slope = rows @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (-_FEAS_EPS - base) / slope
        lo = bound[slope > 0].max(initial=-np.inf)
        hi = bound[slope < 0].min(initial=np.inf)
        if lo > hi or np.any(base[slope == 0] < -_FEAS_EPS):
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


def _marked_orbit(
    group: GroupData, surfaces: Sequence[MarkedGeodesic], cutoff: int
) -> list[MarkedGeodesic]:
    """Images of the marked geodesics under reduced words of length <= cutoff."""
    out: list[MarkedGeodesic] = []
    seen: set[tuple] = set()

    def push(geo: MarkedGeodesic):
        h = geo.hyperplanes()[0]
        key = (geo.surface_id,) + tuple(np.round(h.normal, 6))
        if key not in seen:
            seen.add(key)
            out.append(geo)

    for s in surfaces:
        push(s)
    frontier = list(surfaces)
    gens = group.gens_with_inverses
    for _ in range(cutoff):
        next_frontier = []
        for geo in frontier:
            for g in gens:
                img = geo.apply(g)
                before = len(out)
                push(img)
                if len(out) > before:
                    next_frontier.append(img)
        frontier = next_frontier
    return out


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
    lifts = _marked_orbit(group, surfaces, lift_cutoff)
    ids = np.array([geo.surface_id for geo in lifts])
    normals = np.array([geo.hyperplanes()[0].normal for geo in lifts])
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
    """Decide the covering property by dense sampling of the marked lifts.

    Each surface is sampled along its fundamental segment at spacing
    min(delta)/10, lifts taken through words of length <= `orbit_cutoff`,
    or at the least fundamental length / 20 when there is one surface id
    or min(delta) is not finite and positive.  The nearest truncated-orbit
    point must carry the same surface tag (ties within 1e-12 pass).
    Samples outside the orbit's certification radius raise UndecidableError;
    a surface without a positive fundamental length raises ValueError.
    """
    surfaces = group.marked
    if not surfaces:
        raise ValueError("group data carries no marked geodesics to check")
    if any(not s.fundamental_length > 0 for s in surfaces):
        raise ValueError("surfaces need a positive fundamental segment")
    form = group.form
    seeds, tags = x_set.seeds_and_tags()
    normals: dict[int, np.ndarray] = {}  # surface id -> normals of its hyperplanes
    for t in tags:
        if t not in normals:
            geo = next((s for s in surfaces if s.surface_id == t), None)
            if geo is None:
                raise ValueError(f"point tagged with unknown surface {t}")
            normals[t] = np.array([h.normal for h in geo.hyperplanes()])
    c = float_coefficients(form)
    for t, n in normals.items():
        on = np.array([as_float_vector(form, p) for p, tag in x_set.points if tag == t])
        if np.any(np.abs((on * c) @ n.T) > 1e-6):
            raise ValueError("admissible-set point does not lie on its surface lift")

    orbit = build_orbit(seeds, group, orbit_cutoff, tags=tags)
    coords = orbit.coordinates()
    orbit_tags = np.array([op.tag for op in orbit.points])
    seed_coords = np.array(seeds)

    spacing = 0.0
    if len({s.surface_id for s in surfaces}) > 1:
        spacing = min(surface_separations(group, surfaces, orbit_cutoff).values()) / 10.0
    if not 0.0 < spacing < math.inf:
        spacing = min(s.fundamental_length for s in surfaces) / 20.0

    for s in surfaces:
        length = s.fundamental_length
        count = max(2, math.ceil(length / spacing) + 1)
        ts = np.linspace(0.0, length, count)
        samples = (
            np.cosh(ts)[:, None] * s.point[None, :]
            + np.sinh(ts)[:, None] * s.tangent[None, :]
        )
        cosh_orbit = -(samples * c[None, :]) @ coords.T
        cosh_seeds = -(samples * c[None, :]) @ seed_coords.T
        nearest_seed = np.arccosh(np.maximum(1.0, cosh_seeds.min(axis=1)))
        if np.any(nearest_seed > orbit.certification_radius + EPS):
            raise UndecidableError(
                "sample beyond the certification radius; increase the orbit cutoff"
            )
        dists = np.arccosh(np.maximum(1.0, cosh_orbit))
        own = np.where(orbit_tags == s.surface_id, dists, np.inf).min(axis=1)
        other = np.where(orbit_tags != s.surface_id, dists, np.inf).min(axis=1)
        bad = other < own - 1e-12
        if np.any(bad):
            k = int(np.argmax(bad))
            return AdmissibilityVerdict(
                False,
                witness=samples[k],
                witness_surface=s.surface_id,
                message=(
                    f"point of surface {s.surface_id} is covered by a cell "
                    f"centred on another surface (d_own={own[k]:.6f}, "
                    f"d_other={other[k]:.6f})"
                ),
            )
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
        new_facets.append(
            CellFacet(hs, f.source_word, np.append(f.source_point, 0.0), f.facet_type)
        )
    return VoronoiCell(
        new_form, new_center, tuple(new_facets), cell.certification_radius
    )


# -- sphere shrinking ---------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkRow:
    r: float
    first_radius: float
    second_radius: float


@dataclass(frozen=True)
class ShrinkReport:
    spacing: float
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
    radii shrink like 1/sinh(R/2).
    """
    from .qforms import jn_form

    if not r_list:
        raise ValueError("need at least one R value")
    if any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("R values must be strictly increasing")
    form = jn_form(3)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    marked = MarkedGeodesic(form, x0, e1, surface_id=0, fundamental_length=spacing)

    rows = []
    for r in r_list:
        t_s = translation_along(form, x0, e1, spacing)
        t_r = translation_along(form, x0, e3, float(r))
        group = GroupData(form, [t_s, t_r], marked=[marked])
        orbit = build_orbit([x0], group, word_cutoff=2)
        cell = dirichlet_cell(x0, orbit, prune_radius=max(spacing, float(r)) / 2.0 + 1.0)
        cell = classify_facets(
            cell, [marked], box_radius=max(spacing, float(r)) / 2.0 + 1.0
        )
        first = [
            boundary_sphere(form, f.halfspace.hyperplane).radius
            for f in cell.facets
            if f.facet_type is FacetType.FIRST
        ]
        second = [
            boundary_sphere(form, f.halfspace.hyperplane).radius
            for f in cell.facets
            if f.facet_type is FacetType.SECOND
        ]
        if not first or not second:
            raise RuntimeError("shrink demo cell lost a facet family")
        rows.append(ShrinkRow(float(r), float(np.mean(first)), float(np.mean(second))))

    seconds = [row.second_radius for row in rows]
    firsts = [row.first_radius for row in rows]
    factors = tuple(a / b for a, b in zip(seconds, seconds[1:]))
    return ShrinkReport(
        spacing=spacing,
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
    start: tuple[int, np.ndarray]
    angle_sum: float
    order: int | None
    ok: bool


@dataclass(frozen=True)
class PoincareReport:
    passed: bool
    unpaired: tuple[FacetRef, ...]
    pairing_errors: tuple[str, ...]
    cycles: tuple[VertexCycle, ...]
    nested_pairs: tuple[tuple[FacetRef, FacetRef], ...]
    skipped_nesting: int

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


def _facet_ends(cell: VoronoiCell):
    """Both ends of every facet of a plane cell, in world Klein coordinates.

    Each end is (k, j): the Klein point and the facet j whose wall cuts
    the facet there, with j = None where the facet runs out to the disk
    of radius 0.999999 (k is then the exit point) or is cut no more than
    1e-7 inside it.  Ends come in the order lo, hi along the facet line.
    """
    if not cell.facets:
        return []
    box = 0.999999
    form = cell.form
    a, rhs = _klein_rows(
        form, [f.halfspace.inward_normal() for f in cell.facets], np.eye(form.dimension)
    )
    norm = np.linalg.norm(a, axis=1)
    base = a * rhs[:, None] / (norm * norm)[:, None]
    direction = np.stack([-a[:, 1], a[:, 0]], axis=1) / norm[:, None]
    # base is the foot of the perpendicular from the origin, so the line
    # leaves the disk at t = -+ half
    half_sq = box * box - np.einsum("ij,ij->i", base, base)
    if np.any(half_sq <= 0):
        raise ValueError("facet line misses the Klein disk")
    half = np.sqrt(half_sq)
    out = []
    for i in range(len(cell.facets)):
        t_lo, t_hi, j_lo, j_hi = -half[i], half[i], None, None
        for j, (a_j, rhs_j) in enumerate(zip(a, rhs)):
            coeff = float(np.dot(a_j, direction[i]))
            if j == i or abs(coeff) <= 1e-12:
                continue
            t_star = (rhs_j - float(np.dot(a_j, base[i]))) / coeff
            if coeff > 0:
                if t_star > t_lo + 1e-12:
                    t_lo, j_lo = t_star, j
            elif t_star < t_hi - 1e-12:
                t_hi, j_hi = t_star, j
        if t_lo >= t_hi - 1e-12:
            raise ValueError("facet is empty")
        ends = []
        for t, j in ((t_lo, j_lo), (t_hi, j_hi)):
            k = base[i] + t * direction[i]
            ends.append((k, j if np.linalg.norm(k) < box - 1e-7 else None))
        out.append(tuple(ends))
    return out


def _klein_project(form: DiagonalForm, x: np.ndarray) -> np.ndarray:
    t, _ = jn_chart(form)
    y = t @ x
    return y[1:] / y[0]


def _klein_lift(form: DiagonalForm, k: np.ndarray) -> np.ndarray:
    _, tinv = jn_chart(form)
    return tinv @ np.concatenate(([1.0], k)) / math.sqrt(1.0 - float(np.dot(k, k)))


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

    Checks: (i) every facet paired exactly once, (ii) each pairing
    isometry carries its facet onto the partner facet, end to end, and
    the source cell's center to beyond the partner facet, (iii) vertex
    cycles close up with angle sum 2 pi / m for integer m >= 1, within
    1e-6 relative in m, and (iv) no two bounding hyperplanes from distinct
    cells are nested; (iv) needs the two cells to share their center.

    A facet end (cell, facet, 0 or 1) cut by facet j is a vertex; the
    same vertex is the end of j cut by the facet, its twin.  Check (ii)
    maps each pairing's ends onto its partner's once, and check (iii)
    walks each vertex cycle through that end map: leave through the
    cutting facet from the twin end, cross its pairing, and go on from
    the end it arrives at.  A walk that cannot cross, arrives at an end
    that is no vertex, or meets an end seen before other than its start
    is a BAD cycle.
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
        for ref in (p.source, p.target):
            if ref in counts:
                counts[ref] += 1
            else:
                errors.append(f"pairing references unknown facet {ref}")
    unpaired = tuple(ref for ref, c in counts.items() if c != 1)

    # (ii) geometric pairing
    ends = {
        (ci, fi): pair
        for ci, cell in enumerate(cells)
        for fi, pair in enumerate(_facet_ends(cell))
    }
    end_map: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for p in pairings:
        if p.source not in counts or p.target not in counts:
            continue
        name = f"pairing {p.source}->{p.target}"
        if not is_isometry(form, p.isometry, tol=1e-7):
            errors.append(f"{name}: matrix is not an isometry")
            continue
        src_cell = cells[p.source[0]]
        dst_hs = cells[p.target[0]].facets[p.target[1]].halfspace
        src_h = src_cell.facets[p.source[1]].halfspace.hyperplane
        if not src_h.apply(p.isometry).same_as(dst_hs.hyperplane, tol=1e-6):
            errors.append(f"{name}: image hyperplane does not match")
            continue
        if dst_hs.contains(p.isometry @ src_cell.center):
            errors.append(f"{name}: image of the cell does not lie across the partner facet")
            continue
        have, want = ends[p.source], ends[p.target]
        mapped = [_klein_project(form, p.isometry @ _klein_lift(form, k)) for k, _ in have]
        for order in ((0, 1), (1, 0)):
            if all(
                (have[e][1] is None) == (want[o][1] is None)
                and np.allclose(mapped[e], want[o][0], atol=1e-6)
                for e, o in enumerate(order)
            ):
                break
        else:
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

    # (iv) nesting across distinct cells
    nested: list[tuple[FacetRef, FacetRef]] = []
    skipped = 0
    for (ci, cell_a), (cj, cell_b) in itertools.combinations(enumerate(cells), 2):
        base = cell_a.center if np.allclose(cell_a.center, cell_b.center, atol=1e-7) else None
        for fi, fa in enumerate(cell_a.facets):
            for fj, fb in enumerate(cell_b.facets):
                if base is None or fa.halfspace.margin(base) <= EPS or fb.halfspace.margin(
                    base
                ) <= EPS:
                    skipped += 1
                    continue
                verdict = are_nested(form, fa.halfspace, fb.halfspace, base)
                if verdict is NestingVerdict.NESTED:
                    nested.append(((ci, fi), (cj, fj)))

    passed = (
        not unpaired and not errors and all(c.ok for c in cycles) and not nested
    )
    return PoincareReport(
        passed=passed,
        unpaired=unpaired,
        pairing_errors=tuple(errors),
        cycles=tuple(cycles),
        nested_pairs=tuple(nested),
        skipped_nesting=skipped,
    )


# -- cell dumps ------------------------------------------------------------------


def cell_facet_rows(cell: VoronoiCell) -> list[list[str]]:
    """CSV-ready rows describing a cell: one row per facet plus the center."""
    def fmt(x: float) -> str:
        return f"{float(x):.12g}"

    rows = [["center", " ".join(fmt(v) for v in cell.center), "", ""]]
    for i, f in enumerate(cell.facets):
        rows.append(
            [
                f"facet{i}",
                " ".join(fmt(v) for v in f.halfspace.hyperplane.normal),
                "".join(str(w) for w in f.source_word) or "seed",
                f.facet_type.value if f.facet_type else "",
            ]
        )
    return rows
