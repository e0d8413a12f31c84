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
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.optimize import linprog

import hyperglue
from hyperglue.glueing import (
    EDGE_LABELS,
    AssemblyBatch,
    CountRow,
    PieceInstance,
    SlotLayout,
    enumerate_base_graphs,
)
from hyperglue.hyperboloid import (
    EPS,
    HalfSpace,
    Hyperplane,
    NestingVerdict,
    as_float_vector,
    basepoint,
    bilinear,
    distance,
    float_coefficients,
    is_point,
    nesting_table,
    normalize_point,
    normalize_points,
    quadratic,
    reflection,
    rotation_in_plane,
    stack_halfspaces,
    translation_along,
)
from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement
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
    _cell_chart,
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
    tags and radius, and the same overflow error.
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
        op = OrbitPoint(s, (), tags[i] if tags is not None else None)
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
                new = OrbitPoint(y, op.word + (gi,), op.tag)
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
    return OrbitSet(
        form,
        np.array([op.point for op in points]),
        tuple(op.word for op in points),
        tuple(op.tag for op in points),
        radius,
    )


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
    # the Klein lift x = L T^-1 (1, k) / sqrt(1 - |k|^2) of every sample at once
    homogeneous = np.hstack([np.ones((n, 1)), ks]) / np.sqrt(1.0 - (ks * ks).sum(axis=1))[:, None]
    return homogeneous @ _cell_chart(form, cell.center)[1].T


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


@np.errstate(over="ignore", invalid="ignore")
def is_point_by_dot(form: DiagonalForm, x) -> bool:
    """The upper-sheet test of one vector, each sum an `np.dot`: |f(x) + 1| <= 1e-7 * scale
    for scale = max(1, sum |c_i| x_i^2), and a positive coordinate at the negative coefficient."""
    c = float_coefficients(form)
    q = float(np.dot(x * c, x))
    scale = max(1.0, float(np.dot(x * np.abs(c), x)))
    return math.isfinite(scale) and abs(q + 1.0) <= 1e-7 * scale and x[np.argmin(c)] > 0


def scalar_canonical_normal(form: DiagonalForm, v: np.ndarray) -> np.ndarray:
    """One float vector's canonical hyperplane normal, a scalar at a time: f(v)
    as one `np.dot`, v / sqrt(f(v)) by `math.sqrt`, and the first entry of
    absolute value > EPS, found by a scan, made positive."""
    q = float(np.dot(v * float_coefficients(form), v))
    if not EPS < q < math.inf:
        raise ValueError(f"hyperplane normal must be space-like, got f(v) = {q:g}")
    u = v / math.sqrt(q)
    lead = next(x for x in u if abs(x) > EPS)
    return -u if lead < 0 else u


def bisector(form: DiagonalForm, x, y) -> Hyperplane:
    """Hyperplane of points equidistant from sheet points x and y (normal x - y)."""
    xf = as_float_vector(form, x)
    yf = as_float_vector(form, y)
    if np.allclose(xf, yf, atol=EPS):
        raise ValueError("bisector requires two distinct points")
    for p in (xf, yf):
        if not is_point(form, p):
            raise ValueError("bisector requires points on the upper sheet")
    return Hyperplane(form, xf - yf)


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
        hs = halfspace_containing(bisector(form, center, op.point), center)
        if any(
            hs.side == prev.halfspace.side
            and hs.hyperplane.same_as(prev.halfspace.hyperplane)
            for prev in raw
        ):
            continue
        raw.append(CellFacet(hs, op.word))

    rho = prune_radius if prune_radius is not None else orbit.certification_radius
    box = math.tanh(min(rho, _BOX_CAP))
    if len(raw) <= 1:
        return VoronoiCell(form, center, tuple(raw), orbit.certification_radius)

    to_chart, _ = _cell_chart(form, center)
    rows = [f.halfspace.side * (to_chart @ f.halfspace.hyperplane.normal) for f in raw]
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
    to_chart, _ = _cell_chart(form, cell.center)
    a_all, rhs_all = _klein_rows(to_chart, [f.halfspace.inward_normal() for f in cell.facets])
    eq_rows = [_klein_rows(to_chart, [h.normal for h in m.hyperplanes]) for m in marked]
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


class SegmentSamples(NamedTuple):
    """What the samples of one marked segment show."""

    surface_id: int
    reach: float  # the largest distance from a sample to its nearest seed
    violation: bool  # some sample is nearer another surface's point, by more than 1e-12


def brute_force_admissible(
    x_set, group: GroupData, orbit_cutoff: int, step: float = 1e-5
) -> list[SegmentSamples]:
    """Reference admissibility, from samples of each fundamental segment, in surface order.

    Along s(t) = cosh t p + sinh t v two orbit points x and y are equally
    far where (a_x - a_y) cosh t + (b_x - b_y) sinh t = 0, with a = -b(p, .)
    and b = -b(v, .), which happens at most once.  Each segment is sampled
    at its ends, at every such crossing in (0, L) of an own point with
    another surface's point and of two seeds, one step of `step` to each
    side of each crossing, and midway between any two consecutive samples.
    The order of the distances does not change between two consecutive
    crossings, so a midway sample sees every stretch where another
    surface's point is nearer, however short.
    """
    seeds, tags = x_set.seeds_and_tags()
    orbit = build_orbit(seeds, group, orbit_cutoff, tags=tags)
    coords, n = orbit.coordinates(), len(seeds)
    orbit_tags = np.array(orbit.tags)
    c = float_coefficients(group.form)
    out = []
    for s in group.marked:
        length = s.fundamental_length
        a, b = -(s.point * c) @ coords.T, -(s.tangent * c) @ coords.T
        own = orbit_tags == s.surface_id
        i, j = np.triu_indices(n, 1)
        pairs = np.concatenate([np.argwhere(own[:, None] & ~own[None, :]), np.column_stack([i, j])])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (a[pairs[:, 1]] - a[pairs[:, 0]]) / (b[pairs[:, 0]] - b[pairs[:, 1]])
        t = np.arctanh(r[np.abs(r) < 1.0])
        t = t[(0.0 < t) & (t < length)]
        ladder = (t[:, None] + step * np.arange(-1, 2)).ravel()
        ts = np.unique(np.append(ladder, [0.0, length]).clip(0.0, length))
        ts = np.concatenate([ts, (ts[1:] + ts[:-1]) / 2.0])
        points = np.cosh(ts)[:, None] * s.point + np.sinh(ts)[:, None] * s.tangent
        d = np.arccosh(np.maximum(1.0, -(points * c) @ coords.T))
        d_own = np.where(own, d, np.inf).min(axis=1)
        d_other = np.where(own, np.inf, d).min(axis=1)
        reach = float(d[:, :n].min(axis=1).max()) if n else 0.0
        out.append(SegmentSamples(s.surface_id, reach, bool((d_other < d_own - 1e-12).any())))
    return out


def plane_cell_vertices(cell: VoronoiCell) -> list[tuple[np.ndarray, int, int, float]]:
    """Finite vertices of a plane cell, by brute force over facet pairs.

    For facets i < j the point w = (n_i x n_j) / c is b_f-orthogonal to
    both inward normals.  It is kept when it is time-like and, taken on
    the center's sheet, inside every other halfspace; a vertex at radius
    >= 1 - 1e-7 in the Klein chart centred on the cell counts as ideal and
    is left out, as the Poincare check does.  Each vertex (w, i, j, angle)
    carries its interior angle acos(-b(u_i, u_j)).
    """
    form = cell.form
    c = float_coefficients(form)
    to_chart, _ = _cell_chart(form, cell.center)
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
            y = to_chart @ w
            if np.linalg.norm(y[1:] / y[0]) >= 1.0 - 1e-7:
                continue
            cos = -bilinear(form, normals[i], normals[j])
            out.append((w, i, j, math.acos(max(-1.0, min(1.0, cos)))))
    return out


def _fsum_bilinear(form: DiagonalForm, u, w) -> float:
    """b_f(u, w) summed exactly, from the rounded products c_i u_i w_i."""
    return math.fsum(float(c) * float(a) * float(b) for c, a, b in zip(float_coefficients(form), u, w))


def _scalar_close(a, b, atol: float) -> bool:
    return all(abs(float(x) - float(y)) <= atol + 1e-5 * abs(float(y)) for x, y in zip(a, b))


def are_nested(form: DiagonalForm, hs1: HalfSpace, hs2: HalfSpace, x) -> NestingVerdict:
    """Classify two halfspaces that both contain the basepoint x.

    This is the 1 x 1 case of `nesting_table`, which holds the thresholds;
    a basepoint not interior to both halfspaces is refused.
    """
    ((verdict,),) = nesting_table(
        form, stack_halfspaces(form, [hs1]), stack_halfspaces(form, [hs2]), x
    )
    if verdict is None:
        raise ValueError("basepoint must be interior to both halfspaces")
    return verdict


def scalar_nesting_verdict(form: DiagonalForm, hs1: HalfSpace, hs2: HalfSpace, x) -> NestingVerdict | None:
    """The nesting verdict of two halfspaces about x, one pair at a time with `math.fsum`.

    None unless x lies inside both by a margin > EPS; EQUAL when the
    hyperplane normals agree entry by entry within 1e-7 + 1e-5 |n2|; then,
    for the inward normals' product s, CROSSING when |s| < 1 - EPS, NESTED
    when s > 0 and DISJOINT_NOT_NESTED otherwise: the thresholds that
    `nesting_table` documents.
    """
    u1, u2 = hs1.inward_normal(), hs2.inward_normal()
    if _fsum_bilinear(form, x, u1) <= EPS or _fsum_bilinear(form, x, u2) <= EPS:
        return None
    if _scalar_close(hs1.hyperplane.normal, hs2.hyperplane.normal, 1e-7):
        return NestingVerdict.EQUAL
    s = _fsum_bilinear(form, u1, u2)
    if abs(s) < 1.0 - EPS:
        return NestingVerdict.CROSSING
    return NestingVerdict.NESTED if s > 0 else NestingVerdict.DISJOINT_NOT_NESTED


def scalar_nesting(cells: Sequence[VoronoiCell]) -> tuple[list, int]:
    """Check (iv) of the Poincare check pair by pair: the (facet, facet,
    verdict) triples of every two cells whose centers agree within 1e-7,
    at the earlier cell's center, and the count of facet pairs skipped."""
    nesting, skipped = [], 0
    for (ci, a), (cj, b) in itertools.combinations(enumerate(cells), 2):
        for (fi, fa), (fj, fb) in itertools.product(enumerate(a.facets), enumerate(b.facets)):
            verdict = None
            if _scalar_close(a.center, b.center, 1e-7):
                verdict = scalar_nesting_verdict(a.form, fa.halfspace, fb.halfspace, a.center)
            if verdict is None:
                skipped += 1
            else:
                nesting.append(((ci, fi), (cj, fj), verdict))
    return nesting, skipped


def reflection_polygon(n: int, angle: float) -> tuple[GroupData, np.ndarray]:
    """The reflection group of the regular n-gon with interior angle `angle`, centred at x0.

    Returns the group, generated by the reflections in the n mirrors, and
    the mirrors' unit normals as rows.  The inradius r has cosh r =
    cos(angle/2) / sin(pi/n), mirror k has the normal (sinh r, cosh r
    cos phi_k, cosh r sin phi_k) with phi_k = 2 pi k / n, and the polygon
    is {x : b_f(x, N_k) <= 0 for every k} (Beardon, The Geometry of
    Discrete Groups, 1983, ch. 7).  With angle = pi/p the group is
    discrete and its Dirichlet cell at any interior point is the polygon.
    """
    r = math.acosh(math.cos(angle / 2) / math.sin(math.pi / n))
    phis = 2 * math.pi * np.arange(n) / n
    normals = np.column_stack(
        [np.full(n, math.sinh(r)), math.cosh(r) * np.cos(phis), math.cosh(r) * np.sin(phis)]
    )
    return GroupData(J2, [reflection(J2, v) for v in normals]), normals


def translation_length(mat: np.ndarray) -> float:
    """Translation length of a loxodromic element: log of the spectral radius."""
    eigs = np.linalg.eigvals(mat)
    return float(max(0.0, math.log(float(np.max(np.abs(eigs))))))


def are_orthogonal(form: DiagonalForm, u, v) -> bool:
    """True iff the hyperplanes with space-like normals u and v are orthogonal:
    b_f(u, v) = 0 and they meet in H^n; exact when both normals are exact.

    The span form Gram([u,v]) must be positive definite for the
    hyperplanes to intersect; with b = 0 that reduces to both normals
    being space-like, which they are by construction.
    """
    if all(isinstance(w[0], QuadFieldElement) for w in (u, v)):
        if bilinear(form, u, v):
            return False
        return (quadratic(form, u) * quadratic(form, v)).sign_at(Embedding.IDENTITY) > 0
    b = bilinear(form, Hyperplane(form, u).normal, Hyperplane(form, v).normal)
    if abs(b) > EPS:
        return False
    det = 1.0 - b * b  # normals are scaled to f = 1
    return det > EPS


def halfspace_containing(hyperplane: Hyperplane, x) -> HalfSpace:
    """The side of `hyperplane` that holds x strictly, beyond EPS."""
    value = bilinear(hyperplane.form, x, hyperplane.normal)
    if abs(value) <= EPS:
        raise ValueError("point lies on the boundary hyperplane")
    return HalfSpace(hyperplane, 1 if value > 0 else -1)


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


def proper_labelings(edges: Sequence[tuple[int, int]], m: int) -> Iterator[tuple[str, ...]]:
    """All edge labelings giving every vertex the four distinct labels.

    This is proper 4-edge-coloring of a 4-regular graph; backtracking in
    edge order with per-vertex used-label masks.
    """
    used = [set() for _ in range(m)]
    assignment: list[str] = []

    def rec(k: int) -> Iterator[tuple[str, ...]]:
        if k == len(edges):
            yield tuple(assignment)
            return
        i, j = edges[k]
        for lab in EDGE_LABELS:
            if lab in used[i] or lab in used[j]:
                continue
            used[i].add(lab)
            used[j].add(lab)
            assignment.append(lab)
            yield from rec(k + 1)
            assignment.pop()
            used[i].remove(lab)
            used[j].remove(lab)

    yield from rec(0)


def count_proper_labelings(edges, m: int) -> int:
    """Proper 4-edge-colourings of one graph, by enumerating them."""
    return sum(1 for _ in proper_labelings(edges, m))


def bitmask_oracle(m: int, degree: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """Exhaustive enumeration over all 2^(m choose 2) adjacency bitmasks."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    incidence = np.zeros((len(pairs), m), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        incidence[k, i] = incidence[k, j] = 1
    masks = np.arange(2 ** len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))[None, :]) & 1
    degrees = bits @ incidence
    good = np.where(np.all(degrees == degree, axis=1))[0]
    out = []
    for mask in good:
        edges = tuple(pairs[k] for k in range(len(pairs)) if (int(mask) >> k) & 1)
        out.append(edges)
    return out


def base_graphs(m: int) -> list[tuple[tuple[int, int], ...]]:
    """The rows of `enumerate_base_graphs(m)`, in its order, as tuples of (i, j) pairs."""
    return [tuple(map(tuple, edges)) for edges in enumerate_base_graphs(m).tolist()]


def enumerated_counts(m_max: int, mode: str = "free") -> list[CountRow]:
    """The rows of `count_graphs`, found by enumerating every base graph.

    Free mode multiplies each graph by m roots and 4^(2m) labellings;
    proper mode adds m times the graph's proper 4-edge-colourings.
    """
    rows = []
    for m in range(5, m_max + 1):
        base = 0
        total = 0
        for edges in base_graphs(m):
            base += 1
            if mode == "free":
                total += m * 4 ** len(edges)
            else:
                total += m * count_proper_labelings(edges, m)
        rows.append(CountRow(m, base, total))
    return rows


class DecoratedGraph(NamedTuple):
    """A rooted simple 4-regular graph with edges labelled a+/a-/b+/b-."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    root: int


def enumerate_graphs(m: int, mode: str = "free") -> Iterator[DecoratedGraph]:
    """Stream of decorated graphs: every base graph, root choice and labeling.

    Free mode runs over all 4^(2m) label tuples, so consume lazily.
    Returns an empty stream (no error) below m = 5, where no simple
    4-regular graph exists.
    """
    if mode not in ("free", "proper"):
        raise ValueError("mode must be 'free' or 'proper'")
    if m < 5:
        warnings.warn("no simple 4-regular graph exists below 5 vertices")
    for edges in base_graphs(m):
        if mode == "free":
            labelings: Iterator = itertools.product(EDGE_LABELS, repeat=len(edges))
        else:
            labelings = proper_labelings(edges, m)
        for labels in labelings:
            for root in range(m):
                yield DecoratedGraph(m, edges, tuple(labels), root)


SlotRef = tuple[int, int]  # (piece index, slot index within the piece)


class Pairing(NamedTuple):
    """Two slot refs glued together, and the orientation flag of the glueing."""

    a: SlotRef
    b: SlotRef
    flag: int = 1  # +1 orientation-compatible, -1 reversing


class RefComplex(NamedTuple):
    """A glued complex as slot refs, which the oracles below read."""

    pieces: tuple[PieceInstance, ...]
    pairings: Sequence[Pairing]
    internal_joins: tuple[tuple[int, int], ...] = ()
    deck_involution: tuple[int, ...] | None = None


def glued(pieces, pairings, internal_joins=(), deck_involution=None) -> AssemblyBatch:
    """One complex, a batch of one row, whose pairings (a, b, flag) glue
    slot ref a to slot ref b.  Refuses a flag other than +1 or -1, a ref to
    no slot of the pieces and a slot named twice; a slot that no pairing
    names stays open."""
    layout = SlotLayout(tuple(pieces))
    slots = layout.slots
    partner, flag = list(range(len(layout.piece_of))), [1] * len(layout.piece_of)
    for a, b, f in pairings:
        if f not in (-1, 1):
            raise ValueError("flag must be +1 or -1")
        for piece, index in (a, b):
            if not (0 <= piece < len(slots) and 0 <= index < len(slots[piece])):
                raise ValueError(f"slot ref {(piece, index)} names no slot of the pieces")
        s, t = slots[a[0]][a[1]], slots[b[0]][b[1]]
        if s == t or partner[s] != s or partner[t] != t:
            raise ValueError(f"slot ref {a if partner[s] != s else b} is glued twice")
        partner[s], partner[t] = t, s
        flag[s] = flag[t] = 1 if f > 0 else -1
    deck = None if deck_involution is None else tuple(deck_involution)
    rows = (np.array([x], dtype=np.intp) for x in (partner, flag))
    return AssemblyBatch(layout, *rows, tuple(internal_joins), deck)


def row_refs(batch: AssemblyBatch, g: int) -> RefComplex:
    """Row g of a batch whose `partner` is an involution, read off
    `layout.slots` and `partner[g]`: its glueings in the order of their
    lower slot."""
    refs = [(i, k) for i, r in enumerate(batch.layout.slots) for k in range(len(r))]
    partner, flag = batch.partner[g].tolist(), batch.flag[g].tolist()
    pairings = tuple(Pairing(refs[s], refs[t], flag[s]) for s, t in enumerate(partner) if s < t)
    return RefComplex(batch.layout.pieces, pairings, batch.internal_joins, batch.deck_involution)


def closed_by_scan(manifold: RefComplex) -> bool:
    """Whether every slot is paired exactly once, by one scan over the slot refs.

    Refs that are pairwise distinct and as many as the slots cover every
    slot iff each of them names an existing piece and a slot below that
    piece's boundary count.
    """
    counts = [p.template.boundary_count for p in manifold.pieces]
    n = len(counts)
    refs = [p.a for p in manifold.pairings] + [p.b for p in manifold.pairings]
    return (
        len(refs) == sum(counts) == len(set(refs))
        and all(0 <= pi < n and 0 <= si < counts[pi] for pi, si in refs)
    )


def brute_force_orientable(manifold: RefComplex) -> bool:
    """Orientability of a closed complex, by trying every +-1 signing of its pieces.

    False with any non-orientable block.  Otherwise some signing must make
    each pairing's flag, and +1 on each internal join, the product of its
    endpoint signs.  Piece 0 keeps sign +1 (negating a signing keeps it
    valid), so the 2^(n-1) signings are rows of one array, checked at once.
    """
    n = len(manifold.pieces)
    if n > 20:
        raise ValueError(f"{n} pieces make too many signings to try")
    if any(not p.template.orientable for p in manifold.pieces):
        return False
    edges = [(a[0], b[0], flag) for a, b, flag in manifold.pairings]
    edges += [(i, j, 1) for i, j in manifold.internal_joins]
    i, j, flag = np.array(edges).T
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1), dtype=int), 1 - 2 * bits])
    return bool((signs[:, i] * signs[:, j] == flag).all(axis=1).any())


def components_and_signing(manifold: RefComplex) -> tuple[int, bool]:
    """Components of a closed complex's piece graph, and whether it is
    orientable, by one breadth-first search over the slot refs.

    Each pairing joins its pieces with its flag and each internal join
    joins two pieces with +1.  The search signs every piece it reaches
    with its parent's sign times the join's flag; the complex is
    orientable iff no block is non-orientable and no join meets two signs
    whose product is not its flag.
    """
    n = len(manifold.pieces)
    joins = [[] for _ in range(n)]
    for a, b, flag in manifold.pairings:
        joins[a[0]].append((b[0], flag))
        joins[b[0]].append((a[0], flag))
    for i, j in manifold.internal_joins:
        joins[i].append((j, 1))
        joins[j].append((i, 1))
    sign = [0] * n
    components = 0
    consistent = all(p.template.orientable for p in manifold.pieces)
    for start in range(n):
        if sign[start]:
            continue
        components += 1
        sign[start] = 1
        queue = [start]
        for x in queue:  # grows while it is read
            for y, flag in joins[x]:
                if not sign[y]:
                    sign[y] = sign[x] * flag
                    queue.append(y)
                elif sign[y] != sign[x] * flag:
                    consistent = False
    return components, consistent


def deck_commutes_by_refs(manifold: RefComplex) -> bool:
    """Whether the deck involution of a closed complex is a fixed-point-free
    involution of its pieces that maps each glued pair of slot refs, piece
    by piece and slot by slot, to a glued pair."""
    deck, pieces = manifold.deck_involution, manifold.pieces
    n = len(pieces)
    if deck is None or len(deck) != n or not all(0 <= d < n for d in deck):
        return False
    if any(deck[i] == i or deck[deck[i]] != i for i in range(n)):
        return False
    counts = [p.template.boundary_count for p in pieces]
    if any(counts[deck[i]] != count for i, count in enumerate(counts)):
        return False
    glued = {frozenset((a, b)) for a, b, _ in manifold.pairings}
    return all(frozenset(((deck[a[0]], a[1]), (deck[b[0]], b[1]))) in glued for a, b, _ in manifold.pairings)
