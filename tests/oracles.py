"""Shared brute-force oracles and desk configurations for the test suite."""

import math

import numpy as np
from scipy.optimize import linprog

from hyperglue.hyperboloid import (
    HalfSpace,
    basepoint,
    bisector,
    float_coefficients,
    isometry_inverse,
    jn_chart,
    normalize_point,
    rotation_in_plane,
    translation_along,
)
from hyperglue.qforms import jn_form
from hyperglue.voronoi import (
    _BOX_CAP,
    _FEAS_EPS,
    CellFacet,
    GroupData,
    OrbitSet,
    VoronoiCell,
    _centering_isometry,
    _klein_lift,
    build_orbit,
    dirichlet_cell,
)

J2 = jn_form(2)
E1 = np.array([0.0, 1.0, 0.0])
E2 = np.array([0.0, 0.0, 1.0])


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
    move = _centering_isometry(form, cell.center)
    return np.array([move @ _klein_lift(form, k) for k in ks])


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
