"""End-to-end pipeline in the 3-space: horizontal/vertical cell interplay.

The construction glues the decomposition of the horizontal plane H
(extended orthogonally) with the decompositions of vertical planes,
sharing the walls cut along the common geodesic.  These tests drive the
whole stack: orbits -> cells -> orthogonal extension -> facet types ->
nesting verdicts.
"""

import math

import numpy as np

from hyperglue.hyperboloid import (
    HalfSpace,
    NestingVerdict,
    basepoint,
    translation_along,
)
from hyperglue.qforms import jn_form
from hyperglue.voronoi import (
    FacetType,
    GroupData,
    MarkedGeodesic,
    build_orbit,
    classify_facets,
    dirichlet_cell,
    orthogonal_extension,
)

from oracles import are_nested, are_orthogonal, bisector

J2 = jn_form(2)
J3 = jn_form(3)
X0_2 = np.array([1.0, 0.0, 0.0])
X0_3 = np.array([1.0, 0.0, 0.0, 0.0])
E1_2 = np.array([0.0, 1.0, 0.0])
E1_3 = np.array([0.0, 1.0, 0.0, 0.0])
E3_3 = np.array([0.0, 0.0, 0.0, 1.0])

SPACING = 2.0


def horizontal_cell_extended():
    """Strip cell of the shared-geodesic translation in H, extended to 3-space."""
    t_s = translation_along(J2, X0_2, E1_2, SPACING)
    orbit = build_orbit([X0_2], GroupData(J2, [t_s]), 3)
    cell = dirichlet_cell(X0_2, orbit)
    cell = classify_facets(cell, [MarkedGeodesic(J2, X0_2, E1_2, 0, SPACING)])
    return orthogonal_extension(cell, 1)


def vertical_cell(r_length: float, tilt: float = 0.0):
    """Cell of the vertical plane's decomposition at the shared center.

    The stabilizer combines the shared-geodesic translation (length
    SPACING) with a translation of length r_length along an axis at
    `tilt` radians from the vertical direction inside the plane
    {x_2 = 0}.
    """
    axis = math.cos(tilt) * E3_3 + math.sin(tilt) * E1_3
    t_s = translation_along(J3, X0_3, E1_3, SPACING)
    t_r = translation_along(J3, X0_3, axis, r_length)
    marked = MarkedGeodesic(J3, X0_3, E1_3, 0, SPACING)
    group = GroupData(J3, [t_s, t_r], marked=[marked])
    orbit = build_orbit([X0_3], group, 2)
    cell = dirichlet_cell(X0_3, orbit, prune_radius=max(SPACING, r_length) / 2.0 + 1.0)
    return classify_facets(
        cell, [marked], box_radius=max(SPACING, r_length) / 2.0 + 1.0
    )


def test_horizontal_and_vertical_planes_are_orthogonal():
    assert are_orthogonal(J3, E3_3, np.array([0.0, 0.0, 1.0, 0.0]))


def test_first_type_walls_coincide_across_decompositions():
    # the wall cut along the shared geodesic is the same hyperplane whether
    # computed inside H and extended, computed in the ambient space, or
    # found among the vertical cell's first-type facets
    ext = horizontal_cell_extended()
    t_s = translation_along(J3, X0_3, E1_3, SPACING)
    ambient = bisector(J3, X0_3, t_s @ X0_3)

    ext_walls = [f.halfspace.hyperplane for f in ext.facets]
    assert any(h.same_as(ambient) for h in ext_walls)

    vert = vertical_cell(8.0)
    first_walls = [
        f.halfspace.hyperplane
        for f in vert.facets
        if f.facet_type is FacetType.FIRST
    ]
    assert any(h.same_as(ambient) for h in first_walls)


def test_extended_first_type_walls_match_vertical_first_type():
    ext = horizontal_cell_extended()
    vert = vertical_cell(8.0)
    ext_first = sorted(
        tuple(np.round(f.halfspace.hyperplane.normal, 8))
        for f in ext.facets
        if f.facet_type is FacetType.FIRST
    )
    vert_first = sorted(
        tuple(np.round(f.halfspace.hyperplane.normal, 8))
        for f in vert.facets
        if f.facet_type is FacetType.FIRST
    )
    assert ext_first == vert_first


def test_orthogonal_planes_never_nest():
    # same-center cells of the horizontal and a genuinely vertical plane:
    # no pair of bounding walls nests, however large R gets
    ext = horizontal_cell_extended()
    for r_length in (4.0, 8.0, 16.0):
        vert = vertical_cell(r_length)
        for fh in ext.facets:
            for fv in vert.facets:
                verdict = are_nested(J3, fh.halfspace, fv.halfspace, X0_3)
                assert verdict in (
                    NestingVerdict.DISJOINT_NOT_NESTED,
                    NestingVerdict.CROSSING,
                    NestingVerdict.EQUAL,
                ), f"R={r_length}: unexpected {verdict}"


def test_oblique_axis_eventually_nests():
    # tilting the R-axis toward the shared geodesic reproduces the nesting
    # obstruction in the 3-space pipeline
    ext = horizontal_cell_extended()
    vert = vertical_cell(10.0, tilt=math.radians(30.0))
    verdicts = {
        are_nested(J3, fh.halfspace, fv.halfspace, X0_3)
        for fh in ext.facets
        for fv in vert.facets
    }
    assert NestingVerdict.NESTED in verdicts


def test_second_type_walls_separate_from_horizontal_cell():
    # with R large, the vertical cell's second-type walls are disjoint from
    # the extended horizontal cell's walls (the shrinking-sphere mechanism)
    ext = horizontal_cell_extended()
    vert = vertical_cell(12.0)
    for fv in vert.facets:
        if fv.facet_type is not FacetType.SECOND:
            continue
        for fh in ext.facets:
            verdict = are_nested(J3, fh.halfspace, fv.halfspace, X0_3)
            assert verdict is NestingVerdict.DISJOINT_NOT_NESTED
