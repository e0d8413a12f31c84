"""Ball-model SVG output: geodesic arcs, their SVG flags and the disk boundary."""

import math
import re

import numpy as np
import pytest

from hyperglue.hyperboloid import Hyperplane, boundary_sphere
from hyperglue.qforms import jn_form
from hyperglue.svgout import BallCanvas

J2 = jn_form(2)
BOUNDARY = (
    '<circle cx="0" cy="0" r="1" fill="none" stroke="#222222" stroke-width="0.012000"/>'
)
_NUM = r"(-?\d+\.\d+)"
PATH_RE = re.compile(
    rf'^<path d="M {_NUM} {_NUM} A {_NUM} {_NUM} 0 ([01]) ([01]) {_NUM} {_NUM}" '
)


def space_like_normals(seed: int, log_time: tuple[float, float], count: int = 200):
    """Seeded normals (t, s cos phi, s sin phi) with f = -t^2 + s^2 = 1.

    |t| near 0 gives hyperplanes near a diameter (large circles);
    large |t| gives hyperplanes near an ideal point (small circles).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = 10.0 ** rng.uniform(*log_time) * rng.choice([-1.0, 1.0])
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 + t * t)
        yield np.array([t, s * math.cos(phi), s * math.sin(phi)])


def svg_arc_midpoint(x1, y1, r, large, sweep, x2, y2) -> np.ndarray:
    """Midpoint of the arc an SVG renderer draws, in SVG coordinates.

    Endpoint-to-center conversion of the SVG 1.1 implementation notes
    (F.6.5) for a circle (rx = ry = r, no rotation), radii scaled up when
    the endpoints are too far apart.
    """
    hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    half_sq = hx * hx + hy * hy
    r = max(r, math.sqrt(half_sq))
    coef = math.sqrt(max(0.0, (r * r - half_sq) / half_sq))
    if large == sweep:
        coef = -coef
    cx, cy = coef * hy, -coef * hx
    theta1 = math.atan2(hy - cy, hx - cx)
    delta = math.atan2(-hy - cy, -hx - cx) - theta1
    if sweep == 0 and delta > 0:
        delta -= 2.0 * math.pi
    elif sweep == 1 and delta < 0:
        delta += 2.0 * math.pi
    mid = theta1 + delta / 2.0
    return np.array(
        [cx + (x1 + x2) / 2.0 + r * math.cos(mid), cy + (y1 + y2) / 2.0 + r * math.sin(mid)]
    )


def drawn_arc(normal):
    sphere = boundary_sphere(J2, Hyperplane(J2, normal))
    canvas = BallCanvas()
    canvas.geodesic(sphere)
    assert len(canvas.elements) == 2
    m = PATH_RE.match(canvas.elements[1])
    assert m, canvas.elements[1]
    x1, y1, rx, ry, large, sweep, x2, y2 = m.groups()
    return sphere, [float(v) for v in (x1, y1, rx, ry, x2, y2)], (int(large), int(sweep))


@pytest.mark.parametrize(
    "seed, log_time",
    [(1, (-6.0, -1.0)), (2, (-1.0, 1.0)), (3, (1.0, 2.5))],
    ids=["near-diameter", "middle", "near-ideal"],
)
class TestGeodesicArc:
    def test_endpoints_and_radius(self, seed, log_time):
        for normal in space_like_normals(seed, log_time):
            sphere, (x1, y1, rx, ry, x2, y2), _ = drawn_arc(normal)
            assert abs(math.hypot(x1, y1) - 1.0) <= 2e-6
            assert abs(math.hypot(x2, y2) - 1.0) <= 2e-6
            assert rx == ry == float(f"{sphere.radius:.6f}")

    def test_drawn_arc_is_the_minor_arc_inside_the_disk(self, seed, log_time):
        for normal in space_like_normals(seed, log_time):
            sphere, (x1, y1, r, _, x2, y2), flags = drawn_arc(normal)
            sx, sy = svg_arc_midpoint(x1, y1, r, *flags, x2, y2)
            mid = np.array([sx, -sy])  # back from the flipped svg y axis
            assert np.linalg.norm(mid) < 1.0
            # and it bulges from the chord toward the origin, away from the center
            chord_mid = np.array([x1 + x2, -(y1 + y2)]) / 2.0
            assert np.dot(mid - chord_mid, sphere.center) <= 2e-6


def test_plane_through_the_center_is_a_diameter():
    canvas = BallCanvas()
    canvas.geodesic(boundary_sphere(J2, Hyperplane(J2, np.array([0.0, 0.6, 0.8]))))
    assert canvas.elements[1].startswith(
        '<line x1="-0.800000" y1="-0.600000" x2="0.800000" y2="0.600000" '
    )


def test_disk_boundary_is_drawn_once_and_first():
    empty = BallCanvas().render()
    assert empty.count('r="1"') == 1
    assert empty.splitlines()[3] == BOUNDARY

    canvas = BallCanvas()
    canvas.circle((0.5, 0.0), 0.2)
    canvas.dot((0.0, 0.0))
    lines = canvas.render().splitlines()
    assert lines[3] == BOUNDARY
    assert lines.count(BOUNDARY) == 1
