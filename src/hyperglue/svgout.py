"""Hand-rolled SVG emitter for ball-model figures.

Unit-disk viewBox; geodesics are drawn as circular arcs orthogonal to
the boundary circle (or as diameters).  All numbers are formatted with a
fixed precision so identical scenes produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

_STROKE_WIDTH = "0.008000"


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


class BallCanvas:
    """Collects SVG elements over the unit disk (y axis flipped for screen)."""

    def __init__(self):
        # every figure starts with the disk boundary
        self.elements: list[str] = [
            '<circle cx="0" cy="0" r="1" fill="none" stroke="#222222" '
            'stroke-width="0.012000"/>'
        ]

    def _pt(self, p) -> tuple[str, str]:
        return _fmt(float(p[0])), _fmt(-float(p[1]))

    def circle(self, center, radius: float, stroke: str = "#444444"):
        cx, cy = self._pt(center)
        self.elements.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_fmt(radius)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_STROKE_WIDTH}"/>'
        )

    def line(self, p, q, stroke: str = "#444444"):
        x1, y1 = self._pt(p)
        x2, y2 = self._pt(q)
        self.elements.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{_STROKE_WIDTH}"/>'
        )

    def dot(self, p, radius: float = 0.015, fill: str = "#000000"):
        cx, cy = self._pt(p)
        self.elements.append(
            f'<circle cx="{cx}" cy="{cy}" r="{_fmt(radius)}" fill="{fill}"/>'
        )

    def geodesic(self, sphere, stroke: str = "#444444"):
        """Draw a plane geodesic from its boundary-sphere data.

        `sphere` is a BoundarySphere in the plane: a diameter when it is
        a plane through the center, otherwise the arc of the orthogonal
        circle inside the unit disk.
        """
        if sphere.is_plane:
            n = np.asarray(sphere.center, dtype=float)
            d = np.array([-n[1], n[0]])
            self.line(d, -d, stroke=stroke)
            return
        c = np.asarray(sphere.center, dtype=float)
        r = float(sphere.radius)
        d = float(np.linalg.norm(c))
        a = (d * d + 1.0 - r * r) / (2.0 * d)
        h_sq = 1.0 - a * a
        if h_sq <= 0:
            return
        h = math.sqrt(h_sq)
        chat = c / d
        perp = np.array([-chat[1], chat[0]])
        e1 = a * chat + h * perp
        e2 = a * chat - h * perp
        # the circle is orthogonal to the unit circle, so the positive-angle
        # sweep from e1 to e2 is the minor arc inside the disk; svg's y axis
        # points down, so that sweep renders with both flags 0
        x1, y1 = self._pt(e1)
        x2, y2 = self._pt(e2)
        self.elements.append(
            f'<path d="M {x1} {y1} A {_fmt(r)} {_fmt(r)} 0 0 0 {x2} {y2}" '
            f'fill="none" stroke="{stroke}" stroke-width="{_STROKE_WIDTH}"/>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" width="600" '
            'height="600" viewBox="-1.1 -1.1 2.2 2.2">\n'
            '<rect x="-1.1" y="-1.1" width="2.2" height="2.2" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"
