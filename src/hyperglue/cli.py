"""Batch experiment driver: forms, plane-geometry demos and counting runs.

Every run is deterministic given (flags, seed): outputs are CSV/SVG
pairs plus a manifest listing the exact parameters and exactly the files
written, all UTF-8 with "\n" line ends.  Exit codes: 0 success, 1
verification failure or refused input, 2 usage error.

The outputs are the library's own results, never recomputed here: the
certificates the counting family holds, the nesting verdicts of the
Poincare report, and the walls drawn from the spheres of the cells built.

`main` can be called repeatedly in one process, and each call gives the
same exit code, output and files as a fresh process would.  The argument
parser is built once, on the first call, and reused; the handler is
looked up on every call by the parsed command's name (`geom nesting` runs
`cmd_geom_nesting`).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import glueing, qforms, voronoi
from .hyperboloid import (
    ball_coordinates,
    basepoint,
    boundary_sphere,
    rotation_in_plane,
    translation_along,
)
from .numfield import Embedding, FieldTag, format_element, parse_element
from .qforms import (
    DiagonalForm,
    build_counting_family,
    is_admissible,
    jn_form,
    signature_at,
)
from .svgout import BallCanvas
from .voronoi import (
    FacetPairing,
    FacetType,
    GroupData,
    MarkedGeodesic,
    build_admissible_set,
    build_orbit,
    check_admissible,
    check_poincare_2d,
    classify_facets,
    dirichlet_cell,
    sphere_shrink_report,
)

# the largest --m-max of each counting mode, and why
M_MAX_CAPS = {
    "free": (
        40,
        "free-mode counting runs the degree-histogram recursion with one colour, "
        "which takes about 0.7 s at m = 40",
    ),
    "proper": (
        13,
        "proper-mode counting runs the degree-histogram recursion with four colours, "
        "which takes about 0.7 s at m = 12 and about 3 s at m = 14",
    ),
}
# the largest --samples of `geom extension`, and why
MAX_EXTENSION_SAMPLES = (
    10_000,
    "each sample writes up to two CSV rows and two SVG dots, about 330 bytes, "
    "so the cap keeps the output near 3.3 MB",
)
# --check-assemblies enumerates every base graph up to this m (481 graphs),
# one (G, 2m, 2) edge array per m (0.1 MB for the 465 graphs of m = 7, and
# 0.26 MB while it is built), and checks slices of at most 64 of its rows:
# the arrays of a batch and of its one cover peak near 0.41 MB (tracemalloc),
# where one batch of the 465 graphs for m = 7 peaks near 2.8 MB
MAX_ASSEMBLY_CHECK_M = 7
ASSEMBLY_BATCH = 64


def _f(x: float) -> str:
    return f"{float(x):.12g}"


def _command(args) -> list[str]:
    """The words of the parsed command: ["count"], ["geom", "nesting"], ..."""
    return [args.command] + ([args.subcommand] if "subcommand" in args else [])


class _OutDir:
    """A command's --out directory, made on construction, and the names written into it."""

    def __init__(self, args):
        self.path = Path(args.out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.command = " ".join(_command(args))
        self.written: list[str] = []

    def write(self, name: str, text: str):
        # UTF-8 with the text's own "\n" line ends, on every platform
        with open(self.path / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.written.append(name)

    def csv(self, name: str, header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.write(name, buf.getvalue())

    def manifest(self, params: dict):
        """Write manifest.json: the command, its parameters and every name written before it."""
        payload = {"command": self.command, "params": params, "outputs": sorted(self.written)}
        self.write("manifest.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cell_facet_rows(cell) -> list[list[str]]:
    """CSV rows describing a cell: the center, then one row per facet."""
    rows = [["center", " ".join(_f(v) for v in cell.center), "", ""]]
    for i, f in enumerate(cell.facets):
        rows.append(
            [
                f"facet{i}",
                " ".join(_f(v) for v in f.halfspace.hyperplane.normal),
                "".join(str(w) for w in f.source_word) or "seed",
                f.facet_type.value if f.facet_type else "",
            ]
        )
    return rows


# -- forms ---------------------------------------------------------------------


def cmd_forms_family(args) -> int:
    field = FieldTag.parse(args.field)
    family = build_counting_family(args.n, field)
    out = _OutDir(args)
    admissible = {label: is_admissible(form) for label, form in family.forms.items()}
    rows = []
    for label in qforms.LABELS:
        rows.append(
            [
                label,
                format_element(family.primes[label]),
                " ".join(format_element(c) for c in family.forms[label].coefficients),
                str(admissible[label]).lower(),
            ]
        )
    out.csv("family.csv", ["label", "prime", "coefficients", "admissible"], rows)
    cert_rows = []
    for la, lb in itertools.combinations(qforms.LABELS, 2):
        cert = family.certificates[(la, lb)]
        cert_rows.append(
            [la, lb, "non-equivalent" if cert.non_equivalent else "unknown", cert.reason or ""]
        )
    out.csv("certificates.csv", ["label_a", "label_b", "verdict", "reason"], cert_rows)
    out.manifest({"n": args.n, "field": field.value})
    print(f"base form: {family.base}")
    for label in qforms.LABELS:
        print(f"  {label}: prime {format_element(family.primes[label])} -> {family.forms[label]}")
    all_ok = all(admissible.values()) and all(
        c.non_equivalent for c in family.certificates.values()
    )
    print(f"six forms admissible and pairwise non-equivalent: {all_ok}")
    return 0 if all_ok else 1


def cmd_forms_check(args) -> int:
    field = FieldTag.parse(args.field)
    coeffs = tuple(parse_element(c.strip(), field) for c in args.coeffs.split(","))
    form = DiagonalForm(coeffs, field)
    verdict = is_admissible(form)
    sig = signature_at(form, Embedding.IDENTITY)
    print(f"form: {form}")
    print(f"identity signature: ({sig.positives},{sig.negatives})")
    print(f"admissible={str(verdict).lower()}")
    return 0


# -- geometry demos -------------------------------------------------------------


def cmd_geom_admissible(args) -> int:
    rng = np.random.default_rng(args.seed)
    delta = 0.4 + 0.8 * float(rng.random())
    window = 3.0 + 2.0 * float(rng.random())
    offset = 4.0 + 2.0 * float(rng.random())

    form = jn_form(2)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0])
    p2 = translation_along(form, x0, np.array([0.0, 0.0, 1.0]), delta) @ x0
    s1 = MarkedGeodesic(form, x0, e1, surface_id=1, fundamental_length=window)
    s2 = MarkedGeodesic(form, p2, e1, surface_id=2, fundamental_length=window)
    group = GroupData(form, [], marked=[s1, s2])

    sparse = voronoi.AdmissibleSet(((s1.point_at(0.0), 1), (s2.point_at(offset), 2)))
    sparse_verdict = check_admissible(sparse, group, orbit_cutoff=1)
    dense = build_admissible_set([s1, s2], group)
    dense_verdict = check_admissible(dense, group, orbit_cutoff=1)

    out = _OutDir(args)
    rows = [
        ["delta", _f(delta)],
        ["window", _f(window)],
        ["offset", _f(offset)],
        ["sparse_admissible", str(sparse_verdict.admissible).lower()],
        ["dense_admissible", str(dense_verdict.admissible).lower()],
        ["dense_points", str(len(dense.points))],
    ]
    if sparse_verdict.witness is not None:
        w = ball_coordinates(form, sparse_verdict.witness)
        rows.append(["witness_ball_x", _f(w[0])])
        rows.append(["witness_ball_y", _f(w[1])])
    out.csv("admissible.csv", ["key", "value"], rows)

    canvas = BallCanvas()
    for geo in (s1, s2):
        canvas.geodesic(boundary_sphere(form, geo.hyperplanes[0]), stroke="#1f77b4")
    for p, tag in dense.points:
        canvas.dot(ball_coordinates(form, p), radius=0.012, fill="#2ca02c")
    for p, tag in sparse.points:
        canvas.dot(ball_coordinates(form, p), radius=0.02, fill="#000000")
    if sparse_verdict.witness is not None:
        canvas.dot(
            ball_coordinates(form, sparse_verdict.witness), radius=0.02, fill="#d62728"
        )
    out.write("admissible.svg", canvas.render())
    out.manifest({"seed": args.seed, "delta": _f(delta), "window": _f(window), "offset": _f(offset)})
    print(
        f"sparse two-point set: {'admissible' if sparse_verdict else 'violation found'}"
    )
    print(f"delta/2-spaced set ({len(dense.points)} points): "
          f"{'admissible' if dense_verdict else 'violation found'}")
    ok = (not sparse_verdict.admissible) and dense_verdict.admissible
    return 0 if ok else 1


def _two_translation_cells(angle_deg: float, len_h: float, len_v: float):
    form = jn_form(2)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0])
    t_h = translation_along(form, x0, e1, len_h)
    axis_v = rotation_in_plane(form, 1, 2, math.radians(angle_deg)) @ e1
    t_v = translation_along(form, x0, axis_v, len_v)
    cell_h = dirichlet_cell(x0, build_orbit([x0], GroupData(form, [t_h]), 3))
    cell_v = dirichlet_cell(x0, build_orbit([x0], GroupData(form, [t_v]), 3))
    words_h = [f.source_word for f in cell_h.facets]
    words_v = [f.source_word for f in cell_v.facets]
    pairings = [
        FacetPairing((0, words_h.index((1,))), (0, words_h.index((0,))), t_h),
        FacetPairing((1, words_v.index((1,))), (1, words_v.index((0,))), t_v),
    ]
    return form, x0, cell_h, cell_v, pairings


def cmd_geom_nesting(args) -> int:
    form, x0, cell_h, cell_v, pairings = _two_translation_cells(
        args.angle, args.lenH, args.lenV
    )
    # both cells are centred on x0, so check (iv) decides every H/V wall pair
    report = check_poincare_2d([cell_h, cell_v], pairings)

    out = _OutDir(args)
    rows = [[f"H{i}", f"V{j}", v.value] for (_, i), (_, j), v in report.nesting]
    rows.append(["poincare", "", "pass" if report.passed else "fail"])
    out.csv("nesting.csv", ["wall_a", "wall_b", "verdict"], rows)
    cell_rows = []
    for name, cell in (("H", cell_h), ("V", cell_v)):
        for row in _cell_facet_rows(cell):
            cell_rows.append([name] + row)
    out.csv("cells.csv", ["cell", "item", "data", "word", "type"], cell_rows)

    canvas = BallCanvas()
    for f in cell_h.facets:
        canvas.geodesic(boundary_sphere(form, f.halfspace.hyperplane), stroke="#d62728")
    for f in cell_v.facets:
        canvas.geodesic(boundary_sphere(form, f.halfspace.hyperplane), stroke="#2ca02c")
    canvas.dot(ball_coordinates(form, x0), radius=0.015)
    out.write("nesting.svg", canvas.render())
    out.manifest({"angle": args.angle, "lenH": args.lenH, "lenV": args.lenV})

    if report.nested_pairs:
        print("nested pair found")
        print(report.summary())
    else:
        print(f"no nesting, Poincare {'pass' if report.passed else 'fail'}")
    return 0


def cmd_geom_shrink(args) -> int:
    r_list = [float(x) for x in args.R.split(",") if x.strip()]
    report = sphere_shrink_report(r_list, spacing=args.spacing)
    out = _OutDir(args)
    rows = []
    for idx, row in enumerate(report.rows):
        rows.append(
            [_f(row.r), _f(row.first_radius), _f(row.second_radius),
             _f(report.shrink_factors[idx - 1]) if idx else ""]
        )
    out.csv("shrink.csv", ["R", "first_type_radius", "second_type_radius", "shrink_factor"], rows)

    canvas = BallCanvas()
    # each wall is drawn from the sphere its cell computed, in the vertical
    # plane {x2 = 0} at its (x1, x3) centre: the first-type walls, which do
    # not move with R, from the first row, and the second-type walls of every row
    for idx, row in enumerate(report.rows):
        for sphere, kind in row.spheres:
            if kind is FacetType.SECOND or idx == 0:
                stroke = "#2ca02c" if kind is FacetType.SECOND else "#d62728"
                canvas.circle(sphere.center[[0, 2]], sphere.radius, stroke=stroke)
    out.write("shrink.svg", canvas.render())
    out.manifest({"R": r_list, "spacing": args.spacing})
    print(f"second-type radii: {[_f(r.second_radius) for r in report.rows]}")
    print(f"strictly decreasing: {report.second_strictly_decreasing}; "
          f"first-type constant: {report.first_constant}")
    return 0 if (report.second_strictly_decreasing and report.first_constant) else 1


def cmd_geom_extension(args) -> int:
    cap, why = MAX_EXTENSION_SAMPLES
    if not 0 <= args.samples <= cap:
        print(f"error: --samples must lie in 0..{cap}: {why}", file=sys.stderr)
        return 2
    length = args.length
    form = jn_form(2)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0])
    t = translation_along(form, x0, e1, length)
    group = GroupData(form, [t], marked=[MarkedGeodesic(form, x0, e1, 0, length)])
    cell = dirichlet_cell(x0, build_orbit([x0], group, 3))
    cell = classify_facets(cell, group.marked)
    ext = voronoi.orthogonal_extension(cell, args.q)

    # sample the two ideal caps over the base strip and project them back
    rng = np.random.default_rng(args.seed)
    samples = []
    # the strip's half-width in the Poincare disk; in the Klein model it is tanh(L/2)
    half = math.tanh(length / 4.0)
    for _ in range(args.samples):
        k1 = (2.0 * float(rng.random()) - 1.0) * half
        k2 = (2.0 * float(rng.random()) - 1.0) * 0.9
        if k1 * k1 + k2 * k2 >= 1.0 - 1e-9:
            continue
        k3 = math.sqrt(1.0 - k1 * k1 - k2 * k2)
        for sign in (1.0, -1.0):
            ideal = np.array([1.0, k1, k2, sign * k3])
            base_proj = np.array([k1, k2])
            samples.append((ideal, base_proj, sign))

    rows = []
    for f in ext.facets:
        n = f.halfspace.hyperplane.normal
        rows.append(
            ["wall", " ".join(_f(v) for v in n), f.facet_type.value if f.facet_type else ""]
        )
    for ideal, base_proj, sign in samples:
        rows.append(
            [
                "ideal-sample",
                " ".join(_f(v) for v in ideal),
                f"cap{'+' if sign > 0 else '-'} base {_f(base_proj[0])} {_f(base_proj[1])}",
            ]
        )
    out = _OutDir(args)
    out.csv("extension.csv", ["kind", "data", "note"], rows)

    canvas = BallCanvas()
    canvas.line((-1.0, 0.0), (1.0, 0.0), stroke="#1f77b4")  # the base hyperplane, side view
    for f in ext.facets:
        sphere = boundary_sphere(ext.form, f.halfspace.hyperplane)
        canvas.circle(sphere.center[[0, 2]], sphere.radius, stroke="#d62728")
    for ideal, base_proj, sign in samples:
        # side view: (x1, x3) coordinates of the ideal point
        canvas.dot((ideal[1], ideal[3]), radius=0.008, fill="#2ca02c")
    out.write("extension.svg", canvas.render())
    out.manifest({"length": length, "q": args.q, "seed": args.seed, "samples": args.samples})
    types = [f.facet_type for f in ext.facets]
    print(f"extended cell: {len(ext.facets)} walls, inherited types "
          f"{[t.value if t else '?' for t in types]}")
    print(f"ideal boundary sampled on two conformal copies of the base cell "
          f"({len(samples)} points)")
    return 0


# -- counting -------------------------------------------------------------------


def _m_range(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"{lo}..{hi}"


def cmd_count(args) -> int:
    cap, why = M_MAX_CAPS[args.mode]
    if args.m_max > cap:
        print(f"error: --m-max is capped at {cap}: {why}", file=sys.stderr)
        return 2
    out = _OutDir(args)
    rows = glueing.count_graphs(args.m_max, args.mode)
    csv_rows = [[r.m, r.base_count, r.rooted_labelled] for r in rows]
    out.csv("counts.csv", ["m", "base_count", "rooted_labelled"], csv_rows)

    if args.m_max < 5:
        print("warning: no simple 4-regular graph exists below 5 vertices; table is empty")

    failures = []
    if args.check_assemblies:
        checked_max = min(args.m_max, MAX_ASSEMBLY_CHECK_M)
        checked = 0
        for m in range(5, checked_max + 1):
            # a 4-regular graph on m vertices has 2m edges
            labels = tuple(glueing.EDGE_LABELS[k % 4] for k in range(2 * m))
            graphs = glueing.enumerate_base_graphs(m)
            for start in range(0, len(graphs), ASSEMBLY_BATCH):
                edges = graphs[start:start + ASSEMBLY_BATCH]
                checked += len(edges)
                base = glueing.assemble_batch(m, edges, 0, labels)
                cover = base.cover
                vertex_slots, edge_slots = np.hsplit(base.partner, [4 * m])
                doubled = glueing.volume(cover) == 2 * glueing.volume(base)
                # (name, passed per graph, whether a failure skips the graph's later checks)
                checks = [
                    ("assembly not closed", base.closed(), True),
                    # every glueing joins a vertex-block slot (below 4m) to an edge-block slot
                    ("glueing not between a vertex block and an edge block",
                     (vertex_slots >= 4 * m).all(1) & (edge_slots < 4 * m).all(1), False),
                    ("assembly unexpectedly orientable", ~base.orientable(), False),
                    ("double cover not closed", cover.closed(), True),
                    ("double cover not orientable", cover.orientable(), False),
                    ("double cover not connected", cover.components <= 1, False),
                    ("deck involution not free or not commuting", cover.deck_free(), False),
                    ("cover volume not doubled", np.full(len(edges), doubled), False),
                ]
                failed = ~np.column_stack([passed for _, passed, _ in checks])
                stops = np.cumsum(failed & [stop for *_, stop in checks], axis=1)
                failed[:, 1:] &= stops[:, :-1] == 0
                # graph by graph, and check by check within a graph
                failures += [f"m={m}: {checks[k][0]}" for k in np.nonzero(failed)[1]]
        if not checked:
            print("assembly checks: nothing checked (no simple 4-regular graph below 5 vertices)")
        else:
            scope = f"{checked} graph{'s' * (checked != 1)}, m = {_m_range(5, checked_max)}"
            if args.m_max > checked_max:
                scope += f"; m = {_m_range(checked_max + 1, args.m_max)} not checked"
            verdict = "all passed" if not failures else f"{len(failures)} failures"
            print(f"assembly checks: {verdict} ({scope})")

    fit_note = ""
    positive_rows = {r.m: r.rooted_labelled for r in rows if r.rooted_labelled > 0}
    if len(positive_rows) >= 3:
        fit = glueing.growth_fit(positive_rows)
        fit_note = f"growth fit: c = {_f(fit.c)}"
        max_res = max(abs(v) for v in fit.residuals.values())
        fit_note += f", max |residual| = {_f(max_res)}"
        if fit.degenerate:
            fit_note += " (degenerate: counts do not grow)"
        print(fit_note)
    out.manifest(
        {"m_max": args.m_max, "mode": args.mode, "check_assemblies": bool(args.check_assemblies)}
    )
    for r in rows:
        print(f"m={r.m}: base={r.base_count} rooted+labelled={r.rooted_labelled}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    return 0


# -- argument plumbing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperglue",
        description="workbench for admissible forms, plane Voronoi demos and glueing counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forms = sub.add_parser("forms", help="quadratic form constructions")
    forms_sub = forms.add_subparsers(dest="subcommand", required=True)
    fam = forms_sub.add_parser("family", help="build the six-prime counting family")
    fam.add_argument("--n", type=int, required=True, help="dimension of the extended forms")
    fam.add_argument("--field", default="Q", help="Q or Q(sqrt2)")
    fam.add_argument("--out", default="out", help="output directory")
    chk = forms_sub.add_parser("check", help="check admissibility of a diagonal form")
    chk.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    chk.add_argument("--field", default="Q")

    geom = sub.add_parser("geom", help="plane geometry demos")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)

    adm = geom_sub.add_parser("admissible", help="admissible vs sparse point sets")
    adm.add_argument("--seed", type=int, default=0)
    adm.add_argument("--out", default="out")

    nst = geom_sub.add_parser("nesting", help="nested vs crossing bounding walls")
    nst.add_argument("--angle", type=float, required=True, help="angle between axes, degrees")
    nst.add_argument("--lenH", type=float, required=True)
    nst.add_argument("--lenV", type=float, required=True)
    nst.add_argument("--out", default="out")

    shr = geom_sub.add_parser("shrink", help="boundary spheres as R grows")
    shr.add_argument("--R", required=True, help="comma-separated increasing R values")
    shr.add_argument("--spacing", type=float, default=2.0)
    shr.add_argument("--out", default="out")

    ext = geom_sub.add_parser("extension", help="orthogonal extension of a strip")
    ext.add_argument("--length", type=float, default=2.0)
    ext.add_argument("--q", type=float, default=1.0)
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--samples", type=int, default=40)
    ext.add_argument("--out", default="out")

    cnt = sub.add_parser("count", help="graph counting and assembly checks")
    cnt.add_argument("--m-max", type=int, required=True, dest="m_max")
    cnt.add_argument("--mode", choices=["free", "proper"], default="free")
    cnt.add_argument("--check-assemblies", action="store_true")
    cnt.add_argument("--out", default="out")

    return parser


def _preprocess(argv):
    # argparse treats "-1,1,1" as an option string; fold values of --coeffs
    # into the --coeffs=... form so negative leading coefficients parse
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--coeffs" and i + 1 < len(argv):
            out.append(f"--coeffs={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(_preprocess(argv))
    # look the handler up now, not when the parser was built, so that a
    # rebound `cmd_*` (a test's monkeypatch, a tracer) is the one that runs
    handler = globals()["cmd_" + "_".join(_command(args))]
    try:
        return handler(args)
    except (ValueError, OSError, voronoi.UndecidableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
