"""Batch experiment driver: forms, plane-geometry demos and counting runs.

Every run is deterministic given (flags, seed): outputs are CSV/SVG
pairs plus a manifest listing the exact parameters.  Exit codes: 0
success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import glueing, qforms, voronoi
from .hyperboloid import (
    NestingVerdict,
    are_nested,
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
    equivalence_certificate,
    is_admissible,
    jn_form,
    signature_at,
)
from .svgout import BallCanvas
from .voronoi import (
    FacetPairing,
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

MAX_EXHAUSTIVE_M = 9
# --check-assemblies enumerates every base graph up to this m (481 graphs)
MAX_ASSEMBLY_CHECK_M = 7


def _f(x: float) -> str:
    return f"{float(x):.12g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out: Path, command: str, params: dict, outputs: list[str]):
    payload = {"command": command, "params": params, "outputs": sorted(outputs)}
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- forms ---------------------------------------------------------------------


def cmd_forms_family(args) -> int:
    field = FieldTag.parse(args.field)
    family = build_counting_family(args.n, field)
    out = _ensure_out(args)
    rows = []
    for label in qforms.LABELS:
        form = family.forms[label]
        rows.append(
            [
                label,
                format_element(family.primes[label]),
                " ".join(format_element(c) for c in form.coefficients),
                str(is_admissible(form)).lower(),
            ]
        )
    _write_csv(out / "family.csv", ["label", "prime", "coefficients", "admissible"], rows)
    cert_rows = []
    labels = list(qforms.LABELS)
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            cert = equivalence_certificate(family.forms[la], family.forms[lb])
            cert_rows.append(
                [la, lb, "non-equivalent" if cert.non_equivalent else "unknown", cert.reason or ""]
            )
    _write_csv(out / "certificates.csv", ["label_a", "label_b", "verdict", "reason"], cert_rows)
    _write_manifest(
        out,
        "forms family",
        {"n": args.n, "field": field.value},
        ["family.csv", "certificates.csv"],
    )
    print(f"base form: {family.base}")
    for label in qforms.LABELS:
        print(f"  {label}: prime {format_element(family.primes[label])} -> {family.forms[label]}")
    all_ok = all(is_admissible(f) for f in family.forms.values()) and all(
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


def _geodesic_sphere(form, geo: MarkedGeodesic):
    return boundary_sphere(form, geo.hyperplanes()[0])


def cmd_geom_admissible(args) -> int:
    rng = np.random.default_rng(args.seed)
    delta = 0.4 + 0.8 * float(rng.random())
    window = 3.0 + 2.0 * float(rng.random())
    offset = 4.0 + 2.0 * float(rng.random())

    form = jn_form(2)
    x0 = basepoint(form)
    e1 = np.array([0.0, 1.0, 0.0])
    p2 = np.array([math.cosh(delta), 0.0, math.sinh(delta)])
    s1 = MarkedGeodesic(form, x0, e1, surface_id=1, fundamental_length=window)
    s2 = MarkedGeodesic(form, p2, e1, surface_id=2, fundamental_length=window)
    group = GroupData(form, [], marked=[s1, s2])

    sparse = voronoi.AdmissibleSet(((s1.point_at(0.0), 1), (s2.point_at(offset), 2)))
    sparse_verdict = check_admissible(sparse, group, orbit_cutoff=1)
    dense = build_admissible_set([s1, s2], group)
    dense_verdict = check_admissible(dense, group, orbit_cutoff=1)

    out = _ensure_out(args)
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
    _write_csv(out / "admissible.csv", ["key", "value"], rows)

    canvas = BallCanvas()
    canvas.disk_boundary()
    canvas.geodesic(_geodesic_sphere(form, s1), stroke="#1f77b4")
    canvas.geodesic(_geodesic_sphere(form, s2), stroke="#1f77b4")
    for p, tag in dense.points:
        canvas.dot(ball_coordinates(form, p), radius=0.012, fill="#2ca02c")
    for p, tag in sparse.points:
        canvas.dot(ball_coordinates(form, p), radius=0.02, fill="#000000")
    if sparse_verdict.witness is not None:
        canvas.dot(
            ball_coordinates(form, sparse_verdict.witness), radius=0.02, fill="#d62728"
        )
    canvas.save(out / "admissible.svg")
    _write_manifest(
        out,
        "geom admissible",
        {"seed": args.seed, "delta": _f(delta), "window": _f(window), "offset": _f(offset)},
        ["admissible.csv", "admissible.svg"],
    )
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
    report = check_poincare_2d([cell_h, cell_v], pairings)

    verdicts = []
    for i, fh in enumerate(cell_h.facets):
        for j, fv in enumerate(cell_v.facets):
            verdict = are_nested(form, fh.halfspace, fv.halfspace, x0)
            verdicts.append((i, j, verdict))

    out = _ensure_out(args)
    rows = [
        [
            f"H{i}",
            f"V{j}",
            v.value,
        ]
        for i, j, v in verdicts
    ]
    rows.append(["poincare", "", "pass" if report.passed else "fail"])
    _write_csv(out / "nesting.csv", ["wall_a", "wall_b", "verdict"], rows)
    cell_rows = []
    for name, cell in (("H", cell_h), ("V", cell_v)):
        for row in voronoi.cell_facet_rows(cell):
            cell_rows.append([name] + row)
    _write_csv(out / "cells.csv", ["cell", "item", "data", "word", "type"], cell_rows)

    canvas = BallCanvas()
    canvas.disk_boundary()
    for f in cell_h.facets:
        canvas.geodesic(boundary_sphere(form, f.halfspace.hyperplane), stroke="#d62728")
    for f in cell_v.facets:
        canvas.geodesic(boundary_sphere(form, f.halfspace.hyperplane), stroke="#2ca02c")
    canvas.dot(ball_coordinates(form, x0), radius=0.015)
    canvas.save(out / "nesting.svg")
    _write_manifest(
        out,
        "geom nesting",
        {"angle": args.angle, "lenH": args.lenH, "lenV": args.lenV},
        ["nesting.csv", "cells.csv", "nesting.svg"],
    )

    nested_found = any(v is NestingVerdict.NESTED for _, _, v in verdicts)
    if nested_found:
        print("nested pair found")
        print(report.summary())
    else:
        print(f"no nesting, Poincare {'pass' if report.passed else 'fail'}")
    return 0


def cmd_geom_shrink(args) -> int:
    r_list = [float(x) for x in args.R.split(",") if x.strip()]
    report = sphere_shrink_report(r_list, spacing=args.spacing)
    out = _ensure_out(args)
    rows = []
    for idx, row in enumerate(report.rows):
        factor = report.shrink_factors[idx - 1] if idx > 0 else ""
        rows.append(
            [_f(row.r), _f(row.first_radius), _f(row.second_radius),
             _f(factor) if factor != "" else ""]
        )
    _write_csv(
        out / "shrink.csv",
        ["R", "first_type_radius", "second_type_radius", "shrink_factor"],
        rows,
    )

    canvas = BallCanvas()
    canvas.disk_boundary()
    # the vertical plane's ideal circle is the drawing plane's unit circle;
    # first-type circles sit on the marked-geodesic axis, second-type on the
    # orthogonal axis and shrink with R
    s = report.spacing
    canvas.circle(
        (1.0 / math.tanh(s / 2.0), 0.0), 1.0 / math.sinh(s / 2.0), stroke="#d62728"
    )
    canvas.circle(
        (-1.0 / math.tanh(s / 2.0), 0.0), 1.0 / math.sinh(s / 2.0), stroke="#d62728"
    )
    for row in report.rows:
        c = 1.0 / math.tanh(row.r / 2.0)
        canvas.circle((0.0, c), row.second_radius, stroke="#2ca02c")
        canvas.circle((0.0, -c), row.second_radius, stroke="#2ca02c")
    canvas.save(out / "shrink.svg")
    _write_manifest(
        out,
        "geom shrink",
        {"R": r_list, "spacing": args.spacing},
        ["shrink.csv", "shrink.svg"],
    )
    print(f"second-type radii: {[_f(r.second_radius) for r in report.rows]}")
    print(f"strictly decreasing: {report.second_strictly_decreasing}; "
          f"first-type constant: {report.first_constant}")
    return 0 if (report.second_strictly_decreasing and report.first_constant) else 1


def cmd_geom_extension(args) -> int:
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
    half = math.tanh(length / 4.0)  # klein half-width of the strip
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
    out = _ensure_out(args)
    _write_csv(out / "extension.csv", ["kind", "data", "note"], rows)

    canvas = BallCanvas()
    canvas.disk_boundary()
    canvas.line((-1.0, 0.0), (1.0, 0.0), stroke="#1f77b4")  # the base hyperplane, side view
    wall = 1.0 / math.tanh(length / 2.0)
    radius = 1.0 / math.sinh(length / 2.0)
    canvas.circle((wall, 0.0), radius, stroke="#d62728")
    canvas.circle((-wall, 0.0), radius, stroke="#d62728")
    for ideal, base_proj, sign in samples:
        # side view: (x1, x3) coordinates of the ideal point
        canvas.dot((ideal[1], ideal[3]), radius=0.008, fill="#2ca02c")
    canvas.save(out / "extension.svg")
    _write_manifest(
        out,
        "geom extension",
        {"length": length, "q": args.q, "seed": args.seed, "samples": args.samples},
        ["extension.csv", "extension.svg"],
    )
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
    if args.m_max > MAX_EXHAUSTIVE_M:
        print(
            f"error: --m-max is capped at {MAX_EXHAUSTIVE_M}: proper-mode counting "
            "backtracks over perfect matchings and takes over a minute from m = 10 on",
            file=sys.stderr,
        )
        return 2
    out = _ensure_out(args)
    rows = glueing.count_graphs(args.m_max, args.mode)
    csv_rows = [[r.m, r.base_count, r.rooted_labelled] for r in rows]
    _write_csv(out / "counts.csv", ["m", "base_count", "rooted_labelled"], csv_rows)
    outputs = ["counts.csv"]

    if args.m_max < 5:
        print("warning: no simple 4-regular graph exists below 5 vertices; table is empty")

    failures = []
    if args.check_assemblies:
        checked_max = min(args.m_max, MAX_ASSEMBLY_CHECK_M)
        checked = 0
        for m in range(5, checked_max + 1):
            for edges in glueing.enumerate_base_graphs(m):
                checked += 1
                labels = tuple(
                    glueing.EDGE_LABELS[k % 4] for k in range(len(edges))
                )
                graph = glueing.GlueingGraph(m, edges, labels, root=0)
                assembled = glueing.assemble(graph)
                if not assembled.is_closed():
                    failures.append(f"m={m}: assembly not closed")
                if len(assembled.pairings) != 4 * m:
                    failures.append(f"m={m}: pairing count != 4m")
                if glueing.is_orientable(assembled):
                    failures.append(f"m={m}: assembly unexpectedly orientable")
                cover = glueing.orientation_double_cover(assembled)
                if not glueing.is_orientable(cover):
                    failures.append(f"m={m}: double cover not orientable")
                if abs(glueing.volume(cover) - 2 * glueing.volume(assembled)) > 1e-12:
                    failures.append(f"m={m}: cover volume not doubled")
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
    _write_manifest(
        out,
        "count",
        {"m_max": args.m_max, "mode": args.mode, "check_assemblies": bool(args.check_assemblies)},
        outputs,
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
    fam.set_defaults(func=cmd_forms_family)
    chk = forms_sub.add_parser("check", help="check admissibility of a diagonal form")
    chk.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    chk.add_argument("--field", default="Q")
    chk.set_defaults(func=cmd_forms_check)

    geom = sub.add_parser("geom", help="plane geometry demos")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)

    adm = geom_sub.add_parser("admissible", help="admissible vs sparse point sets")
    adm.add_argument("--seed", type=int, default=0)
    adm.add_argument("--out", default="out")
    adm.set_defaults(func=cmd_geom_admissible)

    nst = geom_sub.add_parser("nesting", help="nested vs crossing bounding walls")
    nst.add_argument("--angle", type=float, required=True, help="angle between axes, degrees")
    nst.add_argument("--lenH", type=float, required=True)
    nst.add_argument("--lenV", type=float, required=True)
    nst.add_argument("--out", default="out")
    nst.set_defaults(func=cmd_geom_nesting)

    shr = geom_sub.add_parser("shrink", help="boundary spheres as R grows")
    shr.add_argument("--R", required=True, help="comma-separated increasing R values")
    shr.add_argument("--spacing", type=float, default=2.0)
    shr.add_argument("--out", default="out")
    shr.set_defaults(func=cmd_geom_shrink)

    ext = geom_sub.add_parser("extension", help="orthogonal extension of a strip")
    ext.add_argument("--length", type=float, default=2.0)
    ext.add_argument("--q", type=float, default=1.0)
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--samples", type=int, default=40)
    ext.add_argument("--out", default="out")
    ext.set_defaults(func=cmd_geom_extension)

    cnt = sub.add_parser("count", help="graph counting and assembly checks")
    cnt.add_argument("--m-max", type=int, required=True, dest="m_max")
    cnt.add_argument("--mode", choices=["free", "proper"], default="free")
    cnt.add_argument("--check-assemblies", action="store_true")
    cnt.add_argument("--out", default="out")
    cnt.set_defaults(func=cmd_count)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_preprocess(argv))
    try:
        return args.func(args)
    except (ValueError, voronoi.UndecidableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
