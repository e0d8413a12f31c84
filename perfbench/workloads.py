"""Seeded task lists for the three benchmark workloads, with answer checks.

A workload is a fixed list of tasks.  Each task has a timed `run` that calls
into hyperglue and an untimed `check` that judges the answer independently
of the code under test: exact identities recomputed from the raw fractions,
a nearest-centre oracle for Dirichlet cells, a closed-form facet-type oracle,
and published graph counts.  Every input is generated from the seed when the
task list is built; nothing is generated inside a timed region.

Library functions are always looked up through their module (for example
`voronoi.dirichlet_cell`), so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from hyperglue import cli, hyperboloid, qforms, voronoi
from hyperglue.numfield import Embedding, FieldTag, QuadFieldElement

QS2 = FieldTag.Q_SQRT2
E1_PLANE = np.array([0.0, 1.0, 0.0])


@dataclass
class Task:
    """One closed-loop request: `run` is timed, `check` judges its result.

    `counts`, when given, maps the result to per-layer counts that only the
    benchmark can observe (files written, exit codes, shell violations).
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    counts: Callable[[object], dict] | None = None


# -- exact: numfield, qforms and the exact paths of hyperboloid ----------------

AXIOM_BATCHES, AXIOM_BATCH = 12, 150
J2_REFLECTION_BATCHES, J2_REFLECTION_BATCH = 20, 10
QS2_REFLECTION_BATCH = 5  # two batches for each dimension 3, 4, 5
RESTRICT_BATCH = 5  # one batch for each field and dimension 2..5


def _pair(x: QuadFieldElement) -> tuple[Fraction, Fraction]:
    return x.a, x.b


def _pmul(p, q):
    return p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _padd(p, q):
    return p[0] + q[0], p[1] + q[1]


def _random_qs2(rng: random.Random, bound: int = 9) -> QuadFieldElement:
    return QuadFieldElement(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 6)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, 6)),
        QS2,
    )


def _random_space_like(rng: random.Random, form, bound: int = 3) -> tuple:
    """A seeded vector with f(v) > 0 at the identity embedding."""
    while True:
        v = []
        for _ in range(form.dimension):
            a = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            b = Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) if form.field is QS2 else 0
            v.append(QuadFieldElement(a, b, form.field))
        value = qforms.evaluate(form, v)
        if value and value.sign_at(Embedding.IDENTITY) > 0:
            return tuple(v)


def _axioms(triples):
    out = []
    for x, y, z in triples:
        out.append(
            (
                (x + y) * z,
                x * z + y * z,
                (x * y) * z,
                x * (y * z),
                (x / y) * y if y else x,
                (x * y).conjugate(),
                x.conjugate() * y.conjugate(),
            )
        )
    return out


def _check_axioms(triples, results) -> bool:
    for (x, y, z), (d1, d2, a1, a2, q, c1, c2) in zip(triples, results):
        if not (d1 == d2 and a1 == a2 and q == x and c1 == c2):
            return False
        px, py, pz = _pair(x), _pair(y), _pair(z)
        if _pair(d1) != _pmul(_padd(px, py), pz):
            return False
        if _pair(a1) != _pmul(_pmul(px, py), pz):
            return False
        if _pair(c1) != (_pmul(px, py)[0], -_pmul(px, py)[1]):
            return False
    return len(results) == len(triples)


def _reflections(form, vectors):
    out = []
    for v in vectors:
        r = hyperboloid.reflection(form, v)
        out.append((r, hyperboloid.exact_mat_mul(r, r), hyperboloid.is_isometry(form, r)))
    return out


def _check_reflections(form, vectors, results) -> bool:
    n = form.dimension
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    for v, (r, r2, iso) in zip(vectors, results):
        if iso is not True:
            return False
        for i in range(n):
            for j in range(n):
                if _pair(r2[i][j]) != (one if i == j else zero):
                    return False
        # r_v(v) = -v, recomputed on the raw fractions
        for i in range(n):
            acc = zero
            for j in range(n):
                acc = _padd(acc, _pmul(_pair(r[i][j]), _pair(v[j])))
            if acc != (-v[i].a, -v[i].b):
                return False
    return len(results) == len(vectors)


def _restrictions(form, vectors):
    out = []
    for v in vectors:
        g = qforms.restrict_to_orthogonal(form, v)
        out.append((g, qforms.is_admissible(g)))
    return out


def _check_restrictions(form, vectors, results) -> bool:
    return len(results) == len(vectors) and all(
        ok is True and g.dimension == form.dimension - 1 and g.field is form.field
        for g, ok in results
    )


def _family(n, field):
    fam = qforms.build_counting_family(n, field)
    admissible = [qforms.is_admissible(f) for f in fam.forms.values()]
    certs = [
        qforms.equivalence_certificate(fam.forms[a], fam.forms[b])
        for a, b in itertools.combinations(qforms.LABELS, 2)
    ]
    return fam, admissible, certs


def _check_family(n, field, result) -> bool:
    fam, admissible, certs = result
    if sorted(fam.forms) != sorted(qforms.LABELS) or len(certs) != 15:
        return False
    if not all(a is True for a in admissible) or not all(c.non_equivalent for c in certs):
        return False
    primes = [fam.primes[label] for label in qforms.LABELS]
    if len({_pair(p) for p in primes}) != 6:
        return False
    for label, p in fam.primes.items():
        form = fam.forms[label]
        if form.dimension != n + 1 or _pair(form.coefficients[-1]) != _pair(p):
            return False
        if [_pair(c) for c in form.coefficients[:-1]] != [_pair(c) for c in fam.base.coefficients]:
            return False
        # totally positive integer a + b*sqrt2: a > |b|*sqrt2, i.e. a > 0 and a^2 > 2 b^2
        if p.a.denominator != 1 or p.b.denominator != 1 or not (p.a > 0 and p.a**2 > 2 * p.b**2):
            return False
    return True


def exact_tasks(seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []
    for _ in range(AXIOM_BATCHES):
        triples = [tuple(_random_qs2(rng) for _ in range(3)) for _ in range(AXIOM_BATCH)]
        tasks.append(
            Task("axioms", lambda t=triples: _axioms(t), lambda r, t=triples: _check_axioms(t, r))
        )
    j2 = qforms.jn_form(2)
    for _ in range(J2_REFLECTION_BATCHES):
        vs = [_random_space_like(rng, j2) for _ in range(J2_REFLECTION_BATCH)]
        tasks.append(
            Task(
                "reflect_j2",
                lambda v=vs: _reflections(j2, v),
                lambda r, v=vs: _check_reflections(j2, v, r),
            )
        )
    for dim in (3, 4, 5):
        form = qforms.counting_base_form(dim, QS2)
        for _ in range(2):
            vs = [_random_space_like(rng, form) for _ in range(QS2_REFLECTION_BATCH)]
            tasks.append(
                Task(
                    f"reflect_qs2_{dim}",
                    lambda f=form, v=vs: _reflections(f, v),
                    lambda r, f=form, v=vs: _check_reflections(f, v, r),
                )
            )
    for field in (FieldTag.Q, QS2):
        for dim in (2, 3, 4, 5):
            form = qforms.counting_base_form(dim, field)
            vs = [_random_space_like(rng, form, bound=4) for _ in range(RESTRICT_BATCH)]
            tasks.append(
                Task(
                    f"restrict_{dim}",
                    lambda f=form, v=vs: _restrictions(f, v),
                    lambda r, f=form, v=vs: _check_restrictions(f, v, r),
                )
            )
    for n in range(2, 9):
        for field in (FieldTag.Q, QS2):
            tasks.append(
                Task(
                    "family",
                    lambda n=n, f=field: _family(n, f),
                    lambda r, n=n, f=field: _check_family(n, f, r),
                )
            )
    return tasks


# -- cells: orbits, Dirichlet cells, facet types, admissible sets --------------

ORACLE_SAMPLES = 2000


def _translation_group(form, lengths, axes, marked=()):
    x0 = hyperboloid.basepoint(form)
    gens = [hyperboloid.translation_along(form, x0, a, L) for a, L in zip(axes, lengths)]
    return x0, voronoi.GroupData(form, gens, marked=list(marked))


def _orbit_size(generators: int, cutoff: int) -> int:
    """Reduced words of length <= cutoff in a free group of the given rank."""
    return 1 + sum(2 * generators * (2 * generators - 1) ** (k - 1) for k in range(1, cutoff + 1))


def _sheet_ok(form, points) -> bool:
    c = hyperboloid.float_coefficients(form)
    q = (points * points * c[None, :]).sum(axis=1)
    scale = np.maximum(1.0, (points * points * np.abs(c)[None, :]).sum(axis=1))
    return bool(np.all(np.abs(q + 1.0) <= 1e-7 * scale))


def shell_violations(form, x0, group, cutoff: int, rho: float) -> int:
    """Orbit points of word length cutoff+1 that lie within 2*rho of the centre.

    Built from outside the cell code by growing the next word shell; a
    certification radius rho is sound only when this count is zero.
    """
    orbit = voronoi.build_orbit([x0], group, cutoff + 1)
    shell = np.array([op.point for op in orbit.points if len(op.word) == cutoff + 1])
    c = hyperboloid.float_coefficients(form)
    cosh_d = -(shell * c[None, :]) @ x0
    return int(np.sum(np.arccosh(np.maximum(1.0, cosh_d)) < 2.0 * rho))


def nearest_centre_mismatches(cell, orbit, rng, n_samples: int) -> tuple[int, int]:
    """Halfspace membership against brute-force nearest orbit point.

    Samples are placed by the exponential map from the centre at distances
    below 0.95 of the certification radius.  Returns (usable, mismatches);
    samples within a relative 1e-9 of a distance tie or a wall are skipped.
    """
    form = cell.form
    c = hyperboloid.float_coefficients(form)
    centre = cell.center
    rho = 0.95 * min(orbit.certification_radius, 18.0)
    w = rng.standard_normal((n_samples, form.dimension))
    w = w + ((w * c[None, :]) @ centre)[:, None] * centre[None, :]
    w /= np.sqrt((w * w * c[None, :]).sum(axis=1))[:, None]
    r = rho * rng.random(n_samples)
    x = np.cosh(r)[:, None] * centre[None, :] + np.sinh(r)[:, None] * w
    coords = orbit.coordinates()
    d = np.arccosh(np.maximum(1.0, -(x * c[None, :]) @ coords.T))
    is_centre = np.all(np.abs(coords - centre[None, :]) <= 1e-7, axis=1)
    d_centre = d[:, is_centre].min(axis=1)
    d_other = d[:, ~is_centre].min(axis=1)
    normals = np.array([f.halfspace.inward_normal() for f in cell.facets])
    margin = ((x * c[None, :]) @ normals.T).min(axis=1)
    tol = 1e-9 * np.cosh(r)
    usable = (np.abs(d_centre - d_other) > tol) & (np.abs(margin) > tol)
    wrong = (d_centre[usable] < d_other[usable]) != (margin[usable] >= 0)
    return int(usable.sum()), int(wrong.sum())


def facet_type_mismatches(cell, geodesic, rho: float) -> tuple[int, int]:
    """Closed-form FIRST/SECOND oracle for a geodesic through the cell centre.

    Along x(t) = cosh t p + sinh t u each facet margin is A cosh t + B sinh t,
    which vanishes at tanh t = -A/B.  A facet is FIRST iff that point lies
    within |t| <= rho and inside every other halfspace.  Facets whose answer
    sits within 1e-6 of a tie are skipped.  Returns (decided, mismatches).
    """
    form = cell.form
    c = hyperboloid.float_coefficients(form)
    normals = np.array([f.halfspace.inward_normal() for f in cell.facets])
    a = (geodesic.point * c) @ normals.T
    b = (geodesic.tangent * c) @ normals.T
    decided = mismatches = 0
    for i, facet in enumerate(cell.facets):
        if abs(b[i]) <= abs(a[i]):
            first, margin_gap = False, abs(abs(a[i]) - abs(b[i]))
        else:
            t = math.atanh(-a[i] / b[i])
            others = np.delete(a * math.cosh(t) + b * math.sinh(t), i)
            inside = float(others.min()) if len(others) else math.inf
            first = inside >= 0 and abs(t) <= rho
            margin_gap = min(abs(inside), abs(abs(t) - rho))
        if margin_gap <= 1e-6:
            continue
        decided += 1
        mismatches += first != (facet.facet_type is voronoi.FacetType.FIRST)
    return decided, mismatches


def _cell_chain(kind, form, x0, group, cutoff, rng, marked=None):
    """Tasks orbit -> cell (-> classify) sharing one holder within a pass."""
    holder: dict = {}
    expected = _orbit_size(len(group.generators), cutoff)
    oracle_seed = int(rng.integers(2**32))
    rho = voronoi.build_orbit([x0], group, cutoff).certification_radius
    violations = shell_violations(form, x0, group, cutoff, rho)

    def run_orbit():
        holder["orbit"] = voronoi.build_orbit([x0], group, cutoff)
        return holder["orbit"]

    def check_orbit(orbit):
        return len(orbit.points) == expected and _sheet_ok(form, orbit.coordinates())

    def run_cell():
        holder["cell"] = voronoi.dirichlet_cell(x0, holder["orbit"])
        return holder["cell"]

    def check_cell(cell):
        usable, wrong = nearest_centre_mismatches(
            cell, holder["orbit"], np.random.default_rng(oracle_seed), ORACLE_SAMPLES
        )
        return len(cell.facets) > 0 and usable >= 0.9 * ORACLE_SAMPLES and wrong == 0

    tasks = [
        Task(f"{kind}_orbit", run_orbit, check_orbit),
        Task(
            f"{kind}_cell",
            run_cell,
            check_cell,
            lambda _r: {"voronoi.cert_shell_violations": violations},
        ),
    ]
    if marked is not None:

        def run_classify():
            return voronoi.classify_facets(holder["cell"], [marked])

        def check_classify(cell):
            decided, wrong = facet_type_mismatches(cell, marked, cell.certification_radius)
            return 2 * decided >= len(cell.facets) and wrong == 0

        tasks.append(Task(f"{kind}_classify", run_classify, check_classify))
    return tasks


def _random_axes(rng, form, count):
    """Unit tangent directions at the basepoint, drawn in the spatial slots."""
    c = hyperboloid.float_coefficients(form)
    axes = []
    for _ in range(count):
        w = rng.standard_normal(form.dimension)
        w[c < 0] = 0.0
        axes.append(w / np.sqrt(np.dot(w * c, w)))
    return axes


def _admissible_tasks(rng) -> list[Task]:
    j2 = qforms.jn_form(2)
    x0 = hyperboloid.basepoint(j2)
    delta = 0.4 + 0.8 * float(rng.random())
    window = 3.0 + 2.0 * float(rng.random())
    offset = 4.0 + 2.0 * float(rng.random())
    p2 = np.array([math.cosh(delta), 0.0, math.sinh(delta)])
    s1 = voronoi.MarkedGeodesic(j2, x0, E1_PLANE, surface_id=1, fundamental_length=window)
    s2 = voronoi.MarkedGeodesic(j2, p2, E1_PLANE, surface_id=2, fundamental_length=window)
    group = voronoi.GroupData(j2, [], marked=[s1, s2])
    sparse = voronoi.AdmissibleSet(((s1.point_at(0.0), 1), (s2.point_at(offset), 2)))
    c = hyperboloid.float_coefficients(j2)
    ts = np.sort(rng.random(64))

    def nearest_tags(points, tags, samples):
        d = np.arccosh(np.maximum(1.0, -(samples * c[None, :]) @ np.array(points).T))
        return np.array(tags)[d.argmin(axis=1)], np.sort(d, axis=1)

    def check_sparse(verdict):
        if verdict.admissible or verdict.witness is None:
            return False
        pts, tags = sparse.seeds_and_tags()
        d = np.arccosh(np.maximum(1.0, -(verdict.witness * c) @ np.array(pts).T))
        own = min(di for di, t in zip(d, tags) if t == verdict.witness_surface)
        other = min(di for di, t in zip(d, tags) if t != verdict.witness_surface)
        return other < own

    def run_dense():
        dense = voronoi.build_admissible_set([s1, s2], group)
        return dense, voronoi.check_admissible(dense, group, orbit_cutoff=1)

    def check_dense(result):
        dense, verdict = result
        if not verdict.admissible:
            return False
        pts, tags = dense.seeds_and_tags()
        for s in (s1, s2):
            t = ts * s.fundamental_length
            samples = np.cosh(t)[:, None] * s.point[None, :] + np.sinh(t)[:, None] * s.tangent[None, :]
            nearest, d = nearest_tags(pts, tags, samples)
            clear = d[:, 1] - d[:, 0] > 1e-9
            if np.any(nearest[clear] != s.surface_id):
                return False
        return True

    return [
        Task(
            "admissible_sparse",
            lambda: voronoi.check_admissible(sparse, group, orbit_cutoff=1),
            check_sparse,
        ),
        Task("admissible_dense", run_dense, check_dense),
    ]


def cells_tasks(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    for form in (qforms.jn_form(3), qforms.counting_base_form(4, QS2)):
        lengths = rng.uniform(2.5, 3.5, 3)
        x0, group = _translation_group(form, lengths, _random_axes(rng, form, 3))
        tasks += _cell_chain("h3", form, x0, group, 3, rng)
    j2 = qforms.jn_form(2)
    for cutoff in (2, 3, 4):
        angle = math.radians(rng.uniform(40.0, 80.0))
        lh, lv = rng.uniform(1.0, 2.0, 2)
        axis = hyperboloid.rotation_in_plane(j2, 1, 2, angle) @ E1_PLANE
        marked = voronoi.MarkedGeodesic(j2, hyperboloid.basepoint(j2), E1_PLANE, 0, lh)
        x0, group = _translation_group(j2, (lh, lv), (E1_PLANE, axis), marked=[marked])
        tasks += _cell_chain(f"plane{cutoff}", j2, x0, group, cutoff, rng, marked=marked)
    return tasks + _admissible_tasks(rng)


# -- cli: every README command, in process, with a fresh --out per call ---------

FREE_BASE_GRAPHS = {5: 1, 6: 15, 7: 465, 8: 19355}  # OEIS A005815
SEEDED_NESTING = 14


@dataclass
class CliResult:
    code: int
    stdout: str
    out: Path


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_count(rows, m_max: int, mode: str) -> bool:
    if [int(r[0]) for r in rows] != list(range(5, m_max + 1)):
        return False
    for m_text, base_text, total_text in rows:
        m, base, total = int(m_text), int(base_text), int(total_text)
        if base != FREE_BASE_GRAPHS[m]:
            return False
        if mode == "free" and total != base * m * 4 ** (2 * m):
            return False
        if mode == "proper" and m % 2 == 1 and total != 0:
            return False
    return True


def _check_nesting(out: Path, expect_nested: bool | None) -> bool:
    j2 = qforms.jn_form(2)
    c = hyperboloid.float_coefficients(j2)
    normals = {}
    for cell, item, data, _word, _type in _read_csv(out / "cells.csv"):
        if item.startswith("facet"):
            normals[f"{cell}{item[5:]}"] = np.array([float(v) for v in data.split()])
    verdicts = _read_csv(out / "nesting.csv")
    walls_h = sum(k[0] == "H" for k in normals)
    if verdicts[-1][0] != "poincare" or len(verdicts) - 1 != walls_h * (len(normals) - walls_h):
        return False
    for a, b, verdict in verdicts[:-1]:
        s = abs(float(np.dot(normals[a] * c, normals[b])))
        if abs(s - 1.0) <= 1e-6:
            continue
        if (s < 1.0) != (verdict == "crossing"):
            return False
    nested = any(v == "nested" for _, _, v in verdicts[:-1])
    return expect_nested is None or nested == expect_nested


def _check_shrink(out: Path, r_values, spacing: float) -> bool:
    rows = _read_csv(out / "shrink.csv")
    if len(rows) != len(r_values) or any(abs(float(r[0]) - v) > 1e-9 for r, v in zip(rows, r_values)):
        return False
    for r, first, second, _factor in rows:
        if abs(float(first) - 1.0 / math.sinh(spacing / 2.0)) > 1e-9:
            return False
        if abs(float(second) - 1.0 / math.sinh(float(r) / 2.0)) > 1e-9:
            return False
    return True


def _check_extension(out: Path) -> bool:
    rows = _read_csv(out / "extension.csv")
    walls = [r for r in rows if r[0] == "wall"]
    ideal = [r for r in rows if r[0] == "ideal-sample"]
    if len(walls) != 2 or any(r[2] != "first" for r in walls) or not ideal:
        return False
    for r in ideal:
        k = np.array([float(v) for v in r[1].split()])
        if abs(-k[0] ** 2 + float(np.dot(k[1:], k[1:]))) > 1e-9:
            return False
    return {r[2][:4] for r in ideal} == {"cap+", "cap-"}


def _forms_check_args(rng) -> tuple[list[str], bool]:
    """Seeded `forms check` input and its admissibility, decided independently."""
    field = "Q(sqrt2)" if rng.random() < 0.5 else "Q"
    dim = int(rng.integers(3, 6))
    texts, identity, sigma = [], [], []
    for _ in range(dim):
        a = int(rng.integers(-9, 10)) or 1
        b = int(rng.integers(-4, 5)) if field != "Q" else 0
        if field == "Q":
            texts.append(str(a))
        else:
            texts.append(f"{a} + {b}*r2" if b >= 0 else f"{a} - {-b}*r2")
        identity.append(a + b * math.sqrt(2.0))
        sigma.append(a - b * math.sqrt(2.0))
    admissible = sum(v < 0 for v in identity) == 1 and (
        field == "Q" or all(v > 0 for v in sigma)
    )
    return ["forms", "check", "--coeffs", ",".join(texts), "--field", field], admissible


def cli_tasks(seed: int, workdir: Path) -> list[Task]:
    rng = np.random.default_rng(seed)
    calls = itertools.count()
    specs: list[tuple[str, list[str], Callable[[CliResult], bool]]] = []

    for n in range(3, 9):
        for field in ("Q", "Q(sqrt2)"):

            def check_family(res):
                rows = _read_csv(res.out / "family.csv")
                certs = _read_csv(res.out / "certificates.csv")
                return (
                    [r[0] for r in rows] == list(qforms.LABELS)
                    and all(r[3] == "true" for r in rows)
                    and len(certs) == 15
                    and all(r[2] == "non-equivalent" for r in certs)
                )

            specs.append(("forms_family", ["forms", "family", "--n", str(n), "--field", field], check_family))

    check_args, admissible = _forms_check_args(rng)
    specs.append(
        (
            "forms_check",
            check_args,
            lambda res, want=admissible: f"admissible={str(want).lower()}" in res.stdout,
        )
    )

    def check_geom_admissible(res):
        values = dict(_read_csv(res.out / "admissible.csv"))
        return values["sparse_admissible"] == "false" and values["dense_admissible"] == "true"

    specs.append(
        (
            "geom_admissible",
            ["geom", "admissible", "--seed", str(int(rng.integers(10**6)))],
            check_geom_admissible,
        )
    )
    nesting = [(90.0, 1.0, 6.0, False), (60.0, 0.3, 8.0, True)]
    for _ in range(SEEDED_NESTING):
        angle = float(rng.uniform(30.0, 150.0))
        nesting.append((angle, float(rng.uniform(0.3, 2.0)), float(rng.uniform(2.0, 8.0)), None))
    for angle, len_h, len_v, expect in nesting:
        specs.append(
            (
                "geom_nesting",
                ["geom", "nesting", "--angle", repr(angle), "--lenH", repr(len_h), "--lenV", repr(len_v)],
                lambda res, e=expect: _check_nesting(res.out, e),
            )
        )
    specs.append(
        (
            "geom_shrink",
            ["geom", "shrink", "--R", "2,4,8,16"],
            lambda res: _check_shrink(res.out, [2.0, 4.0, 8.0, 16.0], 2.0),
        )
    )
    specs.append(
        (
            "geom_extension",
            ["geom", "extension", "--seed", str(int(rng.integers(10**6)))],
            lambda res: _check_extension(res.out),
        )
    )
    for m_max, mode, extra in ((7, "free", ["--check-assemblies"]), (8, "free", []), (7, "proper", [])):
        specs.append(
            (
                f"count_{mode}{m_max}",
                ["count", "--m-max", str(m_max), "--mode", mode, *extra],
                lambda res, m=m_max, md=mode: _check_count(_read_csv(res.out / "counts.csv"), m, md),
            )
        )

    def make(kind, argv, check) -> Task:
        takes_out = argv[:2] != ["forms", "check"]

        def run():
            out = workdir / f"call{next(calls)}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv + (["--out", str(out)] if takes_out else []))
            return CliResult(code, buf.getvalue(), out)

        def checked(res: CliResult) -> bool:
            try:
                return res.code == 0 and check(res)
            finally:
                shutil.rmtree(res.out, ignore_errors=True)

        def counts(res: CliResult) -> dict:
            written = _bytes_under(res.out) if res.out.exists() else 0
            return {"cli.bytes_written": written, "cli.exit_nonzero": int(res.code != 0)}

        return Task(kind, run, checked, counts)

    return [make(kind, argv, check) for kind, argv, check in specs]


def build_tasks(workload: str, seed: int, workdir: Path) -> list[Task]:
    if workload == "exact":
        return exact_tasks(seed)
    if workload == "cells":
        return cells_tasks(seed)
    if workload == "cli":
        return cli_tasks(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")

