"""Piece glueing prescribed by rooted 4-regular edge-labelled graphs.

Counts labelled simple 4-regular graphs and their rooted, edge-labelled
decorations by formula, enumerates them (backtracking over the
upper-triangular adjacency bitmask in ascending order) for the streams and
the assembly checks, assembles the corresponding closed piece complexes,
and measures the super-exponential growth of the counts.

The base count is the classical degree-histogram recursion for locally
restricted graphs (R. C. Read, J. London Math. Soc. 34, 1959; OEIS
A005815): 1, 15, 465, 19355, 1024380, ... for m = 5, 6, 7, ...  A proper
labelling is a proper 4-edge-colouring, so the proper decorations of all
base graphs together are the ordered 4-tuples of edge-disjoint perfect
matchings of the complete graph K_m.

Pieces are combinatorial: a template with a boundary-slot count, an
orientability bit and a configured volume weight.  Pairing isometries
are abstracted to an orientation flag per pairing.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

EDGE_LABELS = ("a+", "a-", "b+", "b-")
VERTEX_DEGREE = 4


@dataclass(frozen=True)
class PieceTemplate:
    """A glueing block: a+/a-/b+/b- blocks carry 2 boundary copies, u and v carry 4."""

    label: str
    boundary_count: int
    orientable: bool
    volume_weight: float = 1.0

    def __post_init__(self):
        if self.boundary_count not in (2, 4):
            raise ValueError("boundary count must be 2 or 4")
        if self.volume_weight <= 0:
            raise ValueError("volume weight must be positive")
        if self.label == "v" and self.orientable:
            raise ValueError("the root block v must be non-orientable")


def standard_templates(
    weights: Mapping[str, float] | None = None
) -> dict[str, PieceTemplate]:
    weights = dict(weights or {})
    out = {}
    for label in EDGE_LABELS:
        out[label] = PieceTemplate(label, 2, True, weights.get(label, 1.0))
    out["u"] = PieceTemplate("u", 4, True, weights.get("u", 1.0))
    out["v"] = PieceTemplate("v", 4, False, weights.get("v", 1.0))
    return out


@dataclass(frozen=True)
class GlueingGraph:
    """A rooted simple 4-regular graph with edges labelled a+/a-/b+/b-.

    In proper mode the four edges at every vertex carry the four distinct
    labels; free mode places no constraint.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    root: int
    proper: bool = False

    def __post_init__(self):
        m = self.vertex_count
        if not (0 <= self.root < m):
            raise ValueError("root out of range")
        if len(self.labels) != len(self.edges):
            raise ValueError("one label per edge required")
        degrees = [0] * m
        seen = set()
        for (i, j), lab in zip(self.edges, self.labels):
            if not (0 <= i < j < m):
                raise ValueError("edges must be sorted pairs of distinct vertices")
            if (i, j) in seen:
                raise ValueError("multi-edge")
            seen.add((i, j))
            if lab not in EDGE_LABELS:
                raise ValueError(f"unknown edge label {lab!r}")
            degrees[i] += 1
            degrees[j] += 1
        if any(d != VERTEX_DEGREE for d in degrees):
            raise ValueError("graph is not 4-regular")
        if self.proper:
            for v in range(m):
                labs = [
                    lab
                    for (i, j), lab in zip(self.edges, self.labels)
                    if v in (i, j)
                ]
                if sorted(labs) != sorted(EDGE_LABELS):
                    raise ValueError("proper mode needs all four labels at each vertex")


def _pair_index(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def enumerate_base_graphs(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labelled simple 4-regular graphs on m vertices.

    Backtracks over the upper-triangular adjacency bits in pair order
    (0,1), (0,2), ..., branching 0 before 1, which yields the graphs in
    ascending bitmask order.  Residual-degree pruning keeps this
    exhaustive search feasible through m = 9; `count_graphs` counts
    without it.
    """
    if m <= VERTEX_DEGREE:
        return
    pairs = _pair_index(m)
    total = len(pairs)
    residual = [VERTEX_DEGREE] * m
    # remaining[k][v] = number of pairs at position >= k that touch v
    remaining = [[0] * m for _ in range(total + 1)]
    for k in range(total - 1, -1, -1):
        i, j = pairs[k]
        for v in range(m):
            remaining[k][v] = remaining[k + 1][v] + (1 if v in (i, j) else 0)

    chosen: list[tuple[int, int]] = []

    def feasible(k: int) -> bool:
        return all(residual[v] <= remaining[k][v] for v in range(m))

    def rec(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == total:
            if all(r == 0 for r in residual):
                yield tuple(chosen)
            return
        i, j = pairs[k]
        # bit = 0
        if residual[i] <= remaining[k + 1][i] and residual[j] <= remaining[k + 1][j]:
            if feasible(k + 1):
                yield from rec(k + 1)
        # bit = 1
        if residual[i] > 0 and residual[j] > 0:
            residual[i] -= 1
            residual[j] -= 1
            chosen.append((i, j))
            if feasible(k + 1):
                yield from rec(k + 1)
            chosen.pop()
            residual[i] += 1
            residual[j] += 1

    yield from rec(0)


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


def enumerate_graphs(m: int, mode: str = "free") -> Iterator[GlueingGraph]:
    """Stream of decorated graphs: every base graph, root choice and labeling.

    Free mode runs over all 4^(2m) label tuples, so consume lazily.
    Returns an empty stream (no error) below m = 5, where no simple
    4-regular graph exists.
    """
    if mode not in ("free", "proper"):
        raise ValueError("mode must be 'free' or 'proper'")
    if m < 5:
        warnings.warn("no simple 4-regular graph exists below 5 vertices")
    for edges in enumerate_base_graphs(m):
        if mode == "free":
            labelings: Iterator = itertools.product(EDGE_LABELS, repeat=len(edges))
        else:
            labelings = proper_labelings(edges, m)
        for labels in labelings:
            for root in range(m):
                yield GlueingGraph(m, edges, tuple(labels), root, proper=mode == "proper")


@dataclass(frozen=True)
class CountRow:
    m: int
    base_count: int
    rooted_labelled: int


def _regular_graph_counter():
    """Memoised count of labelled simple graphs with prescribed residual degrees.

    The state `hist` holds, at index k - 1, the number of unprocessed
    vertices that still need k edges among themselves.  One vertex of the
    highest non-empty class picks its neighbours, c_k of them from class k,
    in prod C(n_k, c_k) ways; each picked vertex drops one class, the
    picking vertex leaves, and vertices that reach residual 0 are dropped.
    All vertices of a class are interchangeable, so the count depends on
    the histogram alone.  The memo lives as long as the returned function.
    """

    @functools.cache
    def count(hist: tuple[int, ...]) -> int:
        top = next((k for k in range(VERTEX_DEGREE, 0, -1) if hist[k - 1]), 0)
        if not top:
            return 1
        others = list(hist)
        others[top - 1] -= 1
        total = 0
        for picks in itertools.product(*(range(min(top, n) + 1) for n in others)):
            if sum(picks) == top:
                new = [n - c for n, c in zip(others, picks)]
                for k, c in enumerate(picks[1:]):
                    new[k] += c
                total += math.prod(map(math.comb, others, picks)) * count(tuple(new))
        return total

    return count


def _perfect_matchings(adj: list[int], free: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of the vertex bitmask `free` in the graph with adjacency bitmasks `adj`."""
    if not free:
        yield ()
        return
    low = free & -free
    v = low.bit_length() - 1
    rest = free ^ low
    nbrs = adj[v] & rest
    while nbrs:
        bit = nbrs & -nbrs
        nbrs ^= bit
        for tail in _perfect_matchings(adj, rest ^ bit):
            yield ((v, bit.bit_length() - 1),) + tail


def _disjoint_matchings(adj: list[int], k: int) -> int:
    """Ordered k-tuples of pairwise edge-disjoint perfect matchings of `adj`."""
    if k == 0:
        return 1
    total = 0
    for matching in _perfect_matchings(adj, (1 << len(adj)) - 1):
        rest = list(adj)
        for u, w in matching:
            rest[u] ^= 1 << w
            rest[w] ^= 1 << u
        total += _disjoint_matchings(rest, k - 1)
    return total


def count_graphs(m_max: int, mode: str = "free", m_min: int = 5) -> list[CountRow]:
    """Exact counts per vertex number, with root and label multipliers.

    base_count, the number of labelled simple 4-regular graphs on m
    vertices, comes from the degree-histogram recursion of
    `_regular_graph_counter` (Read 1959; OEIS A005815), whose memo is
    shared by every m of one call.  Free mode multiplies it by m roots and
    4^(2m) labellings of the 2m edges.

    Proper mode counts proper 4-edge-colourings of all base graphs at once:
    the colour classes of one are an ordered 4-tuple (M1, M2, M3, M4) of
    pairwise edge-disjoint perfect matchings of K_m, and every such tuple
    is one.  An odd m has no perfect matching, so it gives 0.  For even m,
    M1 is one of (m-1)!! matchings, all alike under relabelling, so the
    total is m * (m-1)!! * T(m), where T(m) counts ordered triples of
    perfect matchings disjoint from each other and from one fixed M1.
    T(m) is found by backtracking over matchings; it is the only part that
    grows fast (about 0.07 s at m = 8, about 1.5 minutes at m = 10).

    No graph is enumerated; `enumerate_base_graphs` and `proper_labelings`
    serve as the reference in the tests.
    """
    if mode not in ("free", "proper"):
        raise ValueError("mode must be 'free' or 'proper'")
    count_regular = _regular_graph_counter()
    rows = []
    for m in range(m_min, m_max + 1):
        base = count_regular((0,) * (VERTEX_DEGREE - 1) + (m,)) if m > VERTEX_DEGREE else 0
        if mode == "free":
            total = base * m * 4 ** (2 * m)
        elif m % 2 or not base:
            total = 0
        else:
            full = (1 << m) - 1
            # K_m minus the fixed matching M1 = {(0, 1), (2, 3), ...}
            adj = [full ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(m)]
            first_choices = math.prod(range(m - 1, 0, -2))
            total = m * first_choices * _disjoint_matchings(adj, len(EDGE_LABELS) - 1)
        rows.append(CountRow(m, base, total))
    return rows


# -- assembly ---------------------------------------------------------------------


@dataclass(frozen=True)
class PieceInstance:
    template: PieceTemplate
    provenance: tuple

    def __str__(self):
        return f"{self.template.label}@{self.provenance}"


SlotRef = tuple[int, int]  # (piece index, slot index)


@dataclass(frozen=True)
class Pairing:
    a: SlotRef
    b: SlotRef
    flag: int = 1  # +1 orientation-compatible, -1 reversing

    def __post_init__(self):
        if self.flag not in (-1, 1):
            raise ValueError("flag must be +1 or -1")


@dataclass(frozen=True)
class AssembledManifold:
    """A closed complex of piece instances with slot pairings.

    `internal_joins` records pairs of instances that are halves of one
    connected covering block (used by orientation double covers of
    complexes containing non-orientable pieces).
    """

    pieces: tuple[PieceInstance, ...]
    pairings: tuple[Pairing, ...]
    internal_joins: tuple[tuple[int, int], ...] = ()
    deck_involution: tuple[int, ...] | None = None

    def slot_count(self) -> int:
        return sum(p.template.boundary_count for p in self.pieces)

    def is_closed(self) -> bool:
        used: set[SlotRef] = set()
        for p in self.pairings:
            for ref in (p.a, p.b):
                pi, si = ref
                if not (0 <= pi < len(self.pieces)):
                    return False
                if not (0 <= si < self.pieces[pi].template.boundary_count):
                    return False
                if ref in used:
                    return False
                used.add(ref)
        return len(used) == self.slot_count()

    def is_connected(self) -> bool:
        return self._walk()[0] <= 1

    def _walk(self) -> tuple[int, bool]:
        """Components of the piece graph, and whether it has a consistent signing.

        The edges are the pairings, carrying their flags, and the internal
        joins, carrying +1.  A signing gives every piece +-1 so that each
        edge's flag is the product of its endpoint signs; it exists iff
        every cycle has flag product +1.
        """
        n = len(self.pieces)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for p in self.pairings:
            adj[p.a[0]].append((p.b[0], p.flag))
            adj[p.b[0]].append((p.a[0], p.flag))
        for i, j in self.internal_joins:
            adj[i].append((j, 1))
            adj[j].append((i, 1))
        sign = [0] * n
        components = 0
        consistent = True
        for start in range(n):
            if sign[start]:
                continue
            components += 1
            sign[start] = 1
            stack = [start]
            while stack:
                x = stack.pop()
                for y, flag in adj[x]:
                    want = sign[x] * flag
                    if sign[y] == 0:
                        sign[y] = want
                        stack.append(y)
                    elif sign[y] != want:
                        consistent = False
        return components, consistent


def assemble(
    graph: GlueingGraph,
    templates: Mapping[str, PieceTemplate] | None = None,
) -> AssembledManifold:
    """Realize a glueing graph as a closed piece complex.

    The root vertex gets the non-orientable block v, every other vertex a
    u block, and every edge its labelled two-boundary block; each edge
    block is paired into one free slot of each endpoint block, giving 4m
    orientation-compatible pairings in total.
    """
    templates = templates or standard_templates()
    m = graph.vertex_count
    pieces: list[PieceInstance] = []
    for vtx in range(m):
        lab = "v" if vtx == graph.root else "u"
        pieces.append(PieceInstance(templates[lab], ("vertex", vtx)))
    free_slots = [list(range(pieces[v].template.boundary_count)) for v in range(m)]
    pairings: list[Pairing] = []
    for k, ((i, j), lab) in enumerate(zip(graph.edges, graph.labels)):
        piece_idx = len(pieces)
        pieces.append(PieceInstance(templates[lab], ("edge", k)))
        for slot, vtx in ((0, i), (1, j)):
            if not free_slots[vtx]:
                raise RuntimeError("slot exhaustion: graph is not 4-regular")
            target = free_slots[vtx].pop(0)
            pairings.append(Pairing((piece_idx, slot), (vtx, target)))
    return AssembledManifold(tuple(pieces), tuple(pairings))


def volume(manifold: AssembledManifold) -> float:
    return sum(p.template.volume_weight for p in manifold.pieces)


def is_orientable(manifold: AssembledManifold) -> bool:
    """False with any non-orientable block; otherwise the orientation cocycle.

    The cocycle is trivial iff the pieces admit a +-1 signing with every
    pairing flag equal to the product of its endpoint signs (i.e. every
    cycle of the pairing graph has flag product +1).
    """
    if not manifold.is_closed():
        raise ValueError("orientability needs a closed complex")
    if any(not p.template.orientable for p in manifold.pieces):
        return False
    return manifold._walk()[1]


def orientation_double_cover(manifold: AssembledManifold) -> AssembledManifold:
    """Two sheets per piece, pairings lifted through the orientation cocycle.

    Reversing pairings (flag -1) connect opposite sheets and lift to
    compatible ones.  The two sheets over a non-orientable block are the
    halves of its connected orientation cover: they are recorded as
    internally joined and marked orientable.  The deck involution swaps
    the sheets of every piece and is fixed-point-free on instances.
    """
    if not manifold.is_closed():
        raise ValueError("double cover needs a closed complex")
    n = len(manifold.pieces)
    pieces: list[PieceInstance] = []
    for sheet in (0, 1):
        for p in manifold.pieces:
            template = p.template
            if not template.orientable:
                template = PieceTemplate(
                    template.label + "~",
                    template.boundary_count,
                    True,
                    template.volume_weight,
                )
            pieces.append(PieceInstance(template, ("cover",) + p.provenance + (sheet,)))

    def lift(ref: SlotRef, sheet: int) -> SlotRef:
        return (ref[0] + sheet * n, ref[1])

    pairings = []
    for p in manifold.pairings:
        cross = p.flag < 0
        for sheet in (0, 1):
            other = 1 - sheet if cross else sheet
            pairings.append(Pairing(lift(p.a, sheet), lift(p.b, other), 1))
    joins = [
        (i, i + n)
        for i, p in enumerate(manifold.pieces)
        if not p.template.orientable
    ]
    joins += [(i + n, j + n) for i, j in manifold.internal_joins]
    joins += [(i, j) for i, j in manifold.internal_joins]
    deck = tuple((i + n) % (2 * n) for i in range(2 * n))
    return AssembledManifold(tuple(pieces), tuple(pairings), tuple(joins), deck)


# -- growth --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    c: float
    intercept: float
    residuals: dict[int, float]

    @property
    def degenerate(self) -> bool:
        return abs(self.c) < 1e-6


def growth_fit(counts: Mapping[int, int]) -> GrowthFit:
    """Least-squares fit of log(count) against m*log(m).

    Counts growing like m^(c m) produce slope c; constant counts are
    flagged degenerate through c ~ 0.
    """
    if len(counts) < 3:
        raise ValueError("growth fit needs at least three rows")
    ms = sorted(counts)
    x = np.array([m * math.log(m) for m in ms])
    y = np.array([math.log(counts[m]) for m in ms])
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    residuals = {
        m: float(y[i] - (slope * x[i] + intercept)) for i, m in enumerate(ms)
    }
    return GrowthFit(float(slope), float(intercept), residuals)
