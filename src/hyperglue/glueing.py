"""Piece glueing prescribed by rooted 4-regular edge-labelled graphs.

Counts labelled simple 4-regular graphs and their rooted, edge-labelled
decorations by formula, enumerates the base graphs (backtracking over the
upper-triangular adjacency bitmask in ascending order) for the assembly
checks, assembles the corresponding closed piece complexes, and measures
the super-exponential growth of the counts.

Both counts come from one degree-histogram recursion (R. C. Read, J. London
Math. Soc. 34, 1959) keyed by the edges of each colour a vertex needs.  A
need of 4 in one colour gives the base count (OEIS A005815): 1, 15, 465,
19355, 1024380, ... for m = 5, 6, 7, ...  A need of one edge in each of four
colours gives the proper labellings of all base graphs together: the
ordered 4-tuples of edge-disjoint perfect matchings of the complete graph K_m.

Pieces are combinatorial: a block with a boundary-slot count and an
orientability bit, one of the six standard blocks of `TEMPLATES`.  Every
block has volume one.  Pairing isometries are abstracted to an
orientation flag per pairing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

EDGE_LABELS = ("a+", "a-", "b+", "b-")
VERTEX_DEGREE = 4


@dataclass(frozen=True)
class PieceTemplate:
    """A glueing block: a+/a-/b+/b- blocks carry 2 boundary copies, u and v carry 4."""

    label: str
    boundary_count: int
    orientable: bool

    def __post_init__(self):
        if not isinstance(self.boundary_count, int) or self.boundary_count not in (2, 4):
            raise ValueError("boundary count must be the int 2 or 4")
        if self.label == "v" and self.orientable:
            raise ValueError("the root block v must be non-orientable")

    @functools.cached_property
    def _orientable_cover(self) -> PieceTemplate:
        """The template of this block's connected orientation cover, built once."""
        return PieceTemplate(self.label + "~", self.boundary_count, True)


# the six standard blocks, by label: the edge blocks, u at every other
# vertex and the non-orientable v at the root
TEMPLATES: Mapping[str, PieceTemplate] = MappingProxyType(
    {label: PieceTemplate(label, 2, True) for label in EDGE_LABELS}
    | {"u": PieceTemplate("u", 4, True), "v": PieceTemplate("v", 4, False)}
)


@dataclass(frozen=True)
class GlueingGraph:
    """A rooted simple 4-regular graph with edges labelled a+/a-/b+/b-."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    root: int

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


def enumerate_base_graphs(m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labelled simple 4-regular graphs on m vertices.

    Backtracks over the upper-triangular adjacency bits in pair order
    (0,1), (0,2), ..., branching 0 before 1, which yields the graphs in
    ascending order of the bitmask with pair (0,1) as its most significant
    bit.  A branch is cut as soon as a vertex needs more edges than the
    pairs left can give it, so every leaf reached is a 4-regular graph.
    The search still visits the graphs one by one (about 0.3 s at m = 8);
    `count_graphs` counts them without it.
    """
    if m <= VERTEX_DEGREE:
        return
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    total = len(pairs)
    residual = [VERTEX_DEGREE] * m
    chosen: list[tuple[int, int]] = []

    # Invariant on entering rec(k): residual[v] <= the pairs at position >= k
    # that touch v.  Position k only touches i and j; after it come (i, j+1),
    # ..., (i, m-1) and then pairs with a larger first vertex, so m-1-j of them
    # touch i and (j-i-1) + (m-1-j) = m-i-2 touch j.
    def rec(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == total:
            if all(r == 0 for r in residual):
                yield tuple(chosen)
            return
        i, j = pairs[k]
        # bit = 0: i and j lose one remaining pair each
        if residual[i] <= m - 1 - j and residual[j] <= m - i - 2:
            yield from rec(k + 1)
        # bit = 1: i and j lose one residual degree and one remaining pair each
        if residual[i] > 0 and residual[j] > 0:
            residual[i] -= 1
            residual[j] -= 1
            chosen.append((i, j))
            yield from rec(k + 1)
            chosen.pop()
            residual[i] += 1
            residual[j] += 1

    yield from rec(0)


@dataclass(frozen=True)
class CountRow:
    m: int
    base_count: int
    rooted_labelled: int


@functools.cache
def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of `parts` non-negative integers that sum to `total`."""
    return [ks for ks in itertools.product(range(total + 1), repeat=parts) if sum(ks) == total]


def _graph_counter(need: tuple[int, ...]):
    """Memoised count, by vertex number m, of labelled simple graphs with
    need[c] edges of colour c at every vertex.

    The state counts the unprocessed vertices by type, their residual need
    per colour (`types`: highest total first, the zero type last).  One
    vertex of the highest non-empty type picks its neighbours one colour at
    a time, k_t of type t in prod C(n_t, k_t) ways.  A picked vertex drops
    one need in that colour and is held back from the picker's later
    colours, so no pair is joined twice; the picker leaves, and vertices
    that need nothing more are dropped.  Vertices of one type are
    interchangeable, so the count depends on the histogram alone.  An edge
    meets two needs of its colour, so m * need[c] odd gives 0.  The memo
    lives as long as the returned function.
    """
    types = sorted(itertools.product(*(range(n + 1) for n in need)), key=lambda t: (sum(t), t))
    types.reverse()
    # after[c][i]: the type of a type-i vertex that gains one colour-c edge
    after = [
        [types.index(t[:c] + (t[c] - 1,) + t[c + 1:]) if t[c] else None for t in types]
        for c in range(len(need))
    ]

    def picks(top: tuple[int, ...], c: int, pool: list[int], held: list[int]):
        """(ways, next histogram) for each choice of the neighbours in colours c, c+1, ..."""
        if c == len(need):
            yield 1, tuple(map(operator.add, pool[:-1], held[:-1])) + (0,)
            return
        eligible = [i for i, n in enumerate(pool) if n and types[i][c]]
        caps = [pool[i] for i in eligible]
        for ks in _compositions(top[c], len(eligible)):
            if all(map(operator.le, ks, caps)):
                rest, moved = list(pool), list(held)
                for i, k in zip(eligible, ks):
                    rest[i] -= k
                    moved[after[c][i]] += k
                ways = math.prod(map(math.comb, caps, ks))
                for more, new in picks(top, c + 1, rest, moved):
                    yield ways * more, new

    @functools.cache
    def from_histogram(hist: tuple[int, ...]) -> int:
        top = next((i for i, n in enumerate(hist) if n), None)
        if top is None:
            return 1
        pool = list(hist)
        pool[top] -= 1
        return sum(
            ways * from_histogram(new)
            for ways, new in picks(types[top], 0, pool, [0] * len(types))
        )

    def count(m: int) -> int:
        if any(m * n % 2 for n in need):
            return 0
        return from_histogram((m,) + (0,) * (len(types) - 1))

    return count


def count_graphs(m_max: int, mode: str = "free") -> list[CountRow]:
    """Exact counts per vertex number m = 5, ..., m_max, with root and label multipliers.

    base_count, the number of labelled simple 4-regular graphs on m
    vertices, comes from the degree-histogram recursion of `_graph_counter`
    with one colour of need 4 (Read 1959; OEIS A005815).  Free mode
    multiplies it by m roots and 4^(2m) labellings of the 2m edges.

    Proper mode counts proper 4-edge-colourings of all base graphs at once,
    with the same recursion and a need of one edge of each of the four
    colours at every vertex: the colour classes of one are an ordered
    4-tuple of pairwise edge-disjoint perfect matchings of K_m, and every
    such tuple is one.  An odd m gives 0; the total is m times the count.
    Each counter's memo is shared by every m of one call (about 0.7 s at
    proper m = 12).

    No graph is enumerated; `enumerate_base_graphs` and the test oracle
    `proper_labelings` serve as the reference in the tests.
    """
    if mode not in ("free", "proper"):
        raise ValueError("mode must be 'free' or 'proper'")
    count_base = _graph_counter((VERTEX_DEGREE,))
    count_colourings = _graph_counter((1,) * len(EDGE_LABELS)) if mode == "proper" else None
    rows = []
    for m in range(VERTEX_DEGREE + 1, m_max + 1):
        base = count_base(m)
        per_root = base * 4 ** (2 * m) if mode == "free" else count_colourings(m)
        rows.append(CountRow(m, base, m * per_root))
    return rows


# -- assembly ---------------------------------------------------------------------


class PieceInstance(NamedTuple):
    template: PieceTemplate
    provenance: tuple


SlotRef = tuple[int, int]  # (piece index, slot index)


class _PairingFields(NamedTuple):
    a: SlotRef
    b: SlotRef
    flag: int = 1  # +1 orientation-compatible, -1 reversing


class Pairing(_PairingFields):
    """Two slot refs glued together, and the orientation flag of the glueing."""

    __slots__ = ()

    def __new__(cls, a: SlotRef, b: SlotRef, flag: int = 1):
        if flag not in (-1, 1):
            raise ValueError("flag must be +1 or -1")
        return tuple.__new__(cls, (a, b, flag))

    @classmethod
    def _make(cls, iterable) -> Pairing:
        # `_replace` builds through `_make`, so it validates too
        return cls(*iterable)


@functools.lru_cache(maxsize=16)
def _slot_set(counts: tuple[int, ...]) -> frozenset[SlotRef]:
    """Every (piece, slot) ref of pieces with these boundary counts."""
    return frozenset((piece, slot) for piece, n in enumerate(counts) for slot in range(n))


_ref_a, _ref_b = operator.itemgetter(0), operator.itemgetter(1)

# Builds a `Pairing` or `PieceInstance` from a tuple of its fields without
# calling the class: only for records this module makes itself, whose
# fields are valid by construction (every flag it writes is +1).
_trusted = tuple.__new__


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

    def is_closed(self) -> bool:
        """Whether every slot of every piece is paired exactly once."""
        return self._closed

    @functools.cached_property
    def _closed(self) -> bool:
        # computed on the first read (a cover's is set when it is built): as
        # many refs as slots, whose set is the set of all (piece, slot) pairs,
        # means every slot once
        slots = _slot_set(tuple(p.template.boundary_count for p in self.pieces))
        return 2 * len(self.pairings) == len(slots) and slots == {
            *map(_ref_a, self.pairings), *map(_ref_b, self.pairings)
        }

    def is_connected(self) -> bool:
        if not self.is_closed():
            raise ValueError("connectivity needs a closed complex")
        return self._walk()[0] <= 1

    def _walk(self) -> tuple[int, bool]:
        """Components of the piece graph, and whether it has a consistent signing.

        The edges are the pairings, carrying their flags, and the internal
        joins, carrying +1.  A signing gives every piece +-1 so that each
        edge's flag is the product of its endpoint signs; it exists iff
        every cycle has flag product +1.
        """
        n = len(self.pieces)
        # adj[x] holds y for an edge x-y with flag +1 and ~y (= -1 - y) for flag -1
        adj: list[list[int]] = [[] for _ in range(n)]
        for (i, _), (j, _), flag in self.pairings:
            if flag > 0:
                adj[i].append(j)
                adj[j].append(i)
            else:
                adj[i].append(~j)
                adj[j].append(~i)
        for i, j in self.internal_joins:
            adj[i].append(j)
            adj[j].append(i)
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
                for y in adj[x]:
                    want = sign[x]
                    if y < 0:
                        y, want = ~y, -want
                    if sign[y] == 0:
                        sign[y] = want
                        stack.append(y)
                    elif sign[y] != want:
                        consistent = False
        return components, consistent


@functools.lru_cache(maxsize=64)
def _assembly_pieces(m: int, root: int, labels: tuple[str, ...]) -> tuple:
    """The pieces of `assemble`: the vertex blocks, v at the root, then the edge blocks.

    They depend on this layout alone, never on the edges.
    """
    return tuple(
        _trusted(PieceInstance, (TEMPLATES["v" if vtx == root else "u"], ("vertex", vtx)))
        for vtx in range(m)
    ) + tuple(
        _trusted(PieceInstance, (TEMPLATES[lab], ("edge", k))) for k, lab in enumerate(labels)
    )


def assemble(graph: GlueingGraph) -> AssembledManifold:
    """Realize a glueing graph as a closed complex of the blocks of `TEMPLATES`.

    The root vertex gets the non-orientable block v, every other vertex a
    u block, and every edge its labelled two-boundary block; each edge
    block is paired into one free slot of each endpoint block, giving 4m
    orientation-compatible pairings in total.  The piece tuple is built
    once per layout (m, root and labels) and shared by every graph of
    that layout; only the pairings are built per graph.
    """
    m = graph.vertex_count
    pieces = _assembly_pieces(m, graph.root, tuple(graph.labels))
    capacity = [p.template.boundary_count for p in pieces[:m]]
    next_free = [0] * m  # each vertex block fills its slots in order
    pairings: list[Pairing] = []
    for piece_idx, (i, j) in enumerate(graph.edges, m):
        si, sj = next_free[i], next_free[j]
        if si == capacity[i] or sj == capacity[j]:
            raise RuntimeError("slot exhaustion: graph is not 4-regular")
        next_free[i], next_free[j] = si + 1, sj + 1
        pairings.append(_trusted(Pairing, ((piece_idx, 0), (i, si), 1)))
        pairings.append(_trusted(Pairing, ((piece_idx, 1), (j, sj), 1)))
    return AssembledManifold(pieces, tuple(pairings))


def volume(manifold: AssembledManifold) -> float:
    """The volume of the complex: every block has volume one."""
    return float(len(manifold.pieces))


def is_orientable(manifold: AssembledManifold) -> bool:
    """False with any non-orientable block; otherwise the orientation cocycle.

    The cocycle is trivial iff the pieces admit a +-1 signing with every
    pairing flag equal to the product of its endpoint signs (i.e. every
    cycle of the pairing graph has flag product +1).  With no flag -1
    (internal joins always carry +1) the all-+1 signing is one, so the
    pairing graph is walked only when some pairing reverses.
    """
    if not manifold.is_closed():
        raise ValueError("orientability needs a closed complex")
    if any(not p.template.orientable for p in manifold.pieces):
        return False
    return all(p.flag > 0 for p in manifold.pairings) or manifold._walk()[1]


@functools.lru_cache(maxsize=64)
def _cover_pieces(pieces: tuple[PieceInstance, ...]) -> tuple[PieceInstance, ...]:
    """Sheet 0 then sheet 1 over `pieces`; the sheets of a non-orientable block are orientable."""
    templates = [
        p.template if p.template.orientable else p.template._orientable_cover for p in pieces
    ]
    return tuple(
        _trusted(PieceInstance, (template, ("cover", *p.provenance, sheet)))
        for sheet in (0, 1)
        for p, template in zip(pieces, templates)
    )


def orientation_double_cover(manifold: AssembledManifold) -> AssembledManifold:
    """Two sheets per piece, pairings lifted through the orientation cocycle.

    Reversing pairings (flag -1) connect opposite sheets and lift to
    compatible ones.  The two sheets over a non-orientable block are the
    halves of its connected orientation cover: they are recorded as
    internally joined and marked orientable.  The deck involution swaps
    the sheets of every piece and is fixed-point-free on instances.

    An open complex is refused, so the cover is closed by construction:
    each base slot is paired once and lifts to one slot per sheet, paired
    once by its pairing's lifts.  The cover's closedness is set from that,
    not checked again.  Its piece tuple is built once per base piece tuple.
    """
    if not manifold.is_closed():
        raise ValueError("double cover needs a closed complex")
    n = len(manifold.pieces)
    pieces = _cover_pieces(tuple(manifold.pieces))
    # piece i of sheet 1 is piece i + n of the cover
    pairings = []
    for a, b, flag in manifold.pairings:
        a1, b1 = (a[0] + n, a[1]), (b[0] + n, b[1])
        if flag < 0:
            b, b1 = b1, b
        pairings.append(_trusted(Pairing, (a, b, 1)))
        pairings.append(_trusted(Pairing, (a1, b1, 1)))
    joins = [
        (i, i + n)
        for i, p in enumerate(manifold.pieces)
        if not p.template.orientable
    ]
    joins += [(i + n, j + n) for i, j in manifold.internal_joins]
    joins += [(i, j) for i, j in manifold.internal_joins]
    deck = tuple(range(n, 2 * n)) + tuple(range(n))
    cover = AssembledManifold(pieces, tuple(pairings), tuple(joins), deck)
    cover.__dict__["_closed"] = True  # lifted from the base's checked closedness
    return cover


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
