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
from dataclasses import dataclass, field
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


class Pairing(NamedTuple):
    """Two slot refs glued together, and the orientation flag of the glueing."""

    a: SlotRef
    b: SlotRef
    flag: int = 1  # +1 orientation-compatible, -1 reversing


@dataclass(frozen=True)
class SlotLayout:
    """Pieces with their slots numbered in turn: piece i owns the range
    slots[i], and slot s lies in piece piece_of[s].  `cover` lays out the
    orientation double cover, where slot s of sheet t is slot s + t * S for
    S slots here.  `assemble` shares one layout, and its cover layout, per
    m, root and labels."""

    pieces: tuple[PieceInstance, ...]
    slots: tuple[range, ...] = field(init=False, repr=False, compare=False)
    piece_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    non_orientable: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = [p.template.boundary_count for p in self.pieces]
        first = list(itertools.accumulate(counts, initial=0))
        object.__setattr__(self, "slots", tuple(map(range, first, first[1:])))
        object.__setattr__(self, "piece_of", tuple(i for i, r in enumerate(self.slots) for _ in r))
        bad = tuple(i for i, p in enumerate(self.pieces) if not p.template.orientable)
        object.__setattr__(self, "non_orientable", bad)

    @functools.cached_property
    def cover(self) -> SlotLayout:
        """Two sheets per piece; the sheets of a non-orientable block are orientable."""
        templates = [
            PieceTemplate(p.template.label + "~", p.template.boundary_count, True)
            if i in self.non_orientable else p.template
            for i, p in enumerate(self.pieces)
        ]
        return SlotLayout(tuple(
            PieceInstance(template, ("cover", *p.provenance, sheet))
            for sheet in (0, 1)
            for p, template in zip(self.pieces, templates)
        ))


@dataclass(frozen=True)
class AssembledManifold:
    """A complex of piece instances glued slot to slot: `partner[s]` is the
    slot glued to slot s, or s itself when s is open, and `flag[s]` that
    glueing's orientation flag.  `internal_joins` pairs the instances that
    are halves of one connected covering block (a non-orientable piece's sheets)."""

    layout: SlotLayout
    partner: tuple[int, ...]
    flag: tuple[int, ...]
    internal_joins: tuple[tuple[int, int], ...] = ()
    deck_involution: tuple[int, ...] | None = None

    def __post_init__(self):
        # closed: `partner` is a fixed-point-free involution, read once as the arrays never change
        partner, slots = self.partner, range(len(self.partner))
        closed = [partner[t] for t in partner] == list(slots)
        object.__setattr__(self, "_involution", closed and all(map(operator.ne, partner, slots)))

    @classmethod
    def glued(cls, pieces, pairings, internal_joins=(), deck_involution=None) -> AssembledManifold:
        """The complex whose pairings glue slot a to slot b with their flags.
        Refuses a flag other than +1 or -1, a ref to no slot of the pieces
        and a slot named twice; a slot that no pairing names stays open."""
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
        return cls(layout, tuple(partner), tuple(flag), tuple(internal_joins), deck)

    @property
    def pieces(self) -> tuple[PieceInstance, ...]:
        return self.layout.pieces

    @property
    def pairings(self) -> tuple[Pairing, ...]:
        """The glueings as slot-ref pairs, in the order of their lower slot."""
        refs = [(i, k) for i, r in enumerate(self.layout.slots) for k in range(len(r))]
        pairs = [(s, t) for s, t in enumerate(self.partner) if s < t]
        return tuple(Pairing(refs[s], refs[t], self.flag[s]) for s, t in pairs)

    def is_closed(self) -> bool:
        """Whether every slot is glued to exactly one other slot."""
        return self._involution

    def is_connected(self) -> bool:
        if not self.is_closed():
            raise ValueError("connectivity needs a closed complex")
        return self._walk()[0] <= 1

    def deck_is_free(self) -> bool:
        """Whether the deck involution is a fixed-point-free involution of the
        pieces that commutes with `partner` when it moves slot k of each
        piece to slot k of its image."""
        if not self.is_closed():
            raise ValueError("the deck check needs a closed complex")
        deck, slots, partner = self.deck_involution, self.layout.slots, self.partner
        pieces = list(range(len(slots)))
        if deck is None or sorted(deck) != pieces or [deck[d] for d in deck] != pieces:
            return False
        images = [slots[d] for d in deck]
        if any(map(operator.eq, deck, pieces)) or list(map(len, images)) != list(map(len, slots)):
            return False
        moved = list(itertools.chain.from_iterable(images))
        return [partner[moved[t]] for t in partner] == moved  # partner moved partner = moved

    def _walk(self) -> tuple[int, bool]:
        """Components of the piece graph, and whether a +-1 signing of the
        pieces makes each join's flag the product of its ends' signs: each
        slot joins its piece to its partner's with the slot's flag, each
        internal join two pieces with +1."""
        slots, piece_of = self.layout.slots, self.layout.piece_of
        partner, flag = self.partner, self.flag
        joined: list[tuple[int, ...]] = [()] * len(slots)
        for i, j in self.internal_joins:
            joined[i], joined[j] = joined[i] + (j,), joined[j] + (i,)
        sign = [0] * len(slots)
        components, consistent = 0, True
        for start, seen in enumerate(sign):
            if seen:
                continue
            components += 1
            sign[start] = 1
            stack = [start]
            for x in stack:  # grows while it is read
                sx = sign[x]
                for s in slots[x]:
                    y, want = piece_of[partner[s]], sx * flag[s]
                    if not sign[y]:
                        sign[y] = want
                        stack.append(y)
                    elif sign[y] != want:
                        consistent = False
                for y in joined[x]:
                    if not sign[y]:
                        sign[y] = sx
                        stack.append(y)
                    elif sign[y] != sx:
                        consistent = False
        return components, consistent


@functools.lru_cache(maxsize=64)
def _assembly_layout(m: int, root: int, labels: tuple[str, ...]) -> SlotLayout:
    """The vertex blocks, v at the root, then the edge blocks."""
    return SlotLayout(
        tuple(PieceInstance(TEMPLATES["v" if v == root else "u"], ("vertex", v)) for v in range(m))
        + tuple(PieceInstance(TEMPLATES[lab], ("edge", k)) for k, lab in enumerate(labels))
    )


def assemble(graph: GlueingGraph) -> AssembledManifold:
    """Realize a glueing graph as a closed complex of the blocks of `TEMPLATES`.

    The root vertex gets the non-orientable block v, every other vertex a
    u block, and every edge its labelled two-boundary block.  Vertex v owns
    slots 4v .. 4v + 3 and fills them in edge order; edge k owns slots
    4m + 2k and 4m + 2k + 1, glued with flag +1 to a free slot of each
    endpoint.  A block given too many edges writes into the next block's
    slots, and `partner` is then no involution.
    """
    m = graph.vertex_count
    partner = list(range(8 * m))
    free = list(range(0, 4 * m, 4))  # the next free slot of each vertex block
    for s, (i, j) in zip(range(4 * m, 8 * m, 2), graph.edges):
        si, sj = free[i], free[j]
        free[i], free[j] = si + 1, sj + 1
        partner[s], partner[si] = si, s
        partner[s + 1], partner[sj] = sj, s + 1
    layout = _assembly_layout(m, graph.root, tuple(graph.labels))
    return AssembledManifold(layout, tuple(partner), (1,) * (8 * m))


def volume(manifold: AssembledManifold) -> float:
    """The volume of the complex: every block has volume one."""
    return float(len(manifold.pieces))


def is_orientable(manifold: AssembledManifold) -> bool:
    """False with any non-orientable block; otherwise whether the pieces
    have a signing (see `_walk`).  With no flag -1 the all-+1 signing is
    one, so the piece graph is walked only when some glueing reverses.
    """
    if not manifold.is_closed():
        raise ValueError("orientability needs a closed complex")
    if manifold.layout.non_orientable:
        return False
    return -1 not in manifold.flag or manifold._walk()[1]


def orientation_double_cover(manifold: AssembledManifold) -> AssembledManifold:
    """Two sheets per piece, glueings lifted through the orientation cocycle.

    Slot s of sheet t is glued to partner(s) on sheet t, or on the other
    sheet when the glueing reverses; every lifted flag is +1.  The sheets
    over a non-orientable block are the internally joined, orientable
    halves of its connected orientation cover.  The deck involution swaps
    the sheets of every piece.  An open complex is refused.
    """
    if not manifold.is_closed():
        raise ValueError("double cover needs a closed complex")
    n, size = len(manifold.pieces), len(manifold.partner)
    # sheet 0 first; sheet 1 is its image under the sheet swap
    lift = [t + size if f < 0 else t for t, f in zip(manifold.partner, manifold.flag)]
    partner = lift + [t - size if t >= size else t + size for t in lift]
    joins = [(i, i + n) for i in manifold.layout.non_orientable]
    joins += [(i + n, j + n) for i, j in manifold.internal_joins] + list(manifold.internal_joins)
    deck = tuple(range(n, 2 * n)) + tuple(range(n))
    cover = manifold.layout.cover
    return AssembledManifold(cover, tuple(partner), (1,) * (2 * size), tuple(joins), deck)


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
