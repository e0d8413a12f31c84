"""Piece glueing prescribed by rooted 4-regular edge-labelled graphs.

Counts labelled simple 4-regular graphs and their rooted, edge-labelled
decorations by formula, enumerates the base graphs for the assembly checks
as one edge array (one numpy step per upper-triangular pair, in ascending
order of the adjacency bitmask), assembles the corresponding closed piece
complexes as array batches, and measures the super-exponential growth of the
counts.

Both counts come from one degree-histogram recursion (R. C. Read, J. London
Math. Soc. 34, 1959) keyed by the edges of each colour a vertex needs.  A
need of 4 in one colour gives the base count (OEIS A005815): 1, 15, 465,
19355, 1024380, ... for m = 5, 6, 7, ...  A need of one edge in each of four
colours gives the proper labellings of all base graphs together: the
ordered 4-tuples of edge-disjoint perfect matchings of the complete graph K_m.

Pieces are combinatorial: a block with a boundary-slot count and an
orientability bit, one of the six standard blocks of `TEMPLATES`.  Every
block has volume one.  Pairing isometries are abstracted to an
orientation flag per pairing.  A glued complex is one slot involution
(Lienhardt, Int. J. Comput. Geom. Appl. 4, 1994), held as a row of an
`AssemblyBatch`: the complexes of one slot layout are checked together, one
array expression per check, and a single complex is a batch of one row.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

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


def enumerate_base_graphs(m: int) -> np.ndarray:
    """All labelled simple 4-regular graphs on m vertices, as the int array
    of shape (G, 2m, 2) that `assemble_batch` takes: row g lists the edges
    (i, j), i < j, of graph g in pair order (0,1), (0,2), ...

    One numpy step per pair decides its bit for every partial graph, a row
    of residual degrees and chosen bits, keeping bit 0 before bit 1 under
    each row; so the graphs come in ascending order of the upper-triangular
    adjacency bitmask with pair (0,1) as its most significant bit.  A
    branch is cut as soon as a vertex needs more edges than the pairs left
    can give it, and the rows left with a residual degree are dropped at
    the end (about 20 ms at m = 8); `count_graphs` counts the graphs
    without enumerating them.  Below m = 5 the array has no rows.
    """
    if m <= VERTEX_DEGREE:
        return np.zeros((0, 2 * m, 2), dtype=np.intp)
    pairs = np.array([(i, j) for i in range(m) for j in range(i + 1, m)], dtype=np.intp)
    residual = np.full((1, m), VERTEX_DEGREE)
    chosen = np.zeros((1, len(pairs)), dtype=bool)
    # Invariant before pair k: residual[:, v] <= the pairs at position >= k
    # that touch v.  Pair k only touches i and j; after it come (i, j+1),
    # ..., (i, m-1) and then pairs with a larger first vertex, so m-1-j of
    # them touch i and (j-i-1) + (m-1-j) = m-i-2 touch j.
    for k, (i, j) in enumerate(pairs.tolist()):
        # bit 0: i and j lose one remaining pair each; bit 1: they also
        # lose one residual degree each
        skip = (residual[:, i] <= m - 1 - j) & (residual[:, j] <= m - i - 2)
        take = (residual[:, i] > 0) & (residual[:, j] > 0)
        parent, bit = np.divmod(np.flatnonzero(np.column_stack([skip, take])), 2)
        residual, chosen = residual[parent], chosen[parent]
        residual[:, [i, j]] -= bit[:, None]
        chosen[:, k] = bit
    chosen = chosen[(residual == 0).all(1)]
    return pairs[np.nonzero(chosen)[1]].reshape(len(chosen), 2 * m, 2)


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


@dataclass(frozen=True)
class SlotLayout:
    """Pieces with their slots numbered in turn: piece i owns the range
    slots[i], and slot s lies in piece piece_of[s].  `cover` lays out the
    orientation double cover, where slot s of sheet t is slot s + t * S for
    S slots here."""

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


@dataclass(frozen=True, eq=False)
class AssemblyBatch:
    """Complexes on one slot layout, one per row of the (G, S) int arrays
    `partner` and `flag`: `partner[g, s]` is the slot glued to slot s, or s
    itself when s is open, and `flag[g, s]` that glueing's orientation flag
    (+1 or -1).  `internal_joins` pairs the pieces that are halves of one
    connected covering block (a non-orientable piece's sheets).  A single
    complex is a batch of one row.  Each check gives one verdict per row,
    meaningful on an open row only from `closed`.  The arrays are made
    read-only, as `components` and `cover` are computed once."""

    layout: SlotLayout
    partner: np.ndarray
    flag: np.ndarray
    internal_joins: tuple[tuple[int, int], ...] = ()
    deck_involution: tuple[int, ...] | None = None

    def __post_init__(self):
        rows, size = len(self.partner), len(self.layout.piece_of)
        for name, x in (("partner", self.partner), ("flag", self.flag)):
            if x.shape != (rows, size) or x.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an int array of shape (G, {size}), one row per complex")
        if not ((0 <= self.partner) & (self.partner < size)).all():
            raise ValueError("partner must name slots of the layout")
        if not (abs(self.flag) == 1).all():
            raise ValueError("flag must be +1 or -1")
        self.partner.setflags(write=False)
        self.flag.setflags(write=False)

    def __reduce__(self):
        # a copy is built anew, so its arrays are read-only and its checks uncached
        return type(self), (self.layout, self.partner, self.flag, self.internal_joins, self.deck_involution)

    def closed(self) -> np.ndarray:
        """Whether `partner` is a fixed-point-free involution."""
        rows, slots = np.arange(len(self.partner))[:, None], np.arange(self.partner.shape[1])
        involution = (self.partner[rows, self.partner] == slots).all(1)
        return involution & (self.partner != slots).all(1)

    @functools.cached_property
    def components(self) -> np.ndarray:
        """The components of the piece graph, whose edges are the glueings
        and the internal joins, by min-label propagation with pointer
        jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): every piece
        takes the least label among its own and its neighbours', then the
        label of that label, until no label moves.  A label only falls and
        stays in its component, so at the fixed point one piece per
        component keeps its own."""
        rows, n = len(self.partner), len(self.layout.pieces)
        if not n:
            return np.zeros(rows, dtype=np.intp)
        piece_of = np.asarray(self.layout.piece_of, dtype=np.intp)
        i, j = np.array(self.internal_joins, dtype=np.intp).reshape(-1, 2).T
        # row c of `across` leads from piece owner[c] across a slot or a join,
        # to piece q of row g, labelled q * rows + g
        owner = np.concatenate([piece_of, i, j])
        joined = np.repeat(np.concatenate([j, i])[:, None], rows, 1)
        across = np.vstack([piece_of[self.partner.T], joined]) * rows + np.arange(rows)
        # row k of `table`: the k-th row of `across` of each piece, whose rows
        # repeat up to the widest piece's count (a repeat leaves a minimum alone)
        order, width = np.argsort(owner, kind="stable"), np.bincount(owner, minlength=n)
        table = order[np.cumsum(width) - width + np.arange(width.max())[:, None] % width]
        near = across[table].reshape(len(table), n * rows)
        label, previous = np.arange(n * rows), None
        while not np.array_equal(label, previous):
            previous = label
            label = np.minimum(label, label[near].min(0))
            label = label[label]
        return (label == np.arange(n * rows)).reshape(n, rows).sum(0)

    def orientable(self) -> np.ndarray:
        """Whether no block is non-orientable and a +-1 signing of the
        pieces makes each glueing's flag, and +1 on each internal join, the
        product of its ends' signs.

        A layout with a non-orientable block gives False for every row.  A
        row whose flags are all +1 is oriented by the all-+1 signing.  Only
        when some row has a -1 flag are the cover and the components
        computed, and such a row is orientable iff the cover's piece graph,
        the signed double graph on (piece, sign) nodes, has twice the
        components."""
        if self.layout.non_orientable:
            return np.zeros(len(self.partner), dtype=bool)
        witnessed = (self.flag == 1).all(1)
        if witnessed.all():
            return witnessed
        return witnessed | (self.cover.components == 2 * self.components)

    def deck_free(self) -> np.ndarray:
        """Whether the deck involution is a fixed-point-free involution of
        the pieces that commutes with `partner` when it moves slot k of each
        piece to slot k of its image."""
        deck, slots = self.deck_involution, self.layout.slots
        if deck is None or sorted(deck) != list(range(len(slots))) or not all(
            deck[d] == i != d and len(slots[d]) == len(slots[i]) for i, d in enumerate(deck)
        ):
            return np.zeros(len(self.partner), dtype=bool)
        moved = np.fromiter(itertools.chain.from_iterable(slots[d] for d in deck), np.intp)
        return (self.partner[:, moved] == moved[self.partner]).all(1)

    @functools.cached_property
    def cover(self) -> AssemblyBatch:
        """The orientation double cover of every row: slot s of sheet t
        (slot s + t * S) is glued to partner(s) on sheet t xor [flag(s) < 0],
        with flag +1.  The sheets over a non-orientable block are the
        internally joined, orientable halves of its connected orientation
        cover.  The deck involution swaps the sheets of every piece."""
        n, size = len(self.layout.pieces), self.partner.shape[1]
        reverses = self.flag < 0
        partner = np.hstack([self.partner + size * reverses, self.partner + size * ~reverses])
        joins = [(i, i + n) for i in self.layout.non_orientable]
        joins += [(i + n, j + n) for i, j in self.internal_joins] + list(self.internal_joins)
        deck = tuple(range(n, 2 * n)) + tuple(range(n))
        flag = np.broadcast_to(1, partner.shape)
        return AssemblyBatch(self.layout.cover, partner, flag, tuple(joins), deck)


@functools.lru_cache(maxsize=64)
def _assembly_layout(m: int, root: int, labels: tuple[str, ...]) -> SlotLayout:
    """The vertex blocks, v at the root, then the edge blocks; shared by every
    batch of one m, root and labelling, and so are its cover layouts."""
    return SlotLayout(
        tuple(PieceInstance(TEMPLATES["v" if v == root else "u"], ("vertex", v)) for v in range(m))
        + tuple(PieceInstance(TEMPLATES[lab], ("edge", k)) for k, lab in enumerate(labels))
    )


def assemble_batch(m: int, edges: np.ndarray, root: int, labels: tuple[str, ...]) -> AssemblyBatch:
    """The complexes of the graphs on m vertices whose edge lists are the
    rows of `edges`, with one root and labelling: the root vertex gets the
    non-orientable block v, every other vertex a u block, and every edge
    its labelled block.  Vertex v owns slots 4v .. 4v + 3 and gives them to
    its edges in edge order; edge k owns slots 4m + 2k and 4m + 2k + 1,
    glued with flag +1 to its ends.  A block given too many edges writes
    into the next block's slots, and `partner` is then no involution.
    Refuses a root outside 0 .. m - 1, an edge that is not a pair
    i < j of vertices, a label count other than 2m and a label outside
    `EDGE_LABELS`; degrees are not checked."""
    if not 0 <= root < m:
        raise ValueError("root out of range")
    i, j = edges[..., 0], edges[..., 1]
    if not ((0 <= i) & (i < j) & (j < m)).all():
        raise ValueError("edges must be sorted pairs of distinct vertices")
    if len(labels) != 2 * m:
        raise ValueError("one label per edge required")
    unknown = [lab for lab in labels if lab not in EDGE_LABELS]
    if unknown:
        raise ValueError(f"unknown edge label {unknown[0]!r}")
    ends = edges.reshape(len(edges), -1)  # end e of the row is edge slot 4m + e
    size = 4 * m + ends.shape[1]
    # in stable vertex order the r-th end is its vertex's (r - first)-th
    order = np.argsort(ends, axis=1, kind="stable")
    vertex = np.take_along_axis(ends, order, 1)
    r = np.arange(ends.shape[1])
    first = np.maximum.accumulate(np.where(np.diff(vertex, axis=1, prepend=-1) != 0, r, 0), axis=1)
    vertex_slot = 4 * vertex + r - first
    partner = np.tile(np.arange(size), (len(ends), 1))
    np.put_along_axis(partner, vertex_slot, 4 * m + order, 1)
    np.put_along_axis(partner, 4 * m + order, vertex_slot, 1)
    layout = _assembly_layout(m, root, tuple(labels))
    return AssemblyBatch(layout, partner, np.broadcast_to(1, partner.shape))


def volume(batch: AssemblyBatch) -> float:
    """The volume of each complex of the batch: every block has volume one."""
    return float(len(batch.layout.pieces))


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
