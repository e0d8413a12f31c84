"""Graph enumeration against a bitmask oracle, assembly and cover invariants."""

import copy
import dataclasses
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hyperglue import glueing
from hyperglue.glueing import (
    EDGE_LABELS,
    TEMPLATES,
    AssemblyBatch,
    PieceInstance,
    PieceTemplate,
    SlotLayout,
    assemble_batch,
    count_graphs,
    enumerate_base_graphs,
    growth_fit,
    volume,
)
from oracles import (
    DecoratedGraph,
    Pairing,
    RefComplex,
    base_graphs,
    bitmask_oracle,
    brute_force_orientable,
    closed_by_scan,
    components_and_signing,
    deck_commutes_by_refs,
    enumerate_graphs,
    enumerated_counts,
    glued,
    proper_labelings,
    row_refs,
)


class TestEnumeration:
    @pytest.mark.parametrize("m,expected", [(5, 1), (6, 15), (7, 465)])
    def test_counts_match_oracle(self, m, expected):
        ours = base_graphs(m)
        oracle = bitmask_oracle(m)
        assert len(ours) == expected
        assert sorted(ours) == sorted(oracle)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_ascending_bitmask_order(self, m):
        # pair (0, 1) is the most significant bit; the bitmask oracle stores it least
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

        def bits(edges):
            chosen = set(edges)
            return tuple(p in chosen for p in pairs)

        ours = base_graphs(m)
        if m <= 7:
            assert ours == sorted(bitmask_oracle(m), key=bits)
        else:
            # 2^28 masks are too many for the oracle: the graphs are 4-regular,
            # distinct, ascending and as many as the formula counts
            assert all(set(Counter(v for e in g for v in e).values()) == {4} for g in ours)
            assert all(bits(a) < bits(b) for a, b in zip(ours, ours[1:]))
            assert len(ours) == count_graphs(8)[-1].base_count

    def test_duplicate_free(self):
        graphs = base_graphs(7)
        assert len(set(graphs)) == len(graphs)

    def test_below_five_empty(self):
        # an empty edge array of the shape and kind that `assemble_batch` takes
        for m in (1, 2, 3, 4):
            graphs = enumerate_base_graphs(m)
            assert graphs.shape == (0, 2 * m, 2) and graphs.dtype.kind == "i"

    def test_k5_is_the_unique_graph(self):
        (edges,) = base_graphs(5)
        assert edges == tuple((i, j) for i in range(5) for j in range(i + 1, 5))

    def test_m6_complements_of_perfect_matchings(self):
        # complement of a 4-regular graph on 6 vertices is a perfect matching
        def complement(edges):
            all_pairs = {(i, j) for i in range(6) for j in range(i + 1, 6)}
            return all_pairs - set(edges)

        for edges in base_graphs(6):
            comp = complement(edges)
            assert len(comp) == 3
            used = set()
            for i, j in comp:
                assert i not in used and j not in used
                used.update((i, j))

    def test_m7_cycle_complement_split(self):
        # complements are 2-regular: either a 7-cycle or a 3-cycle + 4-cycle
        def complement(edges):
            all_pairs = {(i, j) for i in range(7) for j in range(i + 1, 7)}
            return all_pairs - set(edges)

        cycle7 = 0
        split34 = 0
        for edges in base_graphs(7):
            comp = complement(edges)
            adj = {v: [] for v in range(7)}
            for i, j in comp:
                adj[i].append(j)
                adj[j].append(i)
            assert all(len(nbrs) == 2 for nbrs in adj.values())
            seen = set()
            sizes = []
            for v in range(7):
                if v in seen:
                    continue
                size = 0
                current, prev = v, None
                while current not in seen:
                    seen.add(current)
                    size += 1
                    nxt = [w for w in adj[current] if w != prev]
                    prev, current = current, nxt[0]
                sizes.append(size)
            if sorted(sizes) == [7]:
                cycle7 += 1
            elif sorted(sizes) == [3, 4]:
                split34 += 1
        assert cycle7 == 360 and split34 == 105

    def test_m8_count_order_and_degrees(self):
        # checked without the search's own bookkeeping: the count is OEIS
        # A005815, the order is that of the bitmask with pair (0, 1) as its
        # most significant bit, and the degrees come from the edge lists
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        weight = {pair: 1 << (len(pairs) - 1 - k) for k, pair in enumerate(pairs)}
        graphs = base_graphs(8)
        assert len(graphs) == 19355
        masks = [sum(weight[e] for e in edges) for edges in graphs]
        assert all(x < y for x, y in zip(masks, masks[1:]))
        for edges in graphs:
            assert Counter(v for e in edges for v in e) == dict.fromkeys(range(8), 4)

    def test_stream_decorations(self):
        stream = enumerate_graphs(5, "free")
        first = [next(stream) for _ in range(25)]
        for g in first:
            assert g.vertex_count == 5 and len(g.edges) == 10
        # roots iterate fastest: the first five share labels and run over roots
        assert [g.root for g in first[:5]] == [0, 1, 2, 3, 4]

    def test_proper_stream_matches_counts(self):
        total = sum(1 for _ in enumerate_graphs(6, "proper"))
        rows = count_graphs(6, "proper")
        assert total == rows[-1].rooted_labelled
        # 15 base graphs x 48 colorings each x 6 roots
        assert total == 15 * 48 * 6

    def test_proper_odd_m_empty(self):
        assert list(enumerate_graphs(5, "proper")) == []
        assert count_graphs(7, "proper")[-1].rooted_labelled == 0

    def test_proper_labelings_are_proper(self):
        edges = base_graphs(6)[0]
        for labels in itertools.islice(proper_labelings(edges, 6), 10):
            for v in range(6):
                at_v = [lab for edge, lab in zip(edges, labels) if v in edge]
                assert sorted(at_v) == sorted(EDGE_LABELS)


class TestCounts:
    def test_free_mode_product_rule(self):
        rows = count_graphs(7, "free")
        for row in rows:
            assert row.rooted_labelled == row.base_count * row.m * 4 ** (2 * row.m)

    def test_free_label_count_by_direct_enumeration(self):
        (edges,) = enumerate_base_graphs(5)
        n_labels = sum(1 for _ in itertools.product(EDGE_LABELS, repeat=len(edges)))
        assert n_labels == 4 ** 10
        assert count_graphs(5, "free")[0].rooted_labelled == 5 * n_labels

    def test_proper_bounded_by_free(self):
        free = {r.m: r.rooted_labelled for r in count_graphs(7, "free")}
        proper = {r.m: r.rooted_labelled for r in count_graphs(7, "proper")}
        for m in free:
            assert proper[m] <= free[m]

    @pytest.mark.parametrize("mode,m_max", [("free", 8), ("proper", 7)])
    def test_matches_enumeration(self, mode, m_max):
        assert count_graphs(m_max, mode) == enumerated_counts(m_max, mode)

    def test_proper_m8_value(self):
        # enumerated_counts(8, "proper")[-1] gives the same row in about 50 s
        row = count_graphs(8, "proper")[-1]
        assert (row.base_count, row.rooted_labelled) == (19355, 23063040)

    def test_proper_m10_value(self):
        # the matching backtracking that counted proper mode before gave this row
        row = count_graphs(10, "proper")[-1]
        assert (row.base_count, row.rooted_labelled) == (66462606, 217532044800)

    def test_one_matching_is_double_factorial(self):
        count = glueing._graph_counter((1,))
        for m in range(0, 31, 2):
            assert count(m) == math.prod(range(m - 1, 0, -2))

    def test_two_disjoint_matchings_by_inclusion_exclusion(self):
        # ordered pairs (M1, M2) of edge-disjoint perfect matchings: (m-1)!! choices of
        # M1, times the matchings sharing no edge with it, by inclusion-exclusion over
        # the j edges of M1 that M2 would share
        def double_factorial(n):
            return math.prod(range(n, 0, -2))

        count = glueing._graph_counter((1, 1))
        for m in range(2, 25, 2):
            avoiding = sum(
                (-1) ** j * math.comb(m // 2, j) * double_factorial(m - 2 * j - 1)
                for j in range(m // 2 + 1)
            )
            assert count(m) == double_factorial(m - 1) * avoiding

    @pytest.mark.parametrize(
        "degree,ms,expected",
        [
            # OEIS A001205: labelled 2-regular graphs
            (2, range(3, 11), [1, 3, 12, 70, 465, 3507, 30016, 286884]),
            # OEIS A002829: labelled cubic graphs
            (3, range(4, 13, 2), [1, 70, 19355, 11180820, 11555272575]),
        ],
    )
    def test_regular_counts_oeis(self, degree, ms, expected):
        count = glueing._graph_counter((degree,))
        assert [count(m) for m in ms] == expected

    def test_odd_need_sum_gives_zero(self):
        assert glueing._graph_counter((3,))(5) == 0
        assert glueing._graph_counter((1, 1, 1, 1))(9) == 0
        assert glueing._graph_counter((2, 1))(7) == 0

    def test_free_base_counts_oeis(self):
        rows = count_graphs(11, "free")[-3:]
        # OEIS A005815
        assert [r.base_count for r in rows] == [1024380, 66462606, 5188453830]
        for row in rows:
            assert row.rooted_labelled == row.base_count * row.m * 4 ** (2 * row.m)

    def test_free_base_counts_approach_bender_canfield(self):
        # Bender-Canfield: labelled 4-regular graphs on m vertices number
        # BC(m) = (4m)! / ((2m)! 2^(2m) 24^m) e^(-15/4) (1 + O(1/m)); the
        # quotient is exact and only e^(15/4) is a float
        ratios = {}
        for row in count_graphs(40, "free"):
            m = row.m
            quotient = Fraction(
                row.base_count * math.factorial(2 * m) * 2 ** (2 * m) * 24**m,
                math.factorial(4 * m),
            )
            ratios[m] = float(quotient) * math.exp(15 / 4)
        assert 0.51 < ratios[5] < 0.52 and 0.38 < ratios[6] < 0.39
        assert all(ratios[m] < ratios[m + 1] for m in range(6, 40))
        assert 0.88 < ratios[40] < 0.89
        assert all(4.66 <= (1 - ratios[m]) * m <= 4.78 for m in range(20, 41))

    def test_small_m_give_zero_rows(self):
        for mode in ("free", "proper"):
            assert count_graphs(4, mode) == []

    @pytest.mark.parametrize("mode", ["free", "proper"])
    def test_counts_without_enumeration(self, monkeypatch, mode):
        def fail(*args, **kwargs):
            raise AssertionError("count_graphs must not enumerate graphs")

        monkeypatch.setattr(glueing, "enumerate_base_graphs", fail)
        rows = count_graphs(9, mode)
        assert [r.base_count for r in rows] == [1, 15, 465, 19355, 1024380]


def labels_of(m: int) -> tuple[str, ...]:
    """Labels a+, a-, b+, b- in edge order, one per edge of a graph on m vertices."""
    return tuple(EDGE_LABELS[k % 4] for k in range(2 * m))


def assembled(m: int, graphs, root: int = 0) -> AssemblyBatch:
    """The complexes of the edge lists `graphs` on m vertices, one row each, assembled as the CLI does."""
    return assemble_batch(m, np.asarray(graphs), root, labels_of(m))


def k5_assembly(root=0) -> AssemblyBatch:
    return assembled(5, enumerate_base_graphs(5), root)


def same(x: AssemblyBatch, y: AssemblyBatch) -> bool:
    """Whether two batches hold the same complexes, row by row."""
    return (
        x.layout == y.layout
        and np.array_equal(x.partner, y.partner)
        and np.array_equal(x.flag, y.flag)
        and x.internal_joins == y.internal_joins
        and x.deck_involution == y.deck_involution
    )


def stacked(batches) -> AssemblyBatch:
    """The rows of batches on one layout, with the first one's joins and deck involution."""
    first = batches[0]
    partner, flag = (np.vstack([getattr(b, name) for b in batches]) for name in ("partner", "flag"))
    return AssemblyBatch(first.layout, partner, flag, first.internal_joins, first.deck_involution)


class TestGraphValidation:
    def test_rejects_bad_root(self):
        # a root outside the vertices would leave the complex with no root block v
        edges = enumerate_base_graphs(5)
        for root in (9, 5, -1):
            with pytest.raises(ValueError, match="^root out of range$"):
                assemble_batch(5, edges, root, labels_of(5))

    @pytest.mark.parametrize(
        "pair", [(3, 12), (3, 5), (3, 7), (4, 3), (2, 2), (-1, 3)], ids=lambda p: f"{p[0]},{p[1]}"
    )
    def test_rejects_edge_ends_that_name_no_vertex(self, pair):
        # (3, 12) used to raise a bare IndexError and (3, 7) to build an open row
        edges = enumerate_base_graphs(5)
        edges[0, 9] = pair
        with pytest.raises(ValueError, match="^edges must be sorted pairs of distinct vertices$"):
            assemble_batch(5, edges, 0, labels_of(5))

    def test_rejects_a_label_count_other_than_2m(self):
        edges = enumerate_base_graphs(5)
        for labels in (labels_of(5)[:3], labels_of(5)[:9], labels_of(5) + ("a+",)):
            with pytest.raises(ValueError, match="^one label per edge required$"):
                assemble_batch(5, edges, 0, labels)

    def test_rejects_an_unknown_label(self):
        edges = enumerate_base_graphs(5)
        labels = labels_of(5)[:4] + ("c+",) + labels_of(5)[5:]
        with pytest.raises(ValueError, match=r"^unknown edge label 'c\+'$"):
            assemble_batch(5, edges, 0, labels)


class TestBatchValidation:
    def test_refuses_arrays_not_of_the_layout(self):
        k5 = k5_assembly()
        partner, flag = k5.partner, k5.flag
        size = partner.shape[1]
        for bad_partner, bad_flag in (
            (partner[0], flag[0]),  # one complex, but not as a row
            (partner[:, :-1], flag[:, :-1]),  # one slot short of the layout
            (partner, np.vstack([flag, flag])),  # one row of partner, two of flag
            (partner.astype(float), flag),
            (partner, flag.astype(bool)),
        ):
            with pytest.raises(ValueError, match=rf"must be an int array of shape \(G, {size}\)"):
                dataclasses.replace(k5, partner=bad_partner, flag=bad_flag)

    @pytest.mark.parametrize("slot", [-1, 40])
    def test_refuses_a_partner_that_names_no_slot(self, slot):
        # K5 has 40 slots: four on each vertex block and two on each edge block
        k5 = k5_assembly()
        partner = k5.partner.copy()
        partner[0, 3] = slot
        with pytest.raises(ValueError, match="^partner must name slots of the layout$"):
            dataclasses.replace(k5, partner=partner)

    @pytest.mark.parametrize("value", [0, 2, -2])
    def test_refuses_other_flags(self, value):
        flag = np.ones((2, 4), dtype=np.intp)
        flag[1, 2] = value
        u = PieceTemplate("u", 2, True)
        layout = SlotLayout((PieceInstance(u, ("a",)), PieceInstance(u, ("b",))))
        partner = np.array([[2, 3, 0, 1]] * 2)
        assert AssemblyBatch(layout, partner, np.ones_like(flag)).closed().all()
        with pytest.raises(ValueError, match=r"^flag must be \+1 or -1$"):
            AssemblyBatch(layout, partner, flag)


class TestTemplateValidation:
    @pytest.mark.parametrize("count", [2.0, 4.0, 3, np.int64(2), "2"])
    def test_boundary_count_must_be_the_int_2_or_4(self, count):
        with pytest.raises(ValueError, match="boundary count must be the int 2 or 4"):
            PieceTemplate("u", count, True)


class TestAssembly:
    def test_k5_shape(self):
        assembled = k5_assembly()
        slots = np.arange(assembled.partner.shape[1])
        assert len(assembled.layout.pieces) == 15  # 5 vertex blocks + 10 edge blocks
        assert list((assembled.partner > slots).sum(1)) == [20]
        assert list(assembled.closed()) == [True]
        assert list(assembled.components) == [1]

    def test_all_m6_assemblies_closed(self):
        batch = assembled(6, enumerate_base_graphs(6), root=3)
        slots = np.arange(batch.partner.shape[1])
        assert len(batch.partner) == 15
        assert batch.closed().all()
        assert ((batch.partner > slots).sum(1) == 4 * 6).all()
        assert (batch.components == 1).all()

    def test_isomorphic_graphs_give_isomorphic_assemblies(self):
        # relabel the vertices of a graph; the slot-pairing structures must
        # agree under the induced bijection, detected by a label-refined
        # canonical invariant
        def invariant(assembled: RefComplex):
            partners = {}
            for p in assembled.pairings:
                partners.setdefault(p.a[0], []).append(p.b[0])
                partners.setdefault(p.b[0], []).append(p.a[0])
            colors = {
                i: assembled.pieces[i].template.label for i in range(len(assembled.pieces))
            }
            for _ in range(3):
                colors = {
                    i: (colors[i],) + tuple(sorted(colors[j] for j in partners.get(i, [])))
                    for i in colors
                }
            return sorted(colors.values())

        edges = base_graphs(6)[0]
        labels = labels_of(6)
        g1 = assemble_batch(6, enumerate_base_graphs(6)[:1], 0, labels)

        perm = [2, 0, 1, 4, 5, 3]
        perm_edges = []
        perm_labels = {}
        for (i, j), lab in zip(edges, labels):
            e = (min(perm[i], perm[j]), max(perm[i], perm[j]))
            perm_edges.append(e)
            perm_labels[e] = lab
        perm_edges.sort()
        g2 = assemble_batch(
            6, np.array([perm_edges]), perm[0], tuple(perm_labels[e] for e in perm_edges)
        )
        assert invariant(row_refs(g1, 0)) == invariant(row_refs(g2, 0))

    def test_volume_linear(self):
        # every block has volume one: K5 has 5 vertex and 10 edge blocks
        assembled = k5_assembly()
        assert repr(volume(assembled)) == "15.0"
        assert repr(volume(assembled.cover)) == "30.0"

    def test_volume_bounded_by_three_m(self):
        for m in (5, 6):
            assert volume(assembled(m, enumerate_base_graphs(m)[:5])) <= 3.0 * m

    @pytest.mark.parametrize("dropped,doubled", [((1, 2), (0, 3)), ((0, 1), (2, 4))],
                             ids=["inner-block", "last-block"])
    def test_overfilled_block_is_open(self, dropped, doubled):
        # a multigraph: one edge of K5 moved onto another, so two vertex
        # blocks get five edges and two get three; the fifth edge of a block
        # takes the next block's first slot, which for the last vertex block
        # is the first edge block's
        (edges,) = base_graphs(5)
        edges = sorted([e for e in edges if e != dropped] + [doubled])
        assert list(assemble_batch(5, np.array([edges]), 0, labels_of(5)).closed()) == [False]


def pairings_of(graph: DecoratedGraph) -> list[Pairing]:
    """The glueings of `assemble_batch` as slot refs, read off the edge list alone."""
    pairings = []
    for k, edge in enumerate(graph.edges):
        for end, v in enumerate(edge):
            # a vertex block gives its slots to its edges in edge order
            slot = sum(v in earlier for earlier in graph.edges[:k])
            pairings.append(Pairing((graph.vertex_count + k, end), (v, slot)))
    return pairings


def assembled_piece_by_piece(graph: DecoratedGraph, templates) -> AssemblyBatch:
    """`assemble_batch` without a shared layout: pieces and pairings made by their classes, glued by refs."""
    m = graph.vertex_count
    pieces = [PieceInstance(templates["v" if v == graph.root else "u"], ("vertex", v)) for v in range(m)]
    pieces += [PieceInstance(templates[lab], ("edge", k)) for k, lab in enumerate(graph.labels)]
    return glued(pieces, pairings_of(graph))


class TestSharedPieces:
    """Piece tuples are built once per layout; no call may see another's."""

    def test_equal_an_unshared_build(self):
        checked = 0
        for m in (5, 6, 7):
            graphs = base_graphs(m)
            for root in (0, m - 1):
                unshared = [
                    assembled_piece_by_piece(DecoratedGraph(m, edges, labels_of(m), root), TEMPLATES)
                    for edges in graphs
                ]
                assert same(assembled(m, graphs, root), stacked(unshared))
                checked += len(unshared)
        assert checked == 2 * 481

    def test_cover_equals_one_built_piece_by_piece(self):
        u = PieceTemplate("u", 2, True)
        reversing = glued(
            (PieceInstance(u, ("a",)), PieceInstance(u, ("b",))),
            (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), -1)),
        )
        sheets = tuple(PieceInstance(u, ("cover", name, sheet)) for sheet in (0, 1) for name in "ab")
        want = glued(
            sheets,
            (
                Pairing((0, 0), (1, 0)),
                Pairing((2, 0), (3, 0)),
                # the reversing pairing lifts across the sheets
                Pairing((0, 1), (3, 1)),
                Pairing((2, 1), (1, 1)),
            ),
            (),
            (2, 3, 0, 1),
        )
        assert same(reversing.cover, want)
        assert reversing.cover.closed()[0] and want.closed()[0]
        # a complex with the same pieces shares them, but lifts its own pairings
        plain = glued(
            reversing.layout.pieces, (Pairing((0, 0), (1, 0)), Pairing((0, 1), (1, 1)))
        )
        assert same(plain.cover, glued(
            sheets,
            (
                Pairing((0, 0), (1, 0)),
                Pairing((2, 0), (3, 0)),
                Pairing((0, 1), (1, 1)),
                Pairing((2, 1), (3, 1)),
            ),
            (),
            (2, 3, 0, 1),
        ))
        # the root block v of K5: its sheets are halves of one orientable cover
        k5 = k5_assembly()
        pieces = k5.layout.pieces
        n = len(pieces)
        for i, piece in enumerate(k5.cover.layout.pieces):
            t = pieces[i % n].template
            label = t.label if t.orientable else t.label + "~"
            assert piece == PieceInstance(
                PieceTemplate(label, t.boundary_count, True),
                ("cover", *pieces[i % n].provenance, i // n),
            )


def two_piece_complex(*pairings) -> AssemblyBatch:
    u = PieceTemplate("u", 2, True)
    pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
    return glued(pieces, (Pairing(a, b) for a, b in pairings))


# the corruptions that `glued` refuses: refs to no slot, and a slot named twice
REFUSED = {"slot-at-boundary-count", "negative-piece", "piece-past-the-end", "duplicated-ref"}


def corrupted(manifold: RefComplex, rng):
    """(kind, pairings) for six seeded edits of a closed complex's pairings."""
    pairings = list(manifold.pairings)
    t, u = (int(x) for x in rng.choice(len(pairings), 2, replace=False))
    side = ("a", "b")[int(rng.integers(2))]
    piece, slot = getattr(pairings[t], side)
    n = len(manifold.pieces)

    def with_ref(ref):
        out = list(pairings)
        out[t] = out[t]._replace(**{side: ref})
        return out

    swapped = list(pairings)
    swapped[t] = pairings[t]._replace(b=pairings[u].b)
    swapped[u] = pairings[u]._replace(b=pairings[t].b)
    variants = {
        "slot-at-boundary-count": with_ref((piece, manifold.pieces[piece].template.boundary_count)),
        # the same piece as a Python index from the end
        "negative-piece": with_ref((piece - n, slot)),
        "piece-past-the-end": with_ref((n, slot)),
        "duplicated-ref": with_ref(pairings[u].a),
        "dropped-pairing": pairings[:t] + pairings[t + 1:],
        "swapped-refs": swapped,
    }
    yield from variants.items()


def glued_or_refused(manifold: RefComplex, pairings):
    """`manifold` glued by `pairings` instead, or None when `glued` refuses them."""
    try:
        return glued(
            manifold.pieces, pairings, manifold.internal_joins, manifold.deck_involution
        )
    except ValueError:
        return None


class TestClosedness:
    def test_every_slot_once_is_closed(self):
        assert two_piece_complex(((0, 0), (1, 0)), ((0, 1), (1, 1))).closed()[0]

    @pytest.mark.parametrize(
        "pairings,refusal",
        [
            ((((0, 0), (1, 0)), ((0, 0), (1, 1))), "glued twice"),
            ((((0, 0), (1, 0)), ((0, 2), (1, 1))), "names no slot"),
            ((((0, 0), (1, 0)), ((0, 1), (2, 1))), "names no slot"),
            ((((0, 0), (1, 0)), ((0, 1), (-1, 1))), "names no slot"),
            ((((0, 0), (1, 0)),), None),
        ],
        ids=["slot-used-twice", "slot-past-boundary-count", "piece-out-of-range",
             "negative-piece", "unused-slot"],
    )
    def test_not_closed(self, pairings, refusal):
        # refused when made, or made and reported open; the scan agrees it is open
        u = PieceTemplate("u", 2, True)
        refs = RefComplex(
            (PieceInstance(u, ("a",)), PieceInstance(u, ("b",))), [Pairing(a, b) for a, b in pairings]
        )
        assert not closed_by_scan(refs)
        if refusal:
            with pytest.raises(ValueError, match=refusal):
                two_piece_complex(*pairings)
            return
        assert list(two_piece_complex(*pairings).closed()) == [False]

    def test_agrees_with_the_scan(self):
        # every assembly of m = 5..7 and its cover, each with five seeded
        # corruptions that open it and one swap of two refs that keeps it
        # closed; an opening edit is refused when made or reported open
        checked = 0
        for m in (5, 6, 7):
            batch = assembled(m, enumerate_base_graphs(m))
            for g in range(len(batch.partner)):
                for built in (batch, batch.cover):
                    refs = row_refs(built, g)
                    assert built.closed()[g] and closed_by_scan(refs)
                    for kind, edited in corrupted(refs, np.random.default_rng(checked)):
                        scan = closed_by_scan(refs._replace(pairings=edited))
                        assert scan == (kind == "swapped-refs"), kind
                        variant = glued_or_refused(refs, edited)
                        assert (variant is None) == (kind in REFUSED), kind
                        if variant is not None:
                            assert variant.closed()[0] == scan, kind
                    checked += 1
        assert checked == 2 * 481

    def test_cover_of_every_opened_complex_is_open(self):
        # the cover lifts each slot's partner, so it is open over an opened
        # base; a swap of two refs keeps the base and its cover closed
        checked = 0
        for m in (5, 6, 7):
            batch = assembled(m, enumerate_base_graphs(m))
            for g in range(len(batch.partner)):
                for built in (batch, batch.cover):
                    refs = row_refs(built, g)
                    for kind, edited in corrupted(refs, np.random.default_rng(checked)):
                        variant = glued_or_refused(refs, edited)
                        if variant is not None:
                            cover = variant.cover
                            assert cover.closed()[0] == (kind == "swapped-refs"), kind
                            if cover.closed()[0]:
                                assert closed_by_scan(row_refs(cover, 0))
                    checked += 1
        assert checked == 2 * 481

    def test_pairing_refuses_other_flags(self):
        pieces = two_piece_complex().layout.pieces
        with pytest.raises(ValueError, match="flag"):
            glued(pieces, [Pairing((0, 0), (1, 0), flag=0)])
        with pytest.raises(ValueError, match="flag"):
            glued(pieces, [Pairing((0, 0), (1, 0))._replace(flag=2)])

    def test_records_are_immutable(self):
        assembled = k5_assembly()
        with pytest.raises(AttributeError):
            assembled.layout.pieces[0].template = assembled.layout.pieces[1].template
        with pytest.raises(AttributeError):
            assembled.layout = assembled.cover.layout
        with pytest.raises(AttributeError):
            assembled.partner = assembled.partner.copy()
        for array in (assembled.partner, assembled.flag):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        with pytest.raises(TypeError):
            TEMPLATES["u"] = TEMPLATES["v"]

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_after_the_cached_check(self, clone):
        # a clone keeps the rows, and its arrays stay read-only, so the checks
        # it caches cannot go stale
        closed, open_ = k5_assembly(), two_piece_complex(((0, 0), (1, 0)))
        assert closed.closed()[0] and not open_.closed()[0]
        for original in (closed, open_, closed.cover):
            assert original.components is not None and original.cover is not None
            twin = clone(original)
            assert same(twin, original)
            assert twin.partner.flags.writeable is False and twin.flag.flags.writeable is False
            assert list(twin.closed()) == list(original.closed())
            assert list(twin.components) == list(original.components)
            if original.closed()[0]:
                assert twin.orientable()[0] == original.orientable()[0]


class TestOrientability:
    def test_root_block_forces_non_orientable(self):
        assert not k5_assembly().orientable()[0]
        assert not k5_assembly(root=4).orientable()[0]

    def test_all_orientable_preserving_flags(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (
            Pairing((0, 0), (1, 0), 1),
            Pairing((0, 1), (1, 1), 1),
        )
        assert glued(pieces, pairings).orientable()[0]

    def test_single_reversing_flag_on_cycle(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (
            Pairing((0, 0), (1, 0), 1),
            Pairing((0, 1), (1, 1), -1),
        )
        assert not glued(pieces, pairings).orientable()[0]

    def test_flag_subsets_against_brute_force(self):
        # K5 with a u block at the root, so that every block is orientable
        (edges,) = base_graphs(5)
        graph = DecoratedGraph(5, edges, labels_of(5), root=0)
        base = row_refs(assembled_piece_by_piece(graph, {**TEMPLATES, "v": TEMPLATES["u"]}), 0)
        assert len(base.pieces) == 15 and len(base.pairings) == 20
        verdicts = Counter()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            # the pairings across a seeded cut of the pieces, which an
            # orientable complex can reverse, and on odd seeds a random
            # subset on top of them
            side = rng.integers(2, size=len(base.pieces))
            flip = {t for t, (a, b, _) in enumerate(base.pairings) if side[a[0]] != side[b[0]]}
            if seed % 2:
                flip ^= {int(t) for t in rng.choice(20, int(rng.integers(1, 21)), replace=False)}
            assert flip
            pairings = tuple(
                p._replace(flag=-1) if t in flip else p for t, p in enumerate(base.pairings)
            )
            verdict = bool(glued(base.pieces, pairings).orientable()[0])
            assert verdict == brute_force_orientable(base._replace(pairings=pairings)), seed
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_witness_agrees_with_the_double_graph(self):
        # every graph of m = 5..7 with the root block v, and with a u block
        # at the root where row g keeps every flag +1 (g = 0 mod 3),
        # reverses the glueings across a seeded cut of the pieces (1 mod 3)
        # or reverses seeded glueings (2 mod 3): one call takes both the
        # witness and the double-graph rule
        seeded_verdicts = Counter()
        for m in (5, 6, 7):
            rooted = assembled(m, enumerate_base_graphs(m))
            partner, piece_of = rooted.partner, np.array(rooted.layout.piece_of)
            rng = np.random.default_rng(m)
            side = rng.integers(2, size=(len(partner), len(rooted.layout.pieces)))
            across = np.take_along_axis(side, piece_of[partner], 1) != side[:, piece_of]
            seeded = rng.random(partner.shape) < 0.2
            seeded |= np.take_along_axis(seeded, partner, 1)
            kind = np.arange(len(partner))[:, None] % 3
            reverse = np.where(kind == 1, across, (kind == 2) & seeded)
            pieces = tuple(p._replace(template=TEMPLATES["u"]) for p in rooted.layout.pieces[:m])
            mixed = dataclasses.replace(
                rooted, layout=SlotLayout(pieces + rooted.layout.pieces[m:]), flag=np.where(reverse, -1, 1)
            )
            assert all(mixed.closed()) and np.array_equal(mixed.flag, np.take_along_axis(mixed.flag, partner, 1))
            for batch in (rooted, rooted.cover, mixed, mixed.cover):
                orientable = batch.orientable()
                assert np.array_equal(orientable, batch.cover.components == 2 * batch.components)
            verdicts = mixed.orientable()
            assert not rooted.orientable().any() and rooted.cover.orientable().all()
            assert verdicts[kind[:, 0] < 2].all() and mixed.cover.orientable().all()
            seeded_verdicts.update(verdicts[kind[:, 0] == 2].tolist())
            # every signing of at most 18 pieces (m <= 6)
            for batch, rows in ((rooted, [0] if m < 7 else []), (mixed, [0, 1, 2] if m == 6 else [])):
                for g in rows:
                    assert batch.orientable()[g] == brute_force_orientable(row_refs(batch, g)), (m, g)
        assert seeded_verdicts[False] and seeded_verdicts.total() == 5 + 155

    def test_witness_rows_build_no_cover(self):
        # a root block decides every row, and all-+1 flags orient every row,
        # before any cover or component count
        base = assembled(6, enumerate_base_graphs(6))
        cover = base.cover
        assert not base.orientable().any() and cover.orientable().all()
        assert "components" not in vars(base) and not {"cover", "components"} & set(vars(cover))


class TestDoubleCover:
    def test_cover_of_non_orientable_is_connected_orientable(self):
        assembled = k5_assembly()
        cover = assembled.cover
        assert cover.closed()[0]
        assert cover.orientable()[0]
        assert cover.components[0] == 1
        assert volume(cover) == 2.0 * volume(assembled)

    def test_cover_of_orientable_splits(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), 1))
        cover = glued(pieces, pairings).cover
        assert cover.orientable()[0]
        assert cover.components[0] == 2

    def test_deck_involution_fixed_point_free(self):
        cover = k5_assembly().cover
        deck = cover.deck_involution
        n = len(cover.layout.pieces)
        assert deck is not None
        assert all(deck[i] != i for i in range(n))
        assert all(deck[deck[i]] == i for i in range(n))
        assert cover.deck_free()[0]

    def test_deck_checks_can_fail(self):
        cover = k5_assembly().cover
        n, m = len(cover.layout.pieces) // 2, 5
        swap = list(cover.deck_involution)
        # vertex block 0 to the other sheet's vertex block 1: free and an
        # involution, but it does not commute with the glueings
        crossed = list(swap)
        crossed[0], crossed[n + 1], crossed[1], crossed[n] = n + 1, 0, n, 1
        # vertex block 0 (four slots) with an edge block (two slots)
        resized = list(swap)
        resized[0], resized[n + m], resized[m], resized[n] = n + m, 0, n, m
        for deck in (None, tuple(range(2 * n)), tuple(crossed), tuple(resized), tuple(swap[:-1])):
            assert not dataclasses.replace(cover, deck_involution=deck).deck_free()[0], deck

    def test_reversing_decorations_of_every_m6_graph(self):
        # the glueing along edge k reverses for k = 1 (mod 3): the pairing of
        # edge block k (piece 6 + k) at its slot 0 gets flag -1; an edge
        # block's slots come after the vertex blocks', so it is ref b
        checked = 0
        plain = assembled(6, enumerate_base_graphs(6))
        for g in range(len(plain.partner)):
            refs = row_refs(plain, g)
            pairings = tuple(
                p._replace(flag=-1) if (p.b[0] - 6) % 3 == 1 and p.b[1] == 0 else p
                for p in refs.pairings
            )
            base = glued(refs.pieces, pairings)
            assert sum(p.flag < 0 for p in row_refs(base, 0).pairings) == 4
            assert not base.orientable()[0]
            cover = base.cover
            lifts = row_refs(cover, 0)
            n = len(refs.pieces)
            assert closed_by_scan(lifts) and cover.closed()[0]
            assert cover.orientable()[0] and components_and_signing(lifts) == (1, True)
            assert cover.components[0] == 1 and cover.deck_free()[0]
            deck = cover.deck_involution
            assert all(deck[i] != i and deck[deck[i]] == i for i in range(2 * n))
            # each base glueing lifts to two, which cross the sheets iff it reverses
            flags = {frozenset((p.a, p.b)): p.flag for p in pairings}
            lifted = Counter()
            for q in lifts.pairings:
                below = frozenset(((q.a[0] % n, q.a[1]), (q.b[0] % n, q.b[1])))
                assert ((q.a[0] < n) != (q.b[0] < n)) == (flags[below] < 0)
                lifted[below] += 1
            assert lifted == dict.fromkeys(flags, 2)
            checked += 1
        assert checked == 15

    def test_reversing_flags_lift_to_preserving(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), -1))
        assembled = glued(pieces, pairings)
        assert not assembled.orientable()[0]
        cover = assembled.cover
        assert cover.orientable()[0]
        assert cover.components[0] == 1


def batch_of(pieces, rows) -> AssemblyBatch:
    """One row per list of pairings in `rows`, each glued on its own by `glued`."""
    return stacked([glued(pieces, pairings) for pairings in rows])


def verdicts_agree(batch: AssemblyBatch, rows) -> Counter:
    """Check every verdict of `batch` on row g against the oracles on the
    slot refs rows[g], and count the verdicts seen."""
    closed, deck_free = batch.closed(), batch.deck_free()
    components, orientable = batch.components, batch.orientable()
    seen = Counter()
    for g, row in enumerate(rows):
        assert closed[g] == closed_by_scan(row), g
        seen["closed" if closed[g] else "open"] += 1
        if closed[g]:
            assert (components[g], orientable[g]) == components_and_signing(row), g
            if len(row.pieces) <= 15:
                assert orientable[g] == brute_force_orientable(row), g
            assert deck_free[g] == deck_commutes_by_refs(row), g
            seen["orientable" if orientable[g] else "non-orientable"] += 1
    return seen


class TestBatchAgainstOracles:
    """Every verdict of a batch, row by row, against oracles that read slot
    refs: `closed_by_scan`, a breadth-first search for the components and a
    signing, `brute_force_orientable` up to 15 pieces, and the deck
    involution's action on the refs."""

    def test_every_assembly_flipped_corrupted_and_covered(self):
        seen = Counter()
        for m in (5, 6, 7):
            rng = np.random.default_rng(m)
            labels = labels_of(m)
            graphs = [DecoratedGraph(m, edges, labels, 0) for edges in base_graphs(m)]
            batch = assembled(m, [graph.edges for graph in graphs])
            assert same(batch, stacked([assembled_piece_by_piece(graph, TEMPLATES) for graph in graphs]))
            # every glueing reverses with probability one half
            flipped = [
                [p._replace(flag=int(f)) for p, f in zip(pairings_of(graph), rng.choice((-1, 1), 4 * m))]
                for graph in graphs
            ]
            cuts = rng.integers(4 * m, size=len(graphs))
            dropped = [row[:k] + row[k + 1:] for row, k in zip(flipped, cuts)]
            swapped = []
            for row in flipped:
                t, u = (int(x) for x in rng.choice(4 * m, 2, replace=False))
                row = list(row)
                row[t], row[u] = row[t]._replace(b=row[u].b), row[u]._replace(b=row[t].b)
                swapped.append(row)
            # the root block v, and a u block at the root so that the signing decides
            for templates in (TEMPLATES, {**TEMPLATES, "v": TEMPLATES["u"]}):
                pieces = assembled_piece_by_piece(graphs[0], templates).layout.pieces
                for rows in (flipped, dropped, swapped):
                    base = batch_of(pieces, rows)
                    seen += verdicts_agree(base, [RefComplex(pieces, row) for row in rows])
                    # the covers of the closed rows, read back as refs
                    closed = base.closed()
                    partner, flag = base.partner[closed], base.flag[closed]
                    cover = dataclasses.replace(base, partner=partner, flag=flag).cover
                    seen += verdicts_agree(cover, [row_refs(cover, g) for g in range(sum(closed))])
                    assert all(cover.deck_free())
            # an edge moved to another vertex: one block gets five edges and one three
            moved = []
            for graph in graphs:
                k = int(rng.integers(2 * m))
                i, j = graph.edges[k]
                other = int(rng.choice([v for v in range(m) if v not in (i, j)]))
                edges = list(graph.edges)
                edges[k] = (min(i, other), max(i, other))
                moved.append(graph._replace(edges=edges))
            overfilled = assemble_batch(m, np.array([graph.edges for graph in moved]), 0, labels)
            pieces = batch.layout.pieces
            assert verdicts_agree(overfilled, [RefComplex(pieces, pairings_of(graph)) for graph in moved]) == {
                "open": len(graphs)
            }
        assert seen["open"] and seen["closed"] and seen["orientable"] and seen["non-orientable"]

    def test_ring_of_twelve_blocks(self):
        # a ring through twelve two-slot blocks in the order 0, 11, 1, 10,
        # ..., 6: after one sweep of label propagation blocks 0 to 5 each
        # still keep their own label, so only the fixed point counts one
        # component; no, one and two reversing glueings
        u = PieceTemplate("u", 2, True)
        pieces = tuple(PieceInstance(u, (k,)) for k in range(12))
        order = [0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6]
        ring = [Pairing((a, 1), (b, 0)) for a, b in zip(order, order[1:] + order[:1])]
        once = [ring[0]._replace(flag=-1)] + ring[1:]
        twice = [p._replace(flag=-1) for p in ring[:2]] + ring[2:]
        rows = [ring, once, twice]
        batch = batch_of(pieces, rows)
        assert verdicts_agree(batch, [RefComplex(pieces, row) for row in rows])["closed"] == 3
        assert list(batch.components) == [1, 1, 1]
        assert list(batch.orientable()) == [True, False, True]
        assert list(batch.cover.components) == [2, 1, 2]
        verdicts_agree(batch.cover, [row_refs(batch.cover, g) for g in range(3)])

    def test_no_pieces(self):
        # nothing to glue: closed, with no component, orientable, and a free deck on its cover
        empty = glued((), ())
        assert empty.closed()[0] and empty.components[0] == 0 and empty.orientable()[0]
        assert empty.cover.deck_free()[0]


class TestGrowth:
    def test_free_counts_positive_growth(self):
        counts = {r.m: r.rooted_labelled for r in count_graphs(7, "free")}
        fit = growth_fit(counts)
        assert fit.c > 0
        assert all(abs(r) < 0.2 for r in fit.residuals.values())

    def test_constant_counts_degenerate(self):
        fit = growth_fit({5: 100, 6: 100, 7: 100, 8: 100})
        assert abs(fit.c) < 0.05
        assert fit.degenerate

    def test_m_to_the_m_gives_slope_one(self):
        fit = growth_fit({m: m ** m for m in (5, 6, 7, 8, 9)})
        assert abs(fit.c - 1.0) < 1e-9
        assert abs(fit.intercept) < 1e-7

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            growth_fit({5: 1, 6: 2})


class TestGraphJson:
    def test_stream_warns_below_five(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert list(enumerate_graphs(4, "free")) == []
        assert any("4-regular" in str(w.message) for w in caught)
