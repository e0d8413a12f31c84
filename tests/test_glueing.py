"""Graph enumeration against a bitmask oracle, assembly and cover invariants."""

import copy
import dataclasses
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hyperglue import glueing
from hyperglue.glueing import (
    EDGE_LABELS,
    TEMPLATES,
    AssembledManifold,
    AssemblyBatch,
    GlueingGraph,
    Pairing,
    PieceInstance,
    PieceTemplate,
    assemble,
    assemble_batch,
    count_graphs,
    enumerate_base_graphs,
    growth_fit,
    is_orientable,
    orientation_double_cover,
    stack_edges,
    volume,
)
from oracles import (
    bitmask_oracle,
    brute_force_orientable,
    closed_by_scan,
    components_and_signing,
    deck_commutes_by_refs,
    enumerate_graphs,
    enumerated_counts,
    proper_labelings,
)


class TestEnumeration:
    @pytest.mark.parametrize("m,expected", [(5, 1), (6, 15), (7, 465)])
    def test_counts_match_oracle(self, m, expected):
        ours = list(enumerate_base_graphs(m))
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

        ours = list(enumerate_base_graphs(m))
        if m <= 7:
            assert ours == sorted(bitmask_oracle(m), key=bits)
        else:
            # 2^28 masks are too many for the oracle: the graphs are 4-regular,
            # distinct, ascending and as many as the formula counts
            assert all(set(Counter(v for e in g for v in e).values()) == {4} for g in ours)
            assert all(bits(a) < bits(b) for a, b in zip(ours, ours[1:]))
            assert len(ours) == count_graphs(8)[-1].base_count

    def test_duplicate_free(self):
        graphs = list(enumerate_base_graphs(7))
        assert len(set(graphs)) == len(graphs)

    def test_below_five_empty(self):
        for m in (1, 2, 3, 4):
            assert list(enumerate_base_graphs(m)) == []

    def test_k5_is_the_unique_graph(self):
        (edges,) = enumerate_base_graphs(5)
        assert edges == tuple((i, j) for i in range(5) for j in range(i + 1, 5))

    def test_m6_complements_of_perfect_matchings(self):
        # complement of a 4-regular graph on 6 vertices is a perfect matching
        def complement(edges):
            all_pairs = {(i, j) for i in range(6) for j in range(i + 1, 6)}
            return all_pairs - set(edges)

        for edges in enumerate_base_graphs(6):
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
        for edges in enumerate_base_graphs(7):
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
        graphs = list(enumerate_base_graphs(8))
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
        edges = next(enumerate_base_graphs(6))
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


class TestGraphValidation:
    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError, match="4-regular"):
            GlueingGraph(5, ((0, 1), (2, 3)), ("a+", "a-"), root=0)

    def test_rejects_bad_root(self):
        edges = next(enumerate_base_graphs(5))
        with pytest.raises(ValueError, match="root"):
            GlueingGraph(5, edges, tuple("a+" for _ in edges), root=9)


def k5_assembly(root=0):
    (edges,) = enumerate_base_graphs(5)
    labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
    return assemble(GlueingGraph(5, edges, labels, root=root))


class TestTemplateValidation:
    @pytest.mark.parametrize("count", [2.0, 4.0, 3, np.int64(2), "2"])
    def test_boundary_count_must_be_the_int_2_or_4(self, count):
        with pytest.raises(ValueError, match="boundary count must be the int 2 or 4"):
            PieceTemplate("u", count, True)


class TestAssembly:
    def test_k5_shape(self):
        assembled = k5_assembly()
        assert len(assembled.pieces) == 15  # 5 vertex blocks + 10 edge blocks
        assert len(assembled.pairings) == 20
        assert assembled.is_closed()
        assert assembled.is_connected()

    def test_all_m6_assemblies_closed(self):
        for edges in enumerate_base_graphs(6):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
            graph = GlueingGraph(6, edges, labels, root=3)
            assembled = assemble(graph)
            assert assembled.is_closed()
            assert len(assembled.pairings) == 4 * 6
            assert assembled.is_connected()

    def test_isomorphic_graphs_give_isomorphic_assemblies(self):
        # relabel the vertices of a graph; the slot-pairing structures must
        # agree under the induced bijection, detected by a label-refined
        # canonical invariant
        def invariant(assembled: AssembledManifold):
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

        edges = next(enumerate_base_graphs(6))
        labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
        g1 = GlueingGraph(6, edges, labels, root=0)

        perm = [2, 0, 1, 4, 5, 3]
        perm_edges = []
        perm_labels = {}
        for (i, j), lab in zip(edges, labels):
            e = (min(perm[i], perm[j]), max(perm[i], perm[j]))
            perm_edges.append(e)
            perm_labels[e] = lab
        perm_edges.sort()
        g2 = GlueingGraph(
            6,
            tuple(perm_edges),
            tuple(perm_labels[e] for e in perm_edges),
            root=perm[0],
        )
        assert invariant(assemble(g1)) == invariant(assemble(g2))

    def test_volume_linear(self):
        # every block has volume one: K5 has 5 vertex and 10 edge blocks
        assembled = k5_assembly()
        assert repr(volume(assembled)) == "15.0"
        assert repr(volume(orientation_double_cover(assembled))) == "30.0"

    def test_volume_bounded_by_three_m(self):
        for m in (5, 6):
            for edges in itertools.islice(enumerate_base_graphs(m), 5):
                labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
                assembled = assemble(GlueingGraph(m, edges, labels, root=0))
                assert volume(assembled) <= 3.0 * m

    @pytest.mark.parametrize("dropped,doubled", [((1, 2), (0, 3)), ((0, 1), (2, 4))],
                             ids=["inner-block", "last-block"])
    def test_overfilled_block_is_open(self, dropped, doubled):
        # a graph that `GlueingGraph` would refuse: one edge of K5 moved onto
        # another, so two vertex blocks get five edges and two get three; the
        # fifth edge of a block takes the next block's first slot, which for
        # the last vertex block is the first edge block's
        (edges,) = enumerate_base_graphs(5)
        edges = sorted([e for e in edges if e != dropped] + [doubled])
        graph = SimpleNamespace(vertex_count=5, edges=edges, labels=("a+",) * 10, root=0)
        assert not assemble(graph).is_closed()


def pairings_of(graph) -> list[Pairing]:
    """The glueings of `assemble` as slot refs, read off the edge list alone."""
    pairings = []
    for k, edge in enumerate(graph.edges):
        for end, v in enumerate(edge):
            # a vertex block gives its slots to its edges in edge order
            slot = sum(v in earlier for earlier in graph.edges[:k])
            pairings.append(Pairing((graph.vertex_count + k, end), (v, slot)))
    return pairings


def assembled_piece_by_piece(graph: GlueingGraph, templates) -> AssembledManifold:
    """`assemble` without a shared layout: pieces and pairings made by their classes, glued by refs."""
    m = graph.vertex_count
    pieces = [PieceInstance(templates["v" if v == graph.root else "u"], ("vertex", v)) for v in range(m)]
    pieces += [PieceInstance(templates[lab], ("edge", k)) for k, lab in enumerate(graph.labels)]
    return AssembledManifold.glued(pieces, pairings_of(graph))


class TestSharedPieces:
    """Piece tuples are built once per layout; no call may see another's."""

    def test_equal_an_unshared_build(self):
        checked = 0
        for m in (5, 6, 7):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(2 * m))
            for edges in enumerate_base_graphs(m):
                for root in (0, m - 1):
                    graph = GlueingGraph(m, edges, labels, root=root)
                    assert assemble(graph) == assembled_piece_by_piece(graph, TEMPLATES)
                    checked += 1
        assert checked == 2 * 481

    def test_cover_equals_one_built_piece_by_piece(self):
        u = PieceTemplate("u", 2, True)
        reversing = AssembledManifold.glued(
            (PieceInstance(u, ("a",)), PieceInstance(u, ("b",))),
            (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), -1)),
        )
        sheets = tuple(PieceInstance(u, ("cover", name, sheet)) for sheet in (0, 1) for name in "ab")
        want = AssembledManifold.glued(
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
        cover = orientation_double_cover(reversing)
        assert cover == want
        assert cover.is_closed() and want.is_closed()
        # a complex with the same pieces shares them, but lifts its own pairings
        plain = AssembledManifold.glued(
            reversing.pieces, (Pairing((0, 0), (1, 0)), Pairing((0, 1), (1, 1)))
        )
        assert orientation_double_cover(plain) == AssembledManifold.glued(
            sheets,
            (
                Pairing((0, 0), (1, 0)),
                Pairing((2, 0), (3, 0)),
                Pairing((0, 1), (1, 1)),
                Pairing((2, 1), (3, 1)),
            ),
            (),
            (2, 3, 0, 1),
        )
        # the root block v of K5: its sheets are halves of one orientable cover
        k5 = k5_assembly()
        n = len(k5.pieces)
        for i, piece in enumerate(orientation_double_cover(k5).pieces):
            t = k5.pieces[i % n].template
            label = t.label if t.orientable else t.label + "~"
            assert piece == PieceInstance(
                PieceTemplate(label, t.boundary_count, True),
                ("cover", *k5.pieces[i % n].provenance, i // n),
            )


def two_piece_complex(*pairings):
    u = PieceTemplate("u", 2, True)
    pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
    return AssembledManifold.glued(pieces, (Pairing(a, b) for a, b in pairings))


# the corruptions that `AssembledManifold.glued` refuses: refs to no slot, and a slot named twice
REFUSED = {"slot-at-boundary-count", "negative-piece", "piece-past-the-end", "duplicated-ref"}


def corrupted(manifold: AssembledManifold, rng):
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


def glued_or_refused(manifold: AssembledManifold, pairings):
    """`manifold` glued by `pairings` instead, or None when `glued` refuses them."""
    try:
        return AssembledManifold.glued(
            manifold.pieces, pairings, manifold.internal_joins, manifold.deck_involution
        )
    except ValueError:
        return None


class TestClosedness:
    def test_every_slot_once_is_closed(self):
        assert two_piece_complex(((0, 0), (1, 0)), ((0, 1), (1, 1))).is_closed()

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
        refs = SimpleNamespace(
            pieces=(PieceInstance(u, ("a",)), PieceInstance(u, ("b",))),
            pairings=[Pairing(a, b) for a, b in pairings],
        )
        assert not closed_by_scan(refs)
        if refusal:
            with pytest.raises(ValueError, match=refusal):
                two_piece_complex(*pairings)
            return
        assembled = two_piece_complex(*pairings)
        assert not assembled.is_closed()
        with pytest.raises(ValueError, match="closed"):
            assembled.is_connected()

    def test_agrees_with_the_scan(self):
        # every assembly of m = 5..7 and its cover, each with five seeded
        # corruptions that open it and one swap of two refs that keeps it
        # closed; an opening edit is refused when made or reported open
        checked = 0
        for m in (5, 6, 7):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(2 * m))
            for edges in enumerate_base_graphs(m):
                assembled = assemble(GlueingGraph(m, edges, labels, root=0))
                for built in (assembled, orientation_double_cover(assembled)):
                    assert built.is_closed() and closed_by_scan(built)
                    for kind, edited in corrupted(built, np.random.default_rng(checked)):
                        scan = closed_by_scan(SimpleNamespace(pieces=built.pieces, pairings=edited))
                        assert scan == (kind == "swapped-refs"), kind
                        variant = glued_or_refused(built, edited)
                        assert (variant is None) == (kind in REFUSED), kind
                        if variant is not None:
                            assert variant.is_closed() == scan, kind
                    checked += 1
        assert checked == 2 * 481

    def test_cover_refuses_every_opened_complex(self):
        # the cover's closedness is lifted from its base, so an open base
        # must be refused; a swap of two refs keeps the base and its cover closed
        checked = 0
        for m in (5, 6, 7):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(2 * m))
            for edges in enumerate_base_graphs(m):
                assembled = assemble(GlueingGraph(m, edges, labels, root=0))
                for built in (assembled, orientation_double_cover(assembled)):
                    for kind, edited in corrupted(built, np.random.default_rng(checked)):
                        variant = glued_or_refused(built, edited)
                        if kind == "swapped-refs":
                            cover = orientation_double_cover(variant)
                            assert cover.is_closed() and closed_by_scan(cover)
                        elif kind not in REFUSED:
                            with pytest.raises(ValueError, match="^double cover needs a closed complex$"):
                                orientation_double_cover(variant)
                    checked += 1
        assert checked == 2 * 481

    def test_pairing_refuses_other_flags(self):
        pieces = two_piece_complex().pieces
        with pytest.raises(ValueError, match="flag"):
            AssembledManifold.glued(pieces, [Pairing((0, 0), (1, 0), flag=0)])
        with pytest.raises(ValueError, match="flag"):
            AssembledManifold.glued(pieces, [Pairing((0, 0), (1, 0))._replace(flag=2)])

    def test_records_are_immutable(self):
        assembled = k5_assembly()
        with pytest.raises(AttributeError):
            assembled.pieces[0].template = assembled.pieces[1].template
        with pytest.raises(AttributeError):
            assembled.pairings[0].flag = -1
        with pytest.raises(AttributeError):
            assembled.pairings = ()
        with pytest.raises(AttributeError):
            assembled.partner = ()
        with pytest.raises(TypeError):
            TEMPLATES["u"] = TEMPLATES["v"]

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_after_the_cached_check(self, clone):
        closed, open_ = k5_assembly(), two_piece_complex(((0, 0), (1, 0)))
        assert closed.is_closed() and not open_.is_closed()
        for original in (closed, open_, orientation_double_cover(closed)):
            twin = clone(original)
            assert twin == original
            assert twin.is_closed() == original.is_closed()
            if original.is_closed():
                assert is_orientable(twin) == is_orientable(original)


class TestOrientability:
    def test_root_block_forces_non_orientable(self):
        assert not is_orientable(k5_assembly())
        assert not is_orientable(k5_assembly(root=4))

    def test_all_orientable_preserving_flags(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (
            Pairing((0, 0), (1, 0), 1),
            Pairing((0, 1), (1, 1), 1),
        )
        assert is_orientable(AssembledManifold.glued(pieces, pairings))

    def test_single_reversing_flag_on_cycle(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (
            Pairing((0, 0), (1, 0), 1),
            Pairing((0, 1), (1, 1), -1),
        )
        assert not is_orientable(AssembledManifold.glued(pieces, pairings))

    def test_flag_subsets_against_brute_force(self):
        # K5 with a u block at the root, so that every block is orientable
        (edges,) = enumerate_base_graphs(5)
        labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
        graph = GlueingGraph(5, edges, labels, root=0)
        base = assembled_piece_by_piece(graph, {**TEMPLATES, "v": TEMPLATES["u"]})
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
            flipped = AssembledManifold.glued(base.pieces, pairings)
            verdict = is_orientable(flipped)
            assert verdict == brute_force_orientable(flipped), seed
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    def test_non_closed_rejected(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)),)
        with pytest.raises(ValueError):
            is_orientable(AssembledManifold.glued(pieces, ()))


class TestDoubleCover:
    def test_cover_of_non_orientable_is_connected_orientable(self):
        assembled = k5_assembly()
        cover = orientation_double_cover(assembled)
        assert cover.is_closed()
        assert is_orientable(cover)
        assert cover.is_connected()
        assert volume(cover) == 2.0 * volume(assembled)

    def test_cover_of_orientable_splits(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), 1))
        assembled = AssembledManifold.glued(pieces, pairings)
        cover = orientation_double_cover(assembled)
        assert is_orientable(cover)
        assert not cover.is_connected()

    def test_deck_involution_fixed_point_free(self):
        cover = orientation_double_cover(k5_assembly())
        deck = cover.deck_involution
        assert deck is not None
        assert all(deck[i] != i for i in range(len(cover.pieces)))
        assert all(deck[deck[i]] == i for i in range(len(cover.pieces)))
        assert cover.deck_is_free()

    def test_deck_checks_can_fail(self):
        cover = orientation_double_cover(k5_assembly())
        n, m = len(cover.pieces) // 2, 5
        swap = list(cover.deck_involution)
        # vertex block 0 to the other sheet's vertex block 1: free and an
        # involution, but it does not commute with the glueings
        crossed = list(swap)
        crossed[0], crossed[n + 1], crossed[1], crossed[n] = n + 1, 0, n, 1
        # vertex block 0 (four slots) with an edge block (two slots)
        resized = list(swap)
        resized[0], resized[n + m], resized[m], resized[n] = n + m, 0, n, m
        for deck in (None, tuple(range(2 * n)), tuple(crossed), tuple(resized), tuple(swap[:-1])):
            assert not dataclasses.replace(cover, deck_involution=deck).deck_is_free(), deck
        with pytest.raises(ValueError, match="closed"):
            two_piece_complex(((0, 0), (1, 0))).deck_is_free()

    def test_reversing_decorations_of_every_m6_graph(self):
        # the glueing along edge k reverses for k = 1 (mod 3): the pairing of
        # edge block k (piece 6 + k) at its slot 0 gets flag -1; an edge
        # block's slots come after the vertex blocks', so it is ref b
        checked = 0
        for edges in enumerate_base_graphs(6):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
            plain = assemble(GlueingGraph(6, edges, labels, root=0))
            pairings = tuple(
                p._replace(flag=-1) if (p.b[0] - 6) % 3 == 1 and p.b[1] == 0 else p
                for p in plain.pairings
            )
            base = AssembledManifold.glued(plain.pieces, pairings)
            assert sum(p.flag < 0 for p in base.pairings) == 4
            assert not is_orientable(base)
            cover = orientation_double_cover(base)
            n = len(base.pieces)
            assert closed_by_scan(cover) and cover.is_closed()
            assert is_orientable(cover) and components_and_signing(cover) == (1, True)
            assert cover.is_connected() and cover.deck_is_free()
            deck = cover.deck_involution
            assert all(deck[i] != i and deck[deck[i]] == i for i in range(2 * n))
            # each base glueing lifts to two, which cross the sheets iff it reverses
            flags = {frozenset((p.a, p.b)): p.flag for p in base.pairings}
            lifted = Counter()
            for q in cover.pairings:
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
        assembled = AssembledManifold.glued(pieces, pairings)
        assert not is_orientable(assembled)
        cover = orientation_double_cover(assembled)
        assert is_orientable(cover)
        assert cover.is_connected()


def batch_of(pieces, rows) -> AssemblyBatch:
    """One row per list of pairings in `rows`, each glued on its own by `AssembledManifold.glued`."""
    built = [AssembledManifold.glued(pieces, pairings) for pairings in rows]
    partner, flag = (np.array([getattr(b, name) for b in built]) for name in ("partner", "flag"))
    return AssemblyBatch(built[0].layout, partner, flag)


def refs(pieces, pairings, internal_joins=(), deck_involution=None):
    return SimpleNamespace(
        pieces=pieces, pairings=pairings, internal_joins=internal_joins, deck_involution=deck_involution
    )


def read_back(batch: AssemblyBatch, g: int):
    """The slot refs of row g of a batch whose `partner` is an involution."""
    row = batch.row(g)
    return refs(row.pieces, row.pairings, row.internal_joins, row.deck_involution)


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
            labels = tuple(EDGE_LABELS[k % 4] for k in range(2 * m))
            graphs = [GlueingGraph(m, edges, labels, root=0) for edges in enumerate_base_graphs(m)]
            batch = assemble_batch(m, stack_edges(m, [graph.edges for graph in graphs]), 0, labels)
            assert [batch.row(g) for g in range(len(graphs))] == [
                assembled_piece_by_piece(graph, TEMPLATES) for graph in graphs
            ]
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
                pieces = assembled_piece_by_piece(graphs[0], templates).pieces
                for rows in (flipped, dropped, swapped):
                    base = batch_of(pieces, rows)
                    seen += verdicts_agree(base, [refs(pieces, row) for row in rows])
                    # the covers of the closed rows, read back as refs
                    closed = base.closed()
                    partner, flag = base.partner[closed], base.flag[closed]
                    cover = dataclasses.replace(base, partner=partner, flag=flag).cover
                    seen += verdicts_agree(cover, [read_back(cover, g) for g in range(sum(closed))])
                    assert all(cover.deck_free())
            # an edge moved to another vertex: one block gets five edges and one three
            moved = []
            for graph in graphs:
                k = int(rng.integers(2 * m))
                i, j = graph.edges[k]
                other = int(rng.choice([v for v in range(m) if v not in (i, j)]))
                edges = list(graph.edges)
                edges[k] = (min(i, other), max(i, other))
                moved.append(SimpleNamespace(vertex_count=m, edges=edges))
            overfilled = assemble_batch(m, np.array([graph.edges for graph in moved]), 0, labels)
            pieces = batch.layout.pieces
            assert verdicts_agree(overfilled, [refs(pieces, pairings_of(graph)) for graph in moved]) == {
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
        assert verdicts_agree(batch, [refs(pieces, row) for row in rows])["closed"] == 3
        assert list(batch.components) == [1, 1, 1]
        assert list(batch.orientable()) == [True, False, True]
        assert list(batch.cover.components) == [2, 1, 2]
        verdicts_agree(batch.cover, [read_back(batch.cover, g) for g in range(3)])

    def test_no_pieces(self):
        # nothing to glue: closed, connected and orientable, with a free deck on its cover
        empty = AssembledManifold.glued((), ())
        assert empty.is_closed() and empty.is_connected() and is_orientable(empty)
        assert orientation_double_cover(empty).deck_is_free()


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
