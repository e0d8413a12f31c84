"""Graph enumeration against a bitmask oracle, assembly and cover invariants."""

import copy
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
    AssembledManifold,
    GlueingGraph,
    Pairing,
    PieceInstance,
    PieceTemplate,
    assemble,
    count_graphs,
    enumerate_base_graphs,
    growth_fit,
    is_orientable,
    orientation_double_cover,
    proper_labelings,
    standard_templates,
    volume,
)
from oracles import enumerate_graphs, enumerated_counts


def bitmask_oracle(m: int, degree: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """Exhaustive enumeration over all 2^(m choose 2) adjacency bitmasks."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    incidence = np.zeros((len(pairs), m), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        incidence[k, i] = incidence[k, j] = 1
    masks = np.arange(2 ** len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))[None, :]) & 1
    degrees = bits @ incidence
    good = np.where(np.all(degrees == degree, axis=1))[0]
    out = []
    for mask in good:
        edges = tuple(pairs[k] for k in range(len(pairs)) if (int(mask) >> k) & 1)
        out.append(edges)
    return out


class TestEnumeration:
    @pytest.mark.parametrize("m,expected", [(5, 1), (6, 15), (7, 465)])
    def test_counts_match_oracle(self, m, expected):
        ours = list(enumerate_base_graphs(m))
        oracle = bitmask_oracle(m)
        assert len(ours) == expected
        assert sorted(ours) == sorted(oracle)

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
            GlueingGraph(6, edges, labels, root=0, proper=True)


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
        # enumerated_counts(8, "proper", m_min=8) gives the same row in about 50 s
        (row,) = count_graphs(8, "proper", m_min=8)
        assert (row.base_count, row.rooted_labelled) == (19355, 23063040)

    def test_free_base_counts_oeis(self):
        rows = count_graphs(11, "free", m_min=9)
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
            rows = count_graphs(4, mode, m_min=0)
            assert rows == [glueing.CountRow(m, 0, 0) for m in range(5)]

    @pytest.mark.parametrize("mode", ["free", "proper"])
    def test_counts_without_enumeration(self, monkeypatch, mode):
        def fail(*args, **kwargs):
            raise AssertionError("count_graphs must not enumerate graphs")

        monkeypatch.setattr(glueing, "enumerate_base_graphs", fail)
        monkeypatch.setattr(glueing, "proper_labelings", fail)
        rows = count_graphs(9, mode)
        assert [r.base_count for r in rows] == [1, 15, 465, 19355, 1024380]


class TestGraphValidation:
    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError, match="4-regular"):
            GlueingGraph(5, ((0, 1), (2, 3)), ("a+", "a-"), root=0)

    def test_rejects_improper_labels(self):
        edges = next(enumerate_base_graphs(6))
        labels = tuple("a+" for _ in edges)
        with pytest.raises(ValueError, match="proper"):
            GlueingGraph(6, edges, labels, root=0, proper=True)

    def test_rejects_bad_root(self):
        edges = next(enumerate_base_graphs(5))
        with pytest.raises(ValueError, match="root"):
            GlueingGraph(5, edges, tuple("a+" for _ in edges), root=9)


def k5_assembly(root=0):
    (edges,) = enumerate_base_graphs(5)
    labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
    return assemble(GlueingGraph(5, edges, labels, root=root))


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
        assembled = k5_assembly()
        assert volume(assembled) == 15.0
        doubled = assemble(
            GlueingGraph(
                5,
                assembled and next(enumerate_base_graphs(5)),
                tuple(EDGE_LABELS[k % 4] for k in range(10)),
                root=0,
            ),
            templates=standard_templates({l: 2.0 for l in list(EDGE_LABELS) + ["u", "v"]}),
        )
        assert volume(doubled) == 30.0

    def test_volume_bounded_by_three_m(self):
        for m in (5, 6):
            for edges in itertools.islice(enumerate_base_graphs(m), 5):
                labels = tuple(EDGE_LABELS[k % 4] for k in range(len(edges)))
                assembled = assemble(GlueingGraph(m, edges, labels, root=0))
                assert volume(assembled) <= 3.0 * m


class TestTrustedRecords:
    """`assemble` and the cover build their records without calling the class."""

    def test_records_equal_the_validated_ones(self):
        u = PieceTemplate("u", 2, True)
        reversing = AssembledManifold(
            (PieceInstance(u, ("a",)), PieceInstance(u, ("b",))),
            (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), -1)),
        )
        complexes = [reversing, orientation_double_cover(reversing)]
        checked = 0
        for m in (5, 6, 7):
            labels = tuple(EDGE_LABELS[k % 4] for k in range(2 * m))
            for edges in enumerate_base_graphs(m):
                assembled = assemble(GlueingGraph(m, edges, labels, root=0))
                complexes += [assembled, orientation_double_cover(assembled)]
                checked += 1
        assert checked == 481
        for built in complexes:
            for p in built.pairings:
                assert type(p) is Pairing and Pairing(*p) == p
            for x in built.pieces:
                assert type(x) is PieceInstance and PieceInstance(*x) == x
        with pytest.raises(ValueError, match="flag"):
            Pairing((0, 0), (1, 0), 0)


def two_piece_complex(*pairings):
    u = PieceTemplate("u", 2, True)
    pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
    return AssembledManifold(pieces, tuple(Pairing(a, b) for a, b in pairings))


class TestClosedness:
    def test_every_slot_once_is_closed(self):
        assert two_piece_complex(((0, 0), (1, 0)), ((0, 1), (1, 1))).is_closed()

    @pytest.mark.parametrize(
        "pairings",
        [
            (((0, 0), (1, 0)), ((0, 0), (1, 1))),
            (((0, 0), (1, 0)), ((0, 2), (1, 1))),
            (((0, 0), (1, 0)), ((0, 1), (2, 1))),
            (((0, 0), (1, 0)), ((0, 1), (-1, 1))),
            (((0, 0), (1, 0)),),
        ],
        ids=["slot-used-twice", "slot-past-boundary-count", "piece-out-of-range",
             "negative-piece", "unused-slot"],
    )
    def test_not_closed(self, pairings):
        assembled = two_piece_complex(*pairings)
        assert not assembled.is_closed()
        with pytest.raises(ValueError, match="closed"):
            assembled.is_connected()

    def test_pairing_refuses_other_flags(self):
        with pytest.raises(ValueError, match="flag"):
            Pairing((0, 0), (1, 0), flag=0)
        with pytest.raises(ValueError, match="flag"):
            Pairing((0, 0), (1, 0))._replace(flag=2)

    def test_records_are_immutable(self):
        assembled = k5_assembly()
        with pytest.raises(AttributeError):
            assembled.pieces[0].template = assembled.pieces[1].template
        with pytest.raises(AttributeError):
            assembled.pairings[0].flag = -1
        with pytest.raises(AttributeError):
            assembled.pairings = ()

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
        assert is_orientable(AssembledManifold(pieces, pairings))

    def test_single_reversing_flag_on_cycle(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (
            Pairing((0, 0), (1, 0), 1),
            Pairing((0, 1), (1, 1), -1),
        )
        assert not is_orientable(AssembledManifold(pieces, pairings))

    def test_non_closed_rejected(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)),)
        with pytest.raises(ValueError):
            is_orientable(AssembledManifold(pieces, ()))


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
        assembled = AssembledManifold(pieces, pairings)
        cover = orientation_double_cover(assembled)
        assert is_orientable(cover)
        assert not cover.is_connected()

    def test_deck_involution_fixed_point_free(self):
        cover = orientation_double_cover(k5_assembly())
        deck = cover.deck_involution
        assert deck is not None
        assert all(deck[i] != i for i in range(len(cover.pieces)))
        assert all(deck[deck[i]] == i for i in range(len(cover.pieces)))

    def test_reversing_flags_lift_to_preserving(self):
        u = PieceTemplate("u", 2, True)
        pieces = (PieceInstance(u, ("a",)), PieceInstance(u, ("b",)))
        pairings = (Pairing((0, 0), (1, 0), 1), Pairing((0, 1), (1, 1), -1))
        assembled = AssembledManifold(pieces, pairings)
        assert not is_orientable(assembled)
        cover = orientation_double_cover(assembled)
        assert is_orientable(cover)
        assert cover.is_connected()


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
