"""Graph core: chordality, orderings, DAG utilities, separation."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalearn.graphs import (
    ChordalGraph,
    CycleError,
    Dag,
    NotChordalError,
    UndirectedGraph,
    d_separated_table,
    find_chordless_cycle,
    is_chordal,
    is_complete_mask,
    is_perfect_order,
    mask_vertices,
    maximum_cardinality_order,
    min_fill_chordalize,
    moralize,
    orient_by_ordering,
    reach,
    separated,
    separated_table,
    vertex_mask,
)
from chordalearn.independence import DependencyModel, canonical_triples
from chordalearn.search import Move, apply_dag_move
from chordalearn.verification import all_dags, enumerate_chordal, iter_dags

from conftest import (
    all_graphs,
    d_separated,
    d_separated_masks,
    naive_d_separated,
    nx_is_chordal,
    oriented_parents,
    path_separated,
    random_chordal_graph,
    random_dag,
    random_graph,
    ref_find_chordless_cycle,
    ref_mask_vertices,
    ref_min_fill_chordalize,
    ref_topological_order,
)


class TestUndirectedGraph:
    def test_lines_canonical_and_sorted(self):
        g = UndirectedGraph(4, [(3, 1), (2, 0), (1, 3)])
        assert g.lines == ((0, 2), (1, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(0, 3)])

    def test_neighbors_and_mask(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2)])
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.neighbor_mask(1) == 0b0101
        assert len(g.neighbors(1)) == 2

    def test_with_without_line(self):
        g = UndirectedGraph(3, [(0, 1)])
        assert g.with_line(1, 2).lines == ((0, 1), (1, 2))
        assert g.without_line(0, 1).lines == ()
        # original untouched
        assert g.lines == ((0, 1),)

    def test_is_complete_set(self):
        masks = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2)]).neighbor_masks
        assert is_complete_mask(masks, vertex_mask([0, 1, 2]))
        assert is_complete_mask(masks, vertex_mask([0, 1]))
        assert is_complete_mask(masks, vertex_mask([3]))
        assert is_complete_mask(masks, vertex_mask([]))
        assert not is_complete_mask(masks, vertex_mask([0, 3]))

    def test_text_roundtrip(self):
        g = UndirectedGraph(5, [(0, 4), (2, 3)])
        assert UndirectedGraph.from_text(g.to_text()) == g

    def test_fingerprint(self):
        g = UndirectedGraph(5, [(2, 3), (0, 1)])
        assert g.fingerprint() == "n=5;0-1,2-3"
        assert UndirectedGraph(2).fingerprint() == "n=2;"

    def test_complete_and_empty(self):
        assert len(UndirectedGraph.complete(4).lines) == 6
        assert len(UndirectedGraph.empty(4).lines) == 0

    def test_numpy_vertex_ids_give_exact_masks(self):
        # numpy integers would make fixed-width masks that lose bits >= 63
        g = UndirectedGraph(70, [(np.int64(0), np.int64(65)), (np.int64(65), 69)])
        assert g.has_line(0, 65) and g == UndirectedGraph(70, [(0, 65), (65, 69)])
        assert g.neighbor_mask(65) == 1 | 1 << 69
        assert is_chordal(g)
        with pytest.raises(TypeError):
            UndirectedGraph(3, [(1.0, 2)])


class TestRandomChordalGraph:
    # sha256 over the fingerprints of 100 back-to-back draws, one row per
    # seed the suite draws from, cycling n over that caller's range;
    # recorded with the networkx-tested generator, so the mask-based one
    # must reproduce its rng stream and every accept/reject decision
    DRAWS = [
        (3, (5,), "0a542adbc5ea915f12cf10fa7dead4afbfc7cd3a42d5f01478e7c705fb5c1a82"),
        (5, (5,), "9d7fde16df05b0e992e08381171b5cf2e8d2dc8d39aaefa87281bdccaf756b5c"),
        (7, (4, 5), "73bf01d372441cbd9a7a051158b28effb80b2ada256247a9ec2654004d666f16"),
        (11, (6,), "2a1ccb86a51fd2d554d271b8fa356f53cb182bca1e74189b0abaf72ea8fc45eb"),
        (13, (6,), "9131efc2d2d1e563241dc3c1c4777b42db32f9ab79c42f396d888a1538fdc74d"),
        (29, range(3, 7), "48c3216bb1c889d33356e51fe16b1c8a8e0296c932b0207855310debbd2dcaa0"),
        (31, (5,), "060b9baab3ff0fc0e1cf4c959e57b8892ec9cc23ebdc3d3dc17a1e0fc0874724"),
        (37, range(3, 11), "ca0316c34b1d152d58e20488d8e4e00722d334e2dfee1156635c6d5cb4b29ffb"),
        (41, range(2, 7), "db227969ed650cac1e0d7bcc0150c072bd123d24e73f15175725183789d81a2d"),
        (43, (5,), "2eeb46259adbff7e6086ae8064f6a652c253c74f25874ed36bfd1a2e4b62612b"),
        (101, range(3, 11), "ff3f6ecb927c059d2c4e5476d31c1a793dd69c7c955164667ecefd2fa0288030"),
        (103, range(3, 7), "78c1bf31c1e7036c80cfdde9e8566b9ff700ed5088e1e7576a05270190c055cf"),
    ]

    @pytest.mark.parametrize(
        "seed, ns, digest", DRAWS, ids=[f"seed{row[0]}" for row in DRAWS]
    )
    def test_draws_pinned(self, seed, ns, digest):
        ns = list(ns)
        rng = np.random.default_rng(seed)
        h = hashlib.sha256()
        for i in range(100):
            g = random_chordal_graph(ns[i % len(ns)], rng)
            assert nx_is_chordal(g)
            h.update(g.fingerprint().encode() + b"\n")
        assert h.hexdigest() == digest


class TestCompleteMask:
    def test_agrees_with_definition_exhaustive_n5(self):
        for n in range(6):
            for g in all_graphs(n):
                for m in range(1 << n):
                    vertices = [v for v in range(n) if m >> v & 1]
                    expected = all(
                        g.has_line(a, b) for a, b in itertools.combinations(vertices, 2)
                    )
                    assert is_complete_mask(g.neighbor_masks, m) == expected


@st.composite
def graph_lines(draw, directed=False):
    """A vertex count and a line (or acyclic arc) list over it."""
    n = draw(st.integers(0, 9))
    order = draw(st.permutations(range(n)))
    pairs = [
        (order[i], order[j]) if directed else (i, j)
        for i, j in itertools.combinations(range(n), 2)
    ]
    lines = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, lines


def messy_text(n, pairs, draw):
    """Graph text with the rows shuffled, padded and spaced out."""
    rows = [f"  {a}   {b} " for a, b in draw(st.permutations(pairs))]
    return f"\n n {n}\n\n" + "\n".join(rows) + "\n\n"


class TestGraphText:
    @given(graph_lines(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_undirected_roundtrip(self, drawn, data):
        n, lines = drawn
        g = UndirectedGraph(n, lines)
        text = g.to_text()
        assert UndirectedGraph.from_text(text) == g
        assert UndirectedGraph.from_text(text).to_text() == text
        # endpoint order, row order and blank space do not matter
        flipped = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in lines]
        assert UndirectedGraph.from_text(messy_text(n, flipped, data.draw)) == g

    @given(graph_lines(directed=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dag_roundtrip(self, drawn, data):
        n, arcs = drawn
        d = Dag(n, arcs)
        text = d.to_text()
        assert Dag.from_text(text) == d
        assert Dag.from_text(text).to_text() == text
        assert Dag.from_text(messy_text(n, arcs, data.draw)) == d

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "4\n0 1\n",
            "n four\n",
            "n -1\n",
            "n 3\n0 1 2\n",
            "n 3\n0\n",
            "n 3\n0 x\n",
            "n 3\n0 3\n",
            "n 3\n1 1\n",
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            UndirectedGraph.from_text(text)
        with pytest.raises(ValueError):
            Dag.from_text(text)

    def test_cyclic_dag_text_rejected(self):
        with pytest.raises(CycleError):
            Dag.from_text("n 3\n0 1\n1 2\n2 0\n")


class TestChordality:
    def test_agrees_with_networkx_exhaustive_n5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert is_chordal(g) == nx_is_chordal(g)

    def test_agrees_with_networkx_sampled_n7(self):
        rng = np.random.default_rng(5)
        for _ in range(600):
            g = random_graph(7, rng, p=float(rng.random()))
            assert is_chordal(g) == nx_is_chordal(g)

    def test_labelled_chordal_counts(self):
        # known values for n = 1..5
        counts = [
            sum(is_chordal(g) for g in all_graphs(n)) for n in range(1, 6)
        ]
        assert counts == [1, 2, 8, 61, 822]

    def test_chordless_cycle_reported(self):
        g = UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        with pytest.raises(NotChordalError) as info:
            ChordalGraph.from_graph(g)
        cyc = info.value.cycle
        assert str(info.value) == f"graph has a chordless cycle {cyc}"
        assert len(cyc) >= 4
        # cycle is closed, chordless
        for i, v in enumerate(cyc):
            assert g.has_line(v, cyc[(i + 1) % len(cyc)])
        for i, j in itertools.combinations(range(len(cyc)), 2):
            if abs(i - j) not in (1, len(cyc) - 1):
                assert not g.has_line(cyc[i], cyc[j])

    def test_find_chordless_cycle_none_when_chordal(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert find_chordless_cycle(g) is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**15 - 1))
    def test_property_agrees_with_networkx_n6(self, mask):
        pairs = list(itertools.combinations(range(6), 2))
        g = UndirectedGraph(6, [pairs[i] for i in range(15) if mask >> i & 1])
        assert is_chordal(g) == nx_is_chordal(g)


class TestOrdering:
    def test_mcs_order_is_perfect_on_all_chordal_n5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                if not nx_is_chordal(g):
                    continue
                order = maximum_cardinality_order(g)
                assert sorted(order) == list(range(n))
                assert is_perfect_order(g, order)

    def test_mcs_order_not_perfect_on_hole(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_perfect_order(g, maximum_cardinality_order(g))
        err = pytest.raises(NotChordalError, ChordalGraph.from_graph, g)
        assert len(err.value.cycle) >= 4

    def test_is_perfect_order_rejects_bad_order(self):
        # star: centre first works (each leaf sees only the centre earlier);
        # centre last does not (its earlier neighbours are non-adjacent)
        g = UndirectedGraph(3, [(0, 1), (0, 2)])
        assert is_perfect_order(g, (0, 1, 2))
        assert not is_perfect_order(g, (1, 2, 0))

    def test_every_perfect_order_accepted_definitionally(self):
        # cross-check is_perfect_order against its own definition
        rng = np.random.default_rng(7)
        for _ in range(40):
            g = random_chordal_graph(5, rng)
            for perm in itertools.permutations(range(5)):
                expected = all(
                    is_complete_mask(
                        g.neighbor_masks,
                        vertex_mask(u for u in g.neighbors(perm[i]) if u in set(perm[:i])),
                    )
                    for i in range(5)
                )
                assert is_perfect_order(g, perm) == expected


def reference_neighbors(g: UndirectedGraph) -> list[frozenset]:
    """Neighbor sets built from the lines, as graphs stored them before
    they kept only bitmasks."""
    nbr = [set() for _ in range(g.n)]
    for a, b in g.lines:
        nbr[a].add(b)
        nbr[b].add(a)
    return [frozenset(s) for s in nbr]


def reference_maximum_cardinality_order(g: UndirectedGraph) -> tuple[int, ...]:
    """Maximum cardinality search over neighbor sets, ties to the lowest
    index: the slow path that ``maximum_cardinality_order`` replaced."""
    nbr = reference_neighbors(g)
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        v = -1
        best = -1
        for u in range(g.n):
            if not visited[u] and weight[u] > best:
                best = weight[u]
                v = u
        visited[v] = True
        order.append(v)
        for u in nbr[v]:
            if not visited[u]:
                weight[u] += 1
    return tuple(order)


def reference_oriented_parents(cg: ChordalGraph) -> tuple[frozenset, ...]:
    nbr = reference_neighbors(cg.graph)
    pos = {v: i for i, v in enumerate(cg.ordering)}
    return tuple(frozenset(u for u in nbr[v] if pos[u] < pos[v]) for v in range(cg.n))


class TestMaskAdjacency:
    """The bitmask adjacency against the line-set definitions it replaced,
    on every graph with n <= 5 and every chordal graph with n = 6."""

    @pytest.fixture(scope="class")
    def graphs(self):
        small = [list(all_graphs(n)) for n in range(6)]
        chordal6 = [cg.graph for cg in enumerate_chordal(6)]
        return small, chordal6

    def test_mcs_matches_reference(self, graphs):
        small, chordal6 = graphs
        for g in itertools.chain(*small, chordal6):
            assert maximum_cardinality_order(g) == reference_maximum_cardinality_order(g)

    def test_oriented_parents_match_reference(self, graphs):
        small, chordal6 = graphs
        for g in itertools.chain(*small, chordal6):
            if is_chordal(g):
                cg = ChordalGraph.from_graph(g)
                assert oriented_parents(cg) == reference_oriented_parents(cg)

    def test_line_queries_match_line_set(self, graphs):
        small, chordal6 = graphs
        for g in itertools.chain(*small, chordal6):
            lines = frozenset(g.lines)
            nbr = reference_neighbors(g)
            for a in range(-1, g.n + 1):
                if 0 <= a < g.n:
                    assert g.neighbors(a) == nbr[a]
                    assert g.neighbor_mask(a) == vertex_mask(nbr[a])
                for b in range(-1, g.n + 1):
                    if a == b:
                        with pytest.raises(ValueError, match="self-loop"):
                            g.has_line(a, b)
                    else:
                        assert g.has_line(a, b) is ((min(a, b), max(a, b)) in lines)

    def test_equality_and_hash_match_line_set(self, graphs):
        small, chordal6 = graphs
        for gs in small:
            for g in gs:
                key = (g.n, frozenset(g.lines))
                for h in gs:
                    assert (g == h) == (key == (h.n, frozenset(h.lines)))
        everything = [g for gs in small for g in gs] + chordal6
        for g in everything:
            # the same lines, listed in another order and orientation
            twin = UndirectedGraph(g.n, [(b, a) for a, b in reversed(g.lines)])
            assert twin == g and hash(twin) == hash(g)
            assert g != UndirectedGraph(g.n + 1, g.lines)
        # all distinct by lines, so a set keeps every one
        assert len(set(everything)) == len(everything)


class TestMaskAlgorithmsMatchSetOracles:
    """The bitmask witness search, min-fill, topological order and bit
    walk against the set-based versions they replaced (``conftest``):
    the same witnesses, fills and orders."""

    def test_chordless_cycle_witnesses_exhaustive_n6(self):
        for n in range(7):
            for g in all_graphs(n):
                assert find_chordless_cycle(g) == ref_find_chordless_cycle(g)

    def test_min_fill_seeded_up_to_n64(self):
        rng = np.random.default_rng(29)
        for n in (0, 1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64):
            for _ in range(6 if n <= 24 else 2):
                # sparse moral-like graphs up to dense ones
                g = random_graph(n, rng, p=float(rng.choice([0.05, 0.1, 0.2, 0.4, 0.7])))
                chordal, fills = min_fill_chordalize(g)
                assert (chordal.lines, fills, chordal.ordering) == ref_min_fill_chordalize(g)

    def test_topological_order_every_dag_n4(self):
        dags = all_dags(4)
        assert len(dags) == 543
        for arcs in dags:
            d = Dag(4, arcs)
            assert d.topological_order() == ref_topological_order(d)

    def test_topological_order_seeded_n36(self):
        rng = np.random.default_rng(31)
        for p in (0.02, 0.05, 0.1, 0.2, 0.5, 0.9):
            for _ in range(5):
                d = random_dag(36, rng, p=p)
                assert d.topological_order() == ref_topological_order(d)
                # and after the edits the DAG search makes
                for u, v in d.arcs[:5]:
                    e = d.without_arc(u, v)
                    assert e.topological_order() == ref_topological_order(e)

    def test_arc_edits_match_validating_constructor_n3(self):
        # with_arc and without_arc give the DAG, or the exception and
        # message, of building the edited arc list from scratch
        def outcome(make):
            try:
                d = make()
            except ValueError as exc:  # CycleError is a ValueError
                return type(exc), str(exc)
            return d, d.arcs, d.parent_masks, d.topological_order()

        for arcs in all_dags(3):
            d = Dag(3, arcs)
            for u, v in itertools.product(range(-1, 4), repeat=2):
                assert outcome(lambda: d.with_arc(u, v)) == outcome(
                    lambda: Dag(3, arcs + ((u, v),))
                )
                if not 0 <= v < 3:
                    continue
                assert d.has_arc(u, v) is ((u, v) in arcs)
                if d.has_arc(u, v):
                    assert outcome(lambda: d.without_arc(u, v)) == outcome(
                        lambda: Dag(3, [a for a in arcs if a != (u, v)])
                    )
                else:
                    with pytest.raises(ValueError, match=f"^arrow {u}->{v} not present$"):
                        d.without_arc(u, v)

    def test_mask_vertices_matches_bit_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            mask = 0
            for bit in rng.choice(201, size=int(rng.integers(0, 12)), replace=False):
                mask |= 1 << int(bit)
            assert mask_vertices(mask) == ref_mask_vertices(mask)
        assert mask_vertices(0) == ()
        assert mask_vertices(1 << 200 | 1) == (0, 200)
        with pytest.raises(ValueError, match="negative"):
            mask_vertices(-1)


class TestChordalGraph:
    def test_from_graph_requires_chordal(self):
        hole = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotChordalError):
            ChordalGraph.from_graph(hole)

    def test_ordering_validated(self):
        g = UndirectedGraph(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            ChordalGraph(g, (1, 2, 0))  # star centre last is not perfect

    def test_oriented_parents_earlier_neighbours(self):
        g = ChordalGraph.from_lines(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        pa = oriented_parents(g)
        order = g.ordering
        pos = {v: i for i, v in enumerate(order)}
        for v in range(4):
            assert pa[v] == frozenset(
                u for u in g.graph.neighbors(v) if pos[u] < pos[v]
            )

    def test_text_roundtrip(self):
        g = ChordalGraph.from_lines(4, [(0, 1), (2, 3)])
        h = ChordalGraph.from_text(g.to_text())
        assert h.graph == g.graph


class TestDag:
    def test_parent_masks_match_parent_sets_n4(self):
        for arcs in all_dags(4):
            d = Dag(4, arcs)
            assert d.parent_masks == tuple(vertex_mask(ps) for ps in d.parents)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_arc_rejected_duplicates_collapsed(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 0)])
        assert Dag(2, [(0, 1), (0, 1)]).arcs == ((0, 1),)
        with pytest.raises(CycleError):
            Dag(2, [(0, 1), (1, 0)])

    def test_two_cycle_named_by_first_arc_in_input_order(self):
        with pytest.raises(CycleError, match="two-cycle between 3 and 2"):
            Dag(4, [(3, 2), (1, 0), (2, 3), (0, 1)])
        with pytest.raises(CycleError, match="two-cycle between 1 and 0"):
            Dag(4, [(1, 0), (2, 3), (0, 1), (3, 2)])
        # range and self-arrow errors come first, wherever they are listed
        with pytest.raises(ValueError, match="out of range"):
            Dag(4, [(2, 3), (3, 2), (0, 4)])
        with pytest.raises(ValueError, match="self-arrow"):
            Dag(4, [(2, 3), (3, 2), (1, 1)])

    def test_numpy_vertex_ids_give_exact_masks(self):
        # numpy integers would make fixed-width masks that lose bits >= 63
        arcs = [(65, 0), (3, 1), (0, 69)]
        d = Dag(70, [(np.int64(u), np.int64(v)) for u, v in arcs])
        assert d == Dag(70, arcs) and d.arcs == ((0, 69), (3, 1), (65, 0))
        assert d.parent_masks[0] == 1 << 65
        with pytest.raises(TypeError):
            Dag(3, [(1.0, 2)])

    def test_topological_order(self):
        d = Dag(4, [(2, 0), (0, 3), (2, 3), (1, 3)])
        order = d.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in d.arcs:
            assert pos[u] < pos[v]

    def test_skeleton_and_moralize(self):
        d = Dag(4, [(0, 2), (1, 2), (2, 3)])
        m = moralize(d)
        assert m.lines == ((0, 1), (0, 2), (1, 2), (2, 3))

    def test_with_without_arc(self):
        d = Dag(3, [(0, 1)])
        assert d.with_arc(1, 2).arcs == ((0, 1), (1, 2))
        assert d.without_arc(0, 1).arcs == ()
        with pytest.raises(CycleError):
            d.with_arc(1, 0)

    def test_has_arc_false_out_of_range(self):
        d = Dag(3, [(0, 2)])
        assert not d.has_arc(0, -1)  # no wrap round to vertex 2
        assert not d.has_arc(-1, 0)
        assert not d.has_arc(0, 5) and not d.has_arc(5, 0)
        assert d.has_arc(0, 2)

    def test_negative_id_removes_no_arc(self):
        d = Dag(3, [(0, 2)])
        with pytest.raises(ValueError, match="not present"):
            d.without_arc(0, -1)
        with pytest.raises(ValueError, match="not present"):
            apply_dag_move(d, Move("remove", 0, -1))
        assert d.arcs == ((0, 2),)

    def test_edits_take_numpy_ids_exactly(self):
        d = Dag(70)
        wide = d.with_arc(np.int64(65), np.int64(0))
        assert wide == Dag(70, [(65, 0)]) and wide.parent_masks[0] == 1 << 65
        assert d.with_arc(np.int64(3), np.int64(0)).arcs == ((3, 0),)
        assert wide.without_arc(np.int64(65), np.int64(0)) == d
        with pytest.raises(TypeError):
            d.with_arc(1.0, 2)

    def test_text_roundtrip(self):
        d = Dag(4, [(0, 2), (3, 1)])
        assert Dag.from_text(d.to_text()) == d

    def test_reachable_from_proper_descendants(self):
        d = Dag(5, [(0, 1), (1, 2), (3, 4)])
        assert d.reachable_from(0) == {1, 2}
        assert d.reachable_from(3) == {4}
        assert d.reachable_from(2) == set()


class TestOrientByOrdering:
    def test_no_v_structures_and_skeleton_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = ChordalGraph.from_graph(random_chordal_graph(6, rng))
            d = orient_by_ordering(g, g.ordering)
            assert UndirectedGraph(d.n, d.arcs) == g.graph
            # moralizing adds a line per v-structure, so this says there
            # are none
            assert moralize(d) == g.graph

    def test_rejects_imperfect_order(self):
        g = ChordalGraph.from_lines(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            orient_by_ordering(g, (1, 2, 0))


class TestMinFill:
    def test_chordal_input_unchanged(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_chordal_graph(6, rng)
            chordal, fills = min_fill_chordalize(g)
            assert fills == ()
            assert chordal.graph == g

    def test_result_chordal_supergraph(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            g = random_graph(7, rng, p=0.35)
            chordal, fills = min_fill_chordalize(g)
            assert nx_is_chordal(chordal.graph)
            assert set(g.lines) <= set(chordal.graph.lines)
            assert set(chordal.graph.lines) - set(g.lines) == set(fills)

    def test_four_cycle_gets_single_fill(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        chordal, fills = min_fill_chordalize(g)
        assert len(fills) == 1
        assert nx_is_chordal(chordal.graph)


def disjoint_triples(n: int):
    """Every (A, B, C) of pairwise disjoint vertex tuples with A and B
    nonempty: each vertex takes one of the roles A, B, C or unused."""
    for roles in itertools.product(range(4), repeat=n):
        a, b, c = ([v for v in range(n) if roles[v] == r] for r in range(3))
        if a and b:
            yield a, b, c


class TestSeparation:
    def test_numpy_vertex_ids_mask_like_python_ints(self):
        # a fixed-width shift by 65 gives 0, which reads as an empty set
        assert vertex_mask([np.int64(65)]) == vertex_mask([65]) == 1 << 65
        assert vertex_mask([np.int64(0), np.int64(69)]) == 1 | 1 << 69
        with pytest.raises(TypeError):
            vertex_mask([65.0])

    def test_numpy_vertex_ids_separate_like_python_ints(self):
        g = UndirectedGraph(70, [(0, 65)])
        assert not separated(g, [np.int64(65)], [0])
        assert separated(g, [np.int64(65)], [np.int64(1)], [np.int64(0)])
        with pytest.raises(TypeError):
            separated(g, [65.0], [0])

    def test_agrees_with_path_enumeration_exhaustive_n4(self):
        for g in all_graphs(4):
            verts = range(4)
            for a in verts:
                for b in verts:
                    if a >= b:
                        continue
                    rest = [v for v in verts if v not in (a, b)]
                    for k in range(len(rest) + 1):
                        for c in itertools.combinations(rest, k):
                            assert separated(g, [a], [b], c) == path_separated(
                                g, [a], [b], c
                            )

    def test_reach_agrees_with_path_enumeration_exhaustive_n4(self):
        for g in all_graphs(4):
            for src in range(1, 16):
                for blocked in range(16):
                    if src & blocked:
                        continue
                    a = [v for v in range(4) if src >> v & 1]
                    c = [v for v in range(4) if blocked >> v & 1]
                    expected = src
                    for v in range(4):
                        if (src | blocked) >> v & 1:
                            continue
                        if not path_separated(g, a, [v], c):
                            expected |= 1 << v
                    assert reach(g.neighbor_masks, src, blocked) == expected

    def test_set_arguments(self):
        g = UndirectedGraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        assert separated(g, [0, 1], [3, 4], [2])
        assert not separated(g, [0, 1], [3, 4], [])

    def test_set_arguments_exhaustive_n4(self):
        for g in all_graphs(4):
            model = DependencyModel.from_undirected(g)
            for a, b, c in disjoint_triples(4):
                expected = path_separated(g, a, b, c)
                assert separated(g, a, b, c) == expected, (g, a, b, c)
                assert model.independent(a, b, c) == expected, (g, a, b, c)

    def test_overlap_rejected(self):
        g = UndirectedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            separated(g, [0], [0], [])
        with pytest.raises(ValueError):
            separated(g, [0], [1], [1])

    def test_empty_side_rejected(self):
        g = UndirectedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            separated(g, [], [1], [])


class TestDSeparation:
    def test_agrees_with_ancestral_moral_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            d = random_dag(5, rng)
            for a in range(5):
                for b in range(a + 1, 5):
                    rest = [v for v in range(5) if v not in (a, b)]
                    for k in range(len(rest) + 1):
                        for c in itertools.combinations(rest, k):
                            assert d_separated(d, [a], [b], c) == naive_d_separated(
                                d, {a}, {b}, set(c)
                            )

    def test_set_arguments_agree_with_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = random_dag(5, rng)
            model = DependencyModel.from_dag(d)
            for a, b, c in disjoint_triples(5):
                expected = naive_d_separated(d, a, b, c)
                assert d_separated(d, a, b, c) == expected, (d, a, b, c)
                assert model.independent(a, b, c) == expected, (d, a, b, c)

    def test_collider_pattern(self):
        d = Dag(3, [(0, 2), (1, 2)])
        assert d_separated(d, [0], [1], [])
        assert not d_separated(d, [0], [1], [2])

    def test_chain_pattern(self):
        d = Dag(3, [(0, 1), (1, 2)])
        assert not d_separated(d, [0], [2], [])
        assert d_separated(d, [0], [2], [1])


def parent_masks(n, arcs):
    masks = [0] * n
    for u, v in arcs:
        masks[v] |= 1 << u
    return masks


class TestBatchSeparationKernels:
    """The batch kernels answer a statement list exactly as one query per
    statement does."""

    def test_dag_table_equals_single_queries_n4(self):
        for n in range(1, 5):
            full = canonical_triples(tuple(range(n)))
            # the highest vertex latent: statements over the others only
            margin = canonical_triples(tuple(range(n - 1)))
            dags = all_dags(n)
            if n == 4:
                assert len(dags) == 543
            for arcs in dags:
                pm = parent_masks(n, arcs)
                for triples in (full, margin):
                    expected = [d_separated_masks(pm, *t) for t in triples]
                    assert d_separated_table(pm, triples) == expected, arcs

    def test_dag_table_equals_single_queries_on_witness_scan(self):
        # the DAGs on five vertices that the latent-witness search scans
        # before its first witness, over the triples of its answer key
        triples = canonical_triples((0, 1, 2, 3))
        for arcs in itertools.islice(iter_dags(5), 4432):
            pm = parent_masks(5, arcs)
            expected = [d_separated_masks(pm, *t) for t in triples]
            assert d_separated_table(pm, triples) == expected, arcs

    def test_undirected_table_equals_reach_n5(self):
        for n in range(1, 6):
            triples = canonical_triples(tuple(range(n)))
            for g in all_graphs(n):
                masks = g.neighbor_masks
                expected = [not reach(masks, a, c) & b for a, b, c in triples]
                assert separated_table(masks, triples) == expected, g
