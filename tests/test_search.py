"""Boundary enumeration, scorers, and greedy hill-climbing."""

import dataclasses
import itertools
import json
import math

import networkx as nx
import numpy as np
import pytest

from chordalearn import search
from chordalearn.graphs import ChordalGraph, CycleError, Dag, NotChordalError, UndirectedGraph
from chordalearn.graphs import is_chordal
from chordalearn.independence import (
    DependencyModel,
    inclusion_optimal,
    model_included,
)
from chordalearn.scoring import Dataset, ScoreCache, score_chordal, score_dag
from chordalearn.search import (
    BDeuScorer,
    Move,
    OracleScore,
    SearchTrace,
    TraceStep,
    apply_dag_move,
    apply_move,
    dag_moves,
    greedy_chordal,
    greedy_dag,
    inclusion_boundary,
    removal_keeps_chordal,
)
from chordalearn.synthetic import (
    DiscreteBayesNet,
    ancestral_sample,
    random_chordal_target,
    random_dag,
    random_parameters,
    rng_from,
)

from conftest import addition_keeps_chordal, all_graphs, line_delta, listed_scores
from conftest import listing_greedy_chordal, per_move_greedy_chordal, random_chordal_graph, to_nx


class TestMove:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Move("flip", 0, 1)
        with pytest.raises(ValueError):
            Move("add", 1, 1)

    def test_endpoint_order_preserved(self):
        # directed moves carry (parent, child), so endpoints never swap
        m = Move("add", 3, 1)
        assert (m.a, m.b) == (3, 1)

    def test_string_and_order(self):
        assert Move("remove", 0, 2).to_string() == "remove 0 2"
        moves = [Move("remove", 0, 1), Move("add", 2, 3), Move("add", 0, 1)]
        assert sorted(moves, key=Move.sort_key) == [
            Move("add", 0, 1),
            Move("add", 2, 3),
            Move("remove", 0, 1),
        ]


    def test_listed_moves_are_shared_and_still_frozen(self):
        g = ChordalGraph.from_graph(UndirectedGraph(4, [(0, 1), (1, 2)]))
        d = Dag(4, [(0, 1), (1, 2)])
        listed = inclusion_boundary(g) + dag_moves(d)
        assert {m.kind for m in listed} == {"add", "remove", "reverse"}
        for m in listed:
            fresh = Move(m.kind, m.a, m.b)
            assert m == fresh and hash(m) == hash(fresh)
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.a = 3
        # a second listing hands out the same instances
        assert all(x is y for x, y in zip(dag_moves(d), dag_moves(d)))
        with pytest.raises(ValueError):
            Move("bogus", 0, 1)
        with pytest.raises(ValueError):
            Move("add", 1, 1)


class TestInclusionBoundary:
    def test_worked_example_path(self):
        # path 1-2-3-0: two legal additions close triangles, the third
        # would close a chordless 4-cycle; all three removals are legal
        g = ChordalGraph.from_lines(4, [(1, 2), (2, 3), (0, 3)])
        assert inclusion_boundary(g) == [
            Move("add", 0, 2),
            Move("add", 1, 3),
            Move("remove", 0, 3),
            Move("remove", 1, 2),
            Move("remove", 2, 3),
        ]

    def test_empty_graph_all_additions(self):
        g = ChordalGraph.empty(4)
        assert inclusion_boundary(g) == [
            Move("add", a, b) for a, b in itertools.combinations(range(4), 2)
        ]

    def test_complete_graph_all_removals(self):
        g = ChordalGraph.from_graph(UndirectedGraph.complete(4))
        assert inclusion_boundary(g) == [
            Move("remove", a, b)
            for a, b in itertools.combinations(range(4), 2)
        ]

    def test_matches_definition_exhaustively_n6(self):
        # definitional cross-check: a move is on the boundary iff the
        # edited graph is chordal (the global test is the oracle for the
        # local criteria the boundary uses)
        for n in range(1, 7):
            for graph in all_graphs(n):
                if not is_chordal(graph):
                    continue
                g = ChordalGraph.from_graph(graph)
                expected = []
                for a, b in itertools.combinations(range(n), 2):
                    if graph.has_line(a, b):
                        if is_chordal(graph.without_line(a, b)):
                            expected.append(Move("remove", a, b))
                    elif is_chordal(graph.with_line(a, b)):
                        expected.append(Move("add", a, b))
                expected.sort(key=Move.sort_key)
                assert inclusion_boundary(g) == expected

    def test_component_memo_equals_per_pair_oracle_n6(self):
        # the per-call components of G - S decide every addition exactly as
        # one reach per absent pair does
        for n in range(1, 7):
            for graph in all_graphs(n):
                if not is_chordal(graph):
                    continue
                g = ChordalGraph.from_graph(graph)
                expected = [
                    Move("add", a, b)
                    for a, b in itertools.combinations(range(n), 2)
                    if not graph.has_line(a, b) and addition_keeps_chordal(g, a, b)
                ]
                expected += [
                    Move("remove", a, b)
                    for a, b in graph.lines
                    if removal_keeps_chordal(g, a, b)
                ]
                assert inclusion_boundary(g) == expected

    def test_removal_prefilter_equals_chordality(self):
        for graph in all_graphs(5):
            if not is_chordal(graph):
                continue
            g = ChordalGraph.from_graph(graph)
            for a, b in graph.lines:
                assert removal_keeps_chordal(g, a, b) == is_chordal(
                    graph.without_line(a, b)
                )


class TestApplyMove:
    def test_add_and_remove(self):
        g = ChordalGraph.from_lines(3, [(0, 1)])
        h = apply_move(g, Move("add", 1, 2))
        assert h.lines == ((0, 1), (1, 2))
        k = apply_move(h, Move("remove", 0, 1))
        assert k.lines == ((1, 2),)

    def test_illegal_move_rejected(self):
        g = ChordalGraph.from_lines(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError):
            apply_move(g, Move("add", 0, 3))  # closes a chordless 4-cycle


class TestBDeuScorer:
    def test_score_matches_score_chordal(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.integers(0, 2, size=(100, 5)))
        scorer = BDeuScorer(data, ess=2.0)
        for _ in range(20):
            g = ChordalGraph.from_graph(random_chordal_graph(5, rng))
            assert abs(scorer.score(g) - score_chordal(g, data, ess=2.0)) <= 1e-9

    def test_move_score_equals_rescoring(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.integers(0, 3, size=(200, 5)))
        scorer = BDeuScorer(data)
        for _ in range(30):
            g = ChordalGraph.from_graph(random_chordal_graph(5, rng))
            current = scorer.score(g)
            for move in inclusion_boundary(g):
                expected = scorer.score(apply_move(g, move))
                assert abs(scorer.move_score(g, current, move) - expected) <= 1e-9

    def test_delta_memo_equals_line_delta_exhaustive_n5(self):
        # one scorer across every chordal graph with n <= 5, so entries
        # filled on one graph are read back on others with the same
        # (a, b, S); the unmemoized line_delta on a fresh cache is the oracle
        rng = np.random.default_rng(11)
        data = Dataset(rng.integers(0, 3, size=(150, 5)))
        scorer = BDeuScorer(data)
        checked = 0
        for n in range(2, 6):
            for graph in all_graphs(n):
                if not is_chordal(graph):
                    continue
                g = ChordalGraph.from_graph(graph)
                for move in inclusion_boundary(g):
                    assert scorer.delta(g, move) == line_delta(ScoreCache(data), g, move)
                    checked += 1
        # 10 pairs times 8 subsets of the other three vertices
        assert len(scorer._line_deltas) == 80
        assert checked > 80

    def test_delta_memo_keys_on_common_neighbors(self):
        # x0 and x1 are noisy copies of x2: dependent, but not given x2
        rng = np.random.default_rng(2)
        x2 = rng.integers(0, 2, size=400)
        noise = rng.random((400, 2)) < 0.1
        data = Dataset(np.column_stack([x2 ^ noise[:, 0], x2 ^ noise[:, 1], x2]))
        scorer = BDeuScorer(data)
        add = Move("add", 0, 1)
        apart = ChordalGraph.empty(3)
        via = ChordalGraph.from_lines(3, [(0, 2), (1, 2)])
        d_apart = scorer.delta(apart, add)
        d_via = scorer.delta(via, add)
        assert set(scorer._line_deltas) == {(0, 1, 0), (0, 1, 0b100)}
        assert d_apart == line_delta(ScoreCache(data), apart, add)
        assert d_via == line_delta(ScoreCache(data), via, add)
        assert d_apart > 0 > d_via
        # a removal reads the exact negation of the add-sense entry
        full = ChordalGraph.from_lines(3, [(0, 1), (0, 2), (1, 2)])
        assert scorer.delta(full, Move("remove", 0, 1)) == -d_via
        assert len(scorer._line_deltas) == 2


def ug_model(n, lines):
    return DependencyModel.from_undirected(UndirectedGraph(n, lines))


class TestOracleScore:
    def test_zero_violation_iff_included(self):
        # the numeric component vanishes exactly on included graphs
        targets = [
            UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            UndirectedGraph(4, [(0, 1), (2, 3)]),
            UndirectedGraph(4),
            UndirectedGraph.complete(4),
        ]
        for t in targets:
            oracle = OracleScore(t)
            target = DependencyModel.from_undirected(t)
            for graph in all_graphs(4):
                if not is_chordal(graph):
                    continue
                g = ChordalGraph.from_graph(graph)
                viol, _ = oracle.score(g)
                included, _ = model_included(g, target)
                assert (viol == 0) == included

    def test_score_prefers_sparser_included_graphs(self):
        t = UndirectedGraph(3, [(0, 1)])
        oracle = OracleScore(t)
        exact = ChordalGraph.from_lines(3, [(0, 1)])
        denser = ChordalGraph.from_lines(3, [(0, 1), (1, 2)])
        assert oracle.score(exact) > oracle.score(denser)

    def test_move_score_matches_full_rescoring(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            t = UndirectedGraph(
                4,
                [
                    p
                    for p in itertools.combinations(range(4), 2)
                    if rng.random() < 0.5
                ],
            )
            oracle = OracleScore(t)
            graph = random_chordal_graph(4, rng)
            g = ChordalGraph.from_graph(graph)
            current = oracle.score(g)
            for move in inclusion_boundary(g):
                assert oracle.move_score(g, current, move) == oracle.score(
                    apply_move(g, move)
                )

    def test_set_entropy_counts_connected_sets_exhaustive_n4(self):
        # the entropy of W is the number of connected target sets meeting W
        for n in range(1, 5):
            for g in all_graphs(n):
                h = to_nx(g)
                connected = [
                    m
                    for m in range(1, 1 << n)
                    if nx.is_connected(h.subgraph(v for v in range(n) if m >> v & 1))
                ]
                oracle = OracleScore(g)
                expected = [sum(1 for m in connected if m & w) for w in range(1 << n)]
                # the table is the score's one form, read-only
                assert oracle.entropy.dtype == np.int64
                assert not oracle.entropy.flags.writeable
                assert oracle.entropy.tolist() == expected, g
                assert [oracle.set_entropy(w) for w in range(1 << n)] == expected

    def test_set_entropy_rejects_masks_out_of_range(self):
        oracle = OracleScore(UndirectedGraph(3, [(0, 1)]))
        for mask in (8, -1, -8):  # -1 and -8 would index from the end
            with pytest.raises(IndexError):
                oracle.set_entropy(mask)

    def test_conditional_info_zero_iff_separated(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        oracle = OracleScore(g)
        m = DependencyModel.from_undirected(g)
        for a, b in itertools.combinations(range(4), 2):
            rest = [v for v in range(4) if v not in (a, b)]
            for k in range(len(rest) + 1):
                for c in itertools.combinations(rest, k):
                    s_mask = sum(1 << v for v in c)
                    info = oracle.conditional_info(a, b, s_mask)
                    assert (info == 0) == m.independent([a], [b], c)
                    assert info >= 0


class TestGreedyChordal:
    @pytest.fixture(autouse=True)
    def capped_search(self, monkeypatch):
        """A wrongly carried delta can make ``greedy_chordal`` cycle: fail
        once one search's carry has applied n * n moves, rather than hang."""
        carry_apply = search._ChordalCarry.apply
        last, count = None, 0

        def capped(carry, move):
            nonlocal last, count
            count = count + 1 if carry is last else 1
            last = carry
            assert count < len(carry.masks) ** 2, "greedy_chordal did not terminate"
            carry_apply(carry, move)

        monkeypatch.setattr(search._ChordalCarry, "apply", capped)

    def test_oracle_guided_search_reaches_inclusion_optimum(self):
        # greedy under the constructed score must terminate
        # inclusion-optimal for every UG target on 4 vertices
        pairs = list(itertools.combinations(range(4), 2))
        for tmask in range(64):
            t = UndirectedGraph(4, [pairs[i] for i in range(6) if tmask >> i & 1])
            oracle = OracleScore(t)
            target = DependencyModel.from_undirected(t)
            final, trace = greedy_chordal(oracle, ChordalGraph.empty(4))
            assert trace.terminal
            assert inclusion_optimal(final, target), t.fingerprint()

    def test_search_ends_at_local_optimum(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.integers(0, 2, size=(150, 5)))
        scorer = BDeuScorer(data)
        final, trace = greedy_chordal(scorer, ChordalGraph.empty(5))
        current = scorer.score(final)
        for move in inclusion_boundary(final):
            assert scorer.move_score(final, current, move) <= current

    def test_trace_replay_and_totals(self):
        rng = rng_from(17)
        flip = np.array([[0.85, 0.15], [0.15, 0.85]])
        net = DiscreteBayesNet(
            Dag(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            (2, 2, 2, 2, 2),
            [np.array([[0.5, 0.5]]), flip, flip, flip, flip],
        )
        data = ancestral_sample(net, 5000, rng)
        scorer = BDeuScorer(data)
        start = ChordalGraph.empty(5)
        final, trace = greedy_chordal(scorer, start)
        assert trace.start_fingerprint == start.fingerprint()
        # replay: applying the moves in order reproduces the terminal graph
        g = start
        total = trace.start_score
        for step in trace.steps:
            g = apply_move(g, step.move)
            total += step.delta
            assert abs(total - step.total) <= 1e-6
            assert g.fingerprint() == step.fingerprint
        assert g.fingerprint() == final.fingerprint()
        assert abs(scorer.score(final) - trace.steps[-1].total) <= 1e-6

    def test_trace_jsonl_parses(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.integers(0, 2, size=(80, 4)))
        _, trace = greedy_chordal(BDeuScorer(data), ChordalGraph.empty(4))
        lines = trace.to_jsonl().strip().splitlines()
        assert len(lines) == len(trace.steps)
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["step"] == i + 1
            assert set(rec) == {"step", "move", "delta", "total"}

    @pytest.mark.parametrize("n, rows", [(8, 60), (16, 500), (24, 5000), (32, 300), (48, 2000)])
    def test_batched_search_equals_per_move_search(self, n, rows):
        # one family_scores call per step in place of two local_score
        # calls per memo miss: the same trace, final graph and cache
        # entries, every float equal
        rng = rng_from(97, n)
        arities = tuple(int(r) for r in rng.integers(2, 4, size=n))
        _, net = random_chordal_target(n, rng, arities=arities, max_parents=3)
        assert_same_search(ancestral_sample(net, rows, rng))

    def test_exact_ties_break_as_per_move_search(self):
        # duplicated columns make equal deltas, bit for bit: the smallest
        # move among equal scores must still win
        rng = rng_from(101)
        _, net = random_chordal_target(6, rng, max_parents=2)
        base = ancestral_sample(net, 800, rng)
        data = Dataset(np.column_stack([base.rows, base.rows[:, ::-1], base.rows[:, :3]]))
        trace = assert_same_search(data)
        scorer = BDeuScorer(data)
        g, total, ties = ChordalGraph.empty(data.n_vars), trace.start_score, 0
        for step in trace.steps:
            _, scores = listed_scores(scorer, g, total)
            ties += scores.count(max(scores)) > 1
            g, total = apply_move(g, step.move), step.total
        assert ties >= 3

    @pytest.mark.parametrize("kind", ["chordal", "dag"])
    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("n, rows", [(12, 300), (48, 3000)])
    def test_carried_search_equals_per_move_search(self, kind, arity, n, rows):
        rng = rng_from(131, n, arity)
        if kind == "chordal":
            _, net = random_chordal_target(n, rng, arities=(arity,) * n, max_parents=3)
        else:
            net = random_parameters(random_dag(n, 3, rng), (arity,) * n, rng)
        assert_same_search(ancestral_sample(net, rows, rng))

    def test_oracle_search_equals_listing_search_every_target_n5(self):
        # integer-pair scores through the same carry and first-max pick
        for n in range(1, 6):
            for t in all_graphs(n):
                oracle = OracleScore(t)
                final, trace = greedy_chordal(oracle, ChordalGraph.empty(n))
                want_final, want = listing_greedy_chordal(oracle, ChordalGraph.empty(n))
                assert final == want_final, t
                assert final.ordering == want_final.ordering, t
                assert trace == want, t
                assert all(type(x) is int for s in trace.steps for x in s.delta + s.total)

    @pytest.mark.parametrize("n, rows", [(12, 300), (40, 2000)])
    def test_ordering_certifies_the_final_graph(self, n, rows):
        # the ordering is built once, on the final graph: the one a search
        # that rebuilds it on every step ends with
        rng = rng_from(137, n)
        net = random_parameters(random_dag(n, 3, rng), (2,) * n, rng)
        data = ancestral_sample(net, rows, rng)
        final, trace = greedy_chordal(BDeuScorer(data), ChordalGraph.empty(n))
        want_final, want = listing_greedy_chordal(BDeuScorer(data), ChordalGraph.empty(n))
        assert len(trace.steps) >= n // 2 and trace == want
        assert final.ordering == ChordalGraph.from_graph(final.graph).ordering
        assert final.ordering == want_final.ordering

    def test_start_returned_when_no_move_improves(self):
        class FlatScorer(KeyScorer):
            def line_deltas(self, keys):
                return [0.0] * len(keys)

        start = ChordalGraph.from_lines(4, [(0, 1), (1, 2), (2, 3)])
        final, trace = greedy_chordal(FlatScorer(), start)
        assert final is start
        assert trace.terminal and trace.steps == []

    def test_carry_that_breaks_chordality_raises(self, monkeypatch):
        # a carry that picks the addition 0-3 on the path 0-1-2-3 closes a
        # chordless 4-cycle: the certificate built at the end refuses it
        picks = [search._move("add", 0, 3), None]
        monkeypatch.setattr(search._ChordalCarry, "best", lambda carry, total: (picks.pop(0), total))
        start = ChordalGraph.from_lines(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotChordalError) as err:
            greedy_chordal(KeyScorer(), start)
        assert sorted(err.value.cycle) == [0, 1, 2, 3]

    def test_strong_chain_recovered(self):
        # strongly coupled chain data: greedy BDeu recovers the chain
        rng = rng_from(19)
        flip = np.array([[0.9, 0.1], [0.1, 0.9]])
        net = DiscreteBayesNet(
            Dag(4, [(0, 1), (1, 2), (2, 3)]),
            (2, 2, 2, 2),
            [np.array([[0.5, 0.5]]), flip, flip, flip],
        )
        data = ancestral_sample(net, 20000, rng)
        final, _ = greedy_chordal(BDeuScorer(data), ChordalGraph.empty(4))
        assert final.lines == ((0, 1), (1, 2), (2, 3))


class KeyScorer:
    """A stand-in scorer whose add-sense delta spells out its (a, b, S)
    key, a, b < 8 and S < 2^6, as one positive float: equal delta tables
    mean equal legality, keys and signs."""

    def score(self, g):
        return 0.0

    def line_deltas(self, keys):
        return [float(1 + a + 8 * b + 64 * s) for a, b, s in keys]


def carried_state(carry) -> tuple:
    return tuple(carry.masks), carry.s, carry.legal, carry.groups, carry.deltas.tolist()


def restore(carry, state) -> None:
    masks, s, legal, groups, deltas = state
    carry.masks, carry.s, carry.legal = list(masks), s[:], legal[:]
    carry.groups = {key: set(group) for key, group in groups.items()}
    carry.deltas = np.array(deltas)


def carried_moves(carry) -> list:
    half = len(carry.ends)
    legal = np.flatnonzero(np.isfinite(carry.deltas))
    return [Move("remove" if i >= half else "add", *carry.ends[i % half]) for i in legal]


class TestChordalCarry:
    def test_every_move_carries_to_the_fresh_state_exhaustively_n6(self):
        # breadth first from the empty graph over every legal move reaches
        # every chordal graph; after each move the carried state equals the
        # one built afresh on the result, whose moves are the boundary's
        counts = []
        for n in range(1, 7):
            scorer = KeyScorer()
            work = search._ChordalCarry(scorer, (0,) * n, 0.0)
            fresh = {}

            def state_of(masks):
                if masks not in fresh:
                    carry = search._ChordalCarry(scorer, masks, 0.0)
                    g = ChordalGraph.from_lines(n, [e for e in carry.ends if masks[e[0]] >> e[1] & 1])
                    moves = carried_moves(carry)
                    assert moves == inclusion_boundary(g), g
                    fresh[masks] = carried_state(carry), moves
                    queue.append(masks)
                return fresh[masks][0]

            queue = []
            state_of((0,) * n)
            for masks in queue:
                base, moves = fresh[masks]
                for move in moves:
                    restore(work, base)
                    edited = list(masks)
                    edited[move.a] ^= 1 << move.b
                    edited[move.b] ^= 1 << move.a
                    edited = tuple(edited)
                    work.apply(move)
                    assert carried_state(work) == state_of(edited), (masks, move)
            counts.append((len(fresh), sum(len(moves) for _, moves in fresh.values())))
        # chordal graphs and legal moves per vertex count
        assert counts == [(1, 0), (2, 2), (8, 24), (61, 348), (822, 7220), (18154, 218640)]

    def test_carried_deltas_equal_line_delta_n5(self):
        # every chordal graph on five vertices, after every legal move out
        # of it, on three-state data: each legal entry is the line delta of
        # its move on the edited graph, with the sign of its kind
        rng = np.random.default_rng(23)
        data = Dataset(rng.integers(0, 3, size=(200, 5)))
        scorer, oracle_cache = BDeuScorer(data), ScoreCache(data)
        checked = 0
        for graph in all_graphs(5):
            if not is_chordal(graph):
                continue
            g = ChordalGraph.from_graph(graph)
            for move in inclusion_boundary(g):
                carry = search._ChordalCarry(scorer, graph.neighbor_masks, 0.0)
                h = apply_move(g, move)
                carry.apply(move)
                assert carry.masks == list(h.graph.neighbor_masks)
                moves = carried_moves(carry)
                assert moves == inclusion_boundary(h)
                got = carry.deltas[np.isfinite(carry.deltas)].tolist()
                assert got == [line_delta(oracle_cache, h, m) for m in moves]
                checked += len(moves)
        assert checked > 10_000


def assert_same_search(data: Dataset) -> SearchTrace:
    """greedy_chordal against ``per_move_greedy_chordal``; returns the
    trace."""
    cache = ScoreCache(data)
    final, trace = greedy_chordal(BDeuScorer(data, cache=cache), ChordalGraph.empty(data.n_vars))
    want_final, want_start, want_steps, want_cache = per_move_greedy_chordal(data)
    assert trace.terminal and trace.start_score == want_start
    assert [(s.move, s.delta, s.total, s.fingerprint) for s in trace.steps] == want_steps
    assert final.fingerprint() == want_final.fingerprint()
    assert cache._table == want_cache._table
    return trace


class TestDagMoves:
    def test_move_set_definition(self):
        d = Dag(3, [(0, 1)])
        moves = dag_moves(d)
        # additions of absent arcs that stay acyclic, removals, reversals
        assert Move("remove", 0, 1) in [
            m for m in moves if m.kind == "remove"
        ]
        kinds = {m.kind for m in moves}
        assert kinds <= {"add", "remove", "reverse"}
        for move in moves:
            apply_dag_move(d, move)  # must not raise

    def test_moves_exhaustive_on_small_dag(self):
        # every labeled DAG with n <= 4: a move is listed iff applying it
        # yields a DAG, and the list is in Move.sort_key order
        count = 0
        for n in range(1, 5):
            for d in all_dags(n):
                count += 1
                moves = dag_moves(d)
                assert moves == sorted(moves, key=Move.sort_key), d
                assert len(set(moves)) == len(moves), d
                assert moves == slow_dag_moves(d), d
        assert count == 1 + 3 + 25 + 543

    def test_matches_reachability_oracle(self):
        # the rules the parent used, via Dag.reachable_from, on larger DAGs
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            d = random_dag(n, min(4, n - 1), rng)
            want = []
            for u in range(d.n):
                for v in range(d.n):
                    if u != v and not d.has_arc(u, v) and not d.has_arc(v, u):
                        if u not in d.reachable_from(v):
                            want.append(Move("add", u, v))
            want += [Move("remove", u, v) for u, v in d.arcs]
            for u, v in d.arcs:
                if v not in d.without_arc(u, v).reachable_from(u):
                    want.append(Move("reverse", u, v))
            assert dag_moves(d) == want, d


def all_dags(n):
    """Every labeled DAG on n vertices: each pair unlinked or oriented
    either way, keeping the acyclic ones."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = [
            (a, b) if s == 1 else (b, a)
            for (a, b), s in zip(pairs, states)
            if s
        ]
        try:
            yield Dag(n, arcs)
        except CycleError:
            pass


def slow_dag_moves(d):
    """Candidate edits in sort order, kept iff the edited digraph is
    acyclic (decided by Dag's own topological sort)."""
    candidates = [
        Move("add", u, v)
        for u in range(d.n)
        for v in range(d.n)
        if u != v and not d.has_arc(u, v)
    ]
    candidates += [Move(kind, u, v) for kind in ("remove", "reverse") for u, v in d.arcs]
    legal = []
    for move in candidates:
        try:
            apply_dag_move(d, move)
        except CycleError:
            continue
        legal.append(move)
    return legal


def _dag_move_delta(d: Dag, move: Move, cache: ScoreCache) -> float:
    """Reference delta: every local term looked up afresh."""
    u, v = move.a, move.b
    if move.kind == "add":
        return cache.local_score(v, d.parents[v] | {u}) - cache.local_score(
            v, d.parents[v]
        )
    if move.kind == "remove":
        return cache.local_score(v, d.parents[v] - {u}) - cache.local_score(
            v, d.parents[v]
        )
    # reversal u->v becomes v->u: two local terms change
    return (
        cache.local_score(v, d.parents[v] - {u})
        - cache.local_score(v, d.parents[v])
        + cache.local_score(u, d.parents[u] | {v})
        - cache.local_score(u, d.parents[u])
    )


def reference_greedy_dag(cache: ScoreCache, start: Dag) -> tuple[Dag, SearchTrace]:
    """Steepest ascent that rescores every move from scratch."""
    d = start
    total = score_dag(d, cache.data, cache.ess, cache)
    trace = SearchTrace(start_fingerprint=d.to_text(), start_score=total)
    while True:
        best = None
        best_delta = 0.0
        for move in slow_dag_moves(d):
            delta = _dag_move_delta(d, move, cache)
            if delta > best_delta:
                best, best_delta = move, delta
        if best is None:
            trace.terminal = True
            return d, trace
        d = apply_dag_move(d, best)
        total += best_delta
        trace.steps.append(
            TraceStep(len(trace.steps) + 1, best, best_delta, total, d.to_text())
        )


def lazy_greedy_dag(cache: ScoreCache, start: Dag) -> tuple[Dag, SearchTrace]:
    """The per-child reuse search with every toggled term fetched on first
    use, one ``ScoreCache.local_score`` call each."""
    d = start
    total = score_dag(d, cache.data, cache.ess, cache)
    trace = SearchTrace(start_fingerprint=d.to_text(), start_score=total)
    base: list = [None] * d.n
    toggled: list = [{} for _ in range(d.n)]

    def term(v):
        if base[v] is None:
            base[v] = cache.local_score(v, d.parents[v])
        return base[v]

    def toggle(v, u):
        terms = toggled[v]
        if u not in terms:
            terms[u] = cache.local_score(v, d.parents[v] ^ {u})
        return terms[u]

    step = 0
    while True:
        best = None
        best_delta = 0.0
        for move in dag_moves(d):
            u, v = move.a, move.b
            if move.kind == "reverse":
                delta = toggle(v, u) - term(v) + toggle(u, v) - term(u)
            else:
                delta = toggle(v, u) - term(v)
            if delta > best_delta:
                best = move
                best_delta = delta
        if best is None:
            trace.terminal = True
            return d, trace
        step += 1
        d = apply_dag_move(d, best)
        for w in (best.b, best.a) if best.kind == "reverse" else (best.b,):
            base[w] = None
            toggled[w] = {}
        total += best_delta
        trace.steps.append(TraceStep(step, best, best_delta, total, d.to_text()))


def seeded_dag_runs():
    """The 24 seeded nets, data and starts of the trace-equality tests."""
    for seed in range(24):
        rng = rng_from(41, seed)
        n = 4 + seed % 5
        arity = 2 + seed % 2
        net = random_parameters(random_dag(n, 3, rng), (arity,) * n, rng)
        data = ancestral_sample(net, 400, rng)
        # from every third run, start at the generating DAG reversed so
        # that reversals pay off
        start = Dag(n, [(v, u) for u, v in net.dag.arcs]) if seed % 3 == 0 else Dag(n)
        yield data, start


class TestGreedyDag:
    def test_recovers_collider(self):
        # z is a noisy AND of x and y: both parents matter and each is
        # pairwise visible, so greedy finds the two-parent family and the
        # result scores at least as well as the generating collider
        rng = rng_from(23)
        x = rng.integers(0, 2, size=30000)
        y = rng.integers(0, 2, size=30000)
        z = np.where(
            (x & y).astype(bool), rng.random(30000) < 0.9, rng.random(30000) < 0.1
        ).astype(int)
        data = Dataset(np.column_stack([x, y, z]))
        cache = ScoreCache(data)
        final, trace = greedy_dag(cache)
        assert trace.terminal
        assert final.parents[2] == frozenset({0, 1})
        assert score_dag(final, data, cache=cache) >= score_dag(
            Dag(3, [(0, 2), (1, 2)]), data, cache=cache
        ) - 1e-9

    def test_terminal_is_local_optimum(self):
        rng = np.random.default_rng(29)
        data = Dataset(rng.integers(0, 2, size=(200, 4)))
        cache = ScoreCache(data)
        final, _ = greedy_dag(cache)
        base = score_dag(final, data, cache=cache)
        for move in dag_moves(final):
            edited = apply_dag_move(final, move)
            assert score_dag(edited, data, cache=cache) <= base + 1e-9

    def test_trace_totals_consistent(self):
        rng = np.random.default_rng(31)
        data = Dataset(rng.integers(0, 3, size=(300, 4)))
        cache = ScoreCache(data)
        final, trace = greedy_dag(cache)
        total = trace.start_score
        for step in trace.steps:
            total += step.delta
            assert abs(total - step.total) <= 1e-6
        assert abs(score_dag(final, data, cache=cache) - total) <= 1e-6

    def test_trace_equals_reference_search(self, monkeypatch):
        # the per-child score reuse must reproduce the from-scratch search
        # exactly: same moves, and deltas and totals equal as floats
        applied = []

        def capped_apply(d, move):
            # a stale local term can make the climb cycle; fail, not hang
            applied.append(move)
            assert len(applied) < 200, "greedy_dag did not terminate"
            return apply_dag_move(d, move)

        monkeypatch.setattr(search, "apply_dag_move", capped_apply)
        kinds = set()
        for seed in range(24):
            rng = rng_from(41, seed)
            n = 4 + seed % 5
            arity = 2 + seed % 2
            net = random_parameters(random_dag(n, 3, rng), (arity,) * n, rng)
            data = ancestral_sample(net, 400, rng)
            # from every third run, start at the generating DAG reversed so
            # that reversals pay off
            start = (
                Dag(n, [(v, u) for u, v in net.dag.arcs]) if seed % 3 == 0 else Dag(n)
            )
            applied.clear()
            got_dag, got = greedy_dag(ScoreCache(data), start)
            want_dag, want = reference_greedy_dag(ScoreCache(data), start)
            assert got_dag == want_dag
            assert got.steps == want.steps
            assert got.start_score == want.start_score
            assert got.terminal and want.terminal
            assert got.to_jsonl() == want.to_jsonl()
            kinds.update(step.move.kind for step in got.steps)
        assert kinds == {"add", "remove", "reverse"}

    def test_batched_terms_equal_lazy_search(self):
        # fetching each step's missing terms in per-child batches must not
        # change the trace, nor which local scores are computed, nor their
        # floats
        for data, start in seeded_dag_runs():
            got_cache, want_cache = ScoreCache(data), ScoreCache(data)
            got_dag, got = greedy_dag(got_cache, start)
            want_dag, want = lazy_greedy_dag(want_cache, start)
            assert got_dag == want_dag
            assert got.steps == want.steps
            assert got.start_score == want.start_score
            assert got_cache._table == want_cache._table


def first_best_move(d: Dag, cache: ScoreCache):
    """The relisting search's choice: the first listed move of largest
    delta > 0."""
    best, best_delta = None, 0.0
    for move in dag_moves(d):
        delta = _dag_move_delta(d, move, cache)
        if delta > best_delta:
            best, best_delta = move, delta
    return best, best_delta


def assert_carried_table(carry, d: Dag, cache: ScoreCache) -> None:
    """The finite entries of the carried table are exactly the legal moves
    of ``d``, in move order, each with the delta of fresh lookups as a
    float."""
    table = carry.deltas()
    legal = np.argwhere(np.isfinite(table)).tolist()
    kinds = ("add", "remove", "reverse")
    carried = {Move(kinds[k], u, v): table[k, u, v] for k, u, v in legal}
    assert list(carried) == dag_moves(d) == slow_dag_moves(d), d
    for m, dl in carried.items():
        assert dl == _dag_move_delta(d, m, cache), (d, m)


def wide_dag_run(rng):
    """Data on 70 variables whose last seven follow a seeded net, and a
    start DAG with the net's arcs reversed among vertices 63..69, so the
    legality and delta tables need bit rows past 64."""
    net = random_parameters(random_dag(7, 3, rng), (2,) * 7, rng)
    tail = ancestral_sample(net, 200, rng).rows
    rows = np.column_stack([rng.integers(0, 2, size=(200, 63)), tail])
    start = Dag(70, [(63 + v, 63 + u) for u, v in net.dag.arcs])
    return Dataset(rows), start


class TestDagCarry:
    def test_carried_table_equals_relisted_moves(self):
        # at every step of every seeded run, the carried table holds
        # exactly the legal moves, each with the delta of a fresh lookup
        # as a float, and its first maximum is the relisting search's
        # choice
        kinds = set()
        for data, start in seeded_dag_runs():
            cache = ScoreCache(data)
            carry = search._DagCarry(cache, start)
            d = start
            while True:
                assert_carried_table(carry, d, cache)
                move, delta = carry.best()
                assert (move, delta) == first_best_move(d, cache), d
                if move is None:
                    break
                kinds.add(move.kind)
                d = carry.apply(move)
                assert carry.d == d
        assert kinds == {"add", "remove", "reverse"}

    def test_carried_table_past_64_vertices(self):
        # arcs among vertices 63..69 put legality and terms in bit rows
        # past int64; the first steps still match fresh lookups
        data, start = wide_dag_run(rng_from(53))
        assert start.arcs and min(u for arc in start.arcs for u in arc) >= 63
        cache = ScoreCache(data)
        carry = search._DagCarry(cache, start)
        d = start
        moved = set()
        for _ in range(3):
            assert_carried_table(carry, d, cache)
            move, delta = carry.best()
            assert (move, delta) == first_best_move(d, cache), d
            assert move is not None
            moved.update((move.a, move.b))
            d = carry.apply(move)
        assert max(moved) >= 64

    def test_reversal_delta_sums_left_to_right(self):
        # found by search over seeds rng_from(74, s): at the start of this
        # run two legal reversals' deltas differ in the last bit between
        # the left-to-right sum and arrow + (toggled - base[u]); the carry
        # must give the left-to-right one, as a full rescoring does
        rng = rng_from(74, 389)
        net = random_parameters(random_dag(5, 3, rng), (3,) * 5, rng)
        data = ancestral_sample(net, 400, rng)
        start = Dag(5, [(v, u) for u, v in net.dag.arcs])
        cache = ScoreCache(data)
        table = search._DagCarry(cache, start).deltas()
        reassociated = 0
        for u, v in np.argwhere(np.isfinite(table[2])).tolist():
            arrow = _dag_move_delta(start, Move("remove", u, v), cache)
            toggled = cache.local_score(u, start.parents[u] | {v})
            base = cache.local_score(u, start.parents[u])
            assert table[2, u, v] == arrow + toggled - base == _dag_move_delta(
                start, Move("reverse", u, v), cache
            )
            reassociated += arrow + (toggled - base) != arrow + toggled - base
        assert reassociated == 2

    def test_trace_equals_lazy_search_from_every_dag_n4(self, monkeypatch):
        # every labeled DAG on 4 vertices as the start, on two datasets
        applied = []

        def capped_apply(d, move):
            # a stale carried term can make the climb cycle; fail, not hang
            applied.append(move)
            assert len(applied) < 100, "greedy_dag did not terminate"
            return apply_dag_move(d, move)

        monkeypatch.setattr(search, "apply_dag_move", capped_apply)
        starts = list(all_dags(4))
        for seed in range(2):
            rng = rng_from(47, seed)
            net = random_parameters(random_dag(4, 3, rng), (2 + seed,) * 4, rng)
            data = ancestral_sample(net, 400, rng)
            got_cache, want_cache = ScoreCache(data), ScoreCache(data)
            for start in starts:
                applied.clear()
                got_dag, got = greedy_dag(got_cache, start)
                want_dag, want = lazy_greedy_dag(want_cache, start)
                assert got_dag == want_dag, start
                assert got.steps == want.steps, start
                assert got.start_score == want.start_score
                assert got.terminal and want.terminal
            assert got_cache._table == want_cache._table


DEGENERATE_DATA = {
    "no variables": lambda: Dataset(np.zeros((5, 0), dtype=np.int64)),
    "one variable": lambda: Dataset(rng_from(59).integers(0, 3, size=(50, 1))),
    "no rows": lambda: Dataset(np.zeros((0, 3), dtype=np.int64), arities=[2, 2, 3]),
}


class TestDegenerateData:
    # with nothing to learn, each learner stops at once at the empty
    # structure, and the move tables it reads are empty or all illegal

    @pytest.mark.parametrize("make", DEGENERATE_DATA.values(), ids=DEGENERATE_DATA)
    def test_chordal_learner_returns_empty_graph(self, make):
        data = make()
        empty = UndirectedGraph(data.n_vars)
        graph, trace = greedy_chordal(BDeuScorer(data), ChordalGraph.from_graph(empty))
        assert graph.graph == empty
        assert trace.terminal and trace.steps == [] and trace.to_jsonl() == ""

    @pytest.mark.parametrize("make", DEGENERATE_DATA.values(), ids=DEGENERATE_DATA)
    def test_dag_learner_returns_empty_dag(self, make):
        data = make()
        d, trace = greedy_dag(ScoreCache(data))
        assert d == Dag(data.n_vars)
        assert trace.terminal and trace.steps == [] and trace.to_jsonl() == ""
