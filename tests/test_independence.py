"""Dependency models, statement enumeration, model comparison, axioms."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordalearn.graphs import ChordalGraph, Dag, UndirectedGraph, is_chordal
from chordalearn.independence import (
    AXIOM_NAMES,
    AxiomResult,
    DependencyModel,
    GraphoidReport,
    IndependenceStatement,
    canonical_triples,
    chain_disjunction_holds,
    graphoid_report,
    inclusion_optimal,
    model_included,
    role_masks,
)
from chordalearn.verification import all_dags, enumerate_chordal

from conftest import (
    all_graphs,
    enumerate_independencies,
    holds,
    naive_d_separated,
    path_separated,
    random_dag,
    random_graph,
    ref_chain_disjunction_holds,
    ref_enumerate_independencies,
    ref_inclusion_optimal,
    ref_model_included,
    statement_string,
)


class TestStatement:
    def test_canonical_form(self):
        s = IndependenceStatement((3, 1), (0, 2), (5, 4))
        assert s.a == (0, 2)
        assert s.b == (1, 3)
        assert s.c == (4, 5)

    def test_sides_sorted_not_swapped_when_already_canonical(self):
        s = IndependenceStatement((0,), (1,), ())
        assert (s.a, s.b) == ((0,), (1,))

    def test_string_roundtrip(self):
        s = IndependenceStatement((2,), (1, 0), (3,))
        assert statement_string(s) == "0,1|2|3"
        assert statement_string(IndependenceStatement((1,), (0,))) == "0|1|"

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            IndependenceStatement((), (1,), ())

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IndependenceStatement((0,), (0,), ())
        with pytest.raises(ValueError):
            IndependenceStatement((0,), (1,), (1,))


class TestDependencyModel:
    def test_numpy_vertex_ids_answer_like_python_ints(self):
        m = DependencyModel.from_undirected(UndirectedGraph(70, [(0, 65)]))
        assert not m.independent([np.int64(65)], [0])
        assert m.independent([np.int64(65)], [np.int64(1)])

    def test_ug_matches_path_separation(self):
        rng = np.random.default_rng(3)
        for g in all_graphs(4):
            m = DependencyModel.from_undirected(g)
            for a, b in itertools.combinations(range(4), 2):
                rest = [v for v in range(4) if v not in (a, b)]
                for k in range(len(rest) + 1):
                    for c in itertools.combinations(rest, k):
                        assert m.independent([a], [b], c) == path_separated(
                            g, [a], [b], c
                        )

    def test_dag_matches_naive_d_separation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = random_dag(5, rng)
            m = DependencyModel.from_dag(d)
            for a, b in itertools.combinations(range(5), 2):
                for c in itertools.combinations(
                    [v for v in range(5) if v not in (a, b)], 2
                ):
                    assert m.independent([a], [b], c) == naive_d_separated(
                        d, {a}, {b}, set(c)
                    )

    def test_latent_margin_restricts_statements(self):
        # 0 -> 1 <- 2 with 2 latent: observed model on {0, 1}
        d = Dag(3, [(0, 1), (2, 1)])
        m = DependencyModel.from_latent_dag(d, [2])
        assert m.observed == (0, 1)
        assert not m.independent([0], [1])
        with pytest.raises(ValueError):
            m.independent([0], [2])  # latent vertex not addressable

    def test_latent_collider_margin(self):
        # x -> h <- y, h latent: x and y marginally independent
        d = Dag(3, [(0, 2), (1, 2)])
        m = DependencyModel.from_latent_dag(d, [2])
        assert m.independent([0], [1])

    def test_holds_uses_canonical_statement(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        m = DependencyModel.from_undirected(g)
        assert holds(m, IndependenceStatement((2,), (0,), (1,)))

    def test_memoization_stable(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        m = DependencyModel.from_undirected(g)
        q = ([0], [3], [1])
        assert m.independent(*q) == m.independent(*q)

    def test_unknown_kind_and_wrong_graph_rejected(self):
        d = Dag(3, [(0, 1)])
        g = UndirectedGraph(3, [(0, 1)])
        for kind in ("foo", "UG", "latent"):
            with pytest.raises(ValueError, match="unknown model kind"):
                DependencyModel(kind, d, range(3))
        wrong = (("ug", d), ("dag", g), ("latent-dag", g), ("ug", ChordalGraph.empty(3)))
        for kind, graph in wrong:
            with pytest.raises(TypeError, match="needs a"):
                DependencyModel(kind, graph, range(3))


class TestEnumeration:
    def test_empty_graph_statement_count(self):
        # n=3 empty graph: every canonical statement holds; there are
        # (4^3 - 2*3^3 + 2^3) / 2 = 9 of them
        m = DependencyModel.from_undirected(UndirectedGraph(3))
        stmts = enumerate_independencies(m)
        assert len(stmts) == 9
        assert all(holds(m, s) for s in stmts)

    def test_complete_graph_no_statements(self):
        m = DependencyModel.from_undirected(UndirectedGraph.complete(4))
        assert enumerate_independencies(m) == set()

    def test_statements_are_exactly_the_true_ones(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        m = DependencyModel.from_undirected(g)
        stmts = enumerate_independencies(m)
        for a_size in (1, 2):
            for a in itertools.combinations(range(4), a_size):
                rest = [v for v in range(4) if v not in a]
                for b_size in range(1, len(rest) + 1):
                    for b in itertools.combinations(rest, b_size):
                        left = [v for v in rest if v not in b]
                        for k in range(len(left) + 1):
                            for c in itertools.combinations(left, k):
                                s = IndependenceStatement(a, b, c)
                                assert (s in stmts) == m.independent(a, b, c)

    def test_bound_enforced(self):
        m = DependencyModel.from_undirected(UndirectedGraph(9))
        with pytest.raises(ValueError):
            enumerate_independencies(m)

    def test_bound_enforced_for_latent_model_included(self):
        # 9 observed vertices, one latent parent of all of them
        d = Dag(10, [(9, v) for v in range(9)])
        target = DependencyModel.from_latent_dag(d, [9])
        g = ChordalGraph.empty(9)
        cached = canonical_triples.cache_info().currsize
        with pytest.raises(ValueError, match="enumeration bound"):
            model_included(g, target)
        assert canonical_triples.cache_info().currsize == cached


class TestModelIncluded:
    def test_pairwise_reduction_matches_exhaustive_ug(self):
        # chordal g included in UG target iff statement sets nest
        targets = [
            UndirectedGraph(4),
            UndirectedGraph(4, [(0, 1), (2, 3)]),
            UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            UndirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
            UndirectedGraph.complete(4),
        ]
        chordals = [g for g in all_graphs(4) if is_chordal(g)]
        assert len(chordals) == 61
        for t in targets:
            target = DependencyModel.from_undirected(t)
            t_stmts = enumerate_independencies(target)
            for g in chordals:
                own = enumerate_independencies(DependencyModel.from_undirected(g))
                expected = own <= t_stmts
                got, witness = model_included(ChordalGraph.from_graph(g), target)
                assert got == expected
                if not got:
                    assert witness is not None
                    assert witness in own and witness not in t_stmts

    def test_ug_inclusion_is_line_containment(self):
        # for UG targets, inclusion holds iff target lines cover g's model:
        # lines(target) subset of lines(g)
        chordals = [g for g in all_graphs(4) if is_chordal(g)]
        for t in all_graphs(4):
            target = DependencyModel.from_undirected(t)
            for g in chordals:
                got, _ = model_included(ChordalGraph.from_graph(g), target)
                assert got == (set(t.lines) <= set(g.lines))

    def test_dag_target(self):
        d = Dag(3, [(0, 2), (1, 2)])
        target = DependencyModel.from_dag(d)
        complete = ChordalGraph.from_lines(3, [(0, 1), (0, 2), (1, 2)])
        assert model_included(complete, target) == (True, None)
        # the collider's marginal 0-1 independence is not a separation of
        # any graph containing line 0-2 and 1-2 but asserting 0 sep 1 | 2
        path = ChordalGraph.from_lines(3, [(0, 2), (1, 2)])
        ok, witness = model_included(path, target)
        assert not ok
        assert witness == IndependenceStatement((0,), (1,), (2,))

    def test_vertex_count_mismatch_rejected(self):
        target = DependencyModel.from_undirected(UndirectedGraph(3))
        with pytest.raises(ValueError):
            model_included(ChordalGraph.empty(4), target)


class TestInclusionOptimal:
    def brute_force(self, g: UndirectedGraph, target: DependencyModel) -> bool:
        """Definitional check over every chordal graph on the vertex set."""
        own = enumerate_independencies(DependencyModel.from_undirected(g))
        t_stmts = enumerate_independencies(target)
        if not own <= t_stmts:
            return False
        for h in all_graphs(g.n):
            if not is_chordal(h):
                continue
            h_stmts = enumerate_independencies(DependencyModel.from_undirected(h))
            if own < h_stmts <= t_stmts:
                return False
        return True

    def test_matches_definition_on_ug_targets(self):
        targets = [
            UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)]),
            UndirectedGraph(4),
        ]
        chordals = [g for g in all_graphs(4) if is_chordal(g)]
        for t in targets:
            target = DependencyModel.from_undirected(t)
            for g in chordals:
                assert inclusion_optimal(
                    ChordalGraph.from_graph(g), target
                ) == self.brute_force(g, target)

    def test_four_cycle_has_two_optimal_triangulations(self):
        target = DependencyModel.from_undirected(
            UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        )
        optima = [
            g.fingerprint()
            for g in all_graphs(4)
            if is_chordal(g)
            and inclusion_optimal(ChordalGraph.from_graph(g), target)
        ]
        # exactly the two single-chord triangulations
        assert optima == [
            "n=4;0-1,0-2,0-3,1-2,2-3",
            "n=4;0-1,0-3,1-2,1-3,2-3",
        ]


chordal_graphs = functools.cache(enumerate_chordal)


def set_inclusion():
    """``model_included``'s verdict as containment of the two models'
    statement sets (``enumerate_independencies``), with no witness; each
    graph's and each target's set is listed once."""
    sets = {}

    def statements(key, model):
        if key not in sets:
            sets[key] = enumerate_independencies(model)
        return sets[key]

    def included(g, target):
        own = statements(g.fingerprint(), DependencyModel.from_undirected(g.graph))
        return own <= statements(id(target), target), None

    return included


class TestInclusionOptimalMatchesPerSubgraph:
    """``inclusion_optimal``, which decides g and every single-line
    subgraph from one answer table, against ``ref_inclusion_optimal``,
    which rebuilds and compares each subgraph afresh."""

    def check(self, pairs, included=ref_model_included):
        optimal, decided_by_subgraph = 0, False
        for g, target in pairs:
            got = inclusion_optimal(g, target)
            assert got == ref_inclusion_optimal(g, target, included), (
                g.fingerprint(),
                target.kind,
                target.graph.to_text(),
            )
            optimal += got
            if not (got or decided_by_subgraph):
                decided_by_subgraph = included(g, target)[0]
        # both verdicts occur, and some included graph loses to a subgraph
        assert optimal and decided_by_subgraph

    def test_every_pair_up_to_four_vertices(self):
        chordals = {n: chordal_graphs(n) for n in range(1, 5)}
        ugs = [DependencyModel.from_undirected(t) for n in range(1, 5) for t in all_graphs(n)]
        self.check([(g, t) for t in ugs for g in chordals[t.n_observed]])
        dags = [Dag(4, arcs) for arcs in all_dags(4)]
        assert len(dags) == 543
        self.check([(g, DependencyModel.from_dag(d)) for d in dags for g in chordals[4]])
        # the one-latent margins: vertex 3 hidden, graphs on 0..2
        margins = [DependencyModel.from_latent_dag(d, [3]) for d in dags]
        self.check([(g, m) for m in margins for g in chordals[3]])

    def test_every_chordal_graph_on_five_and_six_vertices(self):
        rng = np.random.default_rng(37)
        for n, count in ((5, 3), (6, 1)):
            targets = [DependencyModel.from_undirected(random_graph(n, rng)) for _ in range(count)]
            targets += [DependencyModel.from_dag(random_dag(n, rng)) for _ in range(count)]
            graphs = chordal_graphs(n)
            self.check([(g, t) for t in targets for g in graphs])

    def test_latent_margins_on_five_and_six_observed(self):
        # every chordal graph on five observed vertices; on six, the
        # chordal graphs missing at most two lines, where the included
        # graphs of a dense margin lie (each six-vertex comparison reads
        # 1,351 statements, so all 18,154 graphs would take about a minute)
        rng = np.random.default_rng(41)
        five = [DependencyModel.from_latent_dag(random_dag(6, rng, p=0.6), [5]) for _ in range(2)]
        six = DependencyModel.from_latent_dag(random_dag(7, rng, p=0.6), [6])
        dense = [g for g in chordal_graphs(6) if len(g.lines) >= 13]
        pairs = [(g, t) for t in five for g in chordal_graphs(5)]
        self.check(pairs + [(g, six) for g in dense], set_inclusion())


class TestGraphoids:
    def test_all_axioms_pass_on_every_ug_n4(self):
        for g in all_graphs(4):
            rep = graphoid_report(DependencyModel.from_undirected(g))
            assert rep.all_passed, g.fingerprint()

    def test_collider_fails_strong_union_only_discriminatively(self):
        m = DependencyModel.from_dag(Dag(3, [(0, 2), (1, 2)]))
        rep = graphoid_report(m)
        assert not rep.axioms["strong_union"].passed
        assert rep.axioms["symmetry"].passed
        assert rep.axioms["decomposition"].passed
        witness = rep.axioms["strong_union"].failures[0]
        x, y, z, w = witness
        assert m.independent(x, y, z) and not m.independent(x, y, z + w)

    def test_dag_models_keep_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = random_dag(4, rng)
            rep = graphoid_report(
                DependencyModel.from_dag(d), axioms=("composition",)
            )
            assert rep.all_passed

    def test_symmetry_fails_on_a_one_sided_backend(self):
        # a backend that answers only the A < B orientation of each
        # statement (the mirror reads as dependent) breaks symmetry
        # whenever the model has an independence at all
        class OneSided(DependencyModel):
            def independent_table(self, triples):
                answers = super().independent_table(triples)
                return [holds and a < b for (a, b, _), holds in zip(triples, answers)]

        for g in all_graphs(3):
            m = OneSided("ug", g, (0, 1, 2))
            got = graphoid_report(m).axioms["symmetry"]
            want = ref_graphoid_report(m, ("symmetry",)).axioms["symmetry"]
            assert got.to_dict() == want.to_dict()
            assert got.checked == 18
            assert got.passed == (len(g.lines) == 3), g.fingerprint()

    def test_exhaustive_bound(self):
        m = DependencyModel.from_undirected(UndirectedGraph(7))
        with pytest.raises(ValueError):
            graphoid_report(m)

    def test_report_dict_shape(self):
        m = DependencyModel.from_undirected(UndirectedGraph(3, [(0, 1)]))
        d = graphoid_report(m).to_dict()
        assert set(d["axioms"]) == set(AXIOM_NAMES)
        for entry in d["axioms"].values():
            assert {"checked", "failures", "passed"} <= set(entry)


def su_chain_sets(n):
    """Singleton chains 0 - 1 - ... - n-1 as ({0}, {1}, ..., {n-1})."""
    return [(v,) for v in range(n)]


def random_chain(vertices, rng):
    """A chain over a shuffled subset of at least four of ``vertices``:
    singleton ends, the vertices between them cut into at least two
    nonempty interior sets."""
    vs = [int(v) for v in rng.permutation(list(vertices))]
    inner = vs[2 : int(rng.integers(4, len(vs) + 1))]
    cuts = rng.choice(np.arange(1, len(inner)), int(rng.integers(1, len(inner))), replace=False)
    bounds = [0, *sorted(cuts.tolist()), len(inner)]
    return [(vs[0],), *(tuple(inner[i:j]) for i, j in zip(bounds, bounds[1:])), (vs[1],)]


def random_chain_model(kind, rng):
    """A random model on 6 vertices of the given kind; a latent-dag model
    hides one or two vertices."""
    if kind == "ug":
        return DependencyModel.from_undirected(random_graph(6, rng, p=float(rng.random())))
    d = random_dag(6, rng, p=float(rng.random()))
    if kind == "dag":
        return DependencyModel.from_dag(d)
    return DependencyModel.from_latent_dag(d, rng.choice(6, int(rng.integers(1, 3)), replace=False))


class TestChainDisjunction:
    def test_numpy_vertex_ids_decide_like_python_ints(self):
        # 64 -> 65 -> 66 <- 67: the chain 66, 65, 64, 67 fails the property
        m = DependencyModel.from_dag(Dag(70, [(64, 65), (65, 66), (67, 66)]))
        chain = [[66], [65], [64], [67]]
        assert not chain_disjunction_holds(m, chain)
        assert not chain_disjunction_holds(m, [[np.int64(v) for v in s] for s in chain])

    def test_path_chain_holds(self):
        g = UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        m = DependencyModel.from_undirected(g)
        assert chain_disjunction_holds(m, su_chain_sets(5))

    def test_vacuous_when_premise_fails(self):
        # complete graph: no separations at all, premise cannot hold
        m = DependencyModel.from_undirected(UndirectedGraph.complete(4))
        assert chain_disjunction_holds(m, su_chain_sets(4))

    def test_non_ug_model_can_fail(self):
        # collider 0 -> 1 <- 3 plus 0 -> 2: the chain 1, 0, 2, 3 satisfies
        # both premises (1 indep 2 | 0 and 0 indep 3 | 2) yet every
        # disjunct fails, so the property discriminates against non-UG
        # models
        m = DependencyModel.from_dag(Dag(4, [(0, 1), (0, 2), (3, 1)]))
        chain = [(1,), (0,), (2,), (3,)]
        assert m.independent([1], [2], [0])
        assert m.independent([0], [3], [2])
        assert not chain_disjunction_holds(m, chain)
        assert not ref_chain_disjunction_holds(m, chain)

    def test_unobserved_vertices_raise_before_any_answer(self):
        d = Dag(5, [(0, 2), (1, 2), (2, 3), (4, 3)])
        m = DependencyModel.from_latent_dag(d, [4])
        chain = [(0,), (1,), (3,), (4,)]
        # the premise fails at its first statement (0 and 3 meet through 2
        # given 1), so asked one statement at a time vertex 4 goes unchecked
        assert ref_chain_disjunction_holds(m, chain)
        with pytest.raises(ValueError, match=r"^vertices \[4\] are not observable in this model$"):
            chain_disjunction_holds(m, chain)
        # a latent or out-of-range vertex raises in every set of the chain
        base = [(0,), (1,), (2,), (3,)]
        for i in range(len(base)):
            for bad in (4, 5, -1):
                chain = list(base)
                chain[i] = (bad,) if i in (0, 3) else base[i] + (bad,)
                with pytest.raises(ValueError, match=rf"^vertices \[{bad}\] are not observable"):
                    chain_disjunction_holds(m, chain)
        with pytest.raises(ValueError, match=r"^vertices \[-1, 4, 5\] are not observable"):
            chain_disjunction_holds(m, [(0,), (1, 5), (2, 4, -1), (3,)])

    def test_validation_errors(self):
        m = DependencyModel.from_undirected(UndirectedGraph(6))
        with pytest.raises(ValueError):
            chain_disjunction_holds(m, [(0,), (1, 2), (3,)])
        with pytest.raises(ValueError):
            chain_disjunction_holds(m, [(0, 1), (2,), (3,), (4,)])
        with pytest.raises(ValueError):
            chain_disjunction_holds(m, [(0,), (1,), (1, 2), (3,)])

    def test_grouped_interior_sets(self):
        g = UndirectedGraph(
            6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        )
        m = DependencyModel.from_undirected(g)
        assert chain_disjunction_holds(m, [(0,), (1, 2), (3,), (4,), (5,)])

    def test_singleton_chains_match_reference_on_all_dags_n4(self):
        # every 4-vertex DAG in every vertex order; 48 of these chains fail
        # the disjunction, the collider chain above among them
        failing = set()
        for arcs in all_dags(4):
            m = DependencyModel.from_dag(Dag(4, arcs))
            for chain in itertools.permutations(su_chain_sets(4)):
                expected = ref_chain_disjunction_holds(m, chain)
                assert chain_disjunction_holds(m, chain) == expected
                if not expected:
                    failing.add((arcs, chain))
        assert len(failing) == 48
        assert (((0, 1), (0, 2), (3, 1)), ((1,), (0,), (2,), (3,))) in failing

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["ug", "dag", "latent-dag"]), st.integers(0, 10**6))
    def test_random_chains_match_reference(self, kind, seed):
        # one batch must decide as the reference's one-statement-at-a-time
        # walk does, and every undirected model satisfies the disjunction
        rng = np.random.default_rng(seed)
        m = random_chain_model(kind, rng)
        chain = random_chain(m.observed, rng)
        expected = ref_chain_disjunction_holds(m, chain)
        assert chain_disjunction_holds(m, chain) == expected
        assert expected or kind != "ug"


# ---------------------------------------------------------------------------
# the tuple-based slow path, kept as the oracle for the bitmask kernels


def ref_partitions(obs, parts):
    """Assign each observed vertex to one of ``parts`` roles (last role =
    unused), yielding the role tuples."""
    for assign in itertools.product(range(parts + 1), repeat=len(obs)):
        yield tuple(
            tuple(v for v, k in zip(obs, assign) if k == r) for r in range(parts)
        )


def ref_record(result, ok, witness=None):
    result.checked += 1
    if not ok:
        result.failure_count += 1
        if len(result.failures) < result.MAX_STORED:
            result.failures.append(witness)


def ref_symmetry(m, result, tuples):
    for x, y, z in tuples:
        if not x or not y:
            continue
        ok = m.independent(x, y, z) == m.independent(y, x, z)
        ref_record(result, ok, (x, y, z))


def ref_decomposition(m, result, tuples):
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if m.independent(x, y + w, z):
            ok = m.independent(x, y, z) and m.independent(x, w, z)
            ref_record(result, ok, (x, y, w, z))
        else:
            ref_record(result, True)


def ref_intersection(m, result, tuples):
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if m.independent(x, y, z + w) and m.independent(x, w, z + y):
            ok = m.independent(x, y + w, z)
            ref_record(result, ok, (x, y, w, z))
        else:
            ref_record(result, True)


def ref_strong_union(m, result, tuples):
    for x, y, z, w in tuples:
        if not x or not y or not w:
            continue
        if m.independent(x, y, z):
            ok = m.independent(x, y, z + w)
            ref_record(result, ok, (x, y, z, w))
        else:
            ref_record(result, True)


def ref_transitivity(m, result, tuples):
    for x, y, z in tuples:
        if not x or not y:
            continue
        used = set(x) | set(y) | set(z)
        gammas = [v for v in m.observed if v not in used]
        if not gammas or not m.independent(x, y, z):
            continue
        for gamma in gammas:
            ok = m.independent(x, (gamma,), z) or m.independent((gamma,), y, z)
            ref_record(result, ok, (x, y, z, gamma))


def ref_composition(m, result, tuples):
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if m.independent(x, y, z) and m.independent(x, w, z):
            ok = m.independent(x, y + w, z)
            ref_record(result, ok, (x, y, w, z))
        else:
            ref_record(result, True)


REF_CHECKS = {
    "symmetry": (ref_symmetry, 3),
    "decomposition": (ref_decomposition, 4),
    "intersection": (ref_intersection, 4),
    "strong_union": (ref_strong_union, 4),
    "transitivity": (ref_transitivity, 3),
    "composition": (ref_composition, 4),
}
ALL_AXIOMS = AXIOM_NAMES + ("composition",)


def ref_graphoid_report(m, axioms=ALL_AXIOMS):
    results = {}
    for name in axioms:
        check, parts = REF_CHECKS[name]
        result = AxiomResult(name=name)
        check(m, result, ref_partitions(m.observed, parts))
        results[name] = result
    return GraphoidReport(axioms=results)


def fresh(m):
    """A new model over ``m``'s graph and observed set, so that the paths
    a test compares each query a model object of their own."""
    return DependencyModel(m.kind, m.graph, m.observed)


def vertices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def oracle_models():
    """Every UG with n <= 4, every DAG with n <= 3, and seeded samples of
    DAGs and one-latent margins with four observed vertices."""
    rng = np.random.default_rng(17)
    models = [
        DependencyModel.from_undirected(g) for n in range(1, 5) for g in all_graphs(n)
    ]
    models += [
        DependencyModel.from_dag(Dag(n, arcs)) for n in range(1, 4) for arcs in all_dags(n)
    ]
    models += [DependencyModel.from_dag(random_dag(4, rng)) for _ in range(12)]
    models += [latent_margin(rng) for _ in range(12)]
    return models


def latent_margin(rng):
    return DependencyModel.from_latent_dag(random_dag(5, rng, p=0.5), [4])


class TestRoleMasks:
    def test_product_order_matches_partitions(self):
        for obs in [(), (0,), (0, 2, 3), (1, 2, 4, 5)]:
            for parts in (3, 4):
                got = [tuple(map(vertices, r)) for r in role_masks(obs, parts)]
                assert got == list(ref_partitions(obs, parts))

    def test_canonical_triples_are_the_canonical_statements(self):
        for obs in [(0, 1), (0, 1, 2), (1, 3, 4, 6)]:
            got = [
                IndependenceStatement(*map(vertices, t)) for t in canonical_triples(obs)
            ]
            expected = {
                IndependenceStatement(a, b, c)
                for a, b, c in ref_partitions(obs, 3)
                if a and b
            }
            assert len(got) == len(set(got)) == len(expected)
            assert set(got) == expected
            assert got == sorted(got, key=lambda s: (s.a, s.b, s.c))


class TestMaskKernelsMatchSlowPath:
    def test_graphoid_reports_and_witnesses(self):
        # margins whose observed set is not 0..k-1 check the mapping from
        # observed positions to vertices; six observed is the bound
        rng = np.random.default_rng(31)
        models = oracle_models()
        models += [
            DependencyModel.from_latent_dag(random_dag(5, rng, p=0.5), [latent])
            for latent in (0, 2)
            for _ in range(4)
        ]
        models.append(DependencyModel.from_dag(random_dag(6, rng, p=0.5)))
        for m in models:
            ref = ref_graphoid_report(fresh(m))
            got = graphoid_report(fresh(m), axioms=ALL_AXIOMS)
            assert got.to_dict() == ref.to_dict()
            for name in ALL_AXIOMS:
                assert got.axioms[name].failures == ref.axioms[name].failures

    def test_enumeration_and_every_canonical_triple(self):
        for m in oracle_models():
            masked, public = fresh(m), fresh(m)
            triples = canonical_triples(m.observed)
            both = [t for am, bm, cm in triples for t in ((am, bm, cm), (bm, am, cm))]
            expected = [public.independent(*map(vertices, t)) for t in both]
            assert masked.independent_table(both) == expected
            assert enumerate_independencies(fresh(m)) == ref_enumerate_independencies(
                fresh(m)
            )

    def test_independent_table_equals_single_queries(self):
        for m in oracle_models():
            triples = canonical_triples(m.observed)
            swapped = [(b, a, c) for a, b, c in triples]
            for batch in (triples, swapped):
                expected = [fresh(m).independent_table([t])[0] for t in batch]
                assert fresh(m).independent_table(batch) == expected

    def test_model_included_witnesses(self):
        rng = np.random.default_rng(29)
        chordals = [ChordalGraph.from_graph(g) for g in all_graphs(4) if is_chordal(g)]
        targets = [latent_margin(rng) for _ in range(10)]
        targets += [DependencyModel.from_dag(random_dag(4, rng)) for _ in range(5)]
        targets += [DependencyModel.from_undirected(random_graph(4, rng)) for _ in range(5)]
        for target in targets:
            for g in chordals:
                assert model_included(g, fresh(target)) == ref_model_included(
                    g, fresh(target)
                )


class TestGraphoidReportBoundary:
    def test_unknown_axiom_named(self):
        m = DependencyModel.from_undirected(UndirectedGraph(3))
        with pytest.raises(ValueError, match="contraction"):
            graphoid_report(m, axioms=("symmetry", "contraction"))
