"""Dependency models, statement enumeration, model comparison, axioms."""

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
    enumerate_independencies,
    graphoid_report,
    inclusion_optimal,
    model_included,
    role_masks,
)
from chordalearn.verification import all_dags

from conftest import (
    all_graphs,
    holds,
    naive_d_separated,
    path_separated,
    random_dag,
    random_graph,
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


class TestChainDisjunction:
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

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**15 - 1), st.integers(0, 10**6))
    def test_random_ug_chains_always_hold(self, mask, pick):
        pairs = list(itertools.combinations(range(6), 2))
        g = UndirectedGraph(6, [pairs[i] for i in range(15) if mask >> i & 1])
        m = DependencyModel.from_undirected(g)
        # random singleton chain over a permuted vertex subset
        vs = list(range(6))
        rng = np.random.default_rng(pick)
        rng.shuffle(vs)
        length = int(rng.integers(4, 7))
        chain = [(v,) for v in vs[:length]]
        assert chain_disjunction_holds(m, chain)


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


def ref_enumerate_independencies(m):
    obs = m.observed
    out = set()
    for assign in itertools.product(range(4), repeat=len(obs)):
        a = tuple(v for v, k in zip(obs, assign) if k == 0)
        b = tuple(v for v, k in zip(obs, assign) if k == 1)
        c = tuple(v for v, k in zip(obs, assign) if k == 2)
        if not a or not b or b < a:
            continue  # canonical orientation only
        if m.independent(a, b, c):
            out.add(IndependenceStatement(a, b, c))
    return out


def ref_model_included(g, target):
    graph = g.graph
    n = graph.n
    if target.kind in ("ug", "dag"):
        rest = set(range(n))
        for a in range(n):
            for b in range(a + 1, n):
                if graph.has_line(a, b):
                    continue
                cond = rest - {a, b}
                if not target.independent([a], [b], cond):
                    return False, IndependenceStatement((a,), (b,), tuple(cond))
        return True, None
    own = DependencyModel.from_undirected(graph)
    for stmt in sorted(ref_enumerate_independencies(own), key=lambda s: (s.a, s.b, s.c)):
        if not holds(target, stmt):
            return False, stmt
    return True, None


def fresh(m):
    """The same model with an empty memo."""
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
            for am, bm, cm in canonical_triples(m.observed):
                a, b, c = vertices(am), vertices(bm), vertices(cm)
                assert masked.independent_masks(am, bm, cm) == public.independent(a, b, c)
                assert masked.independent_masks(bm, am, cm) == public.independent(b, a, c)
            assert enumerate_independencies(fresh(m)) == ref_enumerate_independencies(
                fresh(m)
            )

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
