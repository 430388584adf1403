"""Brute-force sweeps, their reports, and fault injection.

The fault-injection tests monkeypatch ``verification.inclusion_boundary``
with broken variants, or plant a fault in the oracle score's entropy
table, and require the sweeps to flag violations: a checker that cannot
catch a planted bug proves nothing when it passes.
"""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from chordalearn import verification
from chordalearn.graphs import ChordalGraph, Dag, UndirectedGraph, is_chordal, mask_vertices
from chordalearn.independence import DependencyModel, inclusion_optimal, model_included
from chordalearn.search import Move, OracleScore, inclusion_boundary
from chordalearn.verification import (
    MAX_DAG_VERTICES,
    ChainSampleReport,
    LocalOptimaReport,
    SelfCheckReport,
    VerificationError,
    _line_bit,
    _Records,
    all_dags,
    all_undirected,
    chordal_chain,
    chordality_cross_check,
    enumerate_chordal,
    find_nonoptimal_local_optimum,
    iter_dags,
    line_mask,
    naive_chordal_masks,
    naive_is_chordal,
    oracle_self_check,
    probe_dag_targets,
    report_to_json,
    sample_chain_disjunctions,
    sweep_chordal_chains,
    sweep_graphoids,
    sweep_local_optima,
    sweep_self_checks,
)

from conftest import nx_is_chordal, subset_is_chordal


class TestNaiveChordality:
    def test_agrees_with_networkx_n5(self):
        for g in all_undirected(5):
            assert naive_is_chordal(g) == nx_is_chordal(g)

    def test_cross_check_report(self):
        rep = chordality_cross_check(5)
        assert rep.ok
        assert rep.graphs_checked == 1024
        assert rep.chordal_count == 822

    def test_cross_check_names_a_planted_mismatch(self, monkeypatch):
        # a mask kernel that calls a graph chordal iff it has other than
        # three lines is wrong on the 20 three-line graphs and the three
        # 4-cycles; each is named by its fingerprint, in line-mask order
        def wrong(masks, order):
            return sum(map(int.bit_count, masks)) != 6

        monkeypatch.setattr(verification, "_perfect_masks", wrong)
        rep = chordality_cross_check(4)
        wrong_on = [
            g.fingerprint() for g in all_undirected(4) if (len(g.lines) != 3) != nx_is_chordal(g)
        ]
        assert rep.mismatches == wrong_on and len(wrong_on) == 23
        assert rep.chordal_count == 64 - 20

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            chordality_cross_check(9)
        with pytest.raises(ValueError):
            naive_is_chordal(UndirectedGraph(7))

    def test_cycle_table_equals_subset_search_n6(self):
        # the table oracle over all line masks at once against the
        # per-graph search of vertex subsets, on every graph with n <= 6
        for n in range(1, 7):
            masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
            table = naive_chordal_masks(n, masks).tolist()
            assert table == [subset_is_chordal(g) for g in all_undirected(n)]


class TestEnumerateChordal:
    def test_counts(self):
        assert [len(enumerate_chordal(n)) for n in range(1, 6)] == [
            1,
            2,
            8,
            61,
            822,
        ]

    def test_cross_checked_enumeration(self):
        got = {g.fingerprint() for g in enumerate_chordal(4)}
        want = {
            g.fingerprint() for g in all_undirected(4) if naive_is_chordal(g)
        }
        assert got == want


class TestLineMask:
    def test_inverts_all_undirected(self):
        for n in range(1, 6):
            masks = [line_mask(g) for g in all_undirected(n)]
            assert masks == list(range(1 << (n * (n - 1) // 2)))

    def test_chordal_graph_mask_matches_its_graph(self):
        for cg in enumerate_chordal(4):
            assert line_mask(cg) == line_mask(cg.graph)


class TestChordalChain:
    def test_chain_steps_single_lines(self):
        h = ChordalGraph.empty(5)
        g = ChordalGraph.from_graph(UndirectedGraph.complete(5))
        chain = chordal_chain(h, g)
        assert chain[0].graph == h.graph
        assert chain[-1].graph == g.graph
        for a, b in zip(chain, chain[1:]):
            assert is_chordal(b.graph)
            added = set(b.lines) - set(a.lines)
            assert len(added) == 1 and len(b.lines) == len(a.lines) + 1

    def test_non_nested_pair_rejected(self):
        h = ChordalGraph.from_lines(3, [(0, 1)])
        g = ChordalGraph.from_lines(3, [(1, 2)])
        with pytest.raises(ValueError):
            chordal_chain(h, g)

    def test_sweep_n4(self):
        rep = sweep_chordal_chains(4)
        assert rep.ok
        # 61 chordal graphs, ordered pairs with strict containment
        assert rep.pairs_checked > 0
        assert rep.object_level_samples > 0


def reference_oracle_self_check(target, graphs):
    """The self-check with its original removal path, kept as the oracle
    for the catalogue-based one: every legal removal is re-listed from the
    boundary, the smaller graph rebuilt and rescored."""
    oracle = OracleScore(target)
    model = DependencyModel.from_undirected(target)
    scores = [oracle.score(cg) for cg in graphs]
    included = [model_included(cg, model)[0] for cg in graphs]
    dims = [-s[1] for s in scores]
    consistency = []
    for i, j in itertools.permutations(range(len(graphs)), 2):
        if included[j] and not included[i] and not scores[j] > scores[i]:
            consistency.append(
                {"included": graphs[j].fingerprint(), "excluded": graphs[i].fingerprint()}
            )
        if included[i] and included[j] and dims[i] > dims[j] and not scores[j] > scores[i]:
            consistency.append(
                {"smaller": graphs[j].fingerprint(), "larger": graphs[i].fingerprint()}
            )
    local = []
    for cg, score in zip(graphs, scores):
        masks = cg.graph.neighbor_masks
        for mv in inclusion_boundary(cg):
            if mv.kind != "remove":
                continue
            smaller = ChordalGraph.from_graph(cg.graph.without_line(mv.a, mv.b))
            sscore = oracle.score(smaller)
            s = masks[mv.a] & masks[mv.b]
            holds = model.independent_table([(1 << mv.a, 1 << mv.b, s)])[0]
            if holds != (sscore > score) or (not holds) != (sscore < score):
                local.append(
                    {
                        "graph": cg.fingerprint(),
                        "move": mv.to_string(),
                        "statement_holds": holds,
                        "score": list(score),
                        "removed_score": list(sscore),
                    }
                )
    return SelfCheckReport(target.fingerprint(), len(graphs), consistency, local)


def plant_extra_coin(monkeypatch):
    """Plant one extra coin for every set holding both 0 and 1 in the
    entropy table of every ``OracleScore`` built, the one form of the score
    that the sweeps and their references all read."""
    init = OracleScore.__init__

    def faulty(self, target):
        init(self, target)
        masks = np.arange(len(self.entropy))
        self.entropy = self.entropy + (masks & 3 == 3)

    monkeypatch.setattr(OracleScore, "__init__", faulty)


def self_check_pairs(max_n=4):
    """(catalogue report, reference report) for every target with n <= max_n."""
    for n in range(1, max_n + 1):
        graphs = enumerate_chordal(n)
        for t in all_undirected(n):
            yield oracle_self_check(t), reference_oracle_self_check(t, graphs)


class TestSelfChecks:
    def test_matches_reference_for_every_target(self):
        pairs = list(self_check_pairs())
        assert len(pairs) == 1 + 2 + 8 + 64
        for got, want in pairs:
            assert got == want
            assert got.ok

    def test_matches_reference_under_planted_fault(self, monkeypatch):
        # one extra coin for every set holding both 0 and 1, planted in the
        # entropy table: removing line 0-1 now costs one coin less than it
        # should, so both checks must flag it
        plant_extra_coin(monkeypatch)
        pairs = list(self_check_pairs())
        for got, want in pairs:
            assert got == want
        assert any(got.consistency_violations for got, _ in pairs)
        assert any(got.local_consistency_violations for got, _ in pairs)

    def test_single_target(self):
        rep = oracle_self_check(UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)]))
        assert rep.ok

    def test_catalogue_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="different vertex counts"):
            oracle_self_check(UndirectedGraph(3), _Records(4))

    def test_non_chordal_removal_raises(self, monkeypatch):
        # a removal without a chordal result has no score to compare
        monkeypatch.setattr(verification, "inclusion_boundary", careless_removals)
        with pytest.raises(VerificationError, match="non-chordal"):
            oracle_self_check(UndirectedGraph(4))

    def test_sweep_small(self):
        rep = sweep_self_checks(3)
        assert rep.ok
        # 2 + 8 = all undirected targets on 2 and 3 vertices
        assert rep.targets == 2 + 8


def reference_records(n):
    """The catalogue as per-graph tuples, the way the reference sweep
    reads it: family/parent masks, dimension, and boundary moves with
    their S mask and result index (None when not chordal).  Moves come
    from ``verification.inclusion_boundary``, so a monkeypatched
    enumerator reaches both sweeps."""
    graphs = enumerate_chordal(n)
    masks = [line_mask(cg) for cg in graphs]
    index = {m: i for i, m in enumerate(masks)}
    fam_pa, dims, moves = [], [], []
    for cg, mask in zip(graphs, masks):
        fp = []
        dim = 0
        for v, pmask in enumerate(cg.oriented_parent_masks()):
            fp.append((pmask | (1 << v), pmask))
            dim += 1 << pmask.bit_count()
        fam_pa.append(tuple(fp))
        dims.append(dim)
        recs = []
        nbr = cg.graph.neighbor_masks
        for mv in verification.inclusion_boundary(cg):
            bit = _line_bit(n, min(mv.a, mv.b), max(mv.a, mv.b))
            result = mask | bit if mv.kind == "add" else mask & ~bit
            recs.append(
                SimpleNamespace(
                    kind=mv.kind,
                    a=mv.a,
                    b=mv.b,
                    s_mask=nbr[mv.a] & nbr[mv.b],
                    result_index=index.get(result),
                )
            )
        moves.append(tuple(recs))
    return SimpleNamespace(
        graphs=graphs, masks=masks, fam_pa=fam_pa, dims=dims, moves=moves
    )


def reference_sweep_local_optima(n, targets=None):
    """The local-optimum sweep as loops per target, graph and move, kept
    as the oracle for the move-table sweep."""
    recs = reference_records(n)
    tlist = list(targets) if targets is not None else list(all_undirected(n))
    full = (1 << n) - 1
    violations: list = []
    self_check: list = []
    optima = 0
    for t in tlist:
        if t.n != n:
            raise ValueError("target vertex count mismatch")
        oracle = OracleScore(t)
        ent = [oracle.set_entropy(m) for m in range(1 << n)]
        total_ent = ent[full]
        tmask = line_mask(t)
        model = DependencyModel.from_undirected(t)
        scores = []
        for fp, dim in zip(recs.fam_pa, recs.dims):
            e = 0
            for fm, pm in fp:
                e += ent[fm] - ent[pm]
            scores.append((total_ent - e, -dim))
        for i, gmask in enumerate(recs.masks):
            included = tmask & ~gmask == 0
            if (scores[i][0] == 0) != included:
                self_check.append(
                    {
                        "target": t.fingerprint(),
                        "graph": recs.graphs[i].fingerprint(),
                        "violation_weight": -scores[i][0],
                        "included": included,
                    }
                )
            better = False
            for mv in recs.moves[i]:
                j = mv.result_index
                if j is None:
                    violations.append(
                        {
                            "target": t.fingerprint(),
                            "graph": recs.graphs[i].fingerprint(),
                            "problem": "move result is not chordal",
                            "move": f"{mv.kind} {mv.a} {mv.b}",
                        }
                    )
                    continue
                if scores[j] > scores[i]:
                    better = True
                if mv.kind == "remove":
                    holds = model.independent_table([(1 << mv.a, 1 << mv.b, mv.s_mask)])[0]
                    if holds != (scores[j] > scores[i]):
                        self_check.append(
                            {
                                "target": t.fingerprint(),
                                "graph": recs.graphs[i].fingerprint(),
                                "move": f"remove {mv.a} {mv.b}",
                                "statement_holds": holds,
                            }
                        )
            if not better:
                optima += 1
                if not inclusion_optimal(recs.graphs[i], model):
                    violations.append(
                        {
                            "target": t.fingerprint(),
                            "graph": recs.graphs[i].fingerprint(),
                            "problem": "local optimum is not inclusion-optimal",
                        }
                    )
    return LocalOptimaReport(
        n, len(tlist), len(recs.graphs), optima, violations, self_check
    )


def removals_only(g):
    # forgets additions: creates false "optima" (e.g. the empty graph for a
    # connected target)
    return [m for m in inclusion_boundary(g) if m.kind == "remove"]


def reckless(g):
    # allows chordality-breaking additions
    moves = list(inclusion_boundary(g))
    present = set(g.lines)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if (a, b) not in present:
                mv = Move("add", a, b)
                if mv not in moves:
                    moves.append(mv)
    return moves


def careless_removals(g):
    # allows removals that break chordality (a chord of a 4-cycle)
    moves = list(inclusion_boundary(g))
    for a, b in g.lines:
        if Move("remove", a, b) not in moves:
            moves.append(Move("remove", a, b))
    return moves


def as_multisets(rep):
    """A sweep report with its entry lists as multisets."""
    doc = asdict(rep)
    for field in ("violations", "self_check_violations"):
        doc[field] = Counter(json.dumps(e, sort_keys=True) for e in doc[field])
    return doc


def assert_sweeps_agree(max_n=4):
    """The move-table sweep equals the reference on every undirected target
    with n <= max_n: equal counts, equal entries as multisets (clean
    reports hold none, so only a fault can reorder them).  Returns the
    (sweep, reference) report pairs."""
    reports = []
    for n in range(1, max_n + 1):
        got = sweep_local_optima(n)
        want = reference_sweep_local_optima(n)
        assert as_multisets(got) == as_multisets(want)
        reports.append((got, want))
    return reports


class TestLocalOptimaSweep:
    def test_n3_clean(self):
        rep = sweep_local_optima(3)
        assert rep.ok
        assert rep.targets == 8
        assert rep.graphs == 8
        assert rep.local_optima >= rep.targets  # at least one optimum each

    def test_n4_clean(self):
        rep = sweep_local_optima(4)
        assert rep.ok
        assert rep.targets == 64
        assert rep.graphs == 61

    def test_fault_injection_missing_additions(self, monkeypatch):
        # an enumerator that forgets additions creates false "optima";
        # the sweep must notice them
        monkeypatch.setattr(verification, "inclusion_boundary", removals_only)
        rep = sweep_local_optima(4)
        assert not rep.ok
        assert rep.violations

    def test_fault_injection_non_chordal_results(self, monkeypatch):
        # an enumerator that allows chordality-breaking additions must be
        # flagged rather than silently scored
        monkeypatch.setattr(verification, "inclusion_boundary", reckless)
        rep = sweep_local_optima(4)
        assert not rep.ok
        assert rep.violations

    def test_restricted_target_list(self):
        t = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rep = sweep_local_optima(4, targets=[t])
        assert rep.ok
        assert rep.targets == 1
        # the 4-cycle target has exactly its two triangulations as optima
        assert rep.local_optima == 2

    def test_matches_reference_for_every_target(self):
        for got, _ in assert_sweeps_agree():
            assert got.ok

    @pytest.mark.parametrize("mutant", [removals_only, reckless, careless_removals])
    def test_matches_reference_under_mutant_enumerator(self, monkeypatch, mutant):
        monkeypatch.setattr(verification, "inclusion_boundary", mutant)
        reports = assert_sweeps_agree()
        assert any(got.violations for got, _ in reports)

    def test_matches_reference_under_planted_entropy_fault(self, monkeypatch):
        # graphs that separate 0 from 1 in a target joining them look better
        # than they are, so both sweeps must report self-check violations
        plant_extra_coin(monkeypatch)
        reports = assert_sweeps_agree()
        assert any(got.self_check_violations for got, _ in reports)
        assert any(want.self_check_violations for _, want in reports)


class TestMoveTable:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_rows_match_boundary_listing(self, n):
        # one row per boundary move, in catalogue then boundary order, with
        # its result's index and its statement triple
        cat = _Records(n)
        rows = list(
            zip(cat.src, cat.dst, cat.remove, cat.a, cat.b, cat.stmt)
        )
        masks = [line_mask(cg) for cg in cat.graphs]
        want = []
        for i, cg in enumerate(cat.graphs):
            nbr = cg.graph.neighbor_masks
            for mv in inclusion_boundary(cg):
                edited = (
                    cg.graph.without_line(mv.a, mv.b)
                    if mv.kind == "remove"
                    else cg.graph.with_line(mv.a, mv.b)
                )
                j = masks.index(line_mask(edited))
                key = (1 << mv.a, 1 << mv.b, nbr[mv.a] & nbr[mv.b])
                want.append((i, j, mv.kind == "remove", mv.a, mv.b, key))
        assert [(*r[:5], cat.triples[r[5]]) for r in rows] == want
        assert len(set(cat.triples)) == len(cat.triples)
        assert cat.masks.tolist() == masks

    def test_families_and_dimensions(self):
        cat = _Records(4)
        for cg, fam, pa, dim in zip(cat.graphs, cat.fam, cat.pa, cat.dims):
            parents = list(cg.oriented_parent_masks())
            assert list(pa) == parents
            assert list(fam) == [p | 1 << v for v, p in enumerate(parents)]
            assert dim == -OracleScore(UndirectedGraph(4)).score(cg)[1]

    def test_oracle_scores_equal_per_graph_scores(self):
        # the catalogue gather and the per-graph score read one table
        for n in range(1, 5):
            cat = _Records(n)
            for t in all_undirected(n):
                oracle = OracleScore(t)
                weight = cat.oracle_scores(oracle.entropy)
                got = [(-int(w), -int(d)) for w, d in zip(weight, cat.dims)]
                assert got == [oracle.score(cg) for cg in cat.graphs], t


class TestGraphoidSweep:
    def test_n4(self):
        rep = sweep_graphoids(4)
        assert rep.ok
        assert rep.models == 64
        assert rep.collider_strong_union_failed


class TestChainSamples:
    def test_small_sample_clean(self):
        rep = sample_chain_disjunctions(count=400, seed=0)
        assert rep.ok
        assert rep.evaluated == 400
        assert rep.holds == 400
        assert rep.attempts >= rep.evaluated

    def test_deterministic(self):
        a = sample_chain_disjunctions(count=150, seed=3)
        b = sample_chain_disjunctions(count=150, seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "count, seed, digest",
        [
            (3000, 5, "7f178a72e671e3ac22eadd0d352b141c14fc5217bc6e3fab1b88864a03b7cf6d"),
            (2000, 11, "9c3f7237078c9fbf5088be38e874bae36acb63298f864929a4daecd43df2e6f7"),
        ],
    )
    def test_report_pinned(self, count, seed, digest):
        # every RNG draw and every kept chain, attempts included
        text = report_to_json(sample_chain_disjunctions(count, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_failures_name_graph_and_chain(self, monkeypatch):
        # answer each premise truly and every disjunction statement False,
        # recording the graph and chain of each attempt whose premise holds
        real = verification.separated_table
        expected = []

        def no_disjunct(masks, triples):
            premise = triples[: len(triples) // 2]  # n - 1 of 2n - 1 statements
            answers = real(masks, premise)
            if all(answers):
                lines = [(a, b) for a in range(len(masks)) for b in mask_vertices(masks[a]) if a < b]
                chain = [premise[0][0], *(c for _, _, c in premise), premise[-1][1]]
                expected.append(
                    {
                        "graph": UndirectedGraph(len(masks), lines).fingerprint(),
                        "chain": [list(mask_vertices(m)) for m in chain],
                    }
                )
            return answers + [False] * (len(triples) - len(premise))

        monkeypatch.setattr(verification, "separated_table", no_disjunct)
        rep = sample_chain_disjunctions(count=50, seed=2)
        assert not rep.ok
        assert rep.evaluated == 50 and rep.holds == 0
        assert rep.failures == expected and len(expected) == 50

    def test_ok_requires_full_hold(self):
        broken = ChainSampleReport(
            requested=10, evaluated=10, holds=9, attempts=12, failures=["x"]
        )
        assert not broken.ok


def reference_all_dags(n):
    """Every orientation state of every vertex pair built as a ``Dag``,
    the cyclic ones dropped through the ``ValueError`` they raise."""
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for states in itertools.product(range(3), repeat=len(pairs)):
        arcs = [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s]
        try:
            found.append(Dag(n, arcs))
        except ValueError:
            pass  # cyclic
    found.sort(key=lambda d: (len(d.arcs), d.arcs))
    return found


class TestAllDags:
    @pytest.mark.parametrize("n", range(5))
    def test_equals_reference_enumeration(self, n):
        assert all_dags(n) == [d.arcs for d in reference_all_dags(n)]

    def test_count_n5(self):
        # labelled DAGs on 5 vertices (OEIS A003024)
        assert len(all_dags(5)) == 29281

    def test_count_n3(self):
        # labelled DAGs on 3 vertices: a known enumeration
        assert len(all_dags(3)) == 25

    def test_count_n2(self):
        assert len(all_dags(2)) == 3

    def test_all_acyclic_distinct(self):
        ds = all_dags(3)
        assert len(set(ds)) == len(ds)

    def test_iter_generates_one_arc_count_at_a_time(self, monkeypatch):
        # the latent-witness scan stops at DAG 4432 of n=5, among the
        # 6,180 DAGs with 5 arcs: no larger count may have been generated
        built = []
        inner = verification._dags_with_arcs

        def spy(n, pairs, k):
            built.append(k)
            return inner(n, pairs, k)

        monkeypatch.setattr(verification, "_dags_with_arcs", spy)
        head = list(itertools.islice(iter_dags(5), 4432))
        assert built == [0, 1, 2, 3, 4, 5]
        assert head == sorted(head, key=lambda arcs: (len(arcs), arcs))
        assert len(head) == 4432 and len(head[-1]) == 5

    # each call below raises before enumerating anything; an unbounded
    # n=6 enumeration would walk 3^15 orientation states
    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="at most 5 vertices"):
            all_dags(MAX_DAG_VERTICES + 1)
        with pytest.raises(ValueError, match="at most 5 vertices"):
            iter_dags(MAX_DAG_VERTICES + 1)

    def test_probe_bound_enforced(self):
        with pytest.raises(ValueError, match="at most 5 vertices"):
            probe_dag_targets(MAX_DAG_VERTICES + 1)

    def test_witness_search_bound_enforced(self):
        with pytest.raises(ValueError, match="at most 5 vertices"):
            find_nonoptimal_local_optimum(MAX_DAG_VERTICES)


def statement_local_optimum(g, target):
    """The forced-optimum rule as ``search`` once decided it, kept as the
    oracle for ``_Records.forced_optima``: the boundary is re-listed for
    every (target, graph) pair and S recomputed from the graph.  True when
    no move is forced: a removal is forced when its statement holds, an
    addition when it fails."""
    masks = g.graph.neighbor_masks
    for move in inclusion_boundary(g):
        s = masks[move.a] & masks[move.b]
        if target.independent_table([(1 << move.a, 1 << move.b, s)])[0] == (move.kind == "remove"):
            return False
    return True


def reference_forced_optima(cat, model):
    return [i for i, cg in enumerate(cat.graphs) if statement_local_optimum(cg, model)]


class TestForcedOptima:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_dag_targets_match_reference(self, n):
        cat = _Records(n)
        for arcs in all_dags(n):
            model = DependencyModel.from_dag(Dag(n, arcs))
            assert list(cat.forced_optima(model)) == reference_forced_optima(cat, model)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_undirected_targets_match_reference(self, n):
        cat = _Records(n)
        for t in all_undirected(n):
            model = DependencyModel.from_undirected(t)
            assert list(cat.forced_optima(model)) == reference_forced_optima(cat, model)

    def test_latent_margins_match_reference(self):
        # every DAG on 4 vertices with vertex 3 latent, over graphs on 0..2
        cat = _Records(3)
        found = set()
        for arcs in all_dags(4):
            margin = DependencyModel.from_latent_dag(Dag(4, arcs), [3])
            got = list(cat.forced_optima(margin))
            assert got == reference_forced_optima(cat, margin)
            found.add(tuple(got))
        assert len(found) > 1  # the margins do not all share one answer

    def test_agrees_with_oracle_score_local_maxima(self):
        # for undirected targets a graph has no forced move iff no
        # boundary move improves the constructed score
        cat = _Records(4)
        for t in all_undirected(4):
            oracle = OracleScore(t)
            numeric = []
            for i, g in enumerate(cat.graphs):
                current = oracle.score(g)
                if all(
                    oracle.move_score(g, current, mv) <= current
                    for mv in inclusion_boundary(g)
                ):
                    numeric.append(i)
            model = DependencyModel.from_undirected(t)
            assert list(cat.forced_optima(model)) == numeric, t.fingerprint()


class TestDagProbe:
    def test_n3_all_optima_optimal(self):
        rep = probe_dag_targets(3)
        assert rep.ok
        assert rep.targets == 25
        assert rep.local_optima > 0


class TestLatentWitness:
    def test_witness_found_and_confirmed(self):
        rep = find_nonoptimal_local_optimum(4)
        assert rep.found
        assert rep.local_optimum_confirmed
        assert rep.inclusion_optimal_result is False
        assert rep.ok
        assert rep.graph is not None and rep.arcs is not None
        # the full-level latent_witness report, so the search runs once
        digest = hashlib.sha256(report_to_json(rep).encode()).hexdigest()
        assert digest == (
            "3a9bac9cd3576870129cd32c5d87ffb639330f8af544e42a74461e04b6df8807"
        )


    def test_witness_search_generates_arc_counts_to_five(self, monkeypatch):
        # the witness is DAG 4432, with five arcs; key blocks stop at the
        # end of an arc count, so no count past five is generated
        built = []
        inner = verification._dags_with_arcs

        def spy(n, pairs, k):
            built.append(k)
            return inner(n, pairs, k)

        monkeypatch.setattr(verification, "_dags_with_arcs", spy)
        rep = find_nonoptimal_local_optimum(4)
        assert rep.targets_scanned == 4432
        assert built == [0, 1, 2, 3, 4, 5]


class TestMemory:
    """The stacked sweeps ask their statements in bounded blocks: a gather
    of every target's per-move answers at once, (1,024 × 7,220) bools for
    ``sweep_local_optima(5)``, would take more than the bound alone."""

    @pytest.mark.parametrize(
        "suite, args",
        [
            (sweep_local_optima, (5,)),
            (chordality_cross_check, (6,)),
            (find_nonoptimal_local_optimum, ()),
        ],
    )
    def test_peak_under_4mb(self, suite, args):
        tracemalloc.start()
        try:
            assert suite(*args).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{suite.__name__} peaked at {peak / 2**20:.2f} MB"


class TestReportJson:
    def test_shape_and_determinism(self):
        rep = chordality_cross_check(4)
        text = report_to_json(rep)
        assert text == report_to_json(rep)
        doc = json.loads(text)
        assert doc["kind"] == "ChordalityReport"
        assert doc["ok"] is True
        assert doc["graphs_checked"] == 64
        assert text.endswith("\n")
