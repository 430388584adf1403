"""Output checks for benchmark jobs, built on oracles outside the code
under test.

Learned structures are parsed from their text form here, and their
legality (chordal, or acyclic for DAGs) is decided by networkx.  Scores
are recomputed from ``bdeu_local_score`` over a perfect ordering found by
this module's own maximum cardinality search, never through the learner's
``ScoreCache`` or incremental deltas.  A learned structure passes when it
is legal, the trace's final total matches the recomputed score, and no
legal single-line edit has a higher recomputed score.  Which single-line
edits of a chordal graph are legal is decided by that same search (an
ordering it finds is perfect exactly when the graph is chordal), since
networkx's test costs about ten times as much and would make the check
slower than the jobs; edits of DAGs go through networkx.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import networkx as nx

REL_TOL = 1e-9  # trace totals accumulate deltas; recomputation sums terms
ABS_TOL = 1e-6


def parse_structure(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [r.split() for r in text.splitlines() if r.strip()]
    if not rows or len(rows[0]) != 2 or rows[0][0] != "n":
        raise ValueError("structure text lacks an 'n <count>' header")
    n = int(rows[0][1])
    pairs = []
    for row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"bad structure row {row!r}")
        a, b = int(row[0]), int(row[1])
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"bad structure pair {a} {b}")
        pairs.append((a, b))
    if len(set(pairs)) != len(pairs):
        raise ValueError("repeated structure pair")
    return n, pairs


def perfect_parents(graph: nx.Graph):
    """Parents of each vertex along a perfect ordering found by maximum
    cardinality search (ties to the lowest vertex), or None when the
    ordering is not perfect, which happens exactly when the graph is not
    chordal."""
    n = graph.number_of_nodes()
    weight = [0] * n
    seen = [False] * n
    parents: list[tuple[int, ...]] = [()] * n
    for _ in range(n):
        v = max((u for u in range(n) if not seen[u]), key=lambda u: (weight[u], -u))
        earlier = tuple(sorted(u for u in graph[v] if seen[u]))
        for i, a in enumerate(earlier):
            for b in earlier[i + 1 :]:
                if not graph.has_edge(a, b):
                    return None
        parents[v] = earlier
        seen[v] = True
        for u in graph[v]:
            if not seen[u]:
                weight[u] += 1
    return parents


class LearnChecker:
    """Checks learn outputs for one dataset (rows as generated, before the
    CSV round trip) with the default equivalent sample size."""

    def __init__(self, data, ess: float = 1.0):
        from chordalearn.scoring import bdeu_local_score

        self.data = data
        self.ess = ess
        self._bdeu = bdeu_local_score
        self._memo: dict = {}

    def uncached(self, parents: list) -> float:
        return math.fsum(
            self._bdeu(v, ps, self.data, self.ess) for v, ps in enumerate(parents)
        )

    def _score(self, parents: list) -> float:
        terms = []
        for v, ps in enumerate(parents):
            key = (v, tuple(sorted(ps)))
            if key not in self._memo:
                self._memo[key] = self._bdeu(v, key[1], self.data, self.ess)
            terms.append(self._memo[key])
        return math.fsum(terms)

    def check(self, learner: str, structure_text: str, trace_text: str) -> list[str]:
        """Problems found in one learn output; empty when it passes."""
        try:
            n, pairs = parse_structure(structure_text)
            steps = [json.loads(line) for line in trace_text.splitlines() if line]
        except ValueError as exc:
            return [f"unreadable output: {exc}"]
        if n != self.data.n_vars:
            return [f"structure has {n} vertices, data has {self.data.n_vars}"]
        if not steps:
            return ["empty trace: no move accepted"]
        if learner == "chordal":
            return self._check_chordal(n, pairs, steps[-1]["total"])
        return self._check_dag(n, pairs, steps[-1]["total"])

    def _total_problem(self, reported: float, recomputed: float) -> list[str]:
        if math.isclose(reported, recomputed, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"trace total {reported!r} != recomputed score {recomputed!r}"]

    def _better(self, what: str, score: float, best: float) -> list[str]:
        if score > best + max(ABS_TOL, REL_TOL * abs(best)):
            return [f"{what} improves the score: {score!r} > {best!r}"]
        return []

    def _check_chordal(self, n, pairs, reported) -> list[str]:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        if not nx.is_chordal(g):
            return ["learned graph is not chordal"]
        parents = perfect_parents(g)
        if parents is None:
            return ["networkx and maximum cardinality search disagree on chordality"]
        best = self.uncached(parents)
        problems = self._total_problem(reported, best)
        for a in range(n):
            for b in range(a + 1, n):
                present = g.has_edge(a, b)
                if present:
                    g.remove_edge(a, b)
                else:
                    g.add_edge(a, b)
                parents = perfect_parents(g)
                if parents is not None:
                    kind = "remove" if present else "add"
                    problems += self._better(f"{kind} {a} {b}", self._score(parents), best)
                if present:
                    g.add_edge(a, b)
                else:
                    g.remove_edge(a, b)
        return problems

    def _check_dag(self, n, arcs, reported) -> list[str]:
        d = nx.DiGraph()
        d.add_nodes_from(range(n))
        d.add_edges_from(arcs)
        if not nx.is_directed_acyclic_graph(d):
            return ["learned digraph has a cycle"]
        parents = [set(d.predecessors(v)) for v in range(n)]
        best = self.uncached(parents)
        problems = self._total_problem(reported, best)
        for u in range(n):
            for v in range(n):
                if u == v or d.has_edge(v, u):
                    continue
                if d.has_edge(u, v):
                    parents[v].discard(u)
                    problems += self._better(f"remove {u} {v}", self._score(parents), best)
                    d.remove_edge(u, v)
                    d.add_edge(v, u)
                    if nx.is_directed_acyclic_graph(d):
                        parents[u].add(v)
                        problems += self._better(
                            f"reverse {u} {v}", self._score(parents), best
                        )
                        parents[u].discard(v)
                    d.remove_edge(v, u)
                    d.add_edge(u, v)
                    parents[v].add(u)
                else:
                    d.add_edge(u, v)
                    if nx.is_directed_acyclic_graph(d):
                        parents[v].add(u)
                        problems += self._better(f"add {u} {v}", self._score(parents), best)
                        parents[v].discard(u)
                    d.remove_edge(u, v)
        return problems


def check_report(report, expected: dict) -> list[str]:
    """Problems with one verification report: it must be ``ok`` and match
    the expected fields (lists compared by length, so an expected 0 means
    no violations were listed)."""
    problems = [] if report.ok else [f"{type(report).__name__} is not ok"]
    fields = asdict(report)
    for key, want in expected.items():
        got = fields.get(key)
        if isinstance(got, list) and not isinstance(want, list):
            got = len(got)
        if got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems
