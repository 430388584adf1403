"""Desk-scale brute-force verification.

Every structural claim the library relies on is re-checked here by
exhaustive enumeration with independent oracles: chordality against a
naive induced-cycle search, the single-line chain property for nested
chordal graphs, the oracle score's consistency and local consistency, the
"every local optimum is inclusion-optimal" sweep over all undirected
targets, graphoid axioms, separation-chain disjunctions, and the search
for a latent-margin target with a non-optimal local optimum.

Reports are plain dataclasses with an ``ok`` property and a deterministic
JSON form (no timestamps or runtimes inside, so identical runs serialize
identically).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .graphs import ChordalGraph, Dag, UndirectedGraph, d_separated_masks, is_chordal
from .graphs import reach, vertex_mask
from .independence import (
    DependencyModel,
    canonical_triples,
    graphoid_report,
    chain_disjunction_holds,
    inclusion_optimal,
    model_included,
)
from .search import Move, OracleScore, inclusion_boundary, statement_local_optimum
from .synthetic import rng_from

MAX_ENUM_VERTICES = 6


class VerificationError(RuntimeError):
    """A brute-force check found a counterexample to a structural claim."""


# ---------------------------------------------------------------------------
# chordality double-oracle and enumeration


def naive_is_chordal(graph: UndirectedGraph) -> bool:
    """Independent chordality oracle: search all vertex subsets of size
    at least four for one inducing a cycle (2-regular and connected)."""
    n = graph.n
    for size in range(4, n + 1):
        for sub in itertools.combinations(range(n), size):
            smask = 0
            for v in sub:
                smask |= 1 << v
            if any(
                (graph.neighbor_mask(v) & smask).bit_count() != 2 for v in sub
            ):
                continue
            seen = 1 << sub[0]
            frontier = seen
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    bit = m & -m
                    m ^= bit
                    nxt |= graph.neighbor_mask(bit.bit_length() - 1) & smask
                frontier = nxt & ~seen
                seen |= frontier
            if seen == smask:
                return False
    return True


def all_undirected(n: int) -> Iterable[UndirectedGraph]:
    """Every labeled undirected graph on n vertices, in line-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield UndirectedGraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def enumerate_chordal(n: int, cross_check: bool = False) -> list[ChordalGraph]:
    """All labeled chordal graphs on n vertices, in line-mask order.

    ``cross_check`` additionally runs the naive induced-cycle oracle on
    every candidate and raises on any disagreement.
    """
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices")
    out = []
    for g in all_undirected(n):
        fast = is_chordal(g)
        if cross_check and fast != naive_is_chordal(g):
            raise VerificationError(f"chordality oracles disagree on {g.fingerprint()}")
        if fast:
            out.append(ChordalGraph.from_graph(g))
    return out


@dataclass(frozen=True)
class ChordalityReport:
    n: int
    graphs_checked: int
    chordal_count: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def chordality_cross_check(n: int) -> ChordalityReport:
    """Run both chordality oracles over every graph on n vertices."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"cross-check supports 1..{MAX_ENUM_VERTICES} vertices")
    mismatches = []
    checked = 0
    chordal = 0
    for g in all_undirected(n):
        checked += 1
        fast = is_chordal(g)
        slow = naive_is_chordal(g)
        if fast:
            chordal += 1
        if fast != slow:
            mismatches.append(g.fingerprint())
    return ChordalityReport(n, checked, chordal, mismatches)


# ---------------------------------------------------------------------------
# single-line chains between nested chordal graphs


def chordal_chain(h: ChordalGraph, g: ChordalGraph) -> list[ChordalGraph]:
    """A sequence h = K0, ..., Km = g of chordal graphs, each adding one
    line of g.  Greedy: take the first line whose addition stays chordal.
    Failure to extend is a counterexample to the chain property and raises
    VerificationError.
    """
    if h.n != g.n:
        raise ValueError("graphs must share a vertex set")
    if not set(h.lines) <= set(g.lines):
        raise ValueError("first graph must be a subgraph of the second")
    chain = [h]
    current = h.graph
    missing = sorted(set(g.lines) - set(h.lines))
    while missing:
        for line in missing:
            bigger = current.with_line(*line)
            if is_chordal(bigger):
                current = bigger
                missing.remove(line)
                chain.append(ChordalGraph.from_graph(current))
                break
        else:
            raise VerificationError(
                "no single-line chordal extension from "
                f"{current.fingerprint()} toward {g.fingerprint()}"
            )
    return chain


@dataclass(frozen=True)
class ChainSweepReport:
    n: int
    pairs_checked: int
    object_level_samples: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep_chordal_chains(n: int) -> ChainSweepReport:
    """Check the chain property for every nested pair of chordal graphs on
    n vertices.  Runs on line masks for speed; a deterministic sample of
    pairs is re-run through the object-level chordal_chain as well.
    """
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {p: 1 << i for i, p in enumerate(pairs)}
    graphs = enumerate_chordal(n)
    masks = []
    chordal_set = set()
    for cg in graphs:
        m = 0
        for line in cg.lines:
            m |= bit_of[line]
        masks.append(m)
        chordal_set.add(m)
    failures: list = []
    checked = 0
    sampled = 0
    by_index = {m: i for i, m in enumerate(masks)}
    for hi, hm in enumerate(masks):
        for gi, gm in enumerate(masks):
            if hm & ~gm or hm == gm:
                continue
            checked += 1
            cur = hm
            ok = True
            while cur != gm:
                rest = gm & ~cur
                step = 0
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if (cur | bit) in chordal_set:
                        step = bit
                        break
                if not step:
                    ok = False
                    break
                cur |= step
            if not ok:
                failures.append(
                    {
                        "from": graphs[hi].fingerprint(),
                        "to": graphs[gi].fingerprint(),
                    }
                )
            elif checked % 97 == 0:
                sampled += 1
                chordal_chain(graphs[hi], graphs[gi])
    return ChainSweepReport(n, checked, sampled, failures)


# ---------------------------------------------------------------------------
# chordal-graph records shared by the score sweeps


@dataclass(frozen=True)
class _MoveRec:
    kind: str
    a: int
    b: int
    s_mask: int
    s_size: int
    result_index: Optional[int]


class _Records:
    """Per-graph precomputation for all chordal graphs on n vertices:
    line masks, family/parent vertex masks of a perfect orientation,
    all-binary dimension, and the move neighborhood."""

    def __init__(self, n: int, neighbor_fn: Optional[Callable] = None):
        self.n = n
        self.pairs = list(itertools.combinations(range(n), 2))
        self.bit_of = {p: 1 << i for i, p in enumerate(self.pairs)}
        self.graphs = enumerate_chordal(n)
        self.masks = []
        for cg in self.graphs:
            m = 0
            for line in cg.lines:
                m |= self.bit_of[line]
            self.masks.append(m)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.fam_pa = []
        self.dims = []
        self.moves = []
        boundary = neighbor_fn if neighbor_fn is not None else inclusion_boundary
        for cg, mask in zip(self.graphs, self.masks):
            fp = []
            dim = 0
            for v, ps in enumerate(cg.oriented_parents()):
                pmask = vertex_mask(ps)
                fp.append((pmask | (1 << v), pmask))
                dim += 1 << len(ps)
            self.fam_pa.append(tuple(fp))
            self.dims.append(dim)
            recs = []
            for mv in boundary(cg):
                s = cg.common_neighbors(mv.a, mv.b)
                line_bit = self.bit_of[(min(mv.a, mv.b), max(mv.a, mv.b))]
                result = mask | line_bit if mv.kind == "add" else mask & ~line_bit
                recs.append(
                    _MoveRec(mv.kind, mv.a, mv.b, vertex_mask(s), len(s), self.index.get(result))
                )
            self.moves.append(tuple(recs))


# ---------------------------------------------------------------------------
# oracle-score self-check


@dataclass(frozen=True)
class SelfCheckReport:
    target: str
    graphs: int
    consistency_violations: list
    local_consistency_violations: list

    @property
    def ok(self) -> bool:
        return not (self.consistency_violations or self.local_consistency_violations)


def oracle_self_check(
    target: UndirectedGraph, graphs: Optional[Sequence[ChordalGraph]] = None
) -> SelfCheckReport:
    """Certify the oracle score against ``target`` on all chordal graphs.

    Two families of checks, both against independent oracles:

    * consistency: graphs whose model is included in the target (decided
      by model_included, not by the score) beat every non-included graph,
      and among included graphs lower dimension wins;
    * local consistency: for every legal removal a-b with common neighbor
      set S, the full scores of the two graphs compare as the statement
      "a independent of b given S" (decided by graph separation) demands,
      strictly in both directions.
    """
    n = target.n
    if graphs is None:
        graphs = enumerate_chordal(n)
    oracle = OracleScore(target)
    model = DependencyModel.from_undirected(target)
    scores = [oracle.score(cg) for cg in graphs]
    included = [model_included(cg, model)[0] for cg in graphs]
    dims = [-s[1] for s in scores]
    consistency = []
    for i, j in itertools.permutations(range(len(graphs)), 2):
        if included[j] and not included[i] and not scores[j] > scores[i]:
            consistency.append(
                {
                    "included": graphs[j].fingerprint(),
                    "excluded": graphs[i].fingerprint(),
                }
            )
        if included[i] and included[j] and dims[i] > dims[j] and not scores[j] > scores[i]:
            consistency.append(
                {
                    "smaller": graphs[j].fingerprint(),
                    "larger": graphs[i].fingerprint(),
                }
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
            holds = model.independent_masks(1 << mv.a, 1 << mv.b, s)
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


@dataclass(frozen=True)
class SelfCheckSweepReport:
    max_n: int
    targets: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep_self_checks(max_n: int = 4) -> SelfCheckSweepReport:
    """oracle_self_check over every undirected target on 2..max_n vertices."""
    targets = 0
    failures = []
    for n in range(2, max_n + 1):
        graphs = enumerate_chordal(n)
        for t in all_undirected(n):
            targets += 1
            rep = oracle_self_check(t, graphs)
            if not rep.ok:
                failures.append(asdict(rep))
    return SelfCheckSweepReport(max_n, targets, failures)


# ---------------------------------------------------------------------------
# local-optimum sweep over all undirected targets


@dataclass(frozen=True)
class LocalOptimaReport:
    n: int
    targets: int
    graphs: int
    local_optima: int
    violations: list
    self_check_violations: list

    @property
    def ok(self) -> bool:
        return not (self.violations or self.self_check_violations)


def sweep_local_optima(
    n: int,
    targets: Optional[Iterable[UndirectedGraph]] = None,
    neighbor_fn: Optional[Callable] = None,
) -> LocalOptimaReport:
    """For every undirected target on n vertices: self-check the oracle
    score, find every local optimum of it over all chordal graphs, and
    require each to be inclusion-optimal for the target.

    ``neighbor_fn`` replaces the move enumerator (used by mutation tests
    to confirm the sweep catches an incorrect neighborhood); any move
    whose result is not chordal is itself reported as a violation.
    """
    recs = _Records(n, neighbor_fn)
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
        tmask = 0
        for line in t.lines:
            tmask |= recs.bit_of[line]
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
                    holds = model.independent_masks(1 << mv.a, 1 << mv.b, mv.s_mask)
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


# ---------------------------------------------------------------------------
# graphoid sweep


@dataclass(frozen=True)
class GraphoidSweepReport:
    n: int
    models: int
    failures: list
    collider_strong_union_failed: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.collider_strong_union_failed


def sweep_graphoids(n: int) -> GraphoidSweepReport:
    """All five axioms, exhaustively, for every undirected model on n
    vertices; plus the discriminative-power check that strong union fails
    for the two-cause collider DAG."""
    failures = []
    models = 0
    for g in all_undirected(n):
        models += 1
        rep = graphoid_report(DependencyModel.from_undirected(g), mode="exhaustive")
        if not rep.all_passed:
            failures.append({"graph": g.fingerprint(), "report": rep.to_dict()})
    collider = DependencyModel.from_dag(Dag(3, [(0, 2), (1, 2)]))
    crep = graphoid_report(collider, mode="exhaustive")
    su_failed = not crep.axioms["strong_union"].passed
    return GraphoidSweepReport(n, models, failures, su_failed)


# ---------------------------------------------------------------------------
# separation-chain sampling


@dataclass(frozen=True)
class ChainSampleReport:
    requested: int
    evaluated: int
    holds: int
    attempts: int
    failures: list

    @property
    def ok(self) -> bool:
        return self.evaluated >= self.requested and self.holds == self.evaluated


def _bfs_layers(g: UndirectedGraph, x: int) -> list[list[int]]:
    dist = {x: 0}
    layers = [[x]]
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    return layers


def sample_chain_disjunctions(
    count: int = 10_000, seed: int = 0, max_vars: int = 7
) -> ChainSampleReport:
    """Randomly build chains A0..An (singleton ends, disjoint interior
    sets) in random undirected models, keep those whose premise holds, and
    check the endpoint disjunction on each.

    Interior sets are breadth-first distance layers from the start vertex
    (which satisfy the premise by construction since a path between
    distance d-1 and d+1 must cross distance d), or random nonempty
    subsets of those layers, which are kept only when the premise holds
    under the separation oracle.
    """
    rng = rng_from(seed, 0x43A1)
    evaluated = holds = attempts = 0
    failures: list = []
    while evaluated < count:
        attempts += 1
        nv = int(rng.integers(4, max_vars + 1))
        p = float(rng.uniform(0.15, 0.55))
        lines = [
            pair
            for pair in itertools.combinations(range(nv), 2)
            if rng.random() < p
        ]
        g = UndirectedGraph(nv, lines)
        model = DependencyModel.from_undirected(g)
        x = int(rng.integers(nv))
        layers = _bfs_layers(g, x)
        reached = {v for layer in layers for v in layer}
        far = sorted(set(range(nv)) - reached)
        depths = []
        for d in range(3, len(layers) + 1):
            if all(layers[i] for i in range(1, d)) and (
                far or any(len(layers) > j for j in (d,))
            ):
                later = [v for j in range(d, len(layers)) for v in layers[j]] + far
                if later:
                    depths.append((d, later))
        if not depths:
            continue
        d, later = depths[int(rng.integers(len(depths)))]
        y = later[int(rng.integers(len(later)))]
        interior = [list(layers[i]) for i in range(1, d)]
        if rng.random() < 0.5:
            interior = [
                sorted(
                    rng.choice(layer, size=int(rng.integers(1, len(layer) + 1)), replace=False).tolist()
                )
                for layer in interior
            ]
        chain = [(x,)] + [tuple(s) for s in interior] + [(y,)]
        premise = all(
            model.independent(chain[i - 1], chain[i + 1], chain[i])
            for i in range(1, len(chain) - 1)
        )
        if not premise:
            continue
        evaluated += 1
        if chain_disjunction_holds(model, chain):
            holds += 1
        else:
            failures.append(
                {"graph": g.fingerprint(), "chain": [list(s) for s in chain]}
            )
    return ChainSampleReport(count, evaluated, holds, attempts, failures)


# ---------------------------------------------------------------------------
# DAG enumeration and the latent-margin counterexample search


def all_dags(n: int) -> list[Dag]:
    """Every labeled DAG on n vertices, ordered by arc count then by arc
    list; built from the 3 states (absent, forward, backward) of each
    vertex pair, filtered for acyclicity."""
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for states in itertools.product(range(3), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        try:
            d = Dag(n, arcs)
        except ValueError:
            continue
        found.append(d)
    found.sort(key=lambda d: (len(d.arcs), d.arcs))
    return found


class _TableModel:
    """Duck-typed dependency model answering from a precomputed triple
    table; used to sweep many identical latent margins only once."""

    kind = "latent-dag"

    def __init__(self, observed: Sequence[int], table: dict):
        self.observed = tuple(observed)
        self._table = table

    def independent_masks(self, am: int, bm: int, cm: int) -> bool:
        if (am & -am) > (bm & -bm):
            am, bm = bm, am
        return self._table[(am, bm, cm)]


def _ug_margin_keys(observed: Sequence[int], triples) -> set:
    """Separation answer vectors of every undirected graph on the observed
    vertices, used to skip margins that some undirected graph realizes
    exactly (the undirected sweep covers those targets exhaustively)."""
    keys = set()
    k = len(observed)
    for g in all_undirected(k):
        masks = g.neighbor_masks
        keys.add(tuple(not reach(masks, am, cm) & bm for am, bm, cm in triples))
    return keys


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    targets_scanned: int
    margins_swept: int
    skipped_realizable: int
    arcs: Optional[list]
    latent: Optional[int]
    graph: Optional[str]
    local_optimum_confirmed: Optional[bool]
    inclusion_optimal_result: Optional[bool]

    @property
    def ok(self) -> bool:
        return (
            self.found
            and bool(self.local_optimum_confirmed)
            and self.inclusion_optimal_result is False
        )


def find_nonoptimal_local_optimum(observed_count: int = 4) -> WitnessReport:
    """Search one-latent-vertex DAG targets for a local optimum that is
    not inclusion-optimal.

    DAGs on observed_count + 1 vertices are enumerated in ascending arc
    count with the latent vertex fixed at the highest index (relabeling
    symmetry makes that lossless for existence).  Each margin model is
    evaluated on all chordal graphs over the observed vertices: a graph
    with no forced-improving boundary move (the local-maximum condition
    shared by every locally consistent score) that fails
    inclusion_optimal is a witness.  Margins exactly realizable by an
    undirected graph are skipped, since the undirected sweep proves those
    targets clean; identical margins are swept once.

    The first witness in enumeration order is rechecked with the real
    latent-margin oracle before being returned.
    """
    n = observed_count + 1
    latent = n - 1
    observed = tuple(range(observed_count))
    triples = canonical_triples(observed)
    ug_keys = _ug_margin_keys(observed, triples)
    graphs = enumerate_chordal(observed_count)
    dags = all_dags(n)
    outcome_cache: dict = {}
    scanned = 0
    swept = 0
    skipped = 0
    for dag in dags:
        scanned += 1
        parmasks = [vertex_mask(ps) for ps in dag.parents]
        key = tuple(d_separated_masks(parmasks, am, bm, cm) for am, bm, cm in triples)
        if key in ug_keys:
            skipped += 1
            continue
        if key in outcome_cache:
            witness = outcome_cache[key]
        else:
            swept += 1
            table = dict(zip(triples, key))
            margin = _TableModel(observed, table)
            witness = None
            for cg in graphs:
                if statement_local_optimum(cg, margin) and not inclusion_optimal(
                    cg, margin
                ):
                    witness = cg
                    break
            outcome_cache[key] = witness
        if witness is not None:
            real = DependencyModel.from_latent_dag(dag, [latent])
            return WitnessReport(
                found=True,
                targets_scanned=scanned,
                margins_swept=swept,
                skipped_realizable=skipped,
                arcs=[list(a) for a in dag.arcs],
                latent=latent,
                graph=witness.fingerprint(),
                local_optimum_confirmed=statement_local_optimum(witness, real),
                inclusion_optimal_result=inclusion_optimal(witness, real),
            )
    return WitnessReport(
        found=False,
        targets_scanned=scanned,
        margins_swept=swept,
        skipped_realizable=skipped,
        arcs=None,
        latent=None,
        graph=None,
        local_optimum_confirmed=None,
        inclusion_optimal_result=None,
    )


# ---------------------------------------------------------------------------
# fully observed DAG targets (empirical probe, reported not asserted)


@dataclass(frozen=True)
class DagProbeReport:
    n: int
    targets: int
    local_optima: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def probe_dag_targets(n: int) -> DagProbeReport:
    """Sweep every fully observed DAG target on n vertices: are all
    forced local optima inclusion-optimal?  Failures are reported, not
    raised; no claim guarantees this family is clean."""
    graphs = enumerate_chordal(n)
    targets = 0
    optima = 0
    failures = []
    for dag in all_dags(n):
        targets += 1
        model = DependencyModel.from_dag(dag)
        for cg in graphs:
            if not statement_local_optimum(cg, model):
                continue
            optima += 1
            if not inclusion_optimal(cg, model):
                failures.append(
                    {"arcs": [list(a) for a in dag.arcs], "graph": cg.fingerprint()}
                )
    return DagProbeReport(n, targets, optima, failures)


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report) -> str:
    doc = asdict(report)
    doc["kind"] = type(report).__name__
    doc["ok"] = report.ok
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
