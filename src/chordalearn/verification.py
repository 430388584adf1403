"""Desk-scale brute-force verification.

Every structural claim the library relies on is re-checked here by
exhaustive enumeration with independent oracles: chordality against a
naive induced-cycle table, the single-line chain property for nested
chordal graphs, the oracle score's consistency and local consistency, the
"every local optimum is inclusion-optimal" sweep over all undirected
targets, graphoid axioms, separation-chain disjunctions, and the search
for a latent-margin target with a non-optimal local optimum.

The naive chordality side decides every line mask of a size at once from
one table of the cycles through all vertices of each vertex set of size
at least four (``naive_chordal_masks``).  The oracle self-checks, the
local-optimum sweep, the DAG probe and the latent-witness search share
one per-n catalogue of the labeled chordal graphs (``_Records``): arrays
of their families and dimensions, and one flat table of all their
boundary moves whose statements ``_Records.statements`` decides with one
``DependencyModel.independent_table`` call per model, so those suites run
as array tests over the table; the two oracle suites score every graph
with one gather over ``OracleScore.entropy`` and decide inclusion in the
undirected target by line containment.  The latent-witness search keys
each DAG by the answers of one ``d_separated_table`` call, and the chain
sweep reads only the graphs and their ``line_mask``.

Reports are plain dataclasses with an ``ok`` property and a deterministic
JSON form (no timestamps or runtimes inside, so identical runs serialize
identically).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import ChordalGraph, Dag, UndirectedGraph, d_separated_table, is_chordal
from .graphs import mask_vertices, separated_table
from .independence import (
    DependencyModel,
    canonical_triples,
    graphoid_report,
    chain_disjunction_holds,
    inclusion_optimal,
)
from .search import OracleScore, inclusion_boundary
from .synthetic import rng_from

MAX_ENUM_VERTICES = 6
# all_dags walks 3^(n(n-1)/2) orientation states: n=6 would exhaust
# memory, and the largest suite (the latent-witness search) needs n=5
MAX_DAG_VERTICES = 5


class VerificationError(RuntimeError):
    """A brute-force check found a counterexample to a structural claim."""


# ---------------------------------------------------------------------------
# chordality double-oracle and enumeration


def _cycle_table(n: int) -> list[tuple[int, int]]:
    """(pair mask, cycle mask) for every cycle through all vertices of each
    vertex set of size at least four, as line masks: the pair mask holds
    every pair inside the set, the cycle mask the cycle's lines.  A graph
    induces that cycle on the set iff its line mask ANDed with the pair
    mask equals the cycle mask."""
    table = []
    for size in range(4, n + 1):
        for sub in itertools.combinations(range(n), size):
            pairs = sum(_line_bit(n, a, b) for a, b in itertools.combinations(sub, 2))
            first = sub[0]
            for rest in itertools.permutations(sub[1:]):
                if rest[0] > rest[-1]:
                    continue  # the same cycle walked the other way
                ring = (first, *rest, first)
                cycle = sum(_line_bit(n, min(u, v), max(u, v)) for u, v in zip(ring, ring[1:]))
                table.append((pairs, cycle))
    return table


def naive_chordal_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Independent chordality oracle over an array of line masks on n
    vertices: a graph is chordal iff no vertex set of size at least four
    induces a cycle through all its vertices (``_cycle_table``)."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"naive chordality supports 1..{MAX_ENUM_VERTICES} vertices")
    cyclic = np.zeros(masks.shape, dtype=bool)
    for pairs, cycle in _cycle_table(n):
        cyclic |= masks & pairs == cycle
    return ~cyclic


def naive_is_chordal(graph: UndirectedGraph) -> bool:
    """``naive_chordal_masks`` for one graph."""
    return bool(naive_chordal_masks(graph.n, np.array([line_mask(graph)]))[0])


def all_undirected(n: int) -> Iterable[UndirectedGraph]:
    """Every labeled undirected graph on n vertices, in line-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield UndirectedGraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def _line_bit(n: int, a: int, b: int) -> int:
    # position of (a, b), a < b, in itertools.combinations(range(n), 2)
    return 1 << (a * (2 * n - a - 1) // 2 + b - a - 1)


def line_mask(g) -> int:
    """Line mask of an undirected or chordal graph, in the pair order of
    ``all_undirected``."""
    m = 0
    for a, b in g.lines:
        m |= _line_bit(g.n, a, b)
    return m


def enumerate_chordal(n: int) -> list[ChordalGraph]:
    """All labeled chordal graphs on n vertices, in line-mask order."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices")
    return [ChordalGraph.from_graph(g) for g in all_undirected(n) if is_chordal(g)]


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
    """Run both chordality oracles over every graph on n vertices: the
    naive side decides all line masks at once, ``is_chordal`` each graph."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"cross-check supports 1..{MAX_ENUM_VERTICES} vertices")
    naive = naive_chordal_masks(n, np.arange(1 << (n * (n - 1) // 2), dtype=np.int64))
    mismatches = []
    checked = 0
    chordal = 0
    for g, slow in zip(all_undirected(n), naive.tolist()):
        checked += 1
        fast = is_chordal(g)
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
    graphs = enumerate_chordal(n)
    masks = [line_mask(cg) for cg in graphs]
    chordal_set = set(masks)
    failures: list = []
    checked = 0
    sampled = 0
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
# the chordal-graph catalogue shared by the sweeps, probe and witness search


class _Records:
    """Catalogue of all chordal graphs on n vertices, in line-mask order,
    shared by the self-checks, the local-optimum sweep and the
    forced-optimum walks.  Per graph: ``masks`` its line mask, rows of
    ``fam`` and ``pa`` the family and parent vertex masks of a perfect
    orientation, ``dims`` its all-binary dimension.

    The boundary moves of all graphs form one flat table, in catalogue
    order and boundary order within a graph: ``src`` the graph's index,
    ``dst`` the result's index (-1 when the result is not chordal),
    ``remove`` the removal flag, endpoints ``a`` and ``b``, and ``stmt``
    the index in ``triples`` of the statement "a independent of b given
    S", S the common neighbors of a and b, keyed as ``(1 << a, 1 << b,
    S)``.  ``statements`` decides each distinct triple once per model."""

    def __init__(self, n: int):
        self.n = n
        self.graphs = enumerate_chordal(n)
        masks = [line_mask(cg) for cg in self.graphs]
        index = {m: i for i, m in enumerate(masks)}
        keys: dict = {}  # (1 << a, 1 << b, S) -> position in triples
        fam, pa, dims, table = [], [], [], []
        for i, (cg, mask) in enumerate(zip(self.graphs, masks)):
            parents = cg.oriented_parent_masks()
            pa.append(parents)
            fam.append([p | 1 << v for v, p in enumerate(parents)])
            dims.append(sum(1 << p.bit_count() for p in parents))
            nbr = cg.graph.neighbor_masks
            for mv in inclusion_boundary(cg):
                bit = _line_bit(n, min(mv.a, mv.b), max(mv.a, mv.b))
                remove = mv.kind == "remove"
                result = mask & ~bit if remove else mask | bit
                key = (1 << mv.a, 1 << mv.b, nbr[mv.a] & nbr[mv.b])
                stmt = keys.setdefault(key, len(keys))
                table.append((i, index.get(result, -1), remove, mv.a, mv.b, stmt))
        self.masks = np.array(masks, dtype=np.int64)
        self.fam = np.array(fam, dtype=np.int64)
        self.pa = np.array(pa, dtype=np.int64)
        self.dims = np.array(dims, dtype=np.int64)
        cols = np.array(table, dtype=np.int64).reshape(len(table), 6).T
        self.src, self.dst, remove, self.a, self.b, self.stmt = cols
        self.remove = remove.astype(bool)
        self.triples = list(keys)

    def statements(self, model: DependencyModel) -> np.ndarray:
        """Per move, whether its statement holds in ``model`` (vertices
        0..n-1 observed)."""
        return np.array(model.independent_table(self.triples), dtype=bool)[self.stmt]

    def forced_optima(self, model: DependencyModel) -> list[int]:
        """Indices, in catalogue order, of the graphs with no boundary move
        forced by ``model``: the local optima of every score locally
        consistent for it.  Such a score prefers removing a-b exactly when
        its statement holds, and adding it exactly when that fails."""
        forced = self.statements(model) == self.remove
        counts = np.bincount(self.src[forced], minlength=len(self.graphs))
        return np.flatnonzero(counts == 0).tolist()

    def oracle_scores(self, entropy: np.ndarray) -> np.ndarray:
        """Every graph's violation weight under the entropy table
        ``entropy`` (``OracleScore.entropy``, the full set its last mask):
        the graph's oracle score is (-weight, -dims)."""
        return entropy[self.fam].sum(1) - entropy[self.pa].sum(1) - entropy[-1]


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
    target: UndirectedGraph, cat: Optional[_Records] = None
) -> SelfCheckReport:
    """Certify the oracle score against ``target`` on all chordal graphs.

    Two families of checks, both against independent oracles:

    * consistency: graphs whose model is included in the target (decided
      by line containment, not by the score: the pairwise reduction
      ``model_included`` rests on for undirected targets) beat every
      non-included graph, and among included graphs lower dimension wins;
    * local consistency: for every legal removal a-b with common neighbor
      set S, the full scores of the two graphs compare as the statement
      "a independent of b given S" (decided by graph separation) demands,
      strictly in both directions.

    ``cat`` is the ``_Records`` catalogue for ``target.n`` (built when
    omitted).  Scores come from ``_Records.oracle_scores`` and ``dims``;
    consistency is one array test per graph, in ``itertools.permutations``
    order, local consistency one over the move table's removals.  A listed
    removal with a non-chordal result raises VerificationError.
    """
    if cat is None:
        cat = _Records(target.n)
    if cat.n != target.n:
        raise ValueError("graph and target have different vertex counts")
    graphs = cat.graphs
    model = DependencyModel.from_undirected(target)
    weight, dims = cat.oracle_scores(OracleScore(target).entropy), cat.dims
    included = (line_mask(target) & ~cat.masks) == 0
    consistency = []
    for i in range(len(graphs)):
        # graph j scores above graph i: lower weight, or equal and smaller
        above = (weight < weight[i]) | ((weight == weight[i]) & (dims < dims[i]))
        if included[i]:
            names, flagged = ("smaller", "larger"), included & (dims < dims[i]) & ~above
        else:
            names, flagged = ("included", "excluded"), included & ~above
        for j in np.flatnonzero(flagged):
            consistency.append(
                {names[0]: graphs[j].fingerprint(), names[1]: graphs[i].fingerprint()}
            )
    removals = np.flatnonzero(cat.remove)
    src, dst = cat.src[removals], cat.dst[removals]
    if (dst < 0).any():
        raise VerificationError("a boundary removal leaves a non-chordal graph")
    holds = cat.statements(model)[removals]
    ws, wd, ds, dd = weight[src], weight[dst], dims[src], dims[dst]
    better = (wd < ws) | ((wd == ws) & (dd < ds))
    worse = (wd > ws) | ((wd == ws) & (dd > ds))
    local = [
        {
            "graph": graphs[src[k]].fingerprint(),
            "move": f"remove {cat.a[removals[k]]} {cat.b[removals[k]]}",
            "statement_holds": bool(holds[k]),
            "score": [-int(ws[k]), -int(ds[k])],
            "removed_score": [-int(wd[k]), -int(dd[k])],
        }
        for k in np.flatnonzero((holds != better) | (holds == worse))
    ]
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
        cat = _Records(n)
        for t in all_undirected(n):
            targets += 1
            rep = oracle_self_check(t, cat)
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
    n: int, targets: Optional[Iterable[UndirectedGraph]] = None
) -> LocalOptimaReport:
    """For every undirected target on n vertices: self-check the oracle
    score, find every local optimum of it over all chordal graphs, and
    require each to be inclusion-optimal for the target.

    Each target scores all graphs with one gather over its set entropies,
    and every test runs on the move table as a whole: a move is better
    when its result's score beats its source's, lexicographically, and a
    graph is a local optimum when none of its moves is better.  Any move
    whose result is not chordal is itself reported as a violation.
    """
    recs = _Records(n)
    tlist = list(targets) if targets is not None else list(all_undirected(n))
    src, dst, dims = recs.src, recs.dst, recs.dims
    legal = dst >= 0
    violations: list = []
    self_check: list = []
    optima = 0
    for t in tlist:
        if t.n != n:
            raise ValueError("target vertex count mismatch")
        model = DependencyModel.from_undirected(t)
        tfp = t.fingerprint()
        weight = recs.oracle_scores(OracleScore(t).entropy)
        included = (line_mask(t) & ~recs.masks) == 0
        for i in np.flatnonzero((weight == 0) != included):
            self_check.append(
                {
                    "target": tfp,
                    "graph": recs.graphs[i].fingerprint(),
                    "violation_weight": int(weight[i]),
                    "included": bool(included[i]),
                }
            )
        for k in np.flatnonzero(~legal):
            kind = "remove" if recs.remove[k] else "add"
            violations.append(
                {
                    "target": tfp,
                    "graph": recs.graphs[src[k]].fingerprint(),
                    "problem": "move result is not chordal",
                    "move": f"{kind} {recs.a[k]} {recs.b[k]}",
                }
            )
        # dst == -1 reads the last graph; legal masks those rows out
        ws, wd = weight[src], weight[dst]
        better = legal & ((wd < ws) | ((wd == ws) & (dims[dst] < dims[src])))
        holds = recs.statements(model)
        for k in np.flatnonzero(recs.remove & legal & (holds != better)):
            self_check.append(
                {
                    "target": tfp,
                    "graph": recs.graphs[src[k]].fingerprint(),
                    "move": f"remove {recs.a[k]} {recs.b[k]}",
                    "statement_holds": bool(holds[k]),
                }
            )
        beaten = np.bincount(src[better], minlength=len(recs.graphs))
        for i in np.flatnonzero(beaten == 0):
            optima += 1
            if not inclusion_optimal(recs.graphs[i], model):
                violations.append(
                    {
                        "target": tfp,
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
        rep = graphoid_report(DependencyModel.from_undirected(g))
        if not rep.all_passed:
            failures.append({"graph": g.fingerprint(), "report": rep.to_dict()})
    collider = DependencyModel.from_dag(Dag(3, [(0, 2), (1, 2)]))
    crep = graphoid_report(collider)
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


def _bfs_layers(g: UndirectedGraph, x: int) -> list[tuple[int, ...]]:
    """Breadth-first distance layers from x, each ascending."""
    masks = g.neighbor_masks
    seen = 1 << x
    layers = [(x,)]
    while True:
        frontier = 0
        for v in layers[-1]:
            frontier |= masks[v]
        frontier &= ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(mask_vertices(frontier))


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
        x = int(rng.integers(nv))
        layers = _bfs_layers(g, x)
        reached = {v for layer in layers for v in layer}
        far = sorted(set(range(nv)) - reached)
        depths = []
        for d in range(3, len(layers) + 1):
            later = [v for j in range(d, len(layers)) for v in layers[j]] + far
            if later:
                depths.append((d, later))
        if not depths:
            continue
        model = DependencyModel.from_undirected(g)
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


def all_dags(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every labeled DAG on n vertices as its sorted arc tuple, ordered by
    arc count then by arcs (``iter_dags`` as a list)."""
    return list(iter_dags(n))


def iter_dags(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """``all_dags(n)`` generated one arc count at a time, so a scan that
    stops early generates no larger count; raises ``ValueError`` above
    ``MAX_DAG_VERTICES`` on the call itself."""
    if n > MAX_DAG_VERTICES:
        raise ValueError(f"DAG enumeration supports at most {MAX_DAG_VERTICES} vertices")
    pairs = list(itertools.combinations(range(n), 2))
    buckets = (_dags_with_arcs(n, pairs, k) for k in range(len(pairs) + 1))
    return itertools.chain.from_iterable(buckets)


def _dags_with_arcs(n: int, pairs: list, k: int) -> list[tuple[tuple[int, int], ...]]:
    """The DAGs on n vertices with exactly k arcs, sorted.  Each vertex
    pair is absent, forward or backward, decided one at a time on
    reachability bitmasks; an arc a->b is tried only when b does not
    already reach a, which cuts a cyclic orientation off at the arc that
    closes its cycle, and a branch ends at k arcs or when too few pairs
    are left to reach k."""
    found = []
    # (pairs decided, arcs so far, down) where down[w] is the mask of w and
    # every vertex it reaches over those arcs
    stack = [(0, (), tuple(1 << w for w in range(n)))]
    while stack:
        i, arcs, down = stack.pop()
        if len(arcs) == k:
            found.append(tuple(sorted(arcs)))
            continue
        if len(pairs) - i < k - len(arcs):
            continue
        u, v = pairs[i]
        stack.append((i + 1, arcs, down))
        for a, b in ((u, v), (v, u)):
            below = down[b]
            if not (below >> a) & 1:
                closure = tuple(m | below if (m >> a) & 1 else m for m in down)
                stack.append((i + 1, arcs + ((a, b),), closure))
    found.sort()
    return found


def _ug_margin_keys(observed: Sequence[int], triples) -> set:
    """Separation answer vectors of every undirected graph on the observed
    vertices, used to skip margins that some undirected graph realizes
    exactly (the undirected sweep covers those targets exhaustively)."""
    return {
        tuple(separated_table(g.neighbor_masks, triples))
        for g in all_undirected(len(observed))
    }


@dataclass(frozen=True)
class WitnessReport:
    found: bool
    targets_scanned: int
    margins_swept: int
    skipped_realizable: int
    arcs: Optional[list] = None
    latent: Optional[int] = None
    graph: Optional[str] = None
    local_optimum_confirmed: Optional[bool] = None
    inclusion_optimal_result: Optional[bool] = None

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
    symmetry makes that lossless for existence).  A chordal graph over the
    observed vertices with no move forced by the margin model
    (``_Records.forced_optima``) that fails inclusion_optimal is a
    witness.  Each margin is a real latent-DAG ``DependencyModel``, keyed
    by its answer vector over the observed triples: margins some
    undirected graph realizes exactly are skipped, since the undirected
    sweep proves those targets clean, and identical answer vectors are
    swept once.

    The first witness in enumeration order is rechecked on a fresh
    margin model before being returned.  Raises ``ValueError`` when
    observed_count + 1 exceeds ``MAX_DAG_VERTICES``.
    """
    n = observed_count + 1
    dags = iter_dags(n)  # first, so an oversized n raises before other work
    latent = n - 1
    observed = tuple(range(observed_count))
    triples = canonical_triples(observed)
    ug_keys = _ug_margin_keys(observed, triples)
    cat = _Records(observed_count)
    seen: set = set()
    scanned = 0
    swept = 0
    skipped = 0
    for arcs in dags:
        scanned += 1
        parmasks = [0] * n
        for u, v in arcs:
            parmasks[v] |= 1 << u
        key = tuple(d_separated_table(parmasks, triples))
        if key in ug_keys:
            skipped += 1
            continue
        if key in seen:
            continue
        seen.add(key)
        swept += 1
        dag = Dag(n, arcs)
        margin = DependencyModel.from_latent_dag(dag, [latent])
        for i in cat.forced_optima(margin):
            cg = cat.graphs[i]
            if inclusion_optimal(cg, margin):
                continue
            real = DependencyModel.from_latent_dag(dag, [latent])
            return WitnessReport(
                True, scanned, swept, skipped,
                arcs=[list(a) for a in arcs],
                latent=latent,
                graph=cg.fingerprint(),
                local_optimum_confirmed=i in cat.forced_optima(real),
                inclusion_optimal_result=inclusion_optimal(cg, real),
            )
    return WitnessReport(False, scanned, swept, skipped)


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
    raised; no claim guarantees this family is clean.  Raises
    ``ValueError`` above ``MAX_DAG_VERTICES``."""
    dags = iter_dags(n)  # first, so an oversized n raises before other work
    cat = _Records(n)
    targets = 0
    optima = 0
    failures = []
    for arcs in dags:
        targets += 1
        model = DependencyModel.from_dag(Dag(n, arcs))
        for i in cat.forced_optima(model):
            optima += 1
            cg = cat.graphs[i]
            if not inclusion_optimal(cg, model):
                failures.append(
                    {"arcs": [list(a) for a in arcs], "graph": cg.fingerprint()}
                )
    return DagProbeReport(n, targets, optima, failures)


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report) -> str:
    doc = asdict(report)
    doc["kind"] = type(report).__name__
    doc["ok"] = report.ok
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
