"""Shared independent oracles and generators for the test suite.

The oracles here deliberately avoid the library's own algorithms:
chordality goes through networkx or a search over vertex subsets,
separation through explicit path enumeration, and d-separation through a
from-scratch ancestral-moral construction, so that agreement between the
two sides is evidence rather than tautology.  The exceptions lean on the
library and say so: ``random_chordal_graph``, ``d_separated_masks``,
the one-statement d-separation that the batch ``d_separated_table`` is
checked against, ``d_separated`` and ``enumerate_independencies``, the
set-argument front ends that tests use over the mask kernels,
``ref_model_included`` and ``ref_inclusion_optimal``, the
one-statement-at-a-time model comparison that ``model_included`` and
``inclusion_optimal`` batch, ``ref_chain_disjunction_holds``, the
one-statement-at-a-time chain rule that ``chain_disjunction_holds``
batches, ``table_score``, the one-table BDeu kernel
that every local score must equal bit for bit, and ``line_delta``,
``move_delta`` and ``per_move_greedy_chordal``, the one-move-at-a-time
scoring path that the chordal search batches, ``addition_keeps_chordal``,
the one-``reach``-per-pair legality rule that the boundary's components
decide, and ``oriented_parents``.  The ``ref_`` graph algorithms are the
set-based versions that the bitmask ones in ``graphs`` replaced, kept so
that each mask version can be checked to give the same witnesses, fills
and orders.
"""

import functools
import itertools
import math
from collections import deque

import networkx as nx
import numpy as np
from scipy.special import gammaln

from chordalearn.graphs import ChordalGraph, Dag, UndirectedGraph, _moral_masks, _normalize_line
from chordalearn.graphs import mask_vertices, reach, removal_keeps_chordal, vertex_mask
from chordalearn.independence import ENUMERATION_BOUND, DependencyModel
from chordalearn.independence import IndependenceStatement, _check_bound, canonical_triples
from chordalearn.scoring import ScoreCache, _resolve_cache
from chordalearn.search import Move, apply_move, inclusion_boundary


def to_nx(g: UndirectedGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.lines)
    return h


def nx_is_chordal(g: UndirectedGraph) -> bool:
    return nx.is_chordal(to_nx(g))


def subset_is_chordal(graph: UndirectedGraph) -> bool:
    """Chordality oracle: search all vertex subsets of size at least four
    for one inducing a cycle (2-regular and connected)."""
    n = graph.n
    for size in range(4, n + 1):
        for sub in itertools.combinations(range(n), size):
            smask = vertex_mask(sub)
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


def path_separated(g: UndirectedGraph, a, b, c) -> bool:
    """True iff every path from a-side to b-side passes through c.

    Plain depth-first search over vertices outside c; independent of the
    component-labelling used by the library.
    """
    a, b, c = set(a), set(b), set(c)
    blocked = c
    stack = list(a - blocked)
    seen = set(stack)
    while stack:
        v = stack.pop()
        if v in b:
            return False
        for w in g.neighbors(v):
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return True


def naive_d_separated(d: Dag, a, b, c) -> bool:
    """Ancestral-moral oracle built directly on networkx primitives."""
    a, b, c = set(a), set(b), set(c)
    keep = set()
    frontier = list(a | b | c)
    while frontier:
        v = frontier.pop()
        if v in keep:
            continue
        keep.add(v)
        frontier.extend(d.parents[v])
    h = nx.Graph()
    h.add_nodes_from(keep)
    for v in keep:
        ps = [p for p in d.parents[v] if p in keep]
        for p in ps:
            h.add_edge(p, v)
        for p, q in itertools.combinations(ps, 2):
            h.add_edge(p, q)
    h.remove_nodes_from(c)
    for x in a:
        if x not in h:
            continue
        reach = nx.node_connected_component(h, x)
        if reach & b:
            return False
    return True


def d_separated_masks(parent_masks, a: int, b: int, c: int) -> bool:
    """d-separation of the vertex bitmasks ``a`` and ``b`` given ``c``,
    one statement at a time: C separates A from B in the moral graph of
    the subgraph induced on the ancestors of A, B and C, built afresh from
    the library's ``_moral_masks`` and ``reach`` (disjoint masks, ``a``
    and ``b`` nonempty)."""
    adj = _moral_masks(parent_masks, reach(parent_masks, a | b | c, 0))
    return not reach(adj, a, c) & b


def d_separated(d: Dag, a, b, c=()) -> bool:
    """d-separation of vertex collections, decided by the library's
    ``d_separated_masks`` (disjoint sets, ``a`` and ``b`` nonempty)."""
    return d_separated_masks(d.parent_masks, vertex_mask(a), vertex_mask(b), vertex_mask(c))


def enumerate_independencies(m, bound: int = ENUMERATION_BOUND) -> set:
    """All true canonical statements of the ``DependencyModel`` over its
    observed vertices, as ``IndependenceStatement`` values.  Exhaustive,
    so the observed count is bounded by ``bound``."""
    _check_bound(m.observed, bound)
    triples = canonical_triples(m.observed)
    return {
        IndependenceStatement(*map(mask_vertices, t))
        for t, holds in zip(triples, m.independent_table(triples))
        if holds
    }


def ref_enumerate_independencies(m) -> set:
    """``enumerate_independencies`` by one validated ``independent`` query
    per canonical statement, listed by a product over vertex roles."""
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


def ref_model_included(g: ChordalGraph, target):
    """``model_included`` one validated statement at a time: the
    full-conditioning pairs of g's non-adjacent pairs for undirected and
    DAG targets, every separation of g in statement order otherwise."""
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
    for stmt in separations_in_order(graph):
        if not holds(target, stmt):
            return False, stmt
    return True, None


@functools.cache
def separations_in_order(graph: UndirectedGraph) -> list:
    """Every separation statement of the graph, in statement order, by
    ``ref_enumerate_independencies``; listed once per graph."""
    own = DependencyModel.from_undirected(graph)
    return sorted(ref_enumerate_independencies(own), key=lambda s: (s.a, s.b, s.c))


def ref_inclusion_optimal(g: ChordalGraph, target, included=ref_model_included) -> bool:
    """``inclusion_optimal`` one subgraph at a time: g is included, and no
    single-line removal that keeps g chordal gives an included graph, each
    rebuilt and compared afresh by ``included`` (``ref_model_included``
    unless given)."""
    if not included(g, target)[0]:
        return False
    for a, b in g.lines:
        if removal_keeps_chordal(g, a, b) and included(
            ChordalGraph.from_graph(g.graph.without_line(a, b)), target
        )[0]:
            return False
    return True


def ref_chain_disjunction_holds(m, chain) -> bool:
    """``chain_disjunction_holds`` one validated ``independent`` call at a
    time, premise first and stopping at the first answer that decides;
    so an unobserved vertex in a set it never reaches goes unchecked."""
    sets = [tuple(sorted(set(s))) for s in chain]
    if len(sets) < 4:
        raise ValueError("chain needs at least four sets (n >= 3)")
    if len(sets[0]) != 1 or len(sets[-1]) != 1:
        raise ValueError("chain ends must be singleton sets")
    if any(not s for s in sets):
        raise ValueError("chain sets must be nonempty")
    seen: set = set()
    for s in sets:
        if seen & set(s):
            raise ValueError("chain sets must be pairwise disjoint")
        seen |= set(s)
    for i in range(1, len(sets) - 1):
        if not m.independent(sets[i - 1], sets[i + 1], sets[i]):
            return True  # premise fails: vacuous
    x = sets[0]
    y = sets[-1]
    for i in range(1, len(sets) - 1):
        if m.independent(x, sets[i]):
            return True
    return m.independent(x, y, sets[-2])


def all_graphs(n: int):
    """Every labelled undirected graph on n vertices, line-mask order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield UndirectedGraph(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def random_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> UndirectedGraph:
    lines = [
        (a, b)
        for a, b in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return UndirectedGraph(n, lines)


def random_chordal_graph(n: int, rng: np.random.Generator, tries: int = 60) -> UndirectedGraph:
    """Grow a chordal graph by repeated legal line additions.

    The one helper here that leans on the library: adding a-b keeps a
    chordal graph chordal iff the common neighbors of a and b separate
    them, decided with ``reach`` on neighbor masks (the criterion is
    checked against chordality testing in
    ``test_additions_accepted_iff_chordal_exhaustively_n5``, and the draws
    against networkx in ``TestRandomChordalGraph``).
    """
    masks = [0] * n
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(tries):
        a, b = pairs[rng.integers(len(pairs))]
        if masks[a] >> b & 1:
            continue
        if not reach(masks, 1 << a, masks[a] & masks[b]) >> b & 1:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return UndirectedGraph(n, [(a, b) for a, b in pairs if masks[a] >> b & 1])


def random_dag(n: int, rng: np.random.Generator, p: float = 0.4) -> Dag:
    order = rng.permutation(n)
    arcs = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p:
            arcs.append((int(order[i]), int(order[j])))
    return Dag(n, arcs)


def statement_string(s) -> str:
    """An ``IndependenceStatement`` as ``a|b|c``, each set comma-separated
    in canonical order (``0,1|2|3``)."""
    return "|".join(",".join(str(x) for x in xs) for xs in (s.a, s.b, s.c))


def holds(model, s) -> bool:
    """Does the ``DependencyModel`` assert the ``IndependenceStatement``?"""
    return model.independent(s.a, s.b, s.c)


def joint_table(net) -> np.ndarray:
    """Exact joint distribution of a ``DiscreteBayesNet`` over its
    ``joint_rows()`` order."""
    return np.exp(net.log_prob_rows(net.joint_rows()))


def table_score(table: np.ndarray, r: int, ess: float) -> float:
    """BDeu local score of one dense family table in the child-first cell
    layout (cell child + r * configuration, parents sorted, the lowest
    varying fastest): its nonzero cells in ascending code order and its
    nonzero configuration totals in ascending order, each side summed by
    ``ndarray.sum``.  The library's batched kernel must give this float
    for every family, whichever way it was counted."""
    rq = table.size
    q = rq // r
    counts = table[table > 0]
    n_cfg = table.reshape(q, r).sum(axis=1)
    a_cell = ess / rq
    a_cfg = ess / q
    total = float((gammaln(a_cell + counts) - gammaln(a_cell)).sum())
    total += float((gammaln(a_cfg) - gammaln(a_cfg + n_cfg[n_cfg > 0])).sum())
    return total


def line_delta(cache: ScoreCache, g: ChordalGraph, move) -> float:
    """Score change of a single-line edit, new minus old, from two
    ``ScoreCache.local_score`` calls, without checking that the edit is
    legal.

    Let S be the common neighbors of the endpoints (unaffected by the edit
    itself).  Both the edited and the original graph admit perfect
    orderings that differ only at one endpoint's parent set, so the score
    difference collapses to two local terms at the higher endpoint:
    removal scores f(b, S) - f(b, S + {a}); addition is the negation.
    """
    lo, child = sorted((move.a, move.b))
    masks = g.graph.neighbor_masks
    s = masks[lo] & masks[child]
    added = cache.local_score(child, mask_vertices(s | 1 << lo))
    d = added - cache.local_score(child, mask_vertices(s))
    return d if move.kind == "add" else -d


def move_delta(g: ChordalGraph, move, data, ess: float = 1.0, cache=None) -> float:
    """Score change of a legal single-line edit, new minus old (see
    ``line_delta``).  Illegal moves (edits whose result is not chordal,
    or edits of absent/present lines) are rejected."""
    cache = _resolve_cache(data, ess, cache)
    a, b = move.a, move.b
    if move.kind == "remove":
        if not g.has_line(a, b):
            raise ValueError(f"line {a}-{b} not present")
        if not removal_keeps_chordal(g, a, b):
            raise ValueError(f"removing {a}-{b} breaks chordality")
    elif move.kind == "add":
        if g.has_line(a, b):
            raise ValueError(f"line {a}-{b} already present")
        if not addition_keeps_chordal(g, a, b):
            raise ValueError(f"adding {a}-{b} breaks chordality")
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return line_delta(cache, g, move)


def per_move_greedy_chordal(data, ess: float = 1.0):
    """The BDeu chordal search from the empty graph, one move at a time:
    each line delta is memoized by (a, b, S) and a miss is computed by
    ``line_delta``, and the first strictly best listed move is taken.
    Returns the final graph, the start score, the steps as (move, delta,
    total, fingerprint) and the ``ScoreCache`` it filled, one
    ``local_score`` call at a time."""
    cache = ScoreCache(data, ess)
    g = ChordalGraph.empty(data.n_vars)
    start = total = math.fsum(cache.local_score(v, ()) for v in range(g.n))
    memo = {}
    steps = []
    while True:
        masks = g.graph.neighbor_masks
        best, best_total = None, total
        for move in inclusion_boundary(g):
            key = (move.a, move.b, masks[move.a] & masks[move.b])
            if key not in memo:
                memo[key] = line_delta(cache, g, Move("add", move.a, move.b))
            cand = total + (memo[key] if move.kind == "add" else -memo[key])
            if cand > best_total:
                best, best_total = move, cand
        if best is None:
            return g, start, steps, cache
        g = apply_move(g, best)
        steps.append((best, best_total - total, best_total, g.fingerprint()))
        total = best_total


def addition_keeps_chordal(g: ChordalGraph, a: int, b: int) -> bool:
    """True when adding the absent line a-b leaves ``g`` chordal.

    For a chordal graph this holds exactly when the common neighbors of a
    and b separate a from b (Giudici & Green, Biometrika 1999; Deshpande,
    Garofalakis & Jordan, UAI 2001): a path avoiding them would close a
    chordless cycle through the new line.  One ``reach`` per pair, the
    rule the search's per-component boundary is checked against.
    """
    masks = g.graph.neighbor_masks
    return not (reach(masks, 1 << a, masks[a] & masks[b]) >> b) & 1


def oriented_parents(cg: ChordalGraph) -> tuple[frozenset, ...]:
    """``ChordalGraph.oriented_parent_masks`` as vertex sets."""
    return tuple(frozenset(mask_vertices(m)) for m in cg.oriented_parent_masks())


def ref_find_chordless_cycle(g: UndirectedGraph):
    """``graphs.find_chordless_cycle`` on vertex sets and a deque."""
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                if g.has_line(x, y):
                    continue
                allowed = (set(range(g.n)) - set(nbrs) - {v}) | {x, y}
                path = ref_shortest_path(g, x, y, allowed)
                if path is not None:
                    return (v, *path)
    return None


def ref_shortest_path(g: UndirectedGraph, src: int, dst: int, allowed: set):
    """Breadth-first search through ``allowed`` with a deque, neighbors in
    the iteration order of ``g.neighbors`` (ascending for n <= 8)."""
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return tuple(reversed(path))
        for w in g.neighbors(u):
            if w in allowed and w not in prev:
                prev[w] = u
                queue.append(w)
    return None


def ref_min_fill_chordalize(g: UndirectedGraph):
    """``graphs.min_fill_chordalize`` on a dict of neighbor sets: returns
    the filled graph's lines, the fills in order and the ordering."""
    nbr = {v: set(g.neighbors(v)) for v in range(g.n)}
    fills, elim = [], []
    remaining = set(range(g.n))
    while remaining:
        best_v, best_missing, best_count = -1, [], None
        for v in sorted(remaining):
            vs = sorted(nbr[v])
            missing = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :] if b not in nbr[a]]
            if best_count is None or len(missing) < best_count:
                best_count, best_v, best_missing = len(missing), v, missing
        for a, b in best_missing:
            nbr[a].add(b)
            nbr[b].add(a)
            fills.append(_normalize_line(a, b))
        for u in nbr[best_v]:
            nbr[u].discard(best_v)
        del nbr[best_v]
        remaining.discard(best_v)
        elim.append(best_v)
    lines = tuple(sorted(set(g.lines) | set(fills)))
    return lines, tuple(fills), tuple(reversed(elim))


def ref_topological_order(d: Dag) -> tuple:
    """Kahn's algorithm on child lists and a deque, children in ``d.arcs``
    order (ascending), sources ascending."""
    indeg = [len(p) for p in d.parents]
    children = [[] for _ in range(d.n)]
    for u, v in d.arcs:
        children[u].append(v)
    queue = deque(v for v in range(d.n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    assert len(order) == d.n
    return tuple(order)


def ref_mask_vertices(mask: int) -> tuple:
    """``graphs.mask_vertices`` by testing every bit below the highest."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
