"""Shared independent oracles and generators for the test suite.

The oracles here deliberately avoid the library's own algorithms:
chordality goes through networkx or a search over vertex subsets,
separation through explicit path enumeration, and d-separation through a
from-scratch ancestral-moral construction, so that agreement between the
two sides is evidence rather than tautology.  The exceptions lean on the
library and say so: ``random_chordal_graph``, and ``d_separated`` and
``enumerate_independencies``, the set-argument front ends that tests use
over the mask kernels.
"""

import itertools

import networkx as nx
import numpy as np

from chordalearn.graphs import Dag, UndirectedGraph, d_separated_masks, mask_vertices
from chordalearn.graphs import reach, vertex_mask
from chordalearn.independence import ENUMERATION_BOUND, IndependenceStatement
from chordalearn.independence import _check_bound, canonical_triples


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


def d_separated(d: Dag, a, b, c=()) -> bool:
    """d-separation of vertex collections, decided by the library's
    ``d_separated_masks`` (disjoint sets, ``a`` and ``b`` nonempty)."""
    return d_separated_masks(d.parent_masks, vertex_mask(a), vertex_mask(b), vertex_mask(c))


def enumerate_independencies(m, bound: int = ENUMERATION_BOUND) -> set:
    """All true canonical statements of the ``DependencyModel`` over its
    observed vertices, as ``IndependenceStatement`` values.  Exhaustive,
    so the observed count is bounded by ``bound``."""
    _check_bound(m.observed, bound)
    return {
        IndependenceStatement(*map(mask_vertices, t))
        for t in canonical_triples(m.observed)
        if m.independent_masks(*t)
    }


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
