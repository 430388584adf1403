"""Immutable graph primitives: undirected graphs, chordal graphs with a
perfect ordering certificate, and DAGs.

Vertices are integers 0..n-1.  Undirected edges are called lines and stored
as (a, b) pairs with a < b; directed edges are called arrows and stored as
(parent, child) pairs.  All graph values are immutable and hashable, and
each holds its adjacency in one form, bitmasks: an undirected graph one
neighbor bitmask per vertex next to its sorted lines, a DAG one parent
bitmask per vertex next to its sorted arcs and topological order.  Every
algorithm here runs on those masks, which keep line queries O(1) at the
scale this package targets (n up to a few dozen).

Ordering convention used throughout: a vertex ordering is *perfect* for a
graph when every vertex's earlier-ordered neighbors form a complete
subgraph.  The reverse of such an ordering is a perfect elimination
ordering in the usual sense.  Orienting every line from its earlier to its
later endpoint under a perfect ordering yields an acyclic digraph with no
v-structure (no pair of non-adjacent parents sharing a child).
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Optional, Sequence


class NotChordalError(ValueError):
    """Raised when a chordal graph is required but the input has a
    chordless cycle.  The offending cycle is attached as ``cycle``."""

    def __init__(self, message: str, cycle: tuple[int, ...] = ()):
        super().__init__(message)
        self.cycle = cycle


class CycleError(ValueError):
    """Raised when arrow sets that should be acyclic contain a cycle."""


def _normalize_line(a: int, b: int) -> tuple[int, int]:
    """The line a-b as (min, max) of plain int ids, so a numpy id makes
    no fixed-width mask."""
    a, b = operator.index(a), operator.index(b)
    if a == b:
        raise ValueError(f"self-loop {a}-{b} is not a valid line")
    return (a, b) if a < b else (b, a)


class UndirectedGraph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "lines", "_mask")

    def __init__(self, n: int, lines: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = {_normalize_line(a, b) for a, b in lines}
        mask = [0] * n
        for a, b in norm:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"line {a}-{b} out of range for n={n}")
            mask[a] |= 1 << b
            mask[b] |= 1 << a
        self.n = n
        self.lines: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self._mask = tuple(mask)

    @classmethod
    def empty(cls, n: int) -> "UndirectedGraph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "UndirectedGraph":
        return cls(n, [(a, b) for a in range(n) for b in range(a + 1, n)])

    # -- queries ---------------------------------------------------------

    def has_line(self, a: int, b: int) -> bool:
        a, b = _normalize_line(a, b)
        return 0 <= a and b < self.n and bool(self._mask[a] >> b & 1)

    def neighbors(self, v: int) -> frozenset:
        """Neighbor set of v, built from its bitmask on every call."""
        return frozenset(mask_vertices(self._mask[v]))

    def neighbor_mask(self, v: int) -> int:
        return self._mask[v]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Neighbor bitmask of every vertex, indexed by vertex id."""
        return self._mask

    # -- edits (return new graphs) ---------------------------------------

    def with_line(self, a: int, b: int) -> "UndirectedGraph":
        line = _normalize_line(a, b)
        if self.has_line(*line):
            raise ValueError(f"line {line[0]}-{line[1]} already present")
        return UndirectedGraph(self.n, self.lines + (line,))

    def without_line(self, a: int, b: int) -> "UndirectedGraph":
        line = _normalize_line(a, b)
        if not self.has_line(*line):
            raise ValueError(f"line {line[0]}-{line[1]} not present")
        return UndirectedGraph(self.n, [l for l in self.lines if l != line])

    # -- value semantics ---------------------------------------------------

    # the masks fix n and the lines, so they are the whole value
    def __eq__(self, other: object) -> bool:
        return isinstance(other, UndirectedGraph) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, lines={list(self.lines)})"

    def fingerprint(self) -> str:
        """Canonical one-line text form, stable across runs."""
        return f"n={self.n};" + ",".join(f"{a}-{b}" for a, b in self.lines)

    # -- text serialization ------------------------------------------------

    def to_text(self) -> str:
        out = [f"n {self.n}"]
        out.extend(f"{a} {b}" for a, b in self.lines)
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "UndirectedGraph":
        n, pairs = _parse_graph_text(text)
        return cls(n, pairs)


def _parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not rows or not rows[0].startswith("n "):
        raise ValueError("graph text must start with a 'n <count>' header")
    try:
        n = int(rows[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad vertex count in header: {rows[0]!r}") from exc
    pairs = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge row: {row!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return n, pairs


# ---------------------------------------------------------------------------
# chordality


def maximum_cardinality_order(g: UndirectedGraph) -> tuple[int, ...]:
    """Maximum cardinality search order; ties go to the lowest index.

    Each step selects an unvisited vertex with the most visited neighbors.
    """
    masks = g.neighbor_masks
    weight = [0] * g.n
    seen = 0
    order = []
    for _ in range(g.n):
        v = weight.index(max(weight))  # the first, so the lowest index
        weight[v] = -1  # visited: below every unvisited weight
        seen |= 1 << v
        order.append(v)
        rest = masks[v] & ~seen
        while rest:
            low = rest & -rest
            weight[low.bit_length() - 1] += 1
            rest ^= low
    return tuple(order)


def is_perfect_order(g: UndirectedGraph, order: Sequence[int]) -> bool:
    """True when every vertex's earlier-ordered neighbors are pairwise
    adjacent (so the reversed order is a perfect elimination ordering)."""
    if sorted(order) != list(range(g.n)):
        return False
    seen_mask = 0
    for v in order:
        earlier = g.neighbor_mask(v) & seen_mask
        rest = earlier
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if earlier & ~g.neighbor_mask(u) & ~(1 << u):
                return False
        seen_mask |= 1 << v
    return True


def find_chordless_cycle(g: UndirectedGraph) -> Optional[tuple[int, ...]]:
    """Some chordless cycle of length >= 4, or None if the graph is chordal.

    For every vertex v with two non-adjacent neighbors x, y, search for a
    shortest x-y path through vertices not adjacent to v.  Such a path is
    induced, and closing it through v gives a chordless cycle.  Every
    chordless cycle has this shape around each of its vertices, so the scan
    is exhaustive.
    """
    masks = g.neighbor_masks
    for v in range(g.n):
        nbrs = mask_vertices(masks[v])
        far = ~(masks[v] | 1 << v)  # the vertices not adjacent to v
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                if masks[x] >> y & 1:
                    continue
                path = _shortest_path(masks, x, y, far | 1 << x | 1 << y)
                if path is not None:
                    return (v, *path)
    return None


def _shortest_path(
    masks: Sequence[int], src: int, dst: int, allowed: int
) -> Optional[tuple[int, ...]]:
    """A shortest src-dst path inside the vertex bitmask ``allowed``, or
    None: breadth first, first in first out, neighbors (``masks[v]``) taken
    in ascending order."""
    prev = {src: src}
    seen = 1 << src
    queue = [src]
    for u in queue:  # the loop reaches the vertices appended below
        if u == dst:
            path = [u]
            while u != src:
                u = prev[u]
                path.append(u)
            return tuple(reversed(path))
        new = masks[u] & allowed & ~seen
        seen |= new
        for w in mask_vertices(new):
            prev[w] = u
            queue.append(w)
    return None


def is_chordal(g: UndirectedGraph) -> bool:
    return is_perfect_order(g, maximum_cardinality_order(g))


class ChordalGraph:
    """An undirected chordal graph bundled with a perfect ordering.

    The stored ordering certifies chordality: every vertex's earlier
    neighbors form a complete subgraph.  Construction verifies the
    certificate, so a ChordalGraph value is always actually chordal.
    """

    __slots__ = ("graph", "ordering")

    def __init__(self, graph: UndirectedGraph, ordering: Sequence[int]):
        if not is_perfect_order(graph, ordering):
            raise NotChordalError(
                "ordering is not perfect for the graph", cycle=()
            )
        self.graph = graph
        self.ordering = tuple(ordering)

    @classmethod
    def from_graph(cls, graph: UndirectedGraph) -> "ChordalGraph":
        """``graph`` certified by its maximum cardinality search order;
        raises ``NotChordalError`` with a chordless cycle when that order
        is not perfect."""
        order = maximum_cardinality_order(graph)
        if not is_perfect_order(graph, order):
            cycle = find_chordless_cycle(graph)
            if cycle is None:  # pragma: no cover - would indicate an algorithm bug
                raise AssertionError("search order imperfect but no witness cycle found")
            raise NotChordalError(f"graph has a chordless cycle {cycle}", cycle=cycle)
        # the order has just been verified; skip the re-check that the
        # public constructor makes
        chordal = cls.__new__(cls)
        chordal.graph = graph
        chordal.ordering = order
        return chordal

    @classmethod
    def from_lines(cls, n: int, lines: Iterable[tuple[int, int]] = ()) -> "ChordalGraph":
        return cls.from_graph(UndirectedGraph(n, lines))

    @classmethod
    def empty(cls, n: int) -> "ChordalGraph":
        return cls(UndirectedGraph.empty(n), tuple(range(n)))

    # passthroughs for the common read-only queries

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def lines(self) -> tuple[tuple[int, int], ...]:
        return self.graph.lines

    def has_line(self, a: int, b: int) -> bool:
        return self.graph.has_line(a, b)

    def oriented_parent_masks(self) -> tuple[int, ...]:
        """Parent bitmasks induced by the stored ordering: parents of v are
        its earlier-ordered neighbors.  Indexed by vertex id."""
        return _earlier_neighbors(self.graph.neighbor_masks, self.ordering)

    def __eq__(self, other: object) -> bool:
        # graphs compare by structure; the certificate ordering is not part
        # of the value
        return isinstance(other, ChordalGraph) and self.graph == other.graph

    def __hash__(self) -> int:
        return hash(("chordal", self.graph))

    def __repr__(self) -> str:
        return f"ChordalGraph({self.graph!r}, ordering={self.ordering})"

    def fingerprint(self) -> str:
        return self.graph.fingerprint()

    def to_text(self) -> str:
        return self.graph.to_text()

    @classmethod
    def from_text(cls, text: str) -> "ChordalGraph":
        return cls.from_graph(UndirectedGraph.from_text(text))


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask with bit v set for every vertex v of ``vertices``; ids go
    through ``operator.index``, so a numpy integer shifts as a Python int
    (a fixed-width shift by 64 or more would give 0)."""
    mask = 0
    for v in vertices:
        mask |= 1 << operator.index(v)
    return mask


def mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices of the bitmask ``mask``, ascending."""
    if mask < 0:
        raise ValueError(f"vertex bitmask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def reach(masks: Sequence[int], src: int, blocked: int) -> int:
    """Bitmask of the vertices reachable from the vertex bitmask ``src``.

    ``masks[v]`` is the bitmask of the vertices one step from v.  Paths
    never enter a vertex in the ``blocked`` bitmask; the source vertices
    themselves are always in the result.
    """
    seen = frontier = src
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen & ~blocked
        seen |= frontier
    return seen


def is_complete_mask(masks: Sequence[int], s: int) -> bool:
    """True when the vertices of the bitmask ``s`` are pairwise adjacent,
    ``masks[v]`` being the neighbor bitmask of v."""
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        if rest & ~masks[low.bit_length() - 1]:
            return False
    return True


def removal_keeps_chordal(g: ChordalGraph, a: int, b: int) -> bool:
    """True when removing the present line a-b leaves ``g`` chordal.

    The test is necessary and sufficient: the endpoints' common neighbors
    must be pairwise adjacent.  Two non-adjacent common neighbors would
    close a chordless 4-cycle once the line is gone, and conversely any
    new chordless cycle would force such a pair."""
    masks = g.graph.neighbor_masks
    return is_complete_mask(masks, masks[a] & masks[b])


# ---------------------------------------------------------------------------
# DAGs


class Dag:
    """An immutable directed acyclic graph stored as one parent bitmask per
    vertex, with its sorted arcs and topological order derived once."""

    __slots__ = ("n", "parent_masks", "arcs", "_topo")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arcs = [(operator.index(u), operator.index(v)) for u, v in arcs]  # no fixed-width masks
        masks = [0] * n
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arrow {u}->{v}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arrow {u}->{v} out of range for n={n}")
            masks[v] |= 1 << u
        # a two-cycle is named first: the first arc whose reverse is listed
        for u, v in arcs:
            if masks[u] >> v & 1:
                raise CycleError(f"two-cycle between {u} and {v}")
        self._derive(n, tuple(masks))

    def _derive(self, n: int, masks: tuple[int, ...]) -> "Dag":
        """Store ``masks`` and what follows from them, the arcs sorted and
        the topological order of Kahn's algorithm (first in first out, each
        vertex's children taken in ascending order), and return the DAG.
        Raises ``CycleError`` when the masks hold a directed cycle."""
        children = [[] for _ in range(n)]  # each ascending, as v ascends
        for v, m in enumerate(masks):
            for u in mask_vertices(m):
                children[u].append(v)
        order = [v for v in range(n) if not masks[v]]
        done = 0
        for u in order:  # the loop reaches the vertices appended below
            done |= 1 << u
            for c in children[u]:
                if not masks[c] & ~done:  # u was c's last parent to be done
                    order.append(c)
        if len(order) != n:
            raise CycleError("arrow set contains a directed cycle")
        self.n = n
        # parent bitmask of every vertex, indexed by vertex id
        self.parent_masks = masks
        self.arcs = tuple((u, c) for u in range(n) for c in children[u])
        self._topo = tuple(order)
        return self

    @property
    def parents(self) -> tuple[frozenset, ...]:
        """Parent set of every vertex, built from its bitmask on every call."""
        return tuple(frozenset(mask_vertices(m)) for m in self.parent_masks)

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def has_arc(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)  # no fixed-width masks
        n = self.n
        return 0 <= u < n and 0 <= v < n and bool(self.parent_masks[v] >> u & 1)

    def with_arc(self, u: int, v: int) -> "Dag":
        u, v = operator.index(u), operator.index(v)  # no fixed-width masks
        n = self.n
        if u == v or not (0 <= u < n and 0 <= v < n) or self.parent_masks[u] >> v & 1:
            return Dag(n, self.arcs + ((u, v),))  # raises, naming the bad arrow
        masks = list(self.parent_masks)
        masks[v] |= 1 << u
        return _dag_of_masks(n, masks)

    def without_arc(self, u: int, v: int) -> "Dag":
        u, v = operator.index(u), operator.index(v)
        if not self.has_arc(u, v):
            raise ValueError(f"arrow {u}->{v} not present")
        masks = list(self.parent_masks)
        masks[v] ^= 1 << u
        return _dag_of_masks(self.n, masks)

    def reachable_from(self, v: int) -> set:
        """Vertices reachable along arrows starting at v (excluding v
        unless it lies on a cycle, which cannot happen here).

        The search does not call this: ``search._dag_move_table`` decides
        legality from descendant bitmasks.  It is kept as the plain
        reachability oracle for tests and as a named trace point."""
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in range(self.n):
                if self.parent_masks[c] >> u & 1 and c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    # the masks fix n and the arcs, so they are the whole value
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.parent_masks == other.parent_masks

    def __hash__(self) -> int:
        return hash(self.parent_masks)

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, arcs={list(self.arcs)})"

    def to_text(self) -> str:
        out = [f"n {self.n}"]
        out.extend(f"{u} {v}" for u, v in self.arcs)
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dag":
        n, pairs = _parse_graph_text(text)
        return cls(n, pairs)


def _dag_of_masks(n: int, masks: Sequence[int]) -> Dag:
    """The DAG of parent bitmasks known to be in range, checked only for acyclicity."""
    return Dag.__new__(Dag)._derive(n, tuple(masks))


def _earlier_neighbors(masks: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Per vertex v, the bitmask of its neighbors (``masks[v]``) before it in ``order``."""
    parents = [0] * len(masks)
    earlier = 0
    for v in order:
        parents[v] = masks[v] & earlier
        earlier |= 1 << v
    return tuple(parents)


def orient_by_ordering(g: ChordalGraph, order: Sequence[int]) -> Dag:
    """Direct every line of ``g`` from its earlier to its later endpoint.

    The order must be perfect for the graph; the result then has no
    v-structure and its d-separation model coincides with the separation
    model of the undirected graph.
    """
    if not is_perfect_order(g.graph, order):
        raise ValueError("ordering is not perfect for the graph")
    return _dag_of_masks(g.n, _earlier_neighbors(g.graph.neighbor_masks, order))


def moralize(d: Dag) -> UndirectedGraph:
    """Drop arrow directions and marry every pair of co-parents."""
    adj = _moral_masks(d.parent_masks, (1 << d.n) - 1)
    return UndirectedGraph(d.n, [(a, b) for a, m in enumerate(adj) for b in mask_vertices(m)])


def min_fill_chordalize(
    g: UndirectedGraph,
) -> tuple[ChordalGraph, tuple[tuple[int, int], ...]]:
    """Triangulate by greedy minimum fill-in; ties go to the lowest vertex.

    Returns the filled chordal graph (already chordal inputs come back
    unchanged with an empty fill list) and the added lines, in the order
    they were added: per eliminated vertex, its non-adjacent neighbor pairs
    (a, b), a < b, ascending.  The reverse of the elimination sequence is a
    perfect ordering of the filled graph.
    """
    adj = list(g.neighbor_masks)  # among the vertices not yet eliminated
    fills: list[tuple[int, int]] = []
    elim: list[int] = []
    remaining = (1 << g.n) - 1
    while remaining:
        best_v, best_count = -1, -1
        for v in mask_vertices(remaining):
            # -(2 << a) is the mask of every vertex above a
            count = sum(
                (adj[v] & ~adj[a] & -(2 << a)).bit_count() for a in mask_vertices(adj[v])
            )
            if best_count < 0 or count < best_count:
                best_v, best_count = v, count
        nbrs = mask_vertices(adj[best_v])
        for a in nbrs:
            for b in mask_vertices(adj[best_v] & ~adj[a] & -(2 << a)):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                fills.append((a, b))
        for u in nbrs:
            adj[u] ^= 1 << best_v
        remaining ^= 1 << best_v
        elim.append(best_v)
    filled = UndirectedGraph(g.n, list(g.lines) + fills)
    ordering = tuple(reversed(elim))
    return ChordalGraph(filled, ordering), tuple(fills)


# ---------------------------------------------------------------------------
# separation


def separated(
    g: UndirectedGraph, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()
) -> bool:
    """Undirected separation: every path from ``a`` to ``b`` meets ``c``."""
    masks = [0, 0, 0]
    for i, (label, vertices) in enumerate((("a", a), ("b", b), ("c", c))):
        for v in map(operator.index, vertices):
            if not 0 <= v < g.n:
                raise ValueError(f"{label} contains out-of-range vertex {v}")
            masks[i] |= 1 << v
    ma, mb, mc = masks
    if not ma or not mb:
        raise ValueError("both endpoint sets must be nonempty")
    if ma & mb or ma & mc or mb & mc:
        raise ValueError("the three vertex sets must be pairwise disjoint")
    return not reach(g.neighbor_masks, ma, mc) & mb


def separated_table(masks: Sequence[int], triples: Iterable[tuple[int, int, int]]) -> list:
    """For each (a, b, c) of ``triples``, whether the vertex bitmask ``c``
    separates ``a`` from ``b`` in the graph of neighbor bitmasks ``masks``:
    one ``reach`` per distinct (a, c), kept for the call only, with no
    per-statement validation."""
    reached = functools.cache(lambda a, c: reach(masks, a, c))
    return [not reached(a, c) & b for a, b, c in triples]


def _moral_masks(parent_masks: Sequence[int], anc: int) -> list:
    """Neighbor bitmasks of the moral graph of the subgraph induced on the
    ancestral vertex bitmask ``anc``."""
    adj = [0] * len(parent_masks)
    for v in mask_vertices(anc):
        ps = parent_masks[v]  # inside anc: it is ancestral
        adj[v] |= ps
        for p in mask_vertices(ps):
            # marry p to its child and to every co-parent
            adj[p] |= (1 << v) | (ps ^ 1 << p)
    return adj


def d_separated_table(
    parent_masks: Sequence[int], triples: Iterable[tuple[int, int, int]]
) -> list:
    """For each (a, b, c) of ``triples``, whether the disjoint vertex
    bitmasks a and b (nonempty) are d-separated by c, ``parent_masks[v]``
    being the parent bitmask of v: by the ancestral-moral criterion
    (Lauritzen, Dawid, Larsen & Leimer, Networks 1990), whether c separates
    them in the moral graph of the ancestral closure of a | b | c.  That
    closure is taken once per distinct union and its moral graph built once
    per distinct closure, so each statement costs one ``reach``."""
    anc_of: dict = {}  # A ∪ B ∪ C -> its ancestral closure
    moral_of: dict = {}  # ancestral set -> its moral graph
    out = []
    for a, b, c in triples:
        union = a | b | c
        anc = anc_of.get(union)
        if anc is None:
            anc = anc_of[union] = reach(parent_masks, union, 0)
        adj = moral_of.get(anc)
        if adj is None:
            adj = moral_of[anc] = _moral_masks(parent_masks, anc)
        out.append(not reach(adj, a, c) & b)
    return out
