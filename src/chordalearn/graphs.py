"""Immutable graph primitives: undirected graphs, chordal graphs with a
perfect ordering certificate, and DAGs.

Vertices are integers 0..n-1.  Undirected edges are called lines and stored
as (a, b) pairs with a < b; directed edges are called arrows and stored as
(parent, child) pairs.  All graph values are immutable and hashable, with a
dense neighbor representation (frozensets plus bitmasks), which keeps line
queries O(1) at the scale this package targets (n up to a few dozen).

Ordering convention used throughout: a vertex ordering is *perfect* for a
graph when every vertex's earlier-ordered neighbors form a complete
subgraph.  The reverse of such an ordering is a perfect elimination
ordering in the usual sense.  Orienting every line from its earlier to its
later endpoint under a perfect ordering yields an acyclic digraph with no
v-structure (no pair of non-adjacent parents sharing a child).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    if a == b:
        raise ValueError(f"self-loop {a}-{b} is not a valid line")
    return (a, b) if a < b else (b, a)


class UndirectedGraph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "lines", "_line_set", "_nbr", "_mask", "_hash")

    def __init__(self, n: int, lines: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = {_normalize_line(a, b) for a, b in lines}
        for a, b in norm:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"line {a}-{b} out of range for n={n}")
        self.n = n
        self.lines: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self._line_set = frozenset(self.lines)
        nbr = [set() for _ in range(n)]
        for a, b in self.lines:
            nbr[a].add(b)
            nbr[b].add(a)
        self._nbr = tuple(frozenset(s) for s in nbr)
        mask = [0] * n
        for a, b in self.lines:
            mask[a] |= 1 << b
            mask[b] |= 1 << a
        self._mask = tuple(mask)
        self._hash = hash((n, self._line_set))

    @classmethod
    def empty(cls, n: int) -> "UndirectedGraph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "UndirectedGraph":
        return cls(n, [(a, b) for a in range(n) for b in range(a + 1, n)])

    # -- queries ---------------------------------------------------------

    def has_line(self, a: int, b: int) -> bool:
        return _normalize_line(a, b) in self._line_set

    def neighbors(self, v: int) -> frozenset:
        return self._nbr[v]

    def neighbor_mask(self, v: int) -> int:
        return self._mask[v]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Neighbor bitmask of every vertex, indexed by vertex id."""
        return self._mask

    def common_neighbors(self, a: int, b: int) -> frozenset:
        return self._nbr[a] & self._nbr[b]

    # -- edits (return new graphs) ---------------------------------------

    def with_line(self, a: int, b: int) -> "UndirectedGraph":
        line = _normalize_line(a, b)
        if line in self._line_set:
            raise ValueError(f"line {line[0]}-{line[1]} already present")
        return UndirectedGraph(self.n, self.lines + (line,))

    def without_line(self, a: int, b: int) -> "UndirectedGraph":
        line = _normalize_line(a, b)
        if line not in self._line_set:
            raise ValueError(f"line {line[0]}-{line[1]} not present")
        return UndirectedGraph(self.n, self._line_set - {line})

    def induced(self, vertices: Iterable[int]) -> "UndirectedGraph":
        """Subgraph induced on ``vertices``, keeping original labels.

        Vertices outside the set become isolated."""
        keep = set(vertices)
        return UndirectedGraph(
            self.n, [l for l in self.lines if l[0] in keep and l[1] in keep]
        )

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self.n == other.n
            and self._line_set == other._line_set
        )

    def __hash__(self) -> int:
        return self._hash

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


@dataclass(frozen=True)
class ChordalityResult:
    """Outcome of a chordality test: a perfect ordering when the graph is
    chordal, otherwise a witness chordless cycle (length >= 4)."""

    ordering: Optional[tuple[int, ...]]
    chordless_cycle: Optional[tuple[int, ...]]

    @property
    def is_chordal(self) -> bool:
        return self.ordering is not None


def maximum_cardinality_order(g: UndirectedGraph) -> tuple[int, ...]:
    """Maximum cardinality search order; ties go to the lowest index.

    Each step selects an unvisited vertex with the most visited neighbors.
    """
    weight = [0] * g.n
    visited = [False] * g.n
    order = []
    for _ in range(g.n):
        v = -1
        best = -1
        for u in range(g.n):
            if not visited[u] and weight[u] > best:
                best = weight[u]
                v = u
        visited[v] = True
        order.append(v)
        for u in g.neighbors(v):
            if not visited[u]:
                weight[u] += 1
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
    for v in range(g.n):
        nbrs = sorted(g.neighbors(v))
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1 :]:
                if g.has_line(x, y):
                    continue
                allowed = (set(range(g.n)) - set(nbrs) - {v}) | {x, y}
                path = _shortest_path(g, x, y, allowed)
                if path is not None:
                    return (v, *path)
    return None


def _shortest_path(
    g: UndirectedGraph, src: int, dst: int, allowed: set
) -> Optional[tuple[int, ...]]:
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


def check_chordality(g: UndirectedGraph) -> ChordalityResult:
    """Test chordality; return a perfect ordering or a witness cycle."""
    order = maximum_cardinality_order(g)
    if is_perfect_order(g, order):
        return ChordalityResult(ordering=order, chordless_cycle=None)
    cycle = find_chordless_cycle(g)
    if cycle is None:  # pragma: no cover - would indicate an algorithm bug
        raise AssertionError("search order imperfect but no witness cycle found")
    return ChordalityResult(ordering=None, chordless_cycle=cycle)


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
        res = check_chordality(graph)
        if not res.is_chordal:
            raise NotChordalError(
                f"graph has a chordless cycle {res.chordless_cycle}",
                cycle=res.chordless_cycle or (),
            )
        # check_chordality has just verified the ordering; skip the re-check
        # that the public constructor makes
        chordal = cls.__new__(cls)
        chordal.graph = graph
        chordal.ordering = tuple(res.ordering)
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

    def neighbors(self, v: int) -> frozenset:
        return self.graph.neighbors(v)

    def common_neighbors(self, a: int, b: int) -> frozenset:
        return self.graph.common_neighbors(a, b)

    def oriented_parents(self) -> tuple[frozenset, ...]:
        """Parent sets induced by the stored ordering: parents of v are its
        earlier-ordered neighbors.  Indexed by vertex id."""
        pos = {v: i for i, v in enumerate(self.ordering)}
        return tuple(
            frozenset(u for u in self.graph.neighbors(v) if pos[u] < pos[v])
            for v in range(self.n)
        )

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
    """Bitmask with bit v set for every vertex v of ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


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


def addition_keeps_chordal(g: ChordalGraph, a: int, b: int) -> bool:
    """True when adding the absent line a-b leaves ``g`` chordal.

    For a chordal graph this holds exactly when the common neighbors of a
    and b separate a from b (Giudici & Green, Biometrika 1999; Deshpande,
    Garofalakis & Jordan, UAI 2001): a path avoiding them would close a
    chordless cycle through the new line.
    """
    masks = g.graph.neighbor_masks
    return not (reach(masks, 1 << a, masks[a] & masks[b]) >> b) & 1


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
    """An immutable directed acyclic graph given by per-vertex parent sets."""

    __slots__ = ("n", "parents", "_arcs", "_topo", "_hash")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arc_set = set()
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arrow {u}->{v}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arrow {u}->{v} out of range for n={n}")
            arc_set.add((u, v))
        parents = [set() for _ in range(n)]
        for u, v in arc_set:
            if (v, u) in arc_set:
                raise CycleError(f"two-cycle between {u} and {v}")
            parents[v].add(u)
        self.n = n
        self.parents = tuple(frozenset(p) for p in parents)
        self._arcs = tuple(sorted(arc_set))
        self._topo = self._topological_order()
        self._hash = hash((n, self._arcs))

    def _topological_order(self) -> tuple[int, ...]:
        indeg = [len(p) for p in self.parents]
        children = [[] for _ in range(self.n)]
        for u, v in self._arcs:
            children[u].append(v)
        queue = deque(v for v in range(self.n) if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != self.n:
            raise CycleError("arrow set contains a directed cycle")
        return tuple(order)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self._arcs

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def has_arc(self, u: int, v: int) -> bool:
        return u in self.parents[v]

    def with_arc(self, u: int, v: int) -> "Dag":
        return Dag(self.n, self._arcs + ((u, v),))

    def without_arc(self, u: int, v: int) -> "Dag":
        if not self.has_arc(u, v):
            raise ValueError(f"arrow {u}->{v} not present")
        return Dag(self.n, [a for a in self._arcs if a != (u, v)])

    def reachable_from(self, v: int) -> set:
        """Vertices reachable along arrows starting at v (excluding v
        unless it lies on a cycle, which cannot happen here).

        The search does not call this: ``search._legal_arcs`` decides
        legality from descendant bitmasks.  It is kept as the plain
        reachability oracle for tests and as a named trace point."""
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in range(self.n):
                if u in self.parents[c] and c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dag) and self.n == other.n and self._arcs == other._arcs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, arcs={list(self._arcs)})"

    def to_text(self) -> str:
        out = [f"n {self.n}"]
        out.extend(f"{u} {v}" for u, v in self._arcs)
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Dag":
        n, pairs = _parse_graph_text(text)
        return cls(n, pairs)


def orient_by_ordering(g: ChordalGraph, order: Sequence[int]) -> Dag:
    """Direct every line of ``g`` from its earlier to its later endpoint.

    The order must be perfect for the graph; the result then has no
    v-structure and its d-separation model coincides with the separation
    model of the undirected graph.
    """
    if not is_perfect_order(g.graph, order):
        raise ValueError("ordering is not perfect for the graph")
    pos = {v: i for i, v in enumerate(order)}
    arcs = [
        (a, b) if pos[a] < pos[b] else (b, a) for a, b in g.graph.lines
    ]
    return Dag(g.n, arcs)


def moralize(d: Dag) -> UndirectedGraph:
    """Drop arrow directions and marry every pair of co-parents."""
    lines = {(_normalize_line(u, v)) for u, v in d.arcs}
    for v in range(d.n):
        ps = sorted(d.parents[v])
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                lines.add(_normalize_line(p, q))
    return UndirectedGraph(d.n, lines)


def min_fill_chordalize(
    g: UndirectedGraph,
) -> tuple[ChordalGraph, tuple[tuple[int, int], ...]]:
    """Triangulate by greedy minimum fill-in; ties go to the lowest vertex.

    Returns the filled chordal graph (already chordal inputs come back
    unchanged with an empty fill list) and the added lines.  The reverse of
    the elimination sequence is a perfect ordering of the filled graph.
    """
    nbr = {v: set(g.neighbors(v)) for v in range(g.n)}
    fills: list[tuple[int, int]] = []
    elim: list[int] = []
    remaining = set(range(g.n))
    while remaining:
        best_v = -1
        best_missing: list[tuple[int, int]] = []
        best_count = None
        for v in sorted(remaining):
            vs = sorted(nbr[v])
            missing = [
                (a, b)
                for i, a in enumerate(vs)
                for b in vs[i + 1 :]
                if b not in nbr[a]
            ]
            if best_count is None or len(missing) < best_count:
                best_count = len(missing)
                best_v = v
                best_missing = missing
        for a, b in best_missing:
            nbr[a].add(b)
            nbr[b].add(a)
            fills.append(_normalize_line(a, b))
        for u in nbr[best_v]:
            nbr[u].discard(best_v)
        del nbr[best_v]
        remaining.discard(best_v)
        elim.append(best_v)
    filled = UndirectedGraph(g.n, list(g.lines) + fills)
    ordering = tuple(reversed(elim))
    return ChordalGraph(filled, ordering), tuple(fills)


# ---------------------------------------------------------------------------
# separation


def _as_vertex_set(vertices: Iterable[int], n: int, label: str) -> set:
    out = set(vertices)
    for v in out:
        if not (0 <= v < n):
            raise ValueError(f"{label} contains out-of-range vertex {v}")
    return out


def _check_disjoint_triple(a: set, b: set, c: set) -> None:
    if not a or not b:
        raise ValueError("both endpoint sets must be nonempty")
    if a & b or a & c or b & c:
        raise ValueError("the three vertex sets must be pairwise disjoint")


def separated(
    g: UndirectedGraph, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()
) -> bool:
    """Undirected separation: every path from ``a`` to ``b`` meets ``c``."""
    sa = _as_vertex_set(a, g.n, "a")
    sb = _as_vertex_set(b, g.n, "b")
    sc = _as_vertex_set(c, g.n, "c")
    _check_disjoint_triple(sa, sb, sc)
    reached = reach(g.neighbor_masks, vertex_mask(sa), vertex_mask(sc))
    return not reached & vertex_mask(sb)


def d_separated_masks(parent_masks: Sequence[int], a: int, b: int, c: int) -> bool:
    """d-separation of the vertex bitmasks ``a`` and ``b`` given ``c``.

    ``parent_masks[v]`` is the parent bitmask of v.  Uses the
    ancestral-moral criterion (Lauritzen, Dawid, Larsen & Leimer,
    "Independence properties of directed Markov fields", Networks 1990):
    A and B are d-separated by C iff C separates them in the moral graph
    of the subgraph induced on the ancestors of A, B and C.  The masks
    must be disjoint, with ``a`` and ``b`` nonempty.
    """
    anc = reach(parent_masks, a | b | c, 0)
    adj = [0] * len(parent_masks)
    rest = anc
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        ps = parent_masks[v]  # inside anc: it is ancestral
        adj[v] |= ps
        others = ps
        while others:
            p = others & -others
            others ^= p
            # marry p to its child and to every co-parent
            adj[p.bit_length() - 1] |= low | (ps ^ p)
    return not reach(adj, a, c) & b


def d_separated(
    d: Dag, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()
) -> bool:
    """d-separation via the ancestral moral graph (Lauritzen, Dawid,
    Larsen & Leimer, Networks 1990): restrict to the ancestors of
    ``a + b + c``, moralize, and test plain separation there.  The sets
    are validated, then ``d_separated_masks`` decides."""
    sa = _as_vertex_set(a, d.n, "a")
    sb = _as_vertex_set(b, d.n, "b")
    sc = _as_vertex_set(c, d.n, "c")
    _check_disjoint_triple(sa, sb, sc)
    return d_separated_masks(
        [vertex_mask(ps) for ps in d.parents],
        vertex_mask(sa),
        vertex_mask(sb),
        vertex_mask(sc),
    )
