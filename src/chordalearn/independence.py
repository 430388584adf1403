"""Dependency models: queryable sets of conditional independence statements.

Three backends are supported: separation in an undirected graph,
d-separation in a DAG, and the observed-margin of d-separation in a DAG
with designated latent vertices (queries may only mention observed
vertices).  Statements are triples of disjoint vertex sets A, B, C read as
"A independent of B given C"; the canonical form sorts each side and puts
the lexicographically smaller of A, B first.

Queries are answered on vertex bitmasks.  Arguments are validated only at
the public entry points that take vertex collections
(``DependencyModel.independent``, ``graphoid_report``, ``model_included``,
``chain_disjunction_holds``); internal callers enumerate role bitmasks with
``role_masks``/``canonical_triples`` and query
``DependencyModel.independent_masks``, which trusts its arguments.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .graphs import ChordalGraph, Dag, UndirectedGraph, d_separated_masks, reach
from .graphs import removal_keeps_chordal, vertex_mask

ENUMERATION_BOUND = 7  # observed-vertex cap for statement enumeration


@dataclass(frozen=True)
class IndependenceStatement:
    """Canonical independence triple: a and b sorted, a <= b, c sorted."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...] = ()

    def __post_init__(self):
        a = tuple(sorted(self.a))
        b = tuple(sorted(self.b))
        c = tuple(sorted(self.c))
        if not a or not b:
            raise ValueError("both endpoint sets must be nonempty")
        if b < a:
            a, b = b, a
        sa, sb, sc = set(a), set(b), set(c)
        if len(sa) != len(a) or len(sb) != len(b) or len(sc) != len(c):
            raise ValueError("statement sets contain duplicates")
        if sa & sb or sa & sc or sb & sc:
            raise ValueError("statement sets must be pairwise disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def to_string(self) -> str:
        fmt = lambda xs: ",".join(str(x) for x in xs)
        return f"{fmt(self.a)}|{fmt(self.b)}|{fmt(self.c)}"

    @classmethod
    def from_string(cls, text: str) -> "IndependenceStatement":
        parts = text.split("|")
        if len(parts) != 3:
            raise ValueError(f"bad statement text: {text!r}")
        parse = lambda s: tuple(int(x) for x in s.split(",") if s and x != "")
        return cls(parse(parts[0]), parse(parts[1]), parse(parts[2]))


class DependencyModel:
    """Queryable independence oracle over a graph backend.

    Use the ``from_undirected`` / ``from_dag`` / ``from_latent_dag``
    factories.  Queries are memoized per statement and answered on vertex
    bitmasks: plain reachability for the undirected backend, the
    ancestral-moral criterion for the DAG backends.
    """

    def __init__(self, kind, graph, observed):
        self.kind = kind  # "ug" | "dag" | "latent-dag"
        self.graph = graph
        self.observed = tuple(sorted(observed))
        self._obs_set = frozenset(self.observed)
        self._cache: dict = {}
        # neighbor masks (undirected) or parent masks (DAG) of the graph
        self._masks = (
            graph.neighbor_masks
            if kind == "ug"
            else tuple(vertex_mask(ps) for ps in graph.parents)
        )

    @classmethod
    def from_undirected(cls, g: UndirectedGraph) -> "DependencyModel":
        return cls("ug", g, range(g.n))

    @classmethod
    def from_dag(cls, d: Dag) -> "DependencyModel":
        return cls("dag", d, range(d.n))

    @classmethod
    def from_latent_dag(cls, d: Dag, latent: Iterable[int]) -> "DependencyModel":
        latent = set(latent)
        for v in latent:
            if not (0 <= v < d.n):
                raise ValueError(f"latent vertex {v} out of range")
        observed = [v for v in range(d.n) if v not in latent]
        if not observed:
            raise ValueError("at least one vertex must be observed")
        return cls("latent-dag", d, observed)

    @property
    def n_observed(self) -> int:
        return len(self.observed)

    def independent(self, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()) -> bool:
        """Is A independent of B given C?  Raises ``ValueError`` unless A
        and B are nonempty, the sets pairwise disjoint and all observed."""
        sa, sb, sc = frozenset(a), frozenset(b), frozenset(c)
        if not sa or not sb:
            raise ValueError("both endpoint sets must be nonempty")
        if sa & sb or sa & sc or sb & sc:
            raise ValueError("the three vertex sets must be pairwise disjoint")
        for s in (sa, sb, sc):
            bad = s - self._obs_set
            if bad:
                raise ValueError(
                    f"vertices {sorted(bad)} are not observable in this model"
                )
        return self.independent_masks(vertex_mask(sa), vertex_mask(sb), vertex_mask(sc))

    def independent_masks(self, am: int, bm: int, cm: int) -> bool:
        """``independent`` on vertex bitmasks, without validation: A and B
        must be nonempty, the three masks pairwise disjoint and every
        vertex observed."""
        key = (am, bm, cm) if am < bm else (bm, am, cm)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.kind == "ug":
            out = not reach(self._masks, am, cm) & bm
        else:
            out = d_separated_masks(self._masks, am, bm, cm)
        self._cache[key] = out
        return out

    def holds(self, s: IndependenceStatement) -> bool:
        return self.independent(s.a, s.b, s.c)


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _roles(observed: Sequence[int], assign: Iterable[int], parts: int) -> tuple[int, ...]:
    """Role bitmasks of one assignment to roles 0..parts (parts = unused)."""
    roles = [0] * (parts + 1)
    for v, k in zip(observed, assign):
        roles[k] |= 1 << v
    return tuple(roles[:parts])


@functools.cache
def role_masks(observed: tuple[int, ...], parts: int) -> tuple[tuple[int, ...], ...]:
    """Every assignment of each observed vertex to one of ``parts`` roles
    or to none, as tuples of ``parts`` role bitmasks, in
    ``itertools.product`` order (the first observed vertex varies slowest)."""
    return tuple(
        _roles(observed, assign, parts)
        for assign in itertools.product(range(parts + 1), repeat=len(observed))
    )


@functools.cache
def canonical_triples(observed: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Every canonical statement (A, B, C) over the observed vertices as
    bitmasks: A and B nonempty, the lowest vertex of A below that of B.
    Sorted in statement order, by the vertex tuples of A, then B, then C."""
    triples = [
        (a, b, c) for a, b, c in role_masks(observed, 3) if a and b and a & -a < b & -b
    ]
    return tuple(sorted(triples, key=lambda t: tuple(map(_vertices, t))))


def enumerate_independencies(
    m: DependencyModel, bound: int = ENUMERATION_BOUND
) -> set:
    """All true canonical statements of the model over its observed
    vertices.  Exhaustive: every assignment of each observed vertex to one
    of (A, B, C, unused) is tried, so the observed count is bounded."""
    _check_bound(m.observed, bound)
    return {
        IndependenceStatement(*map(_vertices, t))
        for t in canonical_triples(m.observed)
        if m.independent_masks(*t)
    }


def _check_bound(obs: tuple[int, ...], bound: int = ENUMERATION_BOUND) -> None:
    if len(obs) > bound:
        raise ValueError(
            f"{len(obs)} observed vertices exceeds enumeration bound {bound}"
        )


# ---------------------------------------------------------------------------
# model comparison


def model_included(g: ChordalGraph, target: DependencyModel):
    """Is every separation of the chordal graph ``g`` true in ``target``?

    Returns (included, witness): the witness is a statement separating in
    ``g`` but failing in ``target`` (None when included).

    For undirected and fully observed DAG targets the pairwise reduction
    applies: those models satisfy the semi-graphoid axioms plus
    intersection, under which the full-conditioning pairwise statements of
    all non-adjacent pairs imply every separation of the graph.  For
    latent-margin targets the comparison enumerates both statement sets,
    so their observed count is bounded by ``ENUMERATION_BOUND``.
    """
    graph = g.graph
    n = graph.n
    if tuple(range(n)) != target.observed:
        raise ValueError("graph vertices must match the target's observed set")
    if target.kind in ("ug", "dag"):
        full = (1 << n) - 1
        for a in range(n):
            for b in range(a + 1, n):
                if graph.has_line(a, b):
                    continue
                cm = full & ~(1 << a | 1 << b)
                if not target.independent_masks(1 << a, 1 << b, cm):
                    return False, IndependenceStatement((a,), (b,), _vertices(cm))
        return True, None
    _check_bound(target.observed)
    own = DependencyModel.from_undirected(graph)
    for t in canonical_triples(target.observed):
        if own.independent_masks(*t) and not target.independent_masks(*t):
            return False, IndependenceStatement(*map(_vertices, t))
    return True, None


def inclusion_optimal(g: ChordalGraph, target: DependencyModel) -> bool:
    """True when ``g``'s model is included in the target and no chordal
    single-line subgraph of ``g`` is also included.

    The single-line reduction is sound because any strictly larger included
    model corresponds to a proper chordal subgraph, and chordal subgraph
    pairs are connected by single-line chordal chains.
    """
    ok, _ = model_included(g, target)
    if not ok:
        return False
    for a, b in g.lines:
        if not removal_keeps_chordal(g, a, b):
            continue
        ok, _ = model_included(ChordalGraph.from_graph(g.graph.without_line(a, b)), target)
        if ok:
            return False
    return True


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    failure_count: int = 0

    MAX_STORED = 20

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def record(self, ok: bool, masks: tuple = (), tail: tuple = ()) -> None:
        """Count one check.  A failure stores its witness: the vertex tuples
        of the role bitmasks ``masks``, followed by ``tail`` as given."""
        self.checked += 1
        if not ok:
            self.failure_count += 1
            if len(self.failures) < self.MAX_STORED:
                self.failures.append(tuple(map(_vertices, masks)) + tail)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failure_count,
            "passed": self.passed,
        }


@dataclass
class GraphoidReport:
    mode: str
    axioms: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.axioms.values())

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "all_passed": self.all_passed,
            "axioms": {k: v.to_dict() for k, v in self.axioms.items()},
        }


AXIOM_NAMES = (
    "symmetry",
    "decomposition",
    "intersection",
    "strong_union",
    "transitivity",
)

EXHAUSTIVE_AXIOM_BOUND = 6


def _check_symmetry(m, result, tuples):
    q = m.independent_masks
    for x, y, z in tuples:
        if not x or not y:
            continue
        result.record(q(x, y, z) == q(y, x, z), (x, y, z))


def _check_decomposition(m, result, tuples):
    q = m.independent_masks
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if q(x, y | w, z):
            result.record(q(x, y, z) and q(x, w, z), (x, y, w, z))
        else:
            result.record(True)


def _check_intersection(m, result, tuples):
    q = m.independent_masks
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if q(x, y, z | w) and q(x, w, z | y):
            result.record(q(x, y | w, z), (x, y, w, z))
        else:
            result.record(True)


def _check_strong_union(m, result, tuples):
    q = m.independent_masks
    for x, y, z, w in tuples:
        if not x or not y or not w:
            continue
        if q(x, y, z):
            result.record(q(x, y, z | w), (x, y, z, w))
        else:
            result.record(True)


def _check_transitivity(m, result, tuples):
    q = m.independent_masks
    observed = vertex_mask(m.observed)
    for x, y, z in tuples:
        if not x or not y:
            continue
        gammas = observed & ~(x | y | z)
        if not gammas or not q(x, y, z):
            continue
        for gamma in _vertices(gammas):
            g = 1 << gamma
            result.record(q(x, g, z) or q(g, y, z), (x, y, z), (gamma,))


def _check_composition(m, result, tuples):
    q = m.independent_masks
    for x, y, w, z in tuples:
        if not x or not y or not w:
            continue
        if q(x, y, z) and q(x, w, z):
            result.record(q(x, y | w, z), (x, y, w, z))
        else:
            result.record(True)


_AXIOM_CHECKS = {
    "symmetry": (_check_symmetry, 3),
    "decomposition": (_check_decomposition, 4),
    "intersection": (_check_intersection, 4),
    "strong_union": (_check_strong_union, 4),
    "transitivity": (_check_transitivity, 3),
    # composition is not part of the standard report but is checkable
    "composition": (_check_composition, 4),
}


def graphoid_report(
    m: DependencyModel,
    mode: str = "exhaustive",
    samples: int = 2000,
    seed: int = 0,
    axioms: Sequence[str] = AXIOM_NAMES,
) -> GraphoidReport:
    """Check the closure axioms characterizing undirected-graph models:
    symmetry, decomposition, intersection, strong union, and transitivity
    (the transitivity middle set is a single vertex).

    Exhaustive mode tries every role assignment of the observed vertices
    and is bounded to 6 observed vertices; sampled mode draws random role
    assignments from a seeded generator.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and m.n_observed > EXHAUSTIVE_AXIOM_BOUND:
        raise ValueError(
            f"exhaustive axiom check bounded to {EXHAUSTIVE_AXIOM_BOUND} observed vertices"
        )
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs samples >= 1, got {samples!r}")
    unknown = [name for name in axioms if name not in _AXIOM_CHECKS]
    if unknown:
        raise ValueError(f"unknown axiom(s) {unknown}; known: {sorted(_AXIOM_CHECKS)}")
    obs = m.observed
    results = {}
    for name in axioms:
        check, parts = _AXIOM_CHECKS[name]
        result = AxiomResult(name=name)
        if mode == "exhaustive":
            tuples = role_masks(obs, parts)
        else:
            rng = random.Random(seed)
            tuples = (
                _roles(obs, [rng.randrange(parts + 1) for _ in obs], parts)
                for _ in range(samples)
            )
        check(m, result, tuples)
        results[name] = result
    return GraphoidReport(mode=mode, axioms=results)


# ---------------------------------------------------------------------------
# separation chains


def chain_disjunction_holds(m: DependencyModel, chain: Sequence[Iterable[int]]) -> bool:
    """Endpoint-disjunction property of separation chains.

    ``chain`` is a sequence of pairwise disjoint nonempty vertex sets
    A0..An with n >= 3 and singleton ends {x}, {y}.  When the premise
    "A(i-1) independent of A(i+1) given A(i)" holds for every interior i,
    a model realizable as an undirected graph must satisfy at least one of:
    x independent of Ai (i = 1..n-1) marginally, or x independent of y
    given A(n-1).  A failed premise makes the property vacuously true.
    """
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
