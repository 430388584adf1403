"""Dependency models: queryable sets of conditional independence statements.

Three backends are supported: separation in an undirected graph,
d-separation in a DAG, and the observed-margin of d-separation in a DAG
with designated latent vertices (queries may only mention observed
vertices).  Statements are triples of disjoint vertex sets A, B, C read as
"A independent of B given C"; the canonical form sorts each side and puts
the lexicographically smaller of A, B first.

Every query is one ``DependencyModel.independent_table`` call on a list of
vertex-bitmask triples, which trusts its arguments.  Arguments are
validated only at the public entry points that take vertex collections
(``DependencyModel.independent``, ``graphoid_report``, ``model_included``,
``chain_disjunction_holds``); internal callers enumerate role bitmasks
with ``role_masks``/``canonical_triples``.  The graphoid axioms are rules
of one table, ``_AXIOMS``, run as array tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import ChordalGraph, Dag, UndirectedGraph, d_separated_table, mask_vertices
from .graphs import removal_keeps_chordal, separated_table, vertex_mask

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


class DependencyModel:
    """Queryable independence oracle over a graph backend.

    Use the ``from_undirected`` / ``from_dag`` / ``from_latent_dag``
    factories.  Queries are answered in batches on vertex bitmasks, with
    no memo: plain reachability for the undirected backend, the
    ancestral-moral criterion for the DAG backends.
    """

    _GRAPH_CLASS = {"ug": UndirectedGraph, "dag": Dag, "latent-dag": Dag}

    def __init__(self, kind, graph, observed):
        if kind not in self._GRAPH_CLASS:
            raise ValueError(f"unknown model kind {kind!r}; known: {list(self._GRAPH_CLASS)}")
        if not isinstance(graph, self._GRAPH_CLASS[kind]):
            raise TypeError(f"a {kind!r} model needs a {self._GRAPH_CLASS[kind].__name__}")
        self.kind = kind
        self.graph = graph
        self.observed = tuple(sorted(observed))
        self._obs_set = frozenset(self.observed)
        # neighbor masks (undirected) or parent masks (DAG) of the graph
        self._masks = graph.neighbor_masks if kind == "ug" else graph.parent_masks

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
        bad = (sa | sb | sc) - self._obs_set
        if bad:
            raise ValueError(f"vertices {sorted(bad)} are not observable in this model")
        return self.independent_table([(vertex_mask(sa), vertex_mask(sb), vertex_mask(sc))])[0]

    def independent_table(self, triples: Sequence[tuple[int, int, int]]) -> list:
        """``independent`` for each vertex-bitmask triple (A, B, C) of
        ``triples``, in one batch and without validation: A and B must be
        nonempty, the three masks pairwise disjoint and every vertex
        observed.  One ``reach`` per statement, and for the DAG backends
        one moral graph per ancestral set the statements share."""
        if self.kind == "ug":
            return separated_table(self._masks, triples)
        return d_separated_table(self._masks, triples)


@functools.cache
def role_masks(observed: tuple[int, ...], parts: int) -> tuple[tuple[int, ...], ...]:
    """Every assignment of each observed vertex to one of ``parts`` roles
    or to none, as tuples of ``parts`` role bitmasks, in
    ``itertools.product`` order (the first observed vertex varies slowest)."""
    rows = []
    for assign in itertools.product(range(parts + 1), repeat=len(observed)):
        roles = [0] * (parts + 1)  # the last role collects unused vertices
        for v, k in zip(observed, assign):
            roles[k] |= 1 << v
        rows.append(tuple(roles[:parts]))
    return tuple(rows)


@functools.cache
def canonical_triples(observed: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Every canonical statement (A, B, C) over the observed vertices as
    bitmasks: A and B nonempty, the lowest vertex of A below that of B.
    Sorted in statement order, by the vertex tuples of A, then B, then C."""
    triples = [
        (a, b, c) for a, b, c in role_masks(observed, 3) if a and b and a & -a < b & -b
    ]
    return tuple(sorted(triples, key=lambda t: tuple(map(mask_vertices, t))))


def _check_bound(obs: tuple[int, ...], bound: int = ENUMERATION_BOUND) -> None:
    if len(obs) > bound:
        raise ValueError(
            f"{len(obs)} observed vertices exceeds enumeration bound {bound}"
        )


# ---------------------------------------------------------------------------
# model comparison


def _inclusion_triples(n: int, target: DependencyModel) -> Sequence[tuple[int, int, int]]:
    """The mask triples that decide inclusion in ``target`` of a graph on
    its n observed vertices: the full-conditioning pair of each a < b, in
    order, for ug/dag targets; ``canonical_triples`` for latent margins."""
    if tuple(range(n)) != target.observed:
        raise ValueError("graph vertices must match the target's observed set")
    if target.kind != "latent-dag":
        full = (1 << n) - 1
        return [
            (1 << a, 1 << b, full & ~(1 << a | 1 << b))
            for a, b in itertools.combinations(range(n), 2)
        ]
    _check_bound(target.observed)
    return canonical_triples(target.observed)


def _separated(masks: Sequence[int], triples, target: DependencyModel) -> list:
    """Which ``_inclusion_triples`` of ``target`` the graph of neighbor
    bitmasks ``masks`` separates; a full-conditioning pair iff it is no line."""
    if target.kind == "latent-dag":
        return separated_table(masks, triples)
    return [not masks[a.bit_length() - 1] & b for a, b, _ in triples]


def model_included(g: ChordalGraph, target: DependencyModel):
    """Is every separation of the chordal graph ``g`` true in ``target``?

    Returns (included, witness): the witness is the first statement, in
    ``_inclusion_triples`` order, separating in ``g`` but failing in
    ``target`` (None when included).

    For undirected and fully observed DAG targets the pairwise reduction
    applies: those models satisfy the semi-graphoid axioms plus
    intersection, under which the full-conditioning pairwise statements of
    all non-adjacent pairs imply every separation of the graph.  For
    latent-margin targets the comparison enumerates both statement sets,
    so their observed count is bounded by ``ENUMERATION_BOUND``.  The
    target is asked the statements ``g`` separates in one batch.
    """
    triples = _inclusion_triples(g.n, target)
    asked = list(itertools.compress(triples, _separated(g.graph.neighbor_masks, triples, target)))
    for t, holds in zip(asked, target.independent_table(asked)):
        if not holds:
            return False, IndependenceStatement(*map(mask_vertices, t))
    return True, None


def inclusion_optimal(g: ChordalGraph, target: DependencyModel) -> bool:
    """True when ``g``'s model is included in the target and no chordal
    single-line subgraph of ``g`` is also included.

    The single-line reduction is sound because any strictly larger included
    model corresponds to a proper chordal subgraph, and chordal subgraph
    pairs are connected by single-line chordal chains.

    The target answers every ``_inclusion_triples`` statement once.  Under
    the pairwise reduction g - ab is included iff ``g`` is and the pair
    (a, b) holds; for latent margins each subgraph's separations are one
    ``separated_table`` over its neighbor masks.  No ``ChordalGraph`` is
    built.
    """
    triples = _inclusion_triples(g.n, target)
    holds = np.array(target.independent_table(triples), dtype=bool)

    def included(masks) -> bool:
        return not (np.array(_separated(masks, triples, target), dtype=bool) & ~holds).any()

    if not included(g.graph.neighbor_masks):
        return False
    removable = [(a, b) for a, b in g.lines if removal_keeps_chordal(g, a, b)]
    if target.kind != "latent-dag":
        pair_holds = dict(zip(itertools.combinations(range(g.n), 2), holds))
        return not any(pair_holds[line] for line in removable)
    return not any(included(g.graph.without_line(a, b).neighbor_masks) for a, b in removable)


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failure_count,
            "passed": self.passed,
        }


@dataclass
class GraphoidReport:
    axioms: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.axioms.values())

    def to_dict(self) -> dict:
        return {
            "mode": "exhaustive",
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


class _Axiom(NamedTuple):
    """An axiom: ``rule(q, *role columns)`` is True on the rows where it
    holds, ``q(a, b, c)`` reading the model's answers.  With ``gamma`` a
    row also takes one observed vertex outside its roles; ``where`` picks
    the rows that count."""

    roles: int
    nonempty: tuple
    rule: Callable
    gamma: bool = False
    where: Optional[Callable] = None


_AXIOMS = {
    "symmetry": _Axiom(3, (0, 1), lambda q, x, y, z: q(x, y, z) == q(y, x, z)),
    "decomposition": _Axiom(
        4, (0, 1, 2), lambda q, x, y, w, z: ~q(x, y | w, z) | q(x, y, z) & q(x, w, z)
    ),
    "intersection": _Axiom(
        4,
        (0, 1, 2),
        lambda q, x, y, w, z: ~(q(x, y, z | w) & q(x, w, z | y)) | q(x, y | w, z),
    ),
    "strong_union": _Axiom(
        4, (0, 1, 3), lambda q, x, y, z, w: ~q(x, y, z) | q(x, y, z | w)
    ),
    "transitivity": _Axiom(
        3,
        (0, 1),
        lambda q, x, y, z, g: q(x, g, z) | q(g, y, z),
        gamma=True,
        where=lambda q, x, y, z, g: q(x, y, z),
    ),
    # composition is not part of the standard report but is checkable
    "composition": _Axiom(
        4, (0, 1, 2), lambda q, x, y, w, z: ~(q(x, y, z) & q(x, w, z)) | q(x, y | w, z)
    ),
}


@functools.cache
def _role_rows(k: int, roles: int, nonempty: tuple, gamma: bool) -> np.ndarray:
    """The rows of ``role_masks`` over observed positions 0..k-1 whose
    ``nonempty`` roles are nonempty, as an array of position bitmasks.  With
    ``gamma`` each row repeats once per position outside its roles, in
    ascending order, with that position's bit as an extra column."""
    rows = np.array(role_masks(tuple(range(k)), roles), dtype=np.int64)
    rows = rows[(rows[:, list(nonempty)] != 0).all(axis=1)]
    if gamma:
        bits = 1 << np.arange(k, dtype=np.int64)
        # the roles are disjoint, so their sum is their union
        r, i = np.nonzero(rows.sum(axis=1)[:, None] & bits == 0)
        rows = np.column_stack([rows[r], bits[i]])
    rows.setflags(write=False)  # cached and shared by every report
    return rows


def graphoid_report(
    m: DependencyModel, axioms: Sequence[str] = AXIOM_NAMES
) -> GraphoidReport:
    """Check the closure axioms characterizing undirected-graph models:
    symmetry, decomposition, intersection, strong union, and transitivity
    (the transitivity middle set is a single vertex).

    Exhaustive, so bounded to 6 observed vertices: the model answers each
    ordered statement once, (A, B, C) and (B, A, C) apart, in one batch,
    into a table indexed by observed-position bitmasks, and each
    ``_AXIOMS`` rule is gathered from that table over every role
    assignment; so a backend that answers the two orientations of a
    statement differently fails symmetry.
    """
    k = m.n_observed
    if k > EXHAUSTIVE_AXIOM_BOUND:
        raise ValueError(
            f"exhaustive axiom check bounded to {EXHAUSTIVE_AXIOM_BOUND} observed vertices"
        )
    unknown = [name for name in axioms if name not in _AXIOMS]
    if unknown:
        raise ValueError(f"unknown axiom(s) {unknown}; known: {sorted(_AXIOMS)}")
    real = [0]  # real[p]: the vertex mask of observed-position mask p
    for v in m.observed:
        real += [r | 1 << v for r in real]
    stmts = _role_rows(k, 3, (0, 1), False)
    table = np.zeros((1 << k,) * 3, dtype=bool)
    table[tuple(stmts.T)] = m.independent_table(
        [(real[a], real[b], real[c]) for a, b, c in stmts.tolist()]
    )
    q = lambda a, b, c: table[a, b, c]
    results = {}
    for name in axioms:
        ax = _AXIOMS[name]
        rows = _role_rows(k, ax.roles, ax.nonempty, ax.gamma)
        if ax.where is not None:
            rows = rows[ax.where(q, *rows.T)]
        bad = np.flatnonzero(~ax.rule(q, *rows.T))
        failures = []
        for row in rows[bad[: AxiomResult.MAX_STORED]].tolist():
            witness = tuple(mask_vertices(real[p]) for p in row)
            # the vertex γ stands alone, not as a one-vertex tuple
            failures.append(witness[:-1] + witness[-1] if ax.gamma else witness)
        results[name] = AxiomResult(name, len(rows), failures, len(bad))
    return GraphoidReport(results)


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
