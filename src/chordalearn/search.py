"""Greedy structure search over the single-line neighborhood of chordal
graphs, a DAG hill-climber for comparison, and an exact combinatorial
score for verifying search behavior against a known target model.

The chordal neighborhood of a graph (its inclusion boundary) is the set of
single-line additions and removals whose result is still chordal.  Both
are decided locally from the common neighbors S of the endpoints, with no
chordality test of the edited graph: removing a line keeps the graph
chordal iff S is complete, and adding one keeps it chordal iff S separates
the endpoints (Giudici & Green, Biometrika 1999; Deshpande, Garofalakis &
Jordan, UAI 2001).  Greedy search repeatedly applies the best strictly
improving neighbor and stops when none exists; ties break on the
lexicographically smallest move, so runs are deterministic.

Two memos keep a step cheap without carrying legality state between steps:

* component memo: within one ``inclusion_boundary`` call, every absent
  pair (a, b) with the same S = N(a) & N(b) looks in the same graph G - S,
  so each component of G - S is found once, with one ``reach``, and every
  later pair whose a lies in it reads its legality (b outside it) off the
  component's bitmask;
* delta memo: a line's score change depends on the data and on (a, b, S)
  only, so ``BDeuScorer`` keeps f(b, S + a) - f(b, S) per (a, b, S) for
  the whole search; a removal reads the exact negation.  Nothing in it is
  ever invalidated, and only a miss builds the parent sets that
  ``ScoreCache`` is keyed by.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

from .graphs import ChordalGraph, Dag, UndirectedGraph, is_complete_mask
from .graphs import reach, removal_keeps_chordal, vertex_mask
from .independence import DependencyModel
from .scoring import Dataset, ScoreCache, _resolve_cache, line_delta, score_chordal, score_dag

_KIND_ORDER = {"add": 0, "remove": 1, "reverse": 2}


@dataclass(frozen=True, order=False)
class Move:
    """A single-line edit.  For undirected moves a < b; directed moves
    ("reverse" included) keep their endpoint order as (parent, child)."""

    kind: str
    a: int
    b: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.a == self.b:
            raise ValueError("move endpoints must differ")

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_ORDER[self.kind], self.a, self.b)

    def to_string(self) -> str:
        return f"{self.kind} {self.a} {self.b}"

    def __str__(self) -> str:
        return self.to_string()


# One shared instance per (kind, a, b): the searches list the same moves
# at every step, and a frozen Move is safe to share.  Validation runs on
# the first construction of each; the cache holds at most 3*n*(n-1)
# moves for the largest vertex count n searched.
_move = functools.cache(Move)


@dataclass(frozen=True)
class TraceStep:
    step: int
    move: Move
    delta: object  # float for data scores, integer pair for oracle scores
    total: object
    fingerprint: str


@dataclass
class SearchTrace:
    start_fingerprint: str
    start_score: object
    steps: list = field(default_factory=list)
    terminal: bool = False

    def to_jsonl(self) -> str:
        out = []
        for s in self.steps:
            out.append(
                json.dumps(
                    {
                        "step": s.step,
                        "move": s.move.to_string(),
                        "delta": s.delta,
                        "total": s.total,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(out) + ("\n" if out else "")


def inclusion_boundary(g: ChordalGraph) -> list[Move]:
    """All legal single-line moves, in ``Move.sort_key`` order: additions
    first, then removals, each group in lexicographic endpoint order.
    Callers rely on this order for tie-breaking and do not re-sort.

    Legality is decided locally on the current graph, with S the common
    neighbors of the endpoints: an absent line can be added iff S
    separates its endpoints, and a present line can be removed iff S is
    complete (Giudici & Green, Biometrika 1999; Deshpande, Garofalakis &
    Jordan, UAI 2001).  No edited graph is built or re-tested.

    S separates a from b iff b lies outside a's component of G - S.  The
    components found so far are kept per S for the length of the call, so
    a pair whose a lies in a known component costs no ``reach``.
    """
    masks = g.graph.neighbor_masks
    moves = []
    components: dict[int, list[int]] = {}  # S -> components of G - S found
    for a in range(g.n):
        ma = masks[a]
        bit = 1 << a
        for b in range(a + 1, g.n):
            if (ma >> b) & 1:
                continue
            s = ma & masks[b]
            found = components.setdefault(s, [])
            for comp in found:
                if comp & bit:
                    break
            else:
                comp = reach(masks, bit, s)
                found.append(comp)
            if not (comp >> b) & 1:
                moves.append(_move("add", a, b))
    for a, b in g.lines:
        if is_complete_mask(masks, masks[a] & masks[b]):
            moves.append(_move("remove", a, b))
    return moves


def apply_move(g: ChordalGraph, move: Move) -> ChordalGraph:
    if move.kind == "add":
        return ChordalGraph.from_graph(g.graph.with_line(move.a, move.b))
    if move.kind == "remove":
        return ChordalGraph.from_graph(g.graph.without_line(move.a, move.b))
    raise ValueError(f"move kind {move.kind!r} does not apply to chordal graphs")


# ---------------------------------------------------------------------------
# scorers


class ChordalScorer(Protocol):  # pragma: no cover - typing only
    def score(self, g: ChordalGraph) -> object: ...

    def move_score(self, g: ChordalGraph, current, move: Move) -> object: ...


class BDeuScorer:
    """Data-driven scorer: totals are floats, move scores are the current
    total plus a line delta of two cached local terms.

    Line deltas are memoized for the scorer's lifetime by (a, b, S), with
    a < b and S the common-neighbor bitmask, in the add sense
    f(b, S + a) - f(b, S).  They depend on nothing else, so no entry is
    ever stale; a removal returns the exact negation, the same float
    ``line_delta`` returns."""

    def __init__(self, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None):
        self.cache = _resolve_cache(data, ess, cache)
        self.data = data
        self.ess = ess
        self._line_deltas: dict[tuple[int, int, int], float] = {}

    def score(self, g: ChordalGraph) -> float:
        return score_chordal(g, self.data, self.ess, self.cache)

    def delta(self, g: ChordalGraph, move: Move) -> float:
        a, b = (move.a, move.b) if move.a < move.b else (move.b, move.a)
        masks = g.graph.neighbor_masks
        key = (a, b, masks[a] & masks[b])
        d = self._line_deltas.get(key)
        if d is None:
            d = self._line_deltas[key] = line_delta(self.cache, g, _move("add", a, b))
        return d if move.kind == "add" else -d

    def move_score(self, g: ChordalGraph, current: float, move: Move) -> float:
        return current + self.delta(g, move)


class OracleScore:
    """Exact score against a known undirected target model.

    The score of a chordal graph is the integer pair
    ``(-violation_weight, -dimension)`` compared lexicographically, with
    all-binary dimension.  The violation weight is zero exactly when every
    separation of the graph holds in the target, and the score is a sum of
    per-vertex terms over any perfect-ordering orientation, so single-line
    edits change it by a closed-form amount.  Both properties follow from
    an explicit distribution that is exactly faithful to the target: one
    independent fair coin per connected vertex set of the target graph,
    each vertex observing the coins of the sets containing it.  Entropies
    of that distribution are integers (in coin units): the entropy of a
    set W of vertices is the number of connected sets meeting W.

    Consequences, checkable exhaustively with ``verification``:

    * graphs whose model is included in the target all share the minimum
      violation weight 0, so among them lower dimension wins (score
      consistency);
    * removing line a-b with common neighbors S changes the violation
      weight by the number of connected target sets containing both a and
      b and avoiding S, which is zero exactly when S separates a from b in
      the target (local consistency, strict in both directions).
    """

    def __init__(self, target):
        if isinstance(target, DependencyModel):
            if target.kind != "ug":
                raise ValueError(
                    "the combinatorial oracle score needs an undirected target"
                )
            graph = target.graph
            model = target
        elif isinstance(target, UndirectedGraph):
            graph = target
            model = DependencyModel.from_undirected(target)
        else:
            raise TypeError("target must be an UndirectedGraph or a model over one")
        self.target = model
        self.target_graph = graph
        n = graph.n
        self._full = (1 << n) - 1
        # connected[mask] for all vertex masks, then counts of connected
        # subsets inside each mask (a subset-sum / zeta transform)
        connected = self._connected_table(graph)
        counts = [1 if connected[m] else 0 for m in range(1 << n)]
        for bit in range(n):
            step = 1 << bit
            for m in range(1 << n):
                if m & step:
                    counts[m] += counts[m ^ step]
        self._conn_count = counts
        self._total_entropy = counts[self._full]

    @staticmethod
    def _connected_table(graph: UndirectedGraph) -> list[bool]:
        # a nonempty set is connected when its lowest vertex reaches all of
        # it without leaving it
        masks = graph.neighbor_masks
        return [m != 0 and reach(masks, m & -m, ~m) == m for m in range(1 << graph.n)]

    def set_entropy(self, mask: int) -> int:
        """Number of connected target sets meeting the masked vertex set."""
        return self._total_entropy - self._conn_count[self._full & ~mask]

    def conditional_info(self, a: int, b: int, s_mask: int) -> int:
        """Connected target sets containing both a and b and avoiding the
        masked set S; zero exactly when S separates a from b."""
        sa = s_mask | (1 << a)
        sb = s_mask | (1 << b)
        return (
            self.set_entropy(sa)
            + self.set_entropy(sb)
            - self.set_entropy(s_mask)
            - self.set_entropy(sa | sb)
        )

    def violation_weight(self, g: ChordalGraph) -> int:
        parents = g.oriented_parents()
        total = 0
        for v in range(g.n):
            pmask = vertex_mask(parents[v])
            total += self.set_entropy(pmask | (1 << v)) - self.set_entropy(pmask)
        return total - self._total_entropy

    def score(self, g: ChordalGraph) -> tuple[int, int]:
        if g.n != self.target_graph.n:
            raise ValueError("graph and target have different vertex counts")
        dim = 0
        for v, ps in enumerate(g.oriented_parents()):
            dim += 1 << len(ps)
        return (-self.violation_weight(g), -dim)

    def move_score(self, g: ChordalGraph, current: tuple[int, int], move: Move):
        masks = g.graph.neighbor_masks
        s = masks[move.a] & masks[move.b]
        info = self.conditional_info(move.a, move.b, s)
        viol = -current[0]
        dim = -current[1]
        # denser graphs assert fewer separations: additions can only lower
        # the violation weight, removals raise it by the blocked information
        if move.kind == "add":
            return (-(viol - info), -(dim + (1 << s.bit_count())))
        return (-(viol + info), -(dim - (1 << s.bit_count())))


# ---------------------------------------------------------------------------
# greedy search


def _best_move(g, scorer, current, moves):
    # moves come in sort-key order, so the first of equal scores is kept
    best = None
    best_score = current
    for move in moves:
        cand = scorer.move_score(g, current, move)
        if cand > best_score:
            best = move
            best_score = cand
    return best, best_score


def greedy_chordal(
    scorer: ChordalScorer, start: ChordalGraph
) -> tuple[ChordalGraph, SearchTrace]:
    """Steepest ascent over the inclusion boundary from ``start``; ties
    break on the smallest move.  Stops at the first graph with no strictly
    improving neighbor, so the result is a local optimum of the scorer.
    """
    g = start
    total = scorer.score(g)
    trace = SearchTrace(start_fingerprint=g.fingerprint(), start_score=total)
    step = 0
    while True:
        chosen, new_total = _best_move(g, scorer, total, inclusion_boundary(g))
        if chosen is None:
            trace.terminal = True
            return g, trace
        step += 1
        g = apply_move(g, chosen)
        delta = _score_delta(new_total, total)
        total = new_total
        trace.steps.append(
            TraceStep(step, chosen, delta, total, g.fingerprint())
        )


def _score_delta(new, old):
    if isinstance(new, tuple):
        return tuple(x - y for x, y in zip(new, old))
    return new - old


def dag_moves(d: Dag) -> list[Move]:
    """Legal arrow edits: additions, removals, and reversals that keep the
    digraph acyclic, in ``Move.sort_key`` order.

    Legality comes from the proper-descendant bitmask of every vertex,
    built in one reverse pass over the topological order (Chickering,
    JMLR 2002, for the neighbourhood):

    * adding u->v (no arrow between them) is legal iff u is not a
      descendant of v;
    * reversing u->v is legal iff no child c != v of u has v among its
      descendants, i.e. u->v is the only directed path from u to v.

    Every removal is legal.
    """
    n = d.n
    parents = d.parents
    desc = [0] * n  # proper descendants of each vertex
    via_children = [0] * n  # union of the children's proper descendants
    for v in reversed(d.topological_order()):
        below = desc[v]
        for p in parents[v]:
            via_children[p] |= below
            desc[p] |= below | (1 << v)
    moves = []
    for u in range(n):
        for v in range(n):
            if u == v or u in parents[v] or v in parents[u]:
                continue
            if not (desc[v] >> u) & 1:
                moves.append(_move("add", u, v))
    for u, v in d.arcs:
        moves.append(_move("remove", u, v))
    for u, v in d.arcs:
        # v is not its own descendant, so only a path through another
        # child of u can put v in via_children[u]
        if not (via_children[u] >> v) & 1:
            moves.append(_move("reverse", u, v))
    return moves


def apply_dag_move(d: Dag, move: Move) -> Dag:
    if move.kind == "add":
        return d.with_arc(move.a, move.b)
    if move.kind == "remove":
        return d.without_arc(move.a, move.b)
    return d.without_arc(move.a, move.b).with_arc(move.b, move.a)


def greedy_dag(cache: ScoreCache, start: Optional[Dag] = None) -> tuple[Dag, SearchTrace]:
    """Hill-climb over arrow additions, removals, and reversals.

    Starts from the empty DAG unless told otherwise; steepest ascent with
    the same deterministic tie-breaking as the chordal search.

    A move changes the parent set of its child only (and of its parent,
    for a reversal), so the local terms of every other vertex carry over
    to the next step.  Per child v the search keeps f(v, P_v) and
    f(v, P_v with u toggled) for each listed move touching v; a move
    clears the terms of the vertices whose parents it changed.  Each step
    first collects the toggled terms its moves need and does not hold,
    grouped by child, and fetches each child's group with one
    ``ScoreCache.toggled_scores`` call, which codes the child's family
    once for the whole group.  The delta loop then only reads.
    """
    d = start if start is not None else Dag(cache.data.n_vars)
    total = score_dag(d, cache.data, cache.ess, cache)
    trace = SearchTrace(start_fingerprint=d.to_text(), start_score=total)
    base: list = [None] * d.n  # f(v, P_v)
    toggled: list = [{} for _ in range(d.n)]  # u -> f(v, P_v ^ {u})

    def term(v: int) -> float:
        if base[v] is None:
            base[v] = cache.local_score(v, d.parents[v])
        return base[v]

    step = 0
    while True:
        moves = dag_moves(d)
        missing: dict[int, set] = {}  # child -> toggles not yet held
        for move in moves:
            u, v = move.a, move.b
            if u not in toggled[v]:
                missing.setdefault(v, set()).add(u)
            if move.kind == "reverse" and v not in toggled[u]:
                missing.setdefault(u, set()).add(v)
        for v, us in missing.items():
            us = sorted(us)
            toggled[v].update(zip(us, cache.toggled_scores(v, d.parents[v], us)))
        best = None
        best_delta = 0.0
        for move in moves:
            u, v = move.a, move.b
            if move.kind == "reverse":
                # f(v,P_v-u) - f(v,P_v) + f(u,P_u+v) - f(u,P_u), left to
                # right, so the float delta equals a full rescoring's
                delta = toggled[v][u] - term(v) + toggled[u][v] - term(u)
            else:
                delta = toggled[v][u] - term(v)
            if delta > best_delta:
                best = move
                best_delta = delta
        if best is None:
            trace.terminal = True
            return d, trace
        step += 1
        d = apply_dag_move(d, best)
        for w in (best.b, best.a) if best.kind == "reverse" else (best.b,):
            base[w] = None
            toggled[w] = {}
        total += best_delta
        trace.steps.append(TraceStep(step, best, best_delta, total, d.to_text()))
