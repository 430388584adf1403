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

The chordal search carries its state across steps (``_ChordalCarry``).
Per unordered pair a < b it keeps S = N(a) & N(b), whether the pair's one
move (addition if absent, removal if present) is legal, and that move's
signed line delta, all in ``Move.sort_key`` order, so a step is one
first argmax.  After an edit x-y, with G- the graph without the line x-y
and G+ the graph with it, only these pairs can change:

1. S changes only for (x, w) with w a neighbor of y and (y, w) with w a
   neighbor of x, and the pair x-y flips presence; these are redone in
   full, and a delta changes only when its S does;
2. a present line's removal legality otherwise changes only when x and y
   both lie in its S, that is for the lines inside N(x) & N(y);
3. an absent pair's addition legality otherwise changes only when x, y
   are outside its S and S contains N(x) & N(y), so that x and y lie in
   different components Cx, Cy of G- with S removed, and the pair has
   one endpoint in each.  Absent pairs are grouped by S, so each S costs
   at most two ``reach`` calls.

A line's delta depends on the data and on (a, b, S) only, so
``BDeuScorer`` memoizes f(b, S + a) - f(b, S) per (a, b, S) for the whole
search and a removal reads the exact negation; a step fills the keys of
its newly legal pairs with one ``ScoreCache.family_scores`` call.  The
listing path, ``inclusion_boundary`` with every move scored on its own,
stays as the oracle the carry is tested against.

The DAG hill-climber carries state the same way.  A move's delta
depends only on its child's parent set (and its parent's, for a
reversal), so per child it keeps the local terms and the additions and
removals they score, ranked best first, and rebuilds them only for the
one or two children a move edits (Chickering, JMLR 2002).  Each step runs
one legality pass over descendant bitmasks, the one ``dag_moves`` lists
from, fetches only the terms of newly listed moves, keyed by the
children's parent bitmasks, and reads each child's best legal move off
the front of its ranking.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .graphs import ChordalGraph, Dag, UndirectedGraph, is_complete_mask
from .graphs import mask_vertices, reach, removal_keeps_chordal
from .independence import DependencyModel
from .scoring import Dataset, ScoreCache, _resolve_cache, score_chordal, score_dag

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

    def line_deltas(self, keys: Sequence[tuple[int, int, int]]) -> list: ...


class BDeuScorer:
    """Data-driven scorer: totals are floats, move scores are the current
    total plus a line delta.  Adding line a-b, a < b, with common
    neighbors S changes the score by f(b, S + a) - f(b, S), as perfect
    orderings of both graphs differ only at b's parents; removing it, by
    the exact negation.

    Line deltas are memoized for the scorer's lifetime by (a, b, S), S a
    bitmask, in the add sense; they depend on nothing else, so no entry is
    ever stale.  ``line_deltas`` fills the missing entries of its keys with
    one ``ScoreCache.family_scores`` call over the families (b, S | 1 << a)
    and (b, S), keyed by those parent masks as they are."""

    def __init__(self, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None):
        self.cache = _resolve_cache(data, ess, cache)
        self.data = data
        self.ess = ess
        self._line_deltas: dict[tuple[int, int, int], float] = {}

    def score(self, g: ChordalGraph) -> float:
        return score_chordal(g, self.data, self.ess, self.cache)

    def line_deltas(self, keys: Sequence[tuple[int, int, int]]) -> list[float]:
        """The add-sense delta of each (a, b, S) key, a < b, every missing
        entry filled."""
        memo = self._line_deltas
        missing = dict.fromkeys([key for key in keys if key not in memo])
        if missing:
            families = []
            for a, b, s in missing:
                families += [(b, s | 1 << a), (b, s)]
            terms = self.cache.family_scores(families)
            for i, key in enumerate(missing):
                memo[key] = terms[2 * i] - terms[2 * i + 1]
        return [memo[key] for key in keys]

    def delta(self, g: ChordalGraph, move: Move) -> float:
        a, b = sorted((move.a, move.b))
        masks = g.graph.neighbor_masks
        d = self.line_deltas([(a, b, masks[a] & masks[b])])[0]
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
    set W of vertices is the number of connected sets meeting W.  The score
    is kept as those entropies only: ``entropy``, a read-only int64 array
    indexed by vertex mask, which every method below reads.

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
        # a nonempty set is connected when its lowest vertex reaches all of
        # it without leaving it; count[m], the connected sets inside the
        # mask m, sums that indicator over the subsets of m, and W meets
        # every connected set not inside full - W, W's index read backwards
        masks = graph.neighbor_masks
        connected = [m != 0 and reach(masks, m & -m, ~m) == m for m in range(1 << graph.n)]
        count = np.array(connected, dtype=np.int64)
        for bit in range(graph.n):
            halves = count.reshape(-1, 2, 1 << bit)
            halves[:, 1] += halves[:, 0]
        self.entropy = count[-1] - count[::-1]
        self.entropy.flags.writeable = False

    def set_entropy(self, mask: int) -> int:
        """Number of connected target sets meeting the masked vertex set;
        a mask outside 0..2^n - 1 raises ``IndexError``."""
        if mask < 0:
            raise IndexError(f"vertex bitmask {mask} is negative")
        return int(self.entropy[mask])

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
        # one graph's row of ``verification._Records.oracle_scores``; the
        # full vertex set is the table's last mask
        pa = np.array(g.oriented_parent_masks(), dtype=np.int64)
        fam = pa | 1 << np.arange(g.n)
        return int(self.entropy[fam].sum() - self.entropy[pa].sum() - self.entropy[-1])

    def score(self, g: ChordalGraph) -> tuple[int, int]:
        if g.n != self.target_graph.n:
            raise ValueError("graph and target have different vertex counts")
        dim = 0
        for pmask in g.oriented_parent_masks():
            dim += 1 << pmask.bit_count()
        return (-self.violation_weight(g), -dim)

    def line_deltas(self, keys: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
        """The add-sense score change of each (a, b, S) key as an integer
        pair: adding a line can only lower the violation weight, by the
        information S fails to block, and raises the dimension by 2^|S|.
        A removal changes the score by the exact negation."""
        return [(self.conditional_info(a, b, s), -(1 << s.bit_count())) for a, b, s in keys]

    def move_score(self, g: ChordalGraph, current: tuple[int, int], move: Move):
        masks = g.graph.neighbor_masks
        a, b = sorted((move.a, move.b))
        info, dim = self.line_deltas([(a, b, masks[a] & masks[b])])[0]
        if move.kind == "add":
            return (current[0] + info, current[1] + dim)
        return (current[0] - info, current[1] - dim)


# ---------------------------------------------------------------------------
# greedy search


class _ChordalCarry:
    """What the chordal search keeps between steps.  Pair p is the p-th
    (a, b), a < b, in lexicographic order; ``s[p]`` is N(a) & N(b),
    ``legal[p]`` whether its one move is legal, and ``groups`` maps each S
    to the absent pairs that have it.  ``deltas`` holds every move's line
    delta in ``Move.sort_key`` order, the addition of pair p at p and its
    removal at P + p, signed by kind; an illegal move's entry is -inf.  A
    pair score (``OracleScore``) takes a row of two columns per move.
    """

    def __init__(self, scorer: ChordalScorer, masks: Sequence[int], total):
        n = len(masks)
        self.scorer = scorer
        self.masks = masks
        self.ends = ends = [(a, b) for a in range(n) for b in range(a + 1, n)]
        self.index = [[0] * n for _ in range(n)]
        for p, (a, b) in enumerate(ends):
            self.index[a][b] = self.index[b][a] = p
        self.s = [masks[a] & masks[b] for a, b in ends]
        self.groups: dict[int, set] = {}
        for p, (a, b) in enumerate(ends):
            if not (masks[a] >> b) & 1:
                self._group(p)
        self.legal = [self._fresh(p) for p in range(len(ends))]
        self.deltas = np.full((2 * len(ends),) + np.shape(total), -np.inf)
        self._fill(range(len(ends)))

    def _fresh(self, p: int) -> bool:
        a, b = self.ends[p]
        masks, s = self.masks, self.s[p]
        if (masks[a] >> b) & 1:
            return is_complete_mask(masks, s)
        return not (reach(masks, 1 << a, s) >> b) & 1

    def _group(self, p: int) -> None:
        self.groups.setdefault(self.s[p], set()).add(p)

    def _ungroup(self, p: int) -> None:
        group = self.groups[self.s[p]]
        group.discard(p)
        if not group:
            del self.groups[self.s[p]]

    def _fill(self, pairs: Iterable[int]) -> None:
        """Write the deltas of ``pairs``: one ``line_deltas`` call for the
        legal ones, -inf for the others."""
        ends, masks, deltas, half = self.ends, self.masks, self.deltas, len(self.ends)
        legal = []
        for p in sorted(pairs):
            deltas[p] = deltas[p + half] = -np.inf
            if self.legal[p]:
                legal.append(p)
        vals = self.scorer.line_deltas([ends[p] + (self.s[p],) for p in legal])
        for p, val in zip(legal, vals):
            a, b = ends[p]
            if (masks[a] >> b) & 1:
                deltas[p + half] = val
                deltas[p + half] *= -1  # the exact negation
            else:
                deltas[p] = val

    def best(self, total) -> tuple[Optional[Move], object]:
        """The first move of largest ``total + delta`` and that score, or
        (None, total) when none is strictly larger than ``total``.  Pair
        scores compare lexicographically; their floats hold integers below
        2^53, so they read back exactly."""
        half = len(self.ends)
        if not half:
            return None, total
        cand = np.add(total, self.deltas).reshape(2 * half, -1)
        top = np.arange(2 * half)
        for col in cand.T:
            top = top[col[top] == col[top].max()]
        i = int(top[0])
        row = cand[i].tolist()
        if not row > np.ravel(total).tolist():
            return None, total
        move = _move("remove" if i >= half else "add", *self.ends[i % half])
        return move, tuple(map(int, row)) if isinstance(total, tuple) else row[0]

    def apply(self, move: Move, masks: Sequence[int]) -> None:
        """Carry the state over ``move``, whose edited graph has the
        neighbor bitmasks ``masks``, redoing only the pairs of the three
        rules in the module docstring."""
        x, y = move.a, move.b
        added = move.kind == "add"
        plus, minus = (masks, self.masks) if added else (self.masks, masks)
        self.masks = masks
        index, ends, s, legal = self.index, self.ends, self.s, self.legal
        xy = index[x][y]
        if added:
            self._ungroup(xy)
        else:
            self._group(xy)
        legal[xy] = True  # undoing the edit gives back a chordal graph
        touched = {xy}
        # rule 1: S gains or loses y for (x, w), w a neighbor of y, and x
        # for (y, w), w a neighbor of x
        for u, v in ((x, y), (y, x)):
            for w in mask_vertices(plus[v] & ~(1 << u)):
                p = index[u][w]
                a, b = ends[p]
                absent = not (masks[a] >> b) & 1
                if absent:
                    self._ungroup(p)
                s[p] = masks[a] & masks[b]
                if absent:
                    self._group(p)
                legal[p] = self._fresh(p)
                touched.add(p)
        # rule 2: G- is chordal, so N(x) & N(y) is complete and every pair
        # inside it is a line
        sxy = s[xy]
        for a in mask_vertices(sxy):
            for b in mask_vertices(sxy >> a + 1 << a + 1):
                p = index[a][b]
                legal[p] = is_complete_mask(masks, s[p])
                touched.add(p)
        # rule 3: the line x-y joins Cx and Cy in G+ - S.  N(x) & N(y)
        # separates x from y in G-, so any S containing it does too
        for sg, group in self.groups.items():
            if sg & (1 << x | 1 << y) or sg & sxy != sxy:
                continue
            cx = reach(minus, 1 << x, sg)
            cy = reach(minus, 1 << y, sg)
            if cx.bit_count() * cy.bit_count() < len(group):
                pairs = (index[a][b] for a in mask_vertices(cx) for b in mask_vertices(cy))
                across = [p for p in pairs if p in group]
            else:
                across = [
                    p for p in group
                    if (cx >> ends[p][0] & cy >> ends[p][1] | cy >> ends[p][0] & cx >> ends[p][1]) & 1
                ]
            for p in across:
                legal[p] = not added
            touched.update(across)
        self._fill(touched)


def greedy_chordal(
    scorer: ChordalScorer, start: ChordalGraph
) -> tuple[ChordalGraph, SearchTrace]:
    """Steepest ascent over the inclusion boundary from ``start``; ties
    break on the smallest move.  Stops at the first graph with no strictly
    improving neighbor, so the result is a local optimum of the scorer.

    Legality, memo keys and deltas are carried across steps
    (``_ChordalCarry``); the trace, tie-breaks and memo entries are those
    of a search that lists the whole boundary and scores every move at
    every step.
    """
    g = start
    total = scorer.score(g)
    trace = SearchTrace(start_fingerprint=g.fingerprint(), start_score=total)
    carry = _ChordalCarry(scorer, g.graph.neighbor_masks, total)
    step = 0
    while True:
        chosen, new_total = carry.best(total)
        if chosen is None:
            trace.terminal = True
            return g, trace
        step += 1
        g = apply_move(g, chosen)
        carry.apply(chosen, g.graph.neighbor_masks)
        delta = _score_delta(new_total, total)
        total = new_total
        trace.steps.append(
            TraceStep(step, chosen, delta, total, g.fingerprint())
        )


def _score_delta(new, old):
    if isinstance(new, tuple):
        return tuple(x - y for x, y in zip(new, old))
    return new - old


def _legal_arcs(d: Dag) -> tuple[list[int], list[tuple[int, int]]]:
    """Per child v, the mask of the vertices u for which adding u->v keeps
    the digraph acyclic, and the arcs, in ``d.arcs`` order, whose reversal
    keeps it acyclic.

    Legality comes from the proper-descendant bitmask of every vertex,
    built in one reverse pass over the topological order (Chickering,
    JMLR 2002, for the neighbourhood):

    * adding u->v (no arrow between them) is legal iff u is not a
      descendant of v; an arrow v->u makes u one, so only the arrow u->v
      itself needs excluding;
    * reversing u->v is legal iff no child c != v of u has v among its
      descendants, i.e. u->v is the only directed path from u to v.

    Every removal is legal.
    """
    n = d.n
    pmasks = d.parent_masks
    desc = [0] * n  # proper descendants of each vertex
    via_children = [0] * n  # union of the children's proper descendants
    for v in reversed(d.topological_order()):
        below = desc[v]
        for p in mask_vertices(pmasks[v]):
            via_children[p] |= below
            desc[p] |= below | (1 << v)
    full = (1 << n) - 1
    adds = [full & ~(desc[v] | pmasks[v] | (1 << v)) for v in range(n)]
    # v is not its own descendant, so only a path through another child of
    # u can put v in via_children[u]
    reversals = [(u, v) for u, v in d.arcs if not (via_children[u] >> v) & 1]
    return adds, reversals


def dag_moves(d: Dag) -> list[Move]:
    """Legal arrow edits: additions, removals, and reversals that keep the
    digraph acyclic, in ``Move.sort_key`` order (legality as in
    ``_legal_arcs``)."""
    n = d.n
    adds, reversals = _legal_arcs(d)
    moves = [_move("add", u, v) for u in range(n) for v in range(n) if (adds[v] >> u) & 1]
    moves += [_move("remove", u, v) for u, v in d.arcs]
    moves += [_move("reverse", u, v) for u, v in reversals]
    return moves


def apply_dag_move(d: Dag, move: Move) -> Dag:
    if move.kind == "add":
        return d.with_arc(move.a, move.b)
    if move.kind == "remove":
        return d.without_arc(move.a, move.b)
    return d.without_arc(move.a, move.b).with_arc(move.b, move.a)


class _DagCarry:
    """What the DAG search keeps between steps, per child v: f(v, P_v),
    f(v, P_v ^ {u}) for every u fetched since P_v last changed, and the
    additions and removals into v that those terms score, ranked by
    (-delta, ``Move.sort_key``).  A move changes the parent set of its
    child only (and of its parent, for a reversal), so only those one or
    two children are reset after it; every other child's terms and ranking
    carry over unchanged.
    """

    def __init__(self, cache: ScoreCache, d: Dag):
        self.cache = cache
        self.d = d
        self.base: list = [None] * d.n  # f(v, P_v)
        self.toggled: list = [None] * d.n  # u -> f(v, P_v ^ {u})
        self.held: list = [0] * d.n  # mask of the u in toggled[v]
        self.ranked: list = [None] * d.n  # (-delta, kind, u, move), best first
        self.adds: list = []  # this step's legal-addition masks per child
        self.reversals: list = []  # this step's legal reversals
        for v in range(d.n):
            self._reset(v)

    def _reset(self, v: int) -> None:
        self.base[v] = self.cache.family_scores([(v, self.d.parent_masks[v])])[0]
        self.toggled[v] = {}
        self.held[v] = 0
        self.ranked[v] = []

    def best(self) -> tuple[Optional[Move], float]:
        """The legal move of largest delta > 0, ties going to the smallest
        ``Move.sort_key``, and its delta; (None, 0.0) when none improves.

        One legality pass lists the step's moves as masks.  Each child
        then fetches, in one ``ScoreCache.toggled_scores`` call, the
        toggled terms of its listed moves that it does not hold: the legal
        additions, its parents, and, as the parent of a legal reversal,
        that reversal's child.  Those are exactly the terms a search
        scoring every listed move would look up, so the cache ends up with
        the same entries.  A child's best move is then the first legal
        entry of its ranking, and the few legal reversals are scored
        directly.  Every delta is the expression of a full rescoring, left
        to right, so the floats, and the move chosen, are the same.
        """
        d, base, toggled, ranked = self.d, self.base, self.toggled, self.ranked
        self.adds, self.reversals = adds, reversals = _legal_arcs(d)
        need = [add | pmask for add, pmask in zip(adds, d.parent_masks)]
        for u, v in reversals:
            need[u] |= 1 << v
        for v, mask in enumerate(need):
            missing = mask & ~self.held[v]
            if not missing:
                continue
            self.held[v] |= missing
            us = mask_vertices(missing)
            pmask = d.parent_masks[v]
            for u, f in zip(us, self.cache.toggled_scores(v, pmask, us)):
                toggled[v][u] = f
                kind = "remove" if (pmask >> u) & 1 else "add"
                ranked[v].append((-(f - base[v]), _KIND_ORDER[kind], u, _move(kind, u, v)))
            ranked[v].sort()
        firsts = [next(self.legal(v), (0.0, None)) for v in range(d.n)]
        top = [
            (-delta, move.sort_key(), move)
            for delta, move in firsts + self.reversal_deltas()
            if delta > 0
        ]
        if not top:
            return None, 0.0
        neg, _, move = min(top)
        return move, -neg

    def legal(self, v: int):
        """(delta, move) for this step's legal additions and removals into
        v, best first."""
        adds = self.adds[v]
        for neg, kind, u, move in self.ranked[v]:
            # kind 0 is an addition; every removal is legal
            if kind or (adds >> u) & 1:
                yield -neg, move

    def reversal_deltas(self) -> list[tuple[float, Move]]:
        """(delta, move) for this step's legal reversals, in arc order."""
        base, toggled = self.base, self.toggled
        # f(v,P_v-u) - f(v,P_v) + f(u,P_u+v) - f(u,P_u), left to right, so
        # the float delta equals a full rescoring's
        return [
            (toggled[v][u] - base[v] + toggled[u][v] - base[u], _move("reverse", u, v))
            for u, v in self.reversals
        ]

    def apply(self, move: Move) -> Dag:
        self.d = apply_dag_move(self.d, move)
        for w in (move.b, move.a) if move.kind == "reverse" else (move.b,):
            self._reset(w)
        return self.d


def greedy_dag(cache: ScoreCache, start: Optional[Dag] = None) -> tuple[Dag, SearchTrace]:
    """Hill-climb over arrow additions, removals, and reversals.

    Starts from the empty DAG unless told otherwise; steepest ascent with
    the same deterministic tie-breaking as the chordal search.

    A move's delta changes only when its child's parent set changes
    (Chickering, JMLR 2002), so the search carries, per child, the local
    terms and the ranked moves that ``_DagCarry`` holds across steps and
    rebuilds them only for the one or two children a move edits.  Each
    step runs one legality pass, fetches the terms its newly listed moves
    need with one ``ScoreCache.toggled_scores`` call per child, and reads
    each child's best legal move off the front of its ranking.  Trace,
    tie-breaks and cache entries are those of a search that lists every
    legal move and rescores each from its local terms.
    """
    d = start if start is not None else Dag(cache.data.n_vars)
    total = score_dag(d, cache.data, cache.ess, cache)
    trace = SearchTrace(start_fingerprint=d.to_text(), start_score=total)
    carry = _DagCarry(cache, d)
    step = 0
    while True:
        best, delta = carry.best()
        if best is None:
            trace.terminal = True
            return d, trace
        step += 1
        d = carry.apply(best)
        total += delta
        trace.steps.append(TraceStep(step, best, delta, total, d.to_text()))
