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

The chordal search carries its state across steps (``_ChordalCarry``) and
steps the neighbor bitmasks only; the perfect ordering that certifies
chordality is built once, on the final graph.  Per unordered pair a < b
it keeps S = N(a) & N(b), whether the pair's one move (addition if
absent, removal if present) is legal, and that move's signed line delta,
all in ``Move.sort_key`` order, so a step is one first argmax.  After an
edit x-y, with G- the graph without x-y and G+ the graph with it, only
these pairs can change:

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

The DAG hill-climber uses the same design (Chickering, JMLR 2002, for
the neighbourhood).  One legality pass over descendant bitmasks gives a
boolean table over (kind, parent, child), kinds in the order add,
remove, reverse, so its flat order is ``Move.sort_key`` order;
``dag_moves`` lists its true entries.  A move's delta depends only on its
child's parent set (and its parent's, for a reversal), so ``_DagCarry``
keeps per child v the term f(v, P_v) and the toggled terms
f(v, P_v ^ {u}) fetched since P_v last changed, and resets only the one
or two children a move edits.  A step fetches the terms its legal moves
lack, keyed by the children's parent bitmasks, fills a table of the same
shape with each legal move's delta and -inf elsewhere, and takes its
first argmax.
"""

from __future__ import annotations

import bisect
import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from .graphs import ChordalGraph, Dag, UndirectedGraph, is_complete_mask, lines_fingerprint
from .graphs import mask_vertices, reach, removal_keeps_chordal
from .independence import DependencyModel
from .scoring import Dataset, ScoreCache, _resolve_cache, score_chordal, score_dag

_DAG_KINDS = ("add", "remove", "reverse")
_KIND_ORDER = {kind: k for k, kind in enumerate(_DAG_KINDS)}


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
        out = [
            json.dumps(
                {"step": s.step, "move": s.move.to_string(), "delta": s.delta, "total": s.total},
                sort_keys=True,
            )
            for s in self.steps
        ]
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
        self.masks = masks = list(masks)
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

    def apply(self, move: Move) -> None:
        """Carry the state over ``move``, editing the neighbor bitmasks in
        place and redoing only the pairs of the three rules in the module
        docstring."""
        x, y = move.a, move.b
        added = move.kind == "add"
        masks = self.masks
        masks[x] ^= 1 << y
        masks[y] ^= 1 << x
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
            for w in mask_vertices(masks[v] & ~(1 << u)):
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
        # separates x from y in G-, so any S containing it does too, and
        # Cx is x's component with y blocked as well, in G- or G+
        for sg, group in self.groups.items():
            if sg & (1 << x | 1 << y) or sg & sxy != sxy:
                continue
            cx = reach(masks, 1 << x, sg | 1 << y)
            cy = reach(masks, 1 << y, sg | 1 << x)
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


def greedy_chordal(scorer: ChordalScorer, start: ChordalGraph) -> tuple[ChordalGraph, SearchTrace]:
    """Steepest ascent over the inclusion boundary from ``start``; ties
    break on the smallest move.  Stops at the first graph with no strictly
    improving neighbor, so the result is a local optimum of the scorer.

    Legality, memo keys and deltas are carried across steps on neighbor
    bitmasks (``_ChordalCarry``); the trace, tie-breaks and memo entries
    are those of a search that lists the whole boundary and scores every
    move at every step.  The perfect ordering is built once, on the final
    graph (``start`` itself when no step is taken), so a carry bug that
    made a non-chordal graph raises ``NotChordalError``.
    """
    total = scorer.score(start)
    trace = SearchTrace(start_fingerprint=start.fingerprint(), start_score=total)
    carry = _ChordalCarry(scorer, start.graph.neighbor_masks, total)
    lines = list(start.lines)
    while True:
        chosen, new_total = carry.best(total)
        if chosen is None:
            break
        carry.apply(chosen)
        if chosen.kind == "add":  # the lines serve only the fingerprints
            bisect.insort(lines, (chosen.a, chosen.b))
        else:
            del lines[bisect.bisect_left(lines, (chosen.a, chosen.b))]
        delta, total = _score_delta(new_total, total), new_total
        fingerprint = lines_fingerprint(start.n, lines)
        trace.steps.append(TraceStep(len(trace.steps) + 1, chosen, delta, total, fingerprint))
    trace.terminal = True
    return (ChordalGraph.from_graph(UndirectedGraph(start.n, lines)) if trace.steps else start), trace


def _score_delta(new, old):
    if isinstance(new, tuple):
        return tuple(x - y for x, y in zip(new, old))
    return new - old


def _bit_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Boolean array with row i holding bits 0..n-1 of ``masks[i]``,
    bit j in column j, for any n (a mask may exceed 64 bits)."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _dag_move_table(d: Dag) -> np.ndarray:
    """The legal arrow edits of ``d`` as a boolean (3, n, n) table: entry
    [k, u, v] is the move (``_DAG_KINDS[k]``, u, v), so the flat order of
    the table is ``Move.sort_key`` order.

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
    arcs = _bit_rows(pmasks, n).T  # [u, v]: the arrow u->v
    table = np.empty((3, n, n), dtype=bool)
    table[0] = ~(_bit_rows(desc, n).T | arcs)
    np.fill_diagonal(table[0], False)
    table[1] = arcs
    # v is not its own descendant, so only a path through another child of
    # u can put v in via_children[u]
    table[2] = arcs & ~_bit_rows(via_children, n)
    return table


def dag_moves(d: Dag) -> list[Move]:
    """Legal arrow edits: additions, removals, and reversals that keep the
    digraph acyclic, in ``Move.sort_key`` order: the true entries of
    ``_dag_move_table``."""
    return [
        _move(_DAG_KINDS[k], u, v) for k, u, v in np.argwhere(_dag_move_table(d)).tolist()
    ]


def apply_dag_move(d: Dag, move: Move) -> Dag:
    if move.kind == "add":
        return d.with_arc(move.a, move.b)
    if move.kind == "remove":
        return d.without_arc(move.a, move.b)
    return d.without_arc(move.a, move.b).with_arc(move.b, move.a)


class _DagCarry:
    """What the DAG search keeps between steps: ``base[v]`` = f(v, P_v) and
    ``toggled[v, u]`` = f(v, P_v ^ {u}), NaN for a term not fetched since
    P_v last changed (no BDeu score is NaN).  A move changes the parent set
    of its child only (and of its parent, for a reversal), so only those
    one or two rows are reset after it; every other child's terms carry
    over unchanged.
    """

    def __init__(self, cache: ScoreCache, d: Dag):
        self.cache = cache
        self.d = d
        self.base = np.empty(d.n)
        self.toggled = np.empty((d.n, d.n))
        for v in range(d.n):
            self._reset(v)

    def _reset(self, v: int) -> None:
        self.base[v] = self.cache.family_scores([(v, self.d.parent_masks[v])])[0]
        self.toggled[v] = np.nan

    def deltas(self) -> np.ndarray:
        """Every move's delta in a (3, n, n) table laid out as
        ``_dag_move_table``'s, -inf where the move is illegal.

        Each child first fetches, in one ``ScoreCache.toggled_scores``
        call, the toggled terms its legal moves need and it does not hold:
        its legal additions, its parents, and, as the parent of a legal
        reversal, that reversal's child.  Those are exactly the terms a
        search scoring every listed move would look up, so the cache ends
        up with the same entries.  Every delta is the expression of a full
        rescoring, left to right, so the floats are the same.
        """
        d, base, toggled = self.d, self.base, self.toggled
        legal = _dag_move_table(d)
        missing = ((legal[0] | legal[1]).T | legal[2]) & np.isnan(toggled)
        for v in np.flatnonzero(missing.any(axis=1)).tolist():
            us = np.flatnonzero(missing[v]).tolist()
            toggled[v, us] = self.cache.toggled_scores(v, d.parent_masks[v], us)
        arrow = toggled.T - base  # [u, v]: f(v, P_v ^ {u}) - f(v, P_v)
        deltas = np.where(legal, arrow, -np.inf)
        u, v = np.nonzero(legal[2])
        # f(v,P_v-u) - f(v,P_v) + f(u,P_u+v) - f(u,P_u), left to right
        deltas[2, u, v] = arrow[u, v] + toggled[u, v] - base[u]
        return deltas

    def best(self) -> tuple[Optional[Move], float]:
        """The legal move of largest delta > 0, ties going to the smallest
        ``Move.sort_key`` (the first argmax of ``deltas``), and its delta;
        (None, 0.0) when none improves."""
        deltas = self.deltas()
        if not deltas.size:
            return None, 0.0
        i = int(np.argmax(deltas))
        delta = deltas.flat[i].item()
        if not delta > 0:
            return None, 0.0
        k, u, v = np.unravel_index(i, deltas.shape)
        return _move(_DAG_KINDS[k], int(u), int(v)), delta

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
    (Chickering, JMLR 2002), so the search carries the local terms
    (``_DagCarry``) across steps and resets them only for the one or two
    children a move edits.  Each step runs one legality pass, fetches the
    terms its legal moves lack with one ``ScoreCache.toggled_scores`` call
    per child, and takes the first maximum of the move table.  Trace,
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
