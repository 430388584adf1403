"""BDeu scoring of discrete datasets over chordal graphs and DAGs.

The local score of a child with a parent set is the log marginal
likelihood of the child's conditional table under a Dirichlet prior whose
total equivalent sample size ``ess`` is split uniformly over the joint
child-parent state space.  A chordal graph is scored by orienting it along
its perfect ordering and summing local scores; that sum does not depend on
which perfect ordering is used.  Single-line edits change exactly one
local term on each side, which gives the incremental delta used by the
search layer.
"""

from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .graphs import ChordalGraph, Dag, addition_keeps_chordal, removal_keeps_chordal

if TYPE_CHECKING:  # pragma: no cover
    from .search import Move

LocalScoreKey = tuple[int, tuple[int, ...]]


class Dataset:
    """A complete discrete dataset: named columns, per-column arity, and
    rows of integer state indices in [0, arity).

    ``rows`` is a read-only int64 array of shape (records, variables)
    stored column-major (Fortran order), so each column, the unit every
    count reads, is one contiguous run.  An int64 array already in that
    layout is taken as is, without a copy.
    """

    __slots__ = ("names", "arities", "rows")

    def __init__(
        self,
        rows,
        arities: Optional[Sequence[int]] = None,
        names: Optional[Sequence[str]] = None,
    ):
        rows = np.asfortranarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array (records x variables)")
        n = rows.shape[1]
        if rows.size and rows.min() < 0:
            raise ValueError("state indices must be nonnegative")
        if arities is None:
            if rows.shape[0] == 0:
                raise ValueError("arities are required for an empty dataset")
            arities = tuple(int(x) + 1 for x in rows.max(axis=0))
        arities = tuple(int(r) for r in arities)
        if len(arities) != n:
            raise ValueError("arity count does not match column count")
        if any(r < 1 for r in arities):
            raise ValueError("arities must be >= 1")
        if rows.size:
            too_big = rows.max(axis=0) >= np.asarray(arities)
            if too_big.any():
                v = int(np.nonzero(too_big)[0][0])
                raise ValueError(f"column {v} contains states >= arity {arities[v]}")
        if names is None:
            names = tuple(f"x{i}" for i in range(n))
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise ValueError("name count does not match column count")
        rows.setflags(write=False)
        self.rows = rows
        self.arities = arities
        self.names = names

    @property
    def n_vars(self) -> int:
        return len(self.arities)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    # -- CSV: header row of names, then integer state indices ------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.names)
            w.writerows(self.rows.tolist())

    @classmethod
    def from_csv(cls, path, arities: Optional[Sequence[int]] = None) -> "Dataset":
        with open(path, "r", newline="") as fh:
            return cls._read_csv(fh, arities)

    @classmethod
    def from_csv_text(cls, text: str, arities=None) -> "Dataset":
        return cls._read_csv(io.StringIO(text), arities)

    @classmethod
    def _read_csv(cls, fh, arities) -> "Dataset":
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError("dataset CSV is empty") from None
        if names and all(_is_int(x) for x in names):
            raise ValueError(
                "dataset CSV must start with a header row of column names; "
                "the first row holds only integers"
            )
        data = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                data.append([int(x) for x in row])
            except ValueError as exc:
                raise ValueError(f"non-integer state on line {lineno}") from exc
            if len(row) != len(names):
                raise ValueError(f"wrong column count on line {lineno}")
        rows = np.array(data, dtype=np.int64, order="F").reshape(len(data), len(names))
        return cls(rows, arities=arities, names=names)


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _parent_config_codes(
    rows: np.ndarray, arities: Sequence[int], cols: Sequence[int]
) -> tuple[np.ndarray, int]:
    """Mixed-radix code per row of the ordered columns ``cols``, the first
    column varying fastest, and the number of codes (the product of the
    columns' arities).  Callers pass parent sets sorted, so the code of a
    parent configuration does not depend on how the set was listed."""
    q = 1
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for c in reversed(cols):
        codes *= arities[c]
        codes += rows[:, c]
        q *= arities[c]
    return codes, q


def check_ess(ess: float) -> None:
    """Reject an equivalent sample size that is not finite and positive
    (nan, infinities and values <= 0 would make every score meaningless)."""
    if not 0 < ess < math.inf:  # false for nan
        raise ValueError(f"ess must be finite and positive, got {ess!r}")


def bdeu_local_score(
    v: int, parents: Iterable[int], data: Dataset, ess: float = 1.0
) -> float:
    """Log marginal likelihood of child ``v`` with the given parent set.

    With q parent configurations and child arity r, the prior pseudo-count
    is ess/(r*q) per cell and ess/q per configuration.  Cells and
    configurations with no data contribute zero, so the empty dataset
    scores 0, and the score depends on the data only through the nonzero
    family counts (Heckerman, Geiger & Chickering, MLJ 1995).

    Each row gets the cell code child + r * (parent configuration).  When
    the r*q cells number at most the N rows, one dense ``np.bincount``
    counts them; otherwise ``np.unique`` sorts the N codes, which bounds
    memory by N whatever the arities.  Both branches yield the nonzero
    cell counts in ascending code order and the nonzero configuration
    counts in ascending configuration order, the same integer arrays, so
    the two sums are the same floats.
    """
    check_ess(ess)
    parents = tuple(sorted(set(parents)))
    if v in parents:
        raise ValueError(f"vertex {v} cannot be its own parent")
    for p in parents + (v,):
        if not (0 <= p < data.n_vars):
            raise ValueError(f"vertex {p} out of range")
    if data.n_rows == 0:
        return 0.0
    r = data.arities[v]
    cell, rq = _parent_config_codes(data.rows, data.arities, (v,) + parents)
    q = rq // r
    if rq <= data.n_rows:
        table = np.bincount(cell, minlength=rq)
        counts = table[table > 0]
        n_cfg = table.reshape(q, r).sum(axis=1)
        n_cfg = n_cfg[n_cfg > 0]
    else:
        uniq, counts = np.unique(cell, return_counts=True)
        boundaries = np.flatnonzero(np.diff(uniq // r)) + 1
        n_cfg = np.add.reduceat(counts, np.concatenate(([0], boundaries)))
    a_cell = ess / rq
    a_cfg = ess / q
    total = float(np.sum(gammaln(a_cell + counts) - gammaln(a_cell)))
    total += float(np.sum(gammaln(a_cfg) - gammaln(a_cfg + n_cfg)))
    return total


class ScoreCache:
    """Memoized local scores bound to one (dataset, ess) pair.

    Returned values are bit-identical across repeated queries of the same
    (child, parent set) key.  Reads are safe to share; insertion happens
    under the GIL, so plain dict semantics suffice here.
    """

    def __init__(self, data: Dataset, ess: float = 1.0):
        check_ess(ess)
        self.data = data
        self.ess = float(ess)
        self._table: dict[LocalScoreKey, float] = {}

    def local_score(self, v: int, parents: Iterable[int]) -> float:
        key = (v, tuple(sorted(set(parents))))
        hit = self._table.get(key)
        if hit is None:
            hit = bdeu_local_score(key[0], key[1], self.data, self.ess)
            self._table[key] = hit
        return hit

    def __len__(self) -> int:
        return len(self._table)


def _resolve_cache(data: Dataset, ess: float, cache: Optional[ScoreCache]) -> ScoreCache:
    if cache is None:
        return ScoreCache(data, ess)
    if cache.data is not data:
        raise ValueError("cache is bound to a different dataset")
    if cache.ess != ess:
        raise ValueError("cache is bound to a different ess")
    return cache


def score_dag(d: Dag, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None) -> float:
    """Sum of local scores over the DAG's parent sets."""
    if d.n != data.n_vars:
        raise ValueError("graph and dataset have different variable counts")
    cache = _resolve_cache(data, ess, cache)
    return math.fsum(cache.local_score(v, d.parents[v]) for v in range(d.n))


def score_chordal(
    g: ChordalGraph, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None
) -> float:
    """Score a chordal graph by orienting along its perfect ordering.

    All perfect orderings give the same value up to floating rounding,
    since the oriented DAGs encode the same factorization.
    """
    if g.n != data.n_vars:
        raise ValueError("graph and dataset have different variable counts")
    cache = _resolve_cache(data, ess, cache)
    parents = g.oriented_parents()
    return math.fsum(cache.local_score(v, parents[v]) for v in range(g.n))


def line_delta(cache: ScoreCache, g: ChordalGraph, move: "Move") -> float:
    """Score change of a single-line edit, new minus old, without checking
    that the edit is legal.

    Let S be the common neighbors of the endpoints (unaffected by the edit
    itself).  Both the edited and the original graph admit perfect
    orderings that differ only at one endpoint's parent set, so the score
    difference collapses to two local terms at the higher endpoint:
    removal scores f(b, S) - f(b, S + {a}); addition is the negation.
    """
    s = g.common_neighbors(move.a, move.b)
    child = max(move.a, move.b)
    d = cache.local_score(child, s | {min(move.a, move.b)}) - cache.local_score(child, s)
    return d if move.kind == "add" else -d


def move_delta(
    g: ChordalGraph,
    move: "Move",
    data: Dataset,
    ess: float = 1.0,
    cache: Optional[ScoreCache] = None,
) -> float:
    """Score change of a legal single-line edit, new minus old (see
    ``line_delta``).

    Illegal moves (edits whose result is not chordal, or edits of
    absent/present lines) are rejected.
    """
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


def dimension(g: ChordalGraph, arities: Sequence[int]) -> int:
    """Number of free parameters of the decomposable model of ``g``.

    Computed over the perfect-ordering orientation as the sum over
    vertices of (arity - 1) times the product of parent arities; it equals
    the clique-minus-separator state-space count and is the same for every
    perfect ordering.
    """
    if len(arities) != g.n:
        raise ValueError("arity count does not match vertex count")
    parents = g.oriented_parents()
    total = 0
    for v in range(g.n):
        block = arities[v] - 1
        for p in parents[v]:
            block *= arities[p]
        total += block
    return total


def dimension_dag(d: Dag, arities: Sequence[int]) -> int:
    """Free parameters of a DAG model: sum of (arity-1) * parent states."""
    if len(arities) != d.n:
        raise ValueError("arity count does not match vertex count")
    total = 0
    for v in range(d.n):
        block = arities[v] - 1
        for p in d.parents[v]:
            block *= arities[p]
        total += block
    return total
