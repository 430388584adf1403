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
import numbers
import warnings
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
        arities = check_arities(arities)
        if len(arities) != n:
            raise ValueError("arity count does not match column count")
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
            return cls._read_csv(fh.read(), arities)

    @classmethod
    def _read_csv(cls, text: str, arities) -> "Dataset":
        """Parse a header row of column names, then rows of integer states.

        The header goes through ``csv.reader``, so quoted names may hold
        commas and newlines.  The data rows take one of two paths:

        * fast path: one ``np.loadtxt`` call over the rest of the text.
          Its C parser accepts a subset of what the fallback accepts and
          reads it as ``int()`` does (blank and ``\\r\\n`` lines skipped,
          surrounding whitespace and a sign allowed); ``comments=None``
          keeps a ``#`` in a cell from being taken for a comment.  A text
          holding \\x1c-\\x1f, which loadtxt strips as whitespace and
          ``int()`` rejects, skips it.
        * fallback: whenever loadtxt raises, warns (no data rows) or
          returns another column count, the rows are read again with
          ``csv.reader`` and ``int()`` per cell.  That reads what loadtxt
          does not (quoted cells, ``1_0``) and raises the line-numbered
          errors: "non-integer state on line N", "wrong column count on
          line N", counting records from the header as line 1.

        Both paths give the same array for every text the fallback
        accepts, and texts it rejects never pass the fast path.
        """
        buf = io.StringIO(text)
        reader = csv.reader(buf)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError("dataset CSV is empty") from None
        if names and all(_is_int(x) for x in names):
            raise ValueError(
                "dataset CSV must start with a header row of column names; "
                "the first row holds only integers"
            )
        start = buf.tell()
        rows = None
        if not any(c in text for c in _LOADTXT_ONLY_SPACE):
            rows = _load_int_rows(buf, len(names))
        if rows is None:
            buf.seek(start)
            rows = _parse_int_rows(reader, len(names))
        return cls(rows, arities=arities, names=names)


# loadtxt strips these around a number as whitespace; int() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _load_int_rows(buf: io.StringIO, n_cols: int) -> Optional[np.ndarray]:
    """The rest of ``buf`` as an int64 array with ``n_cols`` columns, or
    None where ``np.loadtxt`` raises, warns or finds another width."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(buf, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return rows if rows.shape[1] == n_cols else None


def _parse_int_rows(reader, n_cols: int) -> np.ndarray:
    data = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            data.append([int(x) for x in row])
        except ValueError as exc:
            raise ValueError(f"non-integer state on line {lineno}") from exc
        if len(row) != n_cols:
            raise ValueError(f"wrong column count on line {lineno}")
    return np.array(data, dtype=np.int64, order="F").reshape(len(data), n_cols)


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


def check_arities(arities: Iterable) -> tuple[int, ...]:
    """Arities as a tuple of ints.  Each must be an integer of at least 1:
    a bool, a float (even 2.0) or a numeric string is rejected, not
    coerced, so a malformed arity list cannot pass as a different one."""
    arities = tuple(arities)
    for r in arities:
        if isinstance(r, bool) or not isinstance(r, numbers.Integral) or r < 1:
            raise ValueError(f"arities must be integers >= 1, got {r!r}")
    return tuple(int(r) for r in arities)


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
    if rq <= data.n_rows:
        return _table_score(np.bincount(cell, minlength=rq), r, ess)
    q = rq // r
    uniq, counts = np.unique(cell, return_counts=True)
    boundaries = np.flatnonzero(np.diff(uniq // r)) + 1
    n_cfg = np.add.reduceat(counts, np.concatenate(([0], boundaries)))
    return _dirichlet_sum(counts, n_cfg, rq, q, ess)


def _table_score(table: np.ndarray, r: int, ess: float) -> float:
    """BDeu local score from a dense family table in the child-first cell
    layout (cell child + r * configuration, parents sorted, the lowest
    varying fastest): its nonzero cells in ascending code order and its
    nonzero configuration totals in ascending order."""
    rq = table.size
    q = rq // r
    counts = table[table > 0]
    n_cfg = table.reshape(q, r).sum(axis=1)
    return _dirichlet_sum(counts, n_cfg[n_cfg > 0], rq, q, ess)


def _dirichlet_sum(counts, n_cfg, rq: int, q: int, ess: float) -> float:
    a_cell = ess / rq
    a_cfg = ess / q
    # ndarray.sum is the np.sum reduction without its Python wrapper
    total = float((gammaln(a_cell + counts) - gammaln(a_cell)).sum())
    total += float((gammaln(a_cfg) - gammaln(a_cfg + n_cfg)).sum())
    return total


def _tables_score(tables: Sequence[np.ndarray], r: int, ess: float) -> list[float]:
    """``_table_score`` of each dense family table of one child of arity
    r, with one ``gammaln`` pass over the nonzero cells of all the tables
    and one over their nonzero configuration totals.

    Each elementwise step is the one ``_dirichlet_sum`` takes, and each
    family's two sums are ``ndarray.sum`` over its contiguous slice of
    nonzero terms, the reduction ``_dirichlet_sum`` runs on that family's
    own array, so the floats are ``_table_score``'s.  Keeping the zero
    terms in, or summing the slices with ``np.add.reduceat``, would
    regroup the pairwise sums and can round differently."""
    sizes = np.array([t.size for t in tables])
    cells = np.concatenate(tables)
    counts, n_cells = _nonzero_runs(cells, sizes)
    # configurations are runs of r cells, and every table has a whole number
    n_cfg, n_cfgs = _nonzero_runs(cells.reshape(-1, r).sum(axis=1), sizes // r)
    a_cell = ess / sizes
    a_cfg = ess / (sizes // r)
    cell_terms = gammaln(np.repeat(a_cell, n_cells) + counts)
    cell_terms -= np.repeat(gammaln(a_cell), n_cells)
    cfg_terms = np.repeat(gammaln(a_cfg), n_cfgs)
    cfg_terms -= gammaln(np.repeat(a_cfg, n_cfgs) + n_cfg)
    scores = []
    lo = lo_cfg = 0
    for hi, hi_cfg in zip(np.cumsum(n_cells).tolist(), np.cumsum(n_cfgs).tolist()):
        total = float(cell_terms[lo:hi].sum())
        total += float(cfg_terms[lo_cfg:hi_cfg].sum())
        scores.append(total)
        lo, lo_cfg = hi, hi_cfg
    return scores


def _nonzero_runs(values: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of ``values`` in order, and how many of them
    fall in each of the consecutive runs of the given (positive) lengths."""
    keep = values > 0
    starts = np.cumsum(lengths) - lengths
    return values[keep], np.add.reduceat(keep, starts, dtype=np.intp)


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

    def toggled_scores(
        self, v: int, parents: Iterable[int], toggles: Sequence[int]
    ) -> list[float]:
        """f(v, P ^ {u}) for each u in ``toggles``, with P = ``parents``:
        the values and cache entries ``local_score`` would give, in one
        call (Moore & Lee, JAIR 1998, on reusing one count across queries
        that differ from it by one column).

        Only missing keys are computed.  When the family (v, *sorted(P))
        has r*q <= N cells, its rows are coded once and counted into the
        f(v, P) table; then

        * a removal (u in P) is that table summed over u's axis;
        * an addition (u not in P) with r*q*r_u <= N counts the shared
          codes plus r*q times u's column, with u the slowest digit, and
          moves u's axis to its sorted place.

        Each table is the integer table ``bdeu_local_score``'s dense
        branch counts for that family.  ``_tables_score`` scores the
        group's tables together and gives ``_table_score``'s float for
        each, so the floats are the same.  Families past the dense bound
        go through ``bdeu_local_score`` one by one.
        """
        data = self.data
        parents = tuple(sorted(set(parents)))
        for w in (v, *parents, *toggles):
            if not 0 <= w < data.n_vars:
                raise ValueError(f"vertex {w} out of range")
        if v in parents or v in toggles:
            raise ValueError(f"vertex {v} cannot be its own parent")
        pset = set(parents)
        keys = [(v, tuple(sorted(pset ^ {u}))) for u in toggles]
        missing = [(u, key) for u, key in zip(toggles, keys) if key not in self._table]
        if missing:
            self._fill_toggled(v, parents, missing)
        return [self._table[key] for key in keys]

    def _fill_toggled(self, v: int, parents: tuple, missing: list) -> None:
        data, ess = self.data, self.ess
        arities = data.arities
        r = arities[v]
        rq = r * math.prod(arities[p] for p in parents)
        if rq > data.n_rows:  # no dense f(v, P) table; additions are wider
            for _, key in missing:
                self._table[key] = bdeu_local_score(v, key[1], data, ess)
            return
        codes, _ = _parent_config_codes(data.rows, arities, (v,) + parents)
        table = np.bincount(codes, minlength=rq)
        keys, tables = [], []
        for u, key in missing:
            ru = arities[u]
            # a canonical cell index is l + lo * (x_u + r_u * h): l < lo
            # codes the digits below u's (v's and the lower parents'), h
            # the higher parents'
            lo = r * math.prod(arities[p] for p in parents if p < u)
            if u in parents:
                tables.append(table.reshape(-1, ru, lo).sum(axis=1).ravel())
            elif rq * ru <= data.n_rows:
                wide = np.bincount(codes + rq * data.rows[:, u], minlength=rq * ru)
                tables.append(wide.reshape(ru, rq // lo, lo).transpose(1, 0, 2).ravel())
            else:
                self._table[key] = bdeu_local_score(v, key[1], data, ess)
                continue
            keys.append(key)
        if tables:
            self._table.update(zip(keys, _tables_score(tables, r, ess)))

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
