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
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .graphs import ChordalGraph, Dag, mask_vertices, vertex_mask

LocalScoreKey = tuple[int, int]  # (child, parent bitmask)
_CODE_BOUND = 2**63  # every int64 code lies below it


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
    column varying fastest, and the number of codes q (the product of the
    columns' arities, an exact int).  Callers pass parent sets sorted, so
    the code of a parent configuration does not depend on how the set was
    listed.

    Up to q = ``_CODE_BOUND`` the codes are the mixed-radix values.  Past
    it, before a multiply would overflow, the codes so far are renumbered
    by rank among the observed ones, so they still sort and group as the
    exact mixed-radix values would."""
    if not cols:
        return np.zeros(rows.shape[0], dtype=np.int64), 1
    codes = rows[:, cols[-1]].astype(np.int64)
    q = span = arities[cols[-1]]  # every code is below span
    for c in reversed(cols[:-1]):
        if span * arities[c] > _CODE_BOUND:
            uniq, codes = np.unique(codes, return_inverse=True)
            span = uniq.size
            if span * arities[c] > _CODE_BOUND:
                raise ValueError(f"column {c}'s arity is too large to count {span} codes")
        span *= arities[c]
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
    counts in ascending configuration order, the same integer arrays, and
    ``_runs_score`` scores both, so the two branches give the same floats.
    A family of more cells than a float can count (about 2^1024) has no
    pseudo-count and raises ``ValueError``.
    """
    check_ess(ess)
    parents = _family_parents(v, parents, data.n_vars)
    if data.n_rows == 0:
        return 0.0
    r = data.arities[v]
    cell, rq = _parent_config_codes(data.rows, data.arities, (v,) + parents)
    if rq <= data.n_rows:
        return _tables_score(np.bincount(cell, minlength=rq), [rq], r, ess)[0]
    try:
        alpha = np.array([ess / rq, ess / (rq // r)])
    except OverflowError:
        raise ValueError(f"child {v}'s family has {rq} cells, past a float's range") from None
    uniq, counts = np.unique(cell, return_counts=True)
    n_cfg = np.add.reduceat(counts, np.flatnonzero(np.diff(uniq // r, prepend=-1)))
    runs = np.array([counts.size, n_cfg.size])
    return _runs_score(np.concatenate((counts, n_cfg)), runs, alpha)[0]


def _family_parents(v: int, parents: Iterable[int], n: int) -> tuple[int, ...]:
    """The parents of child ``v``, sorted and distinct, once every vertex
    is checked to be in range and ``v`` not to be among them."""
    parents = tuple(sorted(set(parents)))
    if v in parents:
        raise ValueError(f"vertex {v} cannot be its own parent")
    for p in parents + (v,):
        if not (0 <= p < n):
            raise ValueError(f"vertex {p} out of range")
    return parents


def _tables_score(cells: np.ndarray, sizes, r: int, ess: float) -> list[float]:
    """The BDeu local score of each dense family table of one child of
    arity r, the tables given concatenated in ``cells`` with their
    ``sizes``, each in the child-first cell layout (cell child + r *
    configuration, parents sorted, the lowest varying fastest).  Their
    nonzero cells and nonzero configuration totals, each in ascending
    order, go to ``_runs_score`` in one call."""
    sizes = np.asarray(sizes)
    # runs: each table's cells, then each table's configuration totals,
    # every table being a whole number of configurations of r cells
    values = np.concatenate((cells, cells.reshape(-1, r).sum(axis=1)))
    lengths = np.concatenate((sizes, sizes // r))
    keep = values > 0
    nonzero = np.add.reduceat(keep, np.cumsum(lengths) - lengths, dtype=np.intp)
    # ess / (r*q) per cell, ess / q per configuration
    return _runs_score(values[keep], nonzero, ess / lengths)


def _runs_score(counts: np.ndarray, runs: np.ndarray, alpha: np.ndarray) -> list[float]:
    """The BDeu local scores of k families from their nonzero counts, in
    2k consecutive runs of ``counts`` of lengths ``runs``: each family's
    cells, then each family's configuration totals, every run ascending.
    ``alpha`` is each run's pseudo-count, ess/(r*q) or ess/q.

    A family scores its cells' gammaln(a + n) - gammaln(a) less its
    configurations', from one ``gammaln`` pass; negating a difference is
    exact.  ``_run_sums`` adds each run to a leading 0.0, bit for bit as
    ``ndarray.sum`` over the run alone, so a family's float does not
    depend on the families scored with it.  Keeping zero counts in would
    regroup the pairwise sums and can round differently."""
    k = runs.size // 2
    terms = gammaln(np.repeat(alpha, runs) + counts)
    terms -= np.repeat(gammaln(alpha), runs)
    cfg_terms = terms[runs[:k].sum():]
    np.negative(cfg_terms, out=cfg_terms)
    sums = _run_sums(terms, runs)
    return (sums[:k] + sums[k:]).tolist()


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each of the consecutive runs of the given (nonnegative)
    lengths in ``values``, each bit for bit ``ndarray.sum`` over its run
    (see ``_runs_score``); an empty run sums to 0.0.  This rests on
    numpy's reduction order, which ``test_run_sums_equal_ndarray_sum``
    checks."""
    heads = np.cumsum(lengths) - lengths + np.arange(len(lengths))
    padded = np.zeros(values.size + len(lengths))
    keep = np.ones(padded.size, dtype=bool)
    keep[heads] = False
    padded[keep] = values
    return np.add.reduceat(padded, heads)


class ScoreCache:
    """Memoized local scores bound to one (dataset, ess) pair.

    Every local score is keyed by (child, parent bitmask), the form in
    which the graphs hold their parent sets; ``local_score`` is the one
    place a parent set given as vertices becomes a mask.  Returned values
    are bit-identical across repeated queries of the same key.  Reads are
    safe to share; insertion happens under the GIL, so plain dict
    semantics suffice here.
    """

    def __init__(self, data: Dataset, ess: float = 1.0):
        check_ess(ess)
        self.data = data
        self.ess = float(ess)
        self._table: dict[LocalScoreKey, float] = {}
        # one-hot tables only when the K x K pair table (K states in all)
        # is no larger than the data; then every r <= K <= N, as K >= n
        self._onehot_fits = sum(data.arities) ** 2 <= data.rows.size
        self._states: Optional[_StateCounts] = None
        self._pairs: Optional[tuple[np.ndarray, list[slice]]] = None

    def local_score(self, v: int, parents: Iterable[int]) -> float:
        """``bdeu_local_score(v, parents)`` on this cache's data and ess,
        as the one key (v, parent mask) of ``family_scores``."""
        parents = _family_parents(v, parents, self.data.n_vars)
        return self.family_scores([(v, vertex_mask(parents))])[0]

    def family_scores(self, keys: Sequence[LocalScoreKey]) -> list[float]:
        """The local score of each (child, parent mask) key, the float
        ``bdeu_local_score`` gives, missing keys filled in one batch.  A
        family with at most one parent is read off the pairwise counts
        (``_pair_counts``) when that table has no more cells than the data
        (``data.rows``), so memory stays bounded by N; any other of
        r*q <= N cells is counted by ``np.bincount``; one ``_tables_score``
        call per child arity scores them.  The rest go to ``bdeu_local_score``."""
        table = self._table
        missing = [key for key in dict.fromkeys(keys) if key not in table]
        if missing:
            self._fill_families(missing)
        return [table[key] for key in keys]

    def _fill_families(self, keys: list) -> None:
        data, ess = self.data, self.ess
        arities, n, n_rows = data.arities, data.n_vars, data.n_rows
        dense: dict[int, dict] = {}  # child arity -> family -> its dense table
        for key in keys:
            v, mask = key
            if not (0 <= v < n and 0 <= mask < 1 << n) or mask >> v & 1:
                raise ValueError(f"family {key!r} needs a parent mask of other vertices in range")
            r = arities[v]
            tables = dense.setdefault(r, {})
            if not mask & (mask - 1) and self._onehot_fits:  # at most one parent
                counts, spans = self._pairs = self._pairs or _pair_counts(data)
                # rows: the parent's states, columns: v's; cell x_v + r * x_u
                cells = counts[spans[mask.bit_length() - 1 if mask else v], spans[v]]
                tables[key] = cells.ravel() if mask else cells.diagonal()
                continue
            parents = mask_vertices(mask)
            rq = r * math.prod(arities[p] for p in parents)
            if rq > n_rows:
                self._table[key] = bdeu_local_score(v, parents, data, ess)
            else:
                codes, _ = _parent_config_codes(data.rows, arities, (v,) + parents)
                tables[key] = np.bincount(codes, minlength=rq)
        for r, tables in dense.items():
            if tables:
                cells = list(tables.values())
                scores = _tables_score(np.concatenate(cells), [t.size for t in cells], r, ess)
                self._table.update(zip(tables, scores))

    def toggled_scores(self, v: int, parents: int, toggles: Sequence[int]) -> list[float]:
        """f(v, P ^ {u}) for each u in ``toggles``, with P the parent mask
        ``parents``: the values and cache entries ``family_scores`` would
        give, in one call (Moore & Lee, JAIR 1998, on reusing one count
        across queries that differ from it by one column).

        Only missing keys are computed.  When the family (v, *sorted(P))
        has r*q <= N cells, its rows are coded once and counted into the
        f(v, P) table; then

        * a removal (u in P) is that table summed over u's axis;
        * all the additions (u not in P) are read off one integer product
          of the rows' one-hot family codes with the dataset's state
          indicator (``_StateCounts``), which counts every (cell, state of
          u) pair for every u at once, with u's axis put in its sorted
          place by one gather.  That holds whatever r*q*r_u is: the
          table's nonzero cells are those ``bdeu_local_score``'s
          ``np.unique`` branch lists.

        With P empty, as in a search's first step, the additions go
        through ``family_scores`` instead (off the pairwise counts when
        that table fits), as does every toggle when it does not fit.

        Each table is the integer table ``bdeu_local_score`` counts for
        that family, in its cell order, and ``_tables_score`` scores the
        group's tables together, so the floats are ``bdeu_local_score``'s.
        When f(v, P) itself has r*q > N cells, the toggles go to
        ``family_scores``'s filling.
        """
        n = self.data.n_vars
        for w in (v, *toggles):
            if not 0 <= w < n:
                raise ValueError(f"vertex {w} out of range")
        if not 0 <= parents < 1 << n:
            raise ValueError(f"parent mask {parents!r} out of range")
        if parents >> v & 1 or v in toggles:
            raise ValueError(f"vertex {v} cannot be its own parent")
        keys = [(v, parents ^ 1 << u) for u in toggles]
        if not parents or not self._onehot_fits:
            return self.family_scores(keys)
        missing = [(u, key) for u, key in zip(toggles, keys) if key not in self._table]
        if missing:
            self._fill_toggled(v, parents, missing)
        return [self._table[key] for key in keys]

    def _fill_toggled(self, v: int, mask: int, missing: list) -> None:
        data, ess = self.data, self.ess
        arities = data.arities
        parents = mask_vertices(mask)
        r = arities[v]
        rq = r * math.prod(arities[p] for p in parents)
        if rq > data.n_rows:  # no dense f(v, P) table; additions are wider
            self._fill_families([key for _, key in missing])
            return
        codes, _ = _parent_config_codes(data.rows, arities, (v,) + parents)
        table = np.bincount(codes, minlength=rq)
        keys, tables, sizes = [], [], []
        added, added_keys = [], []
        for u, key in missing:
            if not mask >> u & 1:
                added.append(u)
                added_keys.append(key)
                continue
            # f(v, P) summed over u's axis, of stride lo (see added_tables)
            lo = r * math.prod(arities[p] for p in parents if p < u)
            tables.append(table.reshape(-1, arities[u], lo).sum(axis=1).ravel())
            sizes.append(rq // arities[u])
            keys.append(key)
        if added:
            if self._states is None:
                self._states = _StateCounts(data)
            cells, added_sizes = self._states.added_tables(codes, table, r, parents, added)
            tables.append(cells)
            sizes.extend(added_sizes.tolist())
            keys += added_keys
        self._table.update(zip(keys, _tables_score(np.concatenate(tables), sizes, r, ess)))

    def __len__(self) -> int:
        return len(self._table)


def _pair_counts(data: Dataset) -> tuple[np.ndarray, list[slice]]:
    """The joint counts of every pair of variables' states, and each
    variable's span of rows (and columns) in them; v's own counts are the
    diagonal of its diagonal block.  One float64 product of the rows'
    one-hot state indicator with itself, exact as every partial sum is an
    integer of at most N < 2^53, in blocks no larger than ``data.rows``."""
    rows, arities = data.rows, data.arities
    first = np.cumsum((0,) + arities[:-1])
    var = np.repeat(np.arange(len(arities)), arities)  # the variable of each column
    state = np.arange(var.size) - first[var]
    counts = np.zeros((var.size, var.size))
    step = max(1, rows.size // var.size)
    for start in range(0, rows.shape[0], step):
        onehot = (rows[start:start + step, var] == state).astype(np.float64)
        counts += onehot.T @ onehot
    return counts.astype(np.int64), [slice(f, f + r) for f, r in zip(first.tolist(), arities)]


class _StateCounts:
    """One dataset's state indicator, from which one sparse product counts
    a family's cells jointly with every variable's states.

    ``indicator`` is the N x K 0/1 matrix with one column per state s >= 1
    of each variable u, in order of u then s, marking the rows where u is
    in state s.  State 0 needs no column: its count is the family's count
    less the other states' counts, which halves the product for binary
    data.  A joint table has one column per state of each variable, u's
    state s in column ``zero_cols[u] + s``.
    """

    def __init__(self, data: Dataset):
        # imported here, not with the module: only the DAG search counts
        # with it, and loading scipy.sparse costs about 2 MB of RSS
        from scipy.sparse import csc_array

        self.csc_array = csc_array
        self.arities = np.array(data.arities)
        first = np.cumsum(self.arities - 1) - (self.arities - 1)  # column of (u, 1)
        var = np.repeat(np.arange(self.arities.size), self.arities - 1)
        state = np.arange(var.size) - first[var] + 1
        # the narrowest type that holds every count (at most N): the
        # product then reads the least memory
        dtype = next(t for t in (np.int16, np.int32, np.int64) if data.n_rows <= np.iinfo(t).max)
        self.indicator = (data.rows[:, var] == state).astype(dtype, order="C")
        self.ones = np.ones(data.n_rows, dtype=dtype)
        self.indptr = np.arange(data.n_rows + 1)
        self.zero_cols = first + np.arange(self.arities.size)
        self.state_cols = np.delete(np.arange(self.arities.sum()), self.zero_cols)

    def added_tables(
        self, codes: np.ndarray, table: np.ndarray, r: int, parents: tuple, added: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """The dense tables of the families (v, *sorted(P + {u})), for each
        u in ``added``, concatenated, and their sizes, given the cell codes
        and dense table of (v, *P), P = ``parents`` (sorted), r = r_v.

        A cell l + lo * h of (v, *P), with l < lo coding the digits below
        u's (v's and the lower parents') and h the higher parents', splits
        into the cells l + lo * (x_u + r_u * h) of u's table, one per state
        x_u; one gather reads every table, in that order, from the joint
        counts of the cells of (v, *P) with each state of each variable.
        """
        rq = table.size
        onehot = self.csc_array((self.ones, codes, self.indptr), shape=(rq, codes.size))
        joint = np.empty((rq, self.zero_cols.size + self.state_cols.size), dtype=np.int64)
        joint[:, self.zero_cols] = table[:, None]
        joint[:, self.state_cols] = onehot @ self.indicator  # exact: no entry exceeds N
        # state 0 of u: the table less u's other states, u's columns in turn
        joint[:, self.zero_cols] = np.subtract.reduceat(joint, self.zero_cols, axis=1)
        added = np.array(added)
        strides = r * np.cumprod([1, *self.arities[list(parents)]])
        lo = strides[np.searchsorted(parents, added)]
        ru = self.arities[added]
        sizes = rq * ru
        ends = np.cumsum(sizes)
        j = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
        lo, ru = np.repeat(lo, sizes), np.repeat(ru, sizes)
        h, l = np.divmod(j, lo)
        h, x_u = np.divmod(h, ru)
        at = (l + lo * h) * joint.shape[1] + np.repeat(self.zero_cols[added], sizes) + x_u
        return joint.ravel()[at], sizes


def _resolve_cache(data: Dataset, ess: float, cache: Optional[ScoreCache]) -> ScoreCache:
    if cache is None:
        return ScoreCache(data, ess)
    if cache.data is not data:
        raise ValueError("cache is bound to a different dataset")
    if cache.ess != ess:
        raise ValueError("cache is bound to a different ess")
    return cache


def _score_families(
    parent_masks: Sequence[int], data: Dataset, ess: float, cache: Optional[ScoreCache]
) -> float:
    """Sum of the local scores of every vertex with its parent mask."""
    if len(parent_masks) != data.n_vars:
        raise ValueError("graph and dataset have different variable counts")
    cache = _resolve_cache(data, ess, cache)
    return math.fsum(cache.family_scores(list(enumerate(parent_masks))))


def score_dag(d: Dag, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None) -> float:
    """Sum of local scores over the DAG's parent sets."""
    return _score_families(d.parent_masks, data, ess, cache)


def score_chordal(
    g: ChordalGraph, data: Dataset, ess: float = 1.0, cache: Optional[ScoreCache] = None
) -> float:
    """Score a chordal graph by orienting along its perfect ordering.

    All perfect orderings give the same value up to floating rounding,
    since the oriented DAGs encode the same factorization.
    """
    return _score_families(g.oriented_parent_masks(), data, ess, cache)


def _families_dimension(parent_masks: Sequence[int], arities: Sequence[int]) -> int:
    """Sum over vertices of (arity - 1) times the product of the arities
    of the parents in its mask."""
    if len(arities) != len(parent_masks):
        raise ValueError("arity count does not match vertex count")
    return sum(
        (arities[v] - 1) * math.prod(arities[p] for p in mask_vertices(m))
        for v, m in enumerate(parent_masks)
    )


def dimension(g: ChordalGraph, arities: Sequence[int]) -> int:
    """Number of free parameters of the decomposable model of ``g``.

    Computed over the perfect-ordering orientation as the sum over
    vertices of (arity - 1) times the product of parent arities; it equals
    the clique-minus-separator state-space count and is the same for every
    perfect ordering.
    """
    return _families_dimension(g.oriented_parent_masks(), arities)


def dimension_dag(d: Dag, arities: Sequence[int]) -> int:
    """Free parameters of a DAG model: sum of (arity-1) * parent states."""
    return _families_dimension(d.parent_masks, arities)
