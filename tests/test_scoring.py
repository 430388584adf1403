"""BDeu scoring: high-precision oracle, ordering invariance, deltas."""

import csv
import io
import itertools
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from chordalearn import scoring
from chordalearn.evaluation import fit_parameters
from chordalearn.graphs import (
    ChordalGraph,
    Dag,
    UndirectedGraph,
    is_chordal,
    is_perfect_order,
    mask_vertices,
    orient_by_ordering,
    vertex_mask,
)
from chordalearn.scoring import (
    Dataset,
    ScoreCache,
    _is_int,
    _parent_config_codes,
    bdeu_local_score,
    dimension,
    dimension_dag,
    score_chordal,
    score_dag,
)
from chordalearn.search import Move, inclusion_boundary
from chordalearn.synthetic import ancestral_sample, random_dag, random_parameters, rng_from

from conftest import all_graphs, move_delta, random_chordal_graph, table_score

mpmath.mp.dps = 60


def oracle_local_score(v, parents, data, ess=1.0):
    """From-scratch BDeu local term with 60-digit arithmetic.

    Counts go through a plain Counter keyed by explicit state tuples, so
    neither the configuration coding nor the gamma evaluation is shared
    with the library.
    """
    parents = tuple(sorted(parents))
    r = data.arities[v]
    q = 1
    for p in parents:
        q *= data.arities[p]
    a_cell = mpmath.mpf(ess) / (r * q)
    a_cfg = mpmath.mpf(ess) / q
    cell = Counter()
    cfg = Counter()
    for row in np.asarray(data.rows):
        key = tuple(int(row[p]) for p in parents)
        cfg[key] += 1
        cell[key + (int(row[v]),)] += 1
    total = mpmath.mpf(0)
    for c in cfg.values():
        total += mpmath.loggamma(a_cfg) - mpmath.loggamma(a_cfg + c)
    for c in cell.values():
        total += mpmath.loggamma(a_cell + c) - mpmath.loggamma(a_cell)
    return float(total)


def reference_parent_codes(rows, arities, parents):
    """Parent configuration codes as computed before whole families were
    coded at once: a strided pass per parent, lowest index fastest."""
    q = 1
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for p in sorted(parents):
        codes += rows[:, p] * q
        q *= arities[p]
    return codes, q


def reference_local_score(v, parents, data, ess=1.0):
    """The sort-based BDeu kernel (``np.unique`` over cell codes, then
    ``np.add.reduceat`` per configuration) that dense counting replaced,
    kept as a bit-identity oracle."""
    parents = tuple(sorted(set(parents)))
    r = data.arities[v]
    pcodes, q = reference_parent_codes(data.rows, data.arities, parents)
    if data.n_rows == 0:
        return 0.0
    cell = pcodes * r + data.rows[:, v]
    uniq, counts = np.unique(cell, return_counts=True)
    a_cell = ess / (r * q)
    a_cfg = ess / q
    total = float(np.sum(gammaln(a_cell + counts) - gammaln(a_cell)))
    cfg = uniq // r
    boundaries = np.flatnonzero(np.diff(cfg)) + 1
    n_cfg = np.add.reduceat(counts, np.concatenate(([0], boundaries)))
    total += float(np.sum(gammaln(a_cfg) - gammaln(a_cfg + n_cfg)))
    return total


def reference_tables(dag, data, ess):
    """``fit_parameters``' tables from the per-parent codes and a
    ``codes * r + child`` bincount."""
    tables = []
    for v in range(dag.n):
        r = data.arities[v]
        codes, q = reference_parent_codes(data.rows, data.arities, dag.parents[v])
        counts = np.bincount(codes * r + data.rows[:, v], minlength=q * r).reshape(q, r)
        theta = (counts + ess / (r * q)) / (counts.sum(axis=1, keepdims=True) + ess / q)
        tables.append(theta / theta.sum(axis=1, keepdims=True))
    return tables


def in_layout(rows, layout):
    """``rows`` as a C-ordered, F-ordered or read-only (C-ordered) array."""
    if layout == "F":
        return np.asfortranarray(rows)
    rows = np.ascontiguousarray(rows)
    if layout == "read-only":
        rows.setflags(write=False)
    return rows


def read_csv_text(text, arities=None):
    """``Dataset``'s CSV reader on a text instead of a file."""
    return Dataset._read_csv(text, arities)


def reference_read_csv(text, arities=None):
    """The per-cell CSV reader: ``csv.reader`` for every row and ``int()``
    for every cell, with line-numbered errors."""
    reader = csv.reader(io.StringIO(text))
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
    return Dataset(rows, arities=arities, names=names)


def csv_outcome(read, text, arities=None):
    """What a reader makes of ``text``: the dataset's fields, or the type
    and message of the error it raises."""
    try:
        d = read(text, arities)
    except (ValueError, OverflowError, csv.Error) as exc:
        return ("error", type(exc).__name__, str(exc))
    rows = d.rows
    layout = (rows.dtype, rows.flags.f_contiguous, rows.flags.writeable, rows.shape)
    return ("ok", d.names, d.arities, rows.tolist(), layout)


def random_dataset(n, rows, rng, max_arity=3):
    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(n)]
    data = rng.integers(0, arities, size=(rows, n))
    return Dataset(data, arities)


class TestDataset:
    def test_arity_inference(self):
        d = Dataset([[0, 2], [1, 0]])
        assert d.arities == (2, 3)

    def test_explicit_arities_validated(self):
        with pytest.raises(ValueError):
            Dataset([[0, 3]], arities=[2, 3])

    @pytest.mark.parametrize("arities", [[2.5, 2], ["2", 2], [True, 2], [2.0, 2], [0, 2]])
    def test_arities_must_be_integers_at_least_one(self, arities):
        with pytest.raises(ValueError, match="arities must be integers >= 1"):
            Dataset([[0, 1]], arities=arities)

    def test_numpy_integer_arities_accepted(self):
        d = Dataset([[0, 1]], arities=np.array([2, 3]))
        assert d.arities == (2, 3) and all(type(r) is int for r in d.arities)

    def test_rows_read_only(self):
        d = Dataset([[0, 1]])
        with pytest.raises(ValueError):
            d.rows[0, 0] = 1

    def test_csv_roundtrip(self, tmp_path):
        d = Dataset([[0, 1, 2], [1, 0, 0]], names=["a", "b", "c"])
        path = tmp_path / "d.csv"
        d.to_csv(path)
        e = Dataset.from_csv(path, arities=d.arities)
        assert e.names == d.names
        assert e.arities == d.arities
        assert np.array_equal(e.rows, d.rows)

    def test_from_csv_text(self):
        d = read_csv_text("x,y\n0,1\n1,1\n")
        assert d.names == ("x", "y")
        assert d.arities == (2, 2)

    def test_headerless_csv_rejected(self):
        # a first row of integers is data, not names: reading it as a
        # header would silently drop a record
        with pytest.raises(ValueError, match="header row of column names"):
            read_csv_text("0,1\n1,1\n1,0\n")
        assert read_csv_text("x,1\n0,1\n").names == ("x", "1")

    def test_rows_column_major_read_only_int64(self, tmp_path):
        made = Dataset([[0, 1], [1, 0], [1, 1]])
        made.to_csv(tmp_path / "d.csv")
        net = random_parameters(random_dag(4, 2, rng_from(3)), (2, 3, 2, 4), rng_from(4))
        for d in (
            made,
            Dataset.from_csv(tmp_path / "d.csv"),
            read_csv_text("x,y\n0,1\n1,1\n0,0\n"),
            ancestral_sample(net, 50, rng_from(5)),
        ):
            assert d.rows.flags.f_contiguous and not d.rows.flags.c_contiguous
            assert not d.rows.flags.writeable
            assert d.rows.dtype == np.int64

    def test_fortran_int64_input_not_copied(self):
        rows = np.asfortranarray(rng_from(6).integers(0, 3, size=(40, 4)), dtype=np.int64)
        assert Dataset(rows, arities=(3, 3, 3, 3)).rows is rows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_csv_roundtrip_property(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 5), label="n")
        n_rows = data.draw(st.integers(0, 12), label="n_rows")
        arities = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="arities")
        names = data.draw(
            st.lists(st.text(alphabet="ab9 ,\"\n-é", max_size=4), min_size=n, max_size=n),
            label="names",
        )
        assume(not all(_is_int(x) for x in names))
        rows = [
            [data.draw(st.integers(0, r - 1)) for r in arities] for _ in range(n_rows)
        ]
        d = Dataset(np.array(rows, dtype=np.int64).reshape(n_rows, n), arities, names)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        d.to_csv(path)
        e = Dataset.from_csv(path, arities=arities)
        assert e.names == d.names
        assert e.arities == d.arities
        assert np.array_equal(e.rows, d.rows)
        assert e.rows.flags.f_contiguous


# cells that int() reads, ones it rejects, and ones a C parser might read
# differently (quotes, digit separators, comment characters, blanks, and
# whitespace that int() strips or, for \x1c, rejects)
CSV_CELLS = [
    "0", "1", "2", " 1", "1 ", "+1", "-0", "01", '"1"', "1_0", "1.0", "a", "", "#", "1#",
    "\xa01", "1\x1c",
]


@st.composite
def csv_texts(draw):
    """Header, then data lines mixing valid rows, odd cells, short and long
    rows, blank and whitespace-only lines, ``\\n`` and ``\\r\\n`` endings,
    and sometimes no final newline."""
    n = draw(st.integers(1, 4), label="n")
    names = draw(
        st.lists(st.text(alphabet="ab9 ,\"\n\r#", max_size=4), min_size=n, max_size=n),
        label="names",
    )
    head = io.StringIO()
    csv.writer(head, lineterminator="").writerow(names)
    valid = st.lists(st.sampled_from("0123"), min_size=n, max_size=n)
    odd = st.lists(st.sampled_from(CSV_CELLS), min_size=n, max_size=n)
    ragged = st.lists(st.sampled_from("012"), min_size=1, max_size=n + 2)
    line = st.one_of(
        valid.map(",".join),
        valid.map(",".join),
        odd.map(",".join),
        ragged.map(",".join),
        st.sampled_from(["", " ", "\t", "  "]),
    )
    lines = [head.getvalue(), *draw(st.lists(line, max_size=8), label="lines")]
    ends = draw(
        st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)),
        label="ends",
    )
    text = "".join(x + e for x, e in zip(lines, ends))
    if draw(st.booleans(), label="cut final newline"):
        text = text.rstrip("\r\n")
    return text


class TestCsvContract:
    """The accepted inputs, arrays and error messages of ``Dataset``'s CSV
    reader, pinned against the per-cell reference reader."""

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="dataset CSV is empty"):
            read_csv_text("")

    @pytest.mark.parametrize("cell", ["1.0", "a", ""])
    def test_non_integer_state_names_line(self, cell):
        with pytest.raises(ValueError, match="^non-integer state on line 3$"):
            read_csv_text(f"x,y\n0,1\n{cell},1\n1,1\n")

    @pytest.mark.parametrize("row", ["0", "0,1,1"])
    def test_wrong_column_count_names_line(self, row):
        with pytest.raises(ValueError, match="^wrong column count on line 3$"):
            read_csv_text(f"x,y\n0,1\n{row}\n1,1\n")

    def test_blank_and_crlf_lines_skipped(self):
        d = read_csv_text("x,y\r\n0,1\r\n\r\n\n1,0\r\n\n")
        assert d.rows.tolist() == [[0, 1], [1, 0]]
        # skipped lines still count toward the line numbers
        with pytest.raises(ValueError, match="^non-integer state on line 5$"):
            read_csv_text("x,y\n\n0,1\r\n\r\nz,1\n")

    @pytest.mark.parametrize("text", ["x,y\n0,1\n  \n1,0\n", "x\n0\n \t\n1\n"])
    def test_whitespace_only_line_rejected(self, text):
        with pytest.raises(ValueError, match="^non-integer state on line 3$"):
            read_csv_text(text)

    @pytest.mark.parametrize("text", ["x,y\n0,1#\n", "x,y\n#0,1\n", "x,y\n0,1\n#\n"])
    def test_comment_character_rejected(self, text):
        with pytest.raises(ValueError, match="^non-integer state on line [23]$"):
            read_csv_text(text)

    def test_cells_parse_as_int_parses_them(self):
        d = read_csv_text('x,y,z\n"1",+1,1_0\n 0 ,-0,01\n')
        assert d.rows.tolist() == [[1, 1, 10], [0, 0, 1]]

    def test_information_separators_rejected(self):
        # str.isspace() holds for \x1c-\x1f, but int() does not strip them
        for ch in "\x1c\x1d\x1e\x1f":
            with pytest.raises(ValueError, match="^non-integer state on line 3$"):
                read_csv_text(f"x,y\n0,1\n1,0{ch}\n")

    def test_header_only(self):
        with pytest.raises(ValueError, match="arities are required for an empty dataset"):
            read_csv_text("x,y\n")
        d = read_csv_text("x,y", arities=(2, 3))
        assert d.rows.shape == (0, 2) and d.rows.dtype == np.int64
        assert d.rows.flags.f_contiguous and not d.rows.flags.writeable

    def test_quoted_header_names(self):
        d = read_csv_text('"a,b","c\nd"\n0,1\n1,1\n')
        assert d.names == ("a,b", "c\nd")
        assert d.rows.tolist() == [[0, 1], [1, 1]]
        with pytest.raises(ValueError, match="^non-integer state on line 3$"):
            read_csv_text('"a,b","c\nd"\n0,1\n1,x\n')

    def test_file_and_text_agree(self, tmp_path):
        text = 'x,"y,z"\r\n0,1\r\n\r\n1,0\r\n'
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert np.array_equal(Dataset.from_csv(path).rows, read_csv_text(text).rows)
        assert Dataset.from_csv(path).names == ("x", "y,z")

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_matches_reference_reader(self, text):
        assert csv_outcome(read_csv_text, text) == csv_outcome(reference_read_csv, text)


class TestParentCodes:
    def test_lowest_index_fastest(self):
        rows = np.array([[1, 0, 2], [0, 1, 2]])
        codes, q = _parent_config_codes(rows, (2, 2, 3), (0, 1))
        assert q == 4
        # code = row[0] + 2 * row[1]
        assert list(codes) == [1, 2]

    def test_parent_order_irrelevant(self):
        # the columns are coded in the order given, so listing them in
        # another order relabels the configurations but groups the rows
        # the same way; callers sort parent sets, which fixes the labels
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, size=(50, 4))
        a, qa = _parent_config_codes(rows, (3, 3, 3, 3), (2, 0))
        b, qb = _parent_config_codes(rows, (3, 3, 3, 3), (0, 2))
        assert qa == qb
        assert np.array_equal(a[:, None] == a, b[:, None] == b)
        assert np.array_equal(b, reference_parent_codes(rows, (3, 3, 3, 3), (2, 0))[0])
        data = Dataset(rows, arities=(3, 3, 3, 3))
        assert bdeu_local_score(1, (2, 0), data) == bdeu_local_score(1, (0, 2), data)

    def test_child_first_cell_codes(self):
        rng = np.random.default_rng(1)
        arities = (2, 3, 4, 3)
        rows = rng.integers(0, arities, size=(60, 4))
        for v, parents in [(1, (0, 2, 3)), (3, (0,)), (0, ())]:
            cell, rq = _parent_config_codes(rows, arities, (v,) + parents)
            pcodes, q = reference_parent_codes(rows, arities, parents)
            assert rq == arities[v] * q
            assert np.array_equal(cell, pcodes * arities[v] + rows[:, v])

    def test_empty_parent_set(self):
        codes, q = _parent_config_codes(np.zeros((5, 2), dtype=int), (2, 2), ())
        assert q == 1 and not codes.any()

    @staticmethod
    def small_states(arities, seed, n_rows=40):
        """Rows with states below 3 in columns of any arity."""
        rng = rng_from(seed)
        return np.column_stack([rng.integers(0, min(r, 3), size=n_rows) for r in arities])

    def test_codes_past_int64_keep_the_exact_order(self):
        # arities whose product passes 2**63: the int64 codes must sort
        # and tie as the exact (Python int) mixed-radix codes do, and q
        # must be the exact product
        arities = (2, 2**32, 2**32, 4)
        rows = self.small_states(arities, 101)
        for cols in ((0, 1, 2, 3), (1, 2), (3, 1, 2, 0), (2, 1, 3)):
            codes, q = _parent_config_codes(rows, arities, cols)
            assert q == math.prod(arities[c] for c in cols)
            exact = []
            for row in rows.tolist():
                code, radix = 0, 1
                for c in cols:
                    code += row[c] * radix
                    radix *= arities[c]
                exact.append(code)
            rank = {c: i for i, c in enumerate(sorted(set(exact)))}
            got = {c: i for i, c in enumerate(sorted(set(codes.tolist())))}
            assert [got[c] for c in codes.tolist()] == [rank[c] for c in exact], cols

    def test_family_past_int64_matches_counter_oracle(self):
        # every family of these columns whose cells number more than
        # 2**63: the int64 codes used to wrap and give a wrong score
        arities = (2, 2**32, 2**32, 4)
        data = Dataset(self.small_states(arities, 103), arities)
        checked = 0
        for v in range(4):
            others = [u for u in range(4) if u != v]
            for size in range(4):
                for parents in itertools.combinations(others, size):
                    if arities[v] * math.prod(arities[p] for p in parents) <= 2**63:
                        continue
                    for ess in (1.0, 3.7):
                        want = oracle_local_score(v, parents, data, ess)
                        got = bdeu_local_score(v, parents, data, ess)
                        assert abs(got - want) < 1e-9, (v, parents, ess, got, want)
                        assert ScoreCache(data, ess).local_score(v, parents) == got
                    checked += 1
        assert checked == 12

    def test_family_within_int64_unchanged(self):
        # r*q = 2**63 exactly: no renumbering, the codes are the strided
        # mixed-radix codes and the score the sort kernel's, bit for bit
        arities = (2, 2**30, 2**30, 4)
        data = Dataset(self.small_states(arities, 107), arities)
        cell, rq = _parent_config_codes(data.rows, arities, (0, 1, 2, 3))
        pcodes, q = reference_parent_codes(data.rows, arities, (1, 2, 3))
        assert rq == 2 * q == 2**63
        assert np.array_equal(cell, pcodes * 2 + data.rows[:, 0])
        for ess in (1.0, 3.7):
            got = bdeu_local_score(0, (1, 2, 3), data, ess)
            assert got.hex() == reference_local_score(0, (1, 2, 3), data, ess).hex()

    def test_arity_past_int64_over_the_rows_rejected(self):
        # even renumbered, three codes times 2**62 states overflow int64
        arities = (2, 2**62, 4)
        data = Dataset(self.small_states(arities, 109), arities)
        with pytest.raises(ValueError, match="too large"):
            bdeu_local_score(0, (1, 2), data)

    def test_family_past_float_range_rejected(self):
        # 2 * (2**32)**33 = 2**1057 cells: ess / rq used to raise a bare
        # OverflowError ("int too large to convert to float")
        arities = (2,) + (2**32,) * 33
        data = Dataset(self.small_states(arities, 113), arities)
        cells = str(2**1057)
        with pytest.raises(ValueError, match=f"^child 0's family has {cells} cells"):
            bdeu_local_score(0, range(1, 34), data)
        with pytest.raises(ValueError, match="child 0's family"):
            ScoreCache(data).local_score(0, range(1, 34))
        # one column fewer, 2**1025 cells, is past the range too; 2**993 is not
        with pytest.raises(ValueError, match=f"has {2**1025} cells"):
            bdeu_local_score(0, range(1, 33), data)
        assert math.isfinite(bdeu_local_score(0, range(1, 32), data))


class TestLocalScore:
    def test_known_value_single_binary_variable(self):
        # one binary column, rows [0] and [1], ess 1: the marginal
        # likelihood is exactly 1/8, so the log score is -3 ln 2
        data = Dataset([[0], [1]])
        got = bdeu_local_score(0, (), data, ess=1.0)
        assert abs(got - (-3.0 * math.log(2.0))) < 1e-12

    def test_empty_dataset_scores_zero(self):
        data = Dataset(np.zeros((0, 2), dtype=int), arities=(2, 2))
        assert bdeu_local_score(0, (1,), data) == 0.0

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(120):
            n = int(rng.integers(2, 5))
            data = random_dataset(n, int(rng.integers(1, 120)), rng)
            v = int(rng.integers(n))
            others = [u for u in range(n) if u != v]
            k = int(rng.integers(0, len(others) + 1))
            parents = tuple(rng.choice(others, size=k, replace=False))
            ess = float(rng.choice([0.1, 1.0, 4.0, 10.0]))
            got = bdeu_local_score(v, parents, data, ess)
            want = oracle_local_score(v, parents, data, ess)
            assert abs(got - want) < 1e-9, (trial, v, parents, ess)

    def test_ess_must_be_positive(self):
        data = Dataset([[0]])
        with pytest.raises(ValueError):
            bdeu_local_score(0, (), data, ess=0.0)

    @pytest.mark.parametrize("ess", [-1.0, 0.0, math.nan, math.inf])
    def test_ess_must_be_finite_and_positive(self, ess):
        data = Dataset([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="finite and positive"):
            bdeu_local_score(0, (1,), data, ess=ess)
        with pytest.raises(ValueError, match="finite and positive"):
            ScoreCache(data, ess=ess)

    def test_own_parent_rejected(self):
        data = Dataset([[0, 1]])
        with pytest.raises(ValueError):
            bdeu_local_score(0, (0,), data)


class TestCountingKernel:
    @pytest.mark.parametrize("layout", ["C", "F", "read-only"])
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 5000])
    def test_bit_identical_to_sort_kernel(self, n_rows, layout):
        rng = np.random.default_rng(100 + n_rows)
        n = 8
        arities = tuple(int(r) for r in rng.integers(2, 5, size=n))
        # skewed marginals leave configurations empty even when the r*q
        # cells number far fewer than the rows, so the dense branch must
        # drop zero counts exactly where np.unique never lists them
        rows = np.column_stack(
            [rng.choice(r, size=n_rows, p=rng.dirichlet(np.full(r, 0.5))) for r in arities]
        )
        data = Dataset(in_layout(rows, layout), arities)
        dense = set()
        for k in range(n):
            for _ in range(6):
                v = int(rng.integers(n))
                others = [u for u in range(n) if u != v]
                parents = tuple(int(p) for p in rng.choice(others, size=k, replace=False))
                ess = float(rng.choice([0.1, 1.0, 10.0]))
                got = bdeu_local_score(v, parents, data, ess)
                assert got == reference_local_score(v, parents, data, ess), (v, parents, ess)
                dense.add(arities[v] * math.prod(arities[p] for p in parents) <= n_rows)
        if n_rows >= 7:  # both the bincount and the np.unique branch ran
            assert dense == {True, False}

    @pytest.mark.parametrize("layout", ["C", "F", "read-only"])
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 5000])
    def test_fit_parameters_tables_unchanged(self, n_rows, layout):
        rng = np.random.default_rng(200 + n_rows)
        n = 6
        arities = tuple(int(r) for r in rng.integers(2, 5, size=n))
        data = Dataset(in_layout(rng.integers(0, arities, size=(n_rows, n)), layout), arities)
        for trial in range(4):
            dag = random_dag(n, 3, rng)
            ess = float(rng.choice([0.1, 1.0, 10.0]))
            got = fit_parameters(dag, data, ess).tables
            for v, want in enumerate(reference_tables(dag, data, ess)):
                assert np.array_equal(got[v], want), (trial, v)


def skewed_dataset(n, n_rows, rng, low=2):
    """Arities low-4 and per-column state frequencies drawn from a sparse
    Dirichlet, so some states are rare or absent."""
    arities = [int(r) for r in rng.integers(low, 5, size=n)]
    cols = [rng.choice(r, size=n_rows, p=rng.dirichlet([0.3] * r)) for r in arities]
    return Dataset(np.array(cols, dtype=np.int64).T.reshape(n_rows, n), arities)


def widest_dense_parents(data, v):
    """Parents for v, each variable taken in order of decreasing arity if
    the f(v, P) table still has at most N cells: then every addition left
    has r*q*r_u > N."""
    rq, parents = data.arities[v], []
    for u in sorted(range(data.n_vars), key=lambda u: -data.arities[u]):
        if u != v and rq * data.arities[u] <= data.n_rows:
            rq *= data.arities[u]
            parents.append(u)
    return parents


class TestToggledScores:
    def test_equals_local_kernel(self, monkeypatch):
        # every toggled family of random parent sets, on empty, tiny and
        # full-size data, with and without arity-1 columns: the batch must
        # give bdeu_local_score's floats through both of its paths
        ran = Counter()  # families scored by each path
        for name, families in (
            ("_tables_score", lambda cells, sizes, *_: len(sizes)),
            ("bdeu_local_score", lambda *_: 1),
        ):
            def spy(*args, _inner=getattr(scoring, name), _name=name, _families=families):
                ran[_name] += _families(*args)
                return _inner(*args)

            monkeypatch.setattr(scoring, name, spy)
        n = 9
        seen = Counter()
        for n_rows, low in itertools.product((0, 1, 7, 5000), (2, 1)):
            rng = rng_from(53, n_rows, low)
            data = skewed_dataset(n, n_rows, rng, low)
            for trial in range(26):
                v = int(rng.integers(n))
                others = [u for u in range(n) if u != v]
                if trial < 24:
                    size = trial % 7
                    parents = [int(u) for u in rng.choice(others, size=size, replace=False)]
                else:
                    parents = widest_dense_parents(data, v)
                ess = (1.0, 3.7)[trial % 2]
                cache = ScoreCache(data, ess)
                before = Counter(ran)
                got = cache.toggled_scores(v, vertex_mask(parents), others)
                batch = ran - before
                want = [
                    bdeu_local_score(v, set(parents) ^ {u}, data, ess) for u in others
                ]
                assert got == want, (n_rows, low, trial)
                # the same entries local_score would have made
                assert [cache.local_score(v, set(parents) ^ {u}) for u in others] == want
                assert len(cache) == len(others)
                # a dense f(v, P) table scores every toggle in one batch
                # when the pair table fits; with P empty, the pair table,
                # if it fits, or else each family of at most N cells; with
                # P nonempty and the pair table too large, each family of
                # at most N cells
                rq = data.arities[v] * math.prod(data.arities[p] for p in parents)
                pairs_fit = sum(data.arities) ** 2 <= data.rows.size
                product = rq <= n_rows and pairs_fit
                batched = [product] * len(others)
                if not parents or not pairs_fit:
                    sizes = [
                        data.arities[v] * math.prod(data.arities[p] for p in set(parents) ^ {u})
                        for u in others
                    ]
                    batched = [pairs_fit or size <= n_rows for size in sizes]
                assert batch["_tables_score"] == sum(batched)
                assert batch["bdeu_local_score"] == len(others) - sum(batched)
                added = [data.arities[u] for u in others if u not in parents]
                seen["arity 1", n_rows] += product and 1 in added
                # r*q*r_u > N: counted by the product, not np.unique
                seen["wide addition", n_rows] += product and any(rq * r > n_rows for r in added)
        assert ran["_tables_score"] and ran["bdeu_local_score"]
        assert seen["arity 1", 5000] and seen["wide addition", 5000], seen

    def test_only_missing_keys_computed(self, monkeypatch):
        data = skewed_dataset(5, 300, rng_from(59))
        cache = ScoreCache(data)
        known = cache.local_score(0, (1, 3))
        calls = Counter()
        inner = scoring._tables_score

        def spy(cells, sizes, *args):
            calls["scored"] += len(sizes)
            return inner(cells, sizes, *args)

        monkeypatch.setattr(scoring, "_tables_score", spy)
        got = cache.toggled_scores(0, 0b10, [3, 2, 3])
        assert got[0] == got[2] == known
        assert calls["scored"] == 1
        assert cache.toggled_scores(0, 0b10, [2, 3]) == [got[1], known]
        assert calls["scored"] == 1

    def test_wide_family_toggles_filled_as_family_scores(self, monkeypatch):
        # f(v, P) with more cells than rows has no dense table to marginal
        # or extend: its toggles go to family_scores's filling, so those
        # with at most one parent come off the pair table, the others of
        # at most N cells from one bincount, and only the wider ones go
        # to bdeu_local_score, all with bdeu_local_score's floats
        arities = (2, 2, 2, 8, 8)
        rng = rng_from(67)
        data = Dataset(rng.integers(0, arities, size=(100, 5)), arities)
        want = {
            (p, u): bdeu_local_score(0, mask_vertices(p ^ 1 << u), data)
            for p in (0b11000, 0b11010)
            for u in (1, 2, 3, 4)
        }
        calls = Counter()
        for name in ("_tables_score", "bdeu_local_score"):
            def spy(*args, _inner=getattr(scoring, name), _name=name):
                calls[_name] += len(args[1]) if _name == "_tables_score" else 1
                return _inner(*args)

            monkeypatch.setattr(scoring, name, spy)
        for p, batched, wide in ((0b11000, 2, 2), (0b11010, 2, 2)):
            # 2*8*8 = 128 and 2*2*8*8 = 256 cells against 100 rows
            cache = ScoreCache(data)
            before = Counter(calls)
            got = cache.toggled_scores(0, p, [1, 2, 3, 4])
            assert [f.hex() for f in got] == [want[p, u].hex() for u in (1, 2, 3, 4)]
            assert calls - before == Counter(_tables_score=batched, bdeu_local_score=wide)

    def test_invalid_vertices_rejected(self):
        cache = ScoreCache(skewed_dataset(3, 10, rng_from(61)))
        with pytest.raises(ValueError, match="own parent"):
            cache.toggled_scores(0, 0b10, [0])
        with pytest.raises(ValueError, match="own parent"):
            cache.toggled_scores(0, 0b1, [1])
        with pytest.raises(ValueError, match="out of range"):
            cache.toggled_scores(0, 0b10, [3])
        for mask in (-2, 1 << 3):
            with pytest.raises(ValueError, match="out of range"):
                cache.toggled_scores(0, mask, [1])


def family_dataset(n_rows, seed):
    """Six columns of arities 1, 2, 3, 3, 2, 1, with skewed state
    frequencies, so some cells and configurations are empty."""
    rng = rng_from(seed, n_rows)
    arities = (1, 2, 3, 3, 2, 1)
    cols = [rng.choice(r, size=n_rows, p=rng.dirichlet([0.4] * r)) for r in arities]
    return Dataset(np.array(cols, dtype=np.int64).T.reshape(n_rows, len(arities)), arities)


class TestFamilyScores:
    @pytest.mark.parametrize("n_rows", [0, 5, 40, 3000])
    def test_equals_local_kernel_on_every_family(self, monkeypatch, n_rows):
        # every family with at most three parents, all children mixed in
        # one call: every float and cache entry must be bdeu_local_score's,
        # through each of the paths the batch takes
        data = family_dataset(n_rows, 73)
        n = data.n_vars
        families = [
            (v, vertex_mask(p))
            for v in range(n)
            for size in range(4)
            for p in itertools.combinations([u for u in range(n) if u != v], size)
        ]
        # worked out before the spies go in: bdeu_local_score counts its
        # own dense tables with _tables_score
        wants = {
            ess: [bdeu_local_score(v, mask_vertices(p), data, ess) for v, p in families]
            for ess in (1.0, 3.7)
        }
        ran = Counter()
        for name in ("_pair_counts", "_tables_score", "bdeu_local_score"):
            def spy(*args, _inner=getattr(scoring, name), _name=name):
                ran[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(scoring, name, spy)
        for ess, want in wants.items():
            cache = ScoreCache(data, ess)
            got = cache.family_scores(families)
            assert [x.hex() for x in got] == [x.hex() for x in want], (n_rows, ess)
            assert cache._table == dict(zip(families, want))
            # a second call reads the entries back
            assert cache.family_scores(families[::-1]) == want[::-1]
        # the 12 x 12 pair table is built when it has at most 6N cells
        pairs_fit = 12 ** 2 <= data.rows.size
        assert pairs_fit == (n_rows >= 40)
        assert ran["_pair_counts"] == (2 if pairs_fit else 0)
        assert ran["_tables_score"] == (0 if n_rows == 0 else 2 * 3)  # child arities 1-3
        # r*q > N, unless read off the pairwise counts
        wide = sum(
            data.arities[v] * math.prod(data.arities[u] for u in mask_vertices(p)) > n_rows
            and not (p.bit_count() <= 1 and pairs_fit)
            for v, p in families
        )
        assert ran["bdeu_local_score"] == 2 * wide
        if n_rows == 5:
            assert 0 < wide < len(families)

    def test_high_arity_column_skips_pair_table(self, monkeypatch):
        # one column of 100,000 states: the 100,004 x 100,004 pair table
        # would outgrow the data, so families with at most one parent are
        # counted one by one, and still give bdeu_local_score's floats
        def no_pair_table(data):
            raise AssertionError("pair table built")

        monkeypatch.setattr(scoring, "_pair_counts", no_pair_table)
        rng = rng_from(79)
        arities = (2, 100_000, 2)
        rows = np.column_stack([rng.integers(0, r, size=50) for r in arities])
        data = Dataset(rows, arities)
        families = [(v, p) for v in range(3) for p in [0] + [1 << u for u in range(3) if u != v]]
        want = [bdeu_local_score(v, mask_vertices(p), data) for v, p in families]
        assert ScoreCache(data).family_scores(families) == want
        assert ScoreCache(data).toggled_scores(1, 0, [0, 2]) == [want[4], want[5]]

    def test_high_arity_column_skips_state_indicator(self, monkeypatch):
        # one column of 20,000 states at N = 2,000: the N x K indicator
        # would hold 80 MB for 48 kB of rows, so the toggle group goes
        # through family_scores and still gives bdeu_local_score's floats
        def no_indicator(data):
            raise AssertionError("state indicator built")

        monkeypatch.setattr(scoring, "_StateCounts", no_indicator)
        rng = rng_from(97)
        arities = (2, 20_000, 2)
        rows = np.column_stack([rng.integers(0, r, size=2000) for r in arities])
        data = Dataset(rows, arities)
        got = ScoreCache(data).toggled_scores(0, 1 << 2, [1])
        assert [x.hex() for x in got] == [bdeu_local_score(0, (1, 2), data).hex()]

    def test_malformed_keys_rejected(self):
        cache = ScoreCache(family_dataset(10, 83))
        # the child's own bit, negative masks, a bit >= n, children out of range
        for key in ((1, 0b10), (0, 0b11), (0, -1), (0, -4), (0, 1 << 6), (0, 0b10 | 1 << 9),
                    (6, 0), (-1, 0)):
            with pytest.raises(ValueError, match="parent mask of other vertices in range"):
                cache.family_scores([key])
        # a parent set given as vertices is no key
        with pytest.raises(TypeError):
            cache.family_scores([(0, (1, 2))])
        assert len(cache) == 0

    @pytest.mark.parametrize("n_rows", [0, 2, 5, 40, 3000])
    def test_no_parent_toggles_equal_local_score(self, n_rows):
        # the DAG search's first step: every addition to an empty parent
        # set, read off the pairwise counts when that table fits
        data = family_dataset(n_rows, 89)
        n = data.n_vars
        for v in range(n):
            us = [u for u in range(n) if u != v]
            cache = ScoreCache(data, 2.5)
            got = cache.toggled_scores(v, 0, us)
            fresh = ScoreCache(data, 2.5)
            assert [x.hex() for x in got] == [fresh.local_score(v, (u,)).hex() for u in us]
            assert cache._table == fresh._table


class TestTablesScore:
    @pytest.mark.parametrize("n_rows", [1, 7, 5000])
    def test_bit_identical_to_one_table_kernel(self, n_rows):
        # mixed groups of dense tables of one child, with child arity 1-4,
        # 0-5 parents of arity 1-4, and sparse Dirichlet counts, so cells
        # and whole configurations are empty, and at N=5000 some tables
        # hold more than 128 and 256 nonzero cells or configurations,
        # where ndarray.sum's pairwise sum splits its run: every table's
        # score must be the one-table kernel's, bit for bit
        rng = rng_from(67, n_rows)
        seen = Counter()
        for trial in range(36):
            r = 1 + trial % 4
            size = (1, 40, int(rng.integers(2, 40)))[trial % 3]
            tables = []
            for _ in range(size):
                n_parents = rng.integers(0, 4) if trial % 2 else rng.integers(3, 6)
                q = math.prod(int(a) for a in rng.integers(1, 5, size=n_parents))
                p = rng.dirichlet(np.full(r * q, 0.3))
                table = rng.multinomial(n_rows, p)
                tables.append(table)
                cfg = table.reshape(q, r).sum(axis=1)
                seen["zero cell"] += bool((table == 0).any())
                seen["zero configuration"] += bool((cfg == 0).any())
                for k in (128, 256):
                    seen[f"cells > {k}"] += int(np.count_nonzero(table)) > k
                    seen[f"configurations > {k}"] += int(np.count_nonzero(cfg)) > k
            cells = np.concatenate(tables)
            sizes = [t.size for t in tables]
            for ess in (1.0, 3.7):
                got = scoring._tables_score(cells, sizes, r, ess)
                want = [table_score(t, r, ess) for t in tables]
                assert [x.hex() for x in got] == [x.hex() for x in want], (trial, ess)
        assert seen["zero cell"] and seen["zero configuration"]
        if n_rows == 5000:
            assert all(seen[f"{what} > {k}"] for what in ("cells", "configurations")
                       for k in (128, 256)), seen

    @pytest.mark.parametrize("n_rows", [1, 7, 300])
    def test_local_kernel_bit_identical_to_one_table_kernel(self, n_rows):
        # bdeu_local_score's bincount (r*q <= N) and np.unique (r*q > N)
        # branches both score through _runs_score: each float must be the
        # one-table kernel's over the family's dense table
        rng = rng_from(113, n_rows)
        data = skewed_dataset(7, n_rows, rng, low=1)
        branches = Counter()
        for trial in range(60):
            v = int(rng.integers(7))
            others = [u for u in range(7) if u != v]
            chosen = rng.choice(others, size=trial % 7, replace=False)
            parents = tuple(sorted(int(u) for u in chosen))
            r = data.arities[v]
            pcodes, q = reference_parent_codes(data.rows, data.arities, parents)
            table = np.bincount(pcodes * r + data.rows[:, v], minlength=r * q)
            branches[r * q <= n_rows] += 1
            for ess in (1.0, 3.7):
                got = bdeu_local_score(v, parents, data, ess)
                assert got.hex() == table_score(table, r, ess).hex(), (trial, ess)
        assert branches[False] and (n_rows == 1 or branches[True]), branches

    def test_run_sums_equal_ndarray_sum(self):
        # _tables_score relies on np.add.reduceat over runs each led by a
        # 0.0 adding exactly as ndarray.sum over each run does
        rng = rng_from(71)
        for trial in range(300):
            lengths = rng.integers(0, 401, size=int(rng.integers(1, 12)))
            total = int(lengths.sum())
            values = rng.standard_normal(total) * 10.0 ** rng.integers(-6, 7, size=total)
            ends = np.cumsum(lengths)
            want = [float(values[e - k:e].sum()).hex() for e, k in zip(ends, lengths)]
            got = [x.hex() for x in scoring._run_sums(values, lengths).tolist()]
            assert got == want, (
                "np.add.reduceat over a run led by 0.0 no longer equals ndarray.sum over "
                "the run (0.0 plus the run's pairwise sum) in this numpy; the batched "
                f"BDeu scores would stop matching table_score (trial {trial}, lengths "
                f"{lengths.tolist()})"
            )


class TestScoreCache:
    def test_cache_returns_identical_values(self):
        rng = np.random.default_rng(2)
        data = random_dataset(4, 60, rng)
        cache = ScoreCache(data, ess=2.0)
        a = cache.local_score(1, (0, 3))
        b = cache.local_score(1, (3, 0))
        assert a == b == bdeu_local_score(1, (0, 3), data, 2.0)
        assert len(cache) == 1

    def test_mismatched_binding_rejected(self):
        rng = np.random.default_rng(3)
        data = random_dataset(3, 20, rng)
        other = random_dataset(3, 20, rng)
        cache = ScoreCache(data, ess=1.0)
        with pytest.raises(ValueError):
            score_dag(Dag(3), other, cache=cache)
        with pytest.raises(ValueError):
            score_dag(Dag(3), data, ess=2.0, cache=cache)


class TestOrderingInvariance:
    def all_perfect_orders(self, g):
        return [
            p
            for p in itertools.permutations(range(g.n))
            if is_perfect_order(g, p)
        ]

    def test_score_identical_across_perfect_orderings(self):
        # acceptance-scale check: 100 random chordal graphs, up to 6
        # vertices, at least 10 orderings each where available
        rng = np.random.default_rng(29)
        checked_graphs = 0
        while checked_graphs < 100:
            n = int(rng.integers(3, 7))
            graph = random_chordal_graph(n, rng)
            orders = self.all_perfect_orders(graph)
            if len(orders) > 10:
                idx = rng.choice(len(orders), size=10, replace=False)
                orders = [orders[i] for i in idx]
            data = random_dataset(n, int(rng.integers(20, 200)), rng)
            values = [
                score_chordal(ChordalGraph(graph, order), data)
                for order in orders
            ]
            assert max(values) - min(values) <= 1e-9, graph.fingerprint()
            checked_graphs += 1

    def test_oriented_dag_scores_equal_chordal_score(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g = ChordalGraph.from_graph(random_chordal_graph(5, rng))
            data = random_dataset(5, 80, rng)
            d = orient_by_ordering(g, g.ordering)
            assert abs(score_chordal(g, data) - score_dag(d, data)) <= 1e-9


class TestMoveDelta:
    def test_thousand_random_triples(self):
        # acceptance-scale check: delta vs full rescoring, n <= 10,
        # N <= 1000, tolerance 1e-9
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 11))
            graph = random_chordal_graph(n, rng)
            g = ChordalGraph.from_graph(graph)
            moves = inclusion_boundary(g)
            if not moves:
                continue
            move = moves[int(rng.integers(len(moves)))]
            data = random_dataset(n, int(rng.integers(1, 1001)), rng)
            cache = ScoreCache(data)
            before = score_chordal(g, data, cache=cache)
            edited = (
                graph.with_line(move.a, move.b)
                if move.kind == "add"
                else graph.without_line(move.a, move.b)
            )
            after = score_chordal(ChordalGraph.from_graph(edited), data, cache=cache)
            delta = move_delta(g, move, data, cache=cache)
            assert abs(delta - (after - before)) <= 1e-9, (move, n)
            checked += 1

    def test_illegal_moves_rejected(self):
        g = ChordalGraph.from_lines(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        data = Dataset(np.zeros((4, 4), dtype=int), arities=(2, 2, 2, 2))
        # removing a chord of the only 4-cycle leaves a hole
        with pytest.raises(ValueError):
            move_delta(g, Move("remove", 0, 2), data)
        # adding the absent diagonal is fine, removing an absent line is not
        with pytest.raises(ValueError):
            move_delta(g, Move("remove", 1, 3), data)
        with pytest.raises(ValueError):
            move_delta(g, Move("add", 0, 1), data)

    def test_additions_accepted_iff_chordal_exhaustively_n5(self):
        for n in range(2, 6):
            data = Dataset(np.zeros((1, n), dtype=int), arities=(2,) * n)
            cache = ScoreCache(data)
            for graph in all_graphs(n):
                if not is_chordal(graph):
                    continue
                g = ChordalGraph.from_graph(graph)
                for a, b in itertools.combinations(range(n), 2):
                    if graph.has_line(a, b):
                        continue
                    move = Move("add", a, b)
                    if is_chordal(graph.with_line(a, b)):
                        move_delta(g, move, data, cache=cache)
                    else:
                        with pytest.raises(ValueError, match="breaks chordality"):
                            move_delta(g, move, data, cache=cache)


class TestAsymptoticBehaviour:
    def test_delta_sign_tracks_the_generating_structure(self):
        # large-sample probe on a strongly coupled binary chain
        # 0 - 1 - 2 - 3: on the complete graph, removing a chain line must
        # lower the score while removing any other line must raise it,
        # because the conditioning set is all remaining vertices
        from chordalearn.synthetic import DiscreteBayesNet

        flip = np.array([[0.9, 0.1], [0.1, 0.9]])
        net = DiscreteBayesNet(
            Dag(4, [(0, 1), (1, 2), (2, 3)]),
            (2, 2, 2, 2),
            [np.array([[0.5, 0.5]]), flip, flip, flip],
        )
        data = ancestral_sample(net, 30000, rng_from(43))
        cache = ScoreCache(data)
        g = ChordalGraph.from_graph(UndirectedGraph.complete(4))
        chain_lines = {(0, 1), (1, 2), (2, 3)}
        for move in inclusion_boundary(g):
            assert move.kind == "remove"
            delta = move_delta(g, move, data, cache=cache)
            if (move.a, move.b) in chain_lines:
                assert delta < 0, move
            else:
                assert delta > 0, move


class TestDimension:
    def clique_separator_dimension(self, g: ChordalGraph, arities) -> int:
        """Junction-tree inclusion-exclusion computed from maximal cliques
        in visit order; an independent derivation of the parameter count."""
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.lines)
        cliques = [frozenset(c) for c in nx.find_cliques(h)]
        # order cliques along the perfect ordering for running intersection
        pos = {v: i for i, v in enumerate(g.ordering)}
        cliques.sort(key=lambda c: max(pos[v] for v in c))
        seen: set = set()
        dim = 0
        for c in cliques:
            prod = 1
            for v in c:
                prod *= arities[v]
            dim += prod - 1
            sep = c & seen
            if sep:
                prod = 1
                for v in sep:
                    prod *= arities[v]
                dim -= prod - 1
            seen |= c
        return dim

    def test_matches_clique_separator_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            n = int(rng.integers(2, 7))
            g = ChordalGraph.from_graph(random_chordal_graph(n, rng))
            arities = tuple(int(rng.integers(2, 4)) for _ in range(n))
            assert dimension(g, arities) == self.clique_separator_dimension(
                g, arities
            )

    def test_matches_oriented_dag_dimension(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            g = ChordalGraph.from_graph(random_chordal_graph(5, rng))
            arities = tuple(int(rng.integers(2, 4)) for _ in range(5))
            d = orient_by_ordering(g, g.ordering)
            assert dimension(g, arities) == dimension_dag(d, arities)

    def test_known_values(self):
        g = ChordalGraph.from_lines(3, [(0, 1), (1, 2)])
        # binary: cliques {0,1}, {1,2}, separator {1} -> 3 + 3 - 1
        assert dimension(g, (2, 2, 2)) == 5
        assert dimension(ChordalGraph.empty(3), (2, 2, 2)) == 3
        assert dimension(ChordalGraph.from_lines(2, [(0, 1)]), (3, 3)) == 8
