"""Random target structures, random parameters, and sampled datasets.

Everything here is a pure function of an explicit RNG, and every RNG is a
pure function of a (seed, stream ids) tuple, so any artifact can be
regenerated byte-for-byte from its seed.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    ChordalGraph,
    Dag,
    mask_vertices,
    min_fill_chordalize,
    moralize,
    orient_by_ordering,
)
from .scoring import Dataset, _parent_config_codes

_ROW_SUM_TOL = 1e-12

# The most cells, r * q for a vertex of arity r whose parents have q
# configurations, that ``random_parameters`` draws for one table: 2^24
# float64 cells are 128 MiB.  The binary targets generated at n <= 128
# have at most 19 parents, 2^20 cells.
MAX_FAMILY_CELLS = 1 << 24


class FamilyTooLargeError(ValueError):
    """A family has more cells than ``MAX_FAMILY_CELLS``."""


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Generator keyed by a seed plus any number of stream ids; identical
    arguments give an identical byte stream."""
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


class DiscreteBayesNet:
    """A DAG with one conditional probability table per vertex.

    ``tables[v]`` has one row per configuration of v's parents (sorted by
    index, lowest-index parent varying fastest, the same coding the scorer
    uses) and one column per state of v.  Rows are distributions.
    """

    __slots__ = ("dag", "arities", "tables")

    def __init__(self, dag: Dag, arities: Sequence[int], tables: Sequence[np.ndarray]):
        arities = tuple(int(r) for r in arities)
        if len(arities) != dag.n:
            raise ValueError("arities length does not match vertex count")
        if any(r < 1 for r in arities):
            raise ValueError("arities must be at least 1")
        if len(tables) != dag.n:
            raise ValueError("need one table per vertex")
        fixed = []
        for v in range(dag.n):
            q = math.prod(arities[p] for p in mask_vertices(dag.parent_masks[v]))
            t = np.ascontiguousarray(np.asarray(tables[v], dtype=np.float64))
            if t.shape != (q, arities[v]):
                raise ValueError(
                    f"table for vertex {v} has shape {t.shape}, expected {(q, arities[v])}"
                )
            if np.any(t < 0):
                raise ValueError(f"table for vertex {v} has negative entries")
            if np.max(np.abs(t.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
                raise ValueError(f"table rows for vertex {v} do not sum to 1")
            t.flags.writeable = False
            fixed.append(t)
        self.dag = dag
        self.arities = arities
        self.tables = tuple(fixed)

    @property
    def n(self) -> int:
        return self.dag.n

    @property
    def n_states(self) -> int:
        return math.prod(self.arities)

    def log_prob_rows(self, rows: np.ndarray) -> np.ndarray:
        """Log-probability of each row, -inf where a zero parameter is hit."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError("rows must be a (count, n_vars) array")
        total = np.zeros(len(rows))
        with np.errstate(divide="ignore"):
            for v in range(self.n):
                codes, _ = _parent_config_codes(
                    rows, self.arities, mask_vertices(self.dag.parent_masks[v])
                )
                total += np.log(self.tables[v][codes, rows[:, v]])
        return total

    def joint_rows(self) -> np.ndarray:
        """All joint states, one per row, lowest-index variable fastest."""
        return all_joint_rows(self.arities)

    # -- JSON: arcs, arities, row-major flattened tables -----------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "arcs": [list(a) for a in self.dag.arcs],
                "arities": list(self.arities),
                "tables": [t.flatten(order="C").tolist() for t in self.tables],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DiscreteBayesNet":
        """Parse ``to_json`` output.  Any malformed document (bad JSON, a
        missing field, a field of the wrong type or length) raises
        ``ValueError``."""
        doc = json.loads(text)
        try:
            dag = Dag(doc["n"], [tuple(a) for a in doc["arcs"]])
            arities = doc["arities"]
            tables = []
            for v in range(dag.n):
                q = math.prod(arities[p] for p in mask_vertices(dag.parent_masks[v]))
                tables.append(np.asarray(doc["tables"][v]).reshape(q, arities[v]))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed net JSON: {exc!r}") from exc
        return cls(dag, arities, tables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteBayesNet):
            return NotImplemented
        return (
            self.dag == other.dag
            and self.arities == other.arities
            and all(np.array_equal(a, b) for a, b in zip(self.tables, other.tables))
        )


def all_joint_rows(arities: Sequence[int]) -> np.ndarray:
    """Every joint configuration, lowest-index variable varying fastest."""
    arities = tuple(int(r) for r in arities)
    total = math.prod(arities)
    codes = np.arange(total)
    rows = np.empty((total, len(arities)), dtype=np.int64)
    stride = 1
    for v, r in enumerate(arities):
        rows[:, v] = codes // stride % r
        stride *= r
    return rows


def random_dag(n: int, max_parents: int, rng: np.random.Generator) -> Dag:
    """Uniform vertex ordering; each vertex picks a parent-set size
    uniformly in 0..min(max_parents, #predecessors), then that many
    distinct predecessors uniformly."""
    if not 0 <= max_parents < max(n, 1):
        raise ValueError("need 0 <= max_parents < n")
    order = rng.permutation(n)
    arcs = []
    for i, v in enumerate(order):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        if k:
            for p in rng.choice(order[:i], size=k, replace=False):
                arcs.append((int(p), int(v)))
    return Dag(n, arcs)


def random_parameters(
    dag: Dag,
    arities: Sequence[int],
    rng: np.random.Generator,
    min_prob: Optional[float] = None,
) -> DiscreteBayesNet:
    """Tables with rows drawn uniformly on the simplex (symmetric
    Dirichlet, concentration 1).  ``min_prob`` mixes each row with the
    uniform distribution just enough to guarantee every entry is at least
    min_prob (for binary rows: entries land in [min_prob, 1 - min_prob]);
    useful to keep desk-scale statistical tests identifiable, off by
    default.  A family of more than ``MAX_FAMILY_CELLS`` cells raises
    ``FamilyTooLargeError`` before anything is drawn."""
    arities = tuple(int(r) for r in arities)
    qs = [math.prod(arities[p] for p in mask_vertices(pmask)) for pmask in dag.parent_masks]
    for v, q in enumerate(qs):
        if arities[v] * q > MAX_FAMILY_CELLS:
            raise FamilyTooLargeError(
                f"the table of vertex {v} would have {arities[v] * q} cells,"
                f" more than the {MAX_FAMILY_CELLS} a random table may have"
            )
    tables = []
    for v, q in enumerate(qs):
        r = arities[v]
        if min_prob is not None and not 0 <= min_prob * r <= 1:
            raise ValueError("min_prob must lie in [0, 1/arity]")
        rows = rng.dirichlet(np.ones(r), size=q)
        if min_prob is not None:
            lam = min_prob * r
            rows = (1.0 - lam) * rows + lam / r
        rows = rows / rows.sum(axis=1, keepdims=True)
        tables.append(rows)
    return DiscreteBayesNet(dag, arities, tables)


def random_chordal_target(
    n: int,
    rng: np.random.Generator,
    arities: Optional[Sequence[int]] = None,
    max_parents: Optional[int] = None,
    min_prob: Optional[float] = None,
) -> tuple[ChordalGraph, DiscreteBayesNet]:
    """A random chordal graph plus a distribution that factorizes over it.

    Built by chordalizing the moral graph of a random sparse DAG, then
    parameterizing an orientation of the result along its perfect ordering
    (such orientations have no v-structures, so their independence model
    is exactly the graph's separation model).
    """
    if max_parents is None:
        max_parents = min(3, n - 1)
    d = random_dag(n, max_parents, rng)
    chordal, _fills = min_fill_chordalize(moralize(d))
    oriented = orient_by_ordering(chordal, chordal.ordering)
    if arities is None:
        arities = (2,) * n
    net = random_parameters(oriented, arities, rng, min_prob=min_prob)
    return chordal, net


def ancestral_sample(net: DiscreteBayesNet, count: int, rng: np.random.Generator) -> Dataset:
    """Independent rows sampled vertex-by-vertex in topological order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rows = np.zeros((count, net.n), dtype=np.int64, order="F")
    for v in net.dag.topological_order():
        codes, _ = _parent_config_codes(rows, net.arities, mask_vertices(net.dag.parent_masks[v]))
        cum = np.cumsum(net.tables[v][codes], axis=1)
        cum[:, -1] = 1.0
        u = rng.random(count)
        rows[:, v] = (u[:, None] >= cum).sum(axis=1)
    return Dataset(rows, arities=net.arities)
