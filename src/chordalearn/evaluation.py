"""Parameter fitting and model-quality measurements: KL divergence to the
generating distribution (estimated and exact), dimensions, and line
differences, plus the results-CSV schema the experiment harness emits.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .graphs import ChordalGraph, Dag, UndirectedGraph, mask_vertices, orient_by_ordering
from .scoring import Dataset, _parent_config_codes, check_ess
from .synthetic import DiscreteBayesNet

EXACT_STATE_BOUND = 1 << 20


def fit_parameters(
    structure: Union[ChordalGraph, Dag],
    data: Dataset,
    ess: float = 1.0,
) -> DiscreteBayesNet:
    """Posterior-mean tables under the same Dirichlet prior the scorer
    integrates over: theta = (N_count + prior_cell) / (N_config + prior_row),
    prior spread uniformly over the ess.  Chordal structures are oriented
    along their perfect ordering first.
    """
    check_ess(ess)
    dag = (
        orient_by_ordering(structure, structure.ordering)
        if isinstance(structure, ChordalGraph)
        else structure
    )
    if dag.n != data.n_vars:
        raise ValueError("structure and data have different variable counts")
    tables = []
    for v, pmask in enumerate(dag.parent_masks):
        r = data.arities[v]
        cell, rq = _parent_config_codes(data.rows, data.arities, (v, *mask_vertices(pmask)))
        q = rq // r
        counts = np.bincount(cell, minlength=rq).reshape(q, r)
        alpha_cell = ess / rq
        theta = (counts + alpha_cell) / (counts.sum(axis=1, keepdims=True) + ess / q)
        theta = theta / theta.sum(axis=1, keepdims=True)
        tables.append(theta)
    return DiscreteBayesNet(dag, data.arities, tables)


@dataclass(frozen=True)
class KlEstimate:
    kl: float
    se: float


def kl_estimate(g: DiscreteBayesNet, p: DiscreteBayesNet, test: Dataset) -> KlEstimate:
    """Monte-Carlo divergence of p from g on test rows drawn from g: the
    mean log-ratio ln(P_g/P_p), with its standard error."""
    if test.n_rows == 0:
        raise ValueError("test dataset is empty")
    lg = g.log_prob_rows(test.rows)
    lp = p.log_prob_rows(test.rows)
    if np.isneginf(lp).any():
        raise ValueError("fitted model gives an observed row probability zero")
    ratios = lg - lp
    kl = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return KlEstimate(kl, se)


def kl_exact(g: DiscreteBayesNet, p: DiscreteBayesNet) -> float:
    """Exact divergence by joint enumeration; zero-probability states of g
    contribute nothing."""
    if g.arities != p.arities:
        raise ValueError("nets have different state spaces")
    if g.n_states > EXACT_STATE_BOUND:
        raise ValueError(f"joint state space exceeds {EXACT_STATE_BOUND}")
    rows = g.joint_rows()
    lg = g.log_prob_rows(rows)
    lp = p.log_prob_rows(rows)
    pg = np.exp(lg)
    mask = pg > 0
    return float(np.sum(pg[mask] * (lg[mask] - lp[mask])))


def line_diff(
    learned: Union[UndirectedGraph, ChordalGraph],
    target: Union[UndirectedGraph, ChordalGraph],
) -> tuple[int, int]:
    """(false positives, false negatives) of the learned line set."""
    if learned.n != target.n:
        raise ValueError("graphs have different vertex counts")
    a = set(learned.lines)
    b = set(target.lines)
    return len(a - b), len(b - a)


# ---------------------------------------------------------------------------
# results CSV


@dataclass(frozen=True)
class ResultRow:
    target_kind: str
    n_vars: int
    n_obs: int
    replicate: int
    learner: str
    kl: float
    kl_se: float
    dim_learned: int
    dim_target: int
    fp_lines: int
    fn_lines: int
    seed: int
    kl_exact: Optional[float] = None

    def grid_key(self) -> tuple:
        return (self.target_kind, self.n_vars, self.n_obs, self.replicate, self.learner)

    def sort_key(self) -> tuple:
        return self.grid_key()


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(RESULT_COLUMNS)
    for row in rows:
        w.writerow([_cell(getattr(row, c)) for c in RESULT_COLUMNS])
    return buf.getvalue()


def results_from_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(RESULT_COLUMNS):
        raise ValueError(f"unexpected results header: {header}")
    out = []
    for rec in reader:
        if not rec:
            continue
        vals = dict(zip(RESULT_COLUMNS, rec))
        out.append(
            ResultRow(
                target_kind=vals["target_kind"],
                n_vars=int(vals["n_vars"]),
                n_obs=int(vals["n_obs"]),
                replicate=int(vals["replicate"]),
                learner=vals["learner"],
                kl=float(vals["kl"]),
                kl_se=float(vals["kl_se"]),
                dim_learned=int(vals["dim_learned"]),
                dim_target=int(vals["dim_target"]),
                fp_lines=int(vals["fp_lines"]),
                fn_lines=int(vals["fn_lines"]),
                seed=int(vals["seed"]),
                kl_exact=float(vals["kl_exact"]) if vals["kl_exact"] else None,
            )
        )
    return out
