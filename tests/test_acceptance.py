"""Acceptance gate: twelve criteria, one test and one printed verdict each.

Each criterion prints exactly one ``criterion NN <name>: PASS/FAIL`` line;
the default pytest options (-rA) echo those lines in the run summary.
Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from chordalearn import cli
from chordalearn import verification as verif
from chordalearn.evaluation import (
    fit_parameters,
    kl_estimate,
    kl_exact,
    results_from_csv,
)
from chordalearn.graphs import ChordalGraph, is_perfect_order
from chordalearn.scoring import Dataset, ScoreCache, score_chordal
from chordalearn.search import Move, inclusion_boundary
from chordalearn.synthetic import ancestral_sample, random_chordal_target, rng_from

from conftest import move_delta, random_chordal_graph

DELTA_TOL = 1e-9
ORDERING_TOL = 1e-9
SWEEP_TIME_LIMIT = 600.0
EXPERIMENT_TIME_LIMIT = 1800.0


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_local_optima_sweep_n5():
    t0 = time.perf_counter()
    rep = verif.sweep_local_optima(5)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.ok
        and rep.targets == 1024
        and rep.graphs == 822
        and rep.local_optima >= rep.targets
        and elapsed <= SWEEP_TIME_LIMIT
    )
    verdict(
        1,
        "every-local-optimum-inclusion-optimal (n=5)",
        ok,
        f"{rep.local_optima} optima over {rep.targets} targets, "
        f"{len(rep.violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_02_score_self_check_n4():
    rep = verif.sweep_self_checks(4)
    ok = rep.ok and rep.targets == 2 + 8 + 64
    verdict(
        2,
        "constructed-score local consistency (n<=4)",
        ok,
        f"{rep.targets} targets, {len(rep.failures)} failures",
    )


def test_criterion_03_incremental_scoring():
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(3, 11))
        graph = random_chordal_graph(n, rng)
        g = ChordalGraph.from_graph(graph)
        moves = inclusion_boundary(g)
        if not moves:
            continue
        move = moves[int(rng.integers(len(moves)))]
        arities = [int(rng.integers(2, 4)) for _ in range(n)]
        data = Dataset(
            rng.integers(0, arities, size=(int(rng.integers(1, 1001)), n)),
            arities,
        )
        cache = ScoreCache(data)
        before = score_chordal(g, data, cache=cache)
        edited = (
            graph.with_line(move.a, move.b)
            if move.kind == "add"
            else graph.without_line(move.a, move.b)
        )
        after = score_chordal(ChordalGraph.from_graph(edited), data, cache=cache)
        gap = abs(move_delta(g, move, data, cache=cache) - (after - before))
        worst = max(worst, gap)
        checked += 1
    ok = worst <= DELTA_TOL
    verdict(
        3,
        "single-line delta equals full rescoring",
        ok,
        f"{checked} triples, worst gap {worst:.2e}, tol {DELTA_TOL:.0e}",
    )


def test_criterion_04_ordering_invariance():
    rng = np.random.default_rng(103)
    graphs = 0
    worst = 0.0
    while graphs < 100:
        n = int(rng.integers(3, 7))
        graph = random_chordal_graph(n, rng)
        orders = [
            p
            for p in itertools.permutations(range(n))
            if is_perfect_order(graph, p)
        ]
        if len(orders) > 10:
            idx = rng.choice(len(orders), size=10, replace=False)
            orders = [orders[i] for i in idx]
        data = Dataset(rng.integers(0, 2, size=(int(rng.integers(20, 200)), n)))
        values = [
            score_chordal(ChordalGraph(graph, order), data) for order in orders
        ]
        worst = max(worst, max(values) - min(values))
        graphs += 1
    ok = worst <= ORDERING_TOL
    verdict(
        4,
        "score invariant across perfect orderings",
        ok,
        f"100 graphs, worst spread {worst:.2e}, tol {ORDERING_TOL:.0e}",
    )


def test_criterion_05_graphoid_suite():
    reps = [verif.sweep_graphoids(n) for n in range(2, 6)]
    models = sum(r.models for r in reps)
    ok = all(r.ok for r in reps) and models == 2 + 8 + 64 + 1024
    verdict(
        5,
        "five axioms on all UG models n<=5, collider breaks strong union",
        ok,
        f"{models} models, collider check "
        f"{'hit' if all(r.collider_strong_union_failed for r in reps) else 'MISSED'}",
    )


def test_criterion_06_chain_disjunction_sample():
    rep = verif.sample_chain_disjunctions(10_000, seed=0)
    ok = rep.ok and rep.evaluated == 10_000 and rep.holds == 10_000
    verdict(
        6,
        "endpoint disjunction on 10k premise-satisfying chains",
        ok,
        f"{rep.holds}/{rep.evaluated} hold",
    )


def test_criterion_07_single_line_chains():
    reps = [verif.sweep_chordal_chains(n) for n in range(2, 6)]
    ok = all(r.ok for r in reps)
    verdict(
        7,
        "single-line chains between all nested chordal pairs n<=5",
        ok,
        f"{sum(r.pairs_checked for r in reps)} pairs",
    )


def test_criterion_08_neighborhood_ground_truth():
    g = ChordalGraph.from_lines(4, [(1, 2), (2, 3), (0, 3)])
    got = inclusion_boundary(g)
    want = [
        Move("add", 0, 2),
        Move("add", 1, 3),
        Move("remove", 0, 3),
        Move("remove", 1, 2),
        Move("remove", 2, 3),
    ]
    verdict(
        8,
        "worked-example boundary is exactly five moves",
        got == want,
        ", ".join(m.to_string() for m in got),
    )


def test_criterion_09_latent_counterexample():
    rep = verif.find_nonoptimal_local_optimum(4)
    ok = (
        rep.found
        and rep.local_optimum_confirmed is True
        and rep.inclusion_optimal_result is False
    )
    verdict(
        9,
        "non-optimal local optimum exists for a latent target",
        ok,
        f"graph {rep.graph}, latent {rep.latent}" if rep.found else "not found",
    )


def test_criterion_10_desk_scale_trends(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "target_kinds": ["chordal"],
                "n_vars": [8],
                "arity": 2,
                "n_obs": [100, 1000, 10000, 100000],
                "test_obs": 10000,
                "replicates": 10,
                "learners": ["chordal"],
                "include_target": False,
                "seed": 11,
            }
        )
    )
    out = tmp_path / "run"
    t0 = time.perf_counter()
    rc = cli.main(["experiment", "--config", str(config), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = results_from_csv((out / "results.csv").read_text())
    assert len(rows) == 40
    by_n: dict = {}
    for r in rows:
        by_n.setdefault(r.n_obs, []).append(r)
    sizes = sorted(by_n)
    med_kl = [statistics.median(r.kl_exact for r in by_n[n]) for n in sizes]
    med_fp_high = statistics.median(r.fp_lines for r in by_n[sizes[-1]])
    med_fn_low = statistics.median(r.fn_lines for r in by_n[sizes[0]])
    med_dim_low = statistics.median(r.dim_learned for r in by_n[sizes[0]])
    med_dim_target = statistics.median(r.dim_target for r in by_n[sizes[0]])
    trend = all(a >= b for a, b in zip(med_kl, med_kl[1:]))
    fp_ok = med_fp_high <= med_fn_low and med_fp_high <= 1
    dim_ok = med_dim_low < med_dim_target
    ok = trend and fp_ok and dim_ok and elapsed <= EXPERIMENT_TIME_LIMIT
    verdict(
        10,
        "desk-scale learning trends (8 binary vars, 10 replicates)",
        ok,
        f"median divergence {['%.4f' % k for k in med_kl]}, "
        f"fp@1e5 {med_fp_high} <= fn@1e2 {med_fn_low}, "
        f"dim@1e2 {med_dim_low} < target {med_dim_target}, {elapsed:.0f}s",
    )


def test_criterion_11_divergence_estimator_coverage():
    hits = 0
    for trial in range(100):
        rng = rng_from(311, trial)
        n = 4 + trial % 5
        g, truth = random_chordal_target(n, rng, min_prob=0.02)
        fitted = fit_parameters(g, ancestral_sample(truth, 2000, rng))
        test = ancestral_sample(truth, 10_000, rng)
        est = kl_estimate(truth, fitted, test)
        exact = kl_exact(truth, fitted)
        if abs(est.kl - exact) <= 3.0 * est.se:
            hits += 1
    ok = hits >= 95
    verdict(
        11,
        "sampled divergence within 3 SE of exact in >=95/100 trials",
        ok,
        f"{hits}/100 within 3 SE",
    )


def test_criterion_12_byte_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(
        json.dumps({"n_vars": 5, "n_obs": [100, 400], "test_obs": 500, "seed": 3})
    )
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(
        json.dumps(
            {
                "target_kinds": ["chordal", "dag"],
                "n_vars": [4],
                "n_obs": [80],
                "test_obs": 300,
                "replicates": 2,
                "seed": 7,
            }
        )
    )

    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    pairs = []
    for tag in ("a", "b"):
        g_out = tmp_path / f"gen_{tag}"
        e_out = tmp_path / f"exp_{tag}"
        assert cli.main(["generate", "--config", str(gen_cfg), "--out", str(g_out)]) == 0
        assert cli.main(["experiment", "--config", str(exp_cfg), "--out", str(e_out)]) == 0
        l_out = tmp_path / f"learn_{tag}"
        assert (
            cli.main(
                [
                    "learn",
                    "--data",
                    str(g_out / "data/chordal_n5_r0/train_400.csv"),
                    "--out",
                    str(l_out),
                ]
            )
            == 0
        )
        pairs.append((tree(g_out), tree(e_out), tree(l_out)))
    ok = pairs[0] == pairs[1]
    files = sum(len(t) for t in pairs[0])
    verdict(
        12,
        "identical seeds give byte-identical artifacts",
        ok,
        f"{files} files compared across generate/experiment/learn",
    )
