"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests

Run from a checkout root.  The smoke and traced tests start
``benchmarks/run.py`` as a separate process, the way it is meant to be
run; the negative tests call its checker on corrupted outputs to show
that it is not vacuous.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload):
    res, stdout = result(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert "  fail_frac 0.0000 ratio" in stdout
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0
        assert f"  {name} " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = result(workload, trace=1)
    second, _ = result(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _ in run.PER_LAYER]
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert any(v["value"] for v in counts.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_jobs(workload: str, tmp_path: Path):
    jobs = run.WORKLOADS[workload]["tiny"].setup(run.DEFAULT_SEED, tmp_path / "in")
    attempts, reports = [], {}
    for job in jobs:
        error, digests, reports[job.id] = run.execute(job, tmp_path / "out")
        attempts.append((job.id, error, digests))
    return jobs, attempts, reports


def problems_of(jobs, attempts, reports, tmp_path, expected=None):
    problems = run.check_outputs(jobs, tmp_path / "out", attempts, reports, expected or {})
    return problems, run.count_failed(attempts, problems)


def test_clean_outputs_pass(tmp_path):
    jobs, attempts, reports = run_jobs("learn-wide", tmp_path)
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert failed == 0, problems


@pytest.mark.parametrize("edit", ["drop_line", "add_cycle", "garbage"])
def test_corrupted_structure_is_counted(tmp_path, edit):
    jobs, attempts, reports = run_jobs("learn-wide", tmp_path)
    path = tmp_path / "out" / jobs[0].id / "structure.txt"
    rows = path.read_text().splitlines()
    n = int(rows[0].split()[1])
    if edit == "drop_line":
        rows.pop()
    elif edit == "add_cycle":  # a chordless 4-cycle on fresh lines
        rows = [rows[0], "0 1", "1 2", "2 3", "0 3"]
    else:
        rows = ["n x"]
    path.write_text("\n".join(rows) + "\n")
    assert n > 3
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert problems[jobs[0].id]
    assert failed == 1


def test_worse_structure_with_matching_total_is_counted(tmp_path):
    # a legal, suboptimal structure whose trace total is rewritten to match
    # its own score: only the single-line-edit optimality check can object
    from checks import LearnChecker, perfect_parents
    import networkx as nx

    jobs, attempts, reports = run_jobs("learn-wide", tmp_path)
    job = jobs[0]
    n = job.data.n_vars
    dest = tmp_path / "out" / job.id
    (dest / "structure.txt").write_text(f"n {n}\n")
    empty = nx.empty_graph(n)
    total = LearnChecker(job.data).uncached(perfect_parents(empty))
    step = {"delta": 0.0, "move": "add 0 1", "step": 1, "total": total}
    (dest / "trace.jsonl").write_text(json.dumps(step) + "\n")
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert any("improves the score" in p for p in problems[job.id]), problems
    assert failed == 1


def test_changed_digest_is_counted(tmp_path):
    jobs, attempts, reports = run_jobs("learn-dag", tmp_path)
    expected = {job_id: digests for job_id, _, digests in attempts}
    problems, failed = problems_of(jobs, attempts, reports, tmp_path, expected)
    assert failed == 0
    expected[jobs[-1].id] = {"structure": "0" * 64, "trace": "0" * 64}
    problems, failed = problems_of(jobs, attempts, reports, tmp_path, expected)
    assert failed == 1


def test_suite_report_with_violation_is_counted(tmp_path):
    jobs, attempts, reports = run_jobs("verify", tmp_path)
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert failed == 0
    suites = reports[jobs[0].id]
    key = run.suite_id("sweep_local_optima", (3,))
    suites[key] = dataclasses.replace(
        suites[key], violations=[{"problem": "local optimum is not inclusion-optimal"}]
    )
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert problems[jobs[0].id]
    assert failed == 1


def test_report_with_wrong_count_is_counted(tmp_path):
    jobs, attempts, reports = run_jobs("verify", tmp_path)
    suites = reports[jobs[0].id]
    key = run.suite_id("chordality_cross_check", (4,))
    suites[key] = dataclasses.replace(suites[key], chordal_count=60)
    problems, failed = problems_of(jobs, attempts, reports, tmp_path)
    assert problems[jobs[0].id] == [f"{key}: chordal_count = 60, expected 61"]
    assert failed == 1
