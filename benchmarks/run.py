"""chordalearn benchmark: one workload per run, outputs checked, metrics
printed by name with their units.

    python3 benchmarks/run.py --workload learn-wide --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (target generation, sampling, CSV writing) is timed on
its own and repeated, then whole passes over the workload's job list run
until the measuring time is used up, then every output is checked outside
the timed region.  ``--trace 1`` adds one traced pass after the untraced
ones and reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is the JSON result.  See ``DESIGN.md`` for the
workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# start another pass only if it should end before this share of --seconds
PASS_SLACK = 1.25
ESS = 1.0


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class LearnJob:
    id: str
    learner: str
    csv: Path
    data: object  # the generated Dataset, for the checker


@dataclass(frozen=True)
class VerifyJob:
    """All suites in one batch, as ``chordalearn verify`` runs them."""

    id: str
    suites: tuple  # (function name, args, expected report fields)


@dataclass(frozen=True)
class Learn:
    """``datasets`` seeded targets of ``n`` binary variables (max 3 parents),
    each kept only if its line (or arc) count lies in ``size``, sampled to
    ``rows`` rows, and learned by the learner of the same kind."""

    target: str
    n: int
    rows: int
    size: tuple
    datasets: int

    def setup(self, seed: int, dest: Path) -> list:
        from chordalearn.synthetic import (
            ancestral_sample,
            random_chordal_target,
            random_dag,
            random_parameters,
            rng_from,
        )

        jobs = []
        for k in range(self.datasets):
            for attempt in itertools.count():
                if attempt == 1000:
                    raise RuntimeError(f"no target with size in {self.size}")
                rng = rng_from(seed, k, attempt)
                if self.target == "chordal":
                    graph, net = random_chordal_target(self.n, rng, max_parents=3)
                    size = len(graph.lines)
                else:
                    dag = random_dag(self.n, 3, rng)
                    size = len(dag.arcs)
                if self.size[0] <= size <= self.size[1]:
                    break
            if self.target == "dag":
                net = random_parameters(dag, (2,) * self.n, rng)
            data = ancestral_sample(net, self.rows, rng)
            ddir = dest / f"d{k}"
            ddir.mkdir(parents=True)
            data.to_csv(ddir / "train.csv")
            (ddir / "arities.json").write_text(json.dumps(list(net.arities)) + "\n")
            job_id = f"d{k}.{self.target}"
            jobs.append(LearnJob(job_id, self.target, ddir / "train.csv", data))
        return jobs


@dataclass(frozen=True)
class Verify:
    """One job running the brute-force suites in a seeded order.  Set-up
    builds the list and runs ``warmup`` (the same suites at tiny sizes)
    once."""

    suites: tuple  # (function name, args, expected report fields)
    warmup: tuple

    def setup(self, seed: int, dest: Path) -> list:
        from chordalearn import verification
        from chordalearn.synthetic import rng_from

        for name, args, _ in self.warmup:
            getattr(verification, name)(*args)
        order = rng_from(seed, 0).permutation(len(self.suites))
        return [VerifyJob("suites", tuple(self.suites[i] for i in order))]


def suite_id(name: str, args: tuple) -> str:
    return f"{name}{tuple(args)}"


_TINY_SUITES = (
    ("sweep_local_optima", (3,), {"targets": 8, "graphs": 8, "local_optima": 8, "violations": 0}),
    ("sweep_self_checks", (3,), {"targets": 10, "failures": 0}),
    ("sweep_graphoids", (3,), {"models": 8, "failures": 0}),
    ("chordality_cross_check", (4,), {"graphs_checked": 64, "chordal_count": 61, "mismatches": 0}),
    ("sweep_chordal_chains", (4,), {"pairs_checked": 611, "failures": 0}),
    ("probe_dag_targets", (3,), {"targets": 25, "local_optima": 25, "failures": 0}),
)

WORKLOADS = {
    "learn-wide": {
        "full": Learn("chordal", 24, 5_000, (51, 55), 14),
        "tiny": Learn("chordal", 8, 400, (8, 12), 2),
    },
    "learn-dag": {
        "full": Learn("dag", 36, 5_000, (49, 53), 14),
        "tiny": Learn("dag", 8, 400, (6, 10), 2),
    },
    "verify": {
        "full": Verify(
            (
                ("sweep_local_optima", (5,), {"targets": 1024, "graphs": 822, "local_optima": 1262, "violations": 0, "self_check_violations": 0}),
                ("sweep_self_checks", (4,), {"targets": 74, "failures": 0}),
                ("sweep_graphoids", (4,), {"models": 64, "failures": 0, "collider_strong_union_failed": True}),
                ("chordality_cross_check", (6,), {"graphs_checked": 32768, "chordal_count": 18154, "mismatches": 0}),
                ("sweep_chordal_chains", (5,), {"pairs_checked": 40616, "object_level_samples": 418, "failures": 0}),
                ("probe_dag_targets", (4,), {"targets": 543, "local_optima": 543, "failures": 0}),
                ("find_nonoptimal_local_optimum", (), {"found": True, "targets_scanned": 4432, "graph": "n=4;0-1,0-2,1-3", "inclusion_optimal_result": False}),
            ),
            warmup=_TINY_SUITES,
        ),
        "tiny": Verify(_TINY_SUITES, warmup=()),
    },
}

SUITE_NAMES = [s[0] for s in WORKLOADS["verify"]["full"].suites]

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("search.inclusion_boundary.calls", "count"),
    ("search.inclusion_boundary.self_s", "s"),
    ("search.inclusion_boundary.moves", "count"),
    ("search.move_score.calls", "count"),
    ("search.move_score.self_s", "s"),
    ("search.steps", "count"),
    ("search.scored_per_step", "ratio"),
    ("search.apply_move.calls", "count"),
    ("search.apply_move.self_s", "s"),
    ("search.dag_moves.calls", "count"),
    ("search.dag_moves.self_s", "s"),
    ("search.dag_moves.moves", "count"),
    ("search.OracleScore.init.calls", "count"),
    ("search.OracleScore.init.self_s", "s"),
    ("search.greedy.self_s", "s"),
    ("graphs.is_chordal.calls", "count"),
    ("graphs.is_chordal.self_s", "s"),
    ("graphs.legal_ratio", "ratio"),
    ("graphs.ChordalGraph.from_graph.calls", "count"),
    ("graphs.ChordalGraph.from_graph.self_s", "s"),
    ("graphs.Dag.reachable_from.calls", "count"),
    ("graphs.Dag.reachable_from.self_s", "s"),
    ("scoring.Dataset.from_csv.self_s", "s"),
    ("scoring.Dataset.from_csv.rows", "count"),
    ("scoring.local_score.calls", "count"),
    ("scoring.local_score.self_s", "s"),
    ("scoring.bdeu_local_score.calls", "count"),
    ("scoring.bdeu_local_score.self_s", "s"),
    ("scoring.cache_hit_ratio", "ratio"),
    ("scoring.cache_entries", "count"),
    ("scoring.rows_counted", "count"),
    ("independence.independent.calls", "count"),
    ("independence.independent.self_s", "s"),
    ("independence.graphoid_report.calls", "count"),
    ("independence.graphoid_report.self_s", "s"),
    ("independence.inclusion_optimal.calls", "count"),
    ("independence.inclusion_optimal.self_s", "s"),
    *((f"verification.{name}.s", "s") for name in SUITE_NAMES),
    ("verification.enumerate_chordal.self_s", "s"),
    ("verification.naive_is_chordal.self_s", "s"),
    ("synthetic.random_chordal_target.s", "s"),
    ("synthetic.random_dag.s", "s"),
    ("synthetic.ancestral_sample.s", "s"),
    ("scoring.Dataset.to_csv.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------------------
# running jobs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CPUS = sorted(os.sched_getaffinity(0))
_turn = itertools.count()


def next_cpu() -> None:
    """Move this process to the next of its allowed CPUs.  Called before
    each set-up, learn job and verify suite.  On a shared host each CPU is
    slowed by other tenants independently of the other, for seconds to
    minutes at a time, and an unpinned process stays on one CPU; taking
    the CPUs in turn averages their states instead of letting one set the
    whole run.  Nothing runs in parallel."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[next(_turn) % len(CPUS)]})


def execute(job, out: Path, call=None) -> tuple:
    """Run one job; returns (error or None, output digests, verification
    reports by suite id).  ``call`` wraps each suite in a span when
    tracing."""
    from chordalearn import cli, verification

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if isinstance(job, LearnJob):
                next_cpu()
                dest = out / job.id
                rc = cli.main(
                    ["learn", "--data", str(job.csv), "--learner", job.learner,
                     "--out", str(dest)]
                )
                if rc != 0:
                    return f"exit code {rc}: {sink.getvalue().strip()}", None, {}
                return None, {
                    "structure": _sha((dest / "structure.txt").read_bytes()),
                    "trace": _sha((dest / "trace.jsonl").read_bytes()),
                }, {}
            reports = {}
            for name, args, _ in job.suites:
                next_cpu()
                fn = getattr(verification, name)
                reports[suite_id(name, args)] = (
                    call(fn, f"verification.{name}", *args) if call else fn(*args)
                )
    except Exception:  # a failing job is counted, and the run goes on
        return traceback.format_exc(), None, {}
    digests = {k: _sha(verification.report_to_json(r).encode()) for k, r in reports.items()}
    return None, digests, reports


def check_outputs(jobs, out: Path, attempts: list, reports: dict, expected: dict) -> dict:
    """Problems per job id: output checks, digests repeating across
    attempts, and digests recorded for the default seed."""
    from checks import LearnChecker, check_report

    problems = {job.id: [] for job in jobs}
    first = {}
    for job_id, error, digests in attempts:
        if error is not None:
            problems[job_id].append(error.strip().splitlines()[-1])
        elif first.setdefault(job_id, digests) != digests:
            problems[job_id].append("output differs between attempts")
    checkers = {}
    for job in jobs:
        if job.id not in first:
            continue
        if expected and expected.get(job.id) != first[job.id]:
            problems[job.id].append("output digest differs from the recorded one")
        if isinstance(job, LearnJob):
            checker = checkers.setdefault(job.csv, LearnChecker(job.data, ESS))
            dest = out / job.id
            problems[job.id] += checker.check(
                job.learner,
                (dest / "structure.txt").read_text(),
                (dest / "trace.jsonl").read_text(),
            )
        else:
            for name, args, want in job.suites:
                key = suite_id(name, args)
                problems[job.id] += [f"{key}: {p}" for p in check_report(reports[job.id][key], want)]
    return problems


def count_failed(attempts: list, problems: dict) -> int:
    """Attempts that raised or exited nonzero, or whose job has a problem."""
    return sum(1 for job_id, error, _ in attempts if error or problems[job_id])


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(summary: dict, cache_entries: int, traced_s: float, untraced_s: float) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def parented(name, parent):
        return summary.get(name, {}).get("by_parent", {}).get(parent, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in (
        "search.inclusion_boundary", "search.move_score", "search.apply_move",
        "search.dag_moves", "search.OracleScore.init", "graphs.is_chordal",
        "graphs.ChordalGraph.from_graph", "graphs.Dag.reachable_from",
        "scoring.local_score", "scoring.bdeu_local_score",
        "independence.independent", "independence.graphoid_report",
        "independence.inclusion_optimal",
    ):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    steps = get("search.apply_move", "calls") + get("search.apply_dag_move", "calls")
    scored = get("search.move_score", "calls") + get("search.dag_moves", "count")
    misses = parented("scoring.bdeu_local_score", "scoring.local_score")
    m.update({
        "search.inclusion_boundary.moves": get("search.inclusion_boundary", "count"),
        "search.steps": steps,
        "search.scored_per_step": ratio(scored, steps),
        "search.dag_moves.moves": get("search.dag_moves", "count"),
        "search.greedy.self_s": get("search.greedy_chordal", "self_s")
        + get("search.greedy_dag", "self_s"),
        "graphs.legal_ratio": ratio(
            get("search.inclusion_boundary", "count"),
            parented("graphs.is_chordal", "search.inclusion_boundary"),
        ),
        "scoring.Dataset.from_csv.self_s": get("scoring.Dataset.from_csv", "self_s"),
        "scoring.Dataset.from_csv.rows": get("scoring.Dataset.from_csv", "count"),
        "scoring.cache_hit_ratio": ratio(get("scoring.local_score", "calls") - misses,
                                         get("scoring.local_score", "calls")),
        "scoring.cache_entries": cache_entries,
        "scoring.rows_counted": get("scoring.bdeu_local_score", "count"),
        "verification.enumerate_chordal.self_s": get("verification.enumerate_chordal", "self_s"),
        "verification.naive_is_chordal.self_s": get("verification.naive_is_chordal", "self_s"),
        "synthetic.random_chordal_target.s": get("synthetic.random_chordal_target", "total_s"),
        "synthetic.random_dag.s": get("synthetic.random_dag", "total_s"),
        "synthetic.ancestral_sample.s": get("synthetic.ancestral_sample", "total_s"),
        "scoring.Dataset.to_csv.s": get("scoring.Dataset.to_csv", "total_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.job_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
    })
    for name in SUITE_NAMES:
        m[f"verification.{name}.s"] = get(f"verification.{name}", "total_s")
    return m


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> dict:
    spec = WORKLOADS[workload][size]
    inputs, out = work / "inputs", work / "out"
    work.mkdir(parents=True)
    expected = {}
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "expected.json").read_text())
        expected = recorded.get(f"{workload}/{size}", {})

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        next_cpu()
        t0 = perf_counter()
        jobs = spec.setup(seed, inputs)
        setup_times.append(perf_counter() - t0)

    attempts, job_times, pass_times, reports = [], [], [], {}
    while not pass_times or (
        sum(pass_times) + statistics.fmean(pass_times) <= PASS_SLACK * seconds
    ):
        p0 = perf_counter()
        for job in jobs:
            t0 = perf_counter()
            error, digests, reports[job.id] = execute(job, out)
            job_times.append(perf_counter() - t0)
            attempts.append((job.id, error, digests))
        pass_times.append(perf_counter() - p0)
    elapsed = sum(pass_times)
    untraced = len(attempts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": untraced / elapsed,
        "job_s.p50": statistics.median(job_times),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        cache_entries = 0
        with tracer.patched():
            shutil.rmtree(inputs, ignore_errors=True)
            jobs = spec.setup(seed, inputs)
            t0 = perf_counter()
            for j, job in enumerate(jobs):
                tracer.job_id = j
                error, digests, reports[job.id] = execute(job, out, tracer.span)
                attempts.append((job.id, error, digests))
                cache_entries += sum(len(c) for c in tracer.caches)
                tracer.caches.clear()
            traced_s = perf_counter() - t0
        tracer.write(work.parent / f"spans-{workload}-{size}.npz")
        layers = layer_metrics(
            tracer.summary(), cache_entries, traced_s, statistics.median(pass_times)
        )
        metrics = {name: layers[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)

    t0 = perf_counter()
    problems = check_outputs(jobs, out, attempts, reports, expected)
    check_s = perf_counter() - t0
    failed = count_failed(attempts, problems)
    for job_id, found in problems.items():
        for problem in found:
            print(f"FAIL {job_id}: {problem}", file=sys.stderr)

    print(f"workload {workload} ({size}) seed {seed}: {untraced} jobs in "
          f"{len(pass_times)} passes, {elapsed:.2f}s, checked in {check_s:.2f}s")
    print(f"  fail_frac {failed / len(attempts):.4f} ratio ({failed}/{len(attempts)})")
    for name, value in metrics.items():
        print(f"  {name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for self-tests")
    args = p.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "chordalearn" / "__init__.py").is_file():
        print(f"error: no chordalearn sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = Path.cwd() / ".bench_work" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     "tiny" if args.tiny else "full", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
