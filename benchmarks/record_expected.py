"""Record the output digests of every workload's jobs at the default seed.

    python3 benchmarks/record_expected.py [workload ...]

Run from a checkout root.  Writes ``benchmarks/expected.json``, which
``run.py`` compares against whenever it runs with the default seed.  Only
record at a commit whose outputs are known to be right: a job whose
output fails the checks is reported and nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def record(workload: str, size: str, work: Path) -> dict:
    jobs = run.WORKLOADS[workload][size].setup(run.DEFAULT_SEED, work / "inputs")
    attempts, reports = [], {}
    for job in jobs:
        error, digests, reports[job.id] = run.execute(job, work / "out")
        attempts.append((job.id, error, digests))
    problems = run.check_outputs(jobs, work / "out", attempts, reports, {})
    bad = {job_id: found for job_id, found in problems.items() if found}
    if bad:
        raise SystemExit(f"{workload}/{size}: outputs fail their checks: {bad}")
    return {job_id: digests for job_id, _, digests in attempts}


def main(names) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    path = run.HERE / "expected.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["default_seed"] = run.DEFAULT_SEED
    work = Path.cwd() / ".bench_work" / "record"
    try:
        for workload in names or sorted(run.WORKLOADS):
            for size in ("full", "tiny"):
                shutil.rmtree(work, ignore_errors=True)
                doc[f"{workload}/{size}"] = record(workload, size, work)
                print(f"recorded {workload}/{size}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
