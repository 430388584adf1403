"""Record a trajectory point: every workload over several seeds, plus one
traced run per workload at the default seed.

    python3 benchmarks/trajectory.py --seeds 1-10 --out benchmarks/baseline/<name>.json

Run from a checkout root.  Each run is a fresh ``run.py`` process, as the
benchmark is meant to be run.  The point holds, per workload, the median
and quartiles of every end-to-end metric, the traced per-layer metrics,
and each ``self_s`` metric's share of the traced pass (``trace.job_s``).
It also holds the environment and the git commit, when there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = str(run.HERE / "run.py")


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
    }


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "values": values}


def point(workloads, seeds, seconds: int) -> dict:
    doc = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = [one(workload, s, seconds, 0) for s in seeds]
        traced = one(workload, run.DEFAULT_SEED, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        base = layers["trace.job_s"]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: {"unit": unit, **spread([r["metrics"][name]["value"] for r in runs])}
                for name, unit in run.END_TO_END
            },
            "per_layer": layers,
            "self_share_of_trace_job_s": {
                k: v / base for k, v in layers.items() if k.endswith(".self_s") and base
            },
        }
    return doc


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--workloads", default=",".join(sorted(run.WORKLOADS)))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    doc = point(args.workloads.split(","), parse_seeds(args.seeds), args.seconds)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    doc["commit"] = commit.stdout.strip() or None
    doc["environment"] = environment()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
