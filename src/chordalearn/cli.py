"""Command-line harness.

Subcommands: generate (target + datasets), learn (greedy structure
search), eval (results-CSV rows for learned structures), verify
(brute-force suites), experiment (the full generate/learn/eval grid).
Every artifact is a pure function of (config, seed): reruns are
byte-identical, and timing goes to stderr only.

Exit codes: 0 success, 1 usage, 2 verification violation, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

from .evaluation import (
    EXACT_STATE_BOUND,
    ResultRow,
    fit_parameters,
    kl_estimate,
    kl_exact,
    line_diff,
    results_from_csv,
    results_to_csv,
)
from .graphs import ChordalGraph, Dag, UndirectedGraph, moralize
from .scoring import Dataset, ScoreCache, check_ess, dimension, dimension_dag
from .search import BDeuScorer, greedy_chordal, greedy_dag
from .synthetic import (
    DiscreteBayesNet,
    ancestral_sample,
    random_chordal_target,
    random_dag,
    random_parameters,
    rng_from,
)
from . import verification as verif

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the harness reserves 2 for
    # verification violations, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# config handling


GENERATE_DEFAULTS = {
    "target_kind": "chordal",
    "n_vars": 8,
    "arity": 2,
    "max_parents": None,  # kind-dependent: 3 for chordal, 5 for dag
    "n_obs": [100, 1000, 10000],
    "test_obs": 10000,
    "seed": 1,
    "replicate": 0,
    "min_prob": None,
}

EXPERIMENT_DEFAULTS = {
    "target_kinds": ["chordal"],
    "n_vars": [8],
    "arity": 2,
    "max_parents": None,
    "n_obs": [100, 1000, 10000],
    "test_obs": 10000,
    "seed": 1,
    "replicates": 3,
    "ess": 1.0,
    "learners": ["chordal", "dag"],
    "include_target": True,
    "min_prob": None,
}

_KIND_PARENTS = {"chordal": 3, "dag": 5}
_KINDS = ("chordal", "dag")  # target kinds, and the learners that match them


def _load_config(path: Optional[str], defaults: dict) -> dict:
    cfg = dict(defaults)
    if path is not None:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise UsageError("config: top level must be an object")
        for key, value in doc.items():
            if key not in defaults:
                raise UsageError(f"config: unknown field {key!r}")
            cfg[key] = value
    return cfg


def _check_fields(cfg: dict, grid: bool = False, prefix: str = "config") -> None:
    """Reject a bad field with a usage error before any work starts.
    ``grid`` marks the experiment config, whose ``n_vars`` is a list."""

    def fail(name, want):
        raise UsageError(f"{prefix}.{name}: expected {want}, got {cfg[name]!r}")

    def is_int(x, low):
        return isinstance(x, int) and not isinstance(x, bool) and x >= low

    n_vars = cfg["n_vars"]
    if grid and not (
        isinstance(n_vars, list) and n_vars and all(is_int(x, 1) for x in n_vars)
    ):
        fail("n_vars", "a non-empty list of integers >= 1")
    if not grid and not is_int(n_vars, 1):
        fail("n_vars", "an integer >= 1")
    bounds = {"arity": 1, "test_obs": 1, "seed": 0, "replicate": 0, "replicates": 0}
    for name, low in bounds.items():
        if name in cfg and not is_int(cfg[name], low):
            fail(name, f"an integer >= {low}")
    if cfg["max_parents"] is not None and not is_int(cfg["max_parents"], 0):
        fail("max_parents", "null or an integer >= 0")
    v = cfg["min_prob"]
    if v is not None and (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or not 0 <= v * cfg["arity"] <= 1  # the rule random_parameters applies
    ):
        fail("min_prob", "null or a number in [0, 1/arity]")
    v = cfg["n_obs"]
    if not (isinstance(v, list) and (v or not grid) and all(is_int(x, 1) for x in v)):
        fail("n_obs", f"a {'non-empty ' if grid else ''}list of positive integers")
    if "target_kind" in cfg and cfg["target_kind"] not in _KINDS:
        fail("target_kind", "one of 'chordal', 'dag'")
    if "include_target" in cfg and not isinstance(cfg["include_target"], bool):
        fail("include_target", "true or false")
    if "ess" in cfg:
        v = cfg["ess"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
            fail("ess", "a finite positive number")
    if "target_kinds" in cfg and not (
        isinstance(cfg["target_kinds"], list)
        and cfg["target_kinds"]
        and all(x in _KINDS for x in cfg["target_kinds"])
    ):
        fail("target_kinds", f"a non-empty list drawn from {_KINDS}")
    if "learners" in cfg and not (
        isinstance(cfg["learners"], list) and all(x in _KINDS for x in cfg["learners"])
    ):
        fail("learners", f"a list drawn from {_KINDS}")


def _ess_arg(text: str) -> float:
    """argparse type for --ess: a finite number > 0, else a usage error."""
    try:
        value = float(text)
        check_ess(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}"
        ) from None
    return value


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_learned(out: Path, structure, trace) -> None:
    _write(out / "structure.txt", structure.to_text())
    _write(out / "trace.jsonl", trace.to_jsonl())


# ---------------------------------------------------------------------------
# target construction shared by generate and experiment


def _make_target(kind: str, n: int, arity: int, max_parents, rng, min_prob):
    """Returns (net, target_lines_graph, dim_target, structure_text)."""
    arities = (arity,) * n
    mp = max_parents if max_parents is not None else _KIND_PARENTS[kind]
    mp = min(mp, n - 1)
    if kind == "chordal":
        graph, net = random_chordal_target(
            n, rng, arities=arities, max_parents=mp, min_prob=min_prob
        )
        return net, graph.graph, dimension(graph, arities), graph.graph.to_text()
    dag = random_dag(n, mp, rng)
    net = random_parameters(dag, arities, rng, min_prob=min_prob)
    return net, moralize(dag), dimension_dag(dag, arities), dag.to_text()


_KIND_STREAM = {"chordal": 0, "dag": 1}


def _generate_cell(cfg: dict, out: Path, kind: str, n: int, replicate: int) -> dict:
    """Write one target plus its datasets; returns the artifact paths."""
    seed = cfg["seed"]
    kid = _KIND_STREAM[kind]
    rng = rng_from(seed, kid, replicate, 0, n)
    net, lines_graph, dim_target, structure_text = _make_target(
        kind, n, cfg["arity"], cfg["max_parents"], rng, cfg["min_prob"]
    )
    cell = f"{kind}_n{n}_r{replicate}"
    tdir = out / "targets" / cell
    ddir = out / "data" / cell
    _write(tdir / "structure.txt", structure_text)
    _write(tdir / "lines.txt", lines_graph.to_text())
    _write(tdir / "net.json", net.to_json() + "\n")
    _write(ddir / "arities.json", json.dumps(list(net.arities)) + "\n")
    test = ancestral_sample(net, cfg["test_obs"], rng_from(seed, kid, replicate, 1, n))
    test.to_csv(ddir / "test.csv")
    trains = {}
    for n_obs in cfg["n_obs"]:
        train = ancestral_sample(
            net, n_obs, rng_from(seed, kid, replicate, 2, n, n_obs)
        )
        train.to_csv(ddir / f"train_{n_obs}.csv")
        trains[n_obs] = ddir / f"train_{n_obs}.csv"
    return {
        "net": tdir / "net.json",
        "lines": tdir / "lines.txt",
        "dim_target": dim_target,
        "test": ddir / "test.csv",
        "trains": trains,
        "cell": cell,
    }


def _read_dataset(path: Path, arities_path: Optional[Path] = None) -> Dataset:
    if arities_path is None:
        candidate = path.parent / "arities.json"
        arities_path = candidate if candidate.exists() else None
    arities = (
        json.loads(arities_path.read_text()) if arities_path is not None else None
    )
    return Dataset.from_csv(path, arities=arities)


def _learn(data: Dataset, learner: str, ess: float):
    """Run one greedy learner from the empty structure."""
    if learner == "chordal":
        return greedy_chordal(BDeuScorer(data, ess), ChordalGraph.empty(data.n_vars))
    if learner == "dag":
        return greedy_dag(ScoreCache(data, ess))
    raise UsageError(f"unknown learner {learner!r}")


def _structure_lines(structure) -> UndirectedGraph:
    if isinstance(structure, ChordalGraph):
        return structure.graph
    return moralize(structure)


def _structure_dimension(structure, arities) -> int:
    if isinstance(structure, ChordalGraph):
        return dimension(structure, arities)
    return dimension_dag(structure, arities)


def _eval_row(
    structure,
    target_net: DiscreteBayesNet,
    target_lines: UndirectedGraph,
    dim_target: int,
    train: Dataset,
    test: Dataset,
    ess: float,
    meta: dict,
) -> ResultRow:
    fitted = fit_parameters(structure, train, ess)
    est = kl_estimate(target_net, fitted, test)
    exact = (
        kl_exact(target_net, fitted)
        if target_net.n_states <= EXACT_STATE_BOUND
        else None
    )
    fp, fn = line_diff(_structure_lines(structure), target_lines)
    return ResultRow(
        target_kind=meta["target_kind"],
        n_vars=meta["n_vars"],
        n_obs=meta["n_obs"],
        replicate=meta["replicate"],
        learner=meta["learner"],
        kl=est.kl,
        kl_se=est.se,
        dim_learned=_structure_dimension(structure, train.arities),
        dim_target=dim_target,
        fp_lines=fp,
        fn_lines=fn,
        seed=meta["seed"],
        kl_exact=exact,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, GENERATE_DEFAULTS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    _check_fields(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "config.json", json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    t0 = time.perf_counter()
    arts = _generate_cell(cfg, out, cfg["target_kind"], cfg["n_vars"], cfg["replicate"])
    print(f"generated {arts['cell']}: net, test, {len(arts['trains'])} train sets")
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_learn(args) -> int:
    data = _read_dataset(Path(args.data), Path(args.arities) if args.arities else None)
    t0 = time.perf_counter()
    structure, trace = _learn(data, args.learner, args.ess)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_learned(out, structure, trace)
    print(f"learned {args.learner} structure in {len(trace.steps)} moves")
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK


def _load_structure(path: Path, learner: str):
    text = path.read_text()
    if learner == "dag":
        return Dag.from_text(text)
    return ChordalGraph.from_text(text)


def cmd_eval(args) -> int:
    structures = []
    for item in args.structure or []:
        learner, _, path = item.partition(":")
        if not path:
            raise UsageError("--structure takes learner:path")
        if learner not in _KINDS:
            raise UsageError(f"--structure: learner must be one of {_KINDS}, got {learner!r}")
        structures.append((learner, Path(path)))
    target_net = DiscreteBayesNet.from_json(Path(args.net).read_text())
    target_lines = UndirectedGraph.from_text(Path(args.lines).read_text())
    train = _read_dataset(Path(args.train))
    test = _read_dataset(Path(args.test))
    dim_target = args.dim_target
    if dim_target is None:
        dim_target = dimension_dag(target_net.dag, train.arities)
    rows = []
    meta = {
        "target_kind": args.target_kind,
        "n_vars": train.n_vars,
        "n_obs": train.n_rows,
        "replicate": args.replicate,
        "seed": args.seed,
    }
    for learner, path in structures:
        structure = _load_structure(path, learner)
        rows.append(
            _eval_row(
                structure,
                target_net,
                target_lines,
                dim_target,
                train,
                test,
                args.ess,
                {**meta, "learner": learner},
            )
        )
    if args.include_target:
        rows.append(
            _eval_row(
                target_net.dag,
                target_net,
                target_lines,
                dim_target,
                train,
                test,
                args.ess,
                {**meta, "learner": "target"},
            )
        )
    text = results_to_csv(rows)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _verify_suites(level: str):
    if level == "fast":
        return [
            ("chordality_n5", lambda: verif.chordality_cross_check(5)),
            ("self_checks_n4", lambda: verif.sweep_self_checks(4)),
            ("local_optima_n4", lambda: verif.sweep_local_optima(4)),
            ("graphoids_n4", lambda: verif.sweep_graphoids(4)),
            ("chordal_chains_n4", lambda: verif.sweep_chordal_chains(4)),
            ("chain_samples_2k", lambda: verif.sample_chain_disjunctions(2000)),
            ("dag_probe_n3", lambda: verif.probe_dag_targets(3)),
        ]
    return [
        ("chordality_n6", lambda: verif.chordality_cross_check(6)),
        ("self_checks_n4", lambda: verif.sweep_self_checks(4)),
        ("local_optima_n3", lambda: verif.sweep_local_optima(3)),
        ("local_optima_n4", lambda: verif.sweep_local_optima(4)),
        ("local_optima_n5", lambda: verif.sweep_local_optima(5)),
        ("graphoids_n4", lambda: verif.sweep_graphoids(4)),
        ("graphoids_n5", lambda: verif.sweep_graphoids(5)),
        ("chordal_chains_n5", lambda: verif.sweep_chordal_chains(5)),
        ("chain_samples_10k", lambda: verif.sample_chain_disjunctions(10000)),
        ("latent_witness", lambda: verif.find_nonoptimal_local_optimum()),
        ("dag_probe_n4", lambda: verif.probe_dag_targets(4)),
    ]


def cmd_verify(args) -> int:
    out = Path(args.out) if args.out else None
    all_ok = True
    for name, fn in _verify_suites(args.level):
        t0 = time.perf_counter()
        report = fn()
        elapsed = time.perf_counter() - t0
        status = "ok" if report.ok else "VIOLATION"
        print(f"{name}: {status}")
        print(f"{name}: {elapsed:.2f}s", file=sys.stderr)
        if out is not None:
            _write(out / "reports" / f"{name}.json", verif.report_to_json(report))
        if not report.ok:
            all_ok = False
            sys.stdout.write(verif.report_to_json(report))
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config, EXPERIMENT_DEFAULTS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    _check_fields(cfg, grid=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "config.json", json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    results_path = out / "results.csv"
    done: set = set()
    rows: list = []
    if results_path.exists():
        rows = results_from_csv(results_path.read_text())
        done = {r.grid_key() for r in rows}
    learners = list(cfg["learners"]) + (["target"] if cfg["include_target"] else [])
    gen_cfg = {
        "seed": cfg["seed"],
        "arity": cfg["arity"],
        "max_parents": cfg["max_parents"],
        "min_prob": cfg["min_prob"],
        "n_obs": cfg["n_obs"],
        "test_obs": cfg["test_obs"],
    }
    failed = 0
    t0 = time.perf_counter()
    for kind in cfg["target_kinds"]:
        for n in cfg["n_vars"]:
            for rep in range(cfg["replicates"]):
                wanted = [
                    (kind, n, n_obs, rep, lrn)
                    for n_obs in cfg["n_obs"]
                    for lrn in learners
                ]
                if all(k in done for k in wanted):
                    continue
                arts = _generate_cell(gen_cfg, out, kind, n, rep)
                target_net = DiscreteBayesNet.from_json(arts["net"].read_text())
                target_lines = UndirectedGraph.from_text(arts["lines"].read_text())
                test = _read_dataset(arts["test"])
                for n_obs in cfg["n_obs"]:
                    train = _read_dataset(arts["trains"][n_obs])
                    structures = {}
                    for lrn in cfg["learners"]:
                        if (kind, n, n_obs, rep, lrn) in done:
                            continue
                        structure, trace = _learn(train, lrn, cfg["ess"])
                        structures[lrn] = structure
                        ldir = out / "learned" / arts["cell"] / f"N{n_obs}_{lrn}"
                        _write_learned(ldir, structure, trace)
                    for lrn in learners:
                        key = (kind, n, n_obs, rep, lrn)
                        if key in done:
                            continue
                        structure = (
                            target_net.dag if lrn == "target" else structures[lrn]
                        )
                        try:
                            row = _eval_row(
                                structure,
                                target_net,
                                target_lines,
                                arts["dim_target"],
                                train,
                                test,
                                cfg["ess"],
                                {
                                    "target_kind": kind,
                                    "n_vars": n,
                                    "n_obs": n_obs,
                                    "replicate": rep,
                                    "learner": lrn,
                                    "seed": cfg["seed"],
                                },
                            )
                        except (ValueError, OSError) as exc:
                            print(f"cell {key} failed: {exc}", file=sys.stderr)
                            failed += 1
                            continue
                        rows.append(row)
                        done.add(key)
                        _write(results_path, results_to_csv(sorted(rows, key=ResultRow.sort_key)))
    _write(results_path, results_to_csv(sorted(rows, key=ResultRow.sort_key)))
    print(f"experiment complete: {len(rows)} result rows in {results_path}")
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if failed:
        print(f"error: {failed} cell(s) failed", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="chordalearn", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a target net plus sampled datasets")
    g.add_argument("--config", help="JSON config path")
    g.add_argument("--seed", type=int, help="override the config seed")
    g.add_argument("--out", required=True, help="run directory")
    g.set_defaults(fn=cmd_generate)

    ln = sub.add_parser("learn", help="greedy structure search on a dataset")
    ln.add_argument("--data", required=True, help="training CSV")
    ln.add_argument("--arities", help="JSON list of variable arities")
    ln.add_argument("--learner", choices=_KINDS, default="chordal")
    ln.add_argument("--ess", type=_ess_arg, default=1.0)
    ln.add_argument("--out", required=True)
    ln.set_defaults(fn=cmd_learn)

    e = sub.add_parser("eval", help="emit results-CSV rows for structures")
    e.add_argument("--net", required=True, help="generating net JSON")
    e.add_argument("--lines", required=True, help="target line-set graph text")
    e.add_argument("--train", required=True, help="training CSV used for fitting")
    e.add_argument("--test", required=True, help="held-out CSV for the KL estimate")
    e.add_argument(
        "--structure",
        action="append",
        help="learner:path pair; repeatable",
    )
    e.add_argument("--include-target", action="store_true")
    e.add_argument("--target-kind", choices=_KINDS, default="chordal")
    e.add_argument("--replicate", type=int, default=0)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--ess", type=_ess_arg, default=1.0)
    e.add_argument("--dim-target", type=int)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    v = sub.add_parser("verify", help="run the brute-force verification suites")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--out", help="directory for JSON reports")
    v.set_defaults(fn=cmd_verify)

    x = sub.add_parser("experiment", help="generate + learn + eval over a grid")
    x.add_argument("--config", help="JSON config path")
    x.add_argument("--seed", type=int, help="override the config seed")
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_experiment)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning an int
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
