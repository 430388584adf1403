"""In-memory span recording around calls into chordalearn's public functions.

A ``Tracer`` replaces selected functions and methods with wrappers for the
duration of a ``with tracer.patched():`` block and restores them on exit.
Every wrapped call records one span: name, start, end, parent span (the
innermost wrapped call still open) and the id of the benchmark job it
belongs to, plus an optional count taken from the call (rows parsed, moves
returned).  Spans live in compact arrays until the benchmark writes them
out at the end, and self times are computed from them afterwards.  Nothing
under ``src/`` is edited: the wrappers are installed on the imported
modules and classes of one benchmark process.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _n_rows(result, args, kwargs):
    return result.n_rows


def _length(result, args, kwargs):
    return len(result)


def _data_rows(result, args, kwargs):
    # bdeu_local_score(v, parents, data, ess): rows the miss had to count
    data = args[2] if len(args) > 2 else kwargs["data"]
    return data.n_rows


def traced_calls():
    """(owner, attribute, span name, count function) for every wrapped call.

    Owners are modules or classes of the imported package; a module-level
    function is also replaced in every other chordalearn module that
    imported it by name, so calls through either binding are recorded.
    """
    from chordalearn import cli, graphs, independence, scoring, search, synthetic
    from chordalearn import verification

    return [
        (cli, "main", "cli.main", None),
        (search, "greedy_chordal", "search.greedy_chordal", None),
        (search, "greedy_dag", "search.greedy_dag", None),
        (search, "inclusion_boundary", "search.inclusion_boundary", _length),
        (search.BDeuScorer, "move_score", "search.move_score", None),
        (search.OracleScore, "move_score", "search.move_score", None),
        (search, "apply_move", "search.apply_move", None),
        (search, "apply_dag_move", "search.apply_dag_move", None),
        (search, "dag_moves", "search.dag_moves", _length),
        (search.OracleScore, "__init__", "search.OracleScore.init", None),
        (graphs, "is_chordal", "graphs.is_chordal", None),
        (graphs.ChordalGraph, "from_graph", "graphs.ChordalGraph.from_graph", None),
        (graphs.Dag, "reachable_from", "graphs.Dag.reachable_from", None),
        (scoring.Dataset, "from_csv", "scoring.Dataset.from_csv", _n_rows),
        (scoring.Dataset, "to_csv", "scoring.Dataset.to_csv", None),
        (scoring.ScoreCache, "local_score", "scoring.local_score", None),
        (scoring, "bdeu_local_score", "scoring.bdeu_local_score", _data_rows),
        (independence.DependencyModel, "independent", "independence.independent", None),
        (independence, "graphoid_report", "independence.graphoid_report", None),
        (independence, "inclusion_optimal", "independence.inclusion_optimal", None),
        (verification, "enumerate_chordal", "verification.enumerate_chordal", None),
        (verification, "naive_is_chordal", "verification.naive_is_chordal", None),
        (synthetic, "random_chordal_target", "synthetic.random_chordal_target", None),
        (synthetic, "random_dag", "synthetic.random_dag", None),
        (synthetic, "ancestral_sample", "synthetic.ancestral_sample", None),
    ]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.caches: list = []  # ScoreCache objects built during the current job

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        nid = self.name_id(name)
        names, parents, jobs, counts = self.name, self.parent, self.job, self.count
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                counts[i] = count(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, fn, name: str, *args):
        """Call ``fn(*args)`` inside a span of its own (used for job roots
        that are not reached through a patched attribute)."""
        return self.wrap(fn, name)(*args)

    @contextmanager
    def patched(self):
        from chordalearn import scoring

        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "chordalearn"]
        try:
            for owner, attr, name, count in traced_calls():
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replace(owner, attr, classmethod(self.wrap(raw.__func__, name, count)))
                elif isinstance(owner, type):
                    replace(owner, attr, self.wrap(raw, name, count))
                else:
                    wrapped = self.wrap(raw, name, count)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                replace(mod, key, wrapped)
            init = scoring.ScoreCache.__init__

            def cache_init(cache, *args, **kwargs):
                init(cache, *args, **kwargs)
                self.caches.append(cache)

            replace(scoring.ScoreCache, "__init__", cache_init)
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts, and
        the calls whose parent span has each other name."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        counts = np.bincount(a["name"], weights=a["count"], minlength=k)
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        pairs = np.bincount(
            (a["name"] * (k + 1) + parent_name + 1)[has_parent], minlength=k * (k + 1)
        )
        out = {}
        for i, name in enumerate(self.names):
            by_parent = {
                p: int(pairs[i * (k + 1) + j + 1])
                for j, p in enumerate(self.names)
                if pairs[i * (k + 1) + j + 1]
            }
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "count": int(counts[i]),
                "by_parent": by_parent,
            }
        return out

    def write(self, path) -> None:
        """Save the span arrays plus the name table (``names[name]`` is a
        span's name; ``parent`` and ``job`` are -1 where absent)."""
        np.savez(path, names=np.array(self.names), **self.arrays())
