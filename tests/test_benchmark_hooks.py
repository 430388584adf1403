"""The benchmark reaches into this package by name: its tracer
(``benchmarks/tracing.py``) wraps functions and methods by attribute name,
and its runner (``benchmarks/run.py``) calls the verify suites by function
name and compares named fields of their reports.  A name it cannot find
makes every benchmark run fail, so this keeps a rename or a deletion in
``src/`` from breaking those runs unnoticed."""

import dataclasses
import importlib.util
import sys
import typing
from pathlib import Path

from chordalearn import verification

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    calls = load_benchmark_module("tracing").traced_calls()
    assert calls
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, *_ in calls if attr not in vars(owner)
    ]
    assert not missing


def verify_suites():
    workloads = load_benchmark_module("run").WORKLOADS["verify"]
    return [suite for size in ("full", "tiny") for suite in workloads[size].suites]


def test_every_verify_suite_is_a_verification_function():
    suites = verify_suites()
    assert suites
    missing = [
        name for name, _, _ in suites if not callable(vars(verification).get(name))
    ]
    assert not missing


def test_every_checked_report_field_exists():
    missing = []
    for name, _, expected in verify_suites():
        report = typing.get_type_hints(getattr(verification, name))["return"]
        fields = {f.name for f in dataclasses.fields(report)}
        missing += [f"{report.__name__}.{key}" for key in expected if key not in fields]
    assert not missing
