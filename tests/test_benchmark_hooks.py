"""The benchmark's tracer (``benchmarks/tracing.py``) wraps functions and
methods of this package by attribute name, and a name it cannot find makes
every traced benchmark run fail.  This keeps a rename or a deletion in
``src/`` from breaking those runs unnoticed."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    calls = load_tracing().traced_calls()
    assert calls
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, *_ in calls if attr not in vars(owner)
    ]
    assert not missing
