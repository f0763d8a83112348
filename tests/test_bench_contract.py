"""The benchmark tracer's counted functions exist in the library.

``perfbench/bench_trace.py`` refuses to run when a function it counts is
gone; this test reports such a deletion or rename from the tier-1 suite.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def test_every_required_name_is_a_function_of_its_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_trace_contract", _TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [f"{layer}.{name}" for layer, names in trace.REQUIRED.items() for name in names
               if not inspect.isfunction(
                   getattr(importlib.import_module("twoband." + layer), name, None))]
    assert trace.REQUIRED and missing == []
