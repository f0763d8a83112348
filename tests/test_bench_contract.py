"""The benchmark's contract with the library and the command line.

``perfbench/bench_trace.py`` refuses to run when a function it counts is
gone, and ``perfbench/bench_workloads.py`` sends fixed flags and ``--set``
keys; these tests report a deletion or rename of either from the tier-1
suite.  Both files are loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import twoband
from twoband.cli import _sweep_spec, build_parser

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACE = _PERFBENCH / "bench_trace.py"


def test_every_required_name_is_a_function_of_its_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_trace_contract", _TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [f"{layer}.{name}" for layer, names in trace.REQUIRED.items() for name in names
               if not inspect.isfunction(
                   getattr(importlib.import_module("twoband." + layer), name, None))]
    assert trace.REQUIRED and missing == []


def test_the_traced_model_methods_are_plain_functions_of_the_class():
    # ``install`` patches them through ``TwoBandModel.__dict__``
    for name in ("d", "d_deriv"):
        assert inspect.isfunction(twoband.TwoBandModel.__dict__.get(name)), name


def test_every_benchmark_sweep_argv_parses_and_validates(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads_contract",
                                                  _PERFBENCH / "bench_workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    argvs = []
    for name in ("gapped-sweep", "critical-sweep", "lossy-sweep"):
        gen = workloads.Generator(name, 1, tmp_path / name, twoband)
        gen.write_inputs()
        argvs += [req.argv for req in gen.round()]
    assert len(argvs) == 37
    for argv in argvs:
        args = build_parser().parse_args(argv)
        sweep = _sweep_spec(args)
        assert isinstance(sweep, twoband.SweepSpec), argv
