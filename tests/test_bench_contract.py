"""The benchmark's contract with the library and the command line.

``perfbench/bench_trace.py`` refuses to run when a function it counts is
gone, ``perfbench/bench_workloads.py`` sends fixed flags and ``--set``
keys, and ``perfbench/bench_checks.py`` judges every output; these tests
report a deletion or rename of either, or an output the benchmark would
count as failed, from the tier-1 suite.  The files are loaded by path and
only read.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import twoband
from twoband.cli import _sweep_spec, build_parser

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """The perfbench module ``name``, loaded by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"{name}_contract", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_required_name_is_a_function_of_its_module(monkeypatch):
    trace = _load(monkeypatch, "bench_trace")
    missing = [f"{layer}.{name}" for layer, names in trace.REQUIRED.items() for name in names
               if not inspect.isfunction(
                   getattr(importlib.import_module("twoband." + layer), name, None))]
    assert trace.REQUIRED and missing == []


def test_the_traced_model_methods_are_plain_functions_of_the_class():
    # ``install`` patches them through ``TwoBandModel.__dict__``
    for name in ("d", "d_deriv"):
        assert inspect.isfunction(twoband.TwoBandModel.__dict__.get(name)), name


def test_every_benchmark_sweep_argv_parses_and_validates(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "bench_workloads")
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


def test_one_round_of_every_workload_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # a request the benchmark counts as failed, or an output its checks
    # reject, fails here before any timed run
    workloads, checks, run = (_load(monkeypatch, name)
                              for name in ("bench_workloads", "bench_checks", "run"))
    for name in workloads.WORKLOADS:
        gen = workloads.Generator(name, 1, tmp_path / name, twoband)
        gen.write_inputs()
        tally = run.Tally(name, 1)
        for req in gen.round():
            tally.record(twoband, checks, req, run.execute(twoband, req))
        failed = [(req.label(), out.code, out.first_err, why)
                  for req, out, why in tally.failures()]
        assert tally.latencies and tally.points > 0 and failed == [], (name, failed)


def test_no_gapped_deck_request_runs_the_engine(monkeypatch, tmp_path, calls):
    # the plateau templates too: their reference jumps on the line of the ssh zeros
    workloads = _load(monkeypatch, "bench_workloads")
    plateaus = 0
    for seed in range(1, 5):
        gen = workloads.Generator("gapped-sweep", seed, tmp_path / str(seed), twoband)
        gen.write_inputs()
        for req in gen.round():
            plateaus += "--ref-piecewise" in req.argv
            assert twoband.cli.main(req.argv) == 0, req.argv
    assert plateaus == 8 and calls["bz_averages"] == 0
