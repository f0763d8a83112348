"""Diff the outputs of two source trees of twoband, request by request.

Usage, from the root of a checkout:

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories, each holding a ``twoband``
package.  Each tree runs in its own subprocess, in its own temporary
directory, on the same requests:

* the benchmark's request decks (``perfbench/bench_workloads.Generator``,
  imported and not changed) of seeds 1-4, three rounds each of
  gapped-sweep, critical-sweep and lossy-sweep, 444 requests, and of
  closed-forms, 156 library requests, each called as the benchmark calls it;
* the fixed command list ``COMMANDS``: every sweep quantity on every
  Hermitian family through its closing (ssh at k = 0 in t2 and in t1, and at
  k = +-pi under the default and a non-default reference), windows beside the
  closings at k = 0, +-pi and +-pi/2 (engine rows graded at k = 0 and +-pi
  under a jump off the zeros' line), piecewise references that jump on the
  line of the zeros (also 1e-12 from a closing) and off it, closed engine
  rows asked for C and chi_F without dC, lossy sweeps,
  engine sweeps of 101 rows (more than one chunk of ``_MAX_OWNERS`` owners),
  sweeps through closed and exceptional rows, rows whose moving zero sits
  beside 0 (the exact path declines their dC/dlambda alone), the point
  commands, among them ``bound``, ``ratio`` and ``nh-sweep`` with couplings
  whose products overflow, lossy sweeps at coupling scales of 1e102 and
  1e-19, ``duality`` at coupling ratios beyond the elliptic derivatives'
  domain and where the complexity duality loses its digits, ``verify all``,
  ``--help`` and malformed command lines.

A command's output is its ``--out`` file, else its standard output; a library
request's output is one line per call, ``function[j]=<repr>`` for each entry
of the value returned.  Paths in the argv are relative to each tree's
directory, so the two trees run the same argv and the output path never
differs.  An exception that escapes a command counts as exit code 1, with the
traceback's last line as its standard error.  In the standard error, the
tree's resolved ``src`` path is replaced by ``<src>``, so a warning from
identical code compares equal.  The script prints every request whose exit
code, first error line or output differs, with the largest |delta| of each of
its columns (inf where a flag or label changed), the number of cells that
moved by more than 1e-10 + 1e-10 |old|, and the largest |delta| per source,
family and column over all requests.  A request's source is its
workload's deck (``lossy-sweep deck``) or, for one of ``COMMANDS``, its
command line (``twoband nh-sweep ...``), so a deck, a command and an engine
sweep of the same family are summed up apart.

Each tree also counts, per request, the runs of ``quadrature.bz_averages`` and
their owners (the rows of its ``edges``), wherever the package calls it.  A
request whose counts differ is printed as a ``WORK:`` line with both counts,
and the summary says how many there are.  The counts do not enter the exit
status: 0 when every output is identical, 1 when one differs, 2 when a tree
fails to run.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gapped-sweep", "critical-sweep", "lossy-sweep", "closed-forms")
SEEDS = (1, 2, 3, 4)
ROUNDS = 3
PLATEAU = "plateau.txt"  # the benchmark's plateau reference, written in each tree's directory
# and two more piecewise references: generic vectors split on the ssh zeros' line (k = 0
# and pi), and the plateau's vectors split at k = 1, off every line of the ssh zeros
SPLIT, OFF_LINE = "split.txt", "off-line.txt"
REFERENCES = {PLATEAU: ((0.0, 0.0, 1.0), 0.0, (0.0, 0.0, -1.0)),
              SPLIT: ((0.3, -0.5, 0.8), 0.0, (-0.6, 0.2, 0.1)),
              OFF_LINE: ((0.0, 0.0, 1.0), 1.0, (0.0, 0.0, -1.0))}
CONFIG = "bogus.conf"  # a sweep config file with a key that is no flag
ALL = "complexity,dcomplexity,chi_f,chi_f_components,bound,ratio,winding"
BESIDE = "complexity,dcomplexity,chi_f"

COMMANDS = (
    ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:5", "--quantities", ALL],
    ["sweep", "--model", "ssh", "--sweep", "t2:-1.5:-0.5:5", "--quantities", ALL,
     "--out", "ssh-negative.json"],
    ["sweep", "--model", "ssh", "--sweep", "t1:0.5:1.5:5", "--quantities", ALL],
    # closed rows of every kind: in t1, and at k = +-pi under a non-default reference
    ["sweep", "--model", "ssh", "--set", "t2=1", "--sweep", "t1:0.5:1.5:5", "--quantities", ALL],
    ["sweep", "--model", "ssh", "--sweep", "t2:-1.5:-0.5:5", "--quantities", ALL,
     "--theta", "0.9", "--phi", "0.4"],
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:-0.5:0.5:5", "--quantities", ALL,
     "--out", "massive-dirac.json"],
    ["sweep", "--model", "dual-ssh", "--sweep", "r:0.5:1.5:5", "--quantities", ALL],
    ["sweep", "--model", "cooper-pair-box", "--sweep", "ng:0.3:0.7:5", "--quantities", ALL],
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:-1e-10:1e-10:3", "--quantities", ALL],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.999999:1.000001:3", "--quantities", ALL],
    # plateau sweeps beside a closing at k = +-pi, 0 and +-pi/2: the exact path takes the
    # ssh and massive-Dirac rows, the engine the Cooper-pair box's, graded at +-pi/2
    ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:-1.00001:-0.99999:5",
     "--quantities", BESIDE, "--ref-piecewise", PLATEAU],
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:-1e-6:1e-6:5",
     "--quantities", BESIDE, "--ref-piecewise", PLATEAU],
    ["sweep", "--model", "cooper-pair-box", "--sweep", "ng:0.49999:0.50001:5",
     "--quantities", BESIDE, "--ref-piecewise", PLATEAU],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.9:1.1:5", "--quantities", BESIDE,
     "--ref-piecewise", PLATEAU, "--out", "ssh-plateau.json"],
    # engine rows graded beside an ssh closing at k = 0 and at k = +-pi, under the jump off
    # the zeros' line
    ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.99999:1.00001:5",
     "--quantities", BESIDE, "--ref-piecewise", OFF_LINE],
    ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:-1.00001:-0.99999:5",
     "--quantities", BESIDE, "--ref-piecewise", OFF_LINE],
    # piecewise references that jump on the zeros' line, and two that must not move: a
    # jump off the line, and the Cooper-pair box's zeros on the imaginary axis
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:-2:2:6", "--quantities", BESIDE,
     "--ref-piecewise", PLATEAU],
    ["sweep", "--model", "dual-ssh", "--sweep", "r:0.4:2.5:6", "--quantities", BESIDE,
     "--ref-piecewise", PLATEAU],
    ["sweep", "--model", "ssh", "--sweep", "t2:-2:2:6", "--quantities", BESIDE,
     "--ref-piecewise", SPLIT],
    # the split 1e-12 from the closings of ssh in t1 (k = pi), massive Dirac and the dual chain
    ["sweep", "--model", "ssh", "--set", "t2=1.3", "--sweep",
     "t1:-1.3000000000010001:-1.2999999999989999:3", "--quantities", "complexity,dcomplexity",
     "--ref-piecewise", SPLIT],
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:1e-12:1e-3:3",
     "--quantities", "complexity,dcomplexity", "--ref-piecewise", SPLIT],
    ["sweep", "--model", "dual-ssh", "--sweep", "r:0.999999999999:1.000000000001:3",
     "--quantities", "complexity,dcomplexity", "--ref-piecewise", SPLIT],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:5", "--quantities", BESIDE,
     "--ref-piecewise", OFF_LINE],
    ["sweep", "--model", "cooper-pair-box", "--sweep", "ng:0.1:0.4:4", "--quantities", BESIDE,
     "--ref-piecewise", PLATEAU],
    # closed engine rows asked for C and chi without dC: their C comes from the main run
    ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.5:1.5:3",
     "--quantities", "complexity,chi_f_components", "--ref-piecewise", OFF_LINE],
    ["sweep", "--model", "cooper-pair-box", "--sweep", "ng:0.4:0.6:3",
     "--quantities", "complexity,chi_f", "--ref-piecewise", PLATEAU],
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=1", "--sweep", "t2:1:3:9"],
    # engine runs of 101 rows, more than one chunk of owners; ng = 0.5 is a closed row
    ["sweep", "--model", "cooper-pair-box", "--ref-piecewise", PLATEAU, "--sweep",
     "ng:0.1:0.9:101", "--quantities", "complexity,dcomplexity,chi_f"],
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=1", "--sweep", "t2:1:3:101"],
    ["nh-sweep", "--set", "t1=1", "--set", "t2=1.3", "--sweep", "gamma:0:2:9",
     "--out", "lossy-gamma.json"],
    ["nh-sweep", "--set", "t1=1", "--set", "gamma=0", "--sweep", "t2:0.99999999:1.00000001:2"],
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", "t2:0.5:1.5:5",
     "--theta", "0.9", "--phi", "0.4"],
    # closed and exceptional rows: exit codes, stderr and flags
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", "t2:-2.5:2.5:11",
     "--quantities", "complexity,dcomplexity"],
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", "t2:1.5:2.5:3"],
    # the closed row t2 = 2 asked only for C, and only for dC (its C averaged, not printed)
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", "t2:1.5:2.5:3",
     "--quantities", "complexity"],
    ["nh-sweep", "--set", "t1=2", "--set", "gamma=0", "--sweep", "t2:1.5:2.5:3",
     "--quantities", "dcomplexity"],
    ["nh-sweep", "--set", "t1=1", "--set", "gamma=2", "--sweep", "t2:-1:1:3"],
    ["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.5:1.5:3",
     "--quantities", "winding"],
    # a moving zero within 1e-2 of 0: the exact path declines dC/dlambda and keeps C and chi_F
    ["sweep", "--model", "massive-dirac", "--sweep", "mu:40:60:3", "--quantities", ALL],
    ["sweep", "--model", "ssh", "--set", "t1=0.01", "--sweep", "t2:1.5:2.5:3",
     "--quantities", ALL],
    ["bound", "--model", "ssh", "--lam", "1.5"],
    ["bound", "--model", "massive-dirac", "--lam", "1e-10", "--theta", "0.9"],
    ["ratio", "--model", "dual-ssh", "--lam", "2"],
    ["ratio", "--model", "cooper-pair-box", "--lam", "0.2"],
    # couplings whose products overflow: the engine's averages are not finite
    ["bound", "--model", "ssh", "--set", "t1=2", "--set", "t2=0.99999999", "--lam", "1e308"],
    ["ratio", "--model", "ssh", "--lam", "1e308"],
    ["nh-sweep", "--set", "t1=1e300", "--set", "gamma=1", "--sweep", "t2:1e300:3e300:3"],
    # the lossy chain at scales where its derivative kernel's products overflow (dC off by
    # 30%, then rows skipped as exceptional) or underflow (every row diverged): C stays right
    ["nh-sweep", "--set", "t1=2e102", "--set", "gamma=2e102", "--sweep", "t2:2e102:6e102:3",
     "--theta", "0.9", "--phi", "0.4"],
    ["nh-sweep", "--set", "t1=3e102", "--set", "gamma=3e102", "--sweep", "t2:3e102:9e102:3",
     "--theta", "0.9", "--phi", "0.4"],
    ["nh-sweep", "--set", "t1=1e-19", "--set", "gamma=1e-19", "--sweep", "t2:1e-19:3e-19:3",
     "--theta", "0.9", "--phi", "0.4"],
    ["duality", "--set", "r=2"],
    # m = 4r / (1 + r)^2 rounds to 0, r^4 overflows, and both sides of chi_F's duality are 0
    ["duality", "--set", "r=1e20"],
    ["duality", "--set", "r=1e-20"],
    ["duality", "--set", "r=1e78"],
    ["duality", "--set", "r=1e-300"],
    # (C(r) - H(r)) / r loses its digits to the division by r
    ["duality", "--set", "r=1e-12"],
    ["winding", "--model", "dual-ssh", "--set", "r=0.5"],
    ["verify", "all"],
    # the parser's own output: help, and command lines it rejects with exit 2
    ["--help"],
    ["sweep", "--help"],
    ["nh-sweep", "-h"],
    [],
    ["frobnicate", "--model", "ssh"],
    ["--model", "ssh", "sweep"],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--bogus", "1", "extra"],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--quant", "chi_f"],
    ["sweep", "--model", "nope", "--sweep", "t2:0.5:1.5:3"],
    ["sweep", "--model", "ssh", "--sweep", "t2:0.5:1.5:3", "--abs-tol", "0"],
    ["sweep", "--config", CONFIG, "--theta", "0.3"],
    ["sweep", "--config", "missing.conf"],
    ["verify", "all", "extra"],
    ["verify", "nope"],
    ["ratio", "--model", "ssh"],
    ["winding", "--model", "ssh", "--", "x"],
)


WORK = [0, 0]  # the bz_averages runs and owners of the request being run


def _measured(run, *args):
    """(outcome, [bz_averages runs, owners]) of one request."""
    WORK[:] = 0, 0
    return run(*args), list(WORK)


def _run(cli, argv):
    """(exit code, standard error, output) of one in-process command."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.exists():
        out.unlink()
    sink, err = io.StringIO(), io.StringIO()
    try:  # a fresh warnings registry: a warning prints once per request, as in its own process
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # uncaught: the process would print a traceback and exit 1
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    text = out.read_text(encoding="utf-8") if out is not None and out.exists() else sink.getvalue()
    return code, err.getvalue(), text


def _call(req):
    """(exit code, error, output) of one library request, its calls as the benchmark
    makes them: the first exception ends the request."""
    fn = getattr(importlib.import_module("twoband." + req.call[0]), req.call[1])
    try:
        values = [fn(*args) for args in req.args]
    except Exception as exc:
        return "exception", f"{type(exc).__name__}: {exc}", ""
    return 0, "", "".join(
        " ".join(f"{req.call[1]}[{j}]={x!r}" for j, x in
                 enumerate(value if isinstance(value, tuple) else (value,))) + "\n"
        for value in values)


def worker(src: str) -> None:
    """Runs every request on the tree ``src`` and prints the outcomes as JSON."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import twoband
    import twoband.cli
    import twoband.fidelity
    import twoband.nonhermitian
    import twoband.quadrature
    from bench_workloads import Generator

    if Path(twoband.__file__).resolve().parent != (Path(src) / "twoband").resolve():
        raise SystemExit(f"imported twoband from {twoband.__file__}, not from {src}")
    run = twoband.quadrature.bz_averages

    def counted(f, edges, cfg=None):  # adds each run, and its owners (rows of edges), to WORK
        WORK[0] += 1
        WORK[1] += len(edges)
        return run(f, edges, cfg)

    for module in (twoband.quadrature, twoband.fidelity, twoband.nonhermitian):
        module.bz_averages = counted
    for name, (left, k, right) in REFERENCES.items():
        Path(name).write_text(f"{-math.pi!r} {k!r} {' '.join(map(repr, left))}\n"
                              f"{k!r} {math.pi!r} {' '.join(map(repr, right))}\n",
                              encoding="utf-8")
    Path(CONFIG).write_text("model = ssh\nsweep = t2:0.5:1.5:3\nbogus = 1\n", encoding="utf-8")
    outcomes = []
    for workload in WORKLOADS:
        deck = f"{workload} deck"
        for seed in SEEDS:
            gen = Generator(workload, seed, Path("work") / f"{workload}-{seed}", twoband)
            gen.write_inputs()
            for i in range(ROUNDS):
                outcomes += [(deck, req.argv, *_measured(_run, twoband.cli, req.argv))
                             if req.argv is not None
                             else (deck, [".".join(req.call), f"seed={seed}", f"round={i}"],
                                   *_measured(_call, req)) for req in gen.round()]
    outcomes += [(" ".join(["twoband", *argv]), argv, *_measured(_run, twoband.cli, argv))
                 for argv in COMMANDS]
    prefix = str(Path(src).resolve())  # a warning names its file: one token for either tree
    json.dump([(source, argv, (code, err.replace(prefix, "<src>"), text), work)
               for source, argv, (code, err, text), work in outcomes], sys.stdout)


def _cell(text: str):
    """A number, or the text itself where it is none."""
    try:
        return float(text)
    except ValueError:
        return text


def _columns(text: str):
    """{(row, column): value} of an output: CSV, sweep JSON or ``name=value`` lines."""
    if text.lstrip().startswith("{"):
        records = json.loads(text)["records"]
        return {(i, name): value for i, record in enumerate(records) for name, value in
                {"lambda": record["lambda"], **record["values"],
                 "flags": ",".join(record["flags"])}.items()}
    rows = list(csv.reader(io.StringIO(text)))
    if rows and rows[0] and rows[0][0] == "lambda":
        return {(i, name): _cell(value)
                for i, row in enumerate(rows[1:]) for name, value in zip(rows[0], row)}
    cells = {}
    for i, line in enumerate(text.splitlines()):
        for token in re.sub(r"\s*=\s*", "=", line).split():
            name, _, value = token.rpartition("=")
            if name:
                cells[(i, name.split("=")[0])] = _cell(value.rstrip(","))
    return cells


def _family(argv) -> str:
    model = argv[argv.index("--model") + 1] if "--model" in argv else "nh-ssh"
    if argv[0] in ("sweep", "nh-sweep"):
        return f"{model} {argv[argv.index('--sweep') + 1].split(':')[0]}"
    return f"{argv[0]} {model}" if "--model" in argv else argv[0]


def _delta(old, new):
    """|new - old| of two cells: 0 if equal (NaN with NaN), inf if either is not a number."""
    if old == new or (isinstance(old, float) and isinstance(new, float)
                      and math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (isinstance(old, (int, float)) and isinstance(new, (int, float))):
        return math.inf
    return abs(new - old) if math.isfinite(new - old) else math.inf


def compare(old_src: str, new_src: str) -> int:
    runs = []
    for src in (old_src, new_src):
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                                   str(Path(src).resolve())], cwd=work, capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": ""})
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 2
        runs.append(json.loads(proc.stdout))
    worst, moved, outside, reworked = {}, 0, 0, 0
    for (source, argv, old, old_work), (_, _, new, new_work) in zip(*runs):
        if old_work != new_work:
            reworked += 1
            print(f"WORK: {' '.join(argv)}: bz_averages runs {old_work[0]} -> {new_work[0]}, "
                  f"owners {old_work[1]} -> {new_work[1]}")
        if old == new:
            continue
        moved += 1
        print(f"DIFFERS: {' '.join(argv)}")
        if old[:2] != new[:2]:
            print(f"  exit/stderr: {old[:2]} -> {new[:2]}")
        before, after = _columns(old[2]), _columns(new[2])
        changed = {}
        for cell in before.keys() | after.keys():
            a, b = before.get(cell), after.get(cell)
            d = _delta(a, b)
            if d > 0.0:
                changed[cell[1]] = max(changed.get(cell[1], 0.0), d)
                key = (source, _family(argv), cell[1])
                if d > worst.get(key, (0.0,))[0]:
                    worst[key] = (d, a, b)
                outside += not (isinstance(a, (int, float)) and d <= 1e-10 + 1e-10 * abs(a))
        print("  " + (", ".join(f"{name} {d:.2g}" for name, d in sorted(changed.items()))
                      or "no parsed cell differs"))
    print(f"{moved} of {len(runs[0])} requests differ; {reworked} change their bz_averages "
          f"runs or owners; {outside} cells differ by more than 1e-10 + 1e-10 |old|")
    last = None
    for (source, family, column), (d, a, b) in sorted(worst.items()):
        if source != last:
            print(f"  {source}")
            last = source
        print(f"    {family:24s} {column:18s} |delta| {d:.3g}  ({a!r} -> {b!r})")
    return 1 if moved else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        worker(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(compare(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
