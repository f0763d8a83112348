"""Parameter sweeps and their CSV/JSON emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, groupby
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .bloch import GlobalReference, ReferenceState
from .bounds_duality import _bound_report
from .errors import SpecError
from .fidelity import _bloch_averages, _totals
from .models import MODELS
from .nonhermitian import _nh_averages
from .quadrature import _FD_STEP, BZQuadratureConfig, _stencil, param_derivative

PI = math.pi

# Every sweep quantity -> its columns, in emission order, the averages it needs, named as
# the keywords of ``_bloch_averages``, and its reader: the sweep's ``_Averages`` and bound
# report (None unless it asks for a quantity of ``_REPORTED``) -> its columns' lists.
QUANTITIES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], Callable]] = {
    "complexity": (("complexity",), ("complexity",), lambda avg, rep: (avg.complexity,)),
    "dcomplexity": (("dcomplexity",), ("derivative",), lambda avg, rep: (avg.dcomplexity,)),
    "chi_f": (("chi_f",), ("chi",), lambda avg, rep: (_totals(avg),)),
    "chi_f_components": (("chi_f_x", "chi_f_y", "chi_f_z"), ("chi",),
                         lambda avg, rep: (avg.chi_x, avg.chi_y, avg.chi_z)),
    "bound": (("bound_lhs", "bound_rhs", "bound_satisfied"), ("derivative", "chi"),
              lambda avg, rep: (rep.lhs, rep.rhs, rep.holds)),
    "ratio": (("ratio",), ("derivative", "chi"), lambda avg, rep: (rep.ratio,)),
    "winding": (("winding",), ("winding",), lambda avg, rep: (avg.winding,)),
}
# The quantities of the lossy chain, whose sweep averages nothing else.
LOSSY_QUANTITIES = ("complexity", "dcomplexity")
# The quantities read from one ``_bound_report``; they need a global reference.
_REPORTED = {"bound", "ratio"}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one parameter sweep."""

    model: str
    sweep: Tuple[str, float, float, int]
    fixed: Dict[str, float] = field(default_factory=dict)
    reference: ReferenceState = field(default_factory=lambda: GlobalReference(0.5 * PI, PI))
    quantities: Tuple[str, ...] = ("complexity",)

    def __post_init__(self):
        entry = MODELS.get(self.model)
        if entry is None:
            raise SpecError(f"unknown model {self.model!r}; choose from {tuple(MODELS)}")
        name, start, stop, points = self.sweep
        if name not in entry.parameters:
            raise SpecError(f"model {self.model!r} cannot sweep {name!r}")
        if name in self.fixed:
            raise SpecError(f"sweep parameter {name!r} must not also be fixed")
        if not float(points).is_integer():
            raise SpecError(f"a sweep needs a whole number of points, not {points!r}")
        if int(points) < 2:
            raise SpecError("a sweep needs at least 2 points")
        if not (math.isfinite(float(start)) and math.isfinite(float(stop))):
            raise SpecError("sweep start and stop must be finite")
        if not (float(start) < float(stop)):
            raise SpecError("sweep start must be below stop")
        entry.params(self.fixed)  # rejects unknown keys and values out of the domain
        if not self.quantities or len(set(self.quantities)) < len(self.quantities):
            raise SpecError(f"sweep quantities must be distinct, at least one: {self.quantities}")
        supported = tuple(QUANTITIES) if entry.hermitian else LOSSY_QUANTITIES
        bad = [q for q in self.quantities if q not in supported]
        if bad:
            raise SpecError(f"{self.model!r} sweeps support only {supported}, not {bad}")
        if set(self.quantities) & _REPORTED and not isinstance(self.reference, GlobalReference):
            raise SpecError("bound and ratio require a momentum-independent reference state")
        if not isinstance(self.reference, GlobalReference) and not entry.hermitian:
            raise SpecError("nh-ssh sweeps need a global reference state")
        object.__setattr__(self, "sweep", (name, float(start), float(stop), int(points)))

    def grid(self) -> np.ndarray:
        _, start, stop, points = self.sweep
        return np.linspace(start, stop, points)


class SweepRecord(NamedTuple):
    """One row of a sweep: the parameter value, named results, and flags."""

    lam: float
    values: Dict[str, float]
    flags: frozenset = frozenset()


def _sweep_columns(spec: SweepSpec, cfg: BZQuadratureConfig | None = None):
    """Every requested quantity on the sweep grid by column: (lambdas, {column: values} in
    emission order, each row's flags, sorted).

    A point's averaged quantities and winding come from one call for the
    whole grid (``_bloch_averages``: no quadrature on exact planar rows, one
    engine run for the rest, the winding from the same rows' zeros, NaN on a
    closed gap; ``_nh_averages`` for the lossy chain) and equal the library
    call at its point.  A closed gap of either chain averages only C; its
    dcomplexity is the finite difference of C, averaged at the stencil points
    in one more run of its chain, which also averages the C of a closed lossy
    row asked for both (its main run averages none), at lambda where it is asked
    for.  The bound and the ratio come from one ``_bound_report`` of every row.

    Flags: ``diverged`` where chi diverged, or where the gap is closed and the row asks for
    more than C; ``undefined_ratio`` for a NaN ratio where chi did not diverge;
    ``skipped_exceptional`` where a lossy average met R^2 == 0 (its columns are NaN); any
    other error that ended a lossy average is raised.
    """
    entry, wanted, grid = MODELS[spec.model], spec.quantities, spec.grid().tolist()
    needs = {need for q in wanted for need in QUANTITIES[q][1]}
    ref, model = spec.reference, entry.model(spec.fixed, spec.sweep[0])
    if entry.hermitian:
        avgs = _bloch_averages(model, grid, ref, cfg, **dict.fromkeys(needs, True))
        c_at = lambda lams: _bloch_averages(model, lams, ref, cfg, complexity=True).complexity
    else:
        avgs = _nh_averages(model, grid, "derivative" in needs, ref.alpha, ref.beta, cfg, True)
        c_at = lambda lams: _nh_averages(model, lams, False, ref.alpha, ref.beta, cfg).complexity
    if "dcomplexity" in wanted and True in avgs.closed:  # a closed row's dC: C's difference
        rows = [i for i, shut in enumerate(avgs.closed) if shut]
        lone = [i for i in rows if "complexity" in wanted and avgs.complexity[i] is None]
        points = [x for i in rows for x in _stencil(grid[i], _FD_STEP)] + [grid[i] for i in lone]
        c = dict(zip(points, c_at(points)))
        for i in lone:
            avgs.complexity[i] = c[grid[i]]
        for i in rows:
            avgs.dcomplexity[i] = param_derivative(c.__getitem__, grid[i])
    report = None if _REPORTED.isdisjoint(wanted) else _bound_report(ref, avgs)
    marks = {name: on for name, on in (
        ("diverged", avgs.diverged or set(wanted) != {"complexity"} and avgs.closed),
        ("skipped_exceptional", avgs.exceptional),
        ("undefined_ratio", "ratio" in wanted and report.undefined)) if on and any(on)}
    flags = [tuple(compress(marks, on)) for on in zip(*marks.values())] or [()] * len(grid)
    return grid, {c: v for q in wanted
                  for c, v in zip(QUANTITIES[q][0], QUANTITIES[q][2](avgs, report))}, flags


def run_sweep(spec: SweepSpec, cfg: BZQuadratureConfig | None = None) -> List[SweepRecord]:
    """Evaluate every requested quantity on the sweep grid, in sweep order: the rows of
    ``_sweep_columns``, which says how each is obtained and flagged."""
    lams, values, flags = _sweep_columns(spec, cfg)
    return [SweepRecord(lam, dict(zip(values, row)), frozenset(on))
            for lam, on, *row in zip(lams, flags, *values.values())]


def _by_column(records: Sequence[SweepRecord], names):
    """``records`` as ``_sweep_columns`` gives a sweep, with the value columns ``names``
    (NaN where a record lacks one)."""
    return ([float(rec.lam) for rec in records], {c: [float(rec.values.get(c, math.nan))
            for rec in records] for c in names}, [tuple(sorted(rec.flags)) for rec in records])


def _csv(lams: list, values: Dict[str, list], flags: list) -> str:
    """A sweep by column as CSV: lambda and the values as 17-significant-digit reals, and
    each row's flags joined by ';'."""
    lines = zip(*(map("{:.17g}".format, col) for col in (lams, *values.values())),
                map(";".join, flags))
    return "\n".join([",".join(["lambda", *values, "flags"]), *map(",".join, lines)]) + "\n"


def records_to_csv(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as CSV with 17-significant-digit reals and a flags column."""
    return _csv(*_by_column(records, [c for q in spec.quantities for c in QUANTITIES[q][0]]))


def _json_reals(col: list) -> list:
    """Each float of ``col`` by its repr, and a NaN or infinite one as null."""
    text = list(map(float.__repr__, col))
    return text if math.isfinite(sum(col)) else ["null" if t[-1] in "nf" else t for t in text]


def _json_block(brackets: str, items, indent: str) -> str:
    """Rendered items as a JSON object or array, in the layout of json.dumps(indent=2)."""
    if not items:
        return brackets
    inner = ",\n" + indent + "  "
    return brackets[0] + inner[1:] + inner.join(items) + "\n" + indent + brackets[1]


def _json(spec: SweepSpec, runs) -> str:
    """A sweep as strict JSON from ``runs`` of its rows by column, each as ``_sweep_columns``
    gives them, with the same value keys: the text of ``json.dumps(payload, indent=2,
    allow_nan=False)`` of the payload's nested dicts and lists, written directly: reals by
    their repr, a NaN or infinite one as null, value keys sorted, two-space indent.  Each
    run's records are one template, its value keys sorted and quoted once, filled by column.
    """
    records, (name, start, stop, points), keys = [], spec.sweep, sorted(spec.fixed)
    for lams, values, flags in runs:
        form = _json_block("{}", [_quote(k).replace("%", "%%") + ": %s" for k in sorted(values)],
                           "      ")
        form = '{\n      "lambda": %s,\n      "values": ' + form + ',\n      "flags": %s\n    }'
        marks = {f: _json_block("[]", list(map(_quote, f)), "      ") for f in set(flags)}
        records += map(form.__mod__, zip(_json_reals(lams), *map(_json_reals, map(
            values.get, sorted(values))), map(marks.get, flags)))
    start, stop, *fixed = _json_reals([start, stop, *(float(spec.fixed[k]) for k in keys)])
    return (f'{{\n  "model": {_quote(spec.model)},\n  "sweep": {{\n    "parameter": '
            f'{_quote(name)},\n    "start": {start},\n    "stop": {stop},'
            f'\n    "points": {points}\n  }},\n  "fixed": '
            f'{_json_block("{}", [f"{_quote(k)}: {v}" for k, v in zip(keys, fixed)], "  ")},\n'
            f'  "quantities": {_json_block("[]", [_quote(q) for q in spec.quantities], "  ")},\n'
            f'  "records": {_json_block("[]", records, "  ")}\n}}\n')


def records_to_json(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as strict JSON (``_json``), each run of records with the same value
    keys by column."""
    runs = (list(run) for _, run in groupby(records, lambda rec: sorted(rec.values)))
    return _json(spec, [_by_column(run, run[0].values) for run in runs])


def _write(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_records(spec: SweepSpec, records: Sequence[SweepRecord], path: str) -> None:
    _write((records_to_json if path.endswith(".json") else records_to_csv)(spec, records), path)
