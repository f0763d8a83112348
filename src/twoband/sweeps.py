"""Parameter sweeps and their CSV/JSON emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .bloch import GlobalReference, ReferenceState
from .bounds_duality import _bound_report
from .errors import ExceptionalPointError, SpecError
from .fidelity import _bloch_averages, _BlochAverages
from .models import MODELS
from .nonhermitian import _nh_averages
from .quadrature import _FD_STEP, BZQuadratureConfig, _lone, _stencil, param_derivative

PI = math.pi

# Every sweep quantity -> its columns, in emission order, and the averages it
# needs, named as the keywords of ``_bloch_averages``.
QUANTITIES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "complexity": (("complexity",), ("complexity",)),
    "dcomplexity": (("dcomplexity",), ("derivative",)),
    "chi_f": (("chi_f",), ("chi",)),
    "chi_f_components": (("chi_f_x", "chi_f_y", "chi_f_z"), ("chi",)),
    "bound": (("bound_lhs", "bound_rhs", "bound_satisfied"), ("derivative", "chi")),
    "ratio": (("ratio",), ("derivative", "chi")),
    "winding": (("winding",), ("winding",)),
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


def _evaluate(spec: SweepSpec, lam: float, avg) -> SweepRecord:
    """The row at lam, its columns and flags, from its averages and winding ``avg`` (or the
    error that ended a lossy average).

    Flags: ``diverged`` where chi diverged, or where the gap is closed and the row asks for
    more than C; ``undefined_ratio`` for a NaN ratio where chi did not diverge;
    ``skipped_exceptional`` where a lossy average met R^2 == 0 (its columns are NaN).
    """
    flags, wanted = set(), spec.quantities
    if isinstance(avg, Exception):
        if not isinstance(avg, ExceptionalPointError):
            raise avg
        flags.add("skipped_exceptional")
        avg = _BlochAverages(math.nan, math.nan, None, None)
    columns = {"complexity": avg.complexity, "dcomplexity": avg.dcomplexity,
               "winding": avg.winding}
    if avg.chi is not None:
        columns.update(zip(("chi_f", "chi_f_x", "chi_f_y", "chi_f_z"),
                           (avg.chi.total, *avg.chi.components)))
    if not _REPORTED.isdisjoint(wanted):
        report = _bound_report(lam, spec.reference, avg)
        columns.update(bound_lhs=report.lhs, bound_rhs=report.rhs, ratio=report.ratio,
                       bound_satisfied=1.0 if report.satisfied else 0.0)
        if "ratio" in wanted and math.isnan(report.ratio) and not avg.chi.diverged:
            flags.add("undefined_ratio")
    if (avg.chi is not None and avg.chi.diverged) or (avg.closed and set(wanted) != {"complexity"}):
        flags.add("diverged")
    values = {c: columns[c] for q in wanted for c in QUANTITIES[q][0]}
    return SweepRecord(float(lam), values, frozenset(flags))


def _closed_gap_rows(grid: np.ndarray, avgs: list, spec: SweepSpec, c_at) -> None:
    """Fill in dC/d(lambda) on the closed rows of ``avgs`` as the finite difference of C,
    from one more run of the chain's own averages ``c_at`` of C at their stencil points, and
    at lambda where the row's C is asked for and None (a lossy row asked for dC)."""
    rows = [i for i, avg in enumerate(avgs) if isinstance(avg, _BlochAverages) and avg.closed]
    if not rows or "dcomplexity" not in spec.quantities:
        return
    lone = [i for i in rows if avgs[i].complexity is None and "complexity" in spec.quantities]
    points = [x for i in rows for x in _stencil(grid[i], _FD_STEP)] + [grid[i] for i in lone]
    c = dict(zip(points, (_lone([avg]).complexity for avg in c_at(points))))
    for i in rows:
        avgs[i] = avgs[i]._replace(complexity=c[grid[i]] if i in lone else avgs[i].complexity,
                                   dcomplexity=param_derivative(c.__getitem__, grid[i]))


def run_sweep(spec: SweepSpec, cfg: BZQuadratureConfig | None = None) -> List[SweepRecord]:
    """Evaluate every requested quantity on the sweep grid, in sweep order.

    A point's averaged quantities and winding come from one call for the
    whole grid (``_bloch_averages``: no quadrature on exact planar rows, one
    engine run for the rest, the winding from the same rows' zeros, NaN on a
    closed gap; ``_nh_averages`` for the lossy chain) and equal the library
    call at its point.  A closed gap of either chain averages only C; its
    dcomplexity is the finite difference of C, averaged at the stencil points
    in one more run of its chain, which also averages the C of a closed lossy
    row asked for both (its main run averages none).  ``_evaluate`` decides
    each row's columns and flags.
    """
    entry = MODELS[spec.model]
    grid = spec.grid()
    needs = {need for q in spec.quantities for need in QUANTITIES[q][1]}
    ref, model = spec.reference, entry.model(spec.fixed, spec.sweep[0])
    if entry.hermitian:
        avgs = _bloch_averages(model, grid, ref, cfg, **dict.fromkeys(needs, True))
        c_at = lambda lams: _bloch_averages(model, lams, ref, cfg, complexity=True)
    else:
        avgs = _nh_averages(model, grid, "derivative" in needs, ref.alpha, ref.beta, cfg)
        c_at = lambda lams: _nh_averages(model, lams, False, ref.alpha, ref.beta, cfg)
    _closed_gap_rows(grid, avgs, spec, c_at)
    return [_evaluate(spec, *row) for row in zip(grid, avgs)]


def records_to_csv(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as CSV with 17-significant-digit reals and a flags column."""
    cols = [c for q in spec.quantities for c in QUANTITIES[q][0]]
    lines = ["lambda," + ",".join(cols) + ",flags"]
    for rec in records:
        lines.append(",".join([f"{rec.lam:.17g}", *[f"{rec.values.get(c, math.nan):.17g}"
                                                     for c in cols], ";".join(sorted(rec.flags))]))
    return "\n".join(lines) + "\n"


def _json_real(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


def _json_block(brackets: str, items, indent: str) -> str:
    """Rendered items as a JSON object or array, in the layout of json.dumps(indent=2)."""
    if not items:
        return brackets
    inner = ",\n" + indent + "  "
    return brackets[0] + inner[1:] + inner.join(items) + "\n" + indent + brackets[1]


def records_to_json(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as strict JSON: a NaN or infinite value is written as null.

    The text is that of ``json.dumps(payload, indent=2, allow_nan=False)`` of
    the payload's nested dicts and lists, written directly: reals by their
    repr, value keys sorted, two-space indent.
    """
    reals = lambda pairs, indent: _json_block(
        "{}", [f"{_quote(k)}: {_json_real(float(v))}" for k, v in sorted(pairs)], indent)
    records = [f'{{\n      "lambda": {_json_real(rec.lam)},\n      "values": '
               f'{reals(rec.values.items(), "      ")},\n      "flags": '
               f'{_json_block("[]", [_quote(f) for f in sorted(rec.flags)], "      ")}\n    }}'
               for rec in records]
    name, start, stop, points = spec.sweep
    return (f'{{\n  "model": {_quote(spec.model)},\n  "sweep": {{\n    "parameter": '
            f'{_quote(name)},\n    "start": {_json_real(start)},\n    "stop": {_json_real(stop)},'
            f'\n    "points": {points}\n  }},\n  "fixed": {reals(spec.fixed.items(), "  ")},\n'
            f'  "quantities": {_json_block("[]", [_quote(q) for q in spec.quantities], "  ")},\n'
            f'  "records": {_json_block("[]", records, "  ")}\n}}\n')


def write_records(spec: SweepSpec, records: Sequence[SweepRecord], path: str) -> None:
    text = (records_to_json if path.endswith(".json") else records_to_csv)(spec, records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
