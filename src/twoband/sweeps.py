"""Parameter sweeps and their CSV/JSON emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bloch import GlobalReference, ReferenceState
from .bounds_duality import _bound_report, _ratio, reference_coefficients
from .errors import ExceptionalPointError, SpecError, UndefinedRatioError
from .fidelity import _bloch_averages, _BlochAverages
from .models import COLUMNS, MODELS, TwoBandModel
from .nonhermitian import _nh_averages
from .quadrature import _FD_STEP, BZQuadratureConfig, _stencil, param_derivative

PI = math.pi


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
        bad = [q for q in self.quantities if q not in entry.quantities]
        if bad:
            raise SpecError(f"{self.model!r} sweeps support only {entry.quantities}, not {bad}")
        if (set(self.quantities) & {"bound", "ratio"}
                and not isinstance(self.reference, GlobalReference)):
            raise SpecError("bound and ratio require a momentum-independent reference state")
        if not isinstance(self.reference, GlobalReference) and not entry.hermitian:
            raise SpecError("nh-ssh sweeps need a global reference state")
        object.__setattr__(self, "sweep", (name, float(start), float(stop), int(points)))

    def grid(self) -> np.ndarray:
        _, start, stop, points = self.sweep
        return np.linspace(start, stop, points)


@dataclass(frozen=True)
class SweepRecord:
    """One row of a sweep: the parameter value, named results, and flags."""

    lam: float
    values: Dict[str, float]
    flags: frozenset = frozenset()


def _evaluate(spec: SweepSpec, lam: float, avg: _BlochAverages, winding: float,
              flags: frozenset) -> SweepRecord:
    values: Dict[str, float] = {}
    flags = set(flags)
    if avg.chi is not None and avg.chi.diverged:
        flags.add("diverged")
    for quantity in spec.quantities:
        try:
            if quantity in ("complexity", "dcomplexity"):
                values[quantity] = getattr(avg, quantity)
            elif quantity == "chi_f":
                values["chi_f"] = avg.chi.total
            elif quantity == "chi_f_components":
                values["chi_f_x"], values["chi_f_y"], values["chi_f_z"] = avg.chi.components
            elif quantity == "bound":
                report = _bound_report(lam, spec.reference, avg)
                values["bound_lhs"], values["bound_rhs"] = report.lhs, report.rhs
                values["bound_satisfied"] = 1.0 if report.satisfied else 0.0
            elif quantity == "ratio":
                values["ratio"] = _ratio(avg, reference_coefficients(spec.reference))
            elif quantity == "winding":
                if math.isnan(winding):  # closed gap
                    flags.add("diverged")
                values["winding"] = winding
        except UndefinedRatioError:
            flags.add("undefined_ratio")
            values["ratio"] = math.nan
    return SweepRecord(lam=float(lam), values=values, flags=frozenset(flags))


def _closed_gap_rows(model: TwoBandModel, grid: np.ndarray, avgs: List[_BlochAverages],
                     spec: SweepSpec, cfg: BZQuadratureConfig) -> None:
    """Fill in dC/d(lambda) on the rows whose gap is closed as the finite difference
    of C, from one more run that averages C at their stencil points only."""
    rows = [i for i, avg in enumerate(avgs) if avg.dcomplexity is None]
    if not rows or "dcomplexity" not in spec.quantities:
        return
    points = [x for i in rows for x in _stencil(grid[i], _FD_STEP)]
    c = dict(zip(points, (avg.complexity for avg in _bloch_averages(
        model, points, spec.reference, cfg, complexity=True))))
    for i in rows:
        avgs[i] = avgs[i]._replace(dcomplexity=param_derivative(c.__getitem__, grid[i]))


def run_sweep(spec: SweepSpec, cfg: BZQuadratureConfig | None = None) -> List[SweepRecord]:
    """Evaluate every requested quantity on the sweep grid, in sweep order.

    Each point owns its panels in one run of the quadrature engine for all
    its averaged quantities, and equals the library call at its point.  A
    closed Hermitian gap averages only C in that run; its dcomplexity is the
    finite difference of C, averaged at the stencil points in one more run.
    The winding is no average: it is counted from the Bloch rows by
    ``TwoBandModel.windings`` from the rows' zeros that also give the
    averages' singular points, NaN and flagged diverged on a closed gap.  A
    lossy-chain row whose kernel meets R^2 == 0 exactly is flagged
    skipped_exceptional.
    """
    cfg = cfg or BZQuadratureConfig()
    entry = MODELS[spec.model]
    name, grid, wanted = spec.sweep[0], spec.grid(), set(spec.quantities)
    flags, windings = [frozenset()] * grid.size, [math.nan] * grid.size
    model = entry.model(spec.fixed, name)
    if entry.hermitian:
        closings = model._closings(grid)
        avgs = _bloch_averages(model, grid, spec.reference, cfg,
                               complexity="complexity" in wanted,
                               derivative=bool(wanted & {"dcomplexity", "bound", "ratio"}),
                               chi=bool(wanted & {"chi_f", "chi_f_components", "bound", "ratio"}),
                               gaps=closings[2])
        _closed_gap_rows(model, grid, avgs, spec, cfg)
        if "winding" in wanted:
            windings = model._windings(*closings).tolist()
    else:
        runs = _nh_averages(model.at(grid), "dcomplexity" in wanted,
                            spec.reference.alpha, spec.reference.beta, cfg)
        avgs = []
        for i, run in enumerate(runs):
            if isinstance(run, ExceptionalPointError):
                flags[i], run = frozenset(("skipped_exceptional",)), (math.nan, math.nan)
            elif isinstance(run, Exception):
                raise run
            avgs.append(_BlochAverages(run[0], run[-1], None, None))
    return [_evaluate(spec, lam, avg, winding, flag)
            for lam, avg, winding, flag in zip(grid, avgs, windings, flags)]


def records_to_csv(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as CSV with 17-significant-digit reals and a flags column."""
    cols = [c for q in spec.quantities for c in COLUMNS[q]]
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
