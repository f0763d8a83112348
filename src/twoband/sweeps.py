"""Parameter sweeps and their CSV/JSON emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bloch import GlobalReference, ReferenceState
from .bounds_duality import bound_check, ratio_R
from .complexity import ground_complexity
from .errors import ExceptionalPointError, SpecError, TwoBandError
from .fidelity import chi_F
from .models import (CooperPairBoxParams, DualSSHParams, MassiveDiracParams,
                     NonHermitianSSHParams, SSHParams, TwoBandModel,
                     cooper_pair_box_model, dual_pair, massive_dirac_model,
                     ssh_model)
from .nonhermitian import nh_ground_complexity
from .quadrature import BZQuadratureConfig, FDConfig, param_derivative
from .topology import winding_cross_product, winding_log_derivative

PI = math.pi

MODEL_NAMES = ("ssh", "massive-dirac", "dual-ssh", "cooper-pair-box", "nh-ssh")
QUANTITIES = ("complexity", "dcomplexity", "chi_f", "chi_f_components",
              "bound", "ratio", "winding")

# quantity -> CSV column names, in emission order
_COLUMNS = {
    "complexity": ("complexity",),
    "dcomplexity": ("dcomplexity",),
    "chi_f": ("chi_f",),
    "chi_f_components": ("chi_f_x", "chi_f_y", "chi_f_z"),
    "bound": ("bound_lhs", "bound_rhs", "bound_satisfied"),
    "ratio": ("ratio",),
    "winding": ("winding",),
}

_SWEEPABLE = {
    "ssh": ("t2", "t1"),
    "massive-dirac": ("mu",),
    "dual-ssh": ("r",),
    "cooper-pair-box": ("ng",),
    "nh-ssh": ("t2", "gamma"),
}

_DEFAULTS = {
    "ssh": {"t1": 1.0, "t2": 1.0},
    "massive-dirac": {"t": 1.0, "mu": 0.0},
    "dual-ssh": {"t": 1.0, "r": 1.0},
    "cooper-pair-box": {"Ej": 1.0, "Ecc": 1.0, "ng": 0.0},
    "nh-ssh": {"t1": 1.0, "t2": 1.0, "gamma": 0.0},
}


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one parameter sweep."""

    model: str
    sweep: Tuple[str, float, float, int]
    fixed: Dict[str, float] = field(default_factory=dict)
    reference: ReferenceState = field(default_factory=lambda: GlobalReference(0.5 * PI, PI))
    quantities: Tuple[str, ...] = ("complexity",)

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise SpecError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        name, start, stop, points = self.sweep
        if name not in _SWEEPABLE[self.model]:
            raise SpecError(f"model {self.model!r} cannot sweep {name!r}")
        if name in self.fixed:
            raise SpecError(f"sweep parameter {name!r} must not also be fixed")
        if int(points) < 2:
            raise SpecError("a sweep needs at least 2 points")
        if not (float(start) < float(stop)):
            raise SpecError("sweep start must be below stop")
        unknown = set(self.fixed) - set(_DEFAULTS[self.model]) - {"alpha", "beta"}
        if unknown:
            raise SpecError(f"unknown fixed parameters {sorted(unknown)} for {self.model!r}")
        bad = [q for q in self.quantities if q not in QUANTITIES]
        if bad:
            raise SpecError(f"unknown quantities {bad}; choose from {QUANTITIES}")
        if self.model == "nh-ssh":
            extra = set(self.quantities) - {"complexity", "dcomplexity"}
            if extra:
                raise SpecError(f"nh-ssh sweeps support only complexity/dcomplexity, not {sorted(extra)}")
        if not self.reference.is_global and set(self.quantities) & {"bound", "ratio"}:
            raise SpecError("bound and ratio require a momentum-independent reference state")
        object.__setattr__(self, "sweep", (name, float(start), float(stop), int(points)))

    def grid(self) -> np.ndarray:
        _, start, stop, points = self.sweep
        return np.linspace(start, stop, points)

    def params(self) -> Dict[str, float]:
        merged = dict(_DEFAULTS[self.model])
        merged.update({k: float(v) for k, v in self.fixed.items()})
        return merged


@dataclass(frozen=True)
class SweepRecord:
    """One row of a sweep: the parameter value, named results, and flags."""

    lam: float
    values: Dict[str, float]
    flags: frozenset = frozenset()


def _hermitian_model(spec: SweepSpec) -> TwoBandModel:
    p = spec.params()
    name = spec.sweep[0]
    if spec.model == "ssh":
        base = ssh_model(SSHParams(t1=p["t1"], t2=p["t2"]))
        if name == "t2":
            return base
        t2 = p["t2"]

        def family(k, t1):
            k = np.asarray(k, dtype=float)
            return np.stack([t1 - t2 * np.cos(k), np.zeros_like(k), t2 * np.sin(k)])

        def deriv(k, t1):
            k = np.asarray(k, dtype=float)
            return np.stack([np.ones_like(k), np.zeros_like(k), np.zeros_like(k)])

        return TwoBandModel(family, p["t1"], deriv, sweep_parameter="t1",
                            rotated=True, singular_points=(0.0,), label="ssh")
    if spec.model == "massive-dirac":
        return massive_dirac_model(MassiveDiracParams(t=p["t"], mu=p["mu"]))
    if spec.model == "dual-ssh":
        return dual_pair(DualSSHParams(t=p["t"], r=p["r"]))[0]
    if spec.model == "cooper-pair-box":
        return cooper_pair_box_model(CooperPairBoxParams(Ej=p["Ej"], Ecc=p["Ecc"], ng=p["ng"]))
    raise SpecError(f"no Hermitian family for {spec.model!r}")


def _winding_value(spec: SweepSpec, model: TwoBandModel, lam: float) -> float:
    p = spec.params()
    if spec.model == "ssh":
        t1, t2 = (lam, p["t2"]) if spec.sweep[0] == "t1" else (p["t1"], lam)
        return float(winding_log_derivative(lambda k: t1 - t2 * np.exp(1j * k)))
    if spec.model == "dual-ssh":
        return float(winding_log_derivative(lambda k: p["t"] - lam * p["t"] * np.exp(1j * k)))
    return winding_cross_product(model.at(lam))


def _nh_reference_amplitudes(spec: SweepSpec) -> Tuple[complex, complex]:
    if "alpha" in spec.fixed or "beta" in spec.fixed:
        return complex(spec.fixed.get("alpha", 0.0)), complex(spec.fixed.get("beta", 0.0))
    ref = spec.reference
    if not isinstance(ref, GlobalReference):
        raise SpecError("nh-ssh sweeps need a global reference state")
    return ref.alpha, ref.beta


def _evaluate_nh(spec: SweepSpec, lam: float, cfg: BZQuadratureConfig,
                 fd: FDConfig) -> SweepRecord:
    p = spec.params()
    name = spec.sweep[0]
    alpha, beta = _nh_reference_amplitudes(spec)

    def params_at(x):
        q = dict(p)
        q[name] = x
        return NonHermitianSSHParams(t1=q["t1"], t2=q["t2"], gamma=q["gamma"])

    values: Dict[str, float] = {}
    flags = set()
    for quantity in spec.quantities:
        try:
            if quantity == "complexity":
                values["complexity"] = nh_ground_complexity(params_at(lam), alpha, beta, cfg)
            elif quantity == "dcomplexity":
                values["dcomplexity"] = param_derivative(
                    lambda x: nh_ground_complexity(params_at(x), alpha, beta, cfg), lam, fd)
        except ExceptionalPointError:
            flags.add("skipped_exceptional")
            for col in _COLUMNS[quantity]:
                values[col] = math.nan
    return SweepRecord(lam=float(lam), values=values, flags=frozenset(flags))


def _evaluate_hermitian(spec: SweepSpec, model: TwoBandModel, lam: float,
                        cfg: BZQuadratureConfig, fd: FDConfig) -> SweepRecord:
    values: Dict[str, float] = {}
    flags = set()
    for quantity in spec.quantities:
        if quantity == "complexity":
            values["complexity"] = ground_complexity(model.at(lam), spec.reference, cfg)
        elif quantity == "dcomplexity":
            values["dcomplexity"] = param_derivative(
                lambda x: ground_complexity(model.at(x), spec.reference, cfg), lam, fd)
        elif quantity in ("chi_f", "chi_f_components"):
            breakdown = chi_F(model, lam, cfg)
            if breakdown.diverged:
                flags.add("diverged")
            if quantity == "chi_f":
                values["chi_f"] = breakdown.total
            else:
                values["chi_f_x"], values["chi_f_y"], values["chi_f_z"] = breakdown.components
        elif quantity == "bound":
            report = bound_check(model, spec.reference, lam, cfg, fd)
            values["bound_lhs"] = report.lhs
            values["bound_rhs"] = report.rhs
            values["bound_satisfied"] = 1.0 if report.satisfied else 0.0
            if math.isinf(report.rhs):
                flags.add("diverged")
        elif quantity == "ratio":
            values["ratio"] = ratio_R(model, spec.reference, lam, cfg)
            if math.isnan(values["ratio"]):
                flags.add("diverged")
        elif quantity == "winding":
            values["winding"] = _winding_value(spec, model, lam)
    return SweepRecord(lam=float(lam), values=values, flags=frozenset(flags))


def run_sweep(spec: SweepSpec, cfg: BZQuadratureConfig | None = None,
              fd: FDConfig | None = None) -> List[SweepRecord]:
    """Evaluate every requested quantity on the sweep grid, in sweep order.

    Results are deterministic for a fixed spec and tolerances.
    """
    cfg = cfg or BZQuadratureConfig()
    fd = fd or FDConfig(step=1e-5, scheme="central4")
    grid = spec.grid()
    if spec.model == "nh-ssh":
        evaluate = lambda lam: _evaluate_nh(spec, lam, cfg, fd)
    else:
        model = _hermitian_model(spec)
        evaluate = lambda lam: _evaluate_hermitian(spec, model, lam, cfg, fd)
    return [evaluate(lam) for lam in grid]


def columns_for(quantities: Sequence[str]) -> List[str]:
    cols: List[str] = []
    for q in quantities:
        cols.extend(_COLUMNS[q])
    return cols


def _format_value(x: float) -> str:
    return f"{x:.17g}"


def records_to_csv(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    """Render a sweep as CSV with 17-significant-digit reals and a flags column."""
    cols = columns_for(spec.quantities)
    lines = ["lambda," + ",".join(cols) + ",flags"]
    for rec in records:
        cells = [_format_value(rec.lam)]
        cells += [_format_value(rec.values.get(c, math.nan)) for c in cols]
        cells.append(";".join(sorted(rec.flags)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def records_to_json(spec: SweepSpec, records: Sequence[SweepRecord]) -> str:
    payload = {
        "model": spec.model,
        "sweep": {"parameter": spec.sweep[0], "start": spec.sweep[1],
                  "stop": spec.sweep[2], "points": spec.sweep[3]},
        "fixed": {k: float(v) for k, v in sorted(spec.fixed.items())},
        "quantities": list(spec.quantities),
        "records": [
            {"lambda": rec.lam,
             "values": {k: rec.values[k] for k in sorted(rec.values)},
             "flags": sorted(rec.flags)}
            for rec in records
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def write_records(spec: SweepSpec, records: Sequence[SweepRecord], path: str) -> None:
    if path.endswith(".json"):
        text = records_to_json(spec, records)
    else:
        text = records_to_csv(spec, records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
