"""Seeded request decks for the four benchmark workloads.

A run executes whole *rounds*.  Each round draws one request per template of
the workload's deck, with fresh seeded parameters, and shuffles their order.
The templates fix what each request asks for (model, quantities, number of
points), so every seed does about the same amount of work and seeds
differ in parameter values, references, window positions, output format and
order.  The program only ever sees the generated argv (CLI requests) or the
generated argument tuples (library requests).

Only stable flags are generated: model, set, sweep, quantities, theta, phi,
degrees, ref-piecewise and out.  ``--jobs`` and the tolerance flags are never
passed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

PI = math.pi

WORKLOADS = ("gapped-sweep", "critical-sweep", "lossy-sweep", "closed-forms")

# Transition value of each swept family: ssh-t2 at t2 = t1, ssh-t1 at t1 = t2,
# massive-Dirac at mu = 0, the dual chain at r = 1.
SWEEP_PARAM = {"ssh-t2": "t2", "ssh-t1": "t1", "massive-dirac": "mu", "dual-ssh": "r"}

# Dyadic couplings, so symmetric windows land exactly on the transition.
DYADIC = (0.75, 1.0, 1.25, 1.5)

GAPPED_MARGIN = 1e-2

# gapped-sweep deck: (family, quantities, points, reference kind).  Window
# sizes are fixed per template so every round has the same number of points.
GAPPED_DECK = (
    ("ssh-t2", ("complexity",), 60, "global"),
    ("ssh-t1", ("complexity", "winding"), 50, "global"),
    ("ssh-t2", ("complexity",), 45, "plateau"),
    ("dual-ssh", ("complexity",), 40, "global"),
    ("massive-dirac", ("complexity",), 35, "global"),
    ("ssh-t1", ("complexity", "dcomplexity"), 20, "plateau"),
    ("massive-dirac", ("complexity", "dcomplexity"), 18, "global"),
    ("dual-ssh", ("complexity", "chi_f"), 22, "global"),
    ("ssh-t2", ("chi_f_components", "winding"), 15, "global"),
    ("massive-dirac", ("chi_f_components", "winding"), 25, "global"),
    ("ssh-t2", ("bound",), 4, "global"),
    ("massive-dirac", ("ratio", "chi_f"), 5, "global"),
    ("dual-ssh", ("dcomplexity", "ratio"), 6, "global"),
    ("ssh-t1", ("complexity", "dcomplexity", "chi_f", "bound", "ratio"), 3, "global"),
    ("dual-ssh", ("bound", "winding"), 4, "global"),
)

# critical-sweep deck: (family, window kind, quantities, points)
# "near" windows sit on one side at a seeded log-spaced distance in
# [1e-6, 1e-2]; "exact" windows are symmetric and land on the transition.
CRITICAL_DECK = (
    ("ssh-t2", "near", ("complexity", "dcomplexity"), 3),
    ("ssh-t2", "near", ("chi_f",), 3),
    ("ssh-t1", "near", ("complexity", "bound"), 2),
    ("massive-dirac", "near", ("complexity", "chi_f_components"), 3),
    ("massive-dirac", "near", ("ratio",), 2),
    ("dual-ssh", "near", ("complexity", "ratio"), 2),
    ("dual-ssh", "near", ("chi_f", "winding"), 3),
    ("ssh-t1", "near", ("complexity",), 4),
    ("dual-ssh", "near", ("complexity", "dcomplexity"), 3),
    ("ssh-t2", "exact", ("complexity", "chi_f"), 3),
    ("ssh-t2", "exact", ("winding",), 3),
    ("dual-ssh", "exact", ("complexity", "chi_f"), 3),
    ("massive-dirac", "exact", ("complexity", "dcomplexity"), 3),
    ("massive-dirac", "exact", ("ratio",), 3),
    ("ssh-t1", "exact", ("complexity", "winding"), 5),
)
NEAR_DECADES = (-6, -5, -4, -3)  # lower edges of the distance decades

# lossy-sweep deck: (kind, quantities or None for the CLI default, points)
LOSSY_DECK = (
    ("t2-closings", ("complexity",), 40),
    ("t2-closings", None, 24),
    ("t2-closings", ("complexity",), 32),
    ("t2-closings", ("complexity", "dcomplexity"), 20),
    ("gamma-up", None, 12),
    ("gamma-up", ("complexity",), 24),
    ("gamma-up", ("complexity", "dcomplexity"), 16),
)

# closed-forms deck: (module, function, points)
CLOSED_DECK = (
    ("complexity", "ssh_complexity_closed", 400),
    ("fidelity", "chi_F_ssh_closed", 1200),
    ("complexity", "md_complexity_closed", 400),
    ("fidelity", "chi_F_md_closed", 1200),
    ("fidelity", "chi_F_md_z_closed", 1200),
    ("complexity", "md_dC_dmu_analytic", 400),
    ("bounds_duality", "ratio_complexity", 400),
    ("bounds_duality", "ratio_complexity_prime", 300),
    ("bounds_duality", "complexity_duality_offset", 400),
    ("bounds_duality", "complexity_duality_offset_prime", 300),
    ("bounds_duality", "self_dual_constraint", 200),
    ("special_functions", "incomplete_E", 150),
    ("complexity", "excited_split_closed", 1200),
)


@dataclass
class Request:
    """One closed-loop request and what its checks need to know."""

    workload: str
    argv: Optional[List[str]] = None                 # CLI request
    call: Optional[Tuple[str, str]] = None           # (module, function) library request
    args: List[tuple] = field(default_factory=list)  # argument tuples of a library request
    spec: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        if self.argv is not None:
            return "twoband " + " ".join(self.argv)
        return f"{self.call[0]}.{self.call[1]} x{len(self.args)}"


class Generator:
    """Builds the rounds of one workload from a seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, tb):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.tb = tb
        self.plateau_file = workdir / "plateau.txt"
        self.count = 0
        self.rounds = 0

    def write_inputs(self) -> None:
        """Files the generated argv refers to: the plateau reference."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.plateau_file.write_text(
            f"{-PI!r} 0.0 0 0 1\n0.0 {PI!r} 0 0 -1\n", encoding="utf-8")

    def round(self) -> List[Request]:
        build = {"gapped-sweep": self._gapped, "critical-sweep": self._critical,
                 "lossy-sweep": self._lossy, "closed-forms": self._closed}[self.workload]
        requests = build()
        self.rounds += 1
        self.rng.shuffle(requests)
        for req in requests:
            if req.argv is not None:
                fmt = "json" if self.count % 2 else "csv"
                out = self.workdir / f"out.{fmt}"
                req.argv += ["--out", str(out)]
                req.spec["format"] = fmt
                req.spec["out"] = out
            self.count += 1
        return requests

    # -- shared pieces ---------------------------------------------------------
    def _angles(self):
        """Seeded reference angles with |cos(theta)| >= 0.2, so the
        massive-Dirac ratio has a non-vanishing reference coefficient."""
        rng = self.rng
        lo = math.acos(0.2)
        theta = rng.uniform(0.2, lo) if rng.random() < 0.5 else rng.uniform(PI - lo, PI - 0.2)
        phi = rng.uniform(0.0, 2.0 * PI)
        return theta, phi

    def _reference_args(self, spec, kind: str) -> List[str]:
        tb = self.tb
        if kind == "plateau":
            spec["ref"] = "plateau"
            return ["--ref-piecewise", str(self.plateau_file)]
        theta, phi = self._angles()
        if self.rng.random() < 0.25:
            deg_t, deg_p = math.degrees(theta), math.degrees(phi)
            spec["ref"] = tb.GlobalReference(math.radians(deg_t), math.radians(deg_p))
            return ["--theta", repr(deg_t), "--phi", repr(deg_p), "--degrees"]
        spec["ref"] = tb.GlobalReference(theta, phi)
        return ["--theta", repr(theta), "--phi", repr(phi)]

    def _family(self, family: str, spec) -> Tuple[List[str], float]:
        """--model/--set arguments and the transition value of the swept parameter."""
        rng = self.rng
        if family == "ssh-t2":
            t1 = rng.choice(DYADIC) if self.workload == "critical-sweep" else rng.uniform(0.5, 2.0)
            spec["fixed"] = {"t1": t1}
            return ["--model", "ssh", "--set", f"t1={t1!r}"], t1
        if family == "ssh-t1":
            t2 = rng.choice(DYADIC) if self.workload == "critical-sweep" else rng.uniform(0.5, 2.0)
            spec["fixed"] = {"t2": t2}
            return ["--model", "ssh", "--set", f"t2={t2!r}"], t2
        if family == "massive-dirac":
            spec["fixed"] = {}
            return ["--model", "massive-dirac"], 0.0
        t = rng.choice(DYADIC) if self.workload == "critical-sweep" else rng.uniform(0.5, 2.0)
        spec["fixed"] = {"t": t}
        return ["--model", "dual-ssh", "--set", f"t={t!r}"], 1.0

    def _sweep_request(self, family, quantities, start, stop, points, ref_kind, spec):
        name = SWEEP_PARAM[family]
        spec.update(family=family, param=name, quantities=tuple(quantities),
                    grid=np.linspace(start, stop, points))
        argv = ["sweep"] + spec["fam_args"] + [
            "--sweep", f"{name}:{start!r}:{stop!r}:{points}",
            "--quantities", ",".join(quantities)]
        argv += self._reference_args(spec, ref_kind)
        return Request(self.workload, argv=argv, spec=spec)

    # -- gapped-sweep ------------------------------------------------------------
    def _gapped_region(self, family: str, c: float) -> Tuple[float, float]:
        """A region of one phase that stays GAPPED_MARGIN from the transition."""
        top = self.rng.random() < 0.5
        if family in ("ssh-t2", "ssh-t1"):
            return (c + GAPPED_MARGIN, 3.0 * c) if top else (0.2 * c, c - GAPPED_MARGIN)
        if family == "massive-dirac":
            return (GAPPED_MARGIN, 3.0) if top else (-3.0, -GAPPED_MARGIN)
        return (1.0 + GAPPED_MARGIN, 4.0) if top else (0.15, 1.0 - GAPPED_MARGIN)

    def _gapped(self) -> List[Request]:
        rng = self.rng
        out = []
        for family, quantities, points, ref_kind in GAPPED_DECK:
            spec = {}
            fam_args, c = self._family(family, spec)
            spec["fam_args"], spec["transition"] = fam_args, c
            lo, hi = self._gapped_region(family, c)
            width = (hi - lo) * rng.uniform(0.1, 0.6)
            start = rng.uniform(lo, hi - width)
            out.append(self._sweep_request(family, quantities, start, start + width,
                                           points, ref_kind, spec))
        return out

    # -- critical-sweep ------------------------------------------------------------
    def _critical(self) -> List[Request]:
        rng = self.rng
        out = []
        n_near = 0
        for family, kind, quantities, points in CRITICAL_DECK:
            spec = {}
            fam_args, c = self._family(family, spec)
            spec["fam_args"], spec["transition"] = fam_args, c
            if kind == "near":
                # each near template steps through the decades round by round,
                # so every seed spends the same work at each distance
                decade = NEAR_DECADES[(n_near + self.rounds) % len(NEAR_DECADES)]
                n_near += 1
                dist = 10.0 ** rng.uniform(decade, decade + 1)
                span = dist * rng.uniform(2.0, 10.0)
                if rng.random() < 0.5:
                    start, stop = c + dist, c + span
                else:
                    start, stop = c - span, c - dist
            else:
                half = 2.0 ** -rng.randint(4, 10)
                start, stop = c - half, c + half
            req = self._sweep_request(family, quantities, start, stop, points, "global", spec)
            if kind == "exact" and c not in spec["grid"]:
                raise AssertionError("symmetric window missed the transition")
            out.append(req)
        return out

    # -- lossy-sweep ------------------------------------------------------------
    def _lossy(self) -> List[Request]:
        rng = self.rng
        out = []
        # t1 >= 2 and gamma <= 2 keep every window at t2 > 0.
        for kind, quantities, points in LOSSY_DECK:
            t1 = rng.choice((2.0, 2.5, 3.0))
            spec = {"quantities": quantities or ("complexity", "dcomplexity")}
            argv = ["nh-sweep", "--set", f"t1={t1!r}"]
            if kind == "t2-closings":
                gamma = rng.choice((0.5, 1.0, 1.5, 2.0))
                lo_c, hi_c = t1 - 0.5 * gamma, t1 + 0.5 * gamma
                if rng.random() < 0.5:
                    # dyadic step: both closings are grid points
                    inner = 2 ** rng.randint(3, 4)
                    while inner + 4 > points:
                        inner //= 2
                    step = gamma / inner
                    left = rng.randint(2, min(points - inner - 2, int(0.5 * lo_c / step)))
                    start = lo_c - left * step
                    stop = start + (points - 1) * step
                else:
                    start = lo_c - 0.5 * lo_c * rng.uniform(0.1, 0.9)
                    stop = hi_c + gamma * rng.uniform(0.1, 0.5)
                grid = np.linspace(start, stop, points)
                spec.update(t1=t1, gamma=gamma, param="t2", grid=grid, closings=(lo_c, hi_c))
                argv += ["--set", f"gamma={gamma!r}", "--sweep", f"t2:{start!r}:{stop!r}:{points}"]
            else:
                t2 = t1
                while abs(t2 - t1) < 0.05:  # the gamma = 0 row is checked at a gapped point
                    t2 = rng.uniform(0.3, 3.5)
                stop = rng.uniform(0.5, 3.0)
                spec.update(t1=t1, t2=t2, param="gamma", grid=np.linspace(0.0, stop, points))
                argv += ["--set", f"t2={t2!r}", "--sweep", f"gamma:0.0:{stop!r}:{points}"]
            if quantities is not None:
                argv += ["--quantities", ",".join(quantities)]
            theta, phi = self._angles()
            spec["ref"] = self.tb.GlobalReference(theta, phi)
            argv += ["--theta", repr(theta), "--phi", repr(phi)]
            out.append(Request(self.workload, argv=argv, spec=spec))
        return out

    # -- closed-forms ------------------------------------------------------------
    def _closed(self) -> List[Request]:
        rng = self.rng
        tb = self.tb
        out = []
        for module, function, points in CLOSED_DECK:
            theta, phi = self._angles()
            ref = tb.GlobalReference(theta, phi)
            spec = {"ref": ref}
            if function in ("ssh_complexity_closed", "chi_F_ssh_closed", "excited_split_closed"):
                t1 = rng.uniform(0.5, 2.0)
                grid = t1 * np.linspace(rng.uniform(0.1, 0.5), rng.uniform(1.6, 3.0), points)
                if function == "chi_F_ssh_closed":
                    grid = grid[np.abs(grid - t1) > 1e-3 * t1]
                    args = [(tb.SSHParams(t1, float(t2)),) for t2 in grid]
                elif function == "excited_split_closed":
                    args = [(tb.SSHParams(t1, float(t2)), theta) for t2 in grid]
                else:
                    args = [(tb.SSHParams(t1, float(t2)), ref) for t2 in grid]
            elif function in ("md_complexity_closed", "md_dC_dmu_analytic",
                              "chi_F_md_closed", "chi_F_md_z_closed"):
                side = 1.0 if rng.random() < 0.5 else -1.0
                grid = side * np.geomspace(10.0 ** rng.uniform(-6, -3), rng.uniform(2.0, 5.0), points)
                if function.startswith("chi_F"):
                    args = [(tb.MassiveDiracParams(mu=float(mu)),) for mu in grid]
                else:
                    args = [(tb.MassiveDiracParams(mu=float(mu)), theta) for mu in grid]
            elif function == "self_dual_constraint":
                side = 1.0 if rng.random() < 0.5 else -1.0
                eps = np.geomspace(10.0 ** rng.uniform(-6.0, -5.0), 10.0 ** rng.uniform(-1.5, -1.0), points)
                t = rng.uniform(0.5, 2.0)
                args = [(tb.DualSSHParams(t, float(1.0 + side * e)), ref) for e in eps]
            elif function == "incomplete_E":
                m = rng.uniform(0.0, 1.0)
                grid = np.linspace(0.0, 0.5 * PI, points)
                args = [(float(p), m) for p in grid]
            else:
                # functions of the coupling ratio r; seeded curves approach r = 1
                side = 1.0 if rng.random() < 0.5 else -1.0
                eps = np.geomspace(10.0 ** rng.uniform(-6.0, -4.0), rng.uniform(0.3, 0.8), points)
                args = [(float(1.0 + side * e), ref) for e in eps]
            out.append(Request(self.workload, call=(module, function), args=args, spec=spec))
        return out
