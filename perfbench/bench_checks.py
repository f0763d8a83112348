"""Output parsing and independent checks for benchmark requests.

Every check runs outside the timed region.  Sweep outputs are parsed from
the file the CLI wrote (CSV, or JSON with either bare NaN/Infinity or strict
``null``) and compared row by row against references the sweep path does not
use:

* closed forms, at the repository's pinned tolerances (1e-8 absolute for C,
  1e-6 relative for chi_F) on the domain where it pins them; closer in, the
  differences are reported per distance decade but not checked;
* analytic dC/dlambda from ``md_dC_dmu_analytic`` and
  ``ratio_complexity_prime`` (SSH couplings enter through r = t2/t1);
* total chi_F of the dimerized chain, derived here:
  chi_F = c^2 (a - |D|) / (4 b^2 |D|) with a = t1^2 + t2^2, b = 2 t1 t2,
  D = t1^2 - t2^2 and c = t1 for a t2 sweep, c = t2 for a t1 sweep;
* the bound (satisfied, ratio <= 1), winding by phase, plateau values;
* for the lossy chain, the gamma = 0 row against the Hermitian closed form
  and an independent tight-tolerance average of the biorthogonal weights.

Library closed forms are compared with mpmath at 40 digits on a seeded
subsample.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Dict, List, NamedTuple, Tuple

import mpmath as mp
from scipy.integrate import quad

PI = math.pi
EPS = 2.0 ** -52

C_TOL = 1e-8          # closed-form complexity, absolute (tests/test_acceptance.py)
CHI_RTOL = 1e-6       # closed-form susceptibility, relative (tests/test_acceptance.py)
DC_TOL = 1e-6         # finite-difference dC against the analytic derivative
# tests/test_acceptance.py pins the closed-form tolerances on
# |t1 - t2| / (t1 + t2) >= 1e-3 and on |mu| >= 1e-2 (exact transitions too).
PINNED_GAP = 1e-3
PINNED_MU = 1e-2
BOUND_SLACK = 1e-9    # the library's own bound slack
# The derivative uses a central stencil of step 1e-5; it is compared with the
# analytic value only where the stencil stays this far from the transition.
FD_CLEARANCE = 1e-3
# Rows of the lossy chain compared with the reference average stay this far
# (in t2) from a gap closing, where an exceptional point sits on the zone.
NH_CLEARANCE = 0.05


class Row(NamedTuple):
    lam: float
    values: Dict[str, float]
    flags: frozenset


def _num(x) -> float:
    return math.nan if x is None else float(x)


def parse_output(fmt: str, text: str) -> List[Row]:
    """Rows of a sweep file; JSON may carry NaN/Infinity or strict null."""
    rows = []
    if fmt == "json":
        payload = json.loads(text)
        for rec in payload["records"]:
            values = {k: _num(v) for k, v in rec["values"].items()}
            rows.append(Row(_num(rec["lambda"]), values, frozenset(rec.get("flags") or ())))
        return rows
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[0] != "lambda" or header[-1] != "flags":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells, header has {len(header)}")
        values = {name: float(cell) for name, cell in zip(header[1:-1], cells[1:-1])}
        flags = frozenset(f for f in cells[-1].split(";") if f)
        rows.append(Row(float(cells[0]), values, flags))
    return rows


# -- Hermitian sweeps ------------------------------------------------------------

class Point(NamedTuple):
    """Couplings (t1, t2) of the SSH chain behind one sweep row (NaN for massive-Dirac)."""

    t1: float
    t2: float
    scale: float  # d/dlambda = scale * d/dt2 for the dual chain (scale = t)


def _point(spec, lam: float) -> Point:
    family, fixed = spec["family"], spec["fixed"]
    if family == "ssh-t2":
        return Point(fixed["t1"], lam, 1.0)
    if family == "ssh-t1":
        return Point(lam, fixed["t2"], 1.0)
    if family == "dual-ssh":
        t = fixed["t"]
        return Point(t, lam * t, t)
    return Point(math.nan, math.nan, 1.0)


def _ssh_chi_total(t1: float, t2: float, sweep_t1: bool) -> float:
    a, b, d = t1 * t1 + t2 * t2, 2.0 * t1 * t2, abs(t1 * t1 - t2 * t2)
    c = t2 if sweep_t1 else t1
    return c * c * (a - d) / (4.0 * b * b * d)


class SweepOracle:
    """Closed-form expectations for one Hermitian sweep request."""

    def __init__(self, tb, spec):
        self.tb = tb
        self.bd = tb.bounds_duality
        self.spec = spec
        self.family = spec["family"]
        self.ref = spec["ref"]

    def complexity(self, lam):
        tb, p = self.tb, _point(self.spec, lam)
        if self.ref == "plateau":
            return 0.5 - p.t2 / (PI * p.t1) if p.t2 <= p.t1 else 0.5 - 1.0 / PI
        if self.family == "massive-dirac":
            return tb.md_complexity_closed(tb.MassiveDiracParams(mu=lam), self.ref.theta)
        if self.family == "dual-ssh":
            return self.bd.ratio_complexity(lam, self.ref)
        return tb.ssh_complexity_closed(tb.SSHParams(p.t1, p.t2), self.ref)

    def dcomplexity(self, lam):
        tb, p = self.tb, _point(self.spec, lam)
        if self.ref == "plateau":
            if p.t2 >= p.t1:
                return 0.0
            return -1.0 / (PI * p.t1) if self.family == "ssh-t2" else p.t2 / (PI * p.t1 ** 2)
        if self.family == "massive-dirac":
            return tb.md_dC_dmu_analytic(tb.MassiveDiracParams(mu=lam), self.ref.theta)
        if self.family == "dual-ssh":
            return self.bd.ratio_complexity_prime(lam, self.ref)
        prime = self.bd.ratio_complexity_prime(p.t2 / p.t1, self.ref)
        return prime / p.t1 if self.family == "ssh-t2" else -p.t2 / p.t1 ** 2 * prime

    def chi_total(self, lam):
        tb, p = self.tb, _point(self.spec, lam)
        if self.family == "massive-dirac":
            return tb.chi_F_md_closed(tb.MassiveDiracParams(mu=lam))
        return p.scale ** 2 * _ssh_chi_total(p.t1, p.t2, self.family == "ssh-t1")

    def chi_components(self, lam):
        """(x, z) closed components, or None where the library has none."""
        tb, p = self.tb, _point(self.spec, lam)
        total = self.chi_total(lam)
        if self.family == "massive-dirac":
            z = tb.chi_F_md_z_closed(tb.MassiveDiracParams(mu=lam))
            return total - z, z
        if self.family == "ssh-t1":
            return None
        x = p.scale ** 2 * tb.chi_F_ssh_closed(tb.SSHParams(p.t1, p.t2))
        return x, total - x

    def winding(self, lam):
        p = _point(self.spec, lam)
        if self.family == "massive-dirac":
            return None
        return 1.0 if p.t2 > p.t1 else 0.0


def _close(got, want, rtol=0.0, atol=0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def _pinned(spec, lam: float) -> bool:
    """Whether the repository pins closed-form agreement at this row."""
    if spec["family"] == "massive-dirac":
        return abs(lam) >= PINNED_MU
    p = _point(spec, lam)
    return abs(p.t1 - p.t2) / (p.t1 + p.t2) >= PINNED_GAP


def check_sweep(tb, spec, rows: List[Row], unpinned: Dict[Tuple[str, int], float]) -> List[str]:
    """Problems found in a Hermitian sweep's rows (empty when all hold).

    Closer to a transition than the pinned domain, closed-form differences are
    recorded in ``unpinned`` as the largest error per (quantity, distance
    decade) instead of being checked.
    """
    grid = spec["grid"]
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"]
    oracle = SweepOracle(tb, spec)
    c = spec["transition"]
    quantities = spec["quantities"]
    problems = []
    for row, lam in zip(rows, grid):
        lam = float(lam)
        if row.lam != lam:
            problems.append(f"lambda {row.lam!r} != grid value {lam!r}")
            continue
        exact = lam == c
        clear = abs(lam - c) >= FD_CLEARANCE
        pinned = exact or _pinned(spec, lam)
        v = row.values
        bad = []

        def compare(label, got, want, rtol=0.0, atol=0.0):
            if pinned:
                if not _close(got, want, rtol, atol):
                    bad.append(f"{label} {got!r} vs closed {want!r}")
                return
            err = abs(got - want) / (abs(want) if rtol else 1.0)
            key = (label, math.floor(math.log10(abs(lam - c))))
            unpinned[key] = max(unpinned.get(key, 0.0), err if math.isfinite(err) else math.inf)

        allowed_flags = {"diverged"} if exact else set()
        if row.flags - allowed_flags:
            bad.append(f"unexpected flags {sorted(row.flags)}")
        if "complexity" in quantities:
            compare("complexity", v["complexity"], oracle.complexity(lam), atol=C_TOL)
        if "dcomplexity" in quantities:
            got = v["dcomplexity"]
            if not math.isfinite(got):
                bad.append(f"dcomplexity {got!r} not finite")
            elif clear:
                want = oracle.dcomplexity(lam)
                if not _close(got, want, rtol=DC_TOL, atol=DC_TOL):
                    bad.append(f"dcomplexity {got!r} vs analytic {want!r}")
        chi_keys = [k for k in ("chi_f", "chi_f_x") if k in v]
        if exact and chi_keys and "diverged" not in row.flags:
            bad.append("susceptibility at the transition not flagged diverged")
        if not exact:
            if "chi_f" in quantities:
                compare("chi_f", v["chi_f"], oracle.chi_total(lam), rtol=CHI_RTOL)
            if "chi_f_components" in quantities:
                x, y, z = v["chi_f_x"], v["chi_f_y"], v["chi_f_z"]
                if y != 0.0:
                    bad.append(f"chi_f_y {y!r} is not 0 for a model with d_y = 0")
                compare("chi_f_components", x + y + z, oracle.chi_total(lam), rtol=CHI_RTOL)
                comps = oracle.chi_components(lam)
                if comps is not None:
                    compare("chi_f_x", x, comps[0], rtol=CHI_RTOL)
                    compare("chi_f_z", z, comps[1], rtol=CHI_RTOL)
        if "bound" in quantities and not exact:
            lhs, rhs, sat = v["bound_lhs"], v["bound_rhs"], v["bound_satisfied"]
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                bad.append(f"bound sides {(lhs, rhs)!r} not finite")
            elif clear:
                want = abs(oracle.dcomplexity(lam))
                if sat != 1.0 or lhs > rhs * (1.0 + BOUND_SLACK):
                    bad.append(f"bound violated: lhs={lhs!r} rhs={rhs!r} satisfied={sat!r}")
                if not _close(lhs, want, rtol=DC_TOL, atol=DC_TOL):
                    bad.append(f"bound lhs {lhs!r} vs analytic |dC| {want!r}")
                comps = oracle.chi_components(lam)
                if comps is not None:
                    n = oracle.ref.bloch.as_array()
                    want_rhs = abs(n[0]) * math.sqrt(comps[0]) + abs(n[2]) * math.sqrt(comps[1])
                    if not _close(rhs, want_rhs, rtol=CHI_RTOL):
                        bad.append(f"bound rhs {rhs!r} vs closed {want_rhs!r}")
        if "ratio" in quantities and not exact:
            r = v["ratio"]
            if not (math.isfinite(r) and 0.0 < r <= 1.0 + BOUND_SLACK):
                bad.append(f"ratio {r!r} outside (0, 1]")
        if "winding" in quantities and not exact:
            want = oracle.winding(lam)
            got = v["winding"]
            if want is None:
                if not abs(got) <= 1e-10:
                    bad.append(f"massive-Dirac planar winding {got!r} not 0")
            elif got != want:
                bad.append(f"winding {got!r} != {want!r} for this phase")
        problems += [f"row lambda={lam!r}: {b}" for b in bad]
    return problems


# -- lossy chain -------------------------------------------------------------------

def nh_reference_average(t1: float, t2: float, gamma: float, alpha: complex, beta: complex) -> float:
    """BZ average of the biorthogonal C_k = |w1| / (|w0| + |w1|), written out
    here and integrated at tolerance 1e-13 with no one-sided offset.

    The weights are smooth except for |.| kinks, so the integrator must be
    adaptive; a fixed Gauss-Legendre rule misses them by ~1e-7.
    """
    ca, cb = alpha.conjugate(), beta.conjugate()

    def ck(k):
        r1 = t1 - t2 * math.cos(k)
        r3 = complex(t2 * math.sin(k), 0.5 * gamma)
        u = cmath.sqrt(r1 * r1 + r3 * r3) + r3
        den = r1 * r1 + u * u
        w0 = abs((alpha * r1 - beta * u) * (ca * r1 - cb * u) / den)
        w1 = abs((alpha * u + beta * r1) * (ca * u + cb * r1) / den)
        return w1 / (w0 + w1)

    value, *_ = quad(ck, -PI, PI, points=[0.0], epsabs=1e-13, epsrel=1e-13, limit=1000,
                     full_output=1)
    return value / (2.0 * PI)


def check_lossy(tb, spec, rows: List[Row], pick: int) -> Tuple[List[str], Tuple[int, int, int]]:
    """Problems in a lossy-chain sweep, and (closings found, closings, spurious)
    cusps reported by ``detect_cusps`` (a diagnostic, not a pass/fail check)."""
    grid = spec["grid"]
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"], (0, 0, 0)
    ref = spec["ref"]
    problems = []
    for row, lam in zip(rows, grid):
        if row.lam != float(lam):
            problems.append(f"lambda {row.lam!r} != grid value {float(lam)!r}")
        if row.flags:
            problems.append(f"row lambda={row.lam!r}: unexpected flags {sorted(row.flags)}")
        c = row.values.get("complexity", math.nan)
        if not 0.0 <= c <= 1.0:
            problems.append(f"row lambda={row.lam!r}: complexity {c!r} outside [0, 1]")
        if "dcomplexity" in spec["quantities"] and not math.isfinite(row.values["dcomplexity"]):
            problems.append(f"row lambda={row.lam!r}: dcomplexity not finite")
    if problems:
        return problems, (0, 0, 0)
    t1 = spec["t1"]
    if spec["param"] == "gamma":
        t2 = spec["t2"]
        want = tb.ssh_complexity_closed(tb.SSHParams(t1, t2), ref)
        if not _close(rows[0].values["complexity"], want, atol=C_TOL):
            problems.append(f"gamma=0 row {rows[0].values['complexity']!r} vs Hermitian {want!r}")
        row = rows[pick % len(rows)]
        gamma = row.lam
        closings = (t1 - 0.5 * gamma, t1 + 0.5 * gamma)
    else:
        row = rows[pick % len(rows)]
        t2, gamma = row.lam, spec["gamma"]
        closings = spec["closings"]
    if min(abs(t2 - x) for x in closings) >= NH_CLEARANCE:
        want = nh_reference_average(t1, t2, gamma, ref.alpha, ref.beta)
        if not _close(row.values["complexity"], want, atol=C_TOL):
            problems.append(f"row lambda={row.lam!r}: complexity {row.values['complexity']!r} "
                            f"vs reference average {want!r}")
    cusp_stats = (0, 0, 0)
    if spec["param"] == "t2":
        step = float(grid[1] - grid[0])
        cusps = tb.detect_cusps([(r.lam, r.values["complexity"]) for r in rows])
        found = sum(1 for x in closings if any(abs(cu - x) <= step for cu in cusps))
        spurious = sum(1 for cu in cusps if min(abs(cu - x) for x in closings) > step)
        cusp_stats = (found, len(closings), spurious)
    return problems, cusp_stats


# -- closed forms against mpmath ---------------------------------------------------

mp.mp.dps = 40


def _alpha_beta(ref):
    if ref.re_alpha_beta == 0.0:
        return mp.mpf(0)
    return mp.sin(mp.mpf(ref.theta)) * mp.cos(mp.mpf(ref.phi)) / 2


def _ratio_parts(r):
    r = mp.mpf(r)
    m = 4 * r / (1 + r) ** 2
    mc = ((1 - r) / (1 + r)) ** 2
    return r, m, mc


def _i1(r):
    r, m, mc = _ratio_parts(r)
    if mc == 0:
        return 2 / mp.pi
    return ((1 - r) * mp.ellipk(m) + (1 + r) * mp.ellipe(m)) / mp.pi


def _dk_de(m):
    k, e = mp.ellipk(m), mp.ellipe(m)
    return k, e, (e - (1 - m) * k) / (2 * m * (1 - m)), (e - k) / (2 * m)


def _i1_prime(r):
    r, m, _ = _ratio_parts(r)
    k, e, dk, de = _dk_de(m)
    m_prime = 4 * (1 - r) / (1 + r) ** 3
    return (-k + e + ((1 - r) * dk + (1 + r) * de) * m_prime) / mp.pi


def _offset(r, a):
    r, m, mc = _ratio_parts(r)
    if mc == 0:
        return mp.mpf(0)
    return (1 - r) / 2 + 2 * a * (1 - r) * mp.ellipk(m) / mp.pi


def _offset_prime(r, a):
    r, m, _ = _ratio_parts(r)
    k, _, dk, _ = _dk_de(m)
    m_prime = 4 * (1 - r) / (1 + r) ** 3
    return -mp.mpf(1) / 2 + (2 * a / mp.pi) * (-k + (1 - r) * dk * m_prime)


def _md_lambda(mu):
    mu = mp.mpf(mu)
    return mu, 1 / (1 + mu * mu), mu * mu / (1 + mu * mu)


def closed_form_reference(function: str, args: tuple):
    """(values at 40 digits, complementary elliptic parameter mc, kind)."""
    if function == "ssh_complexity_closed":
        params, ref = args
        r = mp.mpf(params.t2) / mp.mpf(params.t1)
        return (mp.mpf(1) / 2 + _alpha_beta(ref) * _i1(r),), _ratio_parts(r)[2], "elliptic"
    if function == "chi_F_ssh_closed":
        t1, t2 = mp.mpf(args[0].t1), mp.mpf(args[0].t2)
        lo, hi = min(t1, t2), max(t1, t2)
        return (3 * lo ** 2 / (32 * hi ** 2 * (hi ** 2 - lo ** 2)),), ((hi - lo) / (hi + lo)), "rational"
    if function == "excited_split_closed":
        params, theta = args
        t1, t2 = mp.mpf(params.t1), mp.mpf(params.t2)
        value = mp.mpf(1) / 2 + mp.cos(mp.mpf(theta)) / (2 * mp.pi * t1) * (abs(t1 - t2) - (t1 + t2))
        return (value,), mp.mpf(1), "rational"
    if function in ("md_complexity_closed", "md_dC_dmu_analytic"):
        params, theta = args
        mu, lam, mc = _md_lambda(params.mu)
        pref = mp.cos(mp.mpf(theta)) / (mp.pi * mp.sqrt(1 + mu * mu))
        if function == "md_complexity_closed":
            value = mp.mpf(1) / 2 if mu == 0 else mp.mpf(1) / 2 + mu * pref * mp.ellipk(lam)
        else:
            value = pref * (mp.ellipk(lam) - mp.ellipe(lam))
        return (value,), mc, "elliptic"
    if function in ("chi_F_md_closed", "chi_F_md_z_closed"):
        mu = abs(mp.mpf(args[0].mu))
        if function == "chi_F_md_closed":
            return (1 / (8 * mu * (1 + mu * mu) ** mp.mpf(1.5)),), mp.mpf(1), "rational"
        return (3 / (32 * mu * (1 + mu * mu) ** mp.mpf(2.5)),), mp.mpf(1), "rational"
    if function == "incomplete_E":
        phi, m = args
        return (mp.ellipe(mp.mpf(phi), mp.mpf(m)),), mp.mpf(1), "quadrature"
    if function == "self_dual_constraint":
        params, ref = args
        a, r = _alpha_beta(ref), params.r
        constraint = 2 * a * _i1_prime(r) - _offset_prime(r, a)
        return (constraint, mp.mpf(1) / 2 + a * _i1(r)), _ratio_parts(r)[2], "elliptic"
    r, ref = args
    a = _alpha_beta(ref)
    value = {
        "ratio_complexity": lambda: mp.mpf(1) / 2 + a * _i1(r),
        "ratio_complexity_prime": lambda: a * _i1_prime(r),
        "complexity_duality_offset": lambda: _offset(r, a),
        "complexity_duality_offset_prime": lambda: _offset_prime(r, a),
    }[function]()
    return (value,), _ratio_parts(r)[2], "elliptic"


def closed_form_tolerance(kind: str, mc, want) -> float:
    """Allowed |double - mpmath| for one value.

    Elliptic forms carry m = 1 - mc in double precision, so K(m) near m = 1
    inherits a relative error of order ulp(1)/mc; rational forms lose
    ulp/mc' to the difference of squares (mc' = |t1 - t2|/(t1 + t2));
    incomplete_E is a quadrature at absolute tolerance 1e-12.
    """
    scale = max(1.0, abs(float(want)))
    if kind == "quadrature":
        return 1e-11
    if kind == "rational":
        return (1e-12 + 4.0 * EPS / float(mc)) * scale
    return (1e-12 + EPS / float(mc)) * scale


def check_closed(function: str, args: tuple, got) -> Tuple[List[str], float]:
    """Problems of one closed-form value against mpmath, and its abs error."""
    wants, mc, kind = closed_form_reference(function, args)
    gots = got if isinstance(got, tuple) else (got,)
    problems = []
    worst = 0.0
    for g, w in zip(gots, wants):
        err = abs(float(g) - float(w)) if math.isfinite(g) else math.inf
        worst = max(worst, err)
        tol = closed_form_tolerance(kind, mc, w)
        if not err <= tol:
            problems.append(f"{function}{args!r}: {g!r} vs mpmath {mp.nstr(w, 20)} "
                            f"(|err| {err:.2e} > tol {tol:.2e})")
    return problems, worst
