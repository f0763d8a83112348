"""Named verification suites behind the `verify` CLI subcommand.

Each check reports the measured residual and the tolerance it is held to, so
a failing run shows exactly how far off the implementation is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from . import special_functions as sf
from .bloch import GlobalReference, plateau_reference
from .bounds_duality import (bound_check, complexity_derivative, complexity_duality_check,
                             complexity_duality_offset, fs_duality_check,
                             ratio_R, self_dual_constraint)
from .complexity import (BandAssignment, excited_piecewise_complexity,
                         excited_split_closed, ground_complexity, md_complexity_closed,
                         md_dC_dmu_analytic, plateau_complexity, ssh_complexity_closed)
from .fidelity import (_bloch_averages, _engine_averages, _planar_averages, chi_F,
                       chi_F_md_closed, chi_F_md_z_closed, chi_F_ssh_closed)
from .models import (MODELS, CooperPairBoxParams, DualSSHParams, MassiveDiracParams,
                     NonHermitianSSHParams, SSHParams, cooper_pair_box_model,
                     massive_dirac_model, nh_ssh_bloch_hamiltonian, ssh_model)
from .nonhermitian import (_normalized_pair, bikrylov_basis, biorthogonal_ground,
                           nh_complexity_derivative, nh_complexity_per_mode,
                           nh_complexity_per_mode_overlap, nh_ground_complexity)
from .quadrature import param_derivative
from .topology import dual_windings, winding_cross_product, winding_log_derivative

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(abs(residual)), float(tolerance))


def special_functions_suite() -> List[CheckResult]:
    checks = [
        _check("K(0) = pi/2", sf.complete_K(0.0) - 0.5 * PI, 1e-14),
        _check("E(0) = pi/2", sf.complete_E(0.0) - 0.5 * PI, 1e-14),
        _check("E(1) = 1", sf.complete_E(1.0) - 1.0, 0.0),
        _check("K(0.5) vs quadrature",
               sf.complete_K(0.5) - sf.complete_K_quadrature(0.5), 1e-12),
        _check("E(0.3) vs quadrature",
               sf.complete_E(0.3) - sf.complete_E_quadrature(0.3), 1e-12),
        _check("incomplete_E(pi/2, 0.4) reduces to E(0.4)",
               sf.incomplete_E(0.5 * PI, 0.4) - sf.complete_E(0.4), 1e-12),
    ]
    xp = 1e-8
    checks.append(_check(
        "K near m=1 matches log asymptote (relative)",
        (sf.complete_K(1.0 - xp) - 0.5 * math.log(16.0 / xp)) / sf.complete_K(1.0 - xp),
        1e-4))
    m = 0.04
    k_series = 0.5 * PI * (1.0 + 0.25 * m + (9.0 / 64.0) * m * m)
    checks.append(_check("K series at m=0.04",
                         sf.complete_K(m) - k_series, 2.0 * 0.5 * PI * (25.0 / 256.0) * m ** 3))
    h = 1e-6
    fd = (sf.complete_K(0.5 + h) - sf.complete_K(0.5 - h)) / (2.0 * h)
    checks.append(_check("dK/dm identity vs finite difference (relative)",
                         (sf.dK_dm(0.5) - fd) / fd, 1e-8))
    ms = np.linspace(0.0, 0.95, 20)
    kvals = [sf.complete_K(m) for m in ms]
    evals = [sf.complete_E(m) for m in ms]
    mono = float(np.min(np.diff(kvals))) > 0 and float(np.max(np.diff(evals))) < 0
    checks.append(_check("K increasing / E decreasing", 0.0 if mono else 1.0, 0.5))
    return checks


def closed_forms_suite() -> List[CheckResult]:
    checks: List[CheckResult] = []
    refs = [GlobalReference(0.5 * PI, PI), GlobalReference(PI / 3.0, PI / 4.0),
            GlobalReference(0.3, 2.0)]
    worst = 0.0
    for t1 in (0.6, 1.0, 1.7, 2.6):
        for t2 in (0.5, 1.2, 2.1, 2.9):
            model = ssh_model(SSHParams(t1, t2))
            for ref in refs:
                worst = max(worst, abs(ssh_complexity_closed(SSHParams(t1, t2), ref)
                                       - ground_complexity(model, ref)))
    checks.append(_check("SSH closed form vs exact planar average (grid)", worst, 1e-8))
    worst = 0.0
    for mu in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0):
        for theta in (0.0, PI / 4.0, PI / 3.0):
            model = massive_dirac_model(MassiveDiracParams(mu=mu))
            ref = GlobalReference(theta, 0.0)
            worst = max(worst, abs(md_complexity_closed(MassiveDiracParams(mu=mu), theta)
                                   - ground_complexity(model, ref)))
    checks.append(_check("massive-Dirac closed form vs exact planar average", worst, 1e-8))
    worst = 0.0
    for t1, t2 in ((2.0, 1.0), (1.0, 2.0), (1.3, 2.2), (2.6, 0.7)):
        got = chi_F(ssh_model(SSHParams(t1, t2)), t2).components[0]
        ref_val = chi_F_ssh_closed(SSHParams(t1, t2))
        worst = max(worst, abs(got - ref_val) / ref_val)
    checks.append(_check("SSH susceptibility x-component closed form (relative)", worst, 1e-6))
    worst = 0.0
    for mu in (0.05, 0.5, 1.0, 3.0):
        breakdown = chi_F(massive_dirac_model(MassiveDiracParams(mu=mu)), mu)
        worst = max(worst, abs(breakdown.total - chi_F_md_closed(MassiveDiracParams(mu=mu)))
                    / breakdown.total)
        worst = max(worst, abs(breakdown.components[2] - chi_F_md_z_closed(MassiveDiracParams(mu=mu)))
                    / breakdown.components[2])
    checks.append(_check("massive-Dirac susceptibility closed forms (relative)", worst, 1e-6))
    # the plateau and the k0 = 0 split on the exact path, each bound the measured 5.6e-17
    # and 1.1e-16 times 3.6 and 2.7
    grid = [SSHParams(t1, t2) for t1 in (0.6, 1.0, 1.7, 2.6) for t2 in (0.5, 1.0, 1.2, 2.1, 2.9)]
    checks.append(_check("plateau vs 1/2 - min(t1, t2)/(pi t1) (grid)", max(
        abs(plateau_complexity(p) - (0.5 - min(p.t1, p.t2) / (PI * p.t1))) for p in grid),
        2e-16))
    bands = BandAssignment.two_interval(0.0, -1, +1)
    checks.append(_check("k0 = 0 band split closed form (grid)", max(
        abs(excited_piecewise_complexity(p, bands, GlobalReference(theta, 0.3))
            - excited_split_closed(p, theta)) for p in grid for theta in (0.7, 2.0)), 3e-16))
    # the Cooper-pair box is massive Dirac at t = 1 and mu = Ecc (1 - 2 ng) / (2 Ej), its k
    # shifted by pi/2, with dmu/dng = -Ecc / Ej: gapped and 1e-6 from ng = 1/2, each bound
    # the measured error times 3.5 to 4.5
    errors = []
    for ej, ecc, ng in [(ej, ecc, ng) for ej, ecc in ((1.0, 1.5), (0.7, 2.2))
                        for ng in (0.2, -1.3, 0.5 + 1e-6, 0.5 - 1e-6)]:
        model = cooper_pair_box_model(CooperPairBoxParams(ej, ecc, ng))
        md = MassiveDiracParams(mu=ecc * (1.0 - 2.0 * ng) / (2.0 * ej))
        chi = chi_F(model, ng).total / (chi_F_md_closed(md) * (ecc / ej) ** 2)
        for ref in refs[1:]:
            avg = _bloch_averages(model, [ng], ref, None, complexity=True, derivative=True)
            errors.append((abs(avg.complexity[0] - md_complexity_closed(md, ref.theta)), abs(
                avg.dcomplexity[0] / (-ecc / ej * md_dC_dmu_analytic(md, ref.theta)) - 1.0),
                abs(chi - 1.0)))
    for name, tol, worst in zip(("C", "dC/dng (relative)", "susceptibility (relative)"),
                                (5e-16, 3e-14, 5e-15), map(max, zip(*errors))):
        checks.append(_check(f"Cooper-pair box {name} vs massive-Dirac closed form", worst, tol))
    # the exact path of planar rows against its oracle, the engine: C absolute, dC and
    # chi relative, at the default point and 1e-6 from the closing of each family, and
    # on the closing, where a row has only C; and the ssh plateau in its trivial phase, where
    # its dC is not 0, at t2 = 2 (theta = 0) and beside its closing at t2 = -t1 (theta = pi)
    for name, closing, fixed, ref in [(name, closing, {}, refs[1]) for name, closing in (
            ("ssh", 1.0), ("massive-dirac", 0.0), ("dual-ssh", 1.0), ("cooper-pair-box", 0.5))
            ] + [("ssh", -2.5, {"t1": 2.5}, plateau_reference())]:
        model = MODELS[name].model(fixed)
        label = name if ref is refs[1] else f"{name} plateau"
        for lam in (model.lam, closing + 1e-6, closing):
            got, want = (f(model, [lam], ref, None, complexity=True, derivative=True,
                           chi=True) for f in (_bloch_averages, _engine_averages))
            worst = max([abs(got.complexity[0] - want.complexity[0]), *(
                abs(x[0] / y[0] - 1.0) for x, y in ((got.dcomplexity, want.dcomplexity),
                                                    *zip(got[5:8], want[5:8]))
                if y[0] and not got.closed[0])])
            exact = _planar_averages(model.zeros([lam]), model.slope(lam), ref, True, True, True)
            routed = exact.dcomplexity_ok[0] and exact.chi_ok[0]  # the C mask is in dC's
            checks.append(_check(f"exact path vs engine, {label} at {lam!r}",
                                 worst if routed else math.inf, 1e-9))
    worst = max(abs(ground_complexity(ssh_model(SSHParams(t, t)), ref)
                    - ssh_complexity_closed(SSHParams(t, t), ref))
                for t in (0.6, 1.0, 1.7) for ref in refs)
    checks.append(_check("closed SSH row vs closed form at t1 = t2", worst, 1e-15))
    worst = max(abs(ground_complexity(massive_dirac_model(MassiveDiracParams(t, 0.0)), ref)
                    - md_complexity_closed(MassiveDiracParams(t, 0.0), ref.theta))
                for t in (0.5, 2.0) for ref in refs)
    checks.append(_check("closed massive-Dirac row vs closed form at mu = 0", worst, 1e-15))
    return checks


def duality_suite() -> List[CheckResult]:
    ref = GlobalReference(0.5 * PI, PI)
    checks: List[CheckResult] = []
    for r in (0.2, 0.5, 2.0, 5.0):
        _, _, resid = fs_duality_check(DualSSHParams(1.0, r))
        checks.append(_check(f"susceptibility duality at r={r} (relative)", resid, 1e-6))
        _, _, resid = complexity_duality_check(DualSSHParams(1.0, r), ref)
        checks.append(_check(f"complexity duality at r={r}", resid, 1e-7))
    checks.append(_check("duality offset vanishes at r=1",
                         complexity_duality_offset(1.0, ref), 0.0))
    model = ssh_model(SSHParams(1.0, 1.0))
    for r in (1.5, 3.0):
        resid = ratio_R(model, ref, r) - ratio_R(model, ref, 1.0 / r)
        checks.append(_check(f"ratio symmetry R(r)=R(1/r) at r={r}", resid, 1e-8))
    c1 = 0.5 + ref.re_alpha_beta * 2.0 / PI
    far, near = (abs(self_dual_constraint(DualSSHParams(1.0, 1.0 + eps), ref)[0] - c1)
                 for eps in (1e-2, 1e-3))
    checks.append(_check("self-dual constraint residual shrinks with eps",
                         0.0 if near < far else 1.0, 0.5))
    return checks


def bound_suite() -> List[CheckResult]:
    checks: List[CheckResult] = []
    ref = GlobalReference(0.5 * PI, PI)
    ssh = ssh_model(SSHParams(1.0, 1.0))
    md = massive_dirac_model(MassiveDiracParams())
    ref_z = GlobalReference(0.0, 0.0)
    for name, model, point_ref, lams, closing, margin in (
            ("SSH", ssh, ref, np.linspace(0.2, 2.5, 20), 1.0, 2e-2),
            ("massive-Dirac", md, ref_z, np.linspace(-2.0, 2.0, 20), 0.0, 5e-2)):
        violations = sum(not bound_check(model, point_ref, float(lam)).satisfied
                         for lam in lams if abs(lam - closing) >= margin)
        checks.append(_check(f"bound holds across the {name} sweep", violations, 0.5))
    worst = 0.0
    for model, point_ref, lam in ((ssh, ref, 0.5), (ssh, ref, 2.0), (md, ref_z, 0.7)):
        fd = param_derivative(lambda x: ground_complexity(model.at(x), point_ref), lam)
        worst = max(worst, abs(bound_check(model, point_ref, lam).lhs - abs(fd)))
    checks.append(_check("bound lhs vs finite difference of the complexity", worst, 1e-9))
    target = math.sqrt(2.0 / 3.0)
    checks.append(_check("ratio saturation, SSH at t2=50",
                         ratio_R(ssh, ref, 50.0) - target, 1e-3))
    checks.append(_check("ratio saturation, massive Dirac at mu=50",
                         ratio_R(md, ref_z, 50.0) - target, 1e-3))
    return checks


def log_divergence_suite() -> List[CheckResult]:
    """dC/d(lambda) diverges like ln|delta| at the gap closings.

    The slope of ``complexity_derivative`` against ln|delta| between
    |delta| = 1e-8 and 1e-10, on each side of a transition, is held to the
    closed-form coefficient of ln|delta|: Re(alpha* beta) / (pi t1) for SSH
    swept in t2 at t1, and -cos(theta) / pi for the massive-Dirac chain.
    """
    ref = GlobalReference(0.9, 0.4)
    span = math.log(1e-8) - math.log(1e-10)
    cases = [(f"SSH at t1={t1}", ssh_model(SSHParams(t1, t1)), t1,
              ref.re_alpha_beta / (PI * t1)) for t1 in (1.0, 1.5)]
    cases.append(("massive Dirac", massive_dirac_model(MassiveDiracParams()), 0.0,
                  -math.cos(ref.theta) / PI))
    checks: List[CheckResult] = []
    for name, model, transition, coefficient in cases:
        for side, sign in (("above", 1.0), ("below", -1.0)):
            near, far = (complexity_derivative(model, ref, transition + sign * delta)
                         for delta in (1e-10, 1e-8))
            checks.append(_check(f"{name}: ln|delta| coefficient of dC/dlambda {side} (relative)",
                                 (far - near) / span / coefficient - 1.0, 1e-6))
    return checks


def winding_suite() -> List[CheckResult]:
    checks = [
        _check("trivial chain winding (t1=2, t2=1)",
               winding_log_derivative(ssh_model(SSHParams(2.0, 1.0)).contour), 0.0),
        _check("topological chain winding (t1=1, t2=2) minus 1",
               winding_log_derivative(ssh_model(SSHParams(1.0, 2.0)).contour) - 1, 0.0),
        _check("constant map winding",
               winding_log_derivative(lambda k: 1.0 + 0.0j), 0.0),
    ]
    for mu in (-3.0, -0.5, 0.5, 3.0):
        model = massive_dirac_model(MassiveDiracParams(mu=mu))
        checks.append(_check(f"massive-Dirac planar winding at mu={mu}",
                             winding_cross_product(model), 1e-10))
    checks.append(_check("SSH planar winding matches contour form",
                         winding_cross_product(ssh_model(SSHParams(1.0, 2.0))) - 1.0, 1e-6))
    for r in (0.3, 0.5, 2.0, 4.0):
        nu_i, nu_ii = dual_windings(DualSSHParams(1.0, r))
        checks.append(_check(f"dual windings sum to 1 at r={r}", nu_i + nu_ii - 1, 0.0))
    # the sweep column's root count against the contour grid
    cases = [("ssh", "t1", 2.0, 1.0), ("ssh", "t1", 1.0, 2.0), ("ssh", "t1", 1.0, -2.0)]
    cases += [("dual-ssh", "t", 1.0, r) for r in (0.3, 0.5, 2.0, 4.0)]
    for name, key, value, lam in cases:
        swept, model = MODELS[name].parameters[0], MODELS[name].model({key: value})
        grid = winding_log_derivative(model.at(lam).contour)
        nu = model.windings([lam])[0]
        checks.append(_check(f"{name} root-count winding at {key}={value}, {swept}={lam} "
                             "vs contour grid", nu - grid, 0.0))
    return checks


def nonhermitian_suite() -> List[CheckResult]:
    checks: List[CheckResult] = []
    rng = np.random.default_rng(7)
    worst_pairing = 0.0
    worst_basis = 0.0
    worst_dual = 0.0
    for _ in range(40):
        t1, t2 = rng.uniform(0.5, 3.0, size=2)
        gamma = rng.uniform(-1.5, 1.5)
        k = rng.uniform(-PI, PI)
        params = NonHermitianSSHParams(t1=t1, t2=t2, gamma=gamma)
        pair = biorthogonal_ground(nh_ssh_bloch_hamiltonian(params, k))
        worst_pairing = max(worst_pairing, abs(pair.pairing() - 1.0))
        z = rng.normal(size=4)
        alpha, beta = _normalized_pair(complex(z[0], z[1]), complex(z[2], z[3]))
        basis = bikrylov_basis(alpha, beta)
        gram = np.array([[basis.left0 @ basis.right0, basis.left0 @ basis.right1],
                         [basis.left1 @ basis.right0, basis.left1 @ basis.right1]])
        worst_basis = max(worst_basis, float(np.max(np.abs(gram - np.eye(2)))))
        worst_dual = max(worst_dual, abs(nh_complexity_per_mode(params, k, alpha, beta)
                                         - nh_complexity_per_mode_overlap(params, k, alpha, beta)))
    checks.append(_check("biorthogonal pairing <L|R> = 1 (random samples)", worst_pairing, 1e-10))
    checks.append(_check("Krylov biorthonormality (random samples)", worst_basis, 1e-10))
    checks.append(_check("explicit vs overlap per-mode weights", worst_dual, 1e-10))
    amp = 1.0 / math.sqrt(2.0)
    hermitian = ground_complexity(ssh_model(SSHParams(2.0, 1.0)), GlobalReference(0.5 * PI, 0.0))
    checks.append(_check("gamma = 0 reduction to the Hermitian value",
                         nh_ground_complexity(NonHermitianSSHParams(2.0, 1.0, 0.0), amp, amp)
                         - hermitian, 1e-8))
    checks.append(_check("gamma -> 0 continuity",
                         nh_ground_complexity(NonHermitianSSHParams(2.0, 1.0, 1e-6), amp, amp)
                         - hermitian, 1e-5))
    # C is C^1 across each PBC gap closing t2 = c: dC/dt2(c + delta) - dC/dt2(c)
    # scales as |delta|^(1/2) on the side between the two closings and as
    # |delta| outside.  The exponent is read off delta = 1e-5 and 1e-7.
    slope = lambda t2: nh_complexity_derivative(NonHermitianSSHParams(2.0, t2, 1.0), "t2",
                                                amp, amp)[1]
    lo, hi = NonHermitianSSHParams(2.0, 2.0, 1.0).gap_closing_couplings()[2:]  # at k = 0
    worst = 0.0
    for closing, inward in ((lo, 1.0), (hi, -1.0)):
        at = slope(closing)
        for side, exponent in ((inward, 0.5), (-inward, 1.0)):
            near, far = (abs(slope(closing + side * delta) - at) for delta in (1e-7, 1e-5))
            worst = max(worst, abs(math.log(far / near) / math.log(100.0) - exponent))
    checks.append(_check("dC/dt2 deviation exponents 1/2 inside, 1 outside each PBC closing",
                         worst, 1e-2))
    return checks


SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "special-functions": special_functions_suite,
    "closed-forms": closed_forms_suite,
    "duality": duality_suite,
    "bound": bound_suite,
    "log-divergence": log_divergence_suite,
    "winding": winding_suite,
    "nonhermitian": nonhermitian_suite,
}


def run_suite(name: str) -> List[CheckResult]:
    if name == "all":
        results: List[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    return SUITES[name]()
