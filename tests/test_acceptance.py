"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from twoband import (BandAssignment, BlochVector, BZQuadratureConfig,
                     DualSSHParams, GlobalReference,
                     MassiveDiracParams, NonHermitianSSHParams, SSHParams,
                     bikrylov_basis, biorthogonal_ground, bound_check, chi_F,
                     chi_F_md_closed, chi_F_md_z_closed, chi_F_ssh_closed,
                     complete_E, complete_K, complexity_duality_check,
                     complexity_duality_offset, complexity_per_mode,
                     detect_cusps, dual_windings, excited_piecewise_complexity,
                     excited_split_closed, fs_duality_check, ground_complexity,
                     ground_state_bloch, incomplete_E, massive_dirac_model,
                     md_complexity_closed, md_dC_dmu_analytic,
                     nh_ground_complexity, nh_ssh_bloch_hamiltonian,
                     param_derivative, plateau_complexity, ratio_R,
                     self_dual_constraint, ssh_complexity_closed, ssh_model,
                     winding_cross_product, winding_log_derivative)
from twoband.bounds_duality import ratio_complexity

PI = math.pi
CFG = BZQuadratureConfig()
TIGHT = BZQuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)

REFERENCES = [GlobalReference(0.5 * PI, PI), GlobalReference(0.5 * PI, 0.0),
              GlobalReference(PI / 3.0, PI / 4.0), GlobalReference(0.4 * PI, 1.6 * PI),
              GlobalReference(0.3, 2.0)]

GRID = np.linspace(0.5, 3.0, 10)
MU_SET = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
THETA_SET = (0.0, 0.25 * PI, PI / 3.0)


def _report(number, description, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_ssh_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for t1 in GRID:
        for t2 in GRID:
            if abs(t1 - t2) / (t1 + t2) < 1e-3:
                continue
            params = SSHParams(float(t1), float(t2))
            model = ssh_model(params)
            for ref in REFERENCES:
                diff = abs(ssh_complexity_closed(params, ref)
                           - ground_complexity(model, ref, CFG))
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report(1, "SSH closed form vs exact planar average on 10x10 grid, 5 references",
            worst <= 1e-8 and elapsed < 30.0,
            f"max|diff|={worst:.3e} tol=1e-08, runtime={elapsed:.1f}s < 30s")


def test_criterion_02_massive_dirac_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in MU_SET:
        params = MassiveDiracParams(mu=mu)
        model = massive_dirac_model(params)
        for theta in THETA_SET:
            diff = abs(md_complexity_closed(params, theta)
                       - ground_complexity(model, GlobalReference(theta, 0.0), CFG))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report(2, "massive-Dirac closed form vs exact planar average",
            worst <= 1e-8 and elapsed < 10.0,
            f"max|diff|={worst:.3e} tol=1e-08, runtime={elapsed:.1f}s < 10s")


def test_criterion_03_fidelity_closed_forms():
    worst_rel = 0.0
    worst_sum = 0.0
    for t1 in GRID:
        for t2 in GRID:
            if abs(t1 - t2) / (t1 + t2) < 1e-3:
                continue
            params = SSHParams(float(t1), float(t2))
            breakdown = chi_F(ssh_model(params), float(t2), CFG)
            closed = chi_F_ssh_closed(params)
            worst_rel = max(worst_rel, abs(breakdown.components[0] - closed) / closed)
            worst_sum = max(worst_sum, abs(breakdown.total - sum(breakdown.components)))
    for mu in MU_SET:
        params = MassiveDiracParams(mu=mu)
        breakdown = chi_F(massive_dirac_model(params), mu, CFG)
        worst_rel = max(worst_rel,
                        abs(breakdown.total - chi_F_md_closed(params)) / breakdown.total)
        worst_rel = max(worst_rel,
                        abs(breakdown.components[2] - chi_F_md_z_closed(params))
                        / breakdown.components[2])
        worst_sum = max(worst_sum, abs(breakdown.total - sum(breakdown.components)))
    _report(3, "susceptibility closed forms vs exact planar average + exact decomposition",
            worst_rel <= 1e-6 and worst_sum <= 1e-10,
            f"max rel={worst_rel:.3e} tol=1e-06, max|sum-total|={worst_sum:.1e} tol=1e-10")


def test_criterion_04_logarithmic_cusp_rate():
    # The derivative grows like Re(alpha* beta)/(pi t1) per e-fold of delta
    # (the criterion's stated constant carries a spurious factor 2 relative
    # to the asymptotic expansion it cites; the expansion value is used).
    ref = GlobalReference(0.5 * PI, PI)
    t1 = 1.0

    def deriv(delta):
        return param_derivative(
            lambda t2: ssh_complexity_closed(SSHParams(t1, t2), ref), t1 - delta, 1e-7)

    rate = abs(ref.re_alpha_beta) / (PI * t1)
    deltas = (1e-2, 1e-3, 1e-4, 1e-5)
    values = [deriv(d) for d in deltas]
    slopes = [(b - a) / math.log(10.0) for a, b in zip(values, values[1:])]
    errors = [abs(s - rate) / rate for s in slopes]
    passed = all(e <= 0.10 for e in errors) and errors[-1] < errors[0]
    _report(4, "SSH derivative log-growth rate per decade of delta",
            passed, f"slopes/ln10={[f'{s:.5f}' for s in slopes]}, "
                    f"expected {rate:.5f}, rel errors {[f'{e:.2%}' for e in errors]} tol=10%")


def test_criterion_05_massive_dirac_divergence_split():
    mu = 1e-2
    got_deriv = md_dC_dmu_analytic(MassiveDiracParams(mu=mu), 0.0)
    asym_deriv = (math.log(4.0 / mu) - 1.0) / PI
    rel_deriv = abs(got_deriv - asym_deriv) / asym_deriv
    got_chi = chi_F(massive_dirac_model(MassiveDiracParams(mu=mu)), mu, CFG).total
    asym_chi = 1.0 / (8.0 * mu)
    rel_chi = abs(got_chi - asym_chi) / asym_chi
    _report(5, "log vs power-law divergence rates at mu=1e-2",
            rel_deriv <= 0.02 and rel_chi <= 0.01,
            f"dC rel={rel_deriv:.2%} tol=2%, chi rel={rel_chi:.2%} tol=1%")


def test_criterion_06_bound_holds_on_sweeps():
    violations = []
    ssh = ssh_model(SSHParams(1.0, 1.0))
    ref = GlobalReference(0.5 * PI, PI)
    for lam in np.linspace(0.2, 2.6, 20):
        report = bound_check(ssh, ref, float(lam), CFG)
        if not report.satisfied:
            violations.append(("ssh", float(lam)))
    md = massive_dirac_model(MassiveDiracParams())
    ref_z = GlobalReference(0.0, 0.0)
    for lam in np.linspace(-2.0, 2.0, 20):
        report = bound_check(md, ref_z, float(lam), CFG)
        if not report.satisfied:
            violations.append(("massive-dirac", float(lam)))
    _report(6, "derivative-susceptibility bound on 20-point sweeps, both phases",
            not violations, f"violations={violations or 'none'} (slack tol 1e-9 relative)")


def test_criterion_07_ratio_saturation_and_symmetry():
    target = math.sqrt(2.0 / 3.0)
    ssh = ssh_model(SSHParams(1.0, 1.0))
    ref = GlobalReference(0.5 * PI, PI)
    md = massive_dirac_model(MassiveDiracParams())
    ref_z = GlobalReference(0.0, 0.0)
    sat_ssh = abs(ratio_R(ssh, ref, 50.0, TIGHT) - target)
    sat_md = abs(ratio_R(md, ref_z, 50.0, TIGHT) - target)
    sym = max(abs(ratio_R(ssh, ref, r, TIGHT) - ratio_R(ssh, ref, 1.0 / r, TIGHT))
              for r in (1.5, 3.0, 10.0))
    _report(7, "ratio saturates at sqrt(2/3) and is r <-> 1/r symmetric",
            sat_ssh <= 1e-3 and sat_md <= 1e-3 and sym <= 1e-8,
            f"|R-target|: ssh={sat_ssh:.1e}, md={sat_md:.1e} tol=1e-3; "
            f"max|R(r)-R(1/r)|={sym:.1e} tol=1e-8")


def test_criterion_08_duality_identities():
    ref = GlobalReference(0.5 * PI, PI)
    worst_fs = 0.0
    worst_c = 0.0
    for r in (0.2, 0.5, 2.0, 5.0):
        worst_fs = max(worst_fs, fs_duality_check(DualSSHParams(1.0, r), CFG)[2])
        worst_c = max(worst_c, complexity_duality_check(DualSSHParams(1.0, r), ref, CFG)[2])
    h_at_one = complexity_duality_offset(1.0, ref)
    c1 = ratio_complexity(1.0, ref)
    residuals = []
    for eps in (1e-2, 1e-3):
        residuals.append(max(abs(self_dual_constraint(DualSSHParams(1.0, 1.0 + s * eps), ref)[0] - c1)
                             for s in (+1, -1)))
    shrinking = residuals[1] < residuals[0]
    _report(8, "duality identities and self-dual constraint",
            worst_fs <= 1e-6 and worst_c <= 1e-7 and h_at_one == 0.0 and shrinking,
            f"fs resid={worst_fs:.1e} tol=1e-6, C resid={worst_c:.1e} tol=1e-7, "
            f"H(1)={h_at_one}, constraint residuals {residuals[0]:.1e} -> {residuals[1]:.1e}")


def test_criterion_09_winding_numbers():
    ok = winding_log_derivative(lambda k: 2.0 - 1.0 * np.exp(1j * k)) == 0
    ok &= winding_log_derivative(lambda k: 1.0 - 2.0 * np.exp(1j * k)) == 1
    worst_md = max(abs(winding_cross_product(massive_dirac_model(MassiveDiracParams(mu=mu))))
                   for mu in (-3.0, -0.5, 0.5, 3.0))
    sums_ok = all(sum(dual_windings(DualSSHParams(1.0, r))) == 1
                  for r in (0.3, 0.7, 1.5, 3.0))
    _report(9, "winding numbers: contour, planar, and dual pairs",
            ok and worst_md <= 1e-10 and sums_ok,
            f"contour (0,1) exact={bool(ok)}, max|planar MD|={worst_md:.1e} tol=1e-10, "
            f"dual sums=1: {sums_ok}")


def test_criterion_10_excited_state_closed_form_and_cusp():
    # k0 = 0 split: lower band on k <= 0, upper band above, which realizes
    # C = 1/2 + (cos(theta)/(2 pi t1)) (|t1-t2| - (t1+t2)).
    bands = BandAssignment.two_interval(0.0, -1, +1)
    worst = 0.0
    for t1, t2, th in ((1.0, 1.7, 0.7), (2.0, 0.5, 0.2), (1.3, 1.3, 1.0)):
        got = excited_piecewise_complexity(SSHParams(t1, t2), bands,
                                           GlobalReference(th, 0.3), CFG)
        worst = max(worst, abs(got - excited_split_closed(SSHParams(t1, t2), th)))
    bands_q = BandAssignment.two_interval(0.25 * PI, -1, +1)
    ref = GlobalReference(PI / 12.0, PI / 3.0)
    grid = np.linspace(0.5, 1.6, 45)
    curve = [(float(t2),
              excited_piecewise_complexity(SSHParams(1.0, float(t2)), bands_q, ref, CFG))
             for t2 in grid]
    cusps = detect_cusps(curve)
    spacing = float(grid[1] - grid[0])
    cusp_err = min(abs(c - 1.0) for c in cusps) if cusps else math.inf
    _report(10, "piecewise excited states: k0=0 closed form and k0=pi/4 cusp",
            worst <= 1e-8 and cusp_err <= spacing,
            f"max|diff|={worst:.1e} tol=1e-8; cusp offset={cusp_err:.3f} <= {spacing:.3f}")


def test_criterion_11_nonhermitian_cusps_and_reduction():
    amp = 1.0 / math.sqrt(2.0)
    grid = np.linspace(0.5, 4.0, 200)
    curve = [(float(t2),
              nh_ground_complexity(NonHermitianSSHParams(2.0, float(t2), 1.0), amp, amp, CFG))
             for t2 in grid]
    cusps = detect_cusps(curve)
    spacing = float(grid[1] - grid[0])
    err_low = min(abs(c - 1.5) for c in cusps) if cusps else math.inf
    err_high = min(abs(c - 2.5) for c in cusps) if cusps else math.inf
    hermitian = ground_complexity(ssh_model(SSHParams(2.0, 1.0)),
                                  GlobalReference(0.5 * PI, 0.0), CFG)
    reduction = abs(nh_ground_complexity(NonHermitianSSHParams(2.0, 1.0, 1e-6),
                                         amp, amp, CFG) - hermitian)
    _report(11, "lossy-chain PBC cusps and Hermitian reduction",
            err_low <= spacing and err_high <= spacing and reduction <= 1e-5,
            f"cusp offsets=({err_low:.4f}, {err_high:.4f}) <= {spacing:.4f}; "
            f"gamma->0 diff={reduction:.1e} tol=1e-5")


def test_criterion_12_plateau_reproduction():
    topo = [plateau_complexity(SSHParams(1.0, float(t2)), CFG)
            for t2 in np.linspace(1.2, 3.0, 8)]
    variation = max(topo) - min(topo)
    plateau_value_err = abs(topo[0] - (0.5 - 1.0 / PI))
    t2s = np.linspace(0.05, 0.95, 10)
    triv = np.array([plateau_complexity(SSHParams(1.0, float(t2)), CFG) for t2 in t2s])
    coeffs = np.polyfit(t2s, triv, 1)
    fitted = np.polyval(coeffs, t2s)
    ss_res = float(np.sum((triv - fitted) ** 2))
    ss_tot = float(np.sum((triv - np.mean(triv)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    _report(12, "plateau constant above transition, linear below",
            variation < 1e-8 and r_squared > 1.0 - 1e-10 and plateau_value_err < 1e-8,
            f"plateau variation={variation:.1e} tol=1e-8, value=1/2-1/pi "
            f"(err {plateau_value_err:.1e}), R^2={r_squared:.12f} > 1-1e-10")


def test_criterion_13_randomized_property_suites():
    rng = np.random.default_rng(2026)
    cases = 1000

    elliptic_ok = True
    for _ in range(cases):
        m = float(rng.uniform(0.0, 1.0 - 1e-9))
        k_val, e_val = complete_K(m), complete_E(m)
        elliptic_ok &= e_val <= 0.5 * PI + 1e-15 <= k_val + 1e-15
        m2 = float(rng.uniform(m + 1e-9, 1.0 - 1e-9)) if m < 1.0 - 2e-9 else m
        if m2 > m:
            elliptic_ok &= complete_K(m2) > k_val and complete_E(m2) < e_val
        phi = float(rng.uniform(0.05, 0.5 * PI))
        elliptic_ok &= incomplete_E(phi, max(m, 0.01)) > incomplete_E(phi - 0.04, max(m, 0.01))

    bloch_ok = True
    for _ in range(cases):
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        n1 = BlochVector.from_array(v1)
        n2 = BlochVector.from_array(v2)
        c = complexity_per_mode(n1, n2)
        bloch_ok &= 0.0 <= c <= 1.0
        bloch_ok &= abs(complexity_per_mode(-n1, n2) - (1.0 - c)) <= 1e-12
        d = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        g = ground_state_bloch(d).as_array()
        bloch_ok &= abs(float(g @ g) - 1.0) <= 1e-12

    biortho_ok = True
    produced = 0
    while produced < cases:
        t1, t2 = rng.uniform(0.4, 3.0, size=2)
        gamma = rng.uniform(-1.5, 1.5)
        k = float(rng.uniform(-PI, PI))
        params = NonHermitianSSHParams(float(t1), float(t2), float(gamma))
        h = nh_ssh_bloch_hamiltonian(params, k)
        r1, r3 = h[0, 1], h[0, 0]
        if abs(r1 * r1 + r3 * r3) < 1e-6:  # skip near-exceptional samples
            continue
        pair = biorthogonal_ground(h)
        biortho_ok &= abs(pair.pairing() - 1.0) <= 1e-10
        z = rng.normal(size=4)
        alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        basis = bikrylov_basis(alpha / norm, beta / norm)
        gram = np.array([[basis.left0 @ basis.right0, basis.left0 @ basis.right1],
                         [basis.left1 @ basis.right0, basis.left1 @ basis.right1]])
        biortho_ok &= float(np.max(np.abs(gram - np.eye(2)))) <= 1e-10
        produced += 1

    _report(13, "randomized property suites (1000 cases each)",
            bool(elliptic_ok and bloch_ok and biortho_ok),
            f"elliptic={bool(elliptic_ok)}, bloch={bool(bloch_ok)}, "
            f"biorthogonal={bool(biortho_ok)}")
