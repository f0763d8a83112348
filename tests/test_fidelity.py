"""Fidelity-susceptibility tests: per-mode oracles, closed forms, divergences."""

import math

import numpy as np
import pytest

from twoband import (BlochVector, BZQuadratureConfig, ConvergenceError, DomainError,
                     GapClosedError, GlobalReference, MassiveDiracParams,
                     PiecewiseBlochReference, SSHParams, SusceptibilityBreakdown, chi_F,
                     chi_F_md_closed, chi_F_md_z_closed, chi_F_per_mode,
                     chi_F_per_mode_projector, chi_F_ssh_closed, ground_complexity,
                     massive_dirac_model, ssh_model)
from twoband.fidelity import _bloch_averages, _engine_averages, dhat_derivative
from twoband.models import MODELS, TwoBandModel

from conftest import rows_of

PI = math.pi


def _normalize_then_differentiate(d, dd, step=1e-7):
    """Third oracle: finite-difference the normalized vector directly."""
    d = np.asarray(d, dtype=float)
    dd = np.asarray(dd, dtype=float)

    def unit(v):
        return v / np.linalg.norm(v)

    return (unit(d + step * dd) - unit(d - step * dd)) / (2.0 * step)


class TestPerMode:
    def test_radial_change_gives_zero(self):
        d = np.array([1.0, 2.0, -0.5])
        assert chi_F_per_mode(d, 3.0 * d) == pytest.approx(0.0, abs=1e-18)

    def test_massive_dirac_value_at_quarter_period(self):
        # mu = 1, k = pi/2: per-mode value sin^2 k / (4 (sin^2 k + mu^2)^2) = 1/16
        d = np.array([1.0, 0.0, 1.0])
        dd = np.array([0.0, 0.0, 1.0])
        assert chi_F_per_mode(d, dd) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_projector_oracle_agreement(self):
        d = np.array([0.4, -1.1, 0.7])
        dd = np.array([0.3, 0.9, -2.0])
        assert chi_F_per_mode(d, dd) == pytest.approx(
            chi_F_per_mode_projector(d, dd), abs=1e-7)

    def test_oracle_triangle_on_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.normal(size=3)
            d *= rng.uniform(0.1, 10.0) / np.linalg.norm(d)
            dd = rng.normal(size=3) * rng.uniform(0.1, 10.0)
            transverse = chi_F_per_mode(d, dd)
            projector = chi_F_per_mode_projector(d, dd)
            direct = _normalize_then_differentiate(d, dd)
            direct_value = 0.25 * float(direct @ direct)
            scale = max(1.0, transverse)
            assert abs(transverse - projector) <= 1e-7 * scale
            assert abs(transverse - direct_value) <= 1e-7 * scale

    def test_k_axis_broadcasts_and_raises_on_a_gap(self):
        model = ssh_model(SSHParams(1.0, 1.0))
        ks = np.array([-2.0, 0.3, 1.7])
        v = dhat_derivative(model.d(ks), model.d_deriv(ks))
        assert v.shape == (3, 3)
        for i, k in enumerate(ks):
            single = dhat_derivative(model.d(k), model.d_deriv(k))
            assert v[:, i] == pytest.approx(single, abs=1e-15)
        with_gap = np.array([-2.0, 0.0, 0.3])
        with pytest.raises(GapClosedError):
            dhat_derivative(model.d(with_gap), model.d_deriv(with_gap))

    def test_gap_closed(self):
        with pytest.raises(GapClosedError):
            chi_F_per_mode(np.zeros(3), np.ones(3))
        with pytest.raises(GapClosedError):
            dhat_derivative(np.zeros(3), np.ones(3))
        with pytest.raises(GapClosedError):  # the projector oracle's own check
            chi_F_per_mode_projector([0.0, 0.0, 0.0], [0.0, 0.0, 1e-9])


class TestBZAveraged:
    def test_massive_dirac_total_at_mu_one(self):
        got = chi_F(massive_dirac_model(MassiveDiracParams(mu=1.0)), 1.0)
        assert not got.diverged
        assert got.total == pytest.approx(1.0 / (8.0 * 2.0 ** 1.5), rel=1e-10)

    def test_massive_dirac_z_component_at_mu_one(self):
        got = chi_F(massive_dirac_model(MassiveDiracParams(mu=1.0)), 1.0)
        assert got.components[2] == pytest.approx(3.0 / (32.0 * 2.0 ** 2.5), rel=1e-10)

    def test_parameter_independent_model_gives_zero(self):
        # d = (2 + cos k, 0, sin k) at every lambda
        rows = lambda lam: ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        model = TwoBandModel(rows, lambda lam: ((0.0,) * 3,) * 3, 1.0, label="static")
        got = chi_F(model, 1.0)
        assert got.total == 0.0
        assert got.components == (0.0, 0.0, 0.0)

    def test_components_sum_to_total(self):
        got = chi_F(ssh_model(SSHParams(1.0, 1.6)), 1.6)
        assert got.total == pytest.approx(sum(got.components), abs=1e-10)

    def test_total_matches_independent_single_quadrature(self):
        from scipy.integrate import quad
        model = ssh_model(SSHParams(1.0, 1.6))

        def integrand(k):
            v = dhat_derivative(model.d(k), model.d_deriv(k))
            return 0.25 * float(v @ v)

        ref, _ = quad(integrand, -PI, PI, points=[0.0], limit=500,
                      epsabs=1e-12, epsrel=1e-12)
        assert chi_F(model, 1.6).total == pytest.approx(ref / (2.0 * PI), abs=1e-8)

    def test_divergence_is_flagged_not_raised(self):
        cfg = BZQuadratureConfig(max_subdivisions=300)
        got = chi_F(ssh_model(SSHParams(1.0, 1.0)), 1.0, cfg)
        assert got.diverged
        assert got.total > 1e8

    def test_exhausted_budget_is_flagged_with_a_finite_estimate(self, skew):
        got = chi_F(MODELS[skew].model({}), 2.0, BZQuadratureConfig(max_subdivisions=2))
        assert got.diverged
        assert math.isfinite(got.total) and all(math.isfinite(c) for c in got.components)
        assert got.total == pytest.approx(sum(got.components), rel=1e-12)

    def test_exhausted_budget_raises_without_chi(self, skew):
        # only chi keeps an unconverged estimate, flagged; C alone has no flag to carry it
        with pytest.raises(ConvergenceError):
            ground_complexity(MODELS[skew].model({}), GlobalReference(0.9, 0.4),
                              BZQuadratureConfig(max_subdivisions=2))

    def test_a_non_finite_error_raises_though_chi_is_asked(self, calls):
        # a NaN slope row makes v NaN at every node: the exact path declines the row, and the
        # engine's error is NaN, a numerical failure, not a diverged chi (it was flagged
        # diverged, its NaN components read as inf)
        base = ssh_model(SSHParams(1.0, 2.0))
        model = TwoBandModel(base.rows, lambda lam: ((math.nan, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3),
                             2.0, rotated=True)
        for asked in (dict(chi=True), dict(derivative=True, chi=True)):
            with pytest.raises(ConvergenceError, match="to a finite error") as info:
                _bloch_averages(model, [2.0], GlobalReference(0.9, 0.4), None, **asked)
            assert not np.isfinite(info.value.error).any()
        assert calls["bz_averages"] == 2

    def test_the_engine_kernel_raises_where_d_vanishes(self, calls):
        # a row that is 0 at every k is declined by the exact path and meets |d| = 0 in the engine
        zero = lambda lam: ((0.0,) * 3,) * 3
        with pytest.raises(GapClosedError, match=r"\|d\| = 0"):
            ground_complexity(TwoBandModel(zero, zero, 0.0), GlobalReference(0.9, 0.4))
        assert calls["bz_averages"] == 1

    @pytest.mark.parametrize("delta", [1e-10, 1e-12])
    def test_finite_beside_the_transition_however_large(self, delta):
        # c^2 (a - |D|) / (4 b^2 |D|) for |d|^2 = a - b cos k and the
        # numerator c sin k of d(phase)/d(t2); |D| = |t2^2 - t1^2| is formed
        # from the exact difference t2 - t1
        t1, t2 = 1.0, 1.0 + delta
        a, b, c = t1 * t1 + t2 * t2, 2.0 * t1 * t2, t1
        gap = abs(t2 - t1) * (t1 + t2)
        want = c * c * (a - gap) / (4.0 * b * b * gap)
        got = chi_F(ssh_model(SSHParams(t1, t2)), t2)
        assert not got.diverged
        assert got.total == pytest.approx(want, rel=1e-6)

    def test_closed_gap_is_inf_without_averaging(self, monkeypatch):
        import twoband.fidelity as fidelity

        def fail(*args, **kwargs):
            raise AssertionError("an average ran on a closed gap")

        monkeypatch.setattr(fidelity, "bz_averages", fail)
        got = chi_F(ssh_model(SSHParams(1.0, 2.0)), 1.0)
        assert got.diverged
        assert got.total == math.inf and got.components == (math.inf,) * 3

    def test_a_closed_engine_row_is_closed_by_bloch_averages(self, calls):
        # ssh at t1 = t2 under a jump at k = 1, off the zeros' line, takes the engine: its
        # record is the plain average, the zeroed v giving dC and chi 0, and _bloch_averages
        # makes the closed record, the same as for the row the exact path takes
        model = ssh_model(SSHParams(1.0, 1.0))
        split = PiecewiseBlochReference(((-PI, 1.0, BlochVector(0.0, 0.0, 1.0)),
                                         (1.0, PI, BlochVector(0.0, 0.0, -1.0))))
        asked = dict(complexity=True, derivative=True, chi=True)
        (engine,) = rows_of(_engine_averages(model, [1.0], split, None, **asked))
        (c_only,) = rows_of(_engine_averages(model, [1.0], split, None, complexity=True))
        assert not engine.closed and engine.complexity == c_only.complexity
        assert engine.dcomplexity == 0.0 and engine.chi.components == (0.0, 0.0, 0.0)
        (closed,) = rows_of(_bloch_averages(model, [1.0], split, None, **asked))
        assert closed == (engine.complexity, None, None,
                          SusceptibilityBreakdown(math.inf, (math.inf,) * 3, True), True, None)
        assert calls["bz_averages"] == 3
        (exact,) = rows_of(_bloch_averages(model, [1.0], GlobalReference(0.9, 0.4), None,
                                           **asked))
        assert exact[1:] == closed[1:] and calls["bz_averages"] == 3

    def test_the_winding_comes_from_the_averages_own_zeros(self, calls, monkeypatch):
        # one zeros record per call gives the winding, NaN on the closed row t2 = t1; asked
        # alone it runs no average, and beside chi it leaves the other fields as they were
        model, lams = ssh_model(SSHParams(1.0, 2.0)), [0.5, 1.0, 2.0]
        records, zeros = [], TwoBandModel.zeros
        monkeypatch.setattr(TwoBandModel, "zeros",
                            lambda self, at: records.append(at) or zeros(self, at))
        alone = rows_of(_bloch_averages(model, lams, None, None, winding=True))
        both = rows_of(_bloch_averages(model, lams, None, None, chi=True, winding=True))
        chi = rows_of(_bloch_averages(model, lams, None, None, chi=True))
        assert len(records) == 3 and calls["bz_averages"] == 0
        want = [0.0, math.nan, 1.0]
        for got in (alone, both):
            np.testing.assert_array_equal([avg.winding for avg in got], want)
        assert [avg.closed for avg in alone] == [False, True, False]
        assert all(avg[:4] == (None,) * 4 for avg in alone)
        assert [avg[:5] for avg in both] == [avg[:5] for avg in chi]
        assert [avg.winding for avg in chi] == [None] * 3


class TestSSHClosedForm:
    def test_trivial_side_value(self):
        assert chi_F_ssh_closed(SSHParams(2.0, 1.0)) == pytest.approx(1.0 / 128.0, abs=1e-16)

    def test_topological_side_value(self):
        assert chi_F_ssh_closed(SSHParams(1.0, 2.0)) == pytest.approx(1.0 / 128.0, abs=1e-16)

    def test_matches_x_component_quadrature(self):
        for t1, t2 in ((2.0, 1.0), (1.0, 2.0), (1.3, 2.2), (0.8, 0.5)):
            got = chi_F(ssh_model(SSHParams(t1, t2)), t2).components[0]
            assert got == pytest.approx(chi_F_ssh_closed(SSHParams(t1, t2)), rel=1e-6)

    def test_divergence_scan(self):
        near = chi_F_ssh_closed(SSHParams(1.0, 1.0 - 1e-3))
        far = chi_F_ssh_closed(SSHParams(1.0, 1.0 - 1e-2))
        assert near / far == pytest.approx(10.0, rel=0.05)

    def test_power_law_rate_contrasts_with_log_rate(self):
        # chi * |delta| settles to a constant (1/|delta| law), while the
        # complexity derivative over ln(1/|delta|) settles to its own
        # constant (logarithmic law): the susceptibility diverges faster.
        products = [chi_F_ssh_closed(SSHParams(1.0, 1.0 - d)) * d
                    for d in (1e-2, 1e-3, 1e-4)]
        assert products[1] == pytest.approx(products[2], rel=1e-2)
        assert abs(products[2] - products[1]) < abs(products[1] - products[0])
        from twoband import GlobalReference, md_dC_dmu_analytic
        from twoband.models import MassiveDiracParams as MDP
        log_ratios = [md_dC_dmu_analytic(MDP(mu=d), 0.0) / math.log(1.0 / d)
                      for d in (1e-2, 1e-3, 1e-4)]
        assert log_ratios[1] == pytest.approx(log_ratios[2], rel=0.05)
        for d in (1e-2, 1e-3, 1e-4):
            chi = chi_F_md_closed(MDP(mu=d))
            deriv = md_dC_dmu_analytic(MDP(mu=d), 0.0)
            assert chi / deriv > 1.0  # power law outruns the logarithm
        ratios = [chi_F_md_closed(MDP(mu=d)) / md_dC_dmu_analytic(MDP(mu=d), 0.0)
                  for d in (1e-2, 1e-3, 1e-4)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_rejects_equal_couplings(self):
        with pytest.raises(DomainError):
            chi_F_ssh_closed(SSHParams(1.0, 1.0))


class TestMassiveDiracClosedForm:
    def test_value_at_mu_one(self):
        assert chi_F_md_closed(MassiveDiracParams(mu=1.0)) == pytest.approx(
            1.0 / (8.0 * 2.0 ** 1.5), abs=1e-16)

    def test_small_mass_dominated_by_inverse_mu(self):
        got = chi_F_md_closed(MassiveDiracParams(mu=0.01))
        assert got == pytest.approx(12.5, rel=2e-4)

    def test_large_mass_value(self):
        assert chi_F_md_closed(MassiveDiracParams(mu=10.0)) == pytest.approx(
            1.0 / (80.0 * 101.0 ** 1.5), abs=1e-16)

    def test_z_component_closed_form_matches_quadrature(self):
        for mu in (0.3, 1.0, 2.5):
            got = chi_F(massive_dirac_model(MassiveDiracParams(mu=mu)), mu).components[2]
            assert got == pytest.approx(chi_F_md_z_closed(MassiveDiracParams(mu=mu)), rel=1e-6)

    def test_total_closed_form_matches_quadrature(self):
        for mu in (0.01, 0.1, 1.0, 10.0):
            got = chi_F(massive_dirac_model(MassiveDiracParams(mu=mu)), mu).total
            assert got == pytest.approx(chi_F_md_closed(MassiveDiracParams(mu=mu)), rel=1e-6)

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            chi_F_md_closed(MassiveDiracParams(mu=0.0))
        with pytest.raises(DomainError):
            chi_F_md_z_closed(MassiveDiracParams(mu=0.0))
