"""Bound, saturation ratio, and duality-identity tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoband import (BZQuadratureConfig, DomainError, DualSSHParams, GapClosedError,
                     GlobalReference, MassiveDiracParams, SSHParams, SweepSpec,
                     UndefinedRatioError, bound_check, chi_F, chi_F_md_closed,
                     complexity_derivative,
                     complexity_duality_check,
                     complexity_duality_offset, fs_duality_check,
                     ground_complexity, massive_dirac_model, md_complexity_closed,
                     md_dC_dmu_analytic, ratio_R,
                     plateau_reference, reference_coefficients, run_sweep,
                     self_dual_constraint, ssh_model)
from twoband.bloch import BlochVector, canonical_angles
from twoband.bounds_duality import (complexity_duality_offset_prime, ratio_complexity,
                                    ratio_complexity_prime)
from twoband.fidelity import _engine_averages
from twoband import models
from twoband.models import MODELS, TwoBandModel
from twoband.quadrature import param_derivative

from conftest import rows_of

PI = math.pi
TIGHT = BZQuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)

# off the self-dual point r = 1, where both identities degenerate
couplings = st.floats(min_value=0.5, max_value=2.0)
ratios = st.one_of(st.floats(min_value=0.2, max_value=0.9), st.floats(min_value=1.1, max_value=5.0))
references = st.builds(GlobalReference, st.floats(min_value=0.0, max_value=PI),
                       st.floats(min_value=0.0, max_value=2.0 * PI))

_HERMITIAN_PARAMETERS = [(name, parameter) for name, entry in MODELS.items()
                         if entry.hermitian for parameter in entry.parameters]


class TestReferenceCoefficients:
    def test_x_axis(self):
        q = reference_coefficients(GlobalReference(0.5 * PI, 0.0))
        assert q == pytest.approx([1.0 / (4.0 * PI), 0.0, 0.0], abs=1e-16)

    def test_z_axis(self):
        q = reference_coefficients(GlobalReference(0.0, 0.0))
        assert q == pytest.approx([0.0, 0.0, 1.0 / (4.0 * PI)], abs=1e-16)

    def test_y_axis(self):
        q = reference_coefficients(GlobalReference(0.5 * PI, 0.5 * PI))
        assert q == pytest.approx([0.0, 1.0 / (4.0 * PI), 0.0], abs=1e-16)

    def test_cached_values_equal_the_formulas_bit_for_bit(self):
        # both are computed once per reference; each must equal its formula on the angles
        rng = np.random.default_rng(7)
        angles = [*zip(rng.uniform(-7.0, 7.0, 500), rng.uniform(-7.0, 7.0, 500)),
                  (0.5 * PI, 0.5 * PI), (0.5 * PI, 1.5 * PI), (0.0, 0.3), (PI, 0.0)]
        for theta, phi in angles:
            ref = GlobalReference(theta, phi)
            th, ph = canonical_angles(theta, phi)
            value = 0.5 * math.sin(th) * math.cos(ph)
            assert ref.re_alpha_beta == (0.0 if abs(value) < 1e-15 else value)
            q = reference_coefficients(ref)
            assert q.tobytes() == (BlochVector.from_angles(th, ph).as_array()
                                   / (4.0 * PI)).tobytes()
            q[:] = 0.0  # the caller's copy: the reference keeps its own
            assert reference_coefficients(ref).tobytes() != q.tobytes()
        assert GlobalReference(0.5 * PI, 0.5 * PI).re_alpha_beta == 0.0


def _dcomplexity_row(model, parameter, lam, ref, fixed=None):
    """The sweep's dcomplexity at lam, from a two-point sweep starting there."""
    spec = SweepSpec(model=model, sweep=(parameter, lam, lam + 0.25, 2), fixed=fixed or {},
                     reference=ref, quantities=("dcomplexity",))
    return run_sweep(spec)[0].values["dcomplexity"]


class TestBoundCheck:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_a_domain_error(self, lam):
        # a NaN lambda reported satisfied=True with lhs NaN
        model, ref = ssh_model(SSHParams(1.0, 2.0)), GlobalReference(0.9, 0.4)
        for call in (lambda: bound_check(model, ref, lam), lambda: ratio_R(model, ref, lam),
                     lambda: complexity_derivative(model, ref, lam),
                     lambda: chi_F(model, lam), lambda: ground_complexity(model.at(lam), ref)):
            with pytest.raises(DomainError, match="finite"):
                call()

    def test_ssh_topological_point(self):
        report = bound_check(ssh_model(SSHParams(1.0, 3.0)),
                             GlobalReference(0.5 * PI, PI), 3.0)
        assert report.satisfied
        assert 0.0 < report.lhs < report.rhs

    def test_massive_dirac_point(self):
        report = bound_check(massive_dirac_model(MassiveDiracParams(mu=2.0)),
                             GlobalReference(0.0, 0.0), 2.0)
        assert report.satisfied

    def test_static_model_saturates_trivially(self):
        # d = (2 + cos k, 0, sin k) at every lambda
        rows = lambda lam: ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        model = TwoBandModel(rows, lambda lam: ((0.0,) * 3,) * 3, 0.0, label="static")
        report = bound_check(model, GlobalReference(0.8, 0.3), 0.0)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.satisfied
        assert math.isnan(report.ratio)

    def test_sweeps_hold_in_both_phases(self):
        ssh = ssh_model(SSHParams(1.0, 1.0))
        ref = GlobalReference(0.5 * PI, PI)
        for lam in np.linspace(0.2, 2.6, 20):
            if abs(lam - 1.0) < 5e-2:
                continue
            assert bound_check(ssh, ref, float(lam)).satisfied
        md = massive_dirac_model(MassiveDiracParams())
        ref_z = GlobalReference(0.0, 0.0)
        for lam in np.linspace(-2.0, 2.0, 20):
            if abs(lam) < 6e-2:
                continue
            assert bound_check(md, ref_z, float(lam)).satisfied

    def test_divergent_susceptibility_is_trivially_satisfied(self):
        cfg = BZQuadratureConfig(max_subdivisions=200)
        report = bound_check(ssh_model(SSHParams(1.0, 1.0)),
                             GlobalReference(0.5 * PI, PI), 1.0, cfg)
        assert math.isinf(report.rhs) and math.isnan(report.lhs)
        assert report.satisfied

    @pytest.mark.parametrize("name,parameter", _HERMITIAN_PARAMETERS)
    def test_lhs_is_the_finite_difference_of_the_complexity(self, name, parameter, calls):
        model = MODELS[name].model({}, parameter)
        ref = GlobalReference(0.9, 0.4)
        for lam in (model.lam, 1.3 * model.lam + 0.1):
            fd = param_derivative(lambda x: ground_complexity(model.at(x), ref), lam)
            assert bound_check(model, ref, lam).lhs == pytest.approx(abs(fd), abs=1e-9)
            # the sweep column is the same geometric derivative, with its sign
            assert _dcomplexity_row(name, parameter, lam, ref) == pytest.approx(fd, abs=1e-9)
        assert calls["param_derivative"] == 0

    @pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6, -1e-4, -1e-5, -1e-6])
    def test_lhs_near_the_transition_matches_the_closed_form(self, delta):
        ref = GlobalReference(0.5 * PI, PI)
        report = bound_check(ssh_model(SSHParams(1.0, 1.0)), ref, 1.0 + delta)
        assert report.lhs == pytest.approx(abs(ratio_complexity_prime(1.0 + delta, ref)),
                                           rel=1e-5)
        assert report.satisfied

    @pytest.mark.parametrize("delta", [1e-10, 1e-12])
    def test_holds_beside_the_transition_where_chi_is_huge(self, delta):
        ref = GlobalReference(0.9, 0.4)
        t2 = 1.0 + delta
        report = bound_check(ssh_model(SSHParams(1.0, t2)), ref, t2)
        assert report.satisfied and math.isfinite(report.rhs)
        assert report.lhs == pytest.approx(abs(ratio_complexity_prime(t2, ref)), rel=1e-8)

    def test_gapped_point_runs_one_average_and_no_finite_difference(self, calls, skew):
        bound_check(MODELS[skew].model({}), GlobalReference(0.9, 0.4), 2.0)
        assert calls == {"bz_averages": 1, "averages": 1}

    def test_divergent_point_runs_no_average(self, calls):
        bound_check(ssh_model(SSHParams(1.0, 1.0)), GlobalReference(0.9, 0.4), 1.0,
                    BZQuadratureConfig(max_subdivisions=200))
        assert calls == {}

    @pytest.mark.parametrize("quantities,ref", [
        (("complexity", "dcomplexity", "chi_f", "chi_f_components", "bound", "ratio"),
         GlobalReference(0.9, 0.4)),
        (("chi_f",), GlobalReference(0.9, 0.4)),
        (("complexity", "dcomplexity"), GlobalReference(0.9, 0.4)),
        (("complexity", "chi_f"), GlobalReference(0.9, 0.4)),
        (("complexity", "dcomplexity"), plateau_reference()),
        (("complexity", "dcomplexity", "bound"), GlobalReference(0.3, 1.4)),
    ])
    def test_sweep_point_shares_its_averages(self, calls, skew, quantities, ref):
        spec = SweepSpec(model=skew, sweep=("lam", 1.5, 2.0, 2), reference=ref,
                         quantities=quantities)
        run_sweep(spec)
        # one run of the engine, in which each row owns one average
        assert calls == {"bz_averages": 1, "averages": 2}

    def test_gapped_ratio_runs_one_average(self, calls, skew):
        ratio_R(MODELS[skew].model({}), GlobalReference(0.9, 0.4), 2.0)
        assert calls == {"bz_averages": 1, "averages": 1}

    def test_closed_gap_row_runs_only_the_complexity_and_its_stencil(self, calls, skew):
        spec = SweepSpec(model=skew, sweep=("lam", 0.5, 1.5, 3),
                         reference=GlobalReference(0.9, 0.4),
                         quantities=("complexity", "dcomplexity", "chi_f", "chi_f_components",
                                     "bound", "ratio"))
        gap = run_sweep(spec)[1]
        # one average per row in one run, the closed row's of C alone; the four
        # points of the stencil on the gap in one more
        assert calls == {"bz_averages": 2, "averages": 3 + 4, "param_derivative": 1}
        assert gap.flags == {"diverged"} and gap.values["chi_f"] == math.inf
        assert math.isfinite(gap.values["dcomplexity"]) and math.isnan(gap.values["bound_lhs"])

    def test_closed_gap_complexity_shares_the_main_run(self, calls, skew):
        ref = GlobalReference(0.9, 0.4)
        spec = SweepSpec(model=skew, sweep=("lam", 0.5, 1.5, 3), reference=ref,
                         quantities=("complexity", "chi_f"))
        gap = run_sweep(spec)[1]
        assert calls == {"bz_averages": 1, "averages": 3}
        # the closed row's zeroed chi group leaves its C that of the C-only average
        assert gap.values["complexity"] == ground_complexity(MODELS[skew].model({}).at(1.0), ref)
        assert gap.values["chi_f"] == math.inf and gap.flags == {"diverged"}

    def test_closed_gap_row_averages_the_c_of_a_c_only_sweep(self):
        # the closed row t2 = t1 averages C alone, with v = 0 on its nodes
        ref, quantities = GlobalReference(0.9, 0.4), ("complexity", "chi_f")
        through = run_sweep(SweepSpec("ssh", ("t2", 0.5, 1.5, 3), {"t1": 1.0}, ref, quantities))
        beside = run_sweep(SweepSpec("ssh", ("t2", 0.5, 1.5, 2), {"t1": 1.0}, ref, quantities))
        alone = run_sweep(SweepSpec("ssh", ("t2", 0.5, 1.5, 3), {"t1": 1.0}, ref))
        assert [through[0], through[2]] == beside
        assert through[1].values["complexity"] == alone[1].values["complexity"]

    def test_closed_gap_row_evaluates_no_singular_gaps_twice(self, calls, monkeypatch, skew):
        # every lambda's zeros, and so its singular gaps, come from one contour_zeros call;
        # the skew rows' a_x = -lam cos 0.3 names the lambda
        seen, contour_zeros = [], models.contour_zeros

        def recorded(rows, n):
            seen.extend((rows[0][0] * np.ones(n)).tolist())
            return contour_zeros(rows, n)

        monkeypatch.setattr(models, "contour_zeros", recorded)
        spec = SweepSpec(model=skew, sweep=("lam", 0.5, 1.5, 3),
                         reference=GlobalReference(0.9, 0.4),
                         quantities=("complexity", "dcomplexity"))
        gap = run_sweep(spec)[1]
        assert calls == {"bz_averages": 2, "averages": 3 + 4, "param_derivative": 1}
        assert len(seen) == len(set(seen)) == 3 + 4
        assert math.isfinite(gap.values["complexity"]) and math.isfinite(gap.values["dcomplexity"])

    def test_complexity_average_never_differentiates_the_model(self, monkeypatch):
        def fail(self, k):
            raise AssertionError("d_deriv was evaluated for the complexity alone")

        monkeypatch.setattr(TwoBandModel, "d_deriv", fail)
        model, ref = ssh_model(SSHParams(1.0, 2.0)), GlobalReference(0.9, 0.4)
        assert ground_complexity(model, ref) == pytest.approx(
            ratio_complexity(2.0, ref), abs=1e-12)
        ground_complexity(model, plateau_reference())
        spec = SweepSpec(model="massive-dirac", sweep=("mu", -1.0, 1.0, 3), reference=ref)
        assert all(math.isfinite(rec.values["complexity"]) for rec in run_sweep(spec))

    def test_exhausted_budget_keeps_one_average_estimates(self, calls):
        # beside mu = 0 the massive-Dirac engine average exhausts its budget on panels
        # at k = +-pi; the row keeps the estimates of its one average
        ref = GlobalReference(0.9, 0.4)
        row = rows_of(_engine_averages(massive_dirac_model(MassiveDiracParams()), [1e-10, 1.0],
                                       ref, None, chi=True, derivative=True))[0]
        assert calls == {"bz_averages": 1, "averages": 2}
        params = MassiveDiracParams(mu=1e-10)
        assert row.chi.total == pytest.approx(chi_F_md_closed(params), rel=1e-8)
        assert row.dcomplexity == pytest.approx(md_dC_dmu_analytic(params, ref.theta), abs=1e-9)

    def test_exhausted_budget_row_keeps_the_complexity_of_its_average(self, calls):
        # C shares the engine average whose budget runs out; it still meets the
        # closed form and the C-only average to the quadrature tolerance
        ref = GlobalReference(0.9, 0.4)
        c = rows_of(_engine_averages(massive_dirac_model(MassiveDiracParams()), [1e-10, 1.0],
                                     ref, None, complexity=True, chi=True))[0].complexity
        assert calls == {"bz_averages": 1, "averages": 2}
        params = MassiveDiracParams(mu=1e-10)
        assert c == pytest.approx(md_complexity_closed(params, ref.theta), rel=1e-10)
        assert c == pytest.approx(ground_complexity(massive_dirac_model(params), ref), rel=1e-10)

    def test_divergent_point_has_nan_ratio_without_integrating(self, monkeypatch):
        import twoband.fidelity as fidelity

        def fail(*args, **kwargs):
            raise AssertionError("an average ran on a closed gap")

        # every Hermitian point average runs through the fidelity module's binding
        monkeypatch.setattr(fidelity, "bz_averages", fail)
        model, ref = ssh_model(SSHParams(1.0, 1.0)), GlobalReference(0.5 * PI, PI)
        report = bound_check(model, ref, 1.0)
        assert math.isinf(report.rhs) and math.isnan(report.ratio)
        assert math.isnan(ratio_R(model, ref, 1.0))

    def test_piecewise_reference_is_rejected_before_any_average(self, calls):
        model = ssh_model(SSHParams(1.0, 2.0))
        for check in (bound_check, ratio_R):
            with pytest.raises(DomainError):
                check(model, plateau_reference(), 2.0)
        assert calls["bz_averages"] == 0

    def test_report_ratio_equals_ratio_R(self):
        model, ref = ssh_model(SSHParams(1.0, 2.0)), GlobalReference(0.9, 0.4)
        assert bound_check(model, ref, 2.0).ratio == ratio_R(model, ref, 2.0)


class TestGeometricDcomplexity:
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, -1e-2, -1e-4, -1e-6])
    def test_sweep_matches_the_closed_forms_near_each_transition(self, delta):
        ref = GlobalReference(0.9, 0.4)
        for model, parameter, lam, fixed, want in (
            ("ssh", "t2", 1.0 + delta, {"t1": 1.0}, ratio_complexity_prime(1.0 + delta, ref)),
            ("dual-ssh", "r", 1.0 + delta, {}, ratio_complexity_prime(1.0 + delta, ref)),
            ("massive-dirac", "mu", delta, {},
             md_dC_dmu_analytic(MassiveDiracParams(mu=delta), ref.theta)),
        ):
            got = _dcomplexity_row(model, parameter, lam, ref, fixed)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("t2,want", [(0.5, -1.0 / PI), (0.8, -1.0 / PI),
                                         (1.2, 0.0), (2.0, 0.0)])
    def test_plateau_reference(self, t2, want):
        got = _dcomplexity_row("ssh", "t2", t2, plateau_reference(), {"t1": 1.0})
        assert got == pytest.approx(want, abs=1e-14)

    def test_exact_transition_row_keeps_a_finite_difference(self, calls):
        ref = GlobalReference(0.9, 0.4)
        spec = SweepSpec(model="ssh", sweep=("t2", 0.5, 1.5, 3), fixed={"t1": 1.0},
                         reference=ref, quantities=("dcomplexity", "chi_f"))
        gap = run_sweep(spec)[1]
        assert calls["param_derivative"] == 1
        model = ssh_model(SSHParams(1.0, 1.0))
        fd = param_derivative(lambda x: ground_complexity(model.at(x), ref), 1.0)
        assert gap.values["dcomplexity"] == fd and math.isfinite(fd)
        assert gap.values["chi_f"] == math.inf and gap.flags == {"diverged"}

    def test_closed_gap_raises_before_any_average(self, calls):
        with pytest.raises(GapClosedError):
            complexity_derivative(ssh_model(SSHParams(1.0, 2.0)), GlobalReference(0.9, 0.4), 1.0)
        assert calls["bz_averages"] == 0


_LOG_REF = GlobalReference(0.9, 0.4)


class TestLogDivergence:
    """dC/d(lambda) diverges like ln|delta| with the closed forms' coefficient."""

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    @pytest.mark.parametrize("model,transition,coefficient", [
        (ssh_model(SSHParams(1.0, 1.0)), 1.0, _LOG_REF.re_alpha_beta / PI),
        (ssh_model(SSHParams(1.5, 1.5)), 1.5, _LOG_REF.re_alpha_beta / (1.5 * PI)),
        (massive_dirac_model(MassiveDiracParams()), 0.0, -math.cos(_LOG_REF.theta) / PI),
    ], ids=["ssh-t1=1", "ssh-t1=1.5", "massive-dirac"])
    def test_slope_against_ln_delta(self, model, transition, coefficient, side):
        near, far = (complexity_derivative(model, _LOG_REF, transition + side * delta)
                     for delta in (1e-10, 1e-8))
        slope = (far - near) / (math.log(1e-8) - math.log(1e-10))
        assert slope == pytest.approx(coefficient, rel=1e-6)

    @pytest.mark.parametrize("delta,want", [(1e-8, 0.0), (-1e-8, -1.0 / PI)],
                             ids=["above", "below"])
    def test_plateau_derivative_is_exact_beside_the_transition(self, delta, want):
        # the plateau reference gives dC/dt2 = 0 above and -1/pi below; d_x is
        # written as (t1 - t2) + 2 t2 sin^2(k/2), which does not cancel where
        # |t1 - t2| and |k| are both ~1e-8 and the kernel peaks
        t2 = 1.0 + delta
        got = complexity_derivative(ssh_model(SSHParams(1.0, t2)), plateau_reference(), t2)
        assert got == pytest.approx(want, abs=1e-15)


class TestRatio:
    def test_saturates_for_ssh(self):
        got = ratio_R(ssh_model(SSHParams(1.0, 1.0)), GlobalReference(0.5 * PI, PI),
                      50.0, TIGHT)
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-3)

    def test_saturates_for_massive_dirac(self):
        got = ratio_R(massive_dirac_model(MassiveDiracParams()),
                      GlobalReference(0.0, 0.0), 50.0, TIGHT)
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-3)

    @pytest.mark.parametrize("r", [1.5, 3.0, 10.0])
    def test_reciprocal_symmetry(self, r):
        model = ssh_model(SSHParams(1.0, 1.0))
        ref = GlobalReference(0.5 * PI, PI)
        assert ratio_R(model, ref, r, TIGHT) == pytest.approx(
            ratio_R(model, ref, 1.0 / r, TIGHT), abs=1e-8)

    def test_log_symmetric_curve(self):
        model = ssh_model(SSHParams(1.0, 1.0))
        ref = GlobalReference(0.5 * PI, PI)
        for u in (0.1, 0.5, 1.0, 2.0):
            assert ratio_R(model, ref, math.exp(u), TIGHT) == pytest.approx(
                ratio_R(model, ref, math.exp(-u), TIGHT), abs=1e-8)

    def test_stays_in_unit_interval(self):
        model = ssh_model(SSHParams(1.0, 1.0))
        ref = GlobalReference(0.5 * PI, PI)
        for lam in (0.3, 0.9, 1.2, 5.0):
            value = ratio_R(model, ref, lam)
            assert 0.0 < value <= 1.0 + 1e-12

    def test_undefined_when_dominant_coefficient_vanishes(self):
        # massive Dirac drives only the z component; an equatorial reference
        # has Q_3 = 0
        with pytest.raises(UndefinedRatioError):
            ratio_R(massive_dirac_model(MassiveDiracParams()),
                    GlobalReference(0.5 * PI, 0.0), 1.0)


class TestSusceptibilityDuality:
    @pytest.mark.parametrize("r", [0.2, 0.5, 2.0, 5.0])
    def test_residual_within_tolerance(self, r):
        lhs, rhs, resid = fs_duality_check(DualSSHParams(1.0, r))
        assert resid <= 1e-6
        assert lhs > 0 and rhs > 0

    @settings(max_examples=40, deadline=None)
    @given(couplings, ratios)
    def test_residual_within_tolerance_for_random_pairs(self, t, r):
        assert fs_duality_check(DualSSHParams(t, r))[2] <= 1e-6

    @pytest.mark.parametrize("r", [1.0 + 1e-3, 1.0 - 1e-3])
    def test_near_self_dual_point(self, r):
        lhs, rhs, resid = fs_duality_check(DualSSHParams(1.0, r))
        assert lhs > 10.0  # both sides blow up approaching r = 1
        assert resid <= 1e-4

    @pytest.mark.parametrize("r", [1.0, 1.0 + 1e-14, 1.0 - 1e-14])
    def test_the_self_dual_point_is_read_from_family_i_record(self, r, calls, monkeypatch):
        # |d(0)| = |1 - r| < GAP_EPS: family I's chi_F record is closed, and no average runs
        monkeypatch.setattr(TwoBandModel, "gap_closed", None)
        with pytest.raises(GapClosedError, match="diverges at r = 1"):
            fs_duality_check(DualSSHParams(1.0, r))
        assert calls["bz_averages"] == 0


class TestComplexityDuality:
    @pytest.mark.parametrize("r", [0.2, 0.5, 2.0, 3.0, 5.0])
    def test_residual_within_tolerance(self, r):
        ref = GlobalReference(0.5 * PI, PI)
        lhs, rhs, resid = complexity_duality_check(DualSSHParams(1.0, r), ref)
        assert resid <= 1e-7

    @settings(max_examples=40, deadline=None)
    @given(couplings, ratios, references)
    def test_residual_within_tolerance_for_random_pairs(self, t, r, ref):
        assert complexity_duality_check(DualSSHParams(t, r), ref)[2] <= 1e-7

    def test_offset_vanishes_at_self_dual_point(self):
        assert complexity_duality_offset(1.0, GlobalReference(0.5 * PI, PI)) == 0.0

    def test_self_dual_point_is_fixed(self):
        ref = GlobalReference(0.5 * PI, PI)
        lhs, rhs, resid = complexity_duality_check(DualSSHParams(1.0, 1.0), ref)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert lhs == pytest.approx(ratio_complexity(1.0, ref), abs=1e-8)

    def test_null_reference_reduces_to_trivial_identity(self):
        # Re(alpha* beta) = 0: H(r) = (1-r)/2 and both complexities are 1/2
        ref = GlobalReference(0.5 * PI, 0.5 * PI)
        for r in (0.4, 2.5):
            lhs, rhs, resid = complexity_duality_check(DualSSHParams(1.0, r), ref)
            assert lhs == pytest.approx(0.5, abs=1e-10)
            assert resid <= 1e-10
            assert complexity_duality_offset(r, ref) == pytest.approx((1.0 - r) / 2.0, abs=1e-15)


class TestCouplingRatioDomain:
    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -0.5, -1.0])
    @pytest.mark.parametrize("ref", [GlobalReference(0.9, 0.4), GlobalReference(0.5 * PI, PI),
                                     GlobalReference(0.5 * PI, 0.5 * PI)],
                             ids=["re(alpha* beta) > 0", "< 0", "= 0"])
    def test_a_ratio_not_finite_and_positive_raises(self, r, ref):
        # before the Re(alpha* beta) = 0 shortcuts; these gave NaN, finite values at an
        # elliptic parameter m < 0, or a ZeroDivisionError
        for call in (lambda: ratio_complexity(r, ref), lambda: ratio_complexity_prime(r, ref),
                     lambda: complexity_duality_offset(r, ref),
                     lambda: complexity_duality_offset_prime(r, ref),
                     lambda: self_dual_constraint(SimpleNamespace(t=1.0, r=r), ref)):
            with pytest.raises(DomainError, match="must be finite and positive"):
                call()

    @pytest.mark.parametrize("r", [1e16, 1e20, 1e300, 5e-17, 1e-20, 5e-324])
    def test_a_ratio_whose_m_rounds_to_0_raises(self, r):
        # m = 4r / (1 + r)^2 is 0 in double precision: these raised ZeroDivisionError
        ref = GlobalReference(0.9, 0.4)
        for call in (lambda: ratio_complexity_prime(r, ref),
                     lambda: complexity_duality_offset_prime(r, ref),
                     lambda: self_dual_constraint(DualSSHParams(1.0, r), ref)):
            with pytest.raises(DomainError, match="rounds to 0"):
                call()

    @pytest.mark.parametrize("r", [1.16e77, 1e78, 1e300, 1e-77, 1e-100, 1e-300])
    def test_the_susceptibility_duality_beyond_its_range_raises(self, r):
        # r^4 overflowed (OverflowError), both sides were 0 (ZeroDivisionError), or they
        # were subnormal
        with pytest.raises(DomainError, match="1e-76 <= r <= 1e76"):
            fs_duality_check(DualSSHParams(1.0, r))

    @pytest.mark.parametrize("r", [1e-76, 1e76])
    def test_the_susceptibility_duality_holds_at_the_ends_of_its_range(self, r):
        assert fs_duality_check(DualSSHParams(1.0, r))[2] <= 1e-15

    @pytest.mark.parametrize("r", [9.9e-7, 1e-7, 1e-8, 1e-12, 1e-16, 5e-324])
    def test_the_complexity_duality_below_its_range_raises(self, r):
        # (C(r) - H(r)) / r divides their rounding by r: the residual read up to 2e-9 at
        # r = 1e-7 and 0.61 at 1e-16 at the references below
        with pytest.raises(DomainError, match="r >= 1e-6"):
            complexity_duality_check(DualSSHParams(1.0, r), GlobalReference(0.9, 0.4))

    @pytest.mark.parametrize("r", [1e-6, 1e-5, 1e2, 1e8, 1e15])
    @pytest.mark.parametrize("t", [1.0, 0.37, 2.9, 1e3])
    @pytest.mark.parametrize("ref", [GlobalReference(0.9, 0.4), GlobalReference(0.5 * PI, PI),
                                     GlobalReference(2.5, 4.0)], ids=["a", "b", "c"])
    def test_the_complexity_duality_holds_at_the_edge_of_its_range(self, r, t, ref):
        # the residual is the rounding of C(r) - H(r), up to 3e-16, over r: 1.1e-10 at most
        # here at r = 1e-6 (2.5e-10 over 3,000 random t, r >= 1e-6 and references)
        assert complexity_duality_check(DualSSHParams(t, r), ref)[2] <= 4e-16 / min(r, 1.0)

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 0.3, 1.0, 2.0, 1e300])
    def test_a_finite_positive_ratio_passes(self, r):
        for ref in (GlobalReference(0.9, 0.4), GlobalReference(0.5 * PI, 0.5 * PI)):
            assert math.isfinite(ratio_complexity(r, ref))
            assert math.isfinite(complexity_duality_offset(r, ref))


class TestSelfDualConstraint:
    def test_null_reference_exact(self):
        ref = GlobalReference(0.5 * PI, 0.5 * PI)
        constraint, c_at_r = self_dual_constraint(DualSSHParams(1.0, 1.0), ref)
        assert constraint == pytest.approx(0.5, abs=1e-15)
        assert c_at_r == pytest.approx(0.5, abs=1e-15)

    def test_residual_sequence_shrinks(self):
        ref = GlobalReference(0.5 * PI, PI)
        c1 = ratio_complexity(1.0, ref)
        residuals = []
        for eps in (1e-2, 1e-3):
            vals = []
            for r in (1.0 + eps, 1.0 - eps):
                constraint, _ = self_dual_constraint(DualSSHParams(1.0, r), ref)
                vals.append(abs(constraint - c1))
            residuals.append(max(vals))
        assert residuals[1] < residuals[0]

    @pytest.mark.parametrize("theta,phi", [(0.9, 0.4), (0.5 * PI, PI), (2.5, 4.0),
                                           (0.5 * PI, 0.5 * PI)])
    def test_equals_the_three_closed_forms_bit_for_bit(self, theta, phi):
        # K and E are evaluated once per point; (pi/2, pi/2) snaps Re(alpha* beta) to 0
        ref = GlobalReference(theta, phi)
        eps = np.geomspace(1e-15, 0.9, 120)
        for r in [*(1.0 + eps), *(1.0 - eps), 1.0 + 2.2e-16, 1.0 - 1.1e-16, 3.7, 17.0]:
            got = self_dual_constraint(DualSSHParams(1.3, r), ref)
            want = (2.0 * ratio_complexity_prime(r, ref) - complexity_duality_offset_prime(r, ref),
                    ratio_complexity(r, ref))
            assert np.array(got).tobytes() == np.array(want).tobytes(), r

    @pytest.mark.parametrize("theta,phi", [(0.9, 0.4), (0.5 * PI, PI), (2.5, 4.0),
                                           (0.5 * PI, 0.5 * PI)])
    def test_the_differentiated_duality_holds_for_every_r(self, theta, phi):
        # C(1/r) = (C(r) - H(r)) / r differentiated: 2C'(r) - H'(r) = C(1/r), whose r = 1 case
        # is the self-dual constraint; measured within 3.3e-15 (at r = 0.0112), absolute, as
        # C(1/r) nears 0 for r >> 1 at (pi/2, pi)
        ref = GlobalReference(theta, phi)
        for r in [*np.geomspace(1e-2, 1e2, 80), 1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-8, 1.0 - 1e-8]:
            constraint, _ = self_dual_constraint(DualSSHParams(1.0, r), ref)
            assert abs(constraint - ratio_complexity(1.0 / r, ref)) <= 1e-14, r

    def test_raises_at_the_self_dual_point_and_for_nan(self):
        ref = GlobalReference(0.9, 0.4)
        with pytest.raises(DomainError):
            self_dual_constraint(DualSSHParams(1.0, 1.0), ref)
        with pytest.raises(DomainError):
            self_dual_constraint(DualSSHParams(1.0, math.nan), ref)
        for r in (math.nan, math.inf, 0.0, -0.5):  # past the params' own check
            with pytest.raises(DomainError):
                self_dual_constraint(SimpleNamespace(t=1.0, r=r), ref)
        with pytest.raises(DomainError):
            self_dual_constraint(SimpleNamespace(t=1.0, r=math.nan),
                                 GlobalReference(0.5 * PI, 0.5 * PI))

    def test_leading_log_coefficient_of_derivative(self):
        ref = GlobalReference(0.5 * PI, PI)
        eps = 1e-6
        got = ratio_complexity_prime(1.0 + eps, ref) / math.log(eps)
        assert got == pytest.approx(ref.re_alpha_beta / PI, rel=0.05)

    def test_divergent_parts_cancel_at_matching_rate(self):
        # 2C' and H' separately diverge, but their difference stays near C(1).
        ref = GlobalReference(0.5 * PI, PI)
        c1 = ratio_complexity(1.0, ref)
        eps = 1e-4
        constraint, _ = self_dual_constraint(DualSSHParams(1.0, 1.0 + eps), ref)
        prime = ratio_complexity_prime(1.0 + eps, ref)
        assert abs(prime) > 1.0  # individually large
        assert constraint == pytest.approx(c1, abs=2e-3)
