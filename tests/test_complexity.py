"""Spread-complexity tests: per-mode geometry, closed forms, piecewise states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoband import (BandAssignment, BlochVector, BZQuadratureConfig,
                     DomainError, GapClosedError, GlobalReference,
                     MassiveDiracParams, PartitionError, SSHParams,
                     complete_E, complete_K, complexity_per_mode,
                     excited_piecewise_complexity, excited_split_closed,
                     ground_complexity, ground_state_bloch, incomplete_E,
                     md_complexity_closed, md_dC_dmu_analytic,
                     plateau_complexity, ssh_complexity_closed, ssh_model)
from twoband.bloch import PiecewiseBlochReference, canonical_angles, plateau_reference
from twoband.quadrature import param_derivative

PI = math.pi

unit_angles = st.tuples(st.floats(min_value=0.0, max_value=PI),
                        st.floats(min_value=0.0, max_value=2.0 * PI - 1e-9))


class TestPerMode:
    def test_identical_states(self):
        n = BlochVector(0.3, -0.5, 0.8)
        assert complexity_per_mode(n, n) == 0.0

    def test_antipodal_states(self):
        n = BlochVector(0.3, -0.5, 0.8)
        assert complexity_per_mode(n, -n) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_states(self):
        assert complexity_per_mode(BlochVector(1, 0, 0), BlochVector(0, 0, 1)) == pytest.approx(0.5)

    @settings(max_examples=300, deadline=None)
    @given(unit_angles, unit_angles)
    def test_range_and_antipode_symmetry(self, ang1, ang2):
        n1 = BlochVector.from_angles(*ang1)
        n2 = BlochVector.from_angles(*ang2)
        c = complexity_per_mode(n1, n2)
        assert 0.0 <= c <= 1.0
        assert complexity_per_mode(-n1, n2) == pytest.approx(1.0 - c, abs=1e-12)


class TestGroundStateBloch:
    def test_positive_x(self):
        assert ground_state_bloch(np.array([3.0, 0.0, 0.0])).as_array() == pytest.approx([-1, 0, 0])

    def test_negative_z(self):
        assert ground_state_bloch(np.array([0.0, 0.0, -2.0])).as_array() == pytest.approx([0, 0, 1])

    def test_diagonal(self):
        got = ground_state_bloch(np.array([1.0, 0.0, 1.0])).as_array()
        assert got == pytest.approx([-1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)])

    def test_gap_closed(self):
        with pytest.raises(GapClosedError):
            ground_state_bloch(np.array([0.0, 0.0, 1e-14]))


class TestGroundComplexity:
    def test_insensitive_reference_gives_half(self):
        ref = GlobalReference(0.5 * PI, 0.5 * PI)  # Re(alpha* beta) = 0
        for t1, t2 in ((1.0, 0.4), (1.0, 1.0), (0.7, 2.3)):
            got = ground_complexity(ssh_model(SSHParams(t1, t2)), ref)
            assert got == pytest.approx(0.5, abs=1e-10)

    def test_decoupled_chain_reaches_zero(self):
        # t2 = 0 makes the target (-1, 0, 0) everywhere; the family itself is
        # well defined there even though SSHParams guards construction.
        ref = GlobalReference(0.5 * PI, PI)
        got = ground_complexity(ssh_model(SSHParams(1.0, 1.0)).at(0.0), ref)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_massive_dirac_value_at_mu_one(self):
        model_value = md_complexity_closed(MassiveDiracParams(mu=1.0), 0.0)
        assert model_value == pytest.approx(0.5 + complete_K(0.5) / (PI * math.sqrt(2.0)), abs=1e-14)

    @pytest.mark.parametrize("theta,phi", [(math.inf, 0.0), (0.3, -math.inf),
                                           (math.nan, 0.0), (0.3, math.nan)])
    def test_non_finite_angles_are_a_domain_error(self, theta, phi):
        # an infinite angle raised a bare ValueError from math.fmod
        with pytest.raises(DomainError, match="finite"):
            GlobalReference(theta, phi)

    def test_angle_reduction_modulo_sphere(self):
        raw = GlobalReference(-0.3, 7.0)
        th, ph = canonical_angles(-0.3, 7.0)
        assert raw.theta == pytest.approx(th)
        expected = BlochVector.from_angles(0.3, (7.0 + PI) % (2.0 * PI)).as_array()
        assert raw.bloch.as_array() == pytest.approx(expected, abs=1e-14)


class TestSSHClosedForm:
    def test_matches_quadrature_on_samples(self):
        for t1, t2, th, ph in ((1.0, 2.0, 0.5 * PI, PI), (2.0, 1.0, PI / 3, PI / 4),
                               (0.7, 2.5, 1.0, 2.0), (1.4, 1.41, 0.9, 5.0)):
            params = SSHParams(t1, t2)
            ref = GlobalReference(th, ph)
            assert ssh_complexity_closed(params, ref) == pytest.approx(
                ground_complexity(ssh_model(params), ref), abs=1e-8)

    def test_critical_limit_against_quadrature(self):
        params = SSHParams(1.0, 1.0)
        ref = GlobalReference(0.5 * PI, PI)
        closed = ssh_complexity_closed(params, ref)
        # limit value 1/2 + Re(alpha* beta) * s * E(1) / (pi t1) with s = 2
        assert closed == pytest.approx(0.5 + ref.re_alpha_beta * 2.0 / PI, abs=1e-14)
        assert closed == pytest.approx(ground_complexity(ssh_model(params), ref), abs=1e-8)

    def test_direct_substitution(self):
        # t1=1, t2=2, Re(alpha* beta) = -1/2: delta = -1, s = 3, m = 8/9
        ref = GlobalReference(0.5 * PI, PI)
        expected = 0.5 - (-complete_K(8.0 / 9.0) + 3.0 * complete_E(8.0 / 9.0)) / (2.0 * PI)
        assert ssh_complexity_closed(SSHParams(1.0, 2.0), ref) == pytest.approx(expected, abs=1e-14)

    def test_null_sensitivity_reference(self):
        ref = GlobalReference(0.5 * PI, 1.5 * PI)
        for t1, t2 in ((0.5, 3.0), (2.0, 2.0), (1.0, 0.2)):
            assert ssh_complexity_closed(SSHParams(t1, t2), ref) == 0.5

    def test_requires_global_reference(self):
        from twoband import plateau_reference
        with pytest.raises(DomainError):
            ssh_complexity_closed(SSHParams(1.0, 2.0), plateau_reference())


class TestAsymptoticDerivative:
    def test_log_growth_per_decade(self):
        # The derivative grows like ln(1/|delta|) with rate Re(alpha* beta)/(pi t1)
        # per e-fold; measured per decade of delta and divided by ln 10.
        ref = GlobalReference(0.5 * PI, PI)

        def deriv(delta):
            return param_derivative(
                lambda t2: ssh_complexity_closed(SSHParams(1.0, t2), ref), 1.0 - delta, 1e-7)

        slope = (deriv(1e-5) - deriv(1e-4)) / math.log(10.0)
        assert slope == pytest.approx(abs(ref.re_alpha_beta) / PI, rel=0.05)

    def test_log_growth_on_both_sides_of_the_transition(self):
        # approaching from the trivial (t2 < t1) and topological (t2 > t1)
        # sides, the derivative magnitude grows at the same log rate
        ref = GlobalReference(0.5 * PI, PI)

        def deriv(t2):
            return param_derivative(
                lambda x: ssh_complexity_closed(SSHParams(1.0, x), ref), t2, 1e-7)

        rate = abs(ref.re_alpha_beta) * math.log(10.0) / PI
        for side in (+1.0, -1.0):
            growth = deriv(1.0 + side * 1e-4) - deriv(1.0 + side * 1e-3)
            assert growth == pytest.approx(rate, rel=0.05)


class TestPlateau:
    def test_topological_side_is_flat(self):
        expected = 0.5 - 1.0 / PI
        for t2 in (1.5, 2.0, 3.0):
            assert plateau_complexity(SSHParams(1.0, t2)) == pytest.approx(expected, abs=1e-8)

    def test_trivial_side_is_linear(self):
        for t2 in (0.2, 0.4, 0.9):
            assert plateau_complexity(SSHParams(1.0, t2)) == pytest.approx(
                0.5 - t2 / PI, abs=1e-8)

    def test_array_lookups_keep_the_upper_end_convention(self):
        ks = np.array([-PI, -1.0, 0.0, 1e-300, 2.0, PI])
        ref = plateau_reference()
        assert ref.bloch_at(ks)[2] == pytest.approx([1, 1, 1, -1, -1, -1])
        assert ref.bloch_at(0.0) == pytest.approx([0.0, 0.0, 1.0])
        # band sign s selects the reference -s * n_ref: +z on k <= 0, -z above
        bands = BandAssignment.two_interval(0.0, -1, +1).reference(BlochVector(0.0, 0.0, 1.0))
        assert bands.bloch_at(ks)[2] == pytest.approx([1, 1, 1, -1, -1, -1])
        assert bands.bloch_at(0.0) == pytest.approx([0.0, 0.0, 1.0])

    def test_vanishing_intercell_coupling(self):
        assert plateau_complexity(SSHParams(1.0, 1e-12)) == pytest.approx(0.5, abs=1e-10)


class TestExcitedPiecewise:
    def test_all_lower_band_reduces_to_ground_state(self):
        params = SSHParams(1.0, 1.7)
        ref = GlobalReference(0.7, 0.3)
        got = excited_piecewise_complexity(params, BandAssignment.ground(), ref)
        assert got == pytest.approx(ground_complexity(ssh_model(params), ref), abs=1e-10)

    def test_zero_split_closed_form(self):
        # Lower band kept for k <= 0, upper band for k > 0.
        bands = BandAssignment.two_interval(0.0, -1, +1)
        for t1, t2, th in ((1.0, 1.7, 0.7), (2.0, 0.5, 0.2), (1.0, 1.0, 1.1)):
            params = SSHParams(t1, t2)
            ref = GlobalReference(th, 0.3)
            got = excited_piecewise_complexity(params, bands, ref)
            assert got == pytest.approx(excited_split_closed(params, th), abs=1e-8)

    def test_zero_split_mirror_assignment(self):
        # The complementary assignment lands symmetrically above 1/2.
        bands = BandAssignment.two_interval(0.0, +1, -1)
        params = SSHParams(1.0, 1.7)
        th = 0.7
        ref = GlobalReference(th, 0.3)
        got = excited_piecewise_complexity(params, bands, ref)
        expected = 0.5 + math.cos(th) / (2.0 * PI * params.t1) * (
            (params.t1 + params.t2) - abs(params.t1 - params.t2))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_band_weight_pieces_match_incomplete_elliptic_route(self):
        # integral of (t1 - t2 cos k)/|d| over [kj, kj1] equals
        # d/dt1 of 2 (t1+t2) [inc_E((pi-kj)/2 | m) - inc_E((pi-kj1)/2 | m)].
        t1, t2 = 1.0, 1.7
        kj, kj1 = 0.3, 2.0

        def band_energy_sum(t1v):
            s = t1v + t2
            m = 4.0 * t1v * t2 / s ** 2
            return 2.0 * s * (incomplete_E((PI - kj) / 2.0, m)
                              - incomplete_E((PI - kj1) / 2.0, m))

        h = 1e-6
        via_elliptic = (band_energy_sum(t1 + h) - band_energy_sum(t1 - h)) / (2.0 * h)
        from scipy.integrate import quad
        direct, _ = quad(lambda k: (t1 - t2 * np.cos(k))
                         / np.sqrt(t1 ** 2 + t2 ** 2 - 2 * t1 * t2 * np.cos(k)),
                         kj, kj1, epsabs=1e-13, epsrel=1e-13)
        assert via_elliptic == pytest.approx(direct, abs=1e-8)

    def test_quarter_pi_split_has_cusp_at_equal_couplings(self):
        from twoband import detect_cusps
        bands = BandAssignment.two_interval(0.25 * PI, -1, +1)
        ref = GlobalReference(PI / 12.0, PI / 3.0)
        grid = np.linspace(0.5, 1.6, 45)
        curve = [(float(t2), excited_piecewise_complexity(SSHParams(1.0, float(t2)), bands, ref))
                 for t2 in grid]
        cusps = detect_cusps(curve)
        spacing = float(grid[1] - grid[0])
        assert cusps and min(abs(c - 1.0) for c in cusps) <= spacing

    def test_partition_validation(self):
        with pytest.raises(PartitionError):
            BandAssignment((-PI, 0.5, 0.2, PI), (1, -1, 1))
        with pytest.raises(PartitionError):
            BandAssignment((-PI, PI), (2,))
        with pytest.raises(PartitionError):
            BandAssignment((-PI, 0.0, PI), (1,))
        with pytest.raises(PartitionError):
            BandAssignment((-3.0, PI), (1,))
        with pytest.raises(PartitionError):
            BandAssignment((-PI, math.nan, PI), (1, -1))

    def test_piecewise_reference_rejects_no_pieces_and_an_empty_last_piece(self):
        up, down = BlochVector(0.0, 0.0, 1.0), BlochVector(0.0, 0.0, -1.0)
        with pytest.raises(PartitionError, match="empty"):
            PiecewiseBlochReference(())
        with pytest.raises(PartitionError, match="positive length"):
            PiecewiseBlochReference(((-PI, PI, up), (PI, PI, down)))

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_piecewise_reference_rejects_non_finite_bounds(self, bound):
        # a NaN split averaged to 0.5, where the split at 0 gives 0.1817
        up, down = BlochVector(0.0, 0.0, 1.0), BlochVector(0.0, 0.0, -1.0)
        with pytest.raises(PartitionError, match="finite"):
            PiecewiseBlochReference(((-PI, bound, up), (bound, PI, down)))


class TestMassiveDiracClosedForm:
    def test_equator_reference_gives_half(self):
        for mu in (0.1, 1.0, 7.0):
            assert md_complexity_closed(MassiveDiracParams(mu=mu), 0.5 * PI) == pytest.approx(0.5, abs=1e-15)

    def test_zero_mass_is_half(self):
        assert md_complexity_closed(MassiveDiracParams(mu=0.0), 0.3) == 0.5

    def test_value_at_mu_one_theta_zero(self):
        expected = 0.5 + complete_K(0.5) / (PI * math.sqrt(2.0))
        assert md_complexity_closed(MassiveDiracParams(mu=1.0), 0.0) == pytest.approx(expected, abs=1e-14)

    def test_antisymmetry_about_zero_mass(self):
        for mu in (0.3, 1.2):
            up = md_complexity_closed(MassiveDiracParams(mu=mu), 0.4)
            down = md_complexity_closed(MassiveDiracParams(mu=-mu), 0.4)
            assert up + down == pytest.approx(1.0, abs=1e-14)


class TestMassiveDiracDerivative:
    def test_equator_reference_vanishes(self):
        for mu in (0.2, 1.0, 5.0):
            assert md_dC_dmu_analytic(MassiveDiracParams(mu=mu), 0.5 * PI) == pytest.approx(0.0, abs=1e-16)

    def test_small_mass_log_divergence(self):
        got = md_dC_dmu_analytic(MassiveDiracParams(mu=0.01), 0.0)
        assert got == pytest.approx((math.log(400.0) - 1.0) / PI, rel=0.02)

    def test_value_at_mu_one(self):
        expected = (complete_K(0.5) - complete_E(0.5)) / (PI * math.sqrt(2.0))
        assert md_dC_dmu_analytic(MassiveDiracParams(mu=1.0), 0.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_finite_difference(self):
        for mu in (0.05, 0.5, 2.0, 10.0):
            got = md_dC_dmu_analytic(MassiveDiracParams(mu=mu), 0.7)
            ref_fd = param_derivative(
                lambda m: md_complexity_closed(MassiveDiracParams(mu=m), 0.7), mu, 1e-6)
            assert got == pytest.approx(ref_fd, abs=1e-7)

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            md_dC_dmu_analytic(MassiveDiracParams(mu=0.0), 0.0)


class TestBoundedness:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.1, max_value=3.0),
           unit_angles)
    def test_closed_form_in_unit_interval(self, t1, t2, angles):
        value = ssh_complexity_closed(SSHParams(t1, t2), GlobalReference(*angles))
        assert -1e-12 <= value <= 1.0 + 1e-12
