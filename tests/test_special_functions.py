"""Elliptic integral tests against quadrature and finite-difference oracles."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from twoband import (DomainError, complete_E, complete_E_quadrature, complete_K,
                     complete_K_quadrature, dE_dm, dK_dm, incomplete_E)
from twoband import special_functions as sf
from twoband.special_functions import complementary_K

PI = math.pi

# Frozen oracle values: adaptive quadrature of the defining integrals,
# evaluated at epsabs = epsrel = 1e-14.
K_HALF_QUADRATURE = 1.8540746773013719
E_03_QUADRATURE = 1.4453630644126654
INCOMPLETE_E_PI4_06 = 0.7403256570760575


class TestCompleteK:
    def test_zero_parameter_is_pi_over_2(self):
        assert complete_K(0.0) == pytest.approx(0.5 * PI, abs=1e-15)

    def test_half_parameter_matches_quadrature_oracle(self):
        assert complete_K(0.5) == pytest.approx(K_HALF_QUADRATURE, abs=1e-10)

    def test_near_one_matches_log_asymptote(self):
        xp = 1e-8
        approx = 0.5 * math.log(16.0 / xp)
        val = complete_K(1.0 - xp)
        assert abs(val - approx) / val <= 1e-4

    def test_agm_agrees_with_retained_quadrature_path(self):
        for m in (0.05, 0.2, 0.5, 0.8, 0.95, 0.999):
            assert complete_K(m) == pytest.approx(complete_K_quadrature(m), rel=1e-12)

    def test_rejects_one_and_beyond(self):
        with pytest.raises(DomainError):
            complete_K(1.0)
        with pytest.raises(DomainError):
            complete_K(1.5)
        with pytest.raises(DomainError):
            complete_K(-0.2)

    def test_quadrature_oracle_rejects_one(self):
        with pytest.raises(DomainError, match="diverges at m = 1"):
            complete_K_quadrature(1.0)

    def test_boundary_noise_is_clamped(self):
        assert complete_K(-1e-15) == pytest.approx(0.5 * PI, abs=1e-15)
        assert complete_E(1.0 + 1e-15) == 1.0


class TestCompleteE:
    def test_zero_parameter_is_pi_over_2(self):
        assert complete_E(0.0) == pytest.approx(0.5 * PI, abs=1e-15)

    def test_one_is_exactly_one(self):
        assert complete_E(1.0) == 1.0

    def test_e03_matches_quadrature_oracle(self):
        assert complete_E(0.3) == pytest.approx(E_03_QUADRATURE, abs=1e-10)

    def test_agm_agrees_with_retained_quadrature_path(self):
        for m in (0.1, 0.4, 0.7, 0.99):
            assert complete_E(m) == pytest.approx(complete_E_quadrature(m), rel=1e-12)


class TestDKdm:
    def test_matches_finite_difference_at_half(self):
        h = 1e-6
        fd = (complete_K(0.5 + h) - complete_K(0.5 - h)) / (2.0 * h)
        assert dK_dm(0.5) == pytest.approx(fd, rel=1e-8)

    def test_direct_identity_at_m_01(self):
        expected = (complete_E(0.1) - 0.9 * complete_K(0.1)) / 0.18
        assert dK_dm(0.1) == pytest.approx(expected, rel=5e-16)

    def test_matches_finite_difference_at_09(self):
        h = 1e-6
        fd = (complete_K(0.9 + h) - complete_K(0.9 - h)) / (2.0 * h)
        assert dK_dm(0.9) == pytest.approx(fd, rel=1e-7)

    def test_fd_agreement_across_the_interval(self):
        h = 1e-6
        for m in np.linspace(0.01, 0.99, 25):
            fd = (complete_K(m + h) - complete_K(m - h)) / (2.0 * h)
            assert dK_dm(m) == pytest.approx(fd, rel=1e-8)

    def test_rejects_endpoints(self):
        with pytest.raises(DomainError):
            dK_dm(0.0)
        with pytest.raises(DomainError):
            dK_dm(1.0)


class TestIncompleteE:
    def test_zero_amplitude_is_zero(self):
        for m in (0.0, 0.3, 1.0):
            assert incomplete_E(0.0, m) == 0.0

    def test_full_amplitude_reduces_to_complete(self):
        assert incomplete_E(0.5 * PI, 0.4) == pytest.approx(complete_E(0.4), abs=1e-12)

    def test_quarter_amplitude_matches_quadrature_oracle(self):
        assert incomplete_E(0.25 * PI, 0.6) == pytest.approx(INCOMPLETE_E_PI4_06, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            incomplete_E(-0.1, 0.5)
        with pytest.raises(DomainError):
            incomplete_E(0.6 * PI, 0.5)
        with pytest.raises(DomainError):
            incomplete_E(0.3, 1.2)

    def test_rejects_a_nan_amplitude(self):
        with pytest.raises(DomainError, match="amplitude"):
            incomplete_E(float("nan"), 0.3)

    def test_amplitude_noise_is_clamped(self):
        for m in (0.0, 0.3, 1.0):
            got = incomplete_E(-5e-15, m)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
            assert _bits([incomplete_E(0.5 * PI + 5e-15, m)]) == _bits([complete_E(m)])


class TestModulusType:
    def test_clamps_within_tolerance(self):
        assert complete_K(-5e-15) == complete_K(0.0) == 0.5 * PI
        assert complete_E(-5e-15) == complete_E(0.0) == 0.5 * PI
        assert complete_E(1.0 + 5e-15) == complete_E(1.0) == 1.0
        with pytest.raises(DomainError, match="diverges"):
            complete_K(1.0 + 5e-15)

    def test_rejects_outside_tolerance(self):
        for fn in (complete_K, complete_E):
            for m in (-1e-12, 1.001, float("nan")):
                with pytest.raises(DomainError, match="outside"):
                    fn(m)

    @pytest.mark.parametrize("fn", [dK_dm, dE_dm, lambda m: incomplete_E(0.3, m)],
                             ids=["dK_dm", "dE_dm", "incomplete_E"])
    def test_rejects_a_nan_parameter(self, fn):
        with pytest.raises(DomainError, match="outside"):
            fn(float("nan"))

    def test_negative_zero_keeps_its_sign(self):
        assert math.copysign(1.0, sf._param(-0.0)) == -1.0
        assert math.copysign(1.0, sf._param(-5e-15)) == 1.0


class TestInvariants:
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-9))
    def test_ordering_E_le_pi2_le_K(self, m):
        assert complete_E(m) < 0.5 * PI < complete_K(m)

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=1e-6, max_value=0.009))
    def test_monotonicity(self, m, dm):
        assert complete_K(m + dm) > complete_K(m)
        assert complete_E(m + dm) < complete_E(m)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.5 * PI - 1e-6),
           st.floats(min_value=1e-6, max_value=0.04),
           st.floats(min_value=0.01, max_value=1.0))
    def test_incomplete_strictly_increasing_in_amplitude(self, phi, dphi, m):
        hi = min(phi + dphi, 0.5 * PI)
        assert incomplete_E(hi, m) > incomplete_E(phi - 0.04, m)

    def test_series_agreement_for_small_parameter(self):
        # 3-term series; the omitted tail is ~1.05x the next-order term at the
        # upper end of the window, hence the 1.25 safety factor on the bound.
        for m in np.linspace(1e-6, 0.05, 200):
            k_series = 0.5 * PI * (1.0 + 0.25 * m + (9.0 / 64.0) * m * m)
            e_series = 0.5 * PI * (1.0 - 0.25 * m - (3.0 / 64.0) * m * m)
            k_next = 0.5 * PI * (25.0 / 256.0) * m ** 3
            e_next = 0.5 * PI * (5.0 / 256.0) * m ** 3
            assert abs(complete_K(m) - k_series) <= 1.25 * k_next + 1e-15
            assert abs(complete_E(m) - e_series) <= 1.25 * e_next + 1e-15

    def test_log_asymptote_window(self):
        for mp in (1e-10, 1e-8, 1e-6, 1e-4):
            val = complete_K(1.0 - mp)
            assert abs(val - 0.5 * math.log(16.0 / mp)) / val <= 1e-3

    def test_defining_integral_identity_sampled(self):
        # spot check the module oracles against an inline quadrature
        for m in (0.2, 0.85):
            ref, _ = quad(lambda u: 1.0 / math.sqrt(1.0 - m * math.sin(u) ** 2),
                          0.0, 0.5 * PI, epsabs=1e-13, epsrel=1e-13)
            assert complete_K_quadrature(m) == pytest.approx(ref, rel=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestScalarEntryPoints:
    """The closed forms call the Cephes kernels through ``scipy.special.cython_special``;
    the ufuncs of the same name wrap the same kernels and must agree bit for bit."""

    EDGES = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 1e-16]
    M = np.concatenate((np.linspace(0.0, 1.0, 20001), np.geomspace(5e-324, 1.0, 2000),
                        1.0 - np.geomspace(1e-16, 1.0, 2000), EDGES))

    def test_the_stand_ins_bind_the_scalar_entry_points(self):
        from scipy.special import cython_special

        complete_E(0.3), complementary_K(0.3), incomplete_E(0.3, 0.3)
        for name in ("ellipkm1", "ellipe", "ellipeinc"):
            assert getattr(sf, "_" + name) is getattr(cython_special, name)

    def test_complete_integrals_equal_the_ufuncs(self):
        k = [complementary_K(mc) for mc in self.M.tolist()]
        e = [complete_E(m) for m in self.M.tolist()]
        assert all(type(v) is float for v in k + e)
        assert _bits(k) == _bits(scipy.special.ellipkm1(self.M))
        assert _bits(e) == _bits(scipy.special.ellipe(self.M))

    def test_elliptic_derivatives_take_the_same_k_and_e(self):
        m = self.M[(self.M > 0.0) & (self.M < 1.0)]
        got = [sf.elliptic_derivatives(x, 1.0 - x)[:2] for x in m.tolist()]
        assert _bits([k for k, _ in got]) == _bits(scipy.special.ellipkm1(1.0 - m))
        assert _bits([e for _, e in got]) == _bits(scipy.special.ellipe(m))

    def test_incomplete_integral_equals_the_ufunc(self):
        phi = np.concatenate((np.linspace(0.0, 0.5 * PI, 101), [5e-324, 1e-300]))
        m = np.concatenate((np.linspace(0.0, 1.0, 191), np.geomspace(1e-300, 1e-3, 5),
                            1.0 - np.geomspace(1e-16, 1e-3, 5), self.EDGES))
        pp, mm = (a.ravel() for a in np.meshgrid(phi, m))
        got = [incomplete_E(p, x) for p, x in zip(pp.tolist(), mm.tolist())]
        assert len(got) > 20000
        assert _bits(got) == _bits(scipy.special.ellipeinc(pp, mm))
