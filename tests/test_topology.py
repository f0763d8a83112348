"""Winding-number tests in both formulations."""

import math

import numpy as np
import pytest

from twoband import (DomainError, DualSSHParams, GapClosedError, MassiveDiracParams,
                     NonQuantizedError, SSHParams, dual_windings,
                     massive_dirac_model, ssh_model, winding_cross_product,
                     winding_log_derivative)
from twoband.topology import _nearest_winding, winding_phase_accumulation

PI = math.pi


def ssh_offdiagonal(t1, t2):
    return lambda k: t1 - t2 * np.exp(1j * k)


class TestLogDerivative:
    def test_trivial_phase(self):
        assert winding_log_derivative(ssh_offdiagonal(2.0, 1.0)) == 0

    def test_topological_phase(self):
        assert winding_log_derivative(ssh_offdiagonal(1.0, 2.0)) == 1

    def test_constant_map(self):
        assert winding_log_derivative(lambda k: 1.0 + 0.0j) == 0

    def test_gap_closed(self):
        with pytest.raises(GapClosedError):
            winding_log_derivative(ssh_offdiagonal(1.0, 1.0))

    def test_non_quantized_rejected(self):
        # an open (non-periodic) phase ramp accumulates half a turn
        with pytest.raises(NonQuantizedError):
            winding_log_derivative(lambda k: np.exp(0.5j * k))

    def test_nearest_winding_is_the_acceptance_rule(self):
        # the rule a sweep applies to its averaged winding, as the grid does
        assert _nearest_winding(0.95) == 1 and _nearest_winding(-0.05) == 0
        assert isinstance(_nearest_winding(2.0), int)
        for raw in (0.5, 0.85, math.nan, math.inf):
            with pytest.raises(NonQuantizedError):
                _nearest_winding(raw)

    def test_quantization_residual(self):
        for t1, t2 in ((2.0, 1.0), (1.0, 2.0), (1.0, 1.1)):
            raw = winding_phase_accumulation(ssh_offdiagonal(t1, t2), 512)
            assert abs(raw - round(raw)) < 1e-6

    @pytest.mark.parametrize("grid_size", [-3, 0, 1, 2])
    def test_grid_below_three_steps_rejected(self, grid_size):
        with pytest.raises(DomainError):
            winding_phase_accumulation(ssh_offdiagonal(1.0, 2.0), grid_size)
        with pytest.raises(DomainError):
            winding_cross_product(ssh_model(SSHParams(1.0, 2.0)), grid_size)

    def test_three_steps_carry_a_full_turn(self):
        assert winding_log_derivative(lambda k: np.exp(1j * k), 3) == 1

    def test_grid_stability(self):
        for t1, t2 in ((2.0, 1.0), (1.0, 2.0), (0.9, 1.0)):
            values = {winding_log_derivative(ssh_offdiagonal(t1, t2), n)
                      for n in (256, 512, 1024, 2048)}
            assert len(values) == 1


    @pytest.mark.parametrize("t2,want", [(1.0 + 1e-6, 1), (1.0 - 1e-6, 0)])
    def test_odd_grid_keeps_a_node_at_k_zero(self, t2, want):
        # without the node the sampled contour passes the origin on the
        # wrong side once |t2 - t1| < (pi / 1001)^2 / 2
        assert winding_log_derivative(ssh_offdiagonal(1.0, t2), 1001) == want

    def test_even_grid_is_the_uniform_grid(self):
        f = ssh_offdiagonal(1.0, 1.0 + 1e-6)
        vals = f(np.linspace(-PI, PI, 1025))
        raw = float(np.sum(np.angle(vals[1:] / vals[:-1])) / (2.0 * PI))
        assert winding_phase_accumulation(f, 1024) == raw
        assert winding_log_derivative(f, 1024) == 1


class TestCrossProduct:
    @pytest.mark.parametrize("mu", [-3.0, -0.5, 0.5, 3.0])
    def test_massive_dirac_is_trivial(self, mu):
        model = massive_dirac_model(MassiveDiracParams(mu=mu))
        assert abs(winding_cross_product(model)) < 1e-10

    def test_ssh_agrees_with_contour_form(self):
        got = winding_cross_product(ssh_model(SSHParams(1.0, 2.0)))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_ssh_trivial_phase(self):
        got = winding_cross_product(ssh_model(SSHParams(2.0, 1.0)))
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_gap_closed(self):
        with pytest.raises(GapClosedError):
            winding_cross_product(ssh_model(SSHParams(1.0, 1.0)))


class TestDualWindings:
    def test_trivial_topological_split(self):
        assert dual_windings(DualSSHParams(1.0, 0.5)) == (0, 1)
        assert dual_windings(DualSSHParams(1.0, 2.0)) == (1, 0)

    @pytest.mark.parametrize("r", [0.3, 0.7, 1.5, 3.0])
    def test_relabeling_symmetry(self, r):
        nu_i, _ = dual_windings(DualSSHParams(1.0, r))
        _, nu_ii_inv = dual_windings(DualSSHParams(1.0, 1.0 / r))
        assert nu_i == nu_ii_inv

    @pytest.mark.parametrize("r", [0.2, 0.9, 1.1, 4.0])
    def test_windings_sum_to_one(self, r):
        nu_i, nu_ii = dual_windings(DualSSHParams(1.0, r))
        assert nu_i + nu_ii == 1

    def test_self_dual_point_rejected(self):
        with pytest.raises(GapClosedError):
            dual_windings(DualSSHParams(1.0, 1.0))
