"""Brillouin-zone quadrature and finite-difference tests."""

import math

import numpy as np
import pytest

from twoband import (BandAssignment, BlochVector, BZQuadratureConfig,
                     ConvergenceError, DomainError, ExceptionalPointError,
                     GapClosedError, GlobalReference,
                     MassiveDiracParams, NonHermitianSSHParams, SSHParams,
                     TwoBandModel, bz_average, bz_average_vec, chi_F,
                     chi_F_md_closed, chi_F_ssh_closed, complexity_derivative,
                     complexity_per_mode, excited_piecewise_complexity,
                     ground_complexity, ground_state_bloch, massive_dirac_model,
                     md_complexity_closed, md_dC_dmu_analytic,
                     nh_complexity_per_mode_overlap, nh_ground_complexity,
                     param_derivative, plateau_reference,
                     ssh_complexity_closed, ssh_model)
from twoband import fidelity, quadrature
from twoband.bounds_duality import ratio_complexity_prime
from twoband.fidelity import dhat_derivative
from twoband.models import singular_points
from twoband.quadrature import _GK_NODES, _GK_WEIGHTS

from conftest import rows_of

PI = math.pi


class TestBZAverage:
    def test_constant_integrand(self):
        for c in (0.0, 1.0, -3.7):
            assert bz_average(lambda k: c) == pytest.approx(c, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        assert abs(bz_average(math.sin)) < 1e-10

    def test_matches_ssh_closed_form_oracle(self):
        params = SSHParams(1.0, 2.0)
        ref = GlobalReference(0.5 * PI, PI)
        got = ground_complexity(ssh_model(params), ref)
        assert got == pytest.approx(ssh_complexity_closed(params, ref), abs=1e-8)

    def test_linearity(self):
        f = lambda k: math.cos(k) ** 2
        g = lambda k: abs(math.sin(3 * k))
        combined = bz_average(lambda k: 2.0 * f(k) - 0.5 * g(k))
        separate = 2.0 * bz_average(f) - 0.5 * bz_average(g)
        assert combined == pytest.approx(separate, abs=2e-10)

    def test_odd_ssh_z_integrand_vanishes(self):
        model = ssh_model(SSHParams(1.0, 1.7))

        def odd(k):
            d = model.d(k)
            return d[2] / np.linalg.norm(d)

        assert abs(bz_average(odd)) < 1e-10

    def test_splitting_invariance_for_integrable_features(self, monkeypatch):
        # the engine's C on graded panels and on [-pi, pi] unsplit
        model = massive_dirac_model(MassiveDiracParams(mu=0.01))
        ref = GlobalReference(0.2, 0.0)
        levels = _count_levels(monkeypatch)
        (with_split,) = rows_of(fidelity._engine_averages(model, [model.lam], ref, None,
                                                          complexity=True))
        graded = len(levels)
        monkeypatch.setattr(fidelity, "graded_edges", lambda points, w: np.empty((len(points), 0)))
        (no_split,) = rows_of(fidelity._engine_averages(model, [model.lam], ref, None,
                                                        complexity=True))
        assert 1 <= graded < len(levels) - graded  # 1 level against 9
        assert with_split.complexity == pytest.approx(no_split.complexity, abs=1e-9)

    def test_convergence_error_when_budget_exhausted(self):
        cfg = BZQuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
        with pytest.raises(ConvergenceError):
            bz_average(lambda k: math.sin(1000.0 * k * k), cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            BZQuadratureConfig(abs_tol=0.0)
        for budget in (0, -1, 2.5, math.nan, True):
            with pytest.raises(DomainError, match="max_subdivisions"):
                BZQuadratureConfig(max_subdivisions=budget)
        assert BZQuadratureConfig(max_subdivisions=1).max_subdivisions == 1

    def test_points_beyond_the_budget_are_a_domain_error(self):
        # three points split the zone into four panels, past a budget of three
        for budget in (1, 3):
            with pytest.raises(DomainError, match="budget"):
                bz_average(lambda k: 1.0, BZQuadratureConfig(max_subdivisions=budget),
                           extra_points=(0.0, 1.0, 2.0))
        assert bz_average(lambda k: 1.0, BZQuadratureConfig(max_subdivisions=4),
                          extra_points=(0.0, 1.0, 2.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tols", [{"abs_tol": math.inf, "rel_tol": math.inf},
                                      {"abs_tol": math.nan}, {"rel_tol": math.inf}])
    def test_non_finite_tolerances_are_a_domain_error(self, tols):
        # infinite tolerances divided inf by inf in the engine
        with pytest.raises(DomainError, match="finite"):
            BZQuadratureConfig(**tols)


class TestParamDerivative:
    def test_quadratic(self):
        assert param_derivative(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        assert param_derivative(lambda x: 4.2, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_analytic_massive_dirac_derivative(self):
        got = param_derivative(
            lambda mu: md_complexity_closed(MassiveDiracParams(mu=mu), 0.4), 0.5)
        expected = md_dC_dmu_analytic(MassiveDiracParams(mu=0.5), 0.4)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_central4_is_higher_order(self):
        # halving the step divides a fourth-order error by 16
        f = lambda x: math.exp(math.sin(2.0 * x))
        exact = 2.0 * math.cos(1.4) * math.exp(math.sin(1.4))
        err_h = abs(param_derivative(f, 0.7, 1e-2) - exact)
        err_half = abs(param_derivative(f, 0.7, 5e-3) - exact)
        assert 12.0 < err_h / err_half < 20.0

    def test_config_validation(self):
        for step in (0.0, -1e-5):
            with pytest.raises(DomainError):
                param_derivative(math.sin, 0.7, step)


# The array engine against the scalar QUADPACK oracle.  The oracle integrands
# are scalar per-mode formulas evaluated one k at a time.
ORACLE = BZQuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
ENGINE_TOL = 1e-10


def _three_axis_model():
    """A gapped family whose d(d_hat)/d(lambda) has all three components:
    d = (1 + lam cos k, 0.2 + 0.4 sin k, 0.3 + lam sin k)."""
    rows = lambda lam: ((1.0, 0.2, 0.3), (lam, 0.0, 0.0), (0.0, 0.4, lam))
    slope = lambda lam: ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    return TwoBandModel(rows, slope, 0.5, label="three-axis")


def test_three_axis_model_has_no_counted_winding():
    # its y rows are nonzero, the premise of both root counts fails
    with pytest.raises(DomainError, match="y rows"):
        _three_axis_model().windings([0.5])


def _points(model):
    """The model's singular points at its bound parameter value."""
    return tuple(singular_points(model.zeros([model.lam]))[0][0])


def _edges(model, monkeypatch):
    """The distinct panel edges that the engine's chi_F run passes ``bz_averages`` for the
    model at its bound parameter value."""
    seen = []

    def spy(f, edges, cfg=None):
        seen.append(edges)
        return quadrature.bz_averages(f, edges, cfg)

    monkeypatch.setattr(fidelity, "bz_averages", spy)
    fidelity._engine_averages(model, [model.lam], None, None, chi=True)
    ((row,),) = seen
    return tuple(set(row[~np.isnan(row)].tolist()))


def _count_levels(monkeypatch):
    """A list that gains an entry per ``_gk21`` call from here on: one per refinement level
    of each ``bz_averages`` chunk."""
    levels, original = [], quadrature._gk21

    def counted(*args):
        levels.append(1)
        return original(*args)

    monkeypatch.setattr(quadrature, "_gk21", counted)
    return levels


def _padded(rows):
    """Ragged lists of edges as the matrix ``bz_averages`` takes: rows padded with NaN."""
    width = max(map(len, rows))
    return np.array([tuple(row) + (np.nan,) * (width - len(row)) for row in rows])


def _scalar_ground(model, ref_at):
    """Oracle integrand; ref_at maps one k to the reference BlochVector."""

    def ck(k):
        return complexity_per_mode(ref_at(k), ground_state_bloch(model.d(k)))

    return ck


class TestArrayEngineAgainstOracle:
    @pytest.mark.parametrize("t1,t2", [(1.0, 2.0), (1.0, 0.4),
                                       (1.0, (1 + 1e-3) / (1 - 1e-3))])
    def test_ground_complexity_global_reference(self, t1, t2):
        model = ssh_model(SSHParams(t1, t2))
        ref = GlobalReference(0.9, 0.4)
        oracle = bz_average(_scalar_ground(model, lambda k: ref.bloch), ORACLE,
                            extra_points=(0.0,))
        assert ground_complexity(model, ref) == pytest.approx(oracle, abs=ENGINE_TOL)

    @pytest.mark.parametrize("mu", [1e-2, -1e-2, 0.7])
    def test_ground_complexity_massive_dirac(self, mu):
        model = massive_dirac_model(MassiveDiracParams(mu=mu))
        ref = GlobalReference(0.3, 1.1)
        oracle = bz_average(_scalar_ground(model, lambda k: ref.bloch), ORACLE,
                            extra_points=_points(model))
        assert ground_complexity(model, ref) == pytest.approx(oracle, abs=ENGINE_TOL)

    @pytest.mark.parametrize("t2", [0.6, 1.7])
    def test_ground_complexity_plateau_reference(self, t2):
        model = ssh_model(SSHParams(1.0, t2))
        up_then_down = lambda k: BlochVector(0.0, 0.0, 1.0 if k <= 0.0 else -1.0)
        oracle = bz_average(_scalar_ground(model, up_then_down), ORACLE, extra_points=(0.0,))
        got = ground_complexity(model, plateau_reference())
        assert got == pytest.approx(oracle, abs=ENGINE_TOL)

    def test_excited_piecewise_split(self):
        params = SSHParams(1.0, 1.3)
        bands = BandAssignment.two_interval(0.25 * PI, -1, +1)
        ref = GlobalReference(PI / 12.0, PI / 3.0)
        model = ssh_model(params)

        def ck(k):
            target = BlochVector.from_array(model.d(k))  # upper band
            return complexity_per_mode(ref.bloch, -target if k <= 0.25 * PI else target)

        oracle = bz_average(ck, ORACLE, extra_points=(0.0, 0.25 * PI))
        got = excited_piecewise_complexity(params, bands, ref)
        assert got == pytest.approx(oracle, abs=ENGINE_TOL)

    @pytest.mark.parametrize("model", [
        _three_axis_model(),
        ssh_model(SSHParams(1.0, (1 + 1e-3) / (1 - 1e-3))),
        massive_dirac_model(MassiveDiracParams(mu=1e-2)),
    ], ids=["three-axis", "ssh-1e-3", "md-1e-2"])
    def test_chi_F_components(self, model):
        got = chi_F(model, model.lam)
        for axis in range(3):
            def comp(k):
                return 0.25 * dhat_derivative(model.d(k), model.d_deriv(k))[axis] ** 2

            oracle = bz_average(comp, ORACLE, extra_points=_points(model))
            assert got.components[axis] == pytest.approx(oracle, abs=ENGINE_TOL,
                                                          rel=ENGINE_TOL)
        if model.label == "three-axis":
            assert min(got.components) > 0.0

    @pytest.mark.parametrize("t2", [1.45, 1.55, 2.45, 2.55])
    def test_lossy_chain_on_both_sides_of_the_closings(self, t2):
        params = NonHermitianSSHParams(2.0, t2, 1.0)
        ref = GlobalReference(0.9, 0.4)
        alpha, beta = ref.alpha, ref.beta
        oracle = bz_average(
            lambda k: nh_complexity_per_mode_overlap(params, k, alpha, beta),
            ORACLE, extra_points=(0.0,))
        got = nh_ground_complexity(params, alpha, beta)
        assert got == pytest.approx(oracle, abs=ENGINE_TOL)


class TestArrayEngine:
    def test_rule_is_exact_for_polynomials(self):
        for j in range(32):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            kronrod, gauss = (_GK_NODES ** j) @ _GK_WEIGHTS
            assert kronrod == pytest.approx(exact, abs=1e-15)
            if j < 20:
                assert gauss == pytest.approx(exact, abs=1e-15)

    def test_components_share_panels(self):
        got = bz_average_vec(lambda k: np.stack([np.ones_like(k), np.cos(k) ** 2, np.sin(k)]))
        assert got == pytest.approx([1.0, 0.5, 0.0], abs=1e-13)

    def test_undefined_kernel_raises_convergence_or_its_own_error(self):
        # a node of the first level, computed as the engine places it
        half = 0.5 * PI
        k0 = (-PI + half) + half * _GK_NODES[4]

        def nan_at_k0(k):
            return np.where(k == k0, np.nan, 1.0)

        with pytest.raises(ConvergenceError):
            bz_average_vec(nan_at_k0, extra_points=(0.0,))
        for error in (GapClosedError, ExceptionalPointError):
            def raising(k, error=error):
                if np.any(k == k0):
                    raise error(f"undefined at k={k0!r}")
                return np.ones_like(k)

            with pytest.raises(error):
                bz_average_vec(raising, extra_points=(0.0,))

    def test_budget_exhaustion_raises_with_an_estimate(self):
        cfg = BZQuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as info:
            bz_average_vec(lambda k: np.sin(1000.0 * k * k), cfg)
        assert np.isfinite(info.value.estimate)
        assert info.value.error > 0.0

    def test_an_exhausted_run_reports_each_group_error_in_its_own_units(self):
        # the first group is exact and the second, a chirp of size 1e9, is not: each group
        # keeps its own error, which for the chirp is its error as a lone kernel
        cfg = BZQuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
        chirp = lambda k: 1e9 * np.sin(1000.0 * k * k)
        with pytest.raises(ConvergenceError) as both:
            bz_average_vec(lambda k: (np.cos(k) ** 2, chirp(k)), cfg)
        with pytest.raises(ConvergenceError) as alone:
            bz_average_vec(chirp, cfg)
        (c, _), (c_err, chirp_err) = both.value.estimate, both.value.error
        assert c == pytest.approx(0.5, abs=1e-15) and 0.0 <= c_err < 1e-14
        assert chirp_err == alone.value.error and isinstance(alone.value.error, float)

    def test_budget_caps_the_number_of_panels(self):
        cfg = BZQuadratureConfig(max_subdivisions=50)
        points = []

        def f(k):
            points.append(k.size)
            return 1.0 / np.abs(k)

        with pytest.raises(ConvergenceError):
            bz_average_vec(f, cfg, extra_points=(0.0,))
        # two starting panels, then two new panels per bisection
        assert sum(points) <= 21 * (2 + 2 * (50 - 2))

    def test_starting_panels_count_against_the_budget(self):
        # four starting panels: past a budget of one the owner is not converged
        f = lambda k: np.ones_like(k)
        with pytest.raises(ConvergenceError) as info:
            bz_average_vec(f, BZQuadratureConfig(max_subdivisions=1), extra_points=(0.0, 1.0, 2.0))
        assert info.value.estimate == 1.0000000000000002
        assert bz_average_vec(f, BZQuadratureConfig(max_subdivisions=4),
                              extra_points=(0.0, 1.0, 2.0)) == 1.0000000000000002


class TestOwners:
    """bz_averages runs many integrands at once; each owner is its own lone average."""

    KERNELS = [(lambda k: (1.0 + np.cos(k)) / (1.001 + np.cos(k)), (0.0,)),
               (lambda k: np.sqrt(np.abs(k - 0.3)) + np.exp(np.cos(3.0 * k)), (0.3, -1.0)),
               (lambda k: np.cos(k) ** 2, ()),
               (lambda k: 1.0 / (1.2 - np.sin(k)), (0.5 * PI, 0.1, 0.2))]

    def kernel(self, kernels):
        def f(k, owner):
            out = np.empty_like(k)
            for i, (g, _) in enumerate(kernels):
                out[owner == i] = g(k[owner == i])
            return out
        return f

    def test_each_owner_equals_its_lone_average(self, monkeypatch):
        kernels = self.KERNELS * 2
        edges = _padded([points for _, points in kernels])
        alone = [bz_average_vec(g, extra_points=points) for g, points in kernels]
        assert quadrature.bz_averages(self.kernel(kernels), edges) == alone
        monkeypatch.setattr(quadrature, "_MAX_OWNERS", 3)  # three chunks
        assert quadrature.bz_averages(self.kernel(kernels), edges) == alone

    def test_an_owner_sums_its_panels_by_reduceat_in_panel_order(self, monkeypatch):
        # one level: the starting panels are final, and each estimate is the
        # np.add.reduceat sum of their Kronrod integrals in panel order, taken on
        # the owner's panels alone (the sum its convergence test read)
        levels, gk21 = [], quadrature._gk21

        def recorded(f, lo, hi, owner):
            out = gk21(f, lo, hi, owner)
            levels.append((owner, out[0]))
            return out

        monkeypatch.setattr(quadrature, "_gk21", recorded)
        edges = np.array([np.linspace(-3.0, 3.0, 12) + 0.01 * i for i in range(6)])
        got = quadrature.bz_averages(
            lambda k, owner: np.cos(np.outer([0.0, 1.0, 2.0], k)) + 0.01 * owner, edges)
        ((owner, val),) = levels
        want = [np.add.reduceat(val[:, owner == i], [0], axis=1)[:, 0] / (2.0 * PI)
                for i in range(len(edges))]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_budget_is_per_owner(self):
        cfg = BZQuadratureConfig(max_subdivisions=50)
        kernels = [(lambda k: 1.0 / np.abs(k), (0.0,))] + self.KERNELS
        nodes = []

        def f(k, owner):
            nodes.append(owner)
            return self.kernel(kernels)(k, owner)

        runs = quadrature.bz_averages(f, _padded([points for _, points in kernels]), cfg)
        assert isinstance(runs[0], ConvergenceError) and np.isfinite(runs[0].estimate)
        # two starting panels, then two new panels per bisection
        assert np.count_nonzero(np.concatenate(nodes) == 0) <= 21 * (2 + 2 * (50 - 2))
        assert runs[1:] == [bz_average_vec(g, cfg, points) for g, points in self.KERNELS]


class TestGroupedKernel:
    """A kernel that returns a tuple holds each entry to its own tolerance."""

    A = 1.001
    # (1/2 pi) integral of (1 + cos k) / (a + cos k) = 1 - sqrt((a - 1) / (a + 1))
    PEAK = 1.0 - math.sqrt((A - 1.0) / (A + 1.0))

    def peak(self, k):
        return (1.0 + np.cos(k)) / (self.A + np.cos(k))

    def test_small_group_keeps_its_relative_accuracy_beside_a_huge_one(self):
        small, big = bz_average_vec(lambda k: (np.cos(k) ** 2, 1e9 * self.peak(k)))
        assert small == pytest.approx(0.5, rel=1e-10, abs=0.0)
        assert big == pytest.approx(1e9 * self.PEAK, rel=1e-10, abs=0.0)

    def test_peaked_small_group_is_refined_for_its_own_tolerance(self):
        # a tolerance shared with the 1e9 group would allow the peaked
        # group an error of about 0.6
        small, big = bz_average_vec(lambda k: (self.peak(k), 1e9 * np.cos(k) ** 2))
        assert small == pytest.approx(self.PEAK, rel=1e-10, abs=0.0)
        assert big == pytest.approx(0.5e9, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kernel", [
        lambda k: (1.0 + np.cos(k)) / (1.001 + np.cos(k)),
        lambda k: np.stack([np.ones_like(k), np.abs(np.sin(k)), 1.0 / (1.2 - np.cos(k))]),
    ], ids=["scalar", "three-component"])
    def test_one_entry_tuple_equals_the_plain_array_bit_for_bit(self, kernel):
        plain = bz_average_vec(kernel, extra_points=(0.0,))
        (grouped,) = bz_average_vec(lambda k: (kernel(k),), extra_points=(0.0,))
        assert np.array_equal(grouped, plain)

    def test_budget_exhaustion_keeps_an_estimate_per_group(self):
        cfg = BZQuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as info:
            bz_average_vec(lambda k: (np.cos(k) ** 2, np.sin(1000.0 * k * k)), cfg)
        small, wild = info.value.estimate
        assert small == pytest.approx(0.5, abs=1e-12) and np.isfinite(wild)


class TestGradedPanels:
    """The engine's averages beside a gap closing start from graded panel edges."""

    @pytest.mark.parametrize("model,lam", [
        (ssh_model(SSHParams(1.0, 1.0)), 1.0 + 1e-6),
        (ssh_model(SSHParams(1.0, 1.0)), 1.0 - 1e-6),
        (ssh_model(SSHParams(1.0, 1.0)), 1.0 + 1e-8),
        (ssh_model(SSHParams(1.0, 1.0)), 1.0 - 1e-8),
        (massive_dirac_model(MassiveDiracParams()), 1e-8),
    ])
    def test_chi_F_takes_few_refinement_levels(self, model, lam, monkeypatch):
        # bisection from the singular points alone takes about log2(1/delta)
        # levels: 23 at delta = 1e-6, 32 at 1e-8
        levels = _count_levels(monkeypatch)
        (got,) = rows_of(fidelity._engine_averages(model, [lam], None, None, chi=True))
        assert not got.chi.diverged
        assert 1 <= len(levels) <= 8

    def test_negative_coupling_closing_is_graded_at_pi(self, monkeypatch):
        # t2 = -t1 closes the gap at k = pi; bisection toward pi took 23 levels
        levels = _count_levels(monkeypatch)
        (got,) = rows_of(fidelity._engine_averages(ssh_model(SSHParams(1.0, 2.0)), [-1.0 - 1e-6],
                                                   None, None, chi=True))
        assert not got.chi.diverged
        assert 1 <= len(levels) <= 3

    @pytest.mark.parametrize("model", [
        ssh_model(SSHParams(1.0, 1.0)),                          # closed gap
        massive_dirac_model(MassiveDiracParams(mu=0.0)),         # closed gap
        ssh_model(SSHParams(3.0, 1.0)),                          # w = 2
        massive_dirac_model(MassiveDiracParams(mu=1.5)),         # w = 1.5
        massive_dirac_model(MassiveDiracParams(t=0.0, mu=1e-3)),  # flat in k
    ])
    def test_no_edges_without_a_resolvable_scale(self, model, monkeypatch):
        # the derived points of these models are 0 and +-pi, the zone ends
        assert set(_edges(model, monkeypatch)) <= {0.0, -PI, PI}

    def test_edges_grade_geometrically_from_the_gap_scale(self, monkeypatch):
        model = ssh_model(SSHParams(1.0, 1.0 + 1e-6))
        w = ((1.0 + 1e-6) - 1.0) / (1.0 + 1e-6)  # |d(0)| / |d_k d(0)|
        want = [w * 4.0 ** j for j in range(10)]  # w 4^10 > 1
        edges = _edges(model, monkeypatch)
        assert 0.0 in edges and len(edges) == 21  # both contour zeros lie at k = 0
        assert sorted(e for e in edges if 0.0 < e < PI) == pytest.approx(want, rel=1e-8)
        assert sorted(-e for e in edges if -PI < e < 0.0) == pytest.approx(want, rel=1e-8)

    def test_edges_beside_every_singular_point(self, monkeypatch):
        edges = np.asarray(_edges(massive_dirac_model(MassiveDiracParams(mu=1e-3)), monkeypatch))
        for k_s in (0.0, -PI, PI):
            assert np.min(np.abs(np.abs(edges - k_s) - 1e-3)) < 1e-12

    def test_a_point_at_pi_grades_both_zone_ends(self, monkeypatch):
        # t2 = -t1 - 1e-6 puts a contour zero at k = pi, a gap scale w beside it
        model = ssh_model(SSHParams(1.0, 2.0)).at(-1.0 - 1e-6)
        w = 1e-6 / (1.0 + 1e-6)
        edges = np.asarray(_edges(model, monkeypatch))
        for inside in (-PI + w, PI - w):
            assert np.min(np.abs(edges - inside)) < 1e-15

    @staticmethod
    def y_only(mu):
        """d = (0, mu + cos k, 0): the x and z rows vanish, d = 0 at cos k = -mu."""
        rows = lambda lam: ((0.0, lam, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))
        slope = lambda lam: ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        return TwoBandModel(rows, slope, mu, label="y-only")

    def test_rows_without_x_and_z_close_where_d_y_vanishes(self):
        model = self.y_only(0.0)
        assert sorted(_points(model)) == [-0.5 * PI, 0.5 * PI]
        assert model.gap_closed()
        got = chi_F(model, 0.0)
        assert got.diverged and got.total == math.inf and got.components == (math.inf,) * 3

    def test_rows_without_x_and_z_put_their_points_at_the_zeros_of_d_y(self, monkeypatch):
        mu = 1e-6
        model = self.y_only(mu)
        points = sorted(_points(model))
        assert points == pytest.approx([-math.acos(-mu), math.acos(-mu)], rel=1e-15, abs=0.0)
        # a one-component d crosses zero there for every |mu| < 1: the points are
        # edges, with no gap scale to grade by
        assert set(points) <= set(_edges(model, monkeypatch)) and model.gap_closed()

    @pytest.mark.parametrize("k0", [1.0, 0.5 * PI, 3.0])
    def test_a_closing_away_from_zero_is_found_from_the_rows(self, k0, monkeypatch):
        # d = (mu + 2 sin^2((k - k0)/2), 0, sin(k - k0)) closes at k0: graded
        # there the engine takes as few levels as at k0 = 0, and bisection toward
        # k0 from k = 0 took 22-23
        def shifted_dirac(k0):
            rows = lambda mu: ((1.0 + mu, 0.0, 0.0), (-math.cos(k0), 0.0, -math.sin(k0)),
                               (-math.sin(k0), 0.0, math.cos(k0)))
            slope = lambda mu: ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
            return TwoBandModel(rows, slope, 1e-6, label="shifted-dirac")

        at_zero = chi_F(shifted_dirac(0.0), 1e-6).total
        levels = _count_levels(monkeypatch)
        (got,) = rows_of(fidelity._engine_averages(shifted_dirac(k0), [1e-6], None, None,
                                                   chi=True))
        assert not got.chi.diverged and 1 <= len(levels) <= 3
        assert got.chi.total == pytest.approx(at_zero, rel=2e-10)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, -1e-2, -1e-4, -1e-6, -1e-8])
    def test_closed_forms_hold_beside_the_transition(self, delta):
        ref = GlobalReference(0.9, 0.4)
        params = SSHParams(1.0, 1.0 + delta)
        model = ssh_model(params)
        assert chi_F(model, params.t2).components[0] == pytest.approx(
            chi_F_ssh_closed(params), rel=1e-6)
        assert ground_complexity(model, ref) == pytest.approx(
            ssh_complexity_closed(params, ref), abs=1e-8)
        assert complexity_derivative(model, ref, params.t2) == pytest.approx(
            ratio_complexity_prime(params.t2, ref), rel=1e-9)
        params = MassiveDiracParams(mu=delta)
        model = massive_dirac_model(params)
        assert chi_F(model, delta).total == pytest.approx(chi_F_md_closed(params), rel=1e-6)
        assert ground_complexity(model, ref) == pytest.approx(
            md_complexity_closed(params, ref.theta), abs=1e-8)
        assert complexity_derivative(model, ref, delta) == pytest.approx(
            md_dC_dmu_analytic(params, ref.theta), rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, -1e-2, -1e-4, -1e-6, -1e-8])
    def test_piecewise_kernel_holds_beside_the_transition(self, delta):
        # the plateau reference: dC/dt2 = -1/pi in the trivial phase, 0 in the
        # topological one; beside the transition the kernel peaks at 1/|delta|
        t2 = 1.0 + delta
        got = complexity_derivative(ssh_model(SSHParams(1.0, t2)), plateau_reference(), t2)
        assert got == pytest.approx(0.0 if delta > 0 else -1.0 / PI, abs=1e-15)
