"""Model-zoo tests: substitution values, periodicity, derivatives, parity."""

import math

import numpy as np
import pytest

from twoband import (CooperPairBoxParams, DomainError, DualSSHParams, GlobalReference,
                     MassiveDiracParams, NonHermitianSSHParams, SpecError, SSHParams,
                     cooper_pair_box_model, dual_pair, ground_complexity,
                     massive_dirac_model, nh_ssh_bloch_hamiltonian, ssh_model)
from twoband import models
from twoband.models import MODELS, singular_points
from twoband.sweeps import SweepSpec, run_sweep
from twoband.topology import dual_windings, winding_cross_product, winding_log_derivative

PI = math.pi
KGRID = np.linspace(-PI, PI, 128, endpoint=False)


class TestSSH:
    def test_gap_closes_at_critical_point(self):
        d = ssh_model(SSHParams(1.0, 1.0)).d(0.0)
        assert np.allclose(d, 0.0)

    def test_substitution_at_k_pi(self):
        d = ssh_model(SSHParams(2.0, 1.0)).d(PI)
        assert np.allclose(d, [3.0, 0.0, 0.0])
        assert np.linalg.norm(d) == pytest.approx(3.0)

    def test_magnitude_on_grid(self):
        model = ssh_model(SSHParams(1.0, 2.0))
        ks = np.linspace(-PI, PI, 64)
        mags = np.linalg.norm(model.d(ks), axis=0)
        assert np.allclose(mags, np.sqrt(5.0 - 4.0 * np.cos(ks)), atol=1e-12)

    def test_parity_of_components(self):
        d_plus = ssh_model(SSHParams(1.3, 0.8)).d(KGRID)
        d_minus = ssh_model(SSHParams(1.3, 0.8)).d(-KGRID)
        assert np.allclose(d_plus[0], d_minus[0], atol=1e-14)   # x even
        assert np.allclose(d_plus[2], -d_minus[2], atol=1e-14)  # z odd

    def test_rejects_nonpositive_hoppings(self):
        with pytest.raises(DomainError):
            SSHParams(0.0, 1.0)
        with pytest.raises(DomainError):
            SSHParams(1.0, -2.0)


class TestMassiveDirac:
    def test_gap_closing_point(self):
        assert np.allclose(massive_dirac_model(MassiveDiracParams(mu=0.0)).d(0.0), 0.0)

    def test_substitution(self):
        d = massive_dirac_model(MassiveDiracParams(t=1.0, mu=2.0)).d(0.5 * PI)
        assert np.allclose(d, [1.0, 0.0, 2.0])

    def test_eigenvalues_on_grid(self):
        mu = 0.7
        model = massive_dirac_model(MassiveDiracParams(mu=mu))
        mags = np.linalg.norm(model.d(KGRID), axis=0)
        assert np.allclose(mags, np.sqrt(np.sin(KGRID) ** 2 + mu * mu), atol=1e-12)

    def test_y_component_identically_zero(self):
        model = massive_dirac_model(MassiveDiracParams(mu=1.5))
        assert np.all(model.d(KGRID)[1] == 0.0)


class TestDualPair:
    def test_self_dual_point_coincides(self):
        m1, m2 = dual_pair(DualSSHParams(t=1.3, r=1.0))
        assert np.max(np.abs(m1.d(KGRID) - m2.d(KGRID))) < 1e-15

    def test_family_one_is_ssh_with_scaled_intercell(self):
        m1, _ = dual_pair(DualSSHParams(t=1.0, r=2.0))
        ref = ssh_model(SSHParams(1.0, 2.0))
        assert np.allclose(m1.d(KGRID), ref.d(KGRID), atol=1e-15)

    def test_family_two_is_ssh_with_inverse_ratio(self):
        _, m2 = dual_pair(DualSSHParams(t=1.0, r=2.0))
        ref = ssh_model(SSHParams(1.0, 0.5))
        assert np.allclose(m2.d(KGRID), ref.d(KGRID), atol=1e-15)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            DualSSHParams(1.0, 0.0)
        with pytest.raises(DomainError):
            DualSSHParams(1.0, -1.0)


class TestCooperPairBox:
    def test_gap_closes_at_half_gate_charge_and_half_flux(self):
        # k is the flux angle pi * Phi/Phi0: half a flux quantum sits at k = pi/2
        model = cooper_pair_box_model(CooperPairBoxParams(Ej=1.0, Ecc=2.0, ng=0.5))
        assert np.allclose(model.d(0.5 * PI), 0.0, atol=1e-15)

    def test_zero_gate_charge(self):
        model = cooper_pair_box_model(CooperPairBoxParams(Ej=1.0, Ecc=3.0, ng=0.0))
        assert model.d(0.3)[2] == pytest.approx(1.5)

    def test_zero_flux_x_component(self):
        model = cooper_pair_box_model(CooperPairBoxParams(Ej=1.0, Ecc=1.0))
        assert model.d(0.0)[0] == pytest.approx(-1.0)

    def test_rejects_nonpositive_energies(self):
        with pytest.raises(DomainError):
            CooperPairBoxParams(Ej=0.0, Ecc=1.0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: SSHParams(v, 1.0), lambda v: SSHParams(1.0, v),
        lambda v: DualSSHParams(v, 2.0), lambda v: DualSSHParams(1.0, v),
        lambda v: CooperPairBoxParams(v, 1.0), lambda v: CooperPairBoxParams(1.0, v),
        lambda v: CooperPairBoxParams(1.0, 1.0, ng=v),
    ], ids=["ssh-t1", "ssh-t2", "dual-t", "dual-r", "cpb-Ej", "cpb-Ecc", "cpb-ng"])
    def test_is_a_domain_error(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_a_non_finite_fixed_value_is_a_spec_error_of_the_sweep(self):
        with pytest.raises(SpecError):
            SweepSpec(model="ssh", sweep=("t1", 0.5, 1.5, 3), fixed={"t2": math.inf})


class TestNonHermitianHamiltonian:
    def test_hermitian_limit_matches_rotated_ssh(self):
        params = NonHermitianSSHParams(1.2, 0.7, 0.0)
        for k in (-2.0, 0.3, 1.7):
            h = nh_ssh_bloch_hamiltonian(params, k)
            assert np.allclose(h, h.T)
            assert np.max(np.abs(h.imag)) == 0.0
            d = ssh_model(SSHParams(1.2, 0.7)).d(k)
            expected = np.array([[d[2], d[0]], [d[0], -d[2]]])
            assert np.allclose(h.real, expected, atol=1e-14)

    def test_exceptional_point_values(self):
        h = nh_ssh_bloch_hamiltonian(NonHermitianSSHParams(2.0, 2.5, 1.0), 0.0)
        r1, r3 = h[0, 1], h[0, 0]
        assert r1 == pytest.approx(-0.5)
        assert r3 == pytest.approx(0.5j)
        assert r1 ** 2 + r3 ** 2 == pytest.approx(0.0, abs=1e-15)

    def test_traceless(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t1, t2 = rng.uniform(0.2, 3.0, size=2)
            gamma = rng.uniform(-2.0, 2.0)
            k = rng.uniform(-PI, PI)
            h = nh_ssh_bloch_hamiltonian(NonHermitianSSHParams(t1, t2, gamma), k)
            assert np.trace(h) == 0.0

    def test_gap_closing_couplings(self):
        # t2 = t1 -+ gamma/2 closes at k = 0, t2 = -t1 -+ gamma/2 at k = +-pi
        assert NonHermitianSSHParams(2.0, 1.0, 1.0).gap_closing_couplings() == (
            -2.5, -1.5, 1.5, 2.5)
        assert NonHermitianSSHParams(2.0, 1.0, -1.0).gap_closing_couplings() == (
            -2.5, -1.5, 1.5, 2.5)


# Each Hermitian registry family and swept parameter at its gap closing.
# The SSH chains also close at k = pi, where a swept coupling reaches -t1.
_TRANSITIONS = [("ssh", "t2", 1.0), ("ssh", "t1", 2.0), ("massive-dirac", "mu", 0.0),
                ("dual-ssh", "r", 1.0), ("cooper-pair-box", "ng", 0.5),
                ("ssh", "t2", -1.0), ("ssh", "t1", -2.0), ("dual-ssh", "r", -1.0)]


# Every Hermitian family, both dual families included, swept in each of its
# parameters, and the values at which its gap closes.
_DUAL_I, _DUAL_II = dual_pair(DualSSHParams(1.0, 2.0))
_FAMILIES = [
    pytest.param(MODELS["ssh"].model({}, "t2"), (1.0, -1.0), id="ssh-t2"),
    pytest.param(MODELS["ssh"].model({}, "t1"), (2.0, -2.0), id="ssh-t1"),
    pytest.param(MODELS["massive-dirac"].model({}), (0.0,), id="massive-dirac"),
    pytest.param(_DUAL_I, (1.0, -1.0), id="dual-ssh"),
    pytest.param(_DUAL_II, (1.0, -1.0), id="dual-ssh-II"),
    pytest.param(MODELS["cooper-pair-box"].model({}), (0.5,), id="cooper-pair-box"),
]


class TestModelContract:
    @pytest.mark.parametrize("factory,lams", [
        (lambda lam: ssh_model(SSHParams(1.0, lam)), (0.3, 0.8, 1.0, 1.5, 2.5)),
        (lambda lam: massive_dirac_model(MassiveDiracParams(mu=lam)), (-2.0, -0.4, 0.1, 0.9, 3.0)),
        (lambda lam: dual_pair(DualSSHParams(1.0, lam))[0], (0.2, 0.7, 1.0, 1.6, 4.0)),
        (lambda lam: dual_pair(DualSSHParams(1.0, lam))[1], (0.2, 0.7, 1.0, 1.6, 4.0)),
        (lambda lam: cooper_pair_box_model(CooperPairBoxParams(1.0, 1.0, ng=lam)),
         (-0.5, 0.0, 0.3, 0.5, 1.0)),
    ])
    def test_periodicity_and_analytic_derivative(self, factory, lams):
        h = 1e-6
        for lam in lams:
            model = factory(lam)
            assert np.max(np.abs(model.d(KGRID) - model.d(KGRID + 2.0 * PI))) < 1e-12
            fd = (model.at(model.lam + h).d(KGRID) - model.at(model.lam - h).d(KGRID)) / (2.0 * h)
            assert np.max(np.abs(fd - model.d_deriv(KGRID))) < 1e-7

    @pytest.mark.parametrize("name,parameter,transition", _TRANSITIONS)
    def test_gap_closed_at_the_transition_only(self, name, parameter, transition):
        model = MODELS[name].model({}, parameter)
        assert model.at(transition).gap_closed()
        for lam in (transition - 1e-6, transition + 1e-6, model.lam):
            assert not model.at(lam).gap_closed()

    @pytest.mark.parametrize("model,transitions", _FAMILIES)
    def test_gap_closes_only_at_the_singular_points(self, model, transitions):
        # for every lambda |d| is smallest at a point derived from the rows, so
        # a gap can close nowhere else; at a transition it closes there, |d|
        # grows at least linearly away from the points and their images (panel
        # edges, where no quadrature node lies), and an average through the
        # transition meets no mode with |d| < GAP_EPS
        window = np.linspace(-3.0, 3.0, 24)  # negative couplings; no transition, no 0
        lams = np.concatenate((window, transitions))
        ks = np.linspace(-PI, PI, 4097)
        points, gaps, _ = singular_points(model.zeros(lams))
        for lam, gap in zip(lams, gaps):
            norm = np.sqrt(np.sum(model.at(lam).d(ks) ** 2, axis=0))
            assert np.min(gap) <= np.min(norm) + 1e-12, lam
        assert model.zeros(lams).closed.tolist() == [False] * window.size + [True] * len(transitions)
        for lam, k_s in zip(transitions, points[window.size:]):
            edges = np.concatenate((k_s, k_s - 2.0 * PI * np.sign(k_s)))
            distance = np.min(np.abs(ks[:, None] - edges[None, :]), axis=1)
            norm = np.sqrt(np.sum(model.at(lam).d(ks) ** 2, axis=0))
            assert np.all(norm >= 0.5 * distance)
            value = ground_complexity(model.at(lam), GlobalReference(0.9, 0.4))
            assert 0.0 <= value <= 1.0

    def test_at_rebinds_parameter(self):
        model = ssh_model(SSHParams(1.0, 1.0))
        assert np.allclose(model.at(2.0).d(KGRID), ssh_model(SSHParams(1.0, 2.0)).d(KGRID))


_ENTRY_PARAMETERS = [(name, parameter) for name, entry in MODELS.items()
                     for parameter in entry.parameters]


class TestRegistry:
    def test_names(self):
        assert tuple(MODELS) == ("ssh", "massive-dirac", "dual-ssh", "cooper-pair-box", "nh-ssh")
        assert [n for n, e in MODELS.items() if not e.hermitian] == ["nh-ssh"]

    @pytest.mark.parametrize("name,parameter", _ENTRY_PARAMETERS)
    def test_every_builder_validates_at_the_defaults(self, name, parameter):
        entry = MODELS[name]
        SweepSpec(model=name, sweep=(parameter, 0.5, 1.5, 3))
        assert isinstance(entry.params({}), entry.params_type)
        if not entry.hermitian:
            return
        model = entry.model({}, parameter)
        assert model.lam == entry.defaults[parameter]
        assert np.min(np.linalg.norm(model.d(KGRID), axis=0)) > 1e-3

    @pytest.mark.parametrize("name,parameter", [
        (name, parameter) for name, parameter in _ENTRY_PARAMETERS if MODELS[name].hermitian])
    def test_rows_are_affine_in_every_sweepable_parameter(self, name, parameter):
        # the models' d(d)/d(lambda) is the difference of the rows at 1 and 0
        entry = MODELS[name]
        values = entry.values({})
        rows = lambda lam: np.array(entry.rows(**{**values, parameter: lam}))
        for lam in (-2.5, -0.3, 0.5, 1.7, 4.0):
            assert np.allclose(rows(lam), rows(0.0) + lam * (rows(1.0) - rows(0.0)),
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name,fixed,expected", [
        ("ssh", {"t1": 1.0, "t2": 2.0}, 1),
        ("ssh", {"t1": 2.0, "t2": 1.0}, 0),
        ("dual-ssh", {"t": 1.5, "r": 2.0}, 1),
        ("dual-ssh", {"t": 1.5, "r": 0.5}, 0),
    ])
    def test_contour_is_the_winding_of_the_model(self, name, fixed, expected):
        entry = MODELS[name]
        assert winding_log_derivative(entry.model(fixed).contour) == expected
        assert winding_cross_product(entry.model(fixed)) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("name,parameter", [
        (name, parameter) for name, parameter in _ENTRY_PARAMETERS if MODELS[name].hermitian])
    def test_every_hermitian_family_has_zero_y_rows(self, name, parameter):
        # a contour family winds as d_x - i d_z and a planar one as the x-y
        # plane: both windings in TwoBandModel.windings rest on d_y = 0
        entry = MODELS[name]
        values = entry.values({})
        for lam in (0.0, 1.0):
            assert np.all(np.array(entry.rows(**{**values, parameter: lam}))[:, 1] == 0.0)


def _grid_winding(entry, fixed, parameter, lam):
    """The grid oracle of TwoBandModel.windings: NaN on a closed gap."""
    model = entry.model(fixed, parameter).at(lam)
    if model.gap_closed():
        return math.nan
    if model.rotated:
        return float(winding_log_derivative(model.contour))
    return winding_cross_product(model)


# Each Hermitian family, two values of its swept parameter, and the analytic
# |d_k d| at the singular points of each value as a function of that parameter.
_SLOPES = [
    (ssh_model(SSHParams(0.7, 1.3)), (1.3, -2.9), abs),
    (massive_dirac_model(MassiveDiracParams(1.7, 0.3)), (0.3, -1e-9), lambda mu: 1.7),
    (dual_pair(DualSSHParams(1.3, 2.9))[0], (2.9, 0.4), lambda r: r * 1.3),
    (dual_pair(DualSSHParams(1.3, 2.9))[1], (2.9, 0.4), lambda r: 1.3 / r),
    (cooper_pair_box_model(CooperPairBoxParams(0.9, 1.1, 0.2)), (0.2, 0.5), lambda ng: 0.9),
]


class TestExactSlope:
    def test_every_hermitian_family_is_covered(self):
        labels = {model.label for model, _, _ in _SLOPES}
        assert labels == {name for name, e in MODELS.items() if e.hermitian} | {"dual-ssh-II"}

    @pytest.mark.parametrize("model,lams,slope", _SLOPES, ids=[m.label for m, _, _ in _SLOPES])
    def test_singular_gaps_give_the_analytic_k_slope_to_one_ulp(self, model, lams, slope):
        points, _, got = singular_points(model.zeros(lams))
        assert points.shape == got.shape == (len(lams), 2)
        for row, lam in zip(got, lams):
            want = slope(lam)
            assert np.all(np.abs(row - want) <= np.spacing(want)), (lam, row, want)

    @pytest.mark.parametrize("name,lams,where", [
        ("massive-dirac", (1e-12, -1e-12), PI),
        ("cooper-pair-box", (0.5 + 1e-12, 0.5 - 1e-12), 0.5 * PI),
    ], ids=["massive-dirac", "cooper-pair-box"])
    def test_singular_gaps_are_exact_at_a_real_or_imaginary_zero(self, name, lams, where):
        # cos k_s and sin k_s are exactly +-1 and 0 there, so no other row's rounding
        # enters the gap
        model = MODELS[name].model({})
        points, gaps, _ = singular_points(model.zeros(lams))
        for lam, row, gap in zip(lams, points, gaps):
            at = np.abs(row) == where
            assert at.any(), (lam, row)
            assert np.all(gap[at] == abs(model.rows(lam)[0][2])), (lam, gap)


class TestRootCountWinding:
    """TwoBandModel.windings counts the contour's zeros; the grids are its oracle."""

    @pytest.mark.parametrize("name,fixed,parameter,lams", [
        ("ssh", {"t1": 1.0}, "t2", [0.0, 0.5, 2.0]),  # t2 = 0: p2 = 0, f = t1
        ("ssh", {"t2": 1.0}, "t1", [0.0, 0.5, 2.0]),  # t1 = 0: p0 = p1 = 0, f = -e^{ik}
        ("ssh", {"t1": 1.0}, "t2", [-3.0, -1.5, -1.0, -0.75, -0.25]),  # both sides of -t1
        ("ssh", {"t2": 1.5}, "t1", [-2.0, -1.5, -1.0, 0.5, 1.5, 2.0]),
        ("ssh", {"t1": 1.0}, "t2", [1.0 - 5e-13, 1.0, 1.0 + 5e-13]),
        ("ssh", {"t1": 1.0}, "t2", [-1.0 - 5e-13, -1.0, -1.0 + 5e-13]),
        ("ssh", {"t1": 0.75}, "t2", [0.75 - 5e-13, 0.75 + 5e-13, -0.75 - 5e-13, -0.75 + 5e-13]),
        ("dual-ssh", {}, "r", [1.0 - 5e-13, 1.0, 1.0 + 5e-13]),
        ("dual-ssh", {"t": 1.5}, "r", [0.3, 0.5, 2.0, 4.0]),
        ("massive-dirac", {}, "mu", [-1.0, 0.0, 1e-3, 1.0]),
        ("cooper-pair-box", {}, "ng", [0.0, 0.5, 0.75]),
    ])
    def test_root_count_equals_the_grid_oracle(self, name, fixed, parameter, lams):
        entry = MODELS[name]
        got = entry.model(fixed, parameter).windings(lams)
        want = [_grid_winding(entry, fixed, parameter, lam) for lam in lams]
        assert got.shape == (len(lams),)
        for g, w in zip(got, want):
            assert (math.isnan(g) and math.isnan(w)) or g == pytest.approx(w, abs=1e-9)
        assert all(math.isnan(g) or g == round(g) for g in got)

    def test_a_sweep_finds_the_contour_zeros_once(self, monkeypatch):
        # the rows' zeros serve the singular points of the averages and the count
        calls, contour_zeros = [], models.contour_zeros

        def counted(rows, n):
            calls.append(n)
            return contour_zeros(rows, n)

        monkeypatch.setattr(models, "contour_zeros", counted)
        spec = SweepSpec("ssh", ("t2", 0.5, 1.5, 5), {"t1": 1.0},
                         quantities=("complexity", "winding"))
        windings = [rec.values["winding"] for rec in run_sweep(spec)]
        assert calls == [5]
        assert windings[:2] + windings[3:] == [0.0, 0.0, 1.0, 1.0] and math.isnan(windings[2])

    def test_dual_family_two_counts_as_the_grid_oracle(self):
        rs = [0.3, 0.5, 1.0, 2.0, 4.0]
        got = dual_pair(DualSSHParams(1.0, 2.0))[1].windings(rs)
        for r, nu in zip(rs, got):
            if r == 1.0:
                assert math.isnan(nu)
            else:
                assert nu == dual_windings(DualSSHParams(1.0, r))[1]
