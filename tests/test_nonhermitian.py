"""Biorthogonal complexity tests for the lossy chain."""

import math

import mpmath as mp
import numpy as np
import pytest

from twoband import (BlochVector, DomainError, ExceptionalPointError, GapClosedError,
                     GlobalReference, InsufficientDataError, NonHermitianSSHParams,
                     NormalizationError, SSHParams, SweepSpec, bikrylov_basis,
                     biorthogonal_ground, complexity_per_mode, detect_cusps,
                     ground_complexity, ground_state_bloch, nh_complexity_derivative,
                     nh_complexity_per_mode, nh_complexity_per_mode_overlap,
                     nh_ground_complexity, nh_ssh_bloch_hamiltonian, param_derivative,
                     run_sweep, ssh_complexity_closed, ssh_model)
from twoband import nonhermitian, quadrature
from twoband.models import MODELS, trig_sum
from twoband.nonhermitian import _nh_averages, _nh_weight_kernel
from twoband.quadrature import graded_edges
from test_nonhermitian_mpmath import _mp_ck

PI = math.pi
AMP = 1.0 / math.sqrt(2.0)


class TestBiorthogonalGround:
    def test_hermitian_limit_reduces_to_ground_state(self):
        params = NonHermitianSSHParams(2.0, 1.0, 0.0)
        k = 0.9
        pair = biorthogonal_ground(nh_ssh_bloch_hamiltonian(params, k))
        assert np.allclose(pair.left, pair.right.conj(), atol=1e-14)
        # Bloch vector of the right eigenvector matches -d_hat
        psi = pair.right
        bloch = np.array([2.0 * (psi[0].conjugate() * psi[1]).real,
                          2.0 * (psi[0].conjugate() * psi[1]).imag,
                          abs(psi[0]) ** 2 - abs(psi[1]) ** 2])
        expected = ground_state_bloch(ssh_model(SSHParams(2.0, 1.0)).d(k)).as_array()
        assert np.allclose(bloch, expected, atol=1e-12)

    def test_eigenpair_residuals(self):
        params = NonHermitianSSHParams(2.0, 1.0, 0.5)
        h = nh_ssh_bloch_hamiltonian(params, PI / 3.0)
        pair = biorthogonal_ground(h)
        assert np.linalg.norm(h @ pair.right - pair.eigenvalue * pair.right) < 1e-10
        assert np.linalg.norm(pair.left @ h - pair.eigenvalue * pair.left) < 1e-10
        assert pair.pairing() == pytest.approx(1.0, abs=1e-10)

    def test_ground_branch_choice_is_global(self):
        params = NonHermitianSSHParams(2.0, 1.0, 1.0)
        for k in np.linspace(-PI, PI, 128):
            pair = biorthogonal_ground(nh_ssh_bloch_hamiltonian(params, float(k)))
            assert pair.eigenvalue.real < 0.0

    def test_exceptional_point_rejected(self):
        h = nh_ssh_bloch_hamiltonian(NonHermitianSSHParams(2.0, 2.5, 1.0), 0.0)
        with pytest.raises(ExceptionalPointError):
            biorthogonal_ground(h)


def _ep_edges(model, lams):
    """The edge matrix that ``_nh_averages`` hands ``bz_averages`` in a C-only run of the
    lossy ``model`` at ``lams``, and whether each row is closed, from its records."""
    seen = []

    def stand_in(f, edges, cfg):
        seen.append(edges)
        return [0.0] * len(edges)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nonhermitian, "bz_averages", stand_in)
        avgs = _nh_averages(model, lams, False, 1.0, 0.0, None)
    (edges,) = seen
    return edges, np.array([avg.closed for avg in avgs])


def _edges(params):
    """The lossy chain's distinct panel edges inside the zone, in order."""
    (row,), _ = _ep_edges(MODELS["nh-ssh"].model(vars(params)), [params.t2])
    return sorted({e for e in row.tolist() if -PI < e < PI})


def _factor_ep_edges(t1, t2, gamma):
    """The oracle: k = 0 and ``graded_edges`` at the zero of each Laurent factor
    F = R1 -+ i R3 = (t1 +- gamma/2) - t2 e^{+-ik}, at s = e^{ik_s} = +-1, graded by
    w = |t1 +- gamma/2 - s t2| / |t2|, floored at 1e-16; a zero at 0 or infinity has none."""
    points, scales = [], []
    for half in (0.5 * gamma, -0.5 * gamma):
        if t1 + half != 0.0 and t2 != 0.0:
            s = math.copysign(1.0, (t1 + half) * t2)
            points.append(0.0 if s > 0.0 else PI)
            scales.append(max(abs(t1 - s * t2 + half) / abs(t2), 1e-16))
    edges = graded_edges(np.array([points]), np.array([scales])) if points else np.empty((1, 0))
    return sorted({e for e in [0.0, *edges[0].tolist()] if -PI < e < PI})


_COUPLINGS = (-3.0, -2.0, -1.25, -0.5, 0.0, 0.3, 1.0, 1.7, 2.5)
_GRID = [(t1, t2, gamma) for t1 in _COUPLINGS for t2 in _COUPLINGS
         for gamma in (-1.5, -0.5, 0.0, 0.7, 2.0)]
_CLOSINGS = [(t1, t2, gamma) for t1, gamma in ((2.0, 1.0), (1.0, 1.5), (-1.0, 0.5), (1.0, -1.0))
             for t2 in NonHermitianSSHParams(t1, 0.0, gamma).gap_closing_couplings()]


class TestDerivedExceptionalPoints:
    """The EPs come from the zeros of R1 -+ i R3 and the slopes from differenced rows."""

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    def test_edges_grade_each_factor_at_its_zero(self, parameter):
        # the chains of one sweep at once, as a sweep grades them
        sweeps = {}
        for t1, t2, gamma in _GRID + _CLOSINGS:
            fixed = {"t1": t1, "t2": t2, "gamma": gamma}
            sweeps.setdefault(tuple((k, v) for k, v in fixed.items() if k != parameter),
                              []).append(fixed[parameter])
        for fixed, lams in sweeps.items():
            model = MODELS["nh-ssh"].model(dict(fixed), parameter)
            for lam, row in zip(lams, _ep_edges(model, lams)[0]):
                params = {**dict(fixed), parameter: lam}
                assert sorted({e for e in row.tolist() if -PI < e < PI}) == _factor_ep_edges(
                    **params), params

    @pytest.mark.parametrize("parameter,want", [
        ("t2", lambda cos, sin: (-cos, sin)), ("gamma", lambda cos, sin: (0.0, 0.5j))])
    def test_differenced_rows_give_the_slopes(self, parameter, want):
        k = np.linspace(-PI, PI, 9)
        for t1, t2, gamma in _GRID[::7]:
            model = MODELS["nh-ssh"].model({"t1": t1, "t2": t2, "gamma": gamma}, parameter)
            dr1, dr_y, dr3 = trig_sum(model.slope(model.lam), np.cos(k), np.sin(k))
            assert dr_y == 0.0
            for got, expected in zip((dr1, dr3), want(np.cos(k), np.sin(k))):
                assert np.array_equal(np.broadcast_to(got, k.shape),
                                      np.broadcast_to(expected, k.shape)), (t1, t2, gamma)

    @pytest.mark.parametrize("lam,k", [(1.0, 0.3), (np.full(5, 1.0), np.linspace(-PI, PI, 5))])
    def test_lossy_rows_have_no_hermitian_d(self, lam, k):
        model = MODELS["nh-ssh"].model({"t1": 2.0, "t2": 1.0, "gamma": 0.5}).at(lam)
        with pytest.raises(DomainError, match="complex Bloch rows"):
            model.d(k)


class TestExceptionalPointGrading:
    """The lossy averages grade their panels toward the EPs at k = 0 and +-pi."""

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    @pytest.mark.parametrize("t2", [1.5, 2.5, -1.5, -2.5])
    def test_closing_row_takes_few_levels(self, monkeypatch, t2, parameter):
        # the closings of t1 = 2, gamma = 1: the EP sits at k = 0 for t2 > 0
        # and at k = +-pi for t2 < 0; bisection from [-pi, 0, pi] took 51-54 levels
        levels = []
        original = quadrature._gk21

        def counted(*args):
            levels.append(args[1].size)
            return original(*args)

        monkeypatch.setattr(quadrature, "_gk21", counted)
        ref = GlobalReference(0.9, 0.4)
        nh_complexity_derivative(NonHermitianSSHParams(2.0, t2, 1.0), parameter,
                                 ref.alpha, ref.beta)
        assert len(levels) <= 6

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_each_factor_grades_geometrically_from_its_own_scale(self, sign):
        # t2 = 2.4: R1 - i R3 = 2.5 - t2 e^{ik} has its zero beside the circle, w = 0.1 / 2.4,
        # and R1 + i R3 = 1.5 - t2 e^{-ik} farther, w = 0.9 / 2.4; both at k = 0 for
        # t2 > 0 and at +-pi for t2 < 0
        params = NonHermitianSSHParams(2.0, sign * 2.4, 1.0)
        assert _ep_edges(MODELS["nh-ssh"].model(vars(params)), [params.t2])[0][0, 0] == 0.0  # k = 0
        edges = _edges(params)
        inside = [e for e in edges if e != 0.0]
        assert 0.0 in edges and len(inside) == 8
        offsets = sorted(abs(e) if sign > 0 else PI - abs(e) for e in inside)
        near, far = 0.1 / 2.4, 0.9 / 2.4
        assert offsets == pytest.approx(sorted(2 * [near, 4.0 * near, 16.0 * near, far]),
                                        rel=1e-12)

    def test_closing_grades_down_to_the_floor(self):
        edges = [e for e in _edges(NonHermitianSSHParams(2.0, 2.5, 1.0)) if e > 0.0]
        assert min(edges) == 1e-16 and max(edges) < 1.0 < 4.0 * max(edges)

    @pytest.mark.parametrize("t2,gamma", [(0.0, 1.0), (0.0, 0.0)])
    def test_no_grading_without_loss_or_hopping(self, t2, gamma):
        assert _edges(NonHermitianSSHParams(2.0, t2, gamma)) == [0.0]

    @pytest.mark.parametrize("t1,t2", [(2.0, 1.5), (2.0, -1.5), (-1.0, 1.25), (1.0, 1.0 + 1e-9)])
    def test_a_chain_without_loss_is_graded_at_the_ssh_gap_scale(self, t1, t2):
        # both factors, t1 - t2 e^{+-ik}, vanish beside s = sign(t1 t2) = e^{ik_s}
        s = math.copysign(1.0, t1 * t2)
        want = graded_edges(np.array([[0.0 if s > 0.0 else PI]]),
                            np.array([[abs(t1 - s * t2) / abs(t2)]]))
        assert _edges(NonHermitianSSHParams(t1, t2, 0.0)) == sorted(
            {e for e in [0.0, *want[0].tolist()] if -PI < e < PI})

    @pytest.mark.parametrize("t2", [1.0 + s * d for s in (1.0, -1.0)
                                    for d in (1e-6, 1e-8, 1e-10, 1e-12)])
    def test_a_chain_without_loss_beside_its_closing_is_the_ssh_chain(self, monkeypatch, t2):
        # both factors t1 - t2 e^{+-ik} are graded at |t1 - t2| / |t2|: no bisection toward k = 0
        levels = []
        original = quadrature._gk21

        def counted(*args):
            levels.append(args[1].size)
            return original(*args)

        monkeypatch.setattr(quadrature, "_gk21", counted)
        ref = GlobalReference(0.9, 0.4)
        got = nh_ground_complexity(NonHermitianSSHParams(1.0, t2, 0.0), ref.alpha, ref.beta)
        assert len(levels) <= 2
        assert got == pytest.approx(ssh_complexity_closed(SSHParams(1.0, t2), ref), abs=1e-13)

    @pytest.mark.parametrize("fixed,lams,closed", [
        # gamma = 0: both factors t1 - t2 e^{+-ik} vanish at k = 0 (t2 = t1) or at k = pi
        # and -pi, one point (t2 = -t1): a double zero of R^2
        ({"t1": 2.0, "gamma": 0.0}, [-2.0, -1.5, 1.5, 2.0], [True, False, False, True]),
        # t1 = 0, t2 = +-gamma/2: the factors vanish at k = 0 and at pi, two EPs
        ({"t1": 0.0, "gamma": 2.0}, [-1.0, 1.0], [False, False]),
        ({"t1": 2.0, "gamma": 1.0}, [1.5, 2.5, -1.5, -2.5], [False] * 4),
    ])
    def test_only_a_double_zero_of_r2_closes_the_gap(self, fixed, lams, closed):
        assert _ep_edges(MODELS["nh-ssh"].model(fixed, "t2"), lams)[1].tolist() == closed

    @pytest.mark.parametrize("k", [3e-21, -3e-21])
    def test_mode_beside_an_ep_is_regular(self, k):
        # |R^2| is about 7.5e-21 here: only R^2 = 0 exactly is exceptional
        params = NonHermitianSSHParams(2.0, 2.5, 1.0)
        on = nh_complexity_per_mode_overlap(params, k, 0.6, 0.8)
        assert nh_complexity_per_mode(params, k, 0.6, 0.8) == pytest.approx(on, abs=1e-12)
        assert on == pytest.approx(nh_complexity_per_mode(params, 1e-12, 0.6, 0.8), abs=1e-5)


class TestBiKrylovBasis:
    def test_polar_seed(self):
        basis = bikrylov_basis(1.0, 0.0)
        assert np.allclose(basis.right1, [0.0, -1.0])
        assert np.allclose(basis.left1, [0.0, -1.0])

    def test_equatorial_seed_orthogonality(self):
        basis = bikrylov_basis(AMP, AMP)
        assert complex(basis.left1 @ basis.right0) == pytest.approx(0.0, abs=1e-15)
        assert complex(basis.left0 @ basis.right1) == pytest.approx(0.0, abs=1e-15)

    def test_random_seeds_satisfy_biorthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.normal(size=4)
            alpha = complex(z[0], z[1])
            beta = complex(z[2], z[3])
            n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            basis = bikrylov_basis(alpha / n, beta / n)
            gram = np.array([[basis.left0 @ basis.right0, basis.left0 @ basis.right1],
                             [basis.left1 @ basis.right0, basis.left1 @ basis.right1]])
            assert np.max(np.abs(gram - np.eye(2))) < 1e-14

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(NormalizationError):
            bikrylov_basis(0.5, 0.5)

    def test_rejects_a_nan_amplitude(self):
        with pytest.raises(NormalizationError):
            bikrylov_basis(math.nan, 0.0)

    def test_rejects_vanishing_amplitudes(self):
        params = NonHermitianSSHParams(2.0, 1.0, 0.5)
        for call in (lambda: nh_complexity_per_mode(params, 0.3, 1e-13, 0.0),
                     lambda: nh_ground_complexity(params, 0.0, 1e-13j)):
            with pytest.raises(NormalizationError, match="cannot both vanish"):
                call()

    def test_rejects_non_finite_amplitudes(self):
        params = NonHermitianSSHParams(2.0, 1.0, 1.0)
        for alpha, beta in ((math.nan, 1.0), (1.0, complex(math.inf, 0.0))):
            with pytest.raises(NormalizationError):
                nh_ground_complexity(params, alpha, beta)
            with pytest.raises(NormalizationError):
                nh_complexity_per_mode(params, 0.3, alpha, beta)


class TestPerMode:
    def test_hermitian_reduction_matches_bloch_overlap(self):
        params = NonHermitianSSHParams(1.3, 0.8, 0.0)
        theta, phi = 0.9, 0.4
        ref = GlobalReference(theta, phi)
        for k in (-2.2, 0.1, 1.9):
            target = ground_state_bloch(ssh_model(SSHParams(1.3, 0.8)).d(k))
            expected = complexity_per_mode(ref.bloch, target)
            got = nh_complexity_per_mode(params, k, ref.alpha, ref.beta)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_reference_equal_to_ground_state_gives_zero(self):
        params = NonHermitianSSHParams(1.3, 0.8, 0.0)
        k = 0.7
        pair = biorthogonal_ground(nh_ssh_bloch_hamiltonian(params, k))
        got = nh_complexity_per_mode(params, k, pair.right[0], pair.right[1])
        assert got == pytest.approx(0.0, abs=1e-12)

    # at t2 = 0 the rows' cos and sin coefficients are 0, so R1 and R3 are constants
    @pytest.mark.parametrize("t2,gamma", [(1.0, 1.0), (0.0, 0.0), (0.0, 1.0)])
    def test_explicit_and_overlap_paths_agree(self, t2, gamma):
        params = NonHermitianSSHParams(2.0, t2, gamma)
        got = nh_complexity_per_mode(params, 0.25 * PI, 0.5, 0.5)
        oracle = nh_complexity_per_mode_overlap(params, 0.25 * PI, 0.5, 0.5)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_dual_paths_agree_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = NonHermitianSSHParams(*rng.uniform(0.5, 3.0, size=2),
                                           gamma=rng.uniform(-1.5, 1.5))
            k = float(rng.uniform(-PI, PI))
            z = rng.normal(size=4)
            alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
            a = nh_complexity_per_mode(params, k, alpha, beta)
            b = nh_complexity_per_mode_overlap(params, k, alpha, beta)
            assert 0.0 <= a <= 1.0
            assert a == pytest.approx(b, abs=1e-10)

    def test_exceptional_point_rejected(self):
        with pytest.raises(ExceptionalPointError):
            nh_complexity_per_mode(NonHermitianSSHParams(2.0, 2.5, 1.0), 0.0, AMP, AMP)

    def test_vanishing_r1_with_negative_re_r3_is_not_exceptional(self):
        # at k = -arccos(t1/t2), R1 = 0 and R = -R3, so R + R3 = 0; the ground
        # vector (R - R3, -R1) ~ (1, 0) is regular and C_k is |beta|^2 around it
        params = NonHermitianSSHParams(1.0, 2.0, 1.0)
        k = -PI / 3.0
        for node in (k - 1e-9, k, k + 1e-9):
            assert nh_complexity_per_mode(params, node, 0.6, 0.8) == pytest.approx(0.64, abs=1e-8)
        assert nh_complexity_per_mode(params, k, 0.6, 0.8) == pytest.approx(0.64, abs=1e-14)
        assert nh_complexity_per_mode_overlap(params, k, 0.6, 0.8) == pytest.approx(0.64, abs=1e-14)
        h = nh_ssh_bloch_hamiltonian(params, k)
        pair = biorthogonal_ground(h)
        assert pair.pairing() == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(h @ pair.right - pair.eigenvalue * pair.right) < 1e-14


def _kernel(t1, t2, gamma, parameter, alpha, beta, ks):
    """The stack (C_k, dC_k/d(parameter)) of the averages' kernel at the nodes ``ks``."""
    fixed = {"t1": t1, "t2": t2, "gamma": gamma}
    kernel = _nh_weight_kernel(MODELS["nh-ssh"].model(fixed, parameter), [fixed[parameter]],
                               True, alpha, beta)
    ks = np.asarray(ks, dtype=float)
    return kernel(ks, np.zeros(ks.size, dtype=int))


def _node_rows(name):
    """(t1, t2, gamma, parameter, alpha, beta, nodes) of a family of kernel checks."""
    if name == "random":
        rng = np.random.default_rng(34)
        rows = []
        for parameter in ("t2", "gamma"):
            for _ in range(10):
                t1, t2, gamma = *rng.uniform(-3.0, 3.0, size=2), rng.uniform(-2.0, 2.0)
                theta, phi = rng.uniform(0.0, PI), rng.uniform(0.0, 2.0 * PI)
                ref = GlobalReference(float(theta), float(phi))
                rows.append((t1, t2, gamma, parameter, ref.alpha, ref.beta,
                             rng.uniform(-PI, PI, size=4)))
        return rows
    ref = GlobalReference(0.9, 0.4)
    beside = [s * h for s in (-1.0, 1.0) for h in (1e-9, 1e-6, 1e-3)]
    if name == "branch-swap":  # |R + R3| = |R - R3| at k = 0 and pi, or R jumps there
        return [(t1, t2, 1.0, parameter, ref.alpha, ref.beta, [k + h for h in beside])
                for t1, t2 in ((2.0, 1.0), (1.0, 1.3)) for k in (0.0, PI)
                for parameter in ("t2", "gamma")]
    if name == "vanishing-weight":  # a polar reference: R -+ d . r = R -+ R3 = 0 where R1 = 0
        return [(t1, t2, gamma, parameter, alpha, beta,
                 [s * math.acos(t1 / t2) + h for s in (-1.0, 1.0) for h in beside])
                for t1, t2, gamma in ((1.0, 2.0, 1.0), (0.5, 1.5, 2.0))
                for parameter in ("t2", "gamma") for alpha, beta in ((1.0, 0.0), (0.0, 1.0))]
    # beside an EP: the closings at k = 0 and k = pi
    return [(t1, t2, 1.0, parameter, ref.alpha, ref.beta,
             [k_s + s * h for s in (-1.0, 1.0) for h in (1e-6, 1e-4, 1e-2)])
            for t1, t2, k_s in ((2.0, 2.5, 0.0), (2.0, 1.5, 0.0), (2.0, -2.5, PI))
            for parameter in ("t2", "gamma")]


class TestProjectorKernel:
    """The kernel's projector form C_k = |R + d . r| / (|R - d . r| + |R + d . r|), node by
    node, against the eigenvector form of ``_mp_ck`` at 30 digits, differentiated by
    ``mpmath.diff``.  The bounds pin the measured worst errors with a margin of two to five:
    C 1.1e-16 everywhere but beside an EP; dC (of max(|dC|, 1)) 3.3e-16 on random rows,
    6.1e-16 beside the branch swap and 4.7e-18 beside a vanishing weight; within 1e-6 to 1e-2
    of an EP, where R^2 cancels in the rows and dC ~ |k - k_s|^(-1/2), C 3.7e-14 and dC
    3.2e-10, as the eigenvector form's kernel had."""

    BOUNDS = {"random": (5e-16, 1e-15), "branch-swap": (5e-16, 2e-15),
              "vanishing-weight": (5e-16, 2e-17), "beside-ep": (1e-13, 1e-9)}

    @pytest.mark.parametrize("name", BOUNDS)
    def test_matches_the_eigenvector_form(self, name):
        worst_c = worst_dc = 0.0
        for t1, t2, gamma, parameter, alpha, beta, ks in _node_rows(name):
            got = _kernel(t1, t2, gamma, parameter, alpha, beta, ks)
            with mp.workdps(30):
                a, b = mp.mpc(complex(alpha)), mp.mpc(complex(beta))
                row = [mp.mpf(t1), mp.mpf(t2), mp.mpf(gamma)]
                at = 1 if parameter == "t2" else 2
                for j, k in enumerate(ks):
                    cos, sin = mp.cos(mp.mpf(float(k))), mp.sin(mp.mpf(float(k)))
                    mode = lambda x: _mp_ck(*row[:at], x, *row[at + 1:], cos, sin, a, b)
                    c, dc = float(mode(row[at])), float(mp.diff(mode, row[at]))
                    worst_c = max(worst_c, abs(got[0, j] - c))
                    worst_dc = max(worst_dc, abs(got[1, j] - dc) / max(abs(dc), 1.0))
        assert worst_c <= self.BOUNDS[name][0]
        assert worst_dc <= self.BOUNDS[name][1]

    def test_hermitian_limit_is_the_ssh_per_mode_complexity(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            t1, t2 = rng.uniform(0.2, 3.0, size=2)
            ref = GlobalReference(float(rng.uniform(0.0, PI)), float(rng.uniform(0.0, 2.0 * PI)))
            ks = rng.uniform(-PI, PI, size=8)
            got = _kernel(t1, t2, 0.0, "t2", ref.alpha, ref.beta, ks)[0]
            model = ssh_model(SSHParams(t1, t2))
            want = [complexity_per_mode(ref.bloch, ground_state_bloch(model.d(k))) for k in ks]
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("t2", [2.5, 1.5])
    def test_an_exact_ep_node_is_nan_alone(self, t2):
        # R^2 = (2 - t2)^2 - 1/4 = 0 exactly at k = 0, where the form would read 1/2
        for parameter in ("t2", "gamma"):
            got = _kernel(2.0, t2, 1.0, parameter, 0.6, 0.8, [0.0, 1e-9, 0.5])
            assert math.isnan(got[0, 0])
            assert np.all(np.isfinite(got[:, 1:])) and math.isfinite(got[1, 0])
        fixed = {"t1": 2.0, "t2": t2, "gamma": 1.0}
        alone = _nh_weight_kernel(MODELS["nh-ssh"].model(fixed), [t2], False, 0.6, 0.8)
        assert math.isnan(alone(np.zeros(1), np.zeros(1, dtype=int))[0])


class TestGroundComplexity:
    def test_hermitian_reduction(self):
        got = nh_ground_complexity(NonHermitianSSHParams(2.0, 1.0, 0.0), 0.5, 0.5)
        expected = ground_complexity(ssh_model(SSHParams(2.0, 1.0)),
                                     GlobalReference(0.5 * PI, 0.0))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_hermitian_continuity(self):
        got = nh_ground_complexity(NonHermitianSSHParams(2.0, 1.0, 1e-6), AMP, AMP)
        expected = ground_complexity(ssh_model(SSHParams(2.0, 1.0)),
                                     GlobalReference(0.5 * PI, 0.0))
        assert got == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("which", [0, 1])
    def test_gap_closing_meets_no_node(self, which, monkeypatch):
        # R^2 vanishes only at k = 0, a panel edge, and at the interval ends
        # k = +-pi: no GK21 node falls on either, so the average is finite
        import twoband.nonhermitian as nonhermitian

        # the closings t2 = t1 -+ gamma/2, the upper two of the four
        t2 = NonHermitianSSHParams(1.0, 1.0, 1.0).gap_closing_couplings()[2 + which]
        params = NonHermitianSSHParams(1.0, t2, 1.0)
        ks = np.linspace(-PI, PI, 4097)
        rsq = np.array([np.linalg.det(nh_ssh_bloch_hamiltonian(params, float(k))) for k in ks])
        distance = np.minimum(np.abs(ks), PI - np.abs(ks))
        assert np.all(np.abs(rsq) >= 0.25 * distance)
        assert abs(np.linalg.det(nh_ssh_bloch_hamiltonian(params, 0.0))) < 1e-15

        nodes = []
        engine = nonhermitian.bz_averages

        def recording(f, *args, **kwargs):
            def kernel(k, owner):
                nodes.append(np.array(k))
                return f(k, owner)
            return engine(kernel, *args, **kwargs)

        monkeypatch.setattr(nonhermitian, "bz_averages", recording)
        value = nh_ground_complexity(params, AMP, AMP)
        assert 0.0 <= value <= 1.0
        nodes = np.concatenate(nodes)
        assert not np.any(np.isin(nodes, (0.0, -PI, PI)))

    def test_gap_closing_sweep_rows_are_unflagged(self):
        closings = NonHermitianSSHParams(1.0, 1.0, 1.0).gap_closing_couplings()
        spec = SweepSpec(model="nh-ssh", sweep=("t2", closings[0], closings[-1], 4),
                         fixed={"t1": 1.0, "gamma": 1.0},
                         quantities=("complexity", "dcomplexity"))
        rows = run_sweep(spec)
        assert tuple(row.lam for row in rows) == closings
        for row in rows:
            assert row.flags == frozenset()
            assert all(math.isfinite(v) for v in row.values.values())

    def test_sweep_stays_in_unit_interval_and_shows_cusps(self):
        # flat wings on both sides keep the median curvature low enough for
        # the weaker upper cusp to stand out
        grid = np.linspace(0.5, 4.0, 200)
        curve = []
        for t2 in grid:
            value = nh_ground_complexity(NonHermitianSSHParams(2.0, float(t2), 1.0), AMP, AMP)
            assert 0.0 <= value <= 1.0
            curve.append((float(t2), value))
        cusps = detect_cusps(curve)
        spacing = float(grid[1] - grid[0])
        assert min(abs(c - 1.5) for c in cusps) <= spacing
        assert min(abs(c - 2.5) for c in cusps) <= spacing


def _lossy_sweep(parameter, quantities):
    sweep = ("t2", 1.2, 1.4, 2) if parameter == "t2" else ("gamma", 0.5, 0.8, 2)
    fixed = {"t1": 1.0, "gamma": 1.0} if parameter == "t2" else {"t1": 1.0, "t2": 1.3}
    return SweepSpec(model="nh-ssh", sweep=sweep, fixed=fixed,
                     reference=GlobalReference(0.9, 0.4), quantities=quantities)


def _row_params(spec, lam):
    return NonHermitianSSHParams(**{**MODELS[spec.model].values(spec.fixed), spec.sweep[0]: lam})


class TestComplexityDerivative:
    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    @pytest.mark.parametrize("t1,t2,gamma", [(2.0, 1.0, 1.0), (1.0, 1.3, 1.0),
                                             (2.5, 1.7, 0.8), (2.0, 3.2, 1.5)])
    def test_matches_the_finite_difference_at_gapped_points(self, t1, t2, gamma, parameter):
        params, ref = NonHermitianSSHParams(t1, t2, gamma), GlobalReference(0.9, 0.4)
        c, dc = nh_complexity_derivative(params, parameter, ref.alpha, ref.beta)
        fd = param_derivative(lambda x: nh_ground_complexity(
            NonHermitianSSHParams(**{**vars(params), parameter: x}), ref.alpha, ref.beta),
            getattr(params, parameter))
        assert dc == pytest.approx(fd, abs=1e-10)
        assert c == pytest.approx(nh_ground_complexity(params, ref.alpha, ref.beta), abs=1e-14)

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    def test_sweep_point_runs_one_average(self, calls, parameter):
        spec = _lossy_sweep(parameter, ("complexity", "dcomplexity"))
        rows = run_sweep(spec)
        assert calls == {"bz_averages": 1, "averages": 2}
        ref = spec.reference
        for row in rows:
            c, dc = nh_complexity_derivative(_row_params(spec, row.lam), parameter,
                                             ref.alpha, ref.beta)
            assert row.values == {"complexity": c, "dcomplexity": dc}

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    def test_complexity_sweep_keeps_the_c_only_kernel(self, monkeypatch, parameter):
        import twoband.nonhermitian as nonhermitian

        shapes = []
        engine = nonhermitian.bz_averages

        def recording(f, *args, **kwargs):
            def kernel(k, owner):
                value = f(k, owner)
                shapes.append(value.shape)
                return value
            return engine(kernel, *args, **kwargs)

        monkeypatch.setattr(nonhermitian, "bz_averages", recording)
        spec = _lossy_sweep(parameter, ("complexity",))
        rows = run_sweep(spec)
        assert shapes and all(len(shape) == 1 for shape in shapes)
        ref = spec.reference
        for row in rows:
            want = nh_ground_complexity(_row_params(spec, row.lam), ref.alpha, ref.beta)
            assert row.values == {"complexity": want}

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    def test_pole_reference_has_zero_derivative(self, parameter):
        # with alpha = 1, beta = 0, w_0 vanishes where R1 = 0, at cos k = t1/t2,
        # and w_1 at the mirror mode; C = 1/2 for every coupling
        params = NonHermitianSSHParams(2.0, 3.0, 1.0)
        k_star = math.acos(params.t1 / params.t2)
        assert sorted(round(nh_complexity_per_mode(params, s * k_star, 1.0, 0.0), 12)
                      for s in (1.0, -1.0)) == [0.0, 1.0]
        ref = GlobalReference(0.0, 0.0)
        c, dc = nh_complexity_derivative(params, parameter, ref.alpha, ref.beta)
        assert c == pytest.approx(0.5, abs=1e-15)
        assert dc == pytest.approx(0.0, abs=1e-15)
        fixed = {"t1": 2.0, "gamma": 1.0} if parameter == "t2" else {"t1": 2.0, "t2": 3.0}
        rows = run_sweep(SweepSpec(model="nh-ssh", sweep=(parameter, 0.5, 3.0, 3), fixed=fixed,
                                   reference=ref, quantities=("complexity", "dcomplexity")))
        for row in rows:
            assert row.flags == frozenset()
            assert row.values["dcomplexity"] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("parameter", ["t2", "gamma"])
    @pytest.mark.parametrize("t2", [2.0, -2.0])
    def test_a_closed_gap_raises_gap_closed(self, calls, parameter, t2):
        # gamma = 0, t2 = +-t1: a double zero of R^2, where dC diverges as in the SSH chain
        params = NonHermitianSSHParams(2.0, t2, 0.0)
        with pytest.raises(GapClosedError, match="gap is closed"):
            nh_complexity_derivative(params, parameter, AMP, AMP)
        assert not calls  # raised before any average, as the Hermitian derivative does
        assert nh_ground_complexity(params, AMP, AMP) == pytest.approx(
            ssh_complexity_closed(SSHParams(2.0, 2.0), GlobalReference(0.5 * PI, 0.0)), abs=1e-15)

    @pytest.mark.parametrize("quantities,owners", [
        (("complexity", "dcomplexity"), [2, 5]), (("dcomplexity",), [2, 4]),
        (("complexity",), [3])])
    def test_a_closed_row_takes_its_c_from_the_stencil_run(self, monkeypatch, quantities,
                                                           owners):
        # t2 = 2 is closed: asked for dC it runs no average in the sweep's run, and the
        # finite difference's run of C averages it at t2 too where C is asked for
        runs = []
        engine = nonhermitian.bz_averages

        def recording(f, edges, cfg):
            runs.append(len(edges))
            return engine(f, edges, cfg)

        monkeypatch.setattr(nonhermitian, "bz_averages", recording)
        rows = run_sweep(SweepSpec(model="nh-ssh", sweep=("t2", 1.5, 2.5, 3),
                                   fixed={"t1": 2.0, "gamma": 0.0}, quantities=quantities))
        assert runs == owners
        assert all(math.isfinite(v) for row in rows for v in row.values.values())

    def test_rejects_a_parameter_it_cannot_differentiate(self):
        with pytest.raises(DomainError):
            nh_complexity_derivative(NonHermitianSSHParams(2.0, 1.0, 1.0), "t1", AMP, AMP)


class TestDetectCusps:
    def test_linear_sweep_has_none(self):
        xs = np.linspace(0.0, 1.0, 40)
        assert detect_cusps([(float(x), 1.0 + 0.3 * float(x)) for x in xs]) == []

    def test_requires_enough_points(self):
        with pytest.raises(InsufficientDataError):
            detect_cusps([(float(i), 0.0) for i in range(10)])

    def test_requires_sorted_sweep(self):
        pts = [(float(i), 0.0) for i in range(25)]
        pts[3], pts[4] = pts[4], pts[3]
        with pytest.raises(InsufficientDataError):
            detect_cusps(pts)

    @pytest.mark.parametrize("column", [0, 1])
    def test_requires_finite_pairs(self, column):
        # a skipped_exceptional sweep row carries C = NaN, which would hide the cusp
        pts = [(float(x), abs(float(x) - 0.5)) for x in np.linspace(0.0, 1.0, 40)]
        assert detect_cusps(pts) == [pytest.approx(0.513, abs=1e-3)]
        pts[7] = (math.nan, pts[7][1]) if column == 0 else (pts[7][0], math.nan)
        with pytest.raises(InsufficientDataError, match="finite"):
            detect_cusps(pts)

    def test_hermitian_closed_form_sweep_has_single_cusp(self):
        ref = GlobalReference(0.5 * PI, PI)
        grid = np.linspace(0.2, 2.0, 100)
        curve = [(float(t2), ssh_complexity_closed(SSHParams(1.0, float(t2)), ref))
                 for t2 in grid]
        cusps = detect_cusps(curve)
        spacing = float(grid[1] - grid[0])
        assert len(cusps) == 1
        assert abs(cusps[0] - 1.0) <= spacing
