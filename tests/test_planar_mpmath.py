"""The exact path of planar rows against 30-digit mpmath averages of the stored rows.

``_bloch_averages`` takes C, dC/d(lambda), the d_hat-derivative integrals and chi_F
with its axes of a planar row with a global reference, or with a piecewise one that jumps
only on the line of the row's zeros, from the contour's zeros
(``fidelity._planar_averages``), and a closed row's C from the limit at its closing,
running no quadrature.  Each reference here is
mpmath's tanh-sinh average over the zone of the double rows the model stores, split
at the row's singular points and at the reference's breakpoints, so it shares nothing
with the exact path.
"""

import itertools
import math
from functools import lru_cache
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twoband import (BlochVector, DualSSHParams, GlobalReference, MassiveDiracParams,
                     PiecewiseBlochReference, ReferenceState, SSHParams, SweepSpec, bound_check,
                     chi_F_md_closed, dual_pair, fidelity, ground_complexity, models,
                     plateau_complexity, plateau_reference, run_sweep, ssh_model)
from twoband.cli import main
from twoband.fidelity import (SusceptibilityBreakdown, _bloch_averages, _cel,
                              _engine_averages, _planar_averages)
from twoband.models import MODELS, TwoBandModel, singular_points

from conftest import rows_of

PI = math.pi
REF = GlobalReference(0.9, 0.4)


def _reference(model, lam, parts=6, breaks=()):
    """30-digit <d_hat>, <d(d_hat)/d(lambda)> and chi_F per axis (x, z) at lam, the first
    ``parts`` of them: over the zone, or with ``breaks`` per piece between them."""
    rows, slope = (tuple(tuple(map(float, row)) for row in r)
                   for r in (model.rows(lam), model.slope(lam)))
    k_s = tuple(float(k) for k in singular_points(model.zeros([lam]))[0][0])
    pieces = _pieces(rows, slope, k_s, tuple(map(float, breaks)), parts)
    return pieces if breaks else pieces[0]


@lru_cache(maxsize=None)
def _pieces(rows, slope, k_s, breaks, parts):
    """``_reference`` of the stored rows on each piece between ``breaks``, split at the
    singular points k_s; memoised by rows, slope rows, breaks and parts, so the references
    with the same breaks share one set of averages."""
    with mp.workdps(30):
        rows, slope = ([[mp.mpf(x) for x in row] for row in r] for r in (rows, slope))

        @lru_cache(maxsize=None)
        def values(k):
            c, s = mp.cos_sin(k)
            d = [rows[0][i] + rows[1][i] * c + rows[2][i] * s for i in (0, 2)]
            inv = 1 / mp.sqrt(d[0] ** 2 + d[1] ** 2)
            h = [d[0] * inv, d[1] * inv]
            if parts <= 2:
                return h
            dd = [slope[0][i] + slope[1][i] * c + slope[2][i] * s for i in (0, 2)]
            dot = h[0] * dd[0] + h[1] * dd[1]
            v = [(dd[i] - h[i] * dot) * inv for i in (0, 1)]
            return h[0], h[1], v[0], v[1], v[0] ** 2 / 4, v[1] ** 2 / 4

        edges = sorted({*k_s} | {k - math.copysign(2 * PI, k) for k in k_s})
        cuts = (-PI, *breaks, PI)
        ends = [-mp.pi, *map(mp.mpf, breaks), mp.pi]
        return [[float(mp.quad(lambda k: values(k)[j], [ends[i], *(mp.mpf(k) for k in edges if
                                                                 lo < k < hi), ends[i + 1]])
                       / (2 * mp.pi)) for j in range(parts)]
                for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]


def _check(model, lam, rtol, calls):
    """The exact row at lam against the reference: C absolute to 1e-14; dC, the
    integrals and chi with its axes relative to rtol (dC against its terms' size)."""
    avg = rows_of(_bloch_averages(model, [lam], REF, None, complexity=True, derivative=True,
                                  chi=True))[0]
    assert calls["bz_averages"] == 0  # the row took the exact path
    dx, dz, vx, vz, cx, cz = _reference(model, lam)
    n = REF.bloch.as_array()
    assert avg.complexity == pytest.approx(0.5 + 0.5 * (n[0] * dx + n[2] * dz), abs=1e-14)
    terms = 0.5 * (abs(n[0] * vx) + abs(n[2] * vz))
    assert abs(avg.dcomplexity - 0.5 * (n[0] * vx + n[2] * vz)) <= rtol * terms
    for got, want in zip(avg.integrals, (2 * PI * vx, 0.0, 2 * PI * vz)):
        assert got == pytest.approx(want, rel=rtol, abs=rtol * 2 * PI * max(abs(vx), abs(vz)))
    assert avg.chi.components[1] == 0.0 and not avg.chi.diverged
    for got, want in zip((avg.chi.components[0], avg.chi.components[2], avg.chi.total),
                         (cx, cz, cx + cz)):
        assert got == pytest.approx(want, rel=rtol, abs=1e-300)


def _dual_ii():
    return dual_pair(DualSSHParams(1.3, 2.0))[1]


GAPPED = [
    *((MODELS["ssh"].model({"t1": 1.0}), t2) for t2 in (0.4, 1.7, -0.6, -2.5)),
    *((MODELS["ssh"].model({"t2": 1.3}, "t1"), t1) for t1 in (0.5, 2.2, -1.7)),
    *((MODELS["massive-dirac"].model({}), mu) for mu in (0.3, -1.2, 3.0)),
    *((MODELS["dual-ssh"].model({"t": 1.3}), r) for r in (0.4, 2.5)),
    *((_dual_ii(), r) for r in (0.6, 1.8)),
    *((MODELS["cooper-pair-box"].model({"Ej": 1.0, "Ecc": 1.5}), ng) for ng in (0.2, 0.8, -1.3)),
]
# 1e-6 to 1e-12 from a closing: ssh at k = 0 and at k = pi (t2 = -t1), massive Dirac at
# k = 0 and pi at once, the dual chain and the Cooper-pair box at k = pi/2
NEAR = [
    *((MODELS["ssh"].model({"t1": 1.0}), 1.0 + d) for d in (1e-6, -1e-9, 1e-12)),
    (MODELS["ssh"].model({"t1": 1.0}), -1.0 - 1e-10),
    (MODELS["ssh"].model({"t2": 1.3}, "t1"), 1.3 - 1e-10),
    *((MODELS["massive-dirac"].model({}), mu) for mu in (1e-6, -1e-9, 1e-12)),
    (MODELS["dual-ssh"].model({"t": 1.3}), 1.0 + 1e-9),
    (MODELS["cooper-pair-box"].model({}), 0.5 + 1e-8),
]


@pytest.mark.parametrize("model,lam", GAPPED, ids=lambda v: getattr(v, "label", repr(v)))
def test_gapped_rows_of_every_family(model, lam, calls):
    _check(model, lam, 1e-13, calls)


@pytest.mark.parametrize("model,lam", NEAR, ids=lambda v: getattr(v, "label", repr(v)))
def test_rows_beside_a_closing(model, lam, calls):
    _check(model, lam, 1e-12, calls)


# 1e-8 from a closing, where a u = zb / |zb| an ulp off the unit circle costs dC 1.2e-9 and
# chi 2.2e-8 of their size.  The bound is the measured maximum, 5.2e-16 (chi_F along x on
# the ssh row), times 2.9
@pytest.mark.parametrize("model,lam", [(MODELS["ssh"].model({"t2": 1.3}, "t1"), 1.29999999),
                                       (MODELS["dual-ssh"].model({"t": 1.3}), 1.00000001)],
                         ids=lambda v: getattr(v, "label", repr(v)))
def test_a_unit_u_keeps_the_digits_beside_a_closing(model, lam, calls):
    _check(model, lam, 1.5e-15, calls)


def _collinear(rng, kind):
    """Random rows whose contour zeros lie on one line through 0, as lambda moves too:
    p(z) = kappa (z - z1 u)(z - z2 u) with real z1, z2 and |u| = 1, at lambda = 0."""
    u, kappa, rate = np.exp(1j * rng.uniform(-PI, PI)), *(complex(*rng.normal(size=2))
                                                            for _ in range(2))
    z, dz = rng.uniform(0.2, 3.0, 2) * np.array([1.0, -1.0]), rng.normal(size=2)
    if kind == "outside":
        z = rng.uniform(1.2, 4.0, 2) * np.array([1.0, -1.0])
    if kind == "one side":  # the second zero, reflected, at most 1/2 from 0
        z[1] = rng.choice([rng.uniform(0.1, 0.5), rng.uniform(2.0, 5.0)])
    if kind == "p0 = 0":
        z[1], dz[1] = 0.0, 0.0
    if kind == "p2 = 0":  # p = kappa (z - z1 u): one zero, the other at infinity
        p, dp = (-kappa * z[0] * u, kappa, 0j), (-(rate * z[0] + kappa * dz[0]) * u, rate, 0j)
    else:
        p, dp = _on_line(u, kappa, rate, z, dz)
    return _model_of(p, dp, kind)


def _on_line(u, kappa, rate, z, dz):
    """p = kappa (z - z1 u)(z - z2 u) with real z1, z2 and |u| = 1, and its rate as the zeros
    move along u at dz and kappa at ``rate``."""
    p = (kappa * z[0] * z[1] * u * u, -kappa * (z[0] + z[1]) * u, kappa)
    dp = (rate * p[0] / kappa + kappa * (dz[0] * z[1] + z[0] * dz[1]) * u * u,
          rate * p[1] / kappa - kappa * (dz[0] + dz[1]) * u, rate)
    return p, dp


def _model_of(p, dp, label=""):
    """The family with d_x - i d_z = (p(z) + lambda dp(z)) / z, at lambda = 0."""
    # p0 = (b + i c)/2, p1 = a_x - i a_z, p2 = (b - i c)/2 with b = b_x - i b_z, c = c_x - i c_z
    rows_of = lambda p0, p1, p2: tuple((x.real, 0.0, -x.imag) for x in
                                       (complex(p1), p0 + p2, -1j * (p0 - p2)))
    rows, slope = rows_of(*p), rows_of(*dp)
    return TwoBandModel(lambda lam: tuple(tuple(r + lam * s for r, s in zip(a, b))
                                          for a, b in zip(rows, slope)),
                        lambda lam: slope, 0.0, label=label)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["both sides", "outside", "one side", "p0 = 0", "p2 = 0"])
def test_random_collinear_rows(kind, seed, calls):
    model = _collinear(np.random.default_rng(seed), kind)
    _check(model, 0.0, 1e-13, calls)


def test_two_zeros_beside_one_point_take_the_engine(calls):
    # p = (z - 1.4)(z - 1.6): reflected, its zeros sit 0.71 and 0.63 from 0 on one side
    model = TwoBandModel(lambda lam: ((-3.0, 0.0, 0.0), (3.24, 0.0, 0.0), (0.0, 0.0, 1.24)),
                         lambda lam: ((0.0, 0.0, 0.0),) * 3, 0.0)
    p2, q, p0 = model.zeros([0.0]).p
    assert sorted(abs(z) for z in (q / p2, p0 / q)) == pytest.approx([1.4, 1.6])
    _bloch_averages(model, [0.0], REF, None, complexity=True)
    assert calls["bz_averages"] == 1


def test_rows_off_one_line_take_the_engine(skew, calls):
    # the zeros lam e^{0.3 i} and 3i are on no line through 0
    model = MODELS[skew].model({})
    got = _planar_averages(model.zeros([2.0]), model.slope(2.0), REF, True, True, True)
    assert not (got.complexity_ok[0] or got.dcomplexity_ok[0] or got.chi_ok[0])
    _bloch_averages(model, [2.0], REF, None, complexity=True)
    assert calls["bz_averages"] == 1


class _Tilted(ReferenceState):
    """A reference neither global nor piecewise, which the exact path does not read."""

    def bloch_at(self, k):
        return np.array([0.6, 0.0, 0.8])


@pytest.mark.parametrize("ref,exact", [(REF, True), (_Tilted(), False)])
def test_a_mask_is_none_for_a_quantity_not_asked_for(ref, exact):
    # on the stages' path and on the early decline of every row alike
    model = ssh_model(SSHParams(1.0, 1.7))
    for asked in itertools.product((False, True), repeat=3):
        got = _planar_averages(model.zeros([1.7]), model.slope(1.7), ref, *asked)
        masks = (got.complexity_ok, got.dcomplexity_ok, got.chi_ok)
        assert [None if mask is None else mask.tolist() for mask in masks] == [
            [exact] if q else None for q in asked]


def test_a_row_does_not_depend_on_its_batch():
    kc, p = np.array([1e-12, 0.3, 1.0, 2.9]), np.array([1e-24, 0.5, 1.0, 1e-3])
    a, b = np.array([1.0, -0.3, 2.0, 0.7]), np.array([0.2, 1.1, -1.0, 5.0])
    batch = _cel(kc, p, a, b)
    assert [_cel(*(v[i:i + 1] for v in (kc, p, a, b)))[0] for i in range(4)] == batch.tolist()
    model = MODELS["ssh"].model({"t1": 1.0})
    lams = np.linspace(0.3, 2.7, 7)
    alone = [rows_of(_bloch_averages(model, [lam], REF, None, complexity=True, derivative=True,
                                     chi=True))[0] for lam in lams]
    together = rows_of(_bloch_averages(model, lams, REF, None, complexity=True, derivative=True,
                                       chi=True))
    for x, y in zip(alone, together):
        assert (x.complexity, x.dcomplexity, x.chi) == (y.complexity, y.dcomplexity, y.chi)
        assert x.integrals.tolist() == y.integrals.tolist()


@pytest.mark.parametrize("mu", [1e-10, -1e-10])
def test_massive_dirac_beside_its_closing_is_not_flagged(mu):
    # the engine's budget ran out here and flagged the row diverged
    spec = SweepSpec(model="massive-dirac", sweep=("mu", mu, 2.0 * mu, 2) if mu > 0 else
                     ("mu", 2.0 * mu, mu, 2), reference=REF,
                     quantities=("chi_f", "dcomplexity"))
    row = [rec for rec in run_sweep(spec) if rec.lam == mu][0]
    assert row.flags == frozenset()
    assert row.values["chi_f"] == pytest.approx(chi_F_md_closed(MassiveDiracParams(mu=mu)),
                                                rel=1e-12)


def test_a_planar_sweep_runs_no_engine_through_a_closed_row(calls):
    spec = SweepSpec("ssh", ("t2", 0.5, 1.5, 5), {"t1": 1.0}, REF,
                     ("complexity", "dcomplexity", "chi_f_components", "bound", "ratio"))
    rows = run_sweep(spec)
    # t2 = t1 takes its C from its zeros and its dC from the stencil, four exact rows
    assert calls == {"param_derivative": 1}
    assert [row.flags for row in rows] == [frozenset()] * 2 + [{"diverged"}] + [frozenset()] * 2


def _c_reference(model, lam, *refs):
    """The 30-digit C at lam under each of ``refs``."""
    dx, dz = _reference(model, lam, 2)
    return [0.5 + 0.5 * (n[0] * dx + n[2] * dz) for n in (r.bloch.as_array() for r in refs)]


def _closed_c(model, lam, ref, calls):
    """A closed row's C, checked to be the engine's closed record with no quadrature."""
    avg = rows_of(_bloch_averages(model, [lam], ref, None, complexity=True, derivative=True,
                                  chi=True))[0]
    assert avg.closed and avg.dcomplexity is None and avg.integrals is None
    assert avg.chi == SusceptibilityBreakdown(math.inf, (math.inf,) * 3, True)
    assert calls["bz_averages"] == 0
    return avg.complexity


# every stock closing: ssh in t2 at k = 0 and +-pi and in t1, both dual families at
# r = 1, massive Dirac at k = 0 and pi at once, the Cooper-pair box at k = +-pi/2
CLOSED = [
    (MODELS["ssh"].model({"t1": 1.0}), 1.0),
    (MODELS["ssh"].model({"t1": 0.75}), -0.75),
    (MODELS["ssh"].model({"t2": 1.3}, "t1"), 1.3),
    (MODELS["dual-ssh"].model({"t": 1.3}), 1.0),
    (_dual_ii(), 1.0),
    (MODELS["massive-dirac"].model({"t": 1.7}), 0.0),
    (MODELS["cooper-pair-box"].model({"Ej": 1.0, "Ecc": 1.5}), 0.5),
]


@pytest.mark.parametrize("model,lam", CLOSED, ids=lambda v: getattr(v, "label", repr(v)))
def test_a_closed_row_takes_its_c_from_its_zeros(model, lam, calls):
    refs = REF, GlobalReference(0.3, 2.0), GlobalReference(2.5, 4.0)
    for ref, want in zip(refs, _c_reference(model, lam, *refs)):
        assert abs(_closed_c(model, lam, ref, calls) - want) <= 1e-15


# closed only by GAP_EPS, a gap of 1e-14 to 7e-14: the limit at the closing is
# O(gap ln gap) from the row's C; each bound is the measured error times 2.5 to 3
NEARLY_CLOSED = [
    (MODELS["ssh"].model({"t1": 1.0}), 1.0 + 2e-14, 2e-13),  # 7.5e-14
    (MODELS["ssh"].model({"t1": 1.0}), 1.0 - 5e-14, 5e-13),  # 1.8e-13
    (MODELS["ssh"].model({"t1": 1.0}), -1.0 - 3e-14, 3e-13),  # 1.1e-13
    (MODELS["ssh"].model({"t2": 1.3}, "t1"), 1.3 + 4e-14, 3e-13),  # 1.1e-13
    (MODELS["dual-ssh"].model({"t": 1.3}), 1.0 + 5e-14, 5e-13),  # 1.8e-13
    (MODELS["massive-dirac"].model({}), 3e-14, 3e-13),  # 9.7e-14
    (MODELS["massive-dirac"].model({}), -1e-14, 1e-13),  # 3.3e-14
    (MODELS["cooper-pair-box"].model({}), 0.5 + 2e-14, 2e-13),  # 6.5e-14
]


@pytest.mark.parametrize("model,lam,bound", NEARLY_CLOSED,
                         ids=lambda v: getattr(v, "label", repr(v)))
def test_a_row_closed_by_gap_eps_is_near_its_limit(model, lam, bound, calls):
    assert 0.0 < min(singular_points(model.zeros([lam]))[1][0]) < 1e-13
    assert abs(_closed_c(model, lam, REF, calls) - _c_reference(model, lam, REF)[0]) <= bound


def _closing(rng, at, other, outside):
    """Random rows p(z) = kappa (z - at u)(z - z_o) with |u| = 1: one zero on the circle,
    the other z_o = other u or, ``outside``, its reflection u / other (p2 = 0 at 0)."""
    u, kappa = np.exp(1j * rng.uniform(-PI, PI)), complex(*rng.normal(size=2))
    if outside and other == 0.0:
        p = (-kappa * at * u, kappa, 0j)
    else:
        z_o = u / other if outside else other * u
        p = (kappa * at * u * z_o, -kappa * (at * u + z_o), kappa)
    rows = tuple((x.real, 0.0, -x.imag) for x in (p[1], p[0] + p[2], -1j * (p[0] - p[2])))
    return TwoBandModel(lambda lam: rows, lambda lam: ((0.0,) * 3,) * 3, 0.0)


# (closing at +-u, sigma_o, bound): the other zero near -1, 0 and +1 of either closing
# and beside it at 0.3, 0.7, 0.9 and 0.95 of it, where the bounds grow with the rounding of
# the zeros; each bound is the measured error (seeds 0-7) times 2.5 to 2.9
@pytest.mark.parametrize("at,other,bound", [(1.0, -0.95, 1.5e-15), (-1.0, 0.9, 1.5e-15),
                                            (1.0, 0.0, 1.5e-15), (-1.0, 0.0, 1.5e-15),
                                            (1.0, 0.3, 4e-15), (-1.0, -0.3, 4e-15),
                                            (1.0, 0.7, 1e-14), (-1.0, -0.9, 4e-14),
                                            (1.0, 0.95, 7e-14)])
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_random_rows_closed_on_one_line(at, other, bound, outside, seed, calls):
    model = _closing(np.random.default_rng(seed), at, other, outside)
    assert abs(_closed_c(model, 0.0, REF, calls) - _c_reference(model, 0.0, REF)[0]) <= bound


def test_a_closed_row_with_both_zeros_beside_its_closing(calls):
    # p(z) = kappa (z - u)(z - 0.9 u), |d| = 1.2e-16 and 1.6e-16 at the zeros: the engine
    # raised GapClosedError here; the bound is the measured 5.1e-15 times 3
    rows = ((1.0862417085078186, 0.0, 0.6030664949578258),
            (-0.6841815748740664, 0.0, -0.4365562086883171),
            (-0.844289092198247, 0.0, -0.4199718482914626))
    model = TwoBandModel(lambda lam: rows, lambda lam: ((0.0,) * 3,) * 3, 0.0)
    refs = REF, GlobalReference(0.3, 2.0), GlobalReference(2.5, 4.0)
    for ref, want in zip(refs, _c_reference(model, 0.0, *refs)):
        assert abs(_closed_c(model, 0.0, ref, calls) - want) <= 1.5e-14


@pytest.mark.parametrize("seed", range(1, 4))
def test_a_double_zero_on_the_circle_takes_its_c_from_its_zeros(seed, calls):
    # p(z) = kappa (z - u)^2: rounding splits the zeros by about sqrt(eps), and the row's
    # C moves as much; the engine raised GapClosedError on most such rows.  The bound is
    # the measured error (seeds 1-5, at most 2.9e-9) times 3.5
    rng = np.random.default_rng(seed)
    u, kappa = np.exp(1j * rng.uniform(-PI, PI)), complex(*rng.normal(size=2))
    p = (kappa * u * u, -2.0 * kappa * u, kappa)
    rows = tuple((x.real, 0.0, -x.imag) for x in (p[1], p[0] + p[2], -1j * (p[0] - p[2])))
    model = TwoBandModel(lambda lam: rows, lambda lam: ((0.0,) * 3,) * 3, 0.0)
    assert abs(_closed_c(model, 0.0, REF, calls) - _c_reference(model, 0.0, REF)[0]) <= 1e-8


def test_an_exact_critical_window_runs_no_engine(calls, capsys):
    assert main(["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.9375:1.0625:3",
                 "--quantities", "complexity,chi_f"]) == 0
    assert capsys.readouterr().out.splitlines()[2].endswith(",inf,diverged")
    assert calls["bz_averages"] == 0


def test_rows_without_an_average_never_enter_the_engine(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(fidelity, "_engine_averages", engine)
    for quantities in (("winding",), ("ratio", "chi_f_components")):
        rows = run_sweep(SweepSpec("ssh", ("t2", 0.5, 1.5, 3), {"t1": 1.0}, REF, quantities))
        assert [row.flags for row in rows] == [frozenset(), {"diverged"}, frozenset()]


def test_exact_rows_take_no_singular_points(monkeypatch, calls, capsys):
    # k_s and |d_k d| at the zeros serve only the engine's grading and the lossy chain
    def fail(zeros):
        raise AssertionError("singular_points ran")

    for module in (models, fidelity):
        monkeypatch.setattr(module, "singular_points", fail)
    assert ground_complexity(ssh_model(SSHParams(1.0, 1.7)), REF) > 0.0
    assert main(["sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.9375:1.0625:3",
                 "--quantities", "complexity,dcomplexity,chi_f,winding"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert calls == {"param_derivative": 1}


def test_a_closed_row_off_one_line_takes_the_engine(skew, calls):
    model = MODELS[skew].model({})
    avg = rows_of(_bloch_averages(model, [1.0], REF, None, complexity=True))[0]
    assert avg.closed and calls["bz_averages"] == 1
    assert abs(avg.complexity - _c_reference(model, 1.0, REF)[0]) <= 1e-10


# the skew rows gapped, and 1e-4 and 1e-8 from their closing at lam = 1 (k = 0.3); C is
# within 3e-16 (measured 1.1e-16), and each dC bound is the measured maximum of its terms
# times 2.5 to 3.4: 5.9e-16 gapped, 1.7e-14 at 1e-4, 4.0e-11 at 1e-8
@pytest.mark.parametrize("lam,bound", [(2.0, 2e-15), (1.5, 2e-15), (1.0 + 1e-4, 5e-14),
                                       (1.0 - 1e-4, 5e-14), (1.0 + 1e-8, 1e-10)])
def test_rows_off_one_line_against_the_oracle(skew, lam, bound, calls):
    model = MODELS[skew].model({})
    avg = rows_of(_bloch_averages(model, [lam], REF, None, complexity=True, derivative=True))[0]
    assert calls["bz_averages"] == 1
    dx, dz, vx, vz = _reference(model, lam, 4)
    n = REF.bloch.as_array()
    assert abs(avg.complexity - (0.5 + 0.5 * (n[0] * dx + n[2] * dz))) <= 3e-16
    terms = 0.5 * (abs(n[0] * vx) + abs(n[2] * vz))
    assert abs(avg.dcomplexity - 0.5 * (n[0] * vx + n[2] * vz)) <= bound * terms


# -- piecewise references that jump on the line of the zeros -------------------------------

# jumps at k = 0 and pi, on the line of every ssh, dual-ssh and massive-Dirac row
SPLITS = [plateau_reference(), PiecewiseBlochReference((
    (-PI, 0.0, BlochVector(0.3, -0.5, 0.8)), (0.0, PI, BlochVector(-0.6, 0.2, 0.1))))]


def _split_reference(model, lam, ref, parts=4):
    """The 30-digit C and, with ``parts`` 4, dC at lam under a piecewise reference."""
    pieces = _reference(model, lam, parts, ref.breakpoints())
    ns = [vec.as_array()[::2] for _, _, vec in ref.pieces]
    c = 0.5 + 0.5 * sum(n @ p[:2] for n, p in zip(ns, pieces))
    if parts == 2:
        return c
    terms = [n * p[2:] for n, p in zip(ns, pieces)]
    return c, 0.5 * sum(t.sum() for t in terms), 0.5 * sum(abs(t).sum() for t in terms)


def _ssh_t1():
    return MODELS["ssh"].model({"t2": 1.3}, "t1")


# gapped rows: ssh in t2 and t1 with its zeros on either side of 0 (theta = 0 and pi), the
# dual chain and massive Dirac; each bound is the measured maximum times 3.6: 5.6e-17 on C,
# 5.5e-16 of its terms on dC
SPLIT_GAPPED = [
    *((MODELS["ssh"].model({"t1": 1.0}), t2) for t2 in (0.4, 1.7, -0.6, -2.5)),
    *((_ssh_t1(), t1) for t1 in (2.2, -1.7, 0.5)),
    *((MODELS["dual-ssh"].model({"t": 1.3}), r) for r in (0.4, 2.5)),
    *((MODELS["massive-dirac"].model({}), mu) for mu in (0.3, -1.2)),
]


@pytest.mark.parametrize("model,lam", SPLIT_GAPPED, ids=lambda v: getattr(v, "label", repr(v)))
def test_an_on_line_split_of_a_gapped_row_takes_the_exact_path(model, lam, calls):
    for ref in SPLITS:
        avg = rows_of(_bloch_averages(model, [lam], ref, None, complexity=True,
                                      derivative=True))[0]
        c, dc, terms = _split_reference(model, lam, ref)
        assert abs(avg.complexity - c) <= 2e-16
        assert abs(avg.dcomplexity - dc) <= 2e-15 * terms + 1e-30  # 1e-30: the oracle's 0
    assert calls["bz_averages"] == 0


# 1e-4, 1e-8 and 1e-12 from the closings of ssh in t2 (k = 0, theta = 0) and in t1
# (t1 = -t2, k = pi, theta = pi), of the dual chain and of massive Dirac (k = 0 and pi)
SPLIT_NEAR = [
    *((MODELS["ssh"].model({"t1": 1.0}), 1.0 + d) for d in (1e-4, -1e-8, 1e-12)),
    *((_ssh_t1(), -1.3 + d) for d in (-1e-4, 1e-8, -1e-12)),
    *((MODELS["dual-ssh"].model({"t": 1.3}), 1.0 + d) for d in (-1e-4, 1e-8, -1e-12)),
    *((MODELS["massive-dirac"].model({}), d) for d in (1e-4, -1e-8, 1e-12)),
]


@pytest.mark.parametrize("model,lam", SPLIT_NEAR, ids=lambda v: getattr(v, "label", repr(v)))
def test_an_on_line_split_beside_a_closing(model, lam, calls):
    # C is exact, within the measured 1.1e-16 times 4.5, and so is the plateau's dC, the
    # half-circle terms alone (measured: 0, and the oracle's 2.7e-19 where dC is 0); a
    # split whose mean is not 0 takes the full-circle turn, which keeps its digits here,
    # where u is exact on an axis: within 2e-15 of its terms (measured 5.9e-16)
    plateau = rows_of(_bloch_averages(model, [lam], SPLITS[0], None, complexity=True,
                                      derivative=True))[0]
    c, dc, terms = _split_reference(model, lam, SPLITS[0])
    assert abs(plateau.complexity - c) <= 5e-16
    assert abs(plateau.dcomplexity - dc) <= 2e-16 * terms + 1e-18
    split = rows_of(_bloch_averages(model, [lam], SPLITS[1], None, complexity=True,
                                    derivative=True))[0]
    c, dc, terms = _split_reference(model, lam, SPLITS[1])
    assert abs(split.complexity - c) <= 5e-16
    assert abs(split.dcomplexity - dc) <= 2e-15 * terms
    assert calls["bz_averages"] == 0


def test_a_split_on_a_generic_line_declines_dc_beside_its_closing(calls):
    # on the line theta = 1 the u of the zeros 1 - 5e-4 and 0.3 is rounded, and the
    # full-circle turn loses digits 5e-4 from the circle (``_BESIDE``; measured 8.6e-15 of
    # the terms without the decline): the exact path takes the row's C alone, and its dC
    # runs the engine, within 1e-9 of the oracle
    theta, (a, b) = 1.0, (vec for _, _, vec in SPLITS[1].pieces)
    model = _model_of(*_on_line(complex(math.cos(theta), math.sin(theta)), 1.0, 0.0,
                                (1.0 - 5e-4, 0.3), (1.0, 0.5)))
    ref = PiecewiseBlochReference(((-PI, theta - PI, a), (theta - PI, theta, b),
                                   (theta, PI, a)))
    zeros, slope = model.zeros([0.0]), model.slope(0.0)
    assert _planar_averages(zeros, slope, ref, True, False, False).complexity_ok[0]
    got = _planar_averages(zeros, slope, ref, True, True, False)
    assert got.complexity_ok[0] and not got.dcomplexity_ok[0]
    assert calls["bz_averages"] == 0
    avg = rows_of(_bloch_averages(model, [0.0], ref, None, complexity=True, derivative=True))[0]
    c, dc, terms = _split_reference(model, 0.0, ref)
    assert calls["bz_averages"] == 1
    assert abs(avg.complexity - c) <= 1e-10 and abs(avg.dcomplexity - dc) <= 1e-9 * terms


@pytest.mark.parametrize("t1", [0.3, 1.0, 1.3, 2.6, 7.0])
def test_the_plateau_is_exact(t1):
    for t2 in (0.1, 0.45, 0.9999, 1.0, 1.2, 2.1, 2.9, 11.0):
        with mp.workdps(30):
            want = mp.mpf(1) / 2 - mp.mpf(min(t1, t2)) / (mp.pi * t1)
        got = plateau_complexity(SSHParams(t1, t2))
        assert abs(got - want) <= 2 * math.ulp(float(want)), (t1, t2)


@pytest.mark.parametrize("model,lam", [(MODELS["ssh"].model({"t1": 1.0}), 1.0),
                                       (_ssh_t1(), -1.3), (MODELS["dual-ssh"].model({}), 1.0),
                                       (MODELS["massive-dirac"].model({}), 0.0)],
                         ids=lambda v: getattr(v, "label", repr(v)))
def test_an_on_line_split_of_a_closed_row_takes_its_c_from_its_zeros(model, lam, calls):
    # the half-circle means are finite at the closing; the measured error is 0, the bound
    # 2 ulp of 1/2
    for ref in SPLITS:
        assert abs(_closed_c(model, lam, ref, calls) - _split_reference(model, lam, ref, 2)) \
            <= 2.2e-16


@pytest.mark.parametrize("k0,family", [(1.0, "ssh"), (0.0, "cooper-pair-box")])
def test_a_split_off_the_line_takes_the_engine(k0, family, calls):
    # a jump at k = 1 is on no line of the ssh zeros; the box's zeros lie on the imaginary
    # axis, off its plateau's jumps at 0 and pi
    ref = PiecewiseBlochReference(((-PI, k0, BlochVector(0.0, 0.0, 1.0)),
                                   (k0, PI, BlochVector(0.0, 0.0, -1.0))))
    model = MODELS[family].model({})
    assert not _planar_averages(model.zeros([model.lam]), model.slope(model.lam), ref, True,
                                False, False).complexity_ok[0]
    run_sweep(SweepSpec(family, (MODELS[family].parameters[0], 0.2, 0.4, 3), reference=ref,
                        quantities=("complexity", "dcomplexity")))
    assert calls["bz_averages"] == 1 and calls["averages"] == 3


@pytest.mark.parametrize("family,fixed,lam,split,masks", [
    ("massive-dirac", {}, 50.0, False, (True, False, True)),
    ("massive-dirac", {}, -50.0, False, (True, False, True)),
    ("ssh", {"t1": 0.01}, 2.0, False, (True, False, True)),
    ("ssh", {}, 1.7, True, (False, False, True)),
    ("ssh", {}, 1.7, False, (True, True, True))])
def test_each_quantity_has_its_own_mask(family, fixed, lam, split, masks, calls):
    # a moving zero within 1e-2 of 0 (``_OFF_ORIGIN``) declines dC alone; a split at k = 1,
    # off the zeros' line, declines C and dC, and chi, which reads no reference, stays exact
    ref = PiecewiseBlochReference(((-PI, 1.0, BlochVector(0.0, 0.0, 1.0)),
                                   (1.0, PI, BlochVector(0.0, 0.0, -1.0)))) if split else REF
    model = MODELS[family].model(fixed)
    got = _planar_averages(model.zeros([lam]), model.slope(lam), ref, True, True, True)
    assert (got.complexity_ok[0], got.dcomplexity_ok[0], got.chi_ok[0]) == masks
    _bloch_averages(model, [lam], ref, None, complexity=masks[0], chi=True)
    assert calls["bz_averages"] == 0  # what the row passes stays exact
    # a row that declines one quantity takes every quantity it asks for to the engine
    avg, engine = (rows_of(f(model, [lam], ref, None, complexity=True, derivative=True,
                             chi=True))[0] for f in (_bloch_averages, _engine_averages))
    assert calls["bz_averages"] == 1 + (not all(masks))
    if not all(masks):
        assert (avg.complexity, avg.dcomplexity, avg.chi) == (
            engine.complexity, engine.dcomplexity, engine.chi)
        assert avg.integrals.tolist() == engine.integrals.tolist()


@pytest.mark.parametrize("t2", [0.5, 1.7, 1.0 + 1e-4, 1.0 - 1e-6])
def test_a_split_off_the_line_against_the_oracle(t2, calls):
    # the split's vectors jump at k = 1, off the line of the ssh zeros; C is within 3e-16
    # (measured 1.1e-16) and dC within 6e-16 of its terms (measured 1.9e-16)
    a, b = (vec for _, _, vec in SPLITS[1].pieces)
    ref = PiecewiseBlochReference(((-PI, 1.0, a), (1.0, PI, b)))
    model = MODELS["ssh"].model({"t1": 1.0})
    avg = rows_of(_bloch_averages(model, [t2], ref, None, complexity=True, derivative=True))[0]
    assert calls["bz_averages"] == 1
    c, dc, terms = _split_reference(model, t2, ref)
    assert abs(avg.complexity - c) <= 3e-16
    assert abs(avg.dcomplexity - dc) <= 6e-16 * terms


_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(theta=st.floats(-PI, PI), kappa=st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0),
       rate=st.complex_numbers(max_magnitude=2.0), big=st.floats(0.1, 0.9),
       ratio=st.floats(0.1, 0.55), flips=st.tuples(*[st.booleans()] * 6),
       rates=st.tuples(*[st.floats(0.1, 2.0)] * 2), a=_UNIT, b=_UNIT)
def test_a_random_row_split_on_its_line(theta, kappa, rate, big, ratio, flips, rates, a, b):
    # zeros reflected into the disk 0.01 to 0.9 from 0, the smaller one below 0.55 of the
    # larger, each inside or outside, on either side of 0 and moving either way.  Each bound
    # is the measured maximum times 2.7 to 3: on C 2.2e-16 (over 128 random rows), on dC
    # 6.7e-14 of its terms (rates 1 and -1 that cancel in the full-circle turn, as they do
    # with a global reference).  A row the exact path declines runs the engine instead
    zeros = [(1.0 / r if out else r) * (-1.0 if neg else 1.0)
             for r, out, neg in zip((big, big * ratio), flips[:2], flips[2:4])]
    rates = [-v if down else v for v, down in zip(rates, flips[4:])]
    model = _model_of(*_on_line(complex(math.cos(theta), math.sin(theta)), kappa, rate, zeros,
                                rates))
    cuts = sorted({math.remainder(t, 2.0 * PI) for t in (theta, theta + PI)} - {PI, -PI})
    edges, vectors = [-PI, *cuts, PI], [BlochVector(*a), BlochVector(*b)] * 2
    ref = PiecewiseBlochReference(tuple(zip(edges, edges[1:], vectors)))
    with mock.patch.object(fidelity, "_engine_averages",
                           wraps=fidelity._engine_averages) as engine:
        avg = rows_of(_bloch_averages(model, [0.0], ref, None, complexity=True,
                                      derivative=True))[0]
    if not engine.called:
        c, dc, terms = _split_reference(model, 0.0, ref)
        assert abs(avg.complexity - c) <= 6e-16
        assert abs(avg.dcomplexity - dc) <= 2e-13 * terms


@settings(derandomize=True, max_examples=25, deadline=None)
@given(theta=st.floats(-PI, PI), kappa=st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0),
       rate=st.complex_numbers(max_magnitude=2.0), big=st.floats(0.1, 0.9),
       ratio=st.floats(0.1, 0.55), flips=st.tuples(*[st.booleans()] * 6),
       rates=st.tuples(*[st.floats(0.1, 2.0)] * 2), polar=st.floats(0.0, PI),
       azimuth=st.floats(-PI, PI))
def test_the_bound_on_a_random_row(theta, kappa, rate, big, ratio, flips, rates, polar, azimuth):
    # the rows of test_a_random_row_split_on_its_line under a random global reference: both
    # sides of |dC/dlambda| <= sum_i |n_i| sqrt(chi_i) against the oracle, each error on the
    # scale of the right side, which bounds the size of the left side's terms.  Each bound is
    # about 3.5 times the maximum over 400 random rows: exact lhs 2.8e-13 (an absolute 6e-16
    # on deep zeros moving at opposite rates) and rhs 1.25e-14; engine 6.8e-15 and 5.9e-15
    zeros = [(1.0 / r if out else r) * (-1.0 if neg else 1.0)
             for r, out, neg in zip((big, big * ratio), flips[:2], flips[2:4])]
    rates = [-v if down else v for v, down in zip(rates, flips[4:])]
    model = _model_of(*_on_line(complex(math.cos(theta), math.sin(theta)), kappa, rate, zeros,
                                rates))
    ref = GlobalReference(polar, azimuth)
    with mock.patch.object(fidelity, "_engine_averages",
                           wraps=fidelity._engine_averages) as engine:
        report = bound_check(model, ref, 0.0)
    _, _, vx, vz, cx, cz = _reference(model, 0.0)
    n = ref.bloch.as_array()
    lhs = abs(0.5 * (n[0] * vx + n[2] * vz))
    rhs = abs(n[0]) * math.sqrt(cx) + abs(n[2]) * math.sqrt(cz)
    lhs_bound, rhs_bound = (2e-14, 2e-14) if engine.called else (1e-12, 4e-14)
    assert abs(report.lhs - lhs) <= lhs_bound * rhs
    assert abs(report.rhs - rhs) <= rhs_bound * rhs
    assert lhs <= rhs and report.satisfied
