"""Fidelity susceptibility of two-band ground states.

Per mode chi_F(k) = |d(d_hat)/d(lambda)|^2 / 4, with the unit-vector
derivative obtained from the transverse projection of d(d)/d(lambda); the BZ
average and its exact component decomposition are provided together with the
closed forms of the dimerized-chain and massive-Dirac families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .bloch import GlobalReference, PiecewiseBlochReference
from .errors import ConvergenceError, DomainError, GapClosedError
from .models import (GAP_EPS, ContourZeros, MassiveDiracParams, SSHParams, TwoBandModel,
                     _coefficients, singular_points)
from .quadrature import BZQuadratureConfig, bz_averages, graded_edges

PI = math.pi

# Landen steps of ``_cel`` (kc in (0, 3]): 8 meet double precision down to kc = 1e-14.
_CEL_STEPS = 9
# A row is exact if its reflected zeros leave one line through 0 by at most _ON_LINE of
# 1 - |sigma| (their lambda-derivatives, of their size; a closed row's other zero by _ROUNDING
# sum |p_i| / |p'|, four times the rounding of the zeros) and, for dC, its moving zeros sit
# _OFF_ORIGIN from 0, where a mean loses 2e-16 / |sigma| to a difference of cel values.
_ON_LINE, _OFF_ORIGIN, _ROUNDING = 1e-13, 1e-2, 4.0 * np.finfo(float).eps
# A split's dC declines _BESIDE the circle where u is off both axes, and so rounded: there
# the full-circle turn's 1 - |sigma| loses 1e-17 / (1 - |sigma|) to it.  h'(s), h =
# artanh(sqrt s) / sqrt s, is the series n s^(n-1) / (2n + 1) for |s| < 0.05, where
# (1 / (1 - s) - h) / 2s cancels.
_BESIDE, _H_SLOPE = 1e-3, np.arange(1.0, 15.0) / np.arange(3.0, 31.0, 2.0)


def dhat_derivative(d, d_deriv) -> np.ndarray:
    """Derivative of the unit vector: (d_deriv - d_hat (d_hat . d_deriv)) / |d|.

    Takes one vector of shape (3,), or shape (3, n) with a trailing k axis.
    Raises GapClosedError if |d| < GAP_EPS for the vector or any column.
    """
    d = np.asarray(d, dtype=float)
    dd = np.asarray(d_deriv, dtype=float)
    n = np.sqrt((d * d).sum(axis=0))
    if (n < GAP_EPS).any():
        raise GapClosedError("unit-vector derivative undefined at a gap closing")
    dhat = d / n
    return (dd - dhat * np.sum(dhat * dd, axis=0)) / n


def chi_F_per_mode(d, d_deriv) -> float:
    """chi_F(k, lambda) = |d(d_hat)/d(lambda)|^2 / 4 for one momentum mode."""
    v = dhat_derivative(d, d_deriv)
    return 0.25 * float(v @ v)


def chi_F_per_mode_projector(d, d_deriv, step: float = 1e-6) -> float:
    """Oracle path: (1/2) Tr[(dP/d(lambda))^2] from finite-differenced projectors.

    P = (1 - sigma . d_hat)/2 is the lower-band projector; the projector is
    rebuilt at d +- step * d_deriv and differenced.  Slower and less accurate
    than the transverse projection, kept for cross-checks.
    """
    d = np.asarray(d, dtype=float)
    dd = np.asarray(d_deriv, dtype=float)

    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

    def projector(vec):
        n = np.linalg.norm(vec)
        if n < GAP_EPS:
            raise GapClosedError("projector undefined at a gap closing")
        dh = vec / n
        return 0.5 * (np.eye(2, dtype=complex) - dh[0] * sx - dh[1] * sy - dh[2] * sz)

    dp = (projector(d + step * dd) - projector(d - step * dd)) / (2.0 * step)
    return 0.5 * float(np.real(np.trace(dp @ dp)))


@dataclass(frozen=True)
class SusceptibilityBreakdown:
    """Total susceptibility and its exact per-axis decomposition."""

    total: float
    components: Tuple[float, float, float]
    diverged: bool = False


class _BlochAverages(NamedTuple):
    """BZ averages at one parameter point; None if not asked for, dC on a closed gap, and C
    of a closed lossy row asked for dC, which runs no average."""
    complexity: Optional[float]
    dcomplexity: Optional[float]
    integrals: Optional[np.ndarray]  # integral of d(d_hat)/d(lambda) dk, per axis
    chi: Optional[SusceptibilityBreakdown]
    closed: bool = False


def _cel(kc, p, a, b):
    """Bulirsch's int_0^{pi/2} (a cos^2 + b sin^2) / ((cos^2 + p sin^2) sqrt(cos^2 + kc^2 sin^2))
    for kc, p > 0 (Numer. Math. 13 (1969) 305), in a fixed number of Landen steps, so that a
    row's value does not depend on the rows evaluated with it (faster: kc, p of a's shape)."""
    e, em, p = kc, 1.0, np.sqrt(p)
    b = b / p
    for _ in range(_CEL_STEPS):
        t = b + a * e / p  # doubled as t + t, which numpy does faster than 2.0 * t
        a, b = a + b / p, t + t
        p, em, kc = e / p + p, em + kc, 2.0 * np.sqrt(e)
        e = kc * em
    return 0.5 * PI * (b + a * em) / (em * (em + p))


def _h(x):
    """h(x) = artanh(sqrt x) / sqrt x, analytic through h(0) = 1 (arctan(sqrt -x) / sqrt -x
    for x < 0)."""
    t = np.sqrt(0j + x)
    return np.where(t == 0.0, 1.0, (np.arctanh(t) / t).real)


class _Line(NamedTuple):
    """The rows' zeros on their line u = e^{i theta} through 0, from ``_zeros_on_line``: with
    e^{ik} = u w, each zero reflected into the disk is sigma_j u, sigma_j real, and
    |d| = |kappa| sqrt(Q_1 Q_2), Q_j = |w - sigma_j|^2.  Arrays are per row, (2, n) per zero."""
    z: np.ndarray  # the zeros reflected into the disk
    u: np.ndarray
    sig: np.ndarray
    g: np.ndarray  # 1 - |sigma_j|
    kappa: np.ndarray
    ends: np.ndarray  # (x, z) of d at theta and at theta + pi, (2, 2, n)
    slope: np.ndarray  # d_k of d_x - i d_z at theta
    order: tuple  # the (zero, row) indices of the larger zero and of the smaller
    line: np.ndarray  # the line and on-circle tests


def _zeros_on_line(zeros: ContourZeros, slope, ref) -> Optional[_Line]:
    """The ``_Line`` of rows from their ``ContourZeros``, or None, no row exact, unless they
    and their ``slope`` rows are planar (d_y = 0, and its rate) and ``ref`` is None, global
    or piecewise.  1 - |sigma_j| is |d| beside zero j over |kappa| |sign(sigma_j) - sigma_k|,
    exact at a closing.  ``line`` passes an open row whose zeros leave the line by at most
    _ON_LINE of 1 - |sigma|, the smaller not beside u, and a closed row (sigma_1 = 1) whose
    other zero is on it to _ROUNDING sum |p_i| / |p'|."""
    (p2, q, p0), zs, p1, inside, closed = zeros.p, zeros.p, zeros.p1, zeros.inside, zeros.closed
    if not (ref is None or isinstance(ref, (GlobalReference, PiecewiseBlochReference))) or any(
            np.any(y) if isinstance(y, np.ndarray) else y for _, y, _ in (*zeros.rows, *slope)):
        return None
    r, num, den = np.arange(closed.size), zs[1:], zs[:2]  # the zeros q / p2 and p0 / q
    z = np.where(inside, num / den, (den / num).conj())  # outside: reflected, 1 / conj(z)
    size = abs(z)
    big = 1 * (size[1] > size[0])
    b, s, zb = (big, r), (1 - big, r), z[big, r]
    # each part divided alone: numpy divides by a real through its reciprocal, and
    # a u off the unit circle by an ulp loses digits of dC beside a closing
    u = np.where(zb == 0.0, 1.0, zb.real / size[b] + 1j * (zb.imag / size[b]))
    uc = u.conj()
    w = z * uc
    sig, asig, neg = w.real, abs(w.real), w.real < 0.0
    kappa = np.where(inside[0], p2, -q) * np.where(inside[1], 1.0, -p0 / q)
    amp, odd = abs(kappa), p0 * uc + p2 * u  # d_x - i d_z = p0 / z + p1 + p2 z at z = +-u
    ends = np.array([p1 + odd, p1 - odd])
    g = np.where((asig <= 0.5) | closed, 1.0 - asig, abs(np.where(neg, ends[1], ends[0]))
                 / (amp * abs(np.where(neg, -1.0, 1.0) - sig[::-1])))
    line = abs(w.imag) <= _ON_LINE * g  # off the line by far less than the gap
    on = abs(w[s].imag) * abs(p1 + 2.0 * q) <= _ROUNDING * (abs(p0) + abs(p1) + abs(p2))
    ends = np.array([ends.real, -ends.imag]).transpose(1, 0, 2)  # (x, z) at theta, + pi
    return _Line(z, u, sig, g, kappa, ends, 1j * (p2 * u - p0 * uc), (b, s),
                 np.where(closed, on, line[b] & (line & (sig <= 0.5))[s]))  # open: not beside u


def _rates(zeros: ContourZeros, line: _Line, slope):
    """(tau, omega, fine) of rows as lambda moves: tau_j is +- the rate of sigma_j for a zero
    outside/inside and omega the rate of arg kappa, so that the angle psi of d_x + i d_z
    moves as -omega + sin(phi) sum_j tau_j / Q_j; ``fine`` where the zeros also stay on the
    line, to _ON_LINE of their rates."""
    (p2, q, p0), zs, p1, inside = zeros.p, zeros.p, zeros.p1, zeros.inside
    s0, s1, s2 = (v * np.ones(zeros.closed.size) for v in _coefficients(slope))
    dq = (s1 * q + s0 * p2 + p0 * s2) / -(2.0 * q + p1)  # q^2 + p1 q + p0 p2 = 0
    dzs = np.array([s2, dq, s0])  # the rates of p2, q, p0
    dnum, dden, rate, z = dzs[1:], dzs[:2], dzs / zs, line.z
    dz = np.where(inside, (dnum - z * dden) / zs[:2], ((dden - z.conj() * dnum) / zs[1:]).conj())
    dsig = dz * line.u.conj()
    omega = (np.where(inside[0], rate[0], rate[1])
             + np.where(inside[1], 0.0, rate[2] - rate[1])).imag
    return (np.where(inside, -dsig.real, dsig.real), omega,
            (abs(dsig.imag) <= _ON_LINE * abs(dz)).all(0))


def _c_stage(zeros: ContourZeros, line: _Line, ref, complexity: bool, derivative: bool):
    """(C or None, ok, means) of rows.  ``means`` are <d_hat> per axis (x, z), its odd part
    under a piecewise ``ref`` (else None), for ``derivative`` the dC stage's means <sin^2 phi
    / (|d| Q_j)> and their odd parts, made here as they share the one cel call and
    h(sigma_1 sigma_2), the reference's average of a full and an odd mean, and the mean of
    its two sides.  ``ok`` passes the ``line`` test, finite
    values and a piecewise ``ref`` that jumps only at k = theta or theta + pi, to the
    breakpoint's rounding, with the smaller zero at most 1/2 from 0: it is n+ on
    phi = k - theta in (0, pi) and n- on the rest, so a mean is (n+ + n-) / 2 of the full one
    plus (n+ - n-) of its odd part.

    With sigma_1 the larger, <N / |d|> = 2 cel(kc, p, N(theta), p N(theta + pi)) / (pi |kappa|
    (1 + sigma_1)(1 - sigma_2)), kc = (1 - sigma_1)(1 + sigma_2) / ((1 + sigma_1)(1 - sigma_2))
    and p = ((1 - sigma_1) / (1 + sigma_1))^2.  A closed row has sigma_1 = 1, sigma_2 anywhere
    on the line, and only <d_hat>, the limit (2 / pi) (1 + sigma_2) h(-sigma_2) d_hat(theta
    + pi), and 1 +- sigma_j from sigma_j (g is 0/0 beside the closing); 0 with sigma_2 = -1.
    The odd parts are elementary in x = cos phi (Gradshteyn & Ryzhik 2.26): int dx / sqrt(Q_1
    Q_2) = 2 h(sigma_1 sigma_2), and the spin terms' int e dx / (Q_j sqrt(Q_1 Q_2)), e the even
    part of d_x - i d_z over K = kappa u^(inside - 1), are sums of h and h', finite at a
    closing, where they give a closed row's C too.
    """
    (b, s), sig, g, ends, amp = line.order, line.sig, line.g, line.ends, abs(line.kappa)
    n, gm, pa, neg = zeros.closed.size, 2.0 - g, PI * amp, sig < 0.0
    m, P = np.where(neg, gm, g), np.where(neg, g, gm)  # 1 - sigma, 1 + sigma
    mb, Pb, ms, Ps = m[b], P[b], m[s], P[s]
    kc, pc = mb * Ps / (Pb * ms), (mb / Pb) ** 2
    if derivative:  # <sin^2 phi / (|d| Q_j)> along zero j, the other at sign(sigma_j) sigma_k
        mk, Pk = np.where(neg, P[::-1], m[::-1]), np.where(neg, m[::-1], P[::-1])
        kj = g * Pk / (gm * mk)
        kc = np.concatenate(([kc, kc], kj, kj))
        pc = np.concatenate(([pc, pc], np.ones((2, n)), (g / gm) ** 2))
    out = _cel(*((kc, pc, np.concatenate((ends[0], np.zeros((4, n)))),
                  np.concatenate((pc[:2] * ends[1], pc[2:]))) if derivative else
                 (np.array([kc, kc]), np.array([pc, pc]), ends[0], pc * ends[1])))
    sines = 2.0 * (out[2:4] - out[4:]) / (pa * gm * mk * abs(sig)) if derivative else None
    dhat = 2.0 / (pa * Pb * ms) * out[:2]
    if zeros.closed.any():  # the larger zero on the circle, the other at sig[s]
        dhat = np.where(zeros.closed, np.where(Ps == 0.0, 0.0, 2.0 / PI * Ps * _h(-sig[s])
                                               * ends[1] / np.hypot(*ends[1])), dhat)
    half = odd_sines = mean = None
    ok = line.line
    if isinstance(ref, PiecewiseBlochReference):
        jumps, sp = ref.jumps(), sig[0] * sig[1]  # h(sp) is half int dx / sqrt(Q_1 Q_2)
        ok = ok & (sig[s] <= 0.5) & (abs((np.exp(1j * jumps)[:, None] * line.u.conj()).imag)
                                      <= _ROUNDING * (1.0 + abs(jumps))[:, None]).all(0)
        hp = _h(sp)
        half = np.array([line.slope.real, -line.slope.imag]) / amp * (hp / PI)
        # the reference on phi > 0 and phi < 0, read at theta +- pi / 2
        sides = [ref.bloch_at(np.angle(turn_by * line.u))[::2] for turn_by in (1j, -1j)]
        mean, diff = 0.5 * (sides[0] + sides[1]), sides[0] - sides[1]
        avg = lambda full, part: (mean * full).sum(0) + (diff * part).sum(0)
        if derivative:  # f's even part is K e(cos phi), e real and linear
            hs = np.where(abs(sp) < 0.05, np.polynomial.polynomial.polyval(sp, _H_SLOPE),
                          (1.0 / (1.0 - sp) - hp) / (sp + sp))  # h', without cancellation
            other, inside = sig[::-1], zeros.inside
            odd_sines = np.where(inside[0] == inside[1], 2.0 * other * ((1.0 - sp) * hs - hp),
                                 2.0 * ((sig - other) * other * hs + hp))
    else:
        nref = (np.zeros(3) if ref is None else ref.bloch_at(0.0))[::2]
        avg = lambda full, part: nref @ full
    ok = ok & np.isfinite(dhat if half is None else dhat + half).all(0)
    return (0.5 + 0.5 * avg(dhat, half) if complexity else None, ok,
            (dhat, half, sines, odd_sines, avg, mean))


def _dc_stage(zeros: ContourZeros, line: _Line, rates, ok, means):
    """(dC, <d(d_hat)/d(lambda)> per axis, ok) of rows from their ``_rates`` and the C
    stage's ``ok`` and ``means``: <d(d_hat)/d(lambda)> turns -omega <d_hat> + d_k d(theta)
    sum_j tau_j <sin^2 phi / (|d| Q_j)> by 90 degrees, and its odd part likewise.  ``ok``
    adds that an open row's rates are ``fine`` and its values finite, with its moving zeros
    _OFF_ORIGIN from 0, where a mean loses 2e-16 / |sigma| to a difference of cel values,
    and, under a piecewise reference with n+ + n- != 0 and u off both axes, so rounded, with
    its zeros _BESIDE the circle or farther: there the full-circle turn loses
    1e-17 / (1 - |sigma|) to it."""
    (tau, omega, fine), (dhat, half, sines, odd_sines, avg, mean) = rates, means
    k, u = line.slope, line.u
    spin = (tau * np.where(tau == 0.0, 0.0, sines)).sum(0)
    turn = np.array([k.imag * spin + omega * dhat[1], k.real * spin - omega * dhat[0]])
    fine = (fine & ((tau == 0.0) | (abs(line.sig) >= _OFF_ORIGIN)).all(0)
            & np.isfinite(turn).all(0))
    half_turn = None
    if half is not None:
        # dC takes the full-circle turn where the mean is not 0, which a rounded u spoils
        ok = ok & (zeros.closed | ~((u.real != 0.0) & (u.imag != 0.0) & mean.any(0))
                   | (line.g >= _BESIDE).all(0))
        K = line.kappa * u ** (zeros.inside.sum(0) - 1)
        spin = (tau * odd_sines).sum(0) / (2.0 * (PI * abs(line.kappa)))
        half_turn = np.array([K.imag * spin + omega * half[1], K.real * spin - omega * half[0]])
        fine &= np.isfinite(half_turn).all(0)
    return 0.5 * avg(turn, half_turn), turn, ok & (zeros.closed | fine)


def _chi_stage(zeros: ContourZeros, line: _Line, rates):
    """(chi_F per axis (x, z), ok) of rows from their ``_rates``: <(d psi)^2> / 4 and its axes,
    the factor Re e^{2 i psi}, as residue sums in the sigma_j.  ``ok`` passes the ``line``
    test and an open row whose rates are ``fine`` and whose values are finite."""
    (tau, omega, fine), inside, sig, g = rates, zeros.inside, line.sig, line.g
    # <(d psi)^2> and that less <e^{2 i psi} (d psi)^2> / phase, per side
    a, c, iw = g * (2.0 - g), 1.0 - sig[0] * sig[1], 1j * omega
    t2, om2, tt = tau ** 2, omega ** 2, 2.0 * tau[0] * tau[1]
    ta, ts, lean = t2 / a, tau * sig[::-1], t2 * (1.0 / a - (sig * sig / c)[::-1])
    total = om2 + 0.5 * (ta[0] + tt / c + ta[1])
    same = total - om2 * sig[0] * sig[1] - iw * (ts[0] + ts[1]) + 0.25 * (
        lean[0] + tt + lean[1])
    io = (np.array([inside[0], ~inside[0]]) * 1, line.order[0][1])  # outside, inside
    (X, Y), T, A = sig[io], tau[io], a[io]
    d, XY, mid = X - Y, X * Y, T * (c + A[::-1])
    far = T ** 2 * (XY * c + A[::-1]) / A
    mixed = d / c * (d * total + iw * (mid[0] + mid[1]) / c + d / (4.0 * c * c) * (
        far[0] + 2.0 * T[0] * T[1] * (1.0 + XY) + far[1]))
    less = np.where(inside[0] != inside[1], mixed, np.where(inside[0], same.conj(), same))
    phase = line.kappa.conj() / line.kappa * line.u ** (2 - 2 * inside.sum(0))
    tilt = (phase * less).real
    gains = np.array([total * (1.0 - phase.real) + tilt, total * (1.0 + phase.real) - tilt]) / 8.0
    return gains, line.line & (zeros.closed | fine & np.isfinite(gains).all(0))


class _Exact(NamedTuple):
    """``_planar_averages``: values, each axis pair (x, z), and per quantity the mask of the
    rows that take the exact path; None where not asked for."""
    complexity: Optional[np.ndarray]
    dcomplexity: Optional[np.ndarray]
    turn: Optional[np.ndarray]  # <d(d_hat)/d(lambda)> per axis
    gains: Optional[np.ndarray]  # chi_F per axis
    complexity_ok: Optional[np.ndarray]
    dcomplexity_ok: Optional[np.ndarray]
    chi_ok: Optional[np.ndarray]


def _planar_averages(zeros: ContourZeros, slope, ref, complexity: bool, derivative: bool,
                     chi: bool) -> _Exact:
    """C, dC, <d(d_hat)/d(lambda)> and chi_F of rows from their ``ContourZeros`` and slope
    rows under ``ref``, in stages: the zeros' line, their rates (for dC or chi), the C stage
    (for C or dC), the dC stage and the chi stage, each with the mask of the rows it takes."""
    with np.errstate(all="ignore"):
        line = _zeros_on_line(zeros, slope, ref)
        if line is None:
            no = np.zeros(zeros.closed.size, bool)
            return _Exact(*[None] * 4, *(no if q else None for q in (complexity, derivative, chi)))
        rates = _rates(zeros, line, slope) if derivative or chi else None
        c, c_ok, means = _c_stage(zeros, line, ref, complexity, derivative) if (
            complexity or derivative) else (None,) * 3
        dc, turn, dc_ok = _dc_stage(zeros, line, rates, c_ok, means) if derivative else (None,) * 3
        gains, chi_ok = _chi_stage(zeros, line, rates) if chi else (None, None)
    return _Exact(c, dc, turn, gains, c_ok if complexity else None, dc_ok, chi_ok)


def _bloch_averages(m: TwoBandModel, lams, ref, cfg: BZQuadratureConfig | None, *,
                    complexity=False, derivative=False, chi=False,
                    zeros: ContourZeros | None = None) -> List[_BlochAverages]:
    """C, dC/d(lambda) with the d_hat-derivative integrals and chi_F of the family ``m`` at
    each of ``lams``, whose ``TwoBandModel.zeros`` the caller may pass.

    Rows split three ways: idle ones need no average (a closed gap without C, or a request of
    none); exact ones take them from ``_planar_averages`` (planar rows whose zeros lie on one
    line, under no reference, a global one or a piecewise one that jumps on that line),
    where the masks of every quantity asked for pass; the rest (a split at k0 != 0, the
    Cooper-pair box's plateau, a moving zero beside 0 for dC) from ``_engine_averages``.  Whichever path
    gave its C, every ``closed`` row's record is made here: C alone, dC None and chi inf,
    flagged diverged.  A non-finite lambda is a DomainError.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise DomainError("the parameter value must be finite")
    zeros = m.zeros(lams) if zeros is None else zeros
    idle = zeros.closed & (not complexity) | (not (complexity or derivative or chi))
    exact = ~idle
    cs, dcs, integrals, chis = ([None] * lams.size for _ in range(4))
    if exact.any():
        got = _planar_averages(zeros, m.slope(lams), ref, complexity, derivative, chi)
        for ok in (got.complexity_ok, got.dcomplexity_ok, got.chi_ok):  # until each is routed
            exact &= True if ok is None else ok
    if exact.any():
        cs = got.complexity.tolist() if complexity else cs
        if derivative:
            dcs, integrals = got.dcomplexity.tolist(), np.zeros((lams.size, 3))
            integrals[:, ::2] = 2.0 * PI * got.turn.T
        if chi:  # the total as numpy sums three
            chis = [SusceptibilityBreakdown(0.0 + x + 0.0 + z, (x, 0.0, z))
                    for x, z in zip(*got.gains.tolist())]
    rest = (~(exact | idle)).nonzero()[0]
    for i, avg in zip(rest.tolist(), _engine_averages(
            m, lams[rest], ref, cfg, complexity=complexity, derivative=derivative, chi=chi,
            zeros=zeros.take(rest)) if rest.size else ()):
        cs[i], dcs[i], integrals[i], chis[i] = avg[:4]
    diverged = SusceptibilityBreakdown(np.inf, (np.inf,) * 3, True) if chi else None
    return [_BlochAverages(cs[i], None, None, diverged, True) if is_closed else
            _BlochAverages(cs[i], dcs[i], integrals[i], chis[i])
            for i, is_closed in enumerate(zeros.closed.tolist())]


def _engine_averages(m: TwoBandModel, lams, ref, cfg: BZQuadratureConfig | None, *,
                     complexity=False, derivative=False, chi=False,
                     zeros: ContourZeros | None = None) -> List[_BlochAverages]:
    """``_bloch_averages`` by quadrature, for the rows the exact path does not take and as
    its oracle (``zeros`` are the rows' ``TwoBandModel.zeros``): one ``bz_averages`` run in
    which each lambda owns the reference breakpoints and the ``graded_edges`` at its
    ``singular_points`` k_s, graded by the gap scale w = |d(k_s)| / |d_k d(k_s)| where
    GAP_EPS <= |d| < |d_k d|; elsewhere (a closed gap, a zero slope, w >= 1) k_s is an
    edge ungraded.

    The kernel evaluates d_deriv only for dC or chi, and returns a group per
    quantity asked for: C_k; (n_ref . v / 2, v) with v = d(d_hat)/d(lambda);
    v^2 / 4 per axis.  Every row needs an average, and each record is the plain average: a
    ``closed`` gap, asked for C, shares the run with v zeroed, so that its C is the C-only
    average's bit for bit and its dC and chi read 0 (``_bloch_averages`` makes its closed
    record).  An exhausted budget flags chi diverged and keeps every group's unconverged
    estimate (chi's non-finite ones as inf); without chi it raises.
    """
    lams = np.asarray(lams, dtype=float)
    zeros = m.zeros(lams) if zeros is None else zeros
    closed = zeros.closed
    zeroing = closed.any()  # no per-node work where no row is closed
    uses_ref = complexity or derivative

    def kernel(k, owner):
        point = m.at(lams[owner])
        d = point.d(k)
        nref = ref.bloch_at(k) if uses_ref else None
        groups = []
        if complexity:
            n = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            if (n < GAP_EPS).any():
                raise GapClosedError("ground-state Bloch vector undefined: |d| = 0")
            groups.append(0.5 * (1.0 + (nref[0] * d[0] + nref[1] * d[1] + nref[2] * d[2]) / n))
        if derivative or chi:
            d_deriv = point.d_deriv(k)
            v = dhat_derivative(d, np.where(closed[owner], 0.0, d_deriv) if zeroing else d_deriv)
            if derivative:
                dot = nref[0] * v[0] + nref[1] * v[1] + nref[2] * v[2]
                groups.append(np.vstack((0.5 * dot, v)))
            if chi:
                groups.append(0.25 * v * v)
        return tuple(groups)

    points, gap, slope = singular_points(zeros)
    edges = graded_edges(points, np.divide(gap, slope, out=np.zeros(gap.shape),
                                           where=(gap >= GAP_EPS) & (gap < slope)))
    breaks = ref.breakpoints() if uses_ref else ()
    edges = np.hstack((edges, np.full((len(edges), len(breaks)), breaks)))
    results = []
    for out in bz_averages(kernel, edges, cfg):
        diverged = isinstance(out, ConvergenceError)
        if diverged and not chi:
            raise out
        out = iter(out.estimate if diverged else out)
        c = float(next(out)) if complexity else None
        dc = integrals = breakdown = None
        if derivative:
            row = next(out)
            dc, integrals = float(row[0]), 2.0 * PI * row[1:]
        if chi:  # the total in the order of numpy's sum of three: ((0 + x) + y) + z
            comps = tuple(x if math.isfinite(x) else np.inf for x in next(out).tolist())
            breakdown = SusceptibilityBreakdown(0.0 + comps[0] + comps[1] + comps[2], comps,
                                                diverged)
        results.append(_BlochAverages(c, dc, integrals, breakdown))
    return results


def chi_F(model: TwoBandModel, lam: float,
          cfg: BZQuadratureConfig | None = None) -> SusceptibilityBreakdown:
    """BZ-averaged fidelity susceptibility of a model family at parameter lam.

    Components chi_F^i = (1/8*pi) * integral |d(d_hat_i)/d(lambda)|^2 dk are
    integrated together, so their sum equals the total identically.  On a
    closed gap no average runs and every component is inf, flagged diverged.
    Elsewhere the integral is finite, however large; only an exhausted
    budget flags it, keeping the estimate with non-finite components as inf.
    """
    return _bloch_averages(model, [lam], None, cfg, chi=True)[0].chi


def chi_F_ssh_closed(params: SSHParams) -> float:
    """Closed-form x-component of the SSH susceptibility (sweep parameter t2).

    3 t2^2 / (32 t1^2 (t1^2 - t2^2)) for t1 > t2 and the t1 <-> t2 mirror for
    t2 > t1; diverges like 1/|t1 - t2| at the transition.  The difference of
    squares is formed as (t1 - t2)(t1 + t2), which does not cancel there.
    """
    t1, t2 = params.t1, params.t2
    if t1 == t2:
        raise DomainError("SSH susceptibility diverges at t1 = t2")
    if t1 > t2:
        return 3.0 * t2 ** 2 / (32.0 * t1 ** 2 * ((t1 - t2) * (t1 + t2)))
    return 3.0 * t1 ** 2 / (32.0 * t2 ** 2 * ((t2 - t1) * (t2 + t1)))


def chi_F_md_closed(params: MassiveDiracParams) -> float:
    """Closed-form massive-Dirac susceptibility 1 / (8 |mu| (1 + mu^2)^(3/2))."""
    mu = params.mu
    if mu == 0.0:
        raise DomainError("massive-Dirac susceptibility diverges at mu = 0")
    return 1.0 / (8.0 * abs(mu) * (1.0 + mu * mu) ** 1.5)


def chi_F_md_z_closed(params: MassiveDiracParams) -> float:
    """z-component of the massive-Dirac susceptibility, 3 / (32 |mu| (1 + mu^2)^(5/2))."""
    mu = params.mu
    if mu == 0.0:
        raise DomainError("massive-Dirac susceptibility diverges at mu = 0")
    return 3.0 / (32.0 * abs(mu) * (1.0 + mu * mu) ** 2.5)
