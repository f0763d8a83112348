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

from .bloch import GlobalReference
from .errors import ConvergenceError, DomainError, GapClosedError
from .models import (GAP_EPS, MassiveDiracParams, SSHParams, TwoBandModel, _coefficients,
                     closed_rows)
from .quadrature import BZQuadratureConfig, bz_averages

PI = math.pi

# Landen steps of ``_cel`` (kc in (0, 3]): 8 meet double precision down to kc = 1e-14.
_CEL_STEPS = 9
# A row is exact if its reflected zeros leave one line through 0 by at most _ON_LINE of
# 1 - |sigma| (their lambda-derivatives, of their size) and, for dC, its moving zeros sit
# _OFF_ORIGIN from 0, where a mean loses 2e-16 / |sigma| to a difference of cel values.
_ON_LINE, _OFF_ORIGIN = 1e-13, 1e-2


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
    """BZ averages at one parameter point; None if not asked for, and dC on a closed gap."""
    complexity: Optional[float]
    dcomplexity: Optional[float]
    integrals: Optional[np.ndarray]  # integral of d(d_hat)/d(lambda) dk, per axis
    chi: Optional[SusceptibilityBreakdown]
    closed: bool = False


def _cel(kc, p, a, b):
    """Bulirsch's int_0^{pi/2} (a cos^2 + b sin^2) / ((cos^2 + p sin^2) sqrt(cos^2 + kc^2 sin^2))
    for kc, p > 0 (Numer. Math. 13 (1969) 305), in a fixed number of Landen steps, so
    that a row's value does not depend on the rows evaluated with it."""
    e, em, p = kc, 1.0, np.sqrt(p)
    b = b / p
    for _ in range(_CEL_STEPS):
        a, b = a + b / p, 2.0 * (b + a * e / p)
        p, em, kc = e / p + p, em + kc, 2.0 * np.sqrt(e)
        e = kc * em
    return 0.5 * PI * (b + a * em) / (em * (em + p))


def _planar_averages(rows, slope, zeros, n: int, complexity: bool, derivative: bool, chi: bool):
    """(ok, <d_hat>, <d(d_hat)/d(lambda)>, chi_F per axis), each (x, z) or None where not
    asked for, of ``n`` planar rows with their slope rows and ``_contour_zeros``; ``ok``
    marks the rows whose zeros lie on one line u = e^{i theta} through 0 (for dC or chi,
    also as lambda moves) and whose values are finite.

    Each zero reflected into the disk is sigma_j u, sigma_j real: with e^{ik} = u w,
    |d| = |kappa| sqrt(Q_1 Q_2), Q_j = |w - sigma_j|^2, and 1 - |sigma_j| is |d| beside
    zero j over |kappa| |sign(sigma_j) - sigma_k|, exact at a closing.  With sigma_1 the
    larger, <N / |d|> = 2 cel(kc, p, N(theta), p N(theta + pi)) / (pi |kappa| (1 + sigma_1)
    (1 - sigma_2)), kc = (1 - sigma_1)(1 + sigma_2) / ((1 + sigma_1)(1 - sigma_2)) and
    p = ((1 - sigma_1) / (1 + sigma_1))^2.  The angle psi of d_x + i d_z moves as
    -omega + sin(phi) sum_j tau_j / Q_j (omega the rate of arg kappa, tau_j +- the rate of
    sigma_j for a zero outside/inside): <d(d_hat)/d(lambda)> turns -omega <d_hat> + d_k
    d(theta) sum_j tau_j <sin^2 phi / (|d| Q_j)> by 90 degrees, each mean two cel values,
    and chi_F with its axes (the factor Re e^{2 i psi}) are residue sums in the sigma_j.
    """
    p0, q, p2 = np.broadcast_arrays(*zeros, np.empty(n))[:3]
    r = np.arange(n)
    with np.errstate(all="ignore"):
        num, den = np.array([q, p0]), np.array([p2, q])  # the zeros q / p2 and p0 / q
        inside = abs(num) < abs(den)
        z = np.where(inside, num / den, (den / num).conj())  # outside: reflected, 1 / conj(z)
        big = 1 * (abs(z[1]) > abs(z[0]))
        u = np.where(z[big, r] == 0.0, 1.0, z[big, r] / abs(z[big, r]))
        sig, off = (z * u.conj()).real, abs((z * u.conj()).imag)
        kappa = np.where(inside[0], p2, -q) * np.where(inside[1], 1.0, -p0 / q)
        amp, (_, p1, _) = abs(kappa), _coefficients(rows)
        odd = p0 * u.conj() + p2 * u  # d_x - i d_z = p0 / z + p1 + p2 z at z = +-u
        ends = np.array([p1 + odd, p1 - odd])
        neg = sig < 0.0
        g = np.where(abs(sig) <= 0.5, 1.0 - abs(sig), abs(np.where(neg, ends[1], ends[0]))
                     / (amp * abs(np.where(neg, -1.0, 1.0) - sig[::-1])))
        ends = np.array([ends.real, -ends.imag]).transpose(1, 0, 2)  # (x, z) at theta, + pi
        ok = (off <= _ON_LINE * g).all(0)  # off the line by far less than the gap
        m, P = np.where(neg, 2.0 - g, g), np.where(neg, g, 2.0 - g)  # 1 - sigma, 1 + sigma
        mb, Pb, ms, Ps = m[big, r], P[big, r], m[1 - big, r], P[1 - big, r]
        ok &= sig[1 - big, r] <= 0.5  # not both zeros beside one point of the circle
        kc, pc = mb * Ps / (Pb * ms), (mb / Pb) ** 2
        if derivative or chi:
            s0, s1, s2 = (v * np.ones(n) for v in _coefficients(slope))
            dq = (s1 * q + s0 * p2 + p0 * s2) / -(2.0 * q + p1)  # q^2 + p1 q + p0 p2 = 0
            dnum, dden = np.array([dq, s0]), np.array([s2, dq])
            dz = np.where(inside, (dnum - z * dden) / den, ((dden - z.conj() * dnum) / num).conj())
            dsig = dz * u.conj()
            ok &= (abs(dsig.imag) <= _ON_LINE * abs(dz)).all(0)
            tau = np.where(inside, -dsig.real, dsig.real)
            omega = (np.where(inside[0], s2 / p2, dq / q)
                     + np.where(inside[1], 0.0, s0 / p0 - dq / q)).imag
        if derivative:  # <sin^2 phi / (|d| Q_j)> along zero j, the other at sign(sigma_j) sigma_k
            mk, Pk = np.where(neg, P[::-1], m[::-1]), np.where(neg, m[::-1], P[::-1])
            kc = np.vstack((kc, kc, np.tile(g * Pk / ((2.0 - g) * mk), (2, 1))))
            pc = np.vstack((pc, pc, np.ones((2, n)), (g / (2.0 - g)) ** 2))
        dhat = turn = gains = None
        if complexity or derivative:
            out = _cel(kc, pc, *((np.vstack((ends[0], np.zeros((4, n)))),
                                  np.vstack((pc[:2] * ends[1], pc[2:]))) if derivative else
                                 (ends[0], pc * ends[1])))
            dhat = 2.0 / (PI * amp * Pb * ms) * out[:2]
        if derivative:
            spin = (tau * np.where(tau == 0.0, 0.0, 2.0 * (out[2:4] - out[4:]) / (
                PI * amp * (2.0 - g) * mk * abs(sig)))).sum(0)
            ok &= ((tau == 0.0) | (abs(sig) >= _OFF_ORIGIN)).all(0)
            slope_k = 1j * (p2 * u - p0 * u.conj())  # d_k of d_x - i d_z at theta
            turn = np.array([slope_k.imag * spin + omega * dhat[1],
                             slope_k.real * spin - omega * dhat[0]])
        if chi:  # <(d psi)^2> and that less <e^{2 i psi} (d psi)^2> / phase, per side
            a, c, (x, y) = g * (2.0 - g), 1.0 - sig[0] * sig[1], sig
            total = omega ** 2 + 0.5 * (tau[0] ** 2 / a[0] + 2.0 * tau[0] * tau[1] / c
                                        + tau[1] ** 2 / a[1])
            same = total - omega ** 2 * x * y - 1j * omega * (tau[0] * y + tau[1] * x) + 0.25 * (
                tau[0] ** 2 * (1.0 / a[0] - y * y / c) + 2.0 * tau[0] * tau[1]
                + tau[1] ** 2 * (1.0 / a[1] - x * x / c))
            (X, Y), (tx, ty), (ax, ay) = ((v[1 * inside[0], r], v[1 - inside[0], r])
                                          for v in (sig, tau, a))  # outside, inside
            d = X - Y
            mixed = d / c * (d * total + 1j * omega * (tx * (c + ay) + ty * (c + ax)) / c + d / (
                4.0 * c * c) * (tx ** 2 * (X * Y * c + ay) / ax + 2.0 * tx * ty * (1.0 + X * Y)
                                + ty ** 2 * (X * Y * c + ax) / ay))
            less = np.where(inside[0] != inside[1], mixed, np.where(inside[0], same.conj(), same))
            phase = kappa.conj() / kappa * u ** (2 - 2 * inside.sum(0))
            tilt = (phase * less).real
            gains = np.array([total * (1.0 - phase.real) + tilt,
                              total * (1.0 + phase.real) - tilt]) / 8.0
    for v in (dhat, turn, gains):
        ok &= True if v is None else np.isfinite(v).all(0)
    return ok, dhat, turn, gains


def _bloch_averages(m: TwoBandModel, lams, ref, cfg: BZQuadratureConfig | None, *,
                    complexity=False, derivative=False, chi=False,
                    closings=None) -> List[_BlochAverages]:
    """C, dC/d(lambda) with the d_hat-derivative integrals and chi_F of the family ``m`` at
    each of ``lams``, whose ``TwoBandModel._closings`` the caller may pass.

    An open row of planar rows, with a global reference or none, takes them from
    ``_planar_averages`` where it holds; every other row from ``_engine_averages``.
    A non-finite lambda is a DomainError.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams)):
        raise DomainError("the parameter value must be finite")
    rows, zeros, gaps = m._closings(lams) if closings is None else closings
    slope, exact = m.slope(lams), ~closed_rows(gaps[1])
    exact &= bool(complexity or derivative or chi) and (ref is None or isinstance(
        ref, GlobalReference)) and not any(np.any(row[1]) if isinstance(row[1], np.ndarray)
                                           else row[1] for row in (*rows, *slope))
    if exact.any():
        ok, dhat, turn, gains = _planar_averages(rows, slope, zeros, lams.size, complexity,
                                                 derivative, chi)
        exact &= ok
        nref = (np.zeros(3) if ref is None else ref.bloch_at(0.0))[::2]
        cs = (0.5 + 0.5 * (nref @ dhat)).tolist() if complexity else None
        if derivative:
            dcs, turn = (0.5 * (nref @ turn)).tolist(), 2.0 * PI * np.insert(turn, 1, 0.0, axis=0).T
        if chi:
            gains = np.insert(gains, 1, 0.0, axis=0).T.tolist()
    rest = np.flatnonzero(~exact)
    engine = iter(_engine_averages(m, lams[rest], ref, cfg, complexity=complexity,
                                   derivative=derivative, chi=chi,
                                   gaps=[g[rest] for g in gaps]) if rest.size else ())
    return [_BlochAverages(cs[i] if complexity else None, dcs[i] if derivative else None,
                           turn[i] if derivative else None,  # the total as numpy sums three
                           SusceptibilityBreakdown(0.0 + gains[i][0] + gains[i][1] + gains[i][2],
                                                   tuple(gains[i])) if chi else None)
            if is_exact else next(engine) for i, is_exact in enumerate(exact.tolist())]


def _engine_averages(m: TwoBandModel, lams, ref, cfg: BZQuadratureConfig | None, *,
                     complexity=False, derivative=False, chi=False,
                     gaps=None) -> List[_BlochAverages]:
    """``_bloch_averages`` by quadrature, the exact path's oracle (``gaps`` are the
    ``singular_gaps``): one ``bz_averages`` run in which each lambda owns the panels
    of its graded ``panel_edges`` and the reference breakpoints.

    The kernel evaluates d_deriv only for dC or chi, and returns a group per
    quantity asked for: C_k; (n_ref . v / 2, v) with v = d(d_hat)/d(lambda);
    v^2 / 4 per axis.  A closed gap (``closed_rows``) is a ``closed`` record: dC is None
    and chi is inf, flagged diverged; the row averages only C, with v zeroed so that its C
    is the C-only average's bit for bit.  An exhausted budget flags chi
    diverged and keeps every group's unconverged estimate (chi's non-finite
    ones as inf); without chi it raises.
    """
    lams = np.asarray(lams, dtype=float)
    gaps = m.singular_gaps(lams) if gaps is None else gaps
    closed = closed_rows(gaps[1])
    # no average: a closed gap where C is not asked for, or nothing asked for
    idle = closed & (not complexity) | (not (complexity or derivative or chi))
    averaged = np.flatnonzero(~idle)
    open_lams, zeroed = lams[averaged], closed[averaged]
    zeroing = zeroed.any()  # no per-node work where no averaged row is closed
    uses_ref = complexity or derivative

    def kernel(k, owner):
        point = m.at(open_lams[owner])
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
            v = dhat_derivative(d, np.where(zeroed[owner], 0.0, d_deriv) if zeroing else d_deriv)
            if derivative:
                dot = nref[0] * v[0] + nref[1] * v[1] + nref[2] * v[2]
                groups.append(np.vstack((0.5 * dot, v)))
            if chi:
                groups.append(0.25 * v * v)
        return tuple(groups)

    runs = []
    if averaged.size:
        edges = np.reshape(m.panel_edges([g[averaged] for g in gaps]), (averaged.size, -1))
        breaks = ref.breakpoints() if uses_ref else ()
        edges = np.hstack((edges, np.full((len(edges), len(breaks)), breaks)))
        runs = bz_averages(kernel, edges, cfg)
    runs, results = iter(runs), []
    for is_idle, is_closed in zip(idle.tolist(), closed.tolist()):
        out, diverged = (() if is_idle else next(runs)), is_closed
        if isinstance(out, ConvergenceError):
            if not chi:
                raise out
            out, diverged = out.estimate, True
        out = iter(out)
        c = float(next(out)) if complexity and not is_idle else None
        dc = integrals = breakdown = None
        if derivative and not is_closed:
            row = next(out)
            dc, integrals = float(row[0]), 2.0 * PI * row[1:]
        if chi:  # the total in the order of numpy's sum of three: ((0 + x) + y) + z
            comps = (np.inf,) * 3 if is_closed else tuple(
                x if math.isfinite(x) else np.inf for x in next(out).tolist())
            breakdown = SusceptibilityBreakdown(0.0 + comps[0] + comps[1] + comps[2], comps,
                                                diverged)
        results.append(_BlochAverages(c, dc, integrals, breakdown, is_closed))
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
