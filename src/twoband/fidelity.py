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

from .errors import ConvergenceError, DomainError, GapClosedError
from .models import GAP_EPS, MassiveDiracParams, SSHParams, TwoBandModel, closed_rows
from .quadrature import BZQuadratureConfig, bz_averages

PI = math.pi


def dhat_derivative(d, d_deriv) -> np.ndarray:
    """Derivative of the unit vector: (d_deriv - d_hat (d_hat . d_deriv)) / |d|.

    Takes one vector of shape (3,), or shape (3, n) with a trailing k axis.
    Raises GapClosedError if |d| < GAP_EPS for the vector or any column.
    """
    d = np.asarray(d, dtype=float)
    dd = np.asarray(d_deriv, dtype=float)
    n = np.sqrt(np.sum(d * d, axis=0))
    if np.any(n < GAP_EPS):
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
    """BZ averages at one parameter point; a quantity not asked for is None."""
    complexity: Optional[float]
    dcomplexity: Optional[float]
    integrals: Optional[np.ndarray]  # integral of d(d_hat)/d(lambda) dk, per axis
    chi: Optional[SusceptibilityBreakdown]


def _bloch_averages(m: TwoBandModel, lams, ref, cfg: BZQuadratureConfig | None, *,
                    complexity=False, derivative=False, chi=False) -> List[_BlochAverages]:
    """C, dC/d(lambda) with the d_hat-derivative integrals and chi_F of the family
    ``m`` at each of ``lams``, from one ``bz_averages`` run in which each lambda
    owns the panels of its graded ``panel_edges`` and the reference breakpoints.

    The kernel evaluates d_deriv only for dC or chi, and returns a group per
    quantity asked for: C_k; (n_ref . v / 2, v) with v = d(d_hat)/d(lambda);
    v^2 / 4 per axis.  On a closed gap (``closed_rows``) dC is None and chi is
    inf, flagged diverged; the row averages only C, with v zeroed so that its C
    is the C-only average's bit for bit.  An exhausted budget flags chi
    diverged and keeps every group's unconverged estimate (chi's non-finite
    ones as inf); without chi it raises.
    """
    lams = np.asarray(lams, dtype=float)
    gaps, slopes = m.singular_gaps(lams)
    closed = closed_rows(gaps)
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
            if np.any(n < GAP_EPS):
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

    breaks = ref.breakpoints() if uses_ref else ()
    edges = [(*m.panel_edges((gaps[i], slopes[i])), *breaks) for i in averaged]
    runs = iter(bz_averages(kernel, edges, cfg) if edges else ())
    results = []
    for is_idle, is_closed in zip(idle, closed):
        out, diverged = (() if is_idle else next(runs)), bool(is_closed)
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
        if chi:
            comps = np.full(3, np.inf) if is_closed else next(out)
            comps = np.where(np.isfinite(comps), comps, np.inf)
            breakdown = SusceptibilityBreakdown(float(np.sum(comps)), tuple(comps), diverged)
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
