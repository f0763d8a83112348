"""The complexity-susceptibility bound, the saturation ratio, and duality maps.

The derivative of the BZ-averaged complexity decomposes over Bloch axes with
reference-state coefficients Q_i; Cauchy-Schwarz then bounds it by
4*pi * sum_i |Q_i| sqrt(chi_F^i).  The dual pair of dimerized chains obeys
exact susceptibility and complexity identities under r <-> 1/r, verified here
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .bloch import GlobalReference, ReferenceState
from .complexity import _require_global, _ssh_elliptic_terms, ground_complexity
from .errors import DomainError, GapClosedError, UndefinedRatioError
from .fidelity import _Averages, _bloch_averages, _totals, chi_F
from .models import DualSSHParams, TwoBandModel, dual_pair
from .quadrature import BZQuadratureConfig
from . import special_functions as sf
from .special_functions import elliptic_derivatives

PI = math.pi

# Bound slack: lhs <= rhs * (1 + _BOUND_RTOL) counts as satisfied.
_BOUND_RTOL = 1e-9


def reference_coefficients(ref: GlobalReference) -> np.ndarray:
    """Coefficients Q = n_ref / (4*pi) multiplying integral(d(d_hat_i)/d(lambda)) dk."""
    return ref._bloch_array / (4.0 * PI)


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of |dC/d(lambda)| <= 4*pi sum_i |Q_i| sqrt(chi_F^i)."""

    lam: float
    lhs: float
    rhs: float
    q: Tuple[float, float, float]
    satisfied: bool
    ratio: float


def complexity_derivative(model: TwoBandModel, ref: ReferenceState, lam: float,
                          cfg: BZQuadratureConfig | None = None) -> float:
    """dC/d(lambda) of the ground complexity from Bloch-sphere data.

    Per mode dC_k/d(lambda) = n_ref(k) . d(d_hat)/d(lambda) / 2, for a global
    or a piecewise reference alike.  Where the gap is closed at lam the
    derivative diverges and GapClosedError is raised before any average; an
    exhausted subdivision budget raises ConvergenceError.
    """
    dc = _bloch_averages(model, [lam], ref, cfg, derivative=True).dcomplexity[0]
    if dc is None:
        raise GapClosedError("complexity derivative diverges where the gap is closed")
    return dc


# ``_bound_report``'s columns, reals: per row both sides of the bound, whether it holds (1 or
# 0), the saturation ratio, the dominant axis and why the ratio is undefined, as an index of
# _UNDEFINED (0 where it is not)
_Bounds = NamedTuple("_Bounds", [(f, list) for f in "lhs rhs holds ratio axis undefined".split()])
_UNDEFINED = (None, "reference coefficient Q[{}] vanishes for the dominant component",
              "dominant susceptibility component vanishes")


def _bound_report(ref: GlobalReference, avg: _Averages) -> _Bounds:
    """Both sides of the bound and the ratio of the dominant axis, the largest |integral|,
    at every row of the derivative and chi averages ``avg``; where chi diverged, lhs and the
    ratio are NaN, rhs is inf and the bound holds."""
    q = abs(reference_coefficients(ref))[:, None]
    # dC, the integrals and chi_F per axis, and whether chi diverged, by row (None is NaN)
    a = np.array([*avg[1:8], avg.diverged], dtype=float)
    dc, ints, comps, diverged = a[0], abs(a[1:4]), a[4:7], a[7] > 0.0
    with np.errstate(all="ignore"):
        lhs, rhs = abs(dc), 4.0 * PI * (q * np.sqrt(np.maximum(comps, 0.0))).sum(0)
        axis = ints.argmax(0)
        comp = comps[axis, range(axis.size)]
        undefined = np.where(q[axis, 0] < 1e-15, 1, 2 * ~(comp > 0.0)) * ~diverged
        out = np.array([lhs, rhs, lhs <= rhs * (1.0 + _BOUND_RTOL),
                        ints.max(0) / (4.0 * PI * np.sqrt(comp)), axis, undefined])
    out[:4, diverged] = [[np.nan], [np.inf], [1.0], [np.nan]]
    out[3, undefined > 0] = np.nan
    return _Bounds(*out.tolist())


def bound_check(model: TwoBandModel, ref: GlobalReference, lam: float,
                cfg: BZQuadratureConfig | None = None) -> BoundReport:
    """Evaluate both sides of the bound at one parameter value.

    The left side is the geometric derivative |dC/d(lambda)|, the right side
    combines the susceptibility components; both come from one average.
    Where the susceptibility diverges (a closed gap, where no average runs,
    or an exhausted budget) lhs and the ratio are NaN, rhs is inf, and the
    bound counts as satisfied.  A piecewise reference raises DomainError.
    """
    rep = _bound_report(ref, _bloch_averages(model, [lam], _require_global(ref), cfg,
                                             derivative=True, chi=True))
    return BoundReport(float(lam), rep.lhs[0], rep.rhs[0], tuple(reference_coefficients(ref)),
                       rep.holds[0] > 0.0, rep.ratio[0])


def ratio_R(model: TwoBandModel, ref: GlobalReference, lam: float,
            cfg: BZQuadratureConfig | None = None) -> float:
    """Saturation ratio of the dominant component of the bound.

    R = |dC^(i)/d(lambda)| / (4*pi |Q_i| sqrt(chi_F^i)) with the dominant
    axis i chosen as the largest |integral of d(d_hat_i)/d(lambda)|; the
    reference coefficients cancel, so R <= 1 is pure Cauchy-Schwarz and
    tends to sqrt(2/3) deep in either phase.  NaN where the susceptibility
    diverges.  A piecewise reference raises DomainError.
    """
    rep = _bound_report(ref, _bloch_averages(model, [lam], _require_global(ref), cfg,
                                             derivative=True, chi=True))
    if rep.undefined[0]:
        raise UndefinedRatioError(_UNDEFINED[int(rep.undefined[0])].format(int(rep.axis[0])))
    return rep.ratio[0]


def fs_duality_check(params: DualSSHParams,
                     cfg: BZQuadratureConfig | None = None) -> Tuple[float, float, float]:
    """Check chi_F^(II)(1/r) = r^4 chi_F^(I)(r).

    Each family is differentiated with respect to its own parameter; the
    left side is family II evaluated at parameter value 1/r.  Returns
    (lhs, rhs, relative residual).  Both sides fall as r^4 / 8 below r = 1
    and tend to 1/8 above it, so r beyond 1e-76 <= r <= 1e76 is a
    DomainError: above it r^4 overflows, and below it both sides leave the
    normal doubles.  Where family I's own chi_F record is closed (r = 1) it
    is a GapClosedError.
    """
    r = params.r
    if not 1e-76 <= r <= 1e76:
        raise DomainError(f"susceptibility duality needs 1e-76 <= r <= 1e76, not r={r!r}")
    model_i, model_ii = dual_pair(params)
    avg_i = _bloch_averages(model_i, [r], None, cfg, chi=True)
    if avg_i.closed[0]:
        raise GapClosedError("susceptibility duality check diverges at r = 1")
    lhs = chi_F(model_ii, 1.0 / r, cfg).total
    rhs = r ** 4 * _totals(avg_i)[0]
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return lhs, rhs, residual


def _finite_ratio(r: float) -> float:
    """r, checked once for the functions of the coupling ratio below: a NaN, infinite or
    non-positive r is a DomainError, whatever the reference."""
    if not 0.0 < r < math.inf:  # NaN fails both comparisons
        raise DomainError(f"coupling ratio r={r!r} must be finite and positive")
    return r


def _ratio_derivative_terms(r: float) -> Tuple[float, float, float, float, float]:
    """K, E, dK/dm, dE/dm at m = 4r/(1+r)^2 and dm/dr in one tuple; the derivatives
    diverge at r = 1, and are a DomainError where m rounds to 0 (r above about 1e16 or
    below about 6e-17).  That edge is not where they stay accurate: dK/dm and dE/dm cancel
    as m -> 0 and lose about eps/m, so C'(r) of r = 1e-8 is 41% off and that of r = 1e-12
    has the wrong sign."""
    mc = ((1.0 - r) / (1.0 + r)) ** 2  # exact complement 1 - m
    if mc == 0.0:
        raise DomainError("derivative diverges logarithmically at the self-dual point")
    if mc == 1.0:
        raise DomainError(f"coupling ratio r={r!r} is too far from 1: m = 4r/(1+r)^2 rounds to 0")
    k, e, dk, de = elliptic_derivatives(1.0 - mc, mc)
    return k, e, dk, de, 4.0 * (1.0 - r) / (1.0 + r) ** 3


def ratio_complexity(r: float, ref: GlobalReference) -> float:
    """Closed-form complexity of the chain with coupling ratio r (t-independent); r must be
    finite and positive, as in the three functions below."""
    return 0.5 + ref.re_alpha_beta * _ssh_elliptic_terms(1.0, _finite_ratio(r))


def _ratio_complexity_prime(a: float, r: float, terms: Tuple[float, ...]) -> float:
    """C'(r) from ``terms = _ratio_derivative_terms(r)`` and a = Re(alpha* beta)."""
    k, e, dk, de, m_prime = terms
    return a * ((-k + e + ((1.0 - r) * dk + (1.0 + r) * de) * m_prime) / PI)


def ratio_complexity_prime(r: float, ref: GlobalReference) -> float:
    """Analytic d/dr of ratio_complexity; diverges logarithmically at r = 1.  Where
    m = 4r/(1+r)^2 rounds to 0 (r above about 1e16 or below about 6e-17) it is a
    DomainError, as are the offset's derivative and ``self_dual_constraint``, unless
    Re(alpha* beta) = 0.  Inside that edge all three lose about eps/m to the elliptic
    derivatives (``_ratio_derivative_terms``), against values of order m: r = 1e-4 keeps
    about 7 digits, r = 1e8 one and r = 1e-8 none."""
    r, a = _finite_ratio(r), ref.re_alpha_beta
    return 0.0 if a == 0.0 else _ratio_complexity_prime(a, r, _ratio_derivative_terms(r))


def complexity_duality_offset(r: float, ref: GlobalReference) -> float:
    """H(r) = (1-r)/2 + 2 Re(alpha* beta) (1-r) K(m) / pi; H(1) = 0."""
    mc = ((1.0 - _finite_ratio(r)) / (1.0 + r)) ** 2
    if mc == 0.0:
        return 0.0
    return (1.0 - r) / 2.0 + 2.0 * ref.re_alpha_beta * (1.0 - r) * sf._ellipkm1(mc) / PI


def _offset_prime(a: float, r: float, terms: Tuple[float, ...]) -> float:
    """H'(r) from ``terms = _ratio_derivative_terms(r)`` and a = Re(alpha* beta)."""
    k, _, dk, _, m_prime = terms
    return -0.5 + (2.0 * a / PI) * (-k + (1.0 - r) * dk * m_prime)


def complexity_duality_offset_prime(r: float, ref: GlobalReference) -> float:
    """Analytic d/dr of the duality offset H."""
    r, a = _finite_ratio(r), ref.re_alpha_beta
    return -0.5 if a == 0.0 else _offset_prime(a, r, _ratio_derivative_terms(r))


def complexity_duality_check(params: DualSSHParams, ref: GlobalReference,
                             cfg: BZQuadratureConfig | None = None) -> Tuple[float, float, float]:
    """Check C at ratio 1/r against [C at ratio r - H(r)] / r.

    The left side is the quadrature complexity of dual family II (whose
    coupling ratio at parameter r is 1/r); the right side maps family I
    through the duality offset.  Returns (lhs, rhs, absolute residual).  The
    map divides the rounding of C(r) - H(r), up to about 3e-16, by r, so r
    below 1e-6, where the residual could pass 3e-10 (1e-9 at r = 1e-7, 0.6
    at 1e-16), is a DomainError; for r >= 1e2 it stays within 4e-16.
    """
    r = params.r
    if not r >= 1e-6:
        raise DomainError(f"complexity duality needs r >= 1e-6, not r={r!r}")
    model_i, model_ii = dual_pair(params)
    lhs = ground_complexity(model_ii, ref, cfg)
    rhs = (ground_complexity(model_i, ref, cfg) - complexity_duality_offset(r, ref)) / r
    return lhs, rhs, abs(lhs - rhs)


def self_dual_constraint(params: DualSSHParams, ref: GlobalReference) -> Tuple[float, float]:
    """Evaluate (2 C'(r) - H'(r), C(r)) at the given r near the self-dual point.

    As r -> 1 the first entry converges to C(1) even when both C' and H'
    diverge logarithmically: the divergent parts cancel at matching rate.
    K(m) and E(m) are evaluated once and serve C', H' and C alike; each
    entry equals that of the three public functions bit for bit.
    """
    r, a = _finite_ratio(params.r), ref.re_alpha_beta
    if a == 0.0:  # C' = 0 and H' = -1/2
        return 0.5, ratio_complexity(r, ref)
    terms = _ratio_derivative_terms(r)
    k, e = terms[0], terms[1]
    # ratio_complexity's (delta K + s E) / (pi t1) at t1 = 1, t2 = r, in its operation order
    return (2.0 * _ratio_complexity_prime(a, r, terms) - _offset_prime(a, r, terms),
            0.5 + a * (((1.0 - r) * k + (1.0 + r) * e) / PI))
