"""Closed forms against mpmath at 40 digits on both sides of each transition.

The closed forms take the complement 1 - m of the elliptic parameter
exactly, so their error must not grow as |delta|/s, |mu| or |r - 1| shrinks.
The references evaluate the defining elliptic expressions in mpmath at the
double inputs; the derivative references are mpmath's numerical derivatives
of those expressions, so the analytic dK/dm and dE/dm formulas are checked
too.
"""

import math

import mpmath as mp
import pytest

from twoband import (DomainError, DualSSHParams, GlobalReference, MassiveDiracParams,
                     SSHParams, chi_F_ssh_closed, complexity_duality_offset, dE_dm,
                     md_complexity_closed, md_dC_dmu_analytic, self_dual_constraint,
                     ssh_complexity_closed)
from twoband.bounds_duality import (complexity_duality_offset_prime, ratio_complexity,
                                    ratio_complexity_prime)

THETA, PHI = 0.9, 0.4
REF = GlobalReference(THETA, PHI)
# signed distances from the transition: |delta|/s, mu or r - 1
DISTANCES = [side * eps for eps in (1e-3, 1e-6, 1e-8, 1e-10) for side in (1.0, -1.0)]


def _a():
    return mp.sin(mp.mpf(THETA)) * mp.cos(mp.mpf(PHI)) / 2


def _i1(r):
    """(delta K(m) + s E(m)) / (pi t1) in units of t1, for the coupling ratio r."""
    m = 4 * r / (1 + r) ** 2
    return ((1 - r) * mp.ellipk(m) + (1 + r) * mp.ellipe(m)) / mp.pi


def _offset(r):
    return (1 - r) / 2 + 2 * _a() * (1 - r) * mp.ellipk(4 * r / (1 + r) ** 2) / mp.pi


def _md(mu):
    return mp.mpf(1) / 2 + mu * mp.cos(mp.mpf(THETA)) * mp.ellipk(1 / (1 + mu * mu)) / (
        mp.pi * mp.sqrt(1 + mu * mu))


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("q", DISTANCES)
def test_complexities_match_mpmath_to_1e14_absolute(q):
    t1, t2 = 1.3, 1.3 * (1.0 - q) / (1.0 + q)  # (t1 - t2)/(t1 + t2) = q
    r = 1.0 + q
    with mp.workdps(40):
        want = {
            "ssh": mp.mpf(1) / 2 + _a() * _i1(mp.mpf(t2) / mp.mpf(t1)),
            "md": _md(mp.mpf(q)),
            "ratio": mp.mpf(1) / 2 + _a() * _i1(mp.mpf(r)),
            "offset": _offset(mp.mpf(r)),
        }
    got = {
        "ssh": ssh_complexity_closed(SSHParams(t1, t2), REF),
        "md": md_complexity_closed(MassiveDiracParams(mu=q), THETA),
        "ratio": ratio_complexity(r, REF),
        "offset": complexity_duality_offset(r, REF),
    }
    for name, value in got.items():
        assert abs(value - want[name]) <= 1e-14, name


@pytest.mark.parametrize("q", DISTANCES)
def test_derivatives_match_mpmath_to_1e12_relative(q):
    r = 1.0 + q
    with mp.workdps(40):
        c_prime = _a() * mp.diff(_i1, mp.mpf(r))
        h_prime = mp.diff(_offset, mp.mpf(r))
        md_prime = mp.diff(_md, mp.mpf(q))
    assert _rel(ratio_complexity_prime(r, REF), c_prime) <= 1e-12
    assert _rel(complexity_duality_offset_prime(r, REF), h_prime) <= 1e-12
    assert _rel(md_dC_dmu_analytic(MassiveDiracParams(mu=q), THETA), md_prime) <= 1e-12
    constraint, _ = self_dual_constraint(DualSSHParams(1.0, r), REF)
    assert _rel(constraint, 2 * c_prime - h_prime) <= 1e-12


@pytest.mark.parametrize("r,bound", [(1e-4, 2e-12), (1e4, 2e-16)])
def test_the_differentiated_duality_matches_mpmath_far_from_1(r, bound):
    # 2C'(r) - H'(r) = C(1/r) at 60 digits, and both sides in doubles against it: the
    # elliptic derivatives lose about eps / m at r = 1e-4 (measured 5.7e-13 and 2.4e-13
    # relative), and 5.7e-17 at 1e4
    with mp.workdps(60):
        lhs = 2 * _a() * mp.diff(_i1, mp.mpf(r)) - mp.diff(_offset, mp.mpf(r))
        rhs = mp.mpf(1) / 2 + _a() * _i1(1 / mp.mpf(r))
        assert abs(lhs - rhs) <= mp.mpf(10) ** -50
    assert _rel(self_dual_constraint(DualSSHParams(1.0, r), REF)[0], lhs) <= bound
    assert _rel(ratio_complexity(1.0 / r, REF), rhs) <= bound


@pytest.mark.parametrize("delta", [side * eps for eps in (1e-6, 1e-8, 1e-10)
                                   for side in (1.0, -1.0)])
def test_ssh_susceptibility_matches_mpmath_to_1e14_relative(delta):
    # the difference of squares t2^2 - t1^2 cancels here unless it is factored
    t1, t2 = 1.0, 1.0 + delta
    with mp.workdps(40):
        lo, hi = sorted((mp.mpf(t1), mp.mpf(t2)))
        want = 3 * lo ** 2 / (32 * hi ** 2 * (hi ** 2 - lo ** 2))
    assert _rel(chi_F_ssh_closed(SSHParams(t1, t2)), want) <= 1e-14


def test_derivatives_raise_only_at_the_transition():
    assert math.isfinite(md_dC_dmu_analytic(MassiveDiracParams(mu=1e-8), THETA))
    assert math.isfinite(ratio_complexity_prime(1.0 + 1e-8, REF))
    for derivative in (ratio_complexity_prime, complexity_duality_offset_prime):
        with pytest.raises(DomainError):
            derivative(1.0, REF)


def test_underflowing_mass_takes_the_transition_limit():
    # mu^2 underflows to 0, so K(1 - mu^2) would be inf; mu*K -> 0 is the limit
    assert md_complexity_closed(MassiveDiracParams(mu=1e-200), THETA) == 0.5
    with pytest.raises(DomainError):
        md_dC_dmu_analytic(MassiveDiracParams(mu=1e-200), THETA)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 1.0 - 1e-6])
def test_dE_dm_matches_the_mpmath_derivative(m):
    with mp.workdps(40):
        want = mp.diff(mp.ellipe, mp.mpf(m))
    assert _rel(dE_dm(m), want) < 1e-12


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_dE_dm_rejects_the_interval_ends(m):
    with pytest.raises(DomainError):
        dE_dm(m)
