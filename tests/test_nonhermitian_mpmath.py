"""The lossy chain's averages against a 30-digit mpmath oracle.

The oracle writes C_k = |w_1| / (|w_0| + |w_1|) out in mpmath.  The common
factor 1/(v . v) of the two weights cancels in the ratio and is left out.
C_k is averaged by ``mpmath.quad`` on [-pi, 0] and [0, pi]: the exceptional
points of the gap closings sit at k = 0 and at the ends, where C_k has a
square-root branch point, and between the closings the ground branch swaps at
k = 0.  The per-mode derivative is ``mpmath.diff`` of that C_k, so the oracle
shares no code with the library's kernel.  The bounds pin the measured worst
errors with a margin of two to five.
"""

import functools
import math

import mpmath as mp
import pytest

from twoband import GlobalReference, NonHermitianSSHParams, nh_ground_complexity
from twoband.nonhermitian import nh_complexity_derivative

GENERIC = GlobalReference(0.9, 0.4)
EQUATOR = GlobalReference(0.5 * math.pi, 0.0)

# (t1, t2, gamma, reference, swept parameters, bound on C, bound on dC).
# The closings of t1 = 2, gamma = 1 are t2 = 1.5 and 2.5, with the EP at
# k = 0, and t2 = -1.5 and -2.5, with the EP at k = +-pi.  The panels are
# graded toward the EPs.  Measured worst errors: gapped and 1e-4 from a
# closing C 1.1e-16, dC 2.8e-17; on the k = 0 closing C 1.1e-16, dC 1.6e-11
# (the engine's tolerance is 1e-10); on the k = +-pi closing C 1.1e-16,
# dC 5.8e-10.  That last error fits the float window ends, which fall
# 1.2e-16 short of +-pi: the part of A |k -+ pi|^(-1/2) left out is about
# 3.5e-9 A.
GAPPED = (5e-16, 1e-16)
CASES = {
    "outside": (2.0, 1.0, 1.0, GENERIC, ("t2", "gamma"), *GAPPED),
    "between-closings": (1.0, 1.3, 1.0, GENERIC, ("t2", "gamma"), *GAPPED),
    "strong-loss": (2.0, 3.2, 1.5, GENERIC, ("t2", "gamma"), *GAPPED),
    "equator": (1.5, 1.2, 1.0, EQUATOR, ("t2", "gamma"), *GAPPED),
    "near-closing": (2.0, 1.5 + 1e-4, 1.0, GENERIC, ("t2",), *GAPPED),
    "on-closing": (2.0, 2.5, 1.0, EQUATOR, ("t2", "gamma"), 5e-16, 5e-11),
    "on-closing-pi": (2.0, -2.5, 1.0, GENERIC, ("t2",), 5e-16, 1.2e-9),
}
DERIVATIVES = [(name, parameter) for name, case in CASES.items() for parameter in case[4]]


def _mp_ck(t1, t2, gamma, cos, sin, alpha, beta):
    r1 = t1 - t2 * cos
    r3 = mp.mpc(t2 * sin, gamma / 2)
    root = mp.sqrt(r1 * r1 + r3 * r3)  # principal root: the ground eigenvalue is -root
    plus, minus = root + r3, root - r3
    # the two eigenvector forms are proportional; take the one that is not ~0
    v0, v1 = (r1, -plus) if abs(plus) >= abs(minus) else (minus, -r1)
    ca, cb = mp.conj(alpha), mp.conj(beta)
    w0 = abs((alpha * v0 + beta * v1) * (ca * v0 + cb * v1))
    w1 = abs((beta * v0 - alpha * v1) * (cb * v0 - ca * v1))
    return w1 / (w0 + w1)


def _mp_average(f):
    return mp.quad(f, [-mp.pi, 0, mp.pi]) / (2 * mp.pi)


@functools.lru_cache(maxsize=None)
def _oracle(name, parameter=None):
    """C, or dC/d(parameter), of a case at 30 digits."""
    t1, t2, gamma, ref = CASES[name][:4]
    with mp.workdps(30):
        t1, t2, gamma = mp.mpf(t1), mp.mpf(t2), mp.mpf(gamma)
        alpha, beta = mp.mpc(complex(ref.alpha)), mp.mpc(complex(ref.beta))
        if parameter is None:
            return _mp_average(lambda k: _mp_ck(t1, t2, gamma, *mp.cos_sin(k), alpha, beta))

        def mode(k):
            cos, sin = mp.cos_sin(k)
            if parameter == "t2":
                return mp.diff(lambda x: _mp_ck(t1, x, gamma, cos, sin, alpha, beta), t2)
            return mp.diff(lambda x: _mp_ck(t1, t2, x, cos, sin, alpha, beta), gamma)

        return _mp_average(mode)


def _params(name):
    t1, t2, gamma, ref = CASES[name][:4]
    return NonHermitianSSHParams(t1, t2, gamma), ref


@pytest.mark.parametrize("name", CASES)
def test_ground_complexity_matches_mpmath(name):
    params, ref = _params(name)
    got = nh_ground_complexity(params, ref.alpha, ref.beta)
    assert abs(got - _oracle(name)) <= CASES[name][5]


@pytest.mark.parametrize("name,parameter", DERIVATIVES)
def test_complexity_derivative_matches_mpmath(name, parameter):
    params, ref = _params(name)
    c, dc = nh_complexity_derivative(params, parameter, ref.alpha, ref.beta)
    assert abs(c - _oracle(name)) <= CASES[name][5]
    assert abs(dc - _oracle(name, parameter)) <= CASES[name][6]
