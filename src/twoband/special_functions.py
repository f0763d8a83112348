"""Complete and incomplete elliptic integrals.

Conventions follow the parameter form: the integrand carries ``1 - m sin^2(u)``
with ``m`` in ``[0, 1]``.  The integrals are evaluated by the Cephes kernels
(Moshier, *Methods and Programs for Mathematical Functions*, 1989) through
their scalar entry points in ``scipy.special.cython_special``, which load
``scipy.special`` on their first call, not on import.  The ufuncs
``scipy.special.ellipkm1``, ``ellipe`` and ``ellipeinc`` wrap the same
kernels and serve the tests as the bitwise oracle; the defining quadratures
are kept as slow oracles to cross-check both.

Closed forms whose parameter lies in [0, 1] by construction call the entry
points as ``special_functions._ellipkm1`` and ``special_functions._ellipe``:
a module attribute sees the rebinding below, while a name bound by
``from .special_functions import _ellipe`` would keep the first-call stub,
which imports ``cython_special`` again on every call.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import DomainError


def _cephes(name):
    """Stand-in for ``scipy.special.cython_special.<name>``: the first call imports the
    submodule and rebinds the global ``_<name>`` to that scalar entry point, so later
    calls pay no lookup (a qualified lookup per call slowed closed-form curves by ~3% on
    CPython 3.11).  It returns a Python float, at less than half the cost of the ufunc
    of the same name on one float."""
    def first_call(*args):
        from scipy.special import cython_special
        fn = globals()["_" + name] = getattr(cython_special, name)
        return fn(*args)
    return first_call


_ellipkm1, _ellipe, _ellipeinc = _cephes("ellipkm1"), _cephes("ellipe"), _cephes("ellipeinc")

# Boundary values within this distance of {0, 1} are clamped instead of
# rejected; they arise from floating-point noise in m = 4*t1*t2/(t1+t2)^2.
_BOUNDARY_CLAMP = 1e-14
_HALF_PI = 0.5 * math.pi


def _param(m) -> float:
    """m clamped to [0, 1]; NaN or m beyond the clamp raises DomainError.

    The clamps here and in ``incomplete_E`` compare: on CPython 3.11
    ``min(max(m, 0.0), 1.0)`` costs more than the integral it guards.  Both keep
    m = -0.0 as it is.
    """
    m = float(m)
    if not -_BOUNDARY_CLAMP <= m <= 1.0 + _BOUNDARY_CLAMP:
        raise DomainError(f"elliptic parameter m={m!r} outside [0, 1]")
    return 0.0 if m < 0.0 else 1.0 if m > 1.0 else m


def complete_K(m) -> float:
    """Complete elliptic integral of the first kind, K(m).

    Requires 0 <= m < 1; the m -> 1 limit diverges logarithmically.
    """
    m = _param(m)
    if m >= 1.0:
        raise DomainError("K(m) diverges at m = 1")
    return _ellipkm1(1.0 - m)


def complementary_K(mc: float) -> float:
    """K(m) from the complement mc = 1 - m in (0, 1], accurate as m -> 1.

    Forming m first would round away the digits of mc that K depends on.
    """
    return _ellipkm1(mc)


def complete_E(m) -> float:
    """Complete elliptic integral of the second kind, E(m), on 0 <= m <= 1."""
    return _ellipe(_param(m))


def elliptic_derivatives(m: float, mc: float) -> Tuple[float, float, float, float]:
    """K(m), E(m), dK/dm and dE/dm on 0 < m < 1, with mc = 1 - m passed exactly.

    dK/dm = [E - mc K] / (2 m mc) and dE/dm = [E - K] / (2 m).
    """
    k, e = _ellipkm1(mc), _ellipe(m)
    return k, e, (e - mc * k) / (2.0 * m * mc), (e - k) / (2.0 * m)


def dK_dm(m) -> float:
    """Derivative dK/dm = [E(m) - (1-m) K(m)] / [2 m (1-m)] for 0 < m < 1."""
    m = _param(m)
    if m == 0.0 or m == 1.0:
        raise DomainError("dK/dm is evaluated on the open interval (0, 1)")
    return elliptic_derivatives(m, 1.0 - m)[2]


def dE_dm(m) -> float:
    """Derivative dE/dm = [E(m) - K(m)] / (2 m) for 0 < m < 1."""
    m = _param(m)
    if m == 0.0 or m == 1.0:
        raise DomainError("dE/dm is evaluated on the open interval (0, 1)")
    return elliptic_derivatives(m, 1.0 - m)[3]


def incomplete_E(phi: float, m) -> float:
    """Incomplete elliptic integral of the second kind.

    Computes ``int_0^phi sqrt(1 - m sin^2 u) du`` for amplitude
    ``phi in [0, pi/2]``.  ``incomplete_E(pi/2, m)`` reduces to
    ``complete_E(m)``.
    """
    m = _param(m)
    phi = float(phi)
    if not -_BOUNDARY_CLAMP <= phi <= _HALF_PI + _BOUNDARY_CLAMP:
        raise DomainError(f"amplitude phi={phi!r} outside [0, pi/2]")
    return _ellipeinc(0.0 if phi < 0.0 else _HALF_PI if phi > _HALF_PI else phi, m)


def _defining_integral(integrand) -> float:
    """Adaptive quadrature of ``integrand`` over [0, pi/2], the slow oracles' one path."""
    import scipy.integrate
    val, _ = scipy.integrate.quad(integrand, 0.0, _HALF_PI, epsabs=1e-13, epsrel=1e-13, limit=500)
    return val


def complete_K_quadrature(m) -> float:
    """Slow oracle: K(m) by adaptive quadrature of the defining integral."""
    m = _param(m)
    if m >= 1.0:
        raise DomainError("K(m) diverges at m = 1")
    return _defining_integral(lambda u: 1.0 / math.sqrt(1.0 - m * math.sin(u) ** 2))


def complete_E_quadrature(m) -> float:
    """Slow oracle: E(m) by adaptive quadrature of the defining integral."""
    m = _param(m)
    return _defining_integral(lambda u: math.sqrt(1.0 - m * math.sin(u) ** 2))
