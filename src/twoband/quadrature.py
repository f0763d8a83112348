"""Brillouin-zone averaging and numerical differentiation.

The integrands met here are smooth except for integrable features at gap
closings (all located at k in {0, +-pi} for the stock models), so the
integrators pre-split at the points each caller names and subdivide adaptively.
Library averages go through ``bz_average_vec``, which evaluates an array
kernel on whole refinement levels at once; ``bz_average`` wraps QUADPACK
(``scipy.integrate``, loaded on first call) as its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy

from .errors import ConvergenceError, DomainError

PI = math.pi


@dataclass(frozen=True)
class BZQuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")


def _interior_points(points: Iterable[float]) -> list:
    """The caller's panel edges strictly inside (-pi, pi), sorted and distinct."""
    return sorted({float(p) for p in points if -PI < p < PI})


def graded_edges(k_s: float, w: float) -> list:
    """The panel edges k_s +- w 4^j for every j >= 0 with w 4^j < 1.

    This is the hp geometric mesh toward a point where an integrand peaks
    over the width w (Schwab, p- and hp-FEM, 1998), in the role of QUADPACK's
    qagp break points: adaptive bisection then resolves the peak in a few
    levels instead of about log2(1/w).  A w that is not in (0, 1) adds none.
    """
    edges = []
    while 0.0 < w < 1.0:
        edges += (k_s - w, k_s + w)
        w *= 4.0
    return edges


def bz_average(f: Callable[[float], float], cfg: BZQuadratureConfig | None = None,
               extra_points: Iterable[float] = ()) -> float:
    """(1/2*pi) * integral of a scalar f over [-pi, pi] by QUADPACK.

    This is the path for user callables of one k and the independent oracle
    of the array engine ``bz_average_vec``.
    """
    cfg = cfg or BZQuadratureConfig()
    pts = _interior_points(extra_points)
    val, err, *rest = scipy.integrate.quad(f, -PI, PI, points=pts or None,
                                           limit=cfg.max_subdivisions,
                                           epsabs=cfg.abs_tol * 2.0 * PI,
                                           epsrel=cfg.rel_tol, full_output=1)
    if len(rest) > 1:  # quad appends a message when ier != 0
        budget = max(cfg.abs_tol * 2.0 * PI, cfg.rel_tol * abs(val)) * 10.0
        if err > budget or not math.isfinite(val):
            raise ConvergenceError(
                f"BZ average did not converge: {rest[1]}",
                estimate=val / (2.0 * PI), error=err / (2.0 * PI))
    return val / (2.0 * PI)


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21).  The Gauss weights
# are zero at the ten Kronrod-only nodes, so one evaluation serves both rules.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077600525718460, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
_GK_NODES = np.array([-x for x in _XK] + list(_XK[-2::-1]))
# Columns: Kronrod weights, Gauss weights.
_GK_WEIGHTS = np.array([_WK + _WK[-2::-1], _WG + _WG[-2::-1]]).T

# Each level bisects the worst panels until the rest hold at most
# tolerance / _REFINE_MARGIN of error.  The K21 value of a barely resolved
# panel can be off by a fifth of its |K21 - G10|; leaving such panels at the
# full tolerance lets an average jump by ~1e-11 between nearby parameters,
# which the finite differences of sweeps amplify a hundred-thousandfold.
_REFINE_MARGIN = 16.0

# At most this many panels are bisected per refinement level, which bounds
# the size of one kernel call.  Only averages near a non-integrable point,
# where the error spreads over many panels, reach it.
_MAX_SPLIT = 64


def _gk21(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod integrals (..., p) and |K21 - G10| errors (p,) of p panels, from one call of f.
    A tuple of groups is stacked into rows; its errors are (groups, p) and its layout
    holds the group shapes without k and the row where each group starts."""
    half = 0.5 * (hi - lo)
    k = ((lo + half)[:, None] + half[:, None] * _GK_NODES).ravel()
    out = f(k)
    if isinstance(out, tuple):
        rows = [np.reshape(g, (-1, k.size)) for g in out]
        y = np.asarray(np.concatenate(rows), dtype=float)
    else:
        y = np.asarray(out, dtype=float)
    rules = (y.reshape(y.shape[:-1] + (lo.size, _GK_NODES.size)) @ _GK_WEIGHTS) * half[:, None]
    diff = np.abs(rules[..., 0] - rules[..., 1])
    if not isinstance(out, tuple):
        return rules[..., 0], diff.reshape(-1, lo.size).sum(axis=0), None
    first = np.cumsum([0] + [len(r) for r in rows[:-1]])
    layout = ([np.shape(g)[:-1] for g in out], first)
    return rules[..., 0], np.add.reduceat(diff, first, axis=0), layout


def bz_average_vec(f: Callable, cfg: BZQuadratureConfig | None = None,
                   extra_points: Iterable[float] = ()):
    """(1/2*pi) * integral over [-pi, pi] of an array kernel, by adaptive GK21.

    ``f`` maps k of shape (n,) to values of shape (..., n), or to a tuple of
    such arrays (groups), and the result takes the same form.  All components
    share panels, which start from [-pi, pi] split at ``extra_points``; each
    level calls ``f`` once, on the 21 nodes of every panel it bisects.  A
    group's error is |K21 - G10| summed over its components and panels, and
    each group stops at its own max(abs_tol * 2 pi, rel_tol * sum |I|), as in
    DCUHRE (Berntsen, Espelid & Genz 1991); a plain array is one group.  Each
    level bisects the panels of largest error in units of the tolerances, at
    most _MAX_SPLIT, until the rest would meet them divided by _REFINE_MARGIN.
    More than ``max_subdivisions`` panels, or a non-finite error, raise
    ConvergenceError with the current estimate.  No node lies on a panel
    edge, so a kernel undefined only at the caller's points is never
    evaluated there.
    """
    cfg = cfg or BZQuadratureConfig()
    edges = np.array([-PI, *_interior_points(extra_points), PI])
    lo, hi = edges[:-1], edges[1:]
    val, err, layout = _gk21(f, lo, hi)
    while True:
        total = val.sum(axis=-1)
        if layout is None:
            # a plain array skips the group bookkeeping, whose small numpy calls
            # per level make a one-group average about 40% slower
            err_total = float(err.sum())
            tol = max(cfg.abs_tol * 2.0 * PI, cfg.rel_tol * float(np.abs(total).sum()))
            converged = err_total <= tol
            score = err
        else:
            shapes, first = layout
            group_err = err.sum(axis=-1).tolist()
            sizes = np.add.reduceat(np.abs(total), first).tolist()
            tols = [max(cfg.abs_tol * 2.0 * PI, cfg.rel_tol * size) for size in sizes]
            converged = all(e <= t for e, t in zip(group_err, tols))
            # panel errors in units of the first group's tolerance
            weights = [tols[0] / t for t in tols]
            score = np.dot(weights, err)
            tol = tols[0]
            err_total = sum(w * e for w, e in zip(weights, group_err))
        room = cfg.max_subdivisions - lo.size
        if converged or room <= 0 or not math.isfinite(err_total):
            if layout is None:
                estimate = total / (2.0 * PI)
            else:
                parts = np.split(total / (2.0 * PI), first[1:])
                estimate = tuple(part.reshape(shape) for part, shape in zip(parts, shapes))
            if converged:
                return estimate
            raise ConvergenceError("BZ average did not converge within the subdivision budget",
                                   estimate=estimate, error=float(err.sum()) / (2.0 * PI))
        order = np.argsort(-score)
        n_split = int(np.searchsorted(np.cumsum(score[order]),
                                      err_total - tol / _REFINE_MARGIN)) + 1
        n_split = min(n_split, room, _MAX_SPLIT)
        split, keep = order[:n_split], order[n_split:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err, _ = _gk21(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[..., keep], new_val), axis=-1)
        err = np.concatenate((err[..., keep], new_err), axis=-1)


def param_derivative(g: Callable[[float], float], at: float, step: float = 1e-5):
    """Fourth-order central finite-difference derivative of g at the given point.

    ``g`` may return a float or an array.  Differences are grouped before
    weighting so a constant g yields exactly zero rather than stencil
    roundoff.  A step that is not positive raises DomainError.
    """
    if not step > 0:
        raise DomainError("finite-difference step must be positive")
    h = step
    inner = g(at + h) - g(at - h)
    outer = g(at + 2.0 * h) - g(at - 2.0 * h)
    return (8.0 * inner - outer) / (12.0 * h)
