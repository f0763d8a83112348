"""Brillouin-zone averaging and numerical differentiation.

The integrands are smooth but for integrable features at gap closings (k in
{0, +-pi} or +-pi/2 for the stock models), where the integrators pre-split
before subdividing adaptively.  Averages off ``fidelity``'s exact planar path
(the lossy chain's among them) go through ``bz_averages``, which runs an array
kernel for many integrands at once on whole refinement levels;
``bz_average_vec`` is its one-integrand call, and ``bz_average`` wraps QUADPACK
(``scipy.integrate``, loaded on first call) as their independent oracle.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError

PI = math.pi


@dataclass(frozen=True)
class BZQuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise DomainError("quadrature tolerances must be finite and positive")
        budget = self.max_subdivisions  # a bool is an Integral, but no budget
        if isinstance(budget, bool) or not (isinstance(budget, numbers.Integral) and budget > 0):
            raise DomainError("max_subdivisions must be an integer of at least 1")


def graded_edges(points, w) -> np.ndarray:
    """Per row of ``points`` (rows, n), unordered and NaN-padded: each point k_s, beside
    which an integrand peaks over the width w of ``w``, and its image k_s - 2 pi sign(k_s),
    with the edges k_s -+ w 4^j at both for every j >= 0 with w 4^j < 1, so a point at
    +-pi grades both zone ends.  A w that is not in (0, 1) adds none.

    This is the hp geometric mesh (Schwab, p- and hp-FEM, 1998), in the role of
    QUADPACK's qagp break points: adaptive bisection then resolves the peak in a
    few levels instead of about log2(1/w).
    """
    centres = points[..., None] - np.copysign((0.0, 2.0 * PI), points[..., None])
    k_s = np.where(np.abs(centres) < PI + 1.0, centres, np.nan)[..., None]  # none farther in
    w = np.where(np.asarray(w) > 0.0, w, 1.0)
    levels = -math.frexp(w.min(initial=1.0))[1] // 2 + 1  # w = m 2^e: w 4^j < 1 for 2j <= -e
    scale = np.ldexp(w[..., None, None], np.arange(0, 2 * levels, 2))  # w 4^j, exact
    scale = np.where(scale < 1.0, scale, np.nan)
    return np.concatenate((k_s, k_s - scale, k_s + scale), axis=-1).reshape(len(points), -1)


def bz_average(f: Callable[[float], float], cfg: BZQuadratureConfig | None = None,
               extra_points: Iterable[float] = ()) -> float:
    """(1/2*pi) * integral of a scalar f over [-pi, pi] by QUADPACK.

    This is the path for user callables of one k and the independent oracle
    of the array engine ``bz_averages``.  Points that split the zone into more
    panels than ``max_subdivisions`` raise DomainError.
    """
    import scipy.integrate
    cfg = cfg or BZQuadratureConfig()
    pts = sorted({float(p) for p in extra_points if -PI < p < PI})
    if len(pts) >= cfg.max_subdivisions:
        raise DomainError(f"{len(pts) + 1} panels exceed the subdivision budget of "
                          f"{cfg.max_subdivisions}")
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


# Owners averaged in one run at most; bounds the node values and panel state of one
# refinement level.  The peak RSS of a 5,000-row sweep was 43 MB (lossy chain) and
# 63 MB (Cooper-pair box, plateau reference, C, dC and chi_F) with it, and 81 MB and
# 396 MB with all rows in one run (30 MB before the sweep).
_MAX_OWNERS = 64


def _gk21(f: Callable, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Kronrod integrals and |K21 - G10| errors, both (rows, p), of p panels from one
    call of f on their nodes and each node's owner; the kernel's output is returned too."""
    half = 0.5 * (hi - lo)
    k = ((lo + half)[:, None] + half[:, None] * _GK_NODES).ravel()
    out = f(k, owner.repeat(_GK_NODES.size))
    rows = [np.reshape(g, (-1, k.size)) for g in (out if isinstance(out, tuple) else (out,))]
    y = np.concatenate(rows) if len(rows) > 1 else rows[0]
    rules = (y.reshape(-1, lo.size, _GK_NODES.size) @ _GK_WEIGHTS) * half[:, None]
    return rules[..., 0], np.abs(rules[..., 0] - rules[..., 1]), out


def bz_averages(f: Callable, edges, cfg: BZQuadratureConfig | None = None) -> list:
    """(1/2*pi) * integral over [-pi, pi] of many integrands (owners), by adaptive GK21.

    ``f(k, owner)`` maps nodes k (n,) and each node's index into ``edges`` to
    values (..., n), or to a tuple of such arrays (groups), alike for all
    owners.  Owner i's panels start from [-pi, pi] split at row i of the matrix
    ``edges``, padded with NaN; each level calls ``f`` once,
    on the 21 nodes of every panel it bisects.  Per owner, a group's error is
    |K21 - G10| over its components and panels and stops at max(abs_tol * 2 pi,
    rel_tol * sum |I|) (DCUHRE, Berntsen, Espelid & Genz 1991); each level
    bisects the owner's panels of largest error in units of those tolerances,
    ranked stably, at most _MAX_SPLIT, until the rest would meet them over
    _REFINE_MARGIN.  A finished owner's panels stay unsplit.  Returns per owner
    the estimate in the kernel's form or, past ``max_subdivisions`` panels (its
    starting panels count too) or at a non-finite error, a ConvergenceError
    carrying it and its error in the same form, one float per group in that
    group's own units.  The estimate is the
    ``np.add.reduceat`` sum of the owner's K21 values in panel order, the sum
    its last convergence test read; no other
    owner's panels enter it, so it equals the owner's lone average bit for bit.
    No node is on an edge.
    """
    cfg = cfg or BZQuadratureConfig()
    inside = np.where((-PI < edges) & (edges < PI), edges, PI)  # pi pads an owner's row
    cuts = np.sort(np.hstack((inside, np.full((len(inside), 2), (-PI, PI)))), axis=1)
    results = []
    for first in range(0, len(cuts), _MAX_OWNERS):
        chunk = cuts[first:first + _MAX_OWNERS]
        new = chunk[:, 1:] > chunk[:, :-1]  # a panel between each two distinct cuts
        npan = new.sum(axis=1)
        own = np.arange(npan.size).repeat(npan)  # each panel's owner, less first
        lo, hi = chunk[:, :-1][new], chunk[:, 1:][new]
        val, diff, out = _gk21(f, lo, hi, first + own)
        shapes = [np.shape(g)[:-1] for g in (out if isinstance(out, tuple) else (out,))]
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        rows, n_rows = np.array([0] + ends[:-1]), 2 + ends[-1]  # first row of each group
        # Panels are the columns (lo, hi, kernel rows' integrals, groups' errors) of a
        # C-ordered array; each owner's lie together, in the order of a lone average:
        # unsplit by rank, left halves, right halves.  A finished owner's keep theirs.
        state = np.concatenate(([lo, hi], val, np.add.reduceat(diff, rows)))
        alive = npan > 0
        while True:
            starts = np.add.accumulate(npan) - npan
            sums = np.add.reduceat(state[2:], starts, axis=1)
            owner_err = sums[n_rows - 2:]
            tol = np.maximum(cfg.abs_tol * 2.0 * PI,
                             cfg.rel_tol * np.add.reduceat(np.abs(sums[:n_rows - 2]), rows))
            converged = np.logical_and.reduce(owner_err <= tol) & (npan <= cfg.max_subdivisions)
            weights = tol[0] / tol  # in first-group tolerances
            err_total = np.add.reduce(weights * owner_err)
            room = cfg.max_subdivisions - npan
            alive &= ~converged & (room > 0) & np.isfinite(err_total)
            if not alive.any():
                break
            score = np.add.reduce(weights[:, own] * state[n_rows:])
            order = np.lexsort((np.where(alive[own], -score, 0.0), own))
            rank = np.arange(own.size) - starts[own]  # position in the owner's ranking
            ranked = np.zeros((npan.size, npan.max()))
            ranked[own, rank] = score[order]
            below = (np.add.accumulate(ranked, axis=1)
                     < (err_total - tol[0] / _REFINE_MARGIN)[:, None])
            n_split = np.where(alive, np.minimum(np.add.reduce(below, axis=1) + 1,
                                                 np.minimum(room, _MAX_SPLIT)), 0)
            split = rank < n_split[own]
            cut, kept = order[split], order[~split]
            lo, hi = state[:2].take(cut, axis=1)
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
            new_own = np.concatenate((own[cut], own[cut]))
            val, diff, _ = _gk21(f, lo, hi, first + new_own)
            own = np.concatenate((own[kept], new_own))
            place = np.argsort(own, kind="stable")
            own = own[place]
            state = np.concatenate((state.take(kept, axis=1), np.concatenate(
                ([lo, hi], val, np.add.reduceat(diff, rows)))), axis=1).take(place, axis=1)
            npan = np.bincount(own, minlength=npan.size)
        total = sums[:n_rows - 2] / (2.0 * PI)  # the sums the last test read
        groups = [total[a:b].T.reshape((-1, *shape)) for a, b, shape in zip(rows, ends, shapes)]
        found = list(zip(*groups)) if isinstance(out, tuple) else list(groups[0])
        for i in (~converged).nonzero()[0].tolist():
            error = (owner_err[:, i] / (2.0 * PI)).tolist()
            found[i] = ConvergenceError(
                "BZ average did not converge " + ("within the subdivision budget" if np.isfinite(
                    error).all() else f"to a finite error: {error}"),
                estimate=found[i], error=tuple(error) if isinstance(out, tuple) else error[0])
        results += found
    return results


def bz_average_vec(f: Callable, cfg: BZQuadratureConfig | None = None,
                   extra_points: Iterable[float] = ()):
    """``bz_averages`` of one kernel ``f(k)`` on panels split at ``extra_points``.

    The result takes the kernel's form; its ConvergenceError is raised.  No
    node lies on a panel edge, so a kernel undefined only at the caller's
    points is never evaluated there.
    """
    (result,) = bz_averages(lambda k, owner: f(k), np.array([tuple(extra_points)], float), cfg)
    if isinstance(result, Exception):
        raise result
    return result


_FD_STEP = 1e-5  # the default step of param_derivative


def _stencil(at: float, step: float) -> Tuple[float, float, float, float]:
    """The points param_derivative evaluates g at: at + h, at - h, at + 2h, at - 2h."""
    return at + step, at - step, at + 2.0 * step, at - 2.0 * step


def param_derivative(g: Callable[[float], float], at: float, step: float = _FD_STEP):
    """Fourth-order central finite-difference derivative of g at the given point.

    ``g`` may return a float or an array.  Differences are grouped before
    weighting so a constant g yields exactly zero rather than stencil
    roundoff.  A step that is not positive raises DomainError.
    """
    if not step > 0:
        raise DomainError("finite-difference step must be positive")
    plus, minus, plus2, minus2 = (g(x) for x in _stencil(at, step))
    return (8.0 * (plus - minus) - (plus2 - minus2)) / (12.0 * step)
