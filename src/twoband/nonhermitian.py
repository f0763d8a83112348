"""Biorthogonal spread complexity for the lossy dimerized chain under PBC.

The complex-symmetric Bloch matrix H = d . sigma, d = (R1, 0, R3) from the rows of ``MODELS``,
has the biorthogonal ground projector P = (1 - d . sigma / R) / 2, so the Krylov chains of a
reference amplitude pair, of real Bloch vector r, give per-mode weights
w_0, w_1 = (1 -+ d . r / R) / 2 and C_k = |w_1| / (|w_0| + |w_1|); the explicit eigenvectors
and chains (``biorthogonal_ground``, ``bikrylov_basis``) are its oracle.  The exceptional
points (EPs), the zeros of R^2's Laurent factors R1 -+ i R3, are panel edges graded by the
Hermitian rule, which no node meets; a mode where R^2 is exactly 0 raises
ExceptionalPointError.  C is C^1 in the couplings across an EP; beside it, dC/d(lambda)
departs from its value on the closing like sqrt(delta) between the two closings and like delta
outside.  Where both factors vanish at one k (gamma = 0, t2 = +-t1: a double zero of R^2, no
EP) the gap is closed the Hermitian way: C is averaged, and dC/d(lambda) diverges, so a row
asked for it runs no average.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (ExceptionalPointError, GapClosedError, InsufficientDataError,
                     NormalizationError)
from .fidelity import _Averages
from .models import (GAP_EPS, MODELS, NonHermitianSSHParams, TwoBandModel, contour_zeros,
                     nh_ssh_bloch_hamiltonian, singular_points, trig_sum)
from .quadrature import BZQuadratureConfig, bz_averages, graded_edges

# The EP scale that grades the panels on a closing, where it is 0.
_EP_SCALE_FLOOR = 1e-16


@dataclass(frozen=True)
class BiorthogonalPair:
    """Right column / left row ground eigenvectors with <L|R> = 1."""

    right: np.ndarray
    left: np.ndarray
    eigenvalue: complex

    def pairing(self) -> complex:
        return complex(self.left @ self.right)


@dataclass(frozen=True)
class BiKrylovBasis:
    """Two-step left/right Krylov chains satisfying <K_i^L|K_j^R> = delta_ij."""

    right0: np.ndarray
    right1: np.ndarray
    left0: np.ndarray
    left1: np.ndarray


def biorthogonal_ground(h: np.ndarray) -> BiorthogonalPair:
    """Ground biorthogonal pair of a complex-symmetric traceless 2x2 matrix.

    The eigenvalue branch -R with Re(-R) < 0 is selected.  Of the two
    proportional ground vectors (R1, -(R + R3)) and (R - R3, -R1), the one
    with the larger of |R + R3| and |R - R3| is kept: its pairing
    2R(R +- R3) vanishes only where R^2 does.  The shared complex
    normalization 1/sqrt(v . v) cancels in any left-right product.
    """
    h = np.asarray(h, dtype=complex)
    r1 = complex(h[0, 1])
    r3 = complex(h[0, 0])
    rsq = r1 * r1 + r3 * r3
    if rsq == 0:
        raise ExceptionalPointError("R^2 = 0: eigenvectors coalesce")
    # Principal square root: Re(R) >= 0, and Im(R) >= 0 on the Re(R) = 0 ray,
    # which implements the ground-branch rule Re(-R) < 0 with the
    # Im(-R) < 0 tie-break.
    R = cmath.sqrt(rsq)
    if abs(R + r3) >= abs(R - r3):
        v = np.array([r1, -(R + r3)], dtype=complex)
    else:
        v = np.array([R - r3, -r1], dtype=complex)
    v /= cmath.sqrt(complex(v @ v))
    return BiorthogonalPair(right=v, left=v.copy(), eigenvalue=-R)


def bikrylov_basis(alpha: complex, beta: complex) -> BiKrylovBasis:
    """Krylov chains seeded by the amplitude pair (alpha, beta).

    Requires |alpha|^2 + |beta|^2 = 1.  The companions (beta*, -alpha*) and
    (beta, -alpha) make all four biorthonormality relations exact.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-10:
        raise NormalizationError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    return BiKrylovBasis(
        right0=np.array([alpha, beta], dtype=complex),
        right1=np.array([beta.conjugate(), -alpha.conjugate()], dtype=complex),
        left0=np.array([alpha.conjugate(), beta.conjugate()], dtype=complex),
        left1=np.array([beta, -alpha], dtype=complex),
    )


def _normalized_pair(alpha: complex, beta: complex) -> Tuple[complex, complex]:
    n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if not math.isfinite(n):
        raise NormalizationError("reference amplitudes must be finite")
    if n < 1e-12:
        raise NormalizationError("reference amplitudes cannot both vanish")
    return alpha / n, beta / n


def _nh_weight_kernel(model: TwoBandModel, lams, derivative: bool, alpha: complex, beta: complex):
    """Array kernel (k, owner) -> C_k = |R + d . r| / (|R - d . r| + |R + d . r|) of the lossy
    ``model`` at each of ``lams``, one per owner, for normalized amplitudes: the projector
    form, with R the principal root of R^2 (the ground branch is -R) and no ground vector.
    A mode where R^2 is exactly 0, an EP where P is undefined and the form reads 1/2, has C_k
    set to NaN (and dC_k to 0), which fails its owner's average alone, and ``kernel.eps`` notes it.
    With ``derivative`` the kernel returns the stack (C_k, dC_k/d(lambda)), by the chain rule
    through R and d . r:
    dC_k = C_k (1 - C_k) Re((R + d . r)'/(R + d . r) - (R - d . r)'/(R - d . r))
         = 2 |q| Re(u W / (R q)) / (|R - d . r| + |R + d . r|)^2,
    with u = r_z R1 - r_x R3, W = R1 R3' - R3 R1' and q = (R + d . r)(R - d . r) =
    r_y^2 R^2 + u^2, which does not cancel where a weight vanishes (there dC_k is 0).
    """
    ab, lams = alpha.conjugate() * beta, np.asarray(lams, dtype=float)
    rx, ry2, rz = 2.0 * ab.real, 4.0 * ab.imag ** 2, abs(alpha) ** 2 - abs(beta) ** 2

    @np.errstate(divide="ignore", invalid="ignore")
    def ck(k, owner):
        if k.size > 2048:  # in blocks of nodes whose temporaries stay in cache
            return np.concatenate([ck(k[i:i + 2048], owner[i:i + 2048])
                                   for i in range(0, k.size, 2048)], axis=-1)
        cos, sin = np.cos(k), np.sin(k)
        r1, _, r3 = trig_sum(model.rows(lams[owner]), cos, sin)
        rsq = r1 * r1 + r3 * r3
        root, dr = np.sqrt(rsq), rx * r1 + rz * r3
        m1 = np.abs(root + dr)
        total = np.abs(root - dr) + m1
        c = m1 / total
        if not rsq.all():  # an EP, where the form reads 1/2
            c[rsq == 0.0] = np.nan
            ck.eps.update(owner[rsq == 0.0].tolist())
        if not derivative:
            return c
        dr1, _, dr3 = trig_sum(model.slope(lams[owner]), cos, sin)
        u = rz * r1 - rx * r3
        q = ry2 * rsq + u * u
        rq = root * q  # 0 at an EP too
        dc = np.where(rq != 0.0, 2.0 * np.abs(q) / (total * total)
                      * (u * (r1 * dr3 - r3 * dr1) / rq).real, 0.0)
        return np.stack((c, dc))

    ck.eps = set()  # the owners with a node where R^2 = 0
    return ck


def nh_complexity_per_mode(params: NonHermitianSSHParams, k: float,
                           alpha: complex, beta: complex) -> float:
    """Per-mode biorthogonal complexity C_k = |w_1| / (|w_0| + |w_1|).

    The overall amplitude scale of (alpha, beta) cancels and is normalized
    away; raises ExceptionalPointError where the weights are undefined.
    """
    alpha, beta = _normalized_pair(alpha, beta)
    c = float(_nh_weight_kernel(MODELS["nh-ssh"].model(vars(params)), [params.t2], False,
                                alpha, beta)(np.array([float(k)]), np.zeros(1, dtype=int))[0])
    if math.isnan(c):
        raise ExceptionalPointError(f"exceptional point at k={k}: R^2 = 0")
    return c


def nh_complexity_per_mode_overlap(params: NonHermitianSSHParams, k: float,
                                   alpha: complex, beta: complex) -> float:
    """Oracle path for C_k built from explicit eigenvectors and Krylov chains.

    w_i = <K_i^L|psi_g^R><psi_g^L|K_i^R>; must agree with the closed-form
    weights to full precision.
    """
    alpha, beta = _normalized_pair(alpha, beta)
    pair = biorthogonal_ground(nh_ssh_bloch_hamiltonian(params, k))
    basis = bikrylov_basis(alpha, beta)
    w0 = complex(basis.left0 @ pair.right) * complex(pair.left @ basis.right0)
    w1 = complex(basis.left1 @ pair.right) * complex(pair.left @ basis.right1)
    return abs(w1) / (abs(w0) + abs(w1))


def _nh_averages(model: TwoBandModel, lams, derivative: bool, alpha: complex, beta: complex,
                 cfg: BZQuadratureConfig | None, skip: bool = False) -> _Averages:
    """The lossy ``model``'s ``_Averages`` (C, and dC/d(lambda) with ``derivative``) at ``lams``
    in one run; an error that ends one is raised, as an EP where its kernel met R^2 = 0, and
    such a row is skipped (NaN) with ``skip``.

    Each row owns k = 0 and the ``graded_edges`` at its EPs, the zeros k_s of R^2's Laurent
    factors F = R1 -+ i R3 (``singular_points`` of the rows with the z row as is and negated;
    none at z = 0 or infinity), graded by the rule of ``fidelity._engine_averages``,
    w = |F(k_s)| / |d_k F(k_s)|, floored at _EP_SCALE_FLOOR on a closing.  A ``closed`` row
    (both |F| < GAP_EPS at one k_s, a double zero of R^2, no EP) has dC None, and no C either
    if asked for dC: it runs no average.
    """
    alpha, beta = _normalized_pair(alpha, beta)
    lams = np.asarray(lams, dtype=float)
    rows = tuple((x, y, np.array([[1.0], [-1.0]]) * z) for x, y, z in model.rows(lams))
    zeros = contour_zeros(rows, lams.size)
    points, gap, slope = singular_points(zeros)
    found = (zeros.p[1:] * zeros.p[:2]).reshape(-1, lams.size).T != 0.0
    on, closed = found & (gap < GAP_EPS), np.zeros(lams.size, dtype=bool)
    if on.any():  # per factor e^{ik_s} of its zero on the circle, else 0; k = +-pi is one point
        s = np.where(on, np.exp(1j * points), 0.0).reshape(-1, 2, 2).sum(axis=1)
        closed = (s[:, 0] * s[:, 1].conjugate()).real > 0.0
    keep = found.any(axis=0)  # the zeros that some chain has
    w = np.divide(gap, slope, out=np.full(gap.shape, np.nan), where=slope > 0.0)[:, keep]
    edges = np.hstack((np.zeros((lams.size, 1)), graded_edges(
        np.where(found, points, np.nan)[:, keep], np.maximum(w, _EP_SCALE_FLOOR))))
    run = ~(closed & derivative)
    kernel = _nh_weight_kernel(model, lams[run], derivative, alpha, beta)
    outs = bz_averages(kernel, edges[run], cfg) if run.any() else []
    shut, n = closed.tolist(), lams.size
    cs, dcs, skipped = [None] * n, [None] * n, [False] * n
    for j, (i, out) in enumerate(zip(run.nonzero()[0].tolist(), outs)):
        ep = j in kernel.eps  # a row run for dC is not closed
        if isinstance(out, Exception) and not (ep and skip):
            raise ExceptionalPointError("exceptional point: R^2 = 0 at a mode") if ep else out
        c, dc = (math.nan, math.nan) if ep else out if derivative else (out, math.nan)
        cs[i], dcs[i], skipped[i], shut[i] = float(c), float(dc), ep, shut[i] and not ep
    return _Averages(cs, dcs if derivative else None, closed=shut, exceptional=skipped)


def nh_ground_complexity(params: NonHermitianSSHParams, alpha: complex, beta: complex,
                         cfg: BZQuadratureConfig | None = None) -> float:
    """BZ average of the biorthogonal per-mode complexity.

    The panels are graded toward the exceptional points, which are panel edges
    and never evaluated; a mode where R^2 is exactly 0 raises ExceptionalPointError.
    """
    return _nh_averages(MODELS["nh-ssh"].model(vars(params)), [params.t2], False,
                        alpha, beta, cfg).complexity[0]


def nh_complexity_derivative(params: NonHermitianSSHParams, parameter: str,
                             alpha: complex, beta: complex,
                             cfg: BZQuadratureConfig | None = None) -> Tuple[float, float]:
    """BZ averages (C, dC/d(parameter)) of the lossy chain, for parameter "t2" or "gamma".

    One average of the two-component kernel, on the EP-graded panels of nh_ground_complexity;
    a mode where R^2 is exactly 0 raises ExceptionalPointError.  A closed gap (a double zero
    of R^2), where dC diverges, raises GapClosedError before any average.  C is C^1 in the
    couplings across an EP, so the derivative stays finite there, where
    dC_k/d(parameter) ~ |k - k_s|^(-1/2).  Any other parameter raises DomainError.
    """
    model = MODELS["nh-ssh"].model(vars(params), parameter)
    avg = _nh_averages(model, [model.lam], True, alpha, beta, cfg)
    if avg.closed[0]:
        raise GapClosedError("complexity derivative diverges where the gap is closed")
    return avg.complexity[0], avg.dcomplexity[0]


def detect_cusps(sweep: Sequence) -> List[float]:
    """Locate curvature spikes of a swept scalar, e.g. dC/d(lambda) cusps.

    Takes finite (lambda, value) pairs sorted by lambda, at least 20 of them.  A
    point is a cusp candidate when its second difference exceeds five times
    the sweep's median absolute second difference (plus a small absolute
    floor so exact lines stay empty); adjacent candidates collapse to the
    strongest one.
    """
    pairs = np.asarray(sweep, dtype=float)
    if len(pairs) < 20:
        raise InsufficientDataError("cusp detection needs at least 20 sweep points")
    if not np.all(np.isfinite(pairs)):
        raise InsufficientDataError("cusp detection needs finite (lambda, value) pairs")
    lams, values = pairs.T
    if np.any(np.diff(lams) <= 0):
        raise InsufficientDataError("sweep must be sorted by the swept parameter")
    d2 = np.abs(values[:-2] - 2.0 * values[1:-1] + values[2:])
    floor = 1e-12 + 1e-9 * float(np.max(np.abs(values)))
    threshold = max(5.0 * float(np.median(d2)), floor)
    hits = np.flatnonzero(d2 > threshold) + 1  # +1: d2[i] sits at lams[i+1]
    # A grid point landing exactly on a cusp has a cancelling second
    # difference, leaving two flanking hits; merge hits within two steps.
    groups = np.split(hits, np.flatnonzero(np.diff(hits) > 2) + 1)
    return [float(lams[group[np.argmax(d2[group - 1])]]) for group in groups if group.size]
