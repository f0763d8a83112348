"""Winding-number diagnostics for gapped one-dimensional Bloch maps."""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, GapClosedError, NonQuantizedError
from .models import GAP_EPS, DualSSHParams, TwoBandModel, dual_pair

PI = math.pi

# Pre-rounding residuals above this are treated as non-quantized output.
_QUANTIZATION_SLACK = 0.1


def winding_phase_accumulation(f: Callable[[np.ndarray], np.ndarray],
                               grid_size: int = 1024) -> float:
    """Raw accumulated phase of f around the zone, in units of 2*pi.

    ``f`` is called once, on the whole array of grid momenta; a constant
    result stands for every momentum.  A full turn needs phase steps below
    pi, so the grid must have at least three steps.  The grid of
    ``grid_size`` uniform steps always holds k = 0, where the stock contours
    come closest to the origin: an odd size gains a node there.  Without it
    the sampled SSH contour skips the origin once |t2 - t1| is below about
    (pi / grid_size)^2 / 2.
    """
    if grid_size < 3:
        raise DomainError(f"winding needs a grid of at least 3 steps, got {grid_size}")
    ks = np.union1d(np.linspace(-PI, PI, grid_size + 1), 0.0)
    vals = np.broadcast_to(np.asarray(f(ks), dtype=complex), ks.shape)
    if np.min(np.abs(vals)) < GAP_EPS:
        raise GapClosedError("map vanishes on the grid; winding undefined")
    steps = np.angle(vals[1:] / vals[:-1])
    return float(np.sum(steps) / (2.0 * PI))


def winding_log_derivative(f: Callable[[np.ndarray], np.ndarray], grid_size: int = 1024) -> int:
    """Phase winding of a nonvanishing 2*pi-periodic complex map.

    Accumulates the unwrapped phase of f around the zone on a uniform grid
    and rounds to the nearest integer; grids fine enough that consecutive
    phase steps stay below pi give the exact integer for gapped maps.
    """
    return _nearest_winding(winding_phase_accumulation(f, grid_size))


def _nearest_winding(raw: float) -> int:
    """The integer within _QUANTIZATION_SLACK of a winding estimate, else NonQuantizedError."""
    if not (math.isfinite(raw) and abs(raw - round(raw)) <= _QUANTIZATION_SLACK):
        raise NonQuantizedError(f"winding accumulation {raw} is not near an integer")
    return round(raw)


def winding_cross_product(model: TwoBandModel, grid_size: int = 4096) -> float:
    """Planar winding integral of d_hat on a uniform grid.

    Evaluates (1/2*pi) * integral of the in-plane rotation rate of d_hat,
    oriented to agree with the log-derivative contour convention (the plane
    vector tracks the off-diagonal Bloch element d_x - i d_y).  Models stored
    in the rotated (x, z) basis are un-rotated first, so the winding plane is
    always the physical x-y plane.  Derivatives are central differences and
    the integral is a periodic trapezoid sum, so the grid needs at least
    three points.
    """
    if grid_size < 3:
        raise DomainError(f"planar winding needs a grid of at least 3 points, got {grid_size}")
    ks = np.linspace(-PI, PI, grid_size, endpoint=False)
    d = model.d(ks)
    if model.rotated:
        # physical (x, y, z) = stored (x, z, -y)
        planar = np.stack([d[0], d[2], -d[1]])
    else:
        planar = d
    norms = np.sqrt(np.sum(planar * planar, axis=0))
    if np.min(norms) < GAP_EPS:
        raise GapClosedError("gap closes on the winding grid")
    dhat = planar / norms
    dk = 2.0 * PI / grid_size
    ddk = (np.roll(dhat, -1, axis=1) - np.roll(dhat, 1, axis=1)) / (2.0 * dk)
    rate = dhat[1] * ddk[0] - dhat[0] * ddk[1]
    return float(np.sum(rate) * dk / (2.0 * PI))


def dual_windings(params: DualSSHParams, grid_size: int = 1024) -> Tuple[int, int]:
    """Winding numbers (nu_I, nu_II) of the dual pair's contours; they sum to 1 for r != 1."""
    model_i, model_ii = dual_pair(params)
    if model_i.gap_closed():
        raise GapClosedError("dual pair is gapless at the self-dual point r = 1")
    return (winding_log_derivative(model_i.contour, grid_size),
            winding_log_derivative(model_ii.contour, grid_size))
