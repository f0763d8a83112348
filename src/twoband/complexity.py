"""Krylov spread complexity from Bloch-sphere geometry.

For a two-level mode the Krylov chain has length two, so the spread
complexity of a target state relative to a reference state reduces to the
overlap formula ``C_k = (1 - n_ref . n_target) / 2``; everything in this
module is that formula averaged over the Brillouin zone, plus the closed
forms it admits for the dimerized-chain and massive-Dirac families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bloch import (BlochVector, GlobalReference, PiecewiseBlochReference, ReferenceState,
                    plateau_reference)
from .errors import DomainError, GapClosedError, PartitionError
from .models import GAP_EPS, MassiveDiracParams, SSHParams, TwoBandModel, ssh_model
from .fidelity import _bloch_averages
from .quadrature import BZQuadratureConfig
from . import special_functions as sf

PI = math.pi


def complexity_per_mode(n_ref, n_target) -> float:
    """C_k = (1 - n_ref . n_target) / 2 for two unit Bloch vectors.

    Lies in [0, 1]; zero iff the vectors coincide, one iff they are antipodal.
    """
    a = n_ref.as_array() if isinstance(n_ref, BlochVector) else np.asarray(n_ref, dtype=float)
    b = n_target.as_array() if isinstance(n_target, BlochVector) else np.asarray(n_target, dtype=float)
    c = 0.5 * (1.0 - float(a @ b))
    return 0.0 if c < 0.0 else 1.0 if c > 1.0 else c


def ground_state_bloch(d) -> BlochVector:
    """Bloch vector of the lower band, -d/|d|; undefined at a gap closing."""
    v = np.asarray(d, dtype=float)
    n = float(np.linalg.norm(v))
    if n < GAP_EPS:
        raise GapClosedError("ground-state Bloch vector undefined: |d| = 0")
    return BlochVector(-v[0] / n, -v[1] / n, -v[2] / n)


def ground_complexity(model: TwoBandModel, ref: ReferenceState,
                      cfg: BZQuadratureConfig | None = None) -> float:
    """BZ average of the ground-state C_k = 1/2 + (1/2) n_ref(k) . d_hat(k).

    A planar row whose zeros lie on one line, under a global reference or a
    piecewise one that jumps on that line, is averaged exactly, a closed one
    too (``_planar_averages`` decides); any other takes the engine on panels
    graded toward its singular points and split at the reference breakpoints,
    where no node meets a singular point.  There a gap closed at a node raises
    GapClosedError, an exhausted budget ConvergenceError.
    """
    return _bloch_averages(model, [model.lam], ref, cfg, complexity=True).complexity[0]


def _ssh_elliptic_terms(t1: float, t2: float) -> float:
    """(delta*K(m) + s*E(m)) / (pi*t1) from the exact complement 1 - m = (delta/s)^2.

    For t1, t2 > 0, |delta| <= s, so m lies in [0, 1] and the Cephes entry points
    take it unguarded, as do the massive-Dirac forms below.
    """
    s = t1 + t2
    delta = t1 - t2
    mc = (delta / s) ** 2
    k_term = 0.0 if mc == 0.0 else delta * sf._ellipkm1(mc)
    return (k_term + s * sf._ellipe(1.0 - mc)) / (PI * t1)


def _require_global(ref: ReferenceState) -> GlobalReference:
    if not isinstance(ref, GlobalReference):
        raise DomainError("this operation requires a momentum-independent reference state")
    return ref


def ssh_complexity_closed(params: SSHParams, ref: GlobalReference) -> float:
    """Closed-form SSH ground-state complexity.

    C = 1/2 + Re(alpha* beta) * (delta K(m) + s E(m)) / (pi t1) with
    s = t1 + t2, delta = t1 - t2, m = 4 t1 t2 / s^2.  At t1 = t2 the
    divergent K is tamed by the vanishing delta prefactor.
    """
    ref = _require_global(ref)
    return 0.5 + ref.re_alpha_beta * _ssh_elliptic_terms(params.t1, params.t2)


def md_complexity_closed(params: MassiveDiracParams, theta: float) -> float:
    """Closed-form massive-Dirac complexity 1/2 + mu cos(theta) K(1/(1+mu^2)) / (pi sqrt(1+mu^2))."""
    mu = params.mu
    root = math.hypot(1.0, mu)
    mc = (mu / root) ** 2  # exact complement mu^2/(1+mu^2) of the parameter
    if mc == 0.0:  # mu = 0, or mu^2 underflows: mu*K -> 0
        return 0.5
    return 0.5 + mu * math.cos(theta) / (PI * root) * sf._ellipkm1(mc)


def md_dC_dmu_analytic(params: MassiveDiracParams, theta: float) -> float:
    """Analytic derivative (cos(theta)/(pi sqrt(1+mu^2))) [K(lam) - E(lam)], lam = 1/(1+mu^2).

    Diverges like (cos(theta)/pi) (ln(4/|mu|) - 1) as mu -> 0, so the
    coefficient of ln|mu| is -cos(theta)/pi on both sides; raises DomainError
    only where the complement mu^2/(1+mu^2) is 0.
    """
    root = math.hypot(1.0, params.mu)
    mc = (params.mu / root) ** 2
    if mc == 0.0:
        raise DomainError("derivative diverges at mu = 0")
    return math.cos(theta) / (PI * root) * (sf._ellipkm1(mc) - sf._ellipe(1.0 - mc))


def plateau_complexity(params: SSHParams, cfg: BZQuadratureConfig | None = None) -> float:
    """SSH complexity for the antipodal z-axis reference, exact.

    The per-mode value 1/2 - t2 sin|k| / (2 |d(k)|) averages to
    1/2 - t2/(pi t1) in the trivial phase and plateaus at 1/2 - 1/pi in the
    topological phase.  The reference jumps at k = 0 and pi, on the line of
    the SSH zeros, so the exact path takes every row, closed ones included.
    The per-mode formula is authoritative here; see the normalization notes in
    the README.
    """
    return ground_complexity(ssh_model(params), plateau_reference(), cfg)


@dataclass(frozen=True)
class BandAssignment:
    """Piecewise band choice: sign +1 selects the upper band, -1 the lower.

    ``breakpoints`` must run strictly increasing from -pi to pi and delimit
    len(signs) intervals.
    """

    breakpoints: Tuple[float, ...]
    signs: Tuple[int, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        signs = tuple(int(s) for s in self.signs)
        if len(signs) != len(bp) - 1:
            raise PartitionError("need exactly one sign per interval")
        if any(s not in (-1, 1) for s in signs):
            raise PartitionError("band signs must be +1 or -1")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "signs", signs)
        self.reference(BlochVector(0.0, 0.0, 1.0))  # a PartitionError unless bp tile [-pi, pi]

    def reference(self, n_ref: BlochVector) -> PiecewiseBlochReference:
        """The piecewise reference -s * n_ref on each band interval.

        C_k = 1/2 - (s/2) n_ref . d_hat is the ground-state C_k against
        -s * n_ref, so the ground complexity against this reference is the
        assignment's complexity against n_ref.  Each interval includes its
        upper end.
        """
        bp = self.breakpoints
        return PiecewiseBlochReference(tuple(
            (lo, hi, n_ref if s < 0 else -n_ref) for lo, hi, s in zip(bp, bp[1:], self.signs)))

    @classmethod
    def two_interval(cls, k0: float, sign_left: int, sign_right: int) -> "BandAssignment":
        return cls((-PI, float(k0), PI), (sign_left, sign_right))

    @classmethod
    def ground(cls) -> "BandAssignment":
        return cls((-PI, PI), (-1,))


def excited_piecewise_complexity(params: SSHParams, bands: BandAssignment,
                                 ref: GlobalReference,
                                 cfg: BZQuadratureConfig | None = None) -> float:
    """Complexity of a piecewise band assignment of the SSH chain.

    The target Bloch vector is sign(k) * d_hat(k), so per mode
    C_k = 1/2 - (sign(k)/2) * n_ref . d_hat(k): the ground complexity against
    the piecewise reference ``bands.reference(n_ref)``.  A split at k0 = 0
    jumps on the line of the SSH zeros and is exact; one at k0 != 0 takes the
    engine, whose panels its breakpoints split.
    """
    return ground_complexity(ssh_model(params), bands.reference(_require_global(ref).bloch), cfg)


def excited_split_closed(params: SSHParams, theta: float) -> float:
    """Closed form for the k0 = 0 split with the lower band kept on k <= 0.

    Equals 1/2 + (cos(theta) / (2 pi t1)) (|t1 - t2| - (t1 + t2)); the cusp
    at t1 = t2 survives for any reference with cos(theta) != 0.
    """
    t1, t2 = params.t1, params.t2
    return 0.5 + math.cos(theta) / (2.0 * PI * t1) * (abs(t1 - t2) - (t1 + t2))
