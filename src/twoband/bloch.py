"""Bloch-sphere geometry: unit vectors and reference-state descriptions."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, PartitionError

PI = math.pi


def canonical_angles(theta: float, phi: float) -> Tuple[float, float]:
    """Reduce finite (theta, phi) to theta in [0, pi], phi in [0, 2*pi); else a DomainError."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError("Bloch angles must be finite")
    theta = math.fmod(theta, 2.0 * PI)
    if theta < 0.0:
        theta += 2.0 * PI
    if theta > PI:
        theta = 2.0 * PI - theta
        phi += PI
    phi = math.fmod(phi, 2.0 * PI)
    if phi < 0.0:
        phi += 2.0 * PI
    return theta, phi


@dataclass(frozen=True)
class BlochVector:
    """Unit 3-vector on the Bloch sphere; the constructor normalizes."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        n = math.sqrt(self.nx ** 2 + self.ny ** 2 + self.nz ** 2)
        if not math.isfinite(n) or n < 1e-12:
            raise DomainError("cannot normalize a (near-)zero Bloch vector")
        object.__setattr__(self, "nx", self.nx / n)
        object.__setattr__(self, "ny", self.ny / n)
        object.__setattr__(self, "nz", self.nz / n)

    @classmethod
    def from_array(cls, v) -> "BlochVector":
        v = np.asarray(v, dtype=float)
        return cls(v[0], v[1], v[2])

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochVector":
        return cls(math.sin(theta) * math.cos(phi),
                   math.sin(theta) * math.sin(phi),
                   math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.nx, -self.ny, -self.nz)


class ReferenceState:
    """Common interface of the global and the piecewise-in-k reference states."""

    def bloch_at(self, k) -> np.ndarray:
        """Reference Bloch vector at k: shape (3,) + shape(k), or (3,) if global."""
        raise NotImplementedError

    def breakpoints(self) -> Tuple[float, ...]:
        """Interior k values at which the reference changes discontinuously."""
        return ()


@dataclass(frozen=True)
class GlobalReference(ReferenceState):
    """Momentum-independent reference state parametrized by Bloch angles.

    The equivalent amplitude pair is alpha = cos(theta/2),
    beta = exp(i*phi) * sin(theta/2).  Out-of-range angles are reduced
    modulo the sphere parametrization; non-finite ones are a DomainError.
    The Bloch vector and ``re_alpha_beta``, Re(alpha* beta), are computed
    once, at construction.
    """

    theta: float
    phi: float

    def __post_init__(self):
        th, ph = canonical_angles(float(self.theta), float(self.phi))
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)
        object.__setattr__(self, "_bloch_array",
                           BlochVector.from_angles(th, ph).as_array())
        # Re(alpha* beta) = sin(theta) cos(phi) / 2.  Magnitudes below 1e-15 are
        # snapped to zero: they are pure floating point noise from angles like pi/2
        # and would otherwise break the exact insensitive-reference identities.
        value = 0.5 * math.sin(th) * math.cos(ph)
        object.__setattr__(self, "re_alpha_beta", 0.0 if abs(value) < 1e-15 else value)

    @property
    def bloch(self) -> BlochVector:
        return BlochVector.from_angles(self.theta, self.phi)

    @property
    def alpha(self) -> complex:
        return complex(math.cos(0.5 * self.theta))

    @property
    def beta(self) -> complex:
        return cmath.exp(1j * self.phi) * math.sin(0.5 * self.theta)

    def bloch_at(self, k) -> np.ndarray:
        return self._bloch_array


@dataclass(frozen=True)
class PiecewiseBlochReference(ReferenceState):
    """Reference state assigned per momentum interval.

    ``pieces`` is a sequence of (k_lo, k_hi, BlochVector) triples that must
    partition [-pi, pi] without overlap.
    """

    pieces: Tuple[Tuple[float, float, BlochVector], ...]

    def __post_init__(self):
        pieces = tuple((float(lo), float(hi), vec) for lo, hi, vec in self.pieces)
        if not pieces:
            raise PartitionError("empty piecewise reference")
        if not all(math.isfinite(b) for lo, hi, _ in pieces for b in (lo, hi)):
            raise PartitionError("piecewise interval bounds must be finite")
        if abs(pieces[0][0] + PI) > 1e-12 or abs(pieces[-1][1] - PI) > 1e-12:
            raise PartitionError("piecewise reference must cover [-pi, pi]")
        for (lo, hi, _), (lo2, _, _) in zip(pieces, pieces[1:]):
            if hi <= lo or abs(hi - lo2) > 1e-12:
                raise PartitionError("piecewise intervals must tile [-pi, pi] in order")
        if pieces[-1][1] <= pieces[-1][0]:
            raise PartitionError("piecewise intervals must have positive length")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_vectors",
                           np.array([vec.as_array() for _, _, vec in pieces]).T)

    def bloch_at(self, k) -> np.ndarray:
        # each piece includes its upper end: k <= hi
        return self._vectors[:, np.searchsorted(self.breakpoints(), k, side="left")]

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(hi for _, hi, _ in self.pieces[:-1])

    def jumps(self) -> np.ndarray:
        """The breakpoints between unequal pieces, and pi if the first and last differ."""
        ends = np.append(self.breakpoints(), PI)
        return ends[(self._vectors != np.roll(self._vectors, -1, axis=1)).any(0)]


def plateau_reference() -> PiecewiseBlochReference:
    """Antipodal z-axis reference: +z for k <= 0, -z for k > 0.

    This is the momentum-dependent reference that produces the constant
    complexity plateau in the topological phase of the SSH chain.
    """
    up = BlochVector(0.0, 0.0, 1.0)
    down = BlochVector(0.0, 0.0, -1.0)
    return PiecewiseBlochReference(((-PI, 0.0, up), (0.0, PI, down)))
