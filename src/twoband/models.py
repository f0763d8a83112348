"""The model zoo: analytic d(k, lambda) vectors and their parameter derivatives.

Every stock family has d(k) = a + b cos k + c sin k; its entry in ``MODELS``
gives the rows (a, b, c) once, and d, d(d)/d(lambda), the winding contour and
``ContourZeros``, the one record of the rows at their two contour zeros that
gives the winding number and the gap closings (the lossy chain's exceptional
points), come from them.  The SSH chains are stored in the rotated basis
(d_y = 0) of the sigma relabeling (x, y, z) -> (x, z, -y), recorded on the
model so topology diagnostics can undo it; massive Dirac and the Cooper-pair
box are native to the final basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, SpecError

# |d| below this is treated as an exact gap closing.
GAP_EPS = 1e-13


@dataclass(frozen=True)
class TwoBandModel:
    """A one-parameter family k -> d(k, lambda) of two-band Bloch Hamiltonians.

    ``rows`` maps lambda to the rows (a, b, c) of d(k) = a + b cos k + c sin k,
    each a 3-vector, and ``slope`` maps it to the rows of d(d)/d(lambda); both
    take a number or an array of one value per k node (``nonhermitian`` reads only
    these of the lossy chain).  Models are immutable; ``at`` rebinds the swept parameter.
    """

    rows: Callable[..., Rows]
    slope: Callable[..., Rows]
    lam: float
    rotated: bool = False
    label: str = ""

    def d(self, k):
        """d(k) at the bound parameter value; shape (3,) + shape(k)."""
        return _bloch_sum(self.rows(self.lam), k)

    def d_deriv(self, k):
        """The parameter derivative of d at the bound value."""
        return _bloch_sum(self.slope(self.lam), k)

    def at(self, lam) -> "TwoBandModel":
        """The family at lam: a number, or an array of one value per k node."""
        lam = lam if isinstance(lam, np.ndarray) else float(lam)
        return TwoBandModel(self.rows, self.slope, lam, self.rotated, self.label)

    def contour(self, k):
        """The stored d_x - i d_z; in the rotated basis, the off-diagonal Bloch element."""
        d = self.d(k)
        return d[0] - 1j * d[2]

    def zeros(self, lams) -> ContourZeros:
        """The ``contour_zeros`` of the rows at each of ``lams``, which must be real."""
        return contour_zeros(_real(self.rows(np.asarray(lams, dtype=float))), np.size(lams))

    def gap_closed(self) -> bool:
        """Whether |d| < GAP_EPS at one of the singular points, where the gap can close."""
        return bool(self.zeros([self.lam]).closed[0])

    def windings(self, lams) -> np.ndarray:
        """The winding at each of ``lams``, counted from the rows; NaN where ``closed``.

        Both counts need zero y rows, else a DomainError.  A planar family then winds 0,
        and a rotated one by its contour zeros ``inside`` |z| < 1, minus 1."""
        return self._windings(self.zeros(lams))

    def _windings(self, zeros: ContourZeros) -> np.ndarray:
        """``windings`` from the rows' ``zeros``."""
        if any(np.any(np.asarray(row[1]) != 0.0) for row in zeros.rows):
            raise DomainError(f"model {self.label!r} has nonzero y rows; no winding is counted")
        return np.where(zeros.closed, np.nan, zeros.inside.sum(0) - 1.0 if self.rotated else 0.0)


class ContourZeros(NamedTuple):
    """Rows at their contour zeros q / p2 and p0 / q, z (d_x - i d_z) = p0 + p1 z + p2 z^2 at
    z = e^{ik}, lambda on the last axis: ``p`` stacks (p2, q, p0); ``inside``, a zero in
    |z| < 1 (p0 = q = 0 as one at 0); ``cos``, ``sin`` of its argument k_s (0 if missing),
    exact at a real or imaginary zero; ``gap``, |f| there, f = (d_x - i d_z, d_y); ``closed``,
    a gap < GAP_EPS."""
    rows: Rows
    p: np.ndarray
    p1: np.ndarray
    inside: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    gap: np.ndarray
    closed: np.ndarray

    def take(self, i) -> ContourZeros:
        """The record at the lambdas ``i``."""
        at = lambda v: v[..., i] if np.ndim(v) else v
        return ContourZeros(tuple(tuple(map(at, row)) for row in self.rows), *map(at, self[1:]))


def contour_zeros(rows: Rows, n: int) -> ContourZeros:
    """The ``ContourZeros`` of real or complex rows at n lambdas.  q = -(p1 +- sqrt(p1^2 -
    4 p0 p2)) / 2 is signed not to cancel, so the pair holds p2 = 0 (one zero) and p0 = 0 (a
    zero at 0).  Where d_x and d_z vanish at every k, d_y takes the place of d_x."""
    p0, p1, p2 = _coefficients(rows)
    if np.count_nonzero(p1) < np.size(p1):  # a flat row has p1 = 0
        flat = (p0 == 0) & (p1 == 0) & (p2 == 0)
        p0, p1, p2 = (np.where(flat, y, p) for y, p in
                      zip(_coefficients([(r[1], 0.0, 0.0) for r in rows]), (p0, p1, p2)))
    root = np.sqrt(p1 * p1 - 4.0 * p0 * p2)
    q = -0.5 * np.where((p1.conjugate() * root).real >= 0.0, p1 + root, p1 - root)
    p = np.empty((3,) + np.shape(q)[:-1] + (n,), complex)
    p[0], p[1], p[2] = p2, q, p0
    inside = abs(p[1:]) < abs(p[:2])
    inside[1] |= p0 == 0.0
    z = p[1:] * p[:2].conj()  # each zero times a positive number
    z[z == 0.0] = 1.0  # a missing zero: k_s = 0
    size = abs(z)
    cos, sin = z.real / size, z.imag / size
    x, y, f = trig_sum(rows, cos, sin)
    f = x - 1j * f
    gap = np.sqrt(f.real ** 2 + abs(y) ** 2 + f.imag ** 2) * np.ones(z.shape)
    return ContourZeros(rows, p, p1, inside, cos, sin, gap, (gap < GAP_EPS).reshape(-1, n).any(0))


def singular_points(zeros: ContourZeros):
    """Per lambda (n rows) and zero of the record: k_s, its ``gap`` and |d_k f| there; each
    (n, zeros).  Only the engine's grading and the lossy chain's EPs read k_s and |d_k f|."""
    x, y, f = trig_sum(((0.0, 0.0, 0.0), zeros.rows[2], tuple(-v for v in zeros.rows[1])),
                       zeros.cos, zeros.sin)  # d_k d has the rows (0, c, -b)
    f = x - 1j * f
    slope = np.sqrt(f.real ** 2 + abs(y) ** 2 + f.imag ** 2) * np.ones(zeros.gap.shape)
    return tuple(v.reshape(-1, zeros.closed.size).T
                 for v in (np.arctan2(zeros.sin, zeros.cos), zeros.gap, slope))


def _coefficients(rows: Rows):
    """(p0, p1, p2): with z = e^{ik} the rows' z (d_x - i d_z) is p0 + p1 z + p2 z^2."""
    (ax, _, az), (bx, _, bz), (cx, _, cz) = rows
    b, ic = bx - 1j * bz, 1j * (cx - 1j * cz)
    return 0.5 * (b + ic), ax - 1j * az, 0.5 * (b - ic)


@dataclass(frozen=True)
class SSHParams:
    """Hopping amplitudes of the dimerized chain; both must be finite and positive."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (0 < self.t1 < math.inf and 0 < self.t2 < math.inf):
            raise DomainError("SSH hoppings must be finite and satisfy t1 > 0 and t2 > 0")


@dataclass(frozen=True)
class DualSSHParams:
    """Fixed intracell coupling t and dimensionless ratio r of the dual pair."""

    t: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        if not (0 < self.t < math.inf):
            raise DomainError("coupling t must be finite and positive")
        if not (0 < self.r < math.inf):
            raise DomainError("ratio r must be finite and positive")


@dataclass(frozen=True)
class MassiveDiracParams:
    t: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.mu)):
            raise DomainError("massive-Dirac parameters must be finite")


@dataclass(frozen=True)
class CooperPairBoxParams:
    """Josephson energy, charging energy 2e^2/C and gate charge."""

    Ej: float
    Ecc: float
    ng: float = 0.0

    def __post_init__(self):
        if not (0 < self.Ej < math.inf and 0 < self.Ecc < math.inf and math.isfinite(self.ng)):
            raise DomainError("Cooper-pair-box energies Ej and Ecc must be finite and "
                              "positive, and the gate charge ng finite")


@dataclass(frozen=True)
class NonHermitianSSHParams:
    t1: float
    t2: float
    gamma: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.t1, self.t2, self.gamma)):
            raise DomainError("non-Hermitian SSH parameters must be finite")

    def gap_closing_couplings(self) -> Tuple[float, float, float, float]:
        """The PBC gap-closing values of t2 at fixed t1 and gamma, sorted: t1 +- |gamma|/2
        (at k = 0) and -t1 +- |gamma|/2 (at k = +-pi)."""
        half = 0.5 * abs(self.gamma)
        return tuple(sorted((self.t1 - half, self.t1 + half, -self.t1 - half, -self.t1 + half)))


Rows = Tuple[Tuple[float, float, float], ...]


def _zero(x) -> bool:
    """Whether a coefficient is the number 0; an array of node values never is."""
    return not isinstance(x, np.ndarray) and x == 0


def _real(rows: Rows) -> Rows:
    """The rows, if real; complex rows, as the lossy chain's, are a DomainError."""
    if np.result_type(*rows[0], *rows[1], *rows[2]).kind == "c":
        raise DomainError("complex Bloch rows: a non-Hermitian model has no real d(k)")
    return rows


def _bloch_sum(rows: Rows, k) -> np.ndarray:
    """a + b cos k + c sin k for the rows (a, b, c), one component at a time.

    A coefficient is a number or an array of one value per k; zero terms are
    skipped.  Where a and b are both nonzero the first two terms are summed as
    (a + b) - 2 b sin^2(k/2), which does not cancel beside k = 0 when a is
    close to -b, as at the SSH transition; where a is 0 they are b cos k.  Complex
    rows, as the lossy chain's, are a DomainError: a Hermitian d is real.
    """
    k = np.asarray(k, dtype=float)
    d = np.zeros((3,) + k.shape)
    for i, (a_i, b_i, c_i) in enumerate(zip(*_real(rows))):
        if _zero(b_i):
            if not _zero(a_i):
                d[i] = a_i
        elif _zero(a_i):
            d[i] = b_i * np.cos(k)
        else:
            d[i] = (a_i + b_i) - 2.0 * b_i * np.sin(0.5 * k) ** 2
            if isinstance(a_i, np.ndarray) and np.count_nonzero(a_i) < a_i.size:
                d[i] = np.where(a_i != 0, d[i], b_i * np.cos(k))
        if not _zero(c_i):
            d[i] += c_i * np.sin(k)
    return d


def trig_sum(rows: Rows, cos, sin) -> Iterator:
    """Yields a + b cos k + c sin k per component of the rows (a, b, c), from a shared
    cos k and sin k; the cos and sin terms whose coefficient is ``_zero`` are skipped."""
    for a, b, c in zip(*rows):
        if not _zero(b):
            a = a + b * cos
        if not _zero(c):
            a = a + c * sin
        yield a


def _ssh_rows(t1: float, t2: float, a_z=0.0) -> Rows:
    """d(k) = (t1 - t2 cos k, 0, t2 sin k + a_z); the lossy chain (R1, 0, R3) has i gamma/2."""
    return (t1, 0.0, a_z), (-t2, 0.0, 0.0), (0.0, 0.0, t2)


@dataclass(frozen=True)
class ModelEntry:
    """Everything sweeps and the command line know about one model family.

    ``parameters`` names the sweepable parameters, the family's own one
    first.  A family is defined by ``rows``: its params as keywords -> the
    rows (a, b, c) of d(k) = a + b cos k + c sin k, each a 3-vector and each
    affine in every sweepable parameter.  ``rotated`` tells whether d is
    stored in the rotated basis, where d_x - i d_z is the off-diagonal Bloch
    element.
    """

    name: str
    params_type: type
    defaults: Mapping[str, float]
    parameters: Tuple[str, ...]
    rows: Callable[..., Rows]
    rotated: bool = False

    @cached_property
    def hermitian(self) -> bool:
        """Whether the rows are real, as a Hermitian d is; evaluated once per entry."""
        return np.isrealobj(self.rows(**self.defaults))

    def values(self, fixed: Mapping[str, float]) -> Dict[str, float]:
        """The defaults overridden by ``fixed``; an unknown key is a SpecError."""
        unknown = set(fixed) - set(self.defaults)
        if unknown:
            raise SpecError(f"unknown fixed parameters {sorted(unknown)} for {self.name!r}")
        return {**self.defaults, **{k: float(v) for k, v in fixed.items()}}

    def params(self, fixed: Mapping[str, float]):
        """The params at the defaults overridden by ``fixed``; out of domain is a SpecError."""
        try:
            return self.params_type(**self.values(fixed))
        except DomainError as exc:
            raise SpecError(str(exc)) from None

    def model(self, fixed: Mapping[str, float], parameter: Optional[str] = None) -> TwoBandModel:
        """The family swept in ``parameter``, one of ``parameters`` (by default the first).

        d(d)/d(lambda) is the difference of the rows at lambda = 1 and 0,
        exact because the rows are affine in every sweepable parameter.
        """
        parameter = parameter or self.parameters[0]
        if parameter not in self.parameters:
            raise DomainError(f"{self.name!r} is swept in {self.parameters}, not {parameter!r}")
        values = vars(self.params(fixed))
        rows = lambda lam: self.rows(**{**values, parameter: lam})
        slope = tuple(tuple(p - q for p, q in zip(one, zero))
                      for one, zero in zip(rows(1.0), rows(0.0)))
        return TwoBandModel(rows, lambda lam: slope, values[parameter], self.rotated, self.name)


# The model families by name.  The Hermitian defaults sit at gapped values,
# so point commands without --set are well defined.
MODELS: Dict[str, ModelEntry] = {entry.name: entry for entry in (
    ModelEntry("ssh", SSHParams, {"t1": 1.0, "t2": 2.0}, ("t2", "t1"), _ssh_rows, rotated=True),
    ModelEntry("massive-dirac", MassiveDiracParams, {"t": 1.0, "mu": 1.0}, ("mu",),
               lambda t, mu: ((0.0, 0.0, mu), (0.0, 0.0, 0.0), (t, 0.0, 0.0))),
    ModelEntry("dual-ssh", DualSSHParams, {"t": 1.0, "r": 2.0}, ("r",),
               lambda t, r: _ssh_rows(t, r * t), rotated=True),
    ModelEntry("cooper-pair-box", CooperPairBoxParams, {"Ej": 1.0, "Ecc": 1.0, "ng": 0.0},
               ("ng",), lambda Ej, Ecc, ng: ((0.0, 0.0, 0.5 * Ecc * (1.0 - 2.0 * ng)),
                                            (-Ej, 0.0, 0.0), (0.0, 0.0, 0.0))),
    ModelEntry("nh-ssh", NonHermitianSSHParams, {"t1": 1.0, "t2": 1.0, "gamma": 0.0},
               ("t2", "gamma"), lambda t1, t2, gamma: _ssh_rows(t1, t2, 0.5j * gamma)),
)}


def ssh_model(params: SSHParams) -> TwoBandModel:
    """d(k) = (t1 - t2 cos k, 0, t2 sin k), swept in t2."""
    return MODELS["ssh"].model(vars(params))


def massive_dirac_model(params: MassiveDiracParams) -> TwoBandModel:
    """d(k) = (t sin k, 0, mu), swept in mu."""
    return MODELS["massive-dirac"].model(vars(params))


def dual_pair(params: DualSSHParams) -> Tuple[TwoBandModel, TwoBandModel]:
    """The two dual families: couplings (t, r*t) and (t, t/r), each swept in r.

    Both are ordinary SSH chains; family II carries 1/r where family I carries
    r, so the two coincide componentwise at the self-dual point r = 1.
    """
    t = params.t
    model_i = MODELS["dual-ssh"].model(vars(params))
    return model_i, replace(model_i, rows=lambda r: _ssh_rows(t, t / r),
                            slope=lambda r: _ssh_rows(0.0, -t / r ** 2), label="dual-ssh-II")


def cooper_pair_box_model(params: CooperPairBoxParams) -> TwoBandModel:
    """Massive-Dirac-form model in the flux angle k = pi * Phi/Phi0, swept in ng.

    d(k) = (-Ej cos k, 0, Ecc (1 - 2 ng) / 2); the flux ratio spans [-1, 1]
    with period 2, and the gap closes at ng = 1/2, Phi = Phi0/2.
    """
    return MODELS["cooper-pair-box"].model(vars(params))


def nh_ssh_bloch_hamiltonian(params: NonHermitianSSHParams, k: float) -> np.ndarray:
    """Complex-symmetric Bloch matrix [[R3, R1], [R1, -R3]] of the lossy chain.

    R1 and R3 come from its rows in ``MODELS``; the eigenvalues are +-R with
    R^2 = R1^2 + R3^2, vanishing at the exceptional points.
    """
    r1, _, r3 = trig_sum(MODELS["nh-ssh"].rows(**vars(params)), math.cos(k), math.sin(k))
    return np.array([[r3, r1], [r1, -r3]], dtype=complex)
