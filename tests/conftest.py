"""Fixtures shared by the test modules."""

import math
import sys
from collections import Counter
from typing import NamedTuple, Optional

import numpy as np
import pytest

from twoband import quadrature
from twoband.fidelity import SusceptibilityBreakdown, _totals


class Row(NamedTuple):
    """One row of a ``fidelity._Averages`` record; a field not asked for is None."""
    complexity: Optional[float]
    dcomplexity: Optional[float]
    integrals: Optional[np.ndarray]  # per axis; None on a closed gap
    chi: Optional[SusceptibilityBreakdown]
    closed: bool = False
    winding: Optional[float] = None


def rows_of(avg) -> list:
    """The rows of a Hermitian ``fidelity._Averages`` record, in order."""
    column = lambda values: [None] * len(avg.closed) if values is None else values
    ints = [None if x is None else np.array([x, y, z]) for x, y, z in zip(*map(column, avg[2:5]))]
    chi = avg.diverged and avg.diverged[0] is not None
    chis = [SusceptibilityBreakdown(total, axes, diverged) if chi else None for total, axes,
            diverged in zip(column(_totals(avg) if chi else None), zip(*map(column, avg[5:8])),
                            column(avg.diverged))]
    return [Row(*row) for row in zip(column(avg.complexity), column(avg.dcomplexity), ints,
                                     chis, avg.closed, column(avg.winding))]


@pytest.fixture
def calls(monkeypatch):
    """Calls of the quadrature engine and of finite-difference derivatives, by
    function name, and under "averages" the number of owners the engine runs
    (``bz_average_vec`` is a one-owner run)."""
    counts = Counter()
    for name in ("bz_averages", "bz_average_vec", "param_derivative"):
        original = getattr(quadrature, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            if _name == "bz_averages":
                counts["averages"] += len(args[1])
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("twoband") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def skew(monkeypatch):
    """The name of a planar family registered for the test whose contour zeros are not on
    one line through 0, so its rows stay on the quadrature engine: d_x - i d_z = p(z) / z
    with p = (z - lam e^{0.3 i})(z - 3i).  Its gap closes at lam = 1, at k = 0.3."""
    from types import SimpleNamespace

    from twoband import models

    def rows(lam):
        z1 = lam * complex(math.cos(0.3), math.sin(0.3))
        p0, p1 = 3j * z1, -(z1 + 3j)  # and p2 = 1
        b, c = p0 + 1.0, -1j * (p0 - 1.0)
        return tuple((x.real, 0.0, -x.imag) for x in (p1, b, c))

    monkeypatch.setitem(models.MODELS, "skew", models.ModelEntry(
        "skew", SimpleNamespace, {"lam": 2.0}, ("lam",), rows))
    return "skew"
