"""Fixtures shared by the test modules."""

import sys
from collections import Counter

import pytest

from twoband import quadrature


@pytest.fixture
def calls(monkeypatch):
    """Counts of BZ averages and finite-difference derivatives, by function name."""
    counts = Counter()
    for name in ("bz_average_vec", "param_derivative"):
        original = getattr(quadrature, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("twoband") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts
