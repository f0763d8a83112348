"""Fixtures shared by the test modules."""

import sys
from collections import Counter

import pytest

from twoband import quadrature


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
