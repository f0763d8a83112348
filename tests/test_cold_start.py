"""Cold start: sweeps never load scipy, nor scipy.special or scipy.integrate.

The sweep path runs on Bloch vectors, numpy and the array engine
``bz_averages``.  scipy and its submodules load on first use: ``scipy.special``
(through ``scipy.special.cython_special``) for the elliptic closed forms,
``scipy.integrate`` for the QUADPACK oracles.
The check runs in a fresh interpreter, because the test session itself has
long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoband

_SRC = str(Path(twoband.__file__).resolve().parent.parent)

_CHILD = r"""
import contextlib, io, json, math, sys

def loaded():
    return sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules)

import twoband.cli
twoband.cli.build_parser()
out = {"after_import": loaded(), "scipy_after_import": "scipy" in sys.modules}

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(twoband.cli.main([
        "sweep", "--model", "ssh", "--set", "t1=1", "--sweep", "t2:0.5:1.5:3",
        "--quantities", "complexity,dcomplexity,chi_f,chi_f_components,bound,ratio,winding"]))
    codes.append(twoband.cli.main([
        "nh-sweep", "--set", "t1=2", "--set", "gamma=1", "--sweep", "t2:0.5:4:4",
        "--theta", "90", "--phi", "0", "--degrees"]))
out["codes"] = codes
out["after_sweeps"] = loaded()
out["scipy_after_sweeps"] = "scipy" in sys.modules

from twoband import bz_average, complete_K, complete_K_quadrature, incomplete_E
out["K"] = complete_K(0.5)
out["E_inc"] = incomplete_E(0.7, 0.4)
out["C"] = twoband.ssh_complexity_closed(twoband.SSHParams(1.0, 1.7),
                                         twoband.GlobalReference(0.9, 0.4))
out["after_closed_forms"] = loaded()
from scipy.special import cython_special
import twoband.special_functions as sf
out["rebound"] = [getattr(sf, "_" + name, None) is getattr(cython_special, name)
                  for name in ("ellipkm1", "ellipe", "ellipeinc")]
out["K_quad"] = complete_K_quadrature(0.5)
out["bz"] = bz_average(lambda k: 1.0 / (2.0 - math.cos(k)))
out["after_oracles"] = loaded()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_parser_load_neither_submodule(child):
    assert child["after_import"] == []


def test_import_and_parser_load_no_scipy(child):
    assert child["scipy_after_import"] is False


def test_sweeps_of_every_quantity_load_neither_submodule(child):
    assert child["codes"] == [0, 0]
    assert child["after_sweeps"] == []


def test_sweeps_of_every_quantity_load_no_scipy(child):
    assert child["scipy_after_sweeps"] is False


def test_closed_forms_load_special_only(child):
    assert child["after_closed_forms"] == ["scipy.special"]
    # after a call that uses each, later calls go straight to the Cephes kernels
    assert child["rebound"] == [True, True, True]
    # K(1/2) = Gamma(1/4)^2 / (4 sqrt(pi)); E(0.7 | 0.4) from mpmath at 30 digits
    assert child["K"] == pytest.approx(1.8540746773013719184, rel=1e-15)
    assert child["E_inc"] == pytest.approx(0.67870535600337452814, rel=1e-15)
    # ssh_complexity_closed at (t1, t2) = (1, 1.7), reference (0.9, 0.4), from mpmath
    assert child["C"] == pytest.approx(0.61142357479750600346, rel=1e-15)


def test_oracles_load_integrate_and_agree(child):
    assert child["after_oracles"] == ["scipy.integrate", "scipy.special"]
    assert child["K_quad"] == pytest.approx(1.8540746773013719184, rel=1e-13)
    # (1/2pi) * integral of dk / (2 - cos k) = 1/sqrt(3)
    assert child["bz"] == pytest.approx(3.0 ** -0.5, rel=1e-12)
