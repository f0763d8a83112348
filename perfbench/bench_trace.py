"""Outside-in tracer for the twoband layers.

The tracer never edits the library.  ``install`` replaces every public
function of each ``twoband`` module with a timing wrapper and rebinds every
name in ``twoband.*`` that *is* one of those functions (so ``from .quadrature
import bz_average`` inside ``complexity`` is traced too); it also patches
``TwoBandModel.d`` and ``TwoBandModel.d_deriv``.  ``uninstall`` restores the
originals.  Functions named in ``REQUIRED`` feed specific counters; if one of
them no longer exists, ``install`` raises instead of reporting zeros.

Spans nest on one stack: a layer's self time is its inclusive time minus the
time of the spans it called.  Integrands handed to ``bz_average`` and
``bz_average_vec`` are wrapped as spans of the layer that called the
quadrature, so per-mode kernel arithmetic counts toward that layer (for
example ``complexity``) and ``quadrature.self_s`` is the integrator's own
bookkeeping.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Layers in stack order, bottom to top; each is a twoband module.
LAYERS = ("special_functions", "bloch", "models", "quadrature", "complexity",
          "fidelity", "bounds_duality", "topology", "nonhermitian", "sweeps",
          "cli")

# Functions whose calls drive named counters.  A missing one is an error.
REQUIRED = {
    "quadrature": ("bz_average", "bz_average_vec", "param_derivative"),
    "complexity": ("ground_complexity", "ssh_complexity_closed",
                   "md_complexity_closed", "md_dC_dmu_analytic"),
    "fidelity": ("chi_F", "chi_F_ssh_closed", "chi_F_md_closed",
                 "chi_F_md_z_closed"),
    "bounds_duality": ("bound_check", "ratio_R", "ratio_complexity",
                       "ratio_complexity_prime", "complexity_duality_offset",
                       "complexity_duality_offset_prime", "self_dual_constraint"),
    "special_functions": ("complete_K", "complete_E", "incomplete_E"),
    "topology": ("winding_log_derivative", "winding_cross_product"),
    "nonhermitian": ("nh_ground_complexity", "nh_complexity_per_mode",
                     "detect_cusps"),
    "sweeps": ("run_sweep",),
    "cli": ("main",),
}

CLOSED_COMPLEXITY = frozenset(("ssh_complexity_closed", "md_complexity_closed",
                               "md_dC_dmu_analytic", "excited_split_closed",
                               "ssh_dC_dt2_asymptotic"))

# (metric name, unit) in report order; every one is printed for every workload.
METRICS = (
    ("quadrature.averages", "count"),
    ("quadrature.integrand_calls", "count"),
    ("quadrature.integrand_points", "count"),
    ("quadrature.points_per_average", "count"),
    ("quadrature.integrand_s", "s"),
    ("quadrature.self_s", "s"),
    ("quadrature.fd_derivatives", "count"),
    ("quadrature.convergence_errors", "count"),
    ("models.d_calls", "count"),
    ("models.d_points", "count"),
    ("models.self_s", "s"),
    ("complexity.calls", "count"),
    ("complexity.closed_calls", "count"),
    ("complexity.self_s", "s"),
    ("fidelity.calls", "count"),
    ("fidelity.diverged", "count"),
    ("fidelity.diverged_s", "s"),
    ("fidelity.self_s", "s"),
    ("bounds_duality.calls", "count"),
    ("bounds_duality.self_s", "s"),
    ("special_functions.calls", "count"),
    ("special_functions.self_s", "s"),
    ("nonhermitian.calls", "count"),
    ("nonhermitian.per_mode_calls", "count"),
    ("nonhermitian.ep_rescues", "count"),
    ("nonhermitian.self_s", "s"),
    ("topology.calls", "count"),
    ("topology.self_s", "s"),
    ("sweeps.rows", "count"),
    ("sweeps.rows_flagged", "count"),
    ("sweeps.self_s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Span stack, per-layer self time and counters for one traced run."""

    def __init__(self):
        self.stack = []  # frames: [layer, time spent in child spans]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.integrand_s = 0.0
        self.diverged_s = 0.0
        self._saved = []  # (owner, attribute, original) to restore

    # -- spans -------------------------------------------------------------
    def _span(self, layer, fn, args, kwargs, after=None):
        frame = [layer, 0.0]
        stack = self.stack
        stack.append(frame)
        t0 = time.perf_counter()
        result = None
        error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if after is not None:
                after(dt, args, result, error)

    def _wrap(self, layer, name, fn):
        after = self._hooks(layer, name)
        counts = self.counts
        span = self._span

        def traced(*args, **kwargs):
            counts[layer + ".calls"] += 1
            return span(layer, fn, args, kwargs, after)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_quadrature(self, name, fn):
        counts = self.counts
        span = self._span
        tracer = self

        def traced(f, *args, **kwargs):
            owner = tracer.stack[-1][0] if tracer.stack else "quadrature"
            counts["quadrature.averages"] += 1
            return span("quadrature", fn, (tracer._integrand(owner, f),) + args, kwargs,
                        tracer._count_convergence)

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _integrand(self, owner, f):
        tracer = self
        counts = self.counts

        def integrand(k):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_points"] += int(np.size(k))
            frame = [owner, 0.0]
            stack = tracer.stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return f(k)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.self_s[owner] += dt - frame[1]
                tracer.integrand_s += dt
                if stack:
                    stack[-1][1] += dt

        return integrand

    def _count_convergence(self, dt, args, result, error):
        from twoband.errors import ConvergenceError
        if isinstance(error, ConvergenceError):
            self.counts["quadrature.convergence_errors"] += 1

    # -- per-function counters ----------------------------------------------
    def _hooks(self, layer, name):
        counts = self.counts
        if layer == "quadrature" and name == "param_derivative":
            def after(dt, args, result, error):
                counts["quadrature.fd_derivatives"] += 1
            return after
        if layer == "complexity" and name in CLOSED_COMPLEXITY:
            def after(dt, args, result, error):
                counts["complexity.closed_calls"] += 1
            return after
        if layer == "fidelity" and name == "chi_F":
            def after(dt, args, result, error):
                if error is not None or getattr(result, "diverged", False):
                    counts["fidelity.diverged"] += 1
                    self.diverged_s += dt
            return after
        if layer == "nonhermitian" and name == "nh_complexity_per_mode":
            from twoband.errors import ExceptionalPointError

            def after(dt, args, result, error):
                counts["nonhermitian.per_mode_calls"] += 1
                if isinstance(error, ExceptionalPointError):
                    counts["nonhermitian.ep_rescues"] += 1
            return after
        if layer == "sweeps" and name == "run_sweep":
            def after(dt, args, result, error):
                if result is not None:
                    counts["sweeps.rows"] += len(result)
                    counts["sweeps.rows_flagged"] += sum(1 for rec in result if rec.flags)
            return after
        return None

    def _wrap_model_method(self, fn):
        counts = self.counts
        span = self._span

        def traced(model, k):
            counts["models.d_calls"] += 1
            counts["models.d_points"] += int(np.size(k))
            return span("models", fn, (model, k), {})

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module("twoband." + name) for name in LAYERS}
        for layer, names in REQUIRED.items():
            for name in names:
                if not inspect.isfunction(getattr(modules[layer], name, None)):
                    raise RuntimeError(f"traced function twoband.{layer}.{name} no longer exists")
        replacements = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "quadrature" and name in ("bz_average", "bz_average_vec"):
                    replacements[id(obj)] = (obj, self._wrap_quadrature(name, obj))
                else:
                    replacements[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twoband" or mod_name.startswith("twoband.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        model_cls = modules["models"].TwoBandModel
        for attr in ("d", "d_deriv"):
            original = model_cls.__dict__[attr]
            self._saved.append((model_cls, attr, original))
            setattr(model_cls, attr, self._wrap_model_method(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def metrics(self):
        c = self.counts
        averages = c["quadrature.averages"]
        values = {
            "quadrature.averages": averages,
            "quadrature.integrand_calls": c["quadrature.integrand_calls"],
            "quadrature.integrand_points": c["quadrature.integrand_points"],
            "quadrature.points_per_average":
                c["quadrature.integrand_points"] / averages if averages else 0.0,
            "quadrature.integrand_s": self.integrand_s,
            "quadrature.fd_derivatives": c["quadrature.fd_derivatives"],
            "quadrature.convergence_errors": c["quadrature.convergence_errors"],
            "models.d_calls": c["models.d_calls"],
            "models.d_points": c["models.d_points"],
            "complexity.closed_calls": c["complexity.closed_calls"],
            "fidelity.diverged": c["fidelity.diverged"],
            "fidelity.diverged_s": self.diverged_s,
            "nonhermitian.per_mode_calls": c["nonhermitian.per_mode_calls"],
            "nonhermitian.ep_rescues": c["nonhermitian.ep_rescues"],
            "sweeps.rows": c["sweeps.rows"],
            "sweeps.rows_flagged": c["sweeps.rows_flagged"],
        }
        for layer in ("complexity", "fidelity", "bounds_duality", "special_functions",
                      "nonhermitian", "topology"):
            values[layer + ".calls"] = c[layer + ".calls"]
        for layer in ("quadrature", "models", "complexity", "fidelity", "bounds_duality",
                      "special_functions", "nonhermitian", "topology", "sweeps", "cli"):
            values[layer + ".self_s"] = self.self_s[layer]
        return {name: (values[name], unit) for name, unit in METRICS}
