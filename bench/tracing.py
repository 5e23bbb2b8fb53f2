"""Span tracing around calls into sympwave's layers, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper on
every module attribute and class that binds it (``integrate_panels`` is bound
in ``_quad``, ``wave_kernel``, ``model_integral`` and ``stationary_phase``),
and ``uninstall`` puts the originals back.  A wrapper records one span per
call -- layer, start, end and the enclosing span -- in memory; spans are
written out only at the end of the run.  A layer's self time is its span
duration minus the time covered by its child spans.

``AccuracyWarning``s are counted against the innermost open span, so
``_quad.integrate_panels.capped`` counts refinements that hit their order cap.
"""

from __future__ import annotations

import sys
import time
import warnings
from array import array

import numpy as np

# per-layer metric names (sympwave.<module>.<function>.<stat>), in BENCHMARK.json
# order; unit and direction beside
LAYER_METRICS = [
    ("sympwave._quad.FilonPanels.integrate.calls", "count", "lower"),
    ("sympwave._quad.FilonPanels.integrate.freqs", "count", "lower"),
    ("sympwave._quad.FilonPanels.integrate.self_s", "s", "lower"),
    ("sympwave._quad.FilonPanels.integrate.per_value", "count", "lower"),
    ("sympwave._quad._bessel_moments.points", "count", "lower"),
    ("sympwave._quad._bessel_moments.self_s", "s", "lower"),
    ("sympwave._quad.FilonPanels.build.calls", "count", "lower"),
    ("sympwave._quad.FilonPanels.build.self_s", "s", "lower"),
    ("sympwave._quad.FilonPanels.build.panels_per_build", "count", "lower"),
    ("sympwave._quad.integrate_panels.calls", "count", "lower"),
    ("sympwave._quad.integrate_panels.evals", "count", "lower"),
    ("sympwave._quad.integrate_panels.capped", "count", "lower"),
    ("sympwave._quad.integrate_panels.self_s", "s", "lower"),
    ("sympwave._quad.filon_chebyshev.calls", "count", "lower"),
    ("sympwave._quad.filon_chebyshev.self_s", "s", "lower"),
    ("sympwave.wave_kernel.KernelEvaluator.build.self_s", "s", "lower"),
    ("sympwave.wave_kernel.KernelEvaluator.value.calls", "count", "lower"),
    ("sympwave.wave_kernel.KernelEvaluator.value.self_s", "s", "lower"),
    ("sympwave.wave_kernel.KernelEvaluator.value.p50_ms", "ms", "lower"),
    ("sympwave.wave_kernel.KernelEvaluator.value.p90_ms", "ms", "lower"),
    ("sympwave.wave_kernel.phi_rank1.calls", "count", "lower"),
    ("sympwave.wave_kernel.phi_rank1.points", "count", "higher"),
    ("sympwave.wave_kernel.phi_rank1.self_s", "s", "lower"),
    ("sympwave.wave_kernel.dispersive_bound.self_s", "s", "lower"),
    ("sympwave.wave_kernel.dispersive_bound.values_per_bound", "count", "lower"),
    ("sympwave.profiles.SmoothCutoff.jet.calls", "count", "lower"),
    ("sympwave.profiles.SmoothCutoff.jet.self_s", "s", "lower"),
    ("sympwave.stationary_phase.k_n.calls", "count", "lower"),
    ("sympwave.stationary_phase.k_n.points", "count", "higher"),
    ("sympwave.stationary_phase.k_n.self_s", "s", "lower"),
    ("sympwave.model_integral.QFamily.build.self_s", "s", "lower"),
    ("sympwave.model_integral.QFamily.build.degree_max", "count", "lower"),
    ("sympwave.model_integral.d_r.points", "count", "lower"),
    ("sympwave.model_integral.d_r.self_s", "s", "lower"),
    ("sympwave.model_integral.xi_decompose.self_s", "s", "lower"),
    ("sympwave.model_integral.xi_direct.self_s", "s", "lower"),
    ("sympwave.stationary_phase.amplitude_data.self_s", "s", "lower"),
    ("sympwave.stationary_phase.expand.self_s", "s", "lower"),
    ("sympwave.stationary_phase.oracle.self_s", "s", "lower"),
    ("sympwave.harness.run_sweep.rows", "count", "higher"),
    ("sympwave.harness.run_sweep.self_s", "s", "lower"),
    ("sympwave.gamma.log_gamma.calls", "count", "lower"),
    ("sympwave.gamma.log_gamma.points", "count", "higher"),
    ("sympwave.gamma.log_gamma.self_s", "s", "lower"),
    ("sympwave.plancherel.CFunction.density.calls", "count", "lower"),
    ("sympwave.plancherel.CFunction.density.points", "count", "higher"),
    ("sympwave.plancherel.CFunction.density.self_s", "s", "lower"),
    ("sympwave.profiles.Profile.eval.points", "count", "higher"),
    ("sympwave.profiles.Profile.eval.self_s", "s", "lower"),
    ("sympwave.harness.emit.bytes", "count", "lower"),
    ("sympwave.harness.emit.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _size(x):
    return int(np.size(x))


def _panels(args, kwargs, result):
    return {"panels": len(args[0].mid)}


def _degree(args, kwargs, result):
    return {"degree_max": len(args[0].proxy_u.coef) - 1}


def _emitted_bytes(args, kwargs, result):
    import os
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return {"bytes": os.path.getsize(path)}


# traced layers, named <module>.<function> or <module>.<class>.<method> ("build"
# stands for __init__), with the extra stats each call adds
LAYERS = {
    "_quad.FilonPanels.integrate": lambda a, k, r: {"freqs": _size(a[1])},
    "_quad._bessel_moments": lambda a, k, r: {"points": _size(a[0])},
    "_quad.FilonPanels.build": _panels,
    "_quad.integrate_panels": None,
    "_quad.filon_chebyshev": None,
    "wave_kernel.KernelEvaluator.build": None,
    "wave_kernel.KernelEvaluator.value": None,
    "wave_kernel.phi_rank1": lambda a, k, r: {"points": _size(a[1])},
    "wave_kernel.dispersive_bound": None,
    "profiles.SmoothCutoff.jet": None,
    "stationary_phase.k_n": lambda a, k, r: {"points": _size(a[1])},
    "model_integral.QFamily.build": _degree,
    "model_integral.d_r": lambda a, k, r: {"points": _size(a[3])},
    "model_integral.xi_decompose": None,
    "model_integral.xi_direct": None,
    "stationary_phase.amplitude_data": None,
    "stationary_phase.expand": None,
    "stationary_phase.oracle": None,
    "harness.run_sweep": lambda a, k, r: {"rows": len(r)},
    "gamma.log_gamma": lambda a, k, r: {"points": _size(a[0])},
    "plancherel.CFunction.density": lambda a, k, r: {"points": _size(r)},
    "profiles.Profile.eval": lambda a, k, r: {"points": _size(a[2])},
    "harness.emit": _emitted_bytes,
}


class WarningCounter:
    """Counts AccuracyWarnings by layer without printing them.

    Active in traced and untraced runs alike, so both see the same warnings
    filter; ``tracer`` attributes each warning to its innermost open span.
    """

    def __init__(self):
        self.total = 0
        self.tracer = None

    def __enter__(self):
        from sympwave._quad import AccuracyWarning
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always", AccuracyWarning)
        self._category = AccuracyWarning
        self._prev = warnings.showwarning
        warnings.showwarning = self._show
        return self

    def _show(self, message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, self._category):
            return self._prev(message, category, filename, lineno, file, line)
        self.total += 1
        if self.tracer is not None and self.tracer.stack:
            self.tracer.warned(self.tracer.stack[-1][0])

    def __exit__(self, *exc):
        warnings.showwarning = self._prev
        self._ctx.__exit__(*exc)


class Tracer:
    def __init__(self):
        self.names = []            # layer name per layer id
        self.layer_id = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []            # [layer id, start, child time, span index]
        self.calls = {}
        self.self_s = {}
        self.incl = {}             # inclusive durations per layer (for percentiles)
        self.counts = {}           # layer -> {stat: total}
        self.warnings = {}
        self._installed = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _id(self, layer):
        if layer not in self.layer_id:
            self.layer_id[layer] = len(self.names)
            self.names.append(layer)
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
            self.incl[layer] = []
            self.counts[layer] = {}
        return self.layer_id[layer]

    def warned(self, layer_id):
        name = self.names[layer_id]
        self.warnings[name] = self.warnings.get(name, 0) + 1

    def wrap(self, layer, fn, counter):
        lid = self._id(layer)
        stack = self.stack
        clock = time.perf_counter
        counts = self.counts[layer]
        count_evals = layer == "_quad.integrate_panels"

        def wrapper(*args, **kwargs):
            if count_evals:
                f = args[0]
                def counted(x, f=f):
                    counts["evals"] = counts.get("evals", 0) + int(np.size(x))
                    return f(x)
                args = (counted,) + args[1:]
            idx = len(self.span_start)
            parent = stack[-1][3] if stack else -1
            self.span_layer.append(lid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [lid, clock(), 0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.span_start[idx] = frame[1]
                self.span_end[idx] = end
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[2]
                self.incl[layer].append(dur)
                if stack:
                    stack[-1][2] += dur
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import sympwave  # noqa: F401  (loads every module that binds a layer)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sympwave" or name.startswith("sympwave."))]
        for layer, counter in LAYERS.items():
            modname, *clsname, attr = layer.split(".")
            owner_mod = sys.modules[f"sympwave.{modname}"]
            if clsname:
                cls = getattr(owner_mod, clsname[0])
                attr = "__init__" if attr == "build" else attr
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self.wrap(layer, original, counter))
                continue
            original = getattr(owner_mod, attr)
            wrapper = self.wrap(layer, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, value_calls_in_bounds=None):
        """Per-layer metric values keyed by the names in LAYER_METRICS."""
        out = {}
        for layer in self.names:
            out[f"{layer}.calls"] = float(self.calls[layer])
            out[f"{layer}.self_s"] = self.self_s[layer]
            for key, val in self.counts[layer].items():
                out[f"{layer}.{key}"] = float(val)
        value = "wave_kernel.KernelEvaluator.value"
        durs = np.array(self.incl.get(value, []))
        out[f"{value}.p50_ms"] = float(np.percentile(durs, 50) * 1e3) if len(durs) else 0.0
        out[f"{value}.p90_ms"] = float(np.percentile(durs, 90) * 1e3) if len(durs) else 0.0
        integ = "_quad.FilonPanels.integrate"
        nvalues = self.calls.get(value, 0)
        out[f"{integ}.per_value"] = (self._calls_under(integ, value) / nvalues
                                     if nvalues else 0.0)
        build = "_quad.FilonPanels.build"
        nbuild = self.calls.get(build, 0)
        out[f"{build}.panels_per_build"] = (self.counts[build].get("panels", 0) / nbuild
                                            if nbuild else 0.0)
        bound = "wave_kernel.dispersive_bound"
        nbound = self.calls.get(bound, 0)
        out[f"{bound}.values_per_bound"] = (self._calls_under(value, bound) / nbound
                                            if nbound else 0.0)
        out["_quad.integrate_panels.capped"] = float(
            self.warnings.get("_quad.integrate_panels", 0))
        return {f"sympwave.{key}": value for key, value in out.items()}

    def _calls_under(self, inner, outer):
        """Spans of layer ``inner`` that have a span of ``outer`` among their ancestors."""
        if inner not in self.layer_id or outer not in self.layer_id:
            return 0
        li, lo = self.layer_id[inner], self.layer_id[outer]
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        under = layer == lo
        # spans are appended at entry, so a parent's index is below its child's
        for i in range(len(layer)):
            p = parent[i]
            if p >= 0 and under[p]:
                under[i] = True
        return int(np.sum(under & (layer == li)))

    def save(self, path):
        """Write every span (layer name, start, end, parent index) to ``path``."""
        np.savez_compressed(
            path, layers=np.array(self.names),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
