"""Per-layer tracing of spherehhd from outside the package.

The tracer replaces module attributes and class methods of the imported
package with timing wrappers, and restores the originals on ``uninstall``.
It never edits the package's files.  Only the names that exist at the
measured commit are wrapped, so a layer whose functions were deleted or
renamed reports 0 calls instead of failing.

Every wrapped call counts toward its layer.  Time is kept at the outermost
call of a layer (a layer calling itself adds no time twice):

* inclusive time ``incl`` -- wall time of the call;
* self time ``own`` -- inclusive time minus the wrapped calls of other
  layers made inside it.

Self time is also kept per root layer (the outermost wrapped call on the
stack), so the time of one ``decompose`` can be split over its layers.
"""

import importlib
import os
import sys
from collections import Counter, defaultdict
from functools import update_wrapper
from time import perf_counter

PACKAGE = "spherehhd"

# layer -> (module, attribute or Class.method) of the package
LAYERS = {
    "recurrences": [
        ("recurrences", name)
        for name in ("alpha", "beta", "gamma", "delta", "chol_d", "chol_e", "chol_f")
    ],
    "operators.build": [
        ("operators", "build_A"),
        ("operators", "build_B"),
        ("operators", "build_order_system"),
    ],
    "operators.convert": [
        ("operators", "z_to_cscy"),
        ("operators", "cscy_to_z"),
        ("operators", "_cscy_to_z_multi"),
    ],
    "operators.matvec": [("operators", "BandedMatrix.matvec")],
    "solver.factor": [("solver", "factor_order"), ("solver", "factor_order_zero")],
    "solver.cache": [("solver", "FactorCache.factorization")],
    "solver.solve": [("solver", "solve_order")],
    "solver.decompose": [("solver", "decompose")],
    "solver.differentiate": [("solver", "differentiate")],
    "spectra.slice": [
        ("spectra", "ScalarSpectrum.order_slice"),
        ("spectra", "ScalarSpectrum.set_order_slice"),
    ],
    "spectra.read": [("spectra", "read_spectrum")],
    "spectra.write": [("spectra", "write_spectrum")],
    "cli": [("cli", "main")],
}


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_values(tracer, args, result, factor_calls_before):
    tracer.counts["recurrences.values"] += int(getattr(result, "size", 1))


def _count_rotations(tracer, args, result, factor_calls_before):
    tracer.counts["solver.rotations"] += int(getattr(result, "rotation_count", 0))


def _count_cache(tracer, args, result, factor_calls_before):
    missed = tracer.counts["solver.factor.calls"] > factor_calls_before
    tracer.counts["solver.cache.misses" if missed else "solver.cache.hits"] += 1


def _count_read(tracer, args, result, factor_calls_before):
    tracer.counts["spectra.bytes_read"] += _file_size(args[0] if args else None)


def _count_written(tracer, args, result, factor_calls_before):
    tracer.counts["spectra.bytes_written"] += _file_size(args[1] if len(args) > 1 else None)


_ON_RETURN = {
    "recurrences": _count_values,
    "solver.factor": _count_rotations,
    "solver.cache": _count_cache,
    "spectra.read": _count_read,
    "spectra.write": _count_written,
}


class Tracer:
    """Counts, inclusive and self times per layer of the imported package."""

    def __init__(self):
        self.counts = Counter()  # "<layer>.calls" and the extra counts above
        self.incl = defaultdict(float)
        self.own = defaultdict(float)  # self time
        self.own_by_root = defaultdict(float)  # (root layer, layer) -> seconds
        self.wrapped = Counter()  # layer -> number of names wrapped
        self._stack = []  # frames [layer, child seconds]
        self._undo = []

    def _wrap(self, layer, fn):
        stack = self._stack
        counts = self.counts
        calls_key = layer + ".calls"
        on_return = _ON_RETURN.get(layer)

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            factor_calls_before = counts["solver.factor.calls"]
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    own = dt - frame[1]
                    self.incl[layer] += dt
                    self.own[layer] += own
                    root = stack[0][0] if stack else layer
                    self.own_by_root[root, layer] += own
                    if stack:
                        stack[-1][1] += dt
            if on_return is not None:
                on_return(self, args, result, factor_calls_before)
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        """Wrap every listed name that exists in the imported package."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    continue
                if "." in attr:
                    self._wrap_method(layer, module, attr)
                else:
                    self._wrap_function(layer, module, attr, modules)

    def _wrap_function(self, layer, module, attr, modules):
        original = getattr(module, attr, None)
        if not callable(original):
            return
        wrapper = self._wrap(layer, original)
        # rebind every reference the package holds, e.g. names imported
        # with ``from .operators import z_to_cscy``
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
        self.wrapped[layer] += 1

    def _wrap_method(self, layer, module, attr):
        class_name, method = attr.split(".")
        cls = getattr(module, class_name, None)
        owner = next((k for k in getattr(cls, "__mro__", ()) if method in vars(k)), None)
        if owner is None or not callable(vars(owner)[method]):
            return
        original = vars(owner)[method]
        setattr(owner, method, self._wrap(layer, original))
        self._undo.append((owner, method, original))
        self.wrapped[layer] += 1

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def snapshot(self):
        """Counts and times so far, as one flat dict."""
        out = dict(self.counts)
        for layer in LAYERS:
            out.setdefault(layer + ".calls", 0)
            out[layer + ".s"] = self.incl[layer]
            out[layer + ".self_s"] = self.own[layer]
        return out
