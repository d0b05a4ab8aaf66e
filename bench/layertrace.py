"""Outside-in layer tracer: timing wrappers on the calls into each polyheat layer.

The wrappers live in the benchmark, not the package.  ``install_fft`` wraps
every numpy.fft and scipy.fft transform entry point and must run before
polyheat is imported, so that a module doing ``from numpy.fft import rfftn``
at import time still binds the wrapper.  ``install_layers`` runs after the
import and replaces each layer's boundary function at every polyheat module
attribute bound to it (``reg_coefficient`` is bound in ``degeneracy`` and
``solver``; ``solve`` in ``solver``, ``homotopy`` and ``cli``).  A named
function that no longer exists aborts the run instead of leaving that layer
silently unmeasured.

Spans (name, parent, start, end, counters) are kept in memory while the
tracer is active and summarized per repetition; ``write_spans`` dumps the
last repetition's spans at the end.  A layer's self time is its span's
duration minus the durations of its child spans.  One span stack serves the
whole process, which is exact while layer calls never overlap in time, as
in a single-worker sweep; overlapping spans from two threads abort the run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from time import perf_counter

FFT_LAYER = "gridfield.fft"

# span name -> (defining module, boundary functions)
LAYER_FUNCTIONS = {
    "gridfield.guard": ("polyheat.gridfield", ("assert_boundary_decay", "spectral_tail_fraction")),
    "gridfield.phf1": ("polyheat.gridfield", ("write_phf1",)),
    "bessel.besselj": ("polyheat.bessel", ("besselj",)),
    "kernel.profile_bessel": ("polyheat.kernel", ("profile_bessel",)),
    "kernel.decay_fit": ("polyheat.kernel", ("decay_fit",)),
    "kernel.phe_solve": ("polyheat.kernel", ("phe_solve",)),
    "degeneracy.coef": ("polyheat.degeneracy", ("reg_coefficient",)),
    "solver.solve": ("polyheat.solver", ("solve",)),
    "homotopy.sweep": ("polyheat.homotopy", ("sweep",)),
    "homotopy.correction_phi": ("polyheat.homotopy", ("correction_phi",)),
    "homotopy.linear_trajectory": ("polyheat.homotopy", ("linear_trajectory",)),
    "cli.run": ("polyheat.cli", ("run",)),
}

LAYERS = (FFT_LAYER,) + tuple(LAYER_FUNCTIONS)

# numpy.fft / scipy.fft transforms: fft, ifft, rfft, irfft and their 2/n forms
_FFT_NAME = re.compile(r"^i?r?fft[2n]?$")
_FFT_REQUIRED = {f"{p}{s}" for p in ("fft", "ifft", "rfft", "irfft") for s in ("", "2", "n")}


class TracerError(RuntimeError):
    """The tracer cannot measure what it claims to measure."""


def _fft_counters(name: str):
    """Counters for one transform call: bytes in + out, and computed flops.

    flops = 5 n log2 L per complex transform and half that per real one,
    where n is the number of real-space points and L the product of the
    transformed axis lengths.  Assumes no padding of a real forward
    transform (polyheat passes neither ``n`` nor ``s``).
    """
    real = "r" in name
    forward_real = name.startswith("rfft")
    if name.endswith("n"):
        default_axes = None
    elif name.endswith("2"):
        default_axes = (-2, -1)
    else:
        default_axes = (-1,)
    axes_key = "axis" if default_axes == (-1,) else "axes"

    def counters(args, kwargs, result):
        a = args[0]
        shape = tuple(getattr(a, "shape", ())) if forward_real else result.shape
        axes = kwargs.get(axes_key, args[2] if len(args) > 2 else default_axes)
        if axes is None:
            axes = range(len(shape))
        elif isinstance(axes, int):
            axes = (axes,)
        length = math.prod(shape[ax] for ax in axes)
        points = math.prod(shape)
        flops = 5.0 * points * math.log2(length) if length > 1 else 0.0
        nbytes = int(getattr(a, "nbytes", 0)) + int(result.nbytes)
        return {"bytes": nbytes, "flops": flops * (0.5 if real else 1.0)}

    return counters


def _points_of(position: int, keyword: str):
    def counters(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return {"points": int(getattr(value, "size", 1))}

    return counters


def _profile_nodes(args, kwargs, result):
    return {"quadrature_nodes": int(result.quadrature.nodes)}


def _phf1_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0])
    return {"bytes": os.path.getsize(path)}


_COUNTERS = {
    "bessel.besselj": _points_of(1, "z"),
    "degeneracy.coef": _points_of(2, "u"),
    "kernel.profile_bessel": _profile_nodes,
    "gridfield.phf1": _phf1_bytes,
}


class Tracer:
    """Span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, parent index, start, end, counters]
        self._stack = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, counters=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            tracer.spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                if not stack or stack.pop() != index:
                    raise TracerError(f"overlapping {name} spans: layer calls ran concurrently")
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        wrapper.__bench_traced__ = name
        return wrapper

    def summary(self) -> dict:
        """Per-layer calls, self time and counters of the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (name, _, start, end, counters), children in zip(self.spans, child_time):
            layer = out[name]
            layer["calls"] += 1
            layer["self_s"] += (end - start) - children
            for key, value in (counters or {}).items():
                layer[key] = layer.get(key, 0) + value
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start", "end", "counters"], "spans": self.spans}, fh)


def install_fft(tracer: Tracer) -> None:
    """Wrap every numpy.fft and scipy.fft transform; call before importing polyheat."""
    if any(mod == "polyheat" or mod.startswith("polyheat.") for mod in sys.modules):
        raise TracerError("install the FFT wrappers before polyheat is imported")
    import numpy.fft
    import scipy.fft

    for module in (numpy.fft, scipy.fft):
        names = [n for n in dir(module) if _FFT_NAME.match(n)]
        missing = _FFT_REQUIRED - set(names)
        if missing:
            raise TracerError(f"{module.__name__} lacks transforms {sorted(missing)}")
        for name in names:
            setattr(module, name, tracer.wrap(FFT_LAYER, getattr(module, name), _fft_counters(name)))


def install_layers(tracer: Tracer, layer_functions=LAYER_FUNCTIONS) -> dict:
    """Wrap each layer's boundary functions at every polyheat binding.

    Returns {span name: number of module attributes rebound}.
    """
    modules = [m for n, m in sys.modules.items() if n == "polyheat" or n.startswith("polyheat.")]
    bound = {}
    for span, (module_name, functions) in layer_functions.items():
        if module_name not in sys.modules:
            raise TracerError(f"module {module_name} is not imported")
        for fn_name in functions:
            original = getattr(sys.modules[module_name], fn_name, None)
            if original is None or not callable(original):
                raise TracerError(f"{module_name}.{fn_name} is missing: layer {span} cannot be traced")
            if hasattr(original, "__bench_traced__"):
                raise TracerError(f"{module_name}.{fn_name} is already wrapped")
            wrapper = tracer.wrap(span, original, _COUNTERS.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        bound[span] = bound.get(span, 0) + 1
    return bound
