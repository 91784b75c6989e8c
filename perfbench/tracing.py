"""In-process span tracing of the jumpwalk layers.

The benchmark records spans from its own files: it wraps the public
functions that form each layer boundary and rebinds every module
namespace inside the ``jumpwalk`` package that holds a reference to the
original (``ensemble`` keeps its own ``run_dynamic``, ``cli`` its own
``truncate``, and so on).  Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, run_id]`` and written out by the
caller when the benchmark ends.  Wrappers are removed when the
``Tracer`` context exits, so later calls run the original functions.

Only the calling process is traced: spawned pool workers import fresh
modules and never see the wrappers, so full traces run at workers=1.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name).  Several functions may share one span
# name; the span name is the layer metric prefix.
POINT_TARGETS = [
    ("jumpwalk.ensemble", "quenched_average", "ensemble.point"),
    ("jumpwalk.ensemble", "static_quenched_average", "ensemble.point"),
]
LAYER_TARGETS = [
    ("jumpwalk.cli", "main", "cli.main"),
    ("jumpwalk.distributions", "truncate", "distributions.truncate"),
    ("jumpwalk.ensemble", "derive_seed", "ensemble.seed"),
    ("jumpwalk.ensemble", "sample_dynamic_realization", "ensemble.sample"),
    ("jumpwalk.ensemble", "sample_static_realization", "ensemble.sample"),
    *POINT_TARGETS,
    ("jumpwalk.walk", "run_dynamic", "walk.evolve"),
    ("jumpwalk.walk", "run_static", "walk.evolve"),
    ("jumpwalk.walk", "position_distribution", "walk.reduce"),
    ("jumpwalk.scaling", "std_dev", "scaling.std_dev"),
    ("jumpwalk.scaling", "fit_line", "scaling.fit"),
    ("jumpwalk.scaling", "loglog_points", "scaling.fit"),
]

# Computed bytes per cell update (one complex128 amplitude, 16 bytes, per
# array pass).  Dynamic step: coin matmul read+write, shift read+write,
# norm read = 5 passes.  Static step: coin matmul read+write, gather
# read+write, bincount real+imag read, assemble write, norm read = 8.
_PASSES = {"run_dynamic": 5, "run_static": 8}
_RENORM_TOL = 1e-12  # walk.STATIC_RENORM_TOL at the benchmark's first commit


class Counters:
    """Work counts taken at the same boundaries as the spans."""

    def __init__(self):
        self.r_max = 0
        self.sample_calls = 0
        self.evolve_calls = 0
        self.steps = 0
        self.cell_updates = 0
        self.bytes_moved = 0
        self.static_iterations = 0
        self.renormalized = 0
        self.max_norm_dev = 0.0
        self.points: list[tuple[str, int, float]] = []

    def observe(self, attr: str, args, kwargs, result) -> None:
        if attr == "truncate":
            self.r_max = max(self.r_max, int(result.r_max))
        elif attr.startswith("sample_"):
            self.sample_calls += 1
        elif attr in _PASSES:
            T = int(args[0] if args else kwargs["T"])
            state = result[0] if attr == "run_static" else result
            cells = T * 2 * int(state.amplitudes.shape[-1])
            self.evolve_calls += 1
            self.steps += T
            self.cell_updates += cells
            self.bytes_moved += cells * 16 * _PASSES[attr]
            if attr == "run_static":
                devs = [abs(x - 1.0) for x in result[1]]
                self.static_iterations += len(devs)
                self.renormalized += sum(d > _RENORM_TOL for d in devs)
                self.max_norm_dev = max([self.max_norm_dev, *devs])
        elif attr in ("quenched_average", "static_quenched_average"):
            point = result[0] if attr == "static_quenched_average" else result
            spec = args[0] if args else kwargs["spec"]
            self.points.append((spec.spec_string(), int(point.T), float(point.mean_sigma)))


class Tracer:
    """Context manager that installs span wrappers and restores them on exit."""

    def __init__(self, targets, run_id: str):
        self.targets = targets
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, attr: str, name: str):
        spans, stack, counters, run_id = self.spans, self._stack, self.counters, self.run_id
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, run_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counters.observe(attr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        package = [m for k, m in list(sys.modules.items()) if k == "jumpwalk" or k.startswith("jumpwalk.")]
        for module_name, attr, name in self.targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue  # layer function absent in this version: its metrics read 0
            wrapper = self._wrap(original, attr, name)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus children)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
        return out

    def total(self, name: str) -> float:
        """Seconds covered by spans of ``name`` (inclusive of children)."""
        return sum(e - s for n, s, e, _, _ in self.spans if n == name) / 1e9


def wrapped_functions() -> list[str]:
    """Names of ``jumpwalk`` module attributes that are still span wrappers."""
    return [
        f"{name}.{key}"
        for name, mod in list(sys.modules.items())
        if name == "jumpwalk" or name.startswith("jumpwalk.")
        for key, value in list(vars(mod).items())
        if callable(value) and getattr(value, "__wrapped__", None) is not None
        and getattr(value, "__qualname__", "").endswith("_wrap.<locals>.wrapper")
    ]
