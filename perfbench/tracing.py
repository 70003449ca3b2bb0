"""Span tracing of obdk from outside the package.

``Tracer.install`` replaces every public module-level function of every
loaded ``obdk.*`` module, at every module namespace that binds it (so a
call that ``experiments`` makes through ``from .detectors import ...``
is caught), plus every public classmethod of obdk classes, with a
wrapper that records a span. Spans are kept in memory as
``[name, start_ns, end_ns, parent_index]``, on the process CPU-time
clock, and written out by the caller when the run ends. ``uninstall``
restores the original bindings.

A span's layer is the obdk module that defines the function, so private
helpers count toward the self time of the public function that called
them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "obdk"


def _is_public_function(value) -> bool:
    return (
        inspect.isfunction(value)
        and (value.__module__ or "").startswith(PACKAGE + ".")
        and not value.__name__.startswith("_")
    )


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records nested call spans of one thread while installed.

    ``sizes`` maps a span name to a function of the call's return value;
    ``totals[name]`` sums that function over every call, outside the span.
    """

    def __init__(self, sizes: dict | None = None):
        self.sizes = sizes or {}
        self.totals: dict[str, float] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str | None = None):
        """Return a wrapper of ``fn`` that records one span per call."""
        name = name or span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.process_time_ns
        size, totals = self.sizes.get(name), self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size is not None:
                totals[name] = totals.get(name, 0) + size(result)
            return result

        return traced

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = self.wrap(fn)
        return self._wrappers[key]

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if _is_public_function(value):
                    self._rebind(module, attr, value, self._wrapper_for(value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if isinstance(cvalue, classmethod) and not cattr.startswith("_"):
                            wrapped = classmethod(self._wrapper_for(cvalue.__func__))
                            self._rebind(value, cattr, cvalue, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``{"self_s": ..., "calls": ...}``.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_ns):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start - children) / 1e9
        entry["calls"] += 1
    return out


def by_layer(per_function: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Sum per-function self time and calls into their module (layer)."""
    out: dict[str, dict[str, float]] = {}
    for name, stats in per_function.items():
        entry = out.setdefault(name.split(".", 1)[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += stats["self_s"]
        entry["calls"] += stats["calls"]
    return out
