"""In-memory spans recorded from outside the program, by wrapping its functions.

A traced run replaces, for its duration, the layer functions that
`voiceforge.pipeline` imports by name, a few nested calls inside the layers,
and every public method of the adapters in the registry handed to
`pipeline.run`. Each call becomes a span (name, start, end, parent);
`Tracer.restore()` puts every original name back.

Span names are `<module>.<function>` for layer functions and
`adapters.<role>.<method>` for adapter calls.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from dataclasses import dataclass

# Calls made inside a layer rather than by the pipeline, wrapped where the
# calling module looks them up: (module, attribute).
NESTED = (
    ("voiceforge.ingest", "resample"),
    ("voiceforge.synthesis", "synthesize"),
    ("voiceforge.synthesis", "save_wav"),
    ("voiceforge.synthesis", "load_wav"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    items: int | None = None  # len() of the result, when it has one
    maxrss_kb: int = 0  # ru_maxrss when the span ended


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if isinstance(result, (list, tuple, dict)):
            span.items = len(result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def patch_pipeline(self, pipeline, modules: dict) -> None:
        """Wrap every voiceforge function `pipeline` imported, plus NESTED."""
        for attr, value in sorted(vars(pipeline).items()):
            module = getattr(value, "__module__", "") or ""
            if (
                inspect.isfunction(value)
                and module.startswith("voiceforge.")
                and module != pipeline.__name__
            ):
                self.patch(pipeline, attr, f"{module.rsplit('.', 1)[-1]}.{attr}")
        for module_name, attr in NESTED:
            self.patch(modules[module_name], attr, f"{module_name.rsplit('.', 1)[-1]}.{attr}")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def traced_registry(self, registry):
        """A registry with every adapter of `registry` behind a timing proxy."""
        from voiceforge.adapters import AdapterRegistry, AdapterRole

        out = AdapterRegistry()
        for role in AdapterRole:
            for adapter_id in registry.available(role):
                out.register(
                    registry.descriptor(role, adapter_id),
                    AdapterProxy(self, role.value, registry.resolve(role, adapter_id)),
                )
        return out


class AdapterProxy:
    """Forwards attribute access to an adapter; public methods become spans."""

    def __init__(self, tracer: Tracer, role: str, impl) -> None:
        self._tracer = tracer
        self._role = role
        self._impl = impl

    def __getattr__(self, attr: str):
        value = getattr(self._impl, attr)
        if attr.startswith("_") or not inspect.ismethod(value):
            return value
        return self._tracer.wrap(f"adapters.{self._role}.{attr}", value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below `root` (spans are recorded parent-first)."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out
