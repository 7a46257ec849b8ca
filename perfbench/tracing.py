"""In-memory spans and counters recorded around calls into fastron.

Everything here wraps fastron objects from the outside: bound methods are
replaced on a model instance, and module-level functions are swapped for
the duration of a run and restored afterwards. No file of the package is
changed, and an untraced run installs none of these wrappers.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans (name, start, end, parent) plus per-site call totals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name and end is not None]

    def spanned(self, name: str, fn):
        """``fn`` recording one span per call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn):
        """``fn`` adding its time and one call to the site ``name``; no span.

        For calls too frequent to keep a span each (oracle labels, checks).
        """

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - t0
                self.calls[name] += 1

        return wrapper

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **summary,
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "sites": {k: {"seconds": self.seconds[k], "calls": self.calls[k]}
                          for k in sorted(self.calls)},
            }, fh)


class Counted:
    """Checker or label callable that counts its calls."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return self.fn(p)


def instrument_model(model, tracer: Tracer, prefix: str = "model", gram: bool = True) -> None:
    """Span the model's public mutators and, with ``gram``, time every Gram column fill."""
    for name in ("set_data", "set_labels", "train", "sparsify", "append_points"):
        setattr(model, name, tracer.spanned(f"{prefix}.{name}", getattr(model, name)))
    if not gram:
        return
    gram = model.gram
    ensure = gram.ensure_column

    def ensure_column(X, j):
        if gram.column_computed(j):
            return ensure(X, j)
        t0 = perf_counter()
        col = ensure(X, j)
        tracer.add("kernels.column", perf_counter() - t0)
        return col

    gram.ensure_column = ensure_column


@contextmanager
def patched(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(original)`` until the block ends."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)
