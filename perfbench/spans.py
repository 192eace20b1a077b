"""In-memory span recorder and the layer boundaries it wraps.

A span is (name, layer, start, end, parent index).  Spans are opened only
around calls into arborchar's public functions and methods, installed from
here by rebinding the names other modules call them through; nothing under
src/ is edited.  Self time of a span is its duration minus the time covered
by its child spans, and a layer's self time is the sum over its spans.

Mat2 methods are not wrapped: the oracle calls them in its innermost
loops, so their cost is counted as self time of the oracle or witness
function that called them.  Operator arithmetic on MultiPoly and RatFun is wrapped, so
ratfun self time is the time spent inside the exact kernel.
"""

from __future__ import annotations

import contextlib
import functools
import time

# the clock spans are timed on; a child that samples its speed (speed.py)
# sets it to a clock that leaves the sampling out
clock = time.perf_counter

LAYERS = ("tangle", "ratfun", "invariants", "links", "mat2", "oracle", "witness", "cli")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, child_time]
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, clock(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = clock()
        self._stack.pop()
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for _name, layer, start, end, _parent, child in self.spans:
            out[layer] += (end - start) - child
        return out

    def export(self, run_id: str) -> list[list]:
        """Spans as [name, layer, start, end, parent, run id] rows."""
        return [[s[0], s[1], s[2], s[3], s[4], run_id] for s in self.spans]


# (module, attribute, layer): module-level functions as other modules see them
_FUNCTIONS = (
    ("tangle", "parse", "tangle"),
    ("cli", "parse", "tangle"),
    ("cli", "component_count", "tangle"),
    ("cli", "closure_equations", "invariants"),
    ("cli", "link_presentation", "links"),
    ("cli", "run_suite", "oracle"),
    ("cli", "sample_in_Gt", "oracle"),
    ("cli", "witness_family", "witness"),
    ("cli", "pairwise_gaps", "witness"),
    ("invariants", "closure_equations", "invariants"),
    ("invariants", "component_count", "tangle"),
    ("invariants", "expand_rational", "tangle"),
    ("invariants", "clear_denominators", "ratfun"),
    ("links", "component_count", "tangle"),
    ("links", "pretzel3333_presentation", "links"),
    ("oracle", "parse", "tangle"),
    ("oracle", "expand_rational", "tangle"),
    ("oracle", "closure_equations", "invariants"),
    ("oracle", "base_invariants", "invariants"),
    ("oracle", "cayley_power", "mat2"),
    ("oracle", "chebyshev", "mat2"),
    ("oracle", "closed_trace", "mat2"),
    ("oracle", "decompose_pair", "mat2"),
    ("oracle", "delta_two_trace", "mat2"),
    ("oracle", "has_common_eigenvector", "mat2"),
    ("oracle", "is_reducible", "mat2"),
    ("oracle", "special", "mat2"),
)

# (class, methods): the exact kernel's public methods and operators
_METHODS = (
    ("MultiPoly", ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__pow__",
                   "divexact", "coeffs_in", "subs_poly", "eval", "content",
                   "primitive", "to_json")),
    ("RatFun", ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__pow__", "equals", "substitute", "eval_numeric", "to_json")),
)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary so calls through it record spans.

    Engines created by closure_equations and by the oracle are replaced by
    a subclass whose run opens a span per tangle node.
    """
    import importlib

    from arborchar import invariants, ratfun

    mods = {name: importlib.import_module(f"arborchar.{name}")
            for name in ("cli", "invariants", "links", "oracle", "tangle")}
    for mod, attr, layer in _FUNCTIONS:
        fn = getattr(mods[mod], attr)
        setattr(mods[mod], attr, rec.wrap(fn, f"{layer}.{attr}", layer))
    for cls_name, methods in _METHODS:
        cls = getattr(ratfun, cls_name)
        for meth in methods:
            setattr(cls, meth, rec.wrap(getattr(cls, meth), f"ratfun.{cls_name}.{meth}", "ratfun"))

    class TracedEngine(invariants.InvariantEngine):
        def run(self, expr):
            with rec.span("invariants.run", "invariants"):
                return super().run(expr)

    mods["oracle"].InvariantEngine = TracedEngine
    for mod in ("cli", "invariants", "oracle"):
        closure = getattr(mods[mod], "closure_equations")

        def closure_with_engine(c, engine=None, _inner=closure):
            return _inner(c, engine if engine is not None else TracedEngine())

        setattr(mods[mod], "closure_equations", closure_with_engine)
