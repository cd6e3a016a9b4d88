"""Span tracing of chieflie's public functions, installed from outside.

`Tracer.install` rebinds every public function of the measured modules, in
every chieflie module namespace that holds it, to a timing wrapper.  Calls
between library modules then pass through the wrappers too, so each layer's
calls, inclusive time and self time (span time minus the time covered by
direct child spans) are seen without changing the library.

Spans stay in memory as parallel arrays (name, start, end, parent span,
operation id) and are written out once, by `write_spans`, after the pass.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# The layers whose public functions are wrapped, in import order.
MEASURED_MODULES = ("linalg", "algebra", "ideals", "maximal", "factors",
                    "jordanholder", "cli")


def public_functions(module) -> dict[str, object]:
    """Functions (plain or lru_cache-wrapped) a module defines and exports."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self._depth: list[int] = []
        # span arrays, indexed by span id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []      # open span ids
        self._child: list[float] = []    # child time covered, per open span
        self.op = -1
        # per-call argument probes for the layers that report them
        self.rref_p2 = 0
        self.rref_podd = 0
        self.pair_args: dict[str, set] = {}

    # -- installation --------------------------------------------------------

    @classmethod
    def install(cls, package, modules) -> "Tracer":
        """Wrap the measured modules' public functions everywhere in
        `modules` (every loaded chieflie module, the package included)."""
        tracer = cls()
        wrappers = {}
        for short in MEASURED_MODULES:
            module = getattr(package, short)
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = tracer._wrap(f"{short}.{name}", fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(module, name, w)
        return tracer

    def _wrap(self, qualname: str, fn):
        ix = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        self._depth.append(0)
        probe = None
        if qualname == "linalg.rref_rows":
            probe = self._probe_rref
        elif qualname in ("linalg.subspace_sum", "linalg.subspace_intersect"):
            seen = self.pair_args[qualname] = set()
            probe = lambda args, kwargs: seen.add(args)  # noqa: E731
        calls, self_s, incl_s, depth = (self.calls, self.self_s, self.incl_s,
                                        self._depth)
        stack, child = self._stack, self._child
        span_name, span_start, span_end = (self.span_name, self.span_start,
                                           self.span_end)
        span_parent, span_op = self.span_parent, self.span_op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[ix] += 1
            if probe is not None:
                probe(args, kwargs)
            sid = len(span_start)
            span_name.append(ix)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            depth[ix] += 1
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[sid] = end
                dur = end - start
                stack.pop()
                self_s[ix] += dur - child.pop()
                if child:
                    child[-1] += dur
                depth[ix] -= 1
                if not depth[ix]:       # outermost frame of a recursion
                    incl_s[ix] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _probe_rref(self, args, kwargs):
        p = args[1] if len(args) > 1 else kwargs["p"]
        if p == 2:
            self.rref_p2 += 1
        else:
            self.rref_podd += 1

    # -- results ---------------------------------------------------------------

    def stats(self, qualname: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one wrapped function."""
        ix = self.names.index(qualname)
        return self.calls[ix], self.self_s[ix], self.incl_s[ix]

    def distinct_ratio(self, qualname: str) -> float:
        calls = self.stats(qualname)[0]
        return len(self.pair_args[qualname]) / calls if calls else 0.0

    def write_spans(self, path: Path) -> None:
        """Span arrays as raw native-endian data, with a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name", self.span_name), ("start", self.span_start),
                  ("end", self.span_end), ("parent", self.span_parent),
                  ("op", self.span_op)]
        with open(path, "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {"count": len(self.span_start), "names": self.names,
                  "fields": [[name, arr.typecode] for name, arr in fields],
                  "layout": "each field's array in turn, native byte order"}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
