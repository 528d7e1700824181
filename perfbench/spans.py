"""Outside-in tracing of the confocal modules.

`Tracer.install` replaces every public module-level function of the traced
modules with a timing wrapper, in every place the program binds it: module
attributes (including names brought in by ``from ... import``) and
module-level dicts such as ``suites.SUITES``.  Nothing under ``src/`` is
edited; the wrappers live only in the traced process.

Spans are not kept one by one.  Each wrapper folds its span into an
aggregate keyed by (function, calling function) -- the parent link -- and
into a per-function list of durations for the percentiles.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array

TRACED_MODULES = ("billiard", "cli", "config", "dynamics", "geometry", "lax",
                  "potentials", "sampling", "suites", "svgplot")

# formatting helper called once per number written; its cost is of the
# order of the wrapper's own, so it stays inside its caller's self time
UNTRACED = frozenset({"config.fmt"})


class _Edge:
    __slots__ = ("calls", "total_s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors: dict[str, int] = {}


class Tracer:
    """In-memory span aggregates for the functions it wraps."""

    def __init__(self):
        self.edges: dict[tuple[str, str | None], _Edge] = {}
        self.durations: dict[str, array] = {}  # one list per wrapped function
        self._stack: list[list] = []  # [name, time covered by child spans]

    def _wrap(self, name: str, fn):
        stack = self._stack
        edges = self.edges
        durations = self.durations.setdefault(name, array("d"))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                key = (name, parent[0] if parent else None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = _Edge()
                edge.calls += 1
                edge.total_s += dt
                edge.self_s += dt - frame[1]
                if error is not None:
                    edge.errors[error] = edge.errors.get(error, 0) + 1
                durations.append(dt)
                if parent is not None:
                    parent[1] += dt

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules of `package` and
        rebind every reference to them."""
        modules = [getattr(package, m) for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]

    def summary(self) -> dict:
        """Per-function totals with percentiles, plus the parent-linked
        aggregates they are made of."""
        funcs: dict[str, dict] = {}
        for (name, _), edge in self.edges.items():
            f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "errors": {}})
            f["calls"] += edge.calls
            f["total_s"] += edge.total_s
            f["self_s"] += edge.self_s
            for err, k in edge.errors.items():
                f["errors"][err] = f["errors"].get(err, 0) + k
        for name, f in funcs.items():
            d = sorted(self.durations[name])
            f["p50_us"] = 1e6 * _quantile(d, 0.50)
            f["p99_us"] = 1e6 * _quantile(d, 0.99)
        edges = [{"fn": name, "parent": parent, "calls": e.calls,
                  "total_s": e.total_s, "self_s": e.self_s, "errors": e.errors}
                 for (name, parent), e in sorted(self.edges.items(),
                                                 key=lambda kv: (kv[0][0], str(kv[0][1])))]
        return {"functions": funcs, "edges": edges, "wrapped": sorted(self.durations)}


def _quantile(sorted_vals, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 when empty)."""
    if not sorted_vals:
        return 0.0
    return float(sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)])
