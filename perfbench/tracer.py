"""Per-layer tracing of revstack from outside the package.

Every public function of each layer module is replaced, in every revstack
namespace that binds it (the package itself and the copies that
``from .perms import ...`` leaves in other modules), by a wrapper that
times the call.  ``uninstall`` puts every original object back.

Calls made from inside a traced call are aggregated per (caller, callee)
in memory, because the per-permutation kernels get millions of calls and
keeping a span for each would itself raise the peak RSS being measured.
Only top-level calls (those made by the benchmark itself) are kept as
whole spans.  A call's self time is its duration minus the time covered by
the traced calls it made.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("perms", "patterns", "zigzag", "trees", "polynomials", "roots", "enumeration", "cli")

# Functions whose distinct first arguments are counted, so that repeated
# work on the same input shows as a ratio (real_roots calls per polynomial).
DISTINCT_ARG_FUNCTIONS = ("roots.real_roots",)


def _fingerprint(arg):
    coeffs = getattr(arg, "coeffs", arg)
    return tuple(coeffs)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"revstack.{layer}") for layer in LAYERS}
        self.spans: list[dict] = []
        self.calls: dict[tuple[str, str], list] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARG_FUNCTIONS}
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._snapshot: dict[str, dict[str, object]] = {}

    def _namespaces(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if name == "revstack" or name.startswith("revstack.")]

    def install(self) -> None:
        namespaces = self._namespaces()
        self._snapshot = {ns.__name__: dict(vars(ns)) for ns in namespaces}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", obj)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._bindings.append((ns, attr, obj))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._bindings):
            setattr(ns, attr, obj)
        self._bindings.clear()

    def restored(self) -> bool:
        """True when every attribute of every revstack module is again the
        object it was before install."""
        for ns in self._namespaces():
            before = self._snapshot.get(ns.__name__)
            now = vars(ns)
            if before is None or before.keys() != now.keys():
                return False
            if any(now[k] is not v for k, v in before.items()):
                return False
        return True

    def _wrap(self, fn_name: str, fn):
        stack, calls, spans, clock = self._stack, self.calls, self.spans, time.perf_counter
        distinct = self.distinct.get(fn_name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, fn_name]
            stack.append(frame)
            if distinct is not None and args:
                distinct.add(_fingerprint(args[0]))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                caller = "bench"
                if parent is None:
                    spans.append({"fn": fn_name, "start": start, "end": end,
                                  "self_s": duration - frame[0]})
                else:
                    parent[0] += duration
                    caller = parent[1]
                rec = calls.get((caller, fn_name))
                if rec is None:
                    rec = calls[(caller, fn_name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[0]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", fn_name)
        return traced

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "calls": [
                {"caller": caller, "fn": fn, "calls": c, "total_s": total, "self_s": self_s}
                for (caller, fn), (c, total, self_s) in sorted(self.calls.items())
            ],
            "distinct_args": {name: len(seen) for name, seen in self.distinct.items()},
        }
