"""Per-layer tracing from outside the engine.

``Tracer.install`` wraps every public function of the engine's modules, plus
the constructors of ``RatFunc`` and ``LagrangianRelation``, and rebinds each
name in every module that imported it (``nullspace`` lives in ``lagrel`` and
``behavior``, ``gradient`` in ``dirichlet`` and ``lagrel``).  Each call is a
span: its name, start, end and the enclosing span.  Spans are folded into
per-function totals as they close, so a layer's self time is its spans'
duration minus the part covered by their child spans.  Nothing under
``src/`` changes; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

LAYERS = ("field", "circuits", "dirichlet", "corel", "lagrel", "behavior", "netlist", "cli")
CONSTRUCTORS = (("field", "RatFunc"), ("lagrel", "LagrangianRelation"))


def _fill(args, out):
    """Coefficient pairs the elimination created that the input lacked."""
    form = args[0]
    return {"fill": sum(1 for pair in out.coeffs if pair not in form.coeffs)}


def _rref_shape(args, out):
    rows, ncols = args
    return {"cells": len(rows) * ncols, "max_cols": ncols}


# Extra counters: name -> hook(args, result) returning {stat: value}.  A stat
# named max_* keeps the maximum, any other stat the sum.
HOOKS = {"dirichlet.eliminate_node": _fill, "lagrel.rref": _rref_shape}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.extra = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._restore = []

    def span(self, name, fn, hook=None):
        calls, total, child, extra = self.calls, self.total, self.child, self.extra
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[name] += 1
                total[name] += elapsed
                child[name] += inner
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                for stat, value in hook(args, out).items():
                    key = f"{name}.{stat}"
                    extra[key] = max(extra[key], value) if stat.startswith("max_") else extra[key] + value
            return out

        return traced

    def self_s(self, name):
        return self.total[name] - self.child[name]

    def install(self, package):
        """Wrap the engine modules of an imported ``package``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self.span(name, fn, HOOKS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._restore.append((mod, attr, value))
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(getattr(package, layer), cls_name)
            init = cls.__init__
            cls.__init__ = self.span(f"{layer}.{cls_name}", init)
            self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def table(self):
        """(name, calls, self seconds, total seconds), largest self time first."""
        rows = [(n, self.calls[n], self.self_s(n), self.total[n]) for n in self.calls]
        return sorted(rows, key=lambda r: -r[2])
