"""Tracing of signject's public functions, installed from outside the package.

The tracer wraps a fixed list of public functions from outside the package:
it replaces every module attribute bound to one of them (a function imported
into several modules is bound several times, for example ``det`` in
``ratmat``, ``engine``, ``matroid`` and ``descartes``), so every call is seen
whichever name it went through. Each call is a span with a parent span. When
a span closes, its duration is added to its name's total and to its parent's
child time; self time is total time minus child time. Spans are aggregated
on close by (parent name, name), which keeps memory bounded when a layer such
as ``det`` is called hundreds of thousands of times.

``signs`` is left unwrapped: its helpers are called millions of times per
run, each for well under a microsecond, so a wrapper would cost more than the
work it measures.
"""
from __future__ import annotations

import functools
import sys
from math import comb
from time import perf_counter

# (module, function) pairs that are measured; the metric prefix is
# "<module>.<function>".
TRACED = (
    ("ratmat", "det"),
    ("ratmat", "rref"),
    ("feasibility", "solve_strict"),
    ("feasibility", "feasible_sign_pair"),
    ("matroid", "covectors"),
    ("matroid", "cocircuits"),
    ("engine", "check_injectivity"),
    ("engine", "check_minors"),
    ("engine", "gamma_det_poly"),
    ("engine", "construct_counterexample"),
    ("engine", "evaluate_map"),
    ("descartes", "check_bnd"),
    ("descartes", "check_ex"),
    ("crn", "parse_network"),
    ("crn", "preclude_multistationarity"),
    ("oracle", "sampled_injectivity_search"),
    ("cli", "main"),
)


class _Span:
    __slots__ = ("name", "parent", "child_s", "evaluate_calls")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.evaluate_calls = 0


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``.

    ``stats`` maps a span name to [calls, total_s, self_s]; ``edges`` maps
    (parent name or None, name) to [calls, total_s]; ``counts`` holds the
    derived counters named in the benchmark's README.
    """

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self.counts = {
            "feasibility.solve_strict.feasible": 0,
            "engine.check_minors.pairs": 0,
            "engine.witness_retries": 0,
            "matroid.sign_vectors": 0,
            "crn.steady_state_lps": 0,
            "oracle.samples": 0,
            "oracle.candidates": 0,
            "oracle.violations": 0,
            "oracle.exact_lps": 0,
        }
        self._stack = []
        self._patched = []  # (owner module, attribute name, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        import signject  # noqa: F401  (loads the package so every module is present)
        import signject.cli  # noqa: F401
        import signject.oracle  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "signject" or name.startswith("signject."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"signject.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        close = self._close
        count = self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name, parent)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                close(span, perf_counter() - start)
            count(span, args, kwargs, result)
            return result

        return traced

    def _close(self, span, duration):
        name = span.name
        parent = span.parent
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - span.child_s
        edge = self.edges.setdefault((parent.name if parent else None, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration
        if parent is not None:
            parent.child_s += duration

    def _count(self, span, args, kwargs, result):
        name = span.name
        parent = span.parent
        counts = self.counts
        if name == "feasibility.solve_strict":
            if result.feasible:
                counts["feasibility.solve_strict.feasible"] += 1
            if parent is not None and parent.name == "crn.preclude_multistationarity":
                counts["crn.steady_state_lps"] += 1
            if self._under(span, "oracle.sampled_injectivity_search"):
                counts["oracle.exact_lps"] += 1
        elif name == "engine.check_minors":
            Atilde = args[0] if args else kwargs["Atilde"]
            s = args[2] if len(args) > 2 else kwargs["s"]
            counts["engine.check_minors.pairs"] += comb(Atilde.rows, s) * comb(Atilde.cols, s)
        elif name == "engine.evaluate_map":
            if parent is not None and parent.name == "engine.construct_counterexample":
                parent.evaluate_calls += 1
        elif name == "engine.construct_counterexample":
            counts["engine.witness_retries"] += max(0, span.evaluate_calls - 2)
        elif name in ("matroid.covectors", "matroid.cocircuits"):
            if parent is None or not parent.name.startswith("matroid."):
                counts["matroid.sign_vectors"] += len(result)
        elif name == "oracle.sampled_injectivity_search":
            counts["oracle.samples"] += result.samples
            counts["oracle.candidates"] += result.candidates
            counts["oracle.violations"] += len(result.violations)

    @staticmethod
    def _under(span, name):
        node = span.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    # -- results --------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def to_json_dict(self):
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in sorted(self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counts": dict(self.counts),
        }
