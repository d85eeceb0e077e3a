"""Per-layer spans for ultranorm, recorded from outside the package.

``Tracer.install`` rebinds public functions and methods of each layer
(module) to wrappers that time every call.  A function is wrapped by
identity: every module-global reference to the same object across
``ultranorm.*`` is replaced, such as ``distance`` as imported into
``betweenness``, ``isometry`` and ``oracle``.  A name that a later refactor
removes is skipped and reports zero calls.  ``uninstall`` restores the
originals; ``src/`` is never touched.

Spans are folded as they close: per span name the calls, the self time
(duration minus the time of child spans) and the exceptions raised, and per
(parent, child) edge the calls and inclusive time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); several attributes may share one span name
TARGETS = [
    ("fields", "valuation", "fields.valuation"),
    ("fields", "Scalar.__add__", "fields.scalar_ops"),
    ("fields", "Scalar.__sub__", "fields.scalar_ops"),
    ("fields", "Scalar.__neg__", "fields.scalar_ops"),
    ("fields", "Scalar.__mul__", "fields.scalar_ops"),
    ("fields", "Scalar.inverse", "fields.scalar_ops"),
    ("spaces", "distance", "spaces.distance"),
    ("spaces", "norm", "spaces.norm"),
    ("betweenness", "segment", "betweenness.segment"),
    ("betweenness", "is_metrically_between", "betweenness.is_metrically_between"),
    ("betweenness", "coordinate_between", "betweenness.coordinate_between"),
    ("isometry", "decompose", "isometry.decompose"),
    ("isometry", "AxialIsometry.apply", "isometry.apply"),
    ("isometry", "verify_isometry", "isometry.verify_isometry"),
    ("oracle", "enumerate_isometries", "oracle.search"),
    ("oracle", "exhaustive_betweenness_check", "oracle.betweenness"),
]


def _segment_points(counts, args, result):
    counts["betweenness.segment.points"] += len(result.points)


def _verify_pairs(counts, args, result):
    probes = len(args[0].domain)
    counts["isometry.verify_isometry.pairs"] += probes * (probes - 1) // 2


def _search(counts, args, result):
    counts["oracle.search.attempts"] += getattr(result, "attempts", 0)
    counts["oracle.search.found"] += len(result.isometries)


def _triples(counts, args, result):
    q, n = args[0], args[1]
    counts["oracle.betweenness.triples"] += (q ** n) ** 3


OBSERVERS = {
    "betweenness.segment": _segment_points,
    "isometry.verify_isometry": _verify_pairs,
    "oracle.search": _search,
    "oracle.betweenness": _triples,
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.edge_calls: Counter = Counter()
        self.edge_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # open spans: [name, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str):
        stack, calls, self_s, raised = self._stack, self.calls, self.self_s, self.raised
        edge_calls, edge_s, counts = self.edge_calls, self.edge_s, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = (stack[-1][0] if stack else None, name)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                calls[name] += 1
                self_s[name] += seconds - frame[1]
                edge_calls[edge] += 1
                edge_s[edge] += seconds
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ultranorm" or key.startswith("ultranorm."))]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(f"ultranorm.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(method) if isinstance(owner, type) else None
                if fn is not None:
                    self._rebind(owner, method, fn, self._wrap(fn, name))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def take(self) -> dict:
        """Per-layer figures since the last take, then start afresh."""
        calls, self_s, raised, counts = self.calls, self.self_s, self.raised, self.counts
        table = ("oracle.search", "spaces.distance")
        classify = ("oracle.search", "isometry.decompose")
        attempts = counts["oracle.search.attempts"]
        found = counts["oracle.search.found"]
        out = {
            "fields.valuation.calls": calls["fields.valuation"],
            "fields.valuation.self_s": self_s["fields.valuation"],
            "fields.scalar_ops.calls": calls["fields.scalar_ops"],
            "fields.scalar_ops.self_s": self_s["fields.scalar_ops"],
            "spaces.distance.calls": calls["spaces.distance"],
            "spaces.distance.self_s": self_s["spaces.distance"],
            "spaces.norm.calls": calls["spaces.norm"],
            "spaces.norm.self_s": self_s["spaces.norm"],
            "betweenness.segment.calls": calls["betweenness.segment"],
            "betweenness.segment.points": counts["betweenness.segment.points"],
            "betweenness.segment.self_s": self_s["betweenness.segment"],
            "betweenness.is_metrically_between.calls": calls["betweenness.is_metrically_between"],
            "betweenness.is_metrically_between.self_s":
                self_s["betweenness.is_metrically_between"],
            "betweenness.coordinate_between.calls": calls["betweenness.coordinate_between"],
            "betweenness.coordinate_between.self_s": self_s["betweenness.coordinate_between"],
            "isometry.decompose.calls": calls["isometry.decompose"],
            "isometry.decompose.failures": raised["isometry.decompose"],
            "isometry.decompose.self_s": self_s["isometry.decompose"],
            "isometry.apply.calls": calls["isometry.apply"],
            "isometry.apply.self_s": self_s["isometry.apply"],
            "isometry.verify_isometry.pairs": counts["isometry.verify_isometry.pairs"],
            "isometry.verify_isometry.self_s": self_s["isometry.verify_isometry"],
            "oracle.search.attempts": attempts,
            "oracle.search.found": found,
            "oracle.search.useful_ratio": found / attempts if attempts else 0.0,
            "oracle.search.self_s": self_s["oracle.search"],
            "oracle.table.distance_calls": self.edge_calls[table],
            "oracle.table.s": self.edge_s[table],
            "oracle.classify.s": self.edge_s[classify],
            "oracle.betweenness.triples": counts["oracle.betweenness.triples"],
            "oracle.betweenness.self_s": self_s["oracle.betweenness"],
        }
        for store in (calls, self_s, raised, counts, self.edge_calls, self.edge_s):
            store.clear()
        return out
