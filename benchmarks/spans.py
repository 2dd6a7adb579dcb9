"""Span tracing for the benchmark's traced run, installed from outside the
package.

Each layer boundary is replaced, where its caller looks it up, by a wrapper
that records one span: name, start, end, parent span and the id of the item
being run.  Spans live in flat arrays in memory; self times (a span's
duration minus the time its child spans cover) are computed from them after
a pass, and the spans are written out when the run ends.  ``uninstall``
puts every original back, so untraced passes run the unmodified code.

``Trail.assign`` is deliberately not wrapped: it runs about once per
assignment, and a wrapper there would swamp what it measures.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path


def boundaries(allsat) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every wrapped boundary.

    Module-level functions are patched in the module that calls them,
    because ``bddcache`` and ``harness`` bind them at import.
    """
    bddcache, blocking, harness = allsat.bddcache, allsat.blocking, \
        allsat.harness
    Kernel, Trail = allsat.kernel.Kernel, allsat.trail.Trail
    NB = allsat.nonblocking.NonBlockingSolver
    BS = blocking.BlockingSolver
    return [
        ("harness.run_instance", harness, "run_instance"),
        ("formula.compute_cuts", bddcache, "compute_cuts"),
        ("kernel.propagate", Kernel, "propagate"),
        ("kernel.decide", Kernel, "decide"),
        ("kernel.cancel", Kernel, "cancel_to"),
        ("trail.cancel", Trail, "cancel_to"),
        ("kernel.analyze", Kernel, "analyze"),
        ("kernel.attach", Kernel, "attach_clause"),
        ("nonblocking.run", NB, "run"),
        ("nonblocking.backtrack", NB, "backtrack_bt"),
        ("nonblocking.backtrack", NB, "_backtrack_flip_at"),
        ("nonblocking.resolve", NB, "_resolve"),
        ("blocking.run", BS, "run"),
        ("blocking.emit", BS, "_emit"),
        ("blocking.restart", BS, "_block_and_restart"),
        ("blocking.simplify", blocking, "simplify_assignment"),
        ("blocking.replay", blocking, "replay_decisions"),
        ("bddcache.run", bddcache.BddSolver, "run_bdd"),
        ("bddcache.run", bddcache.BddBlockingSolver, "run_bdd"),
        ("bddcache.key", bddcache, "make_formula"),
        ("bddcache.enroll", bddcache.BddSolver, "_before_cancel"),
        ("bddcache.add_path", bddcache.BddBlockingSolver, "_add_path"),
        ("obdd.extend", bddcache, "extend_obdd"),
        ("obdd.count", bddcache, "count_models"),
        ("obdd.count", harness, "count_models"),
        ("obdd.dump", bddcache, "dump"),
        ("obdd.dump", harness, "dump"),
    ]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, names: list[str]):
        self.names = sorted(set(names) | {"formula.parse"})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.item = -1                 # id of the item being run
        self.name = array("H")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("q")        # perf_counter_ns
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.item_of, self.start,
                    self.end):
            del arr[:]

    def wrap(self, span_name: str, fn):
        name_id = self._ids[span_name]
        names, parents, items = self.name, self.parent, self.item_of
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def call(self, span_name: str, fn, *args):
        """Run ``fn(*args)`` as one span (for calls the benchmark makes
        itself)."""
        return self.wrap(span_name, fn)(*args)

    def install(self, targets: list[tuple[str, object, str]]) -> None:
        for span_name, owner, attr in targets:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per name."""
        durs = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(durs)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += durs[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for name_id, d, c in zip(self.name, durs, child):
            self_ns[name_id] += d - c
            calls[name_id] += 1
        return ({n: self_ns[i] / 1e9 for i, n in enumerate(self.names)},
                dict(zip(self.names, calls)))

    def items_with(self, span_name: str) -> set[int]:
        """Ids of the items in which a span of this name occurred."""
        name_id = self._ids[span_name]
        return {item for nid, item in zip(self.name, self.item_of)
                if nid == name_id}

    def write(self, directory: Path, item_labels: list[str]) -> None:
        """Spans as raw arrays in native byte order, plus a JSON header
        that names their layout."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "item_of", "start", "end")
        with open(directory / "spans.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": self.names,
            "items": item_labels,
            "byteorder": sys.byteorder,
            "clock": "perf_counter_ns",
        }
        with open(directory / "spans.json", "w") as fh:
            json.dump(header, fh, indent=1)
