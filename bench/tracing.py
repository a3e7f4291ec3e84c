"""Spans around calls into the program, recorded from outside it.

The tracer replaces each traced function, wherever a topsl module holds a
reference to it, with a wrapper that records a span (name, start, end,
parent) in memory.  A class is traced through its __init__.  uninstall()
puts the originals back.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

# metric prefix -> (module, attribute).  The verify.phase.* entries are the
# module-level functions that verify.sweep calls for each phase.
TARGETS = {
    "core.natural_order": ("core", "natural_order"),
    "topo.FiniteTopology": ("topo", "FiniteTopology"),
    "topo.generate_topology": ("topo", "generate_topology"),
    "topo.product": ("topo", "product"),
    "topo.hull": ("topo", "hull"),
    "tsl.continuity_profile": ("tsl", "continuity_profile"),
    "tsl.order_profile": ("tsl", "order_profile"),
    "tsl.enumerate_subsemigroups": ("tsl", "enumerate_subsemigroups"),
    "weak.topology_comparison": ("weak", "topology_comparison"),
    "weak.scott_topology": ("weak", "scott_topology"),
    "weak.law_topology": ("weak", "law_topology"),
    "weak.zar_topology": ("weak", "zar_topology"),
    "weak.weak_topology": ("weak", "weak_topology"),
    "props.property_vector": ("props", "property_vector"),
    "props.uvw_profile": ("props", "uvw_profile"),
    "props.is_meet_continuous": ("props", "is_meet_continuous"),
    "props.zar_compact_centered": ("props", "zar_compact_centered"),
    "verify.universe": ("verify", "universe"),
    "verify.phase.instances": ("verify", "_evaluate_instance"),
    "verify.phase.sub": ("verify", "_evaluate_sub_rules"),
    "verify.phase.hom": ("verify", "_hom_phase"),
    "verify.phase.product": ("verify", "_product_phase"),
    "verify.phase.main": ("verify", "_main_phase"),
    "cli.parse_document": ("cli", "parse_document"),
    "cli.document_to_instance": ("cli", "document_to_instance"),
}

# Distinct inputs are counted for these, by (operation table, open sets).
DISTINCT = ("weak.topology_comparison",)

OP = "op"  # the span the benchmark records around each timed operation


def _instance_key(x_instance):
    return (x_instance.algebra.table, x_instance.topology.opens)


class Tracer:
    def __init__(self):
        self.spans = {}
        self.ids = itertools.count()
        self.local = threading.local()
        self.distinct = {name: set() for name in DISTINCT}
        self.absent = []
        self.patched = []  # (owner, attribute, original)

    def span(self, name, fn, key_set=None):
        spans, ids, local = self.spans, self.ids, self.local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = next(ids)
            parent = stack[-1] if stack else -1
            if key_set is not None:
                key_set.add(_instance_key(args[0]))
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def install(self):
        self.absent = []
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "topsl" or name.startswith("topsl."))
        ]
        for name, (mod_name, attr) in TARGETS.items():
            mod = sys.modules.get(f"topsl.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                init = original.__init__
                self.patched.append((original, "__init__", init))
                original.__init__ = self.span(name, init)
                continue
            wrapper = self.span(name, original, self.distinct.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self.patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def export(self):
        return {
            "spans": [self.spans[i] for i in sorted(self.spans)],
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "absent": self.absent,
        }


def summarize(export):
    """Calls and self seconds per span name.  Span ids run from 0 without
    gaps, so a parent id is a position in the span list."""
    spans = export["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s = {}, {}
    for (name, start, end, parent), inner in zip(spans, covered):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
    return calls, self_s


def write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
