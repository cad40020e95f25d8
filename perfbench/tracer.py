"""Spans around calls into closurelab, recorded from outside the package.

The tracer replaces each public function of the traced layers in every
closurelab module namespace that binds it (the package re-exports with
``from .x import f``, so ``closure.k_closure`` and ``harness.k_closure`` are
separate bindings of one function), and each public method of PermGroup on
the class. Budget.charge is wrapped to count nodes, not timed as a span.
Every original is put back by restore().

Spans stay in memory, in flat arrays, until write() is called after the run.
Two layers are not traced: ``perm``, whose element helpers run tens of
millions of times inside every other layer, so a span around each would cost
more than the work it times; and ``cli``, which no workload calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType

TRACED_LAYERS = ("stabchain", "actions", "basesize", "closure", "harness", "catalog")
NODE_LAYERS = ("closure", "basesize")


class Tracer:
    """Records one span per call of a wrapped function.

    A span's self time is its duration minus the time covered by spans of
    other layers beneath it; calls a layer makes to its own public functions
    count as that layer's work. Per span name the tracer keeps calls, self
    time and the Budget.charge total of spans that were the innermost
    closure or basesize span when charged. ``clock`` gives every span's
    start and end.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.nodes: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.transporter_identity = 0
        self.transporter_found = 0
        self.greedy_settled = 0
        self.subgroup_classes = 0
        self._layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing ------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method; closurelab must be imported."""
        namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "closurelab"]
        for layer in TRACED_LAYERS:
            module = sys.modules[f"closurelab.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapper)
        perm_group = sys.modules["closurelab.stabchain"].PermGroup
        for attr, obj in sorted(vars(perm_group).items()):
            if attr.startswith("_"):
                continue
            name = f"stabchain.PermGroup.{attr}"
            if isinstance(obj, staticmethod):
                self._patch(perm_group, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, FunctionType):
                self._patch(perm_group, attr, self._wrap(name, obj))
        budget_cls = sys.modules["closurelab.budget"].Budget
        self._patch(budget_cls, "charge", self._wrap_charge(budget_cls.charge))

    def restore(self) -> None:
        """Put every patched name back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.split(".")[0])
            self.calls.append(0)
            self.self_s.append(0.0)
            self.nodes.append(0)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer = self._layer_of[nid]
        observe = {
            "stabchain.tuple_transporter": self._observe_transporter,
            "basesize.greedy_base": self._observe_greedy,
            "actions.subgroups_up_to_conjugacy": self._observe_subgroups,
        }.get(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [index, nid, layer, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                other = frame[3]
                self.calls[nid] += 1
                self.self_s[nid] += duration - other
                if stack:
                    parent = stack[-1]
                    parent[3] += other if parent[2] == layer else duration
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_charge(self, charge):
        stack = self._stack
        nodes = self.nodes

        def traced_charge(budget, n=1, partial=None):
            for frame in reversed(stack):
                if frame[2] in NODE_LAYERS:
                    nodes[frame[1]] += n
                    break
            return charge(budget, n, partial)

        return functools.wraps(charge)(traced_charge)

    def _observe_transporter(self, args, result) -> None:
        _, src, dst = args
        if tuple(src) == tuple(dst):
            self.transporter_identity += 1
        if result is not None:
            self.transporter_found += 1

    def _observe_greedy(self, args, result) -> None:
        stack = self._stack
        if stack and self.names[stack[-1][1]] == "basesize.exact_base_size" and result.exhaustive:
            self.greedy_settled += 1

    def _observe_subgroups(self, args, result) -> None:
        self.subgroup_classes += len(result)

    # -- reading --------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, int]:
        """(calls, self seconds, nodes) for one span name; zeros if never called."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0
        return self.calls[nid], self.self_s[nid], self.nodes[nid]

    def write(self, stem: Path) -> None:
        """Write the spans: stem.json holds the names and per-name totals;
        stem.bin holds, for N spans, N int32 name ids, N int32 parent span
        indices (-1 for a root), then N float64 starts and N float64 ends in
        seconds of the tracer's clock, all in native byte order."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "spans": len(self.span_name),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "totals": {
                name: {"calls": self.calls[i], "self_s": self.self_s[i], "nodes": self.nodes[i]}
                for i, name in enumerate(self.names)
            },
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name, with units."""

    def calls(name):
        return tr.stat(name)[0]

    def self_s(name):
        return tr.stat(name)[1]

    def share(part, whole):
        return part / whole if whole else 0.0

    transporter = calls("stabchain.tuple_transporter")
    exact = calls("basesize.exact_base_size")
    return {
        "stabchain.build_chain.calls": (calls("stabchain.build_chain"), "count"),
        "stabchain.build_chain.self_s": (self_s("stabchain.build_chain"), "s"),
        "stabchain.pointwise_stabilizer.calls": (calls("stabchain.PermGroup.pointwise_stabilizer"), "count"),
        "stabchain.pointwise_stabilizer.self_s": (self_s("stabchain.PermGroup.pointwise_stabilizer"), "s"),
        "stabchain.tuple_transporter.calls": (transporter, "count"),
        "stabchain.tuple_transporter.self_s": (self_s("stabchain.tuple_transporter"), "s"),
        "stabchain.tuple_transporter.identity_share": (share(tr.transporter_identity, transporter), "share"),
        "stabchain.tuple_transporter.found_share": (share(tr.transporter_found, transporter), "share"),
        "stabchain.contains.calls": (calls("stabchain.PermGroup.contains"), "count"),
        "closure.k_closure.calls": (calls("closure.k_closure"), "count"),
        "closure.k_closure.self_s": (self_s("closure.k_closure"), "s"),
        "closure.nodes": (tr.stat("closure.k_closure")[2], "count"),
        "closure.closure_spectrum.calls": (calls("closure.closure_spectrum"), "count"),
        "basesize.exact_base_size.calls": (exact, "count"),
        "basesize.exact_base_size.self_s": (self_s("basesize.exact_base_size"), "s"),
        "basesize.nodes": (tr.stat("basesize.exact_base_size")[2], "count"),
        "basesize.greedy_base.self_s": (self_s("basesize.greedy_base"), "s"),
        "basesize.greedy_settled_share": (share(tr.greedy_settled, exact), "share"),
        "actions.subgroups_up_to_conjugacy.self_s": (self_s("actions.subgroups_up_to_conjugacy"), "s"),
        "actions.subgroups_up_to_conjugacy.classes": (tr.subgroup_classes, "count"),
        "actions.coset_action.calls": (calls("actions.coset_action"), "count"),
        "actions.coset_action.self_s": (self_s("actions.coset_action"), "s"),
        "actions.induced.self_s": (self_s("actions.ksubsets_action") + self_s("actions.partitions_action"), "s"),
        "harness.filtration_closure_orders.calls": (calls("harness.filtration_closure_orders"), "count"),
        "harness.filtration_closure_orders.self_s": (self_s("harness.filtration_closure_orders"), "s"),
        "catalog.catalog_group.self_s": (self_s("catalog.catalog_group"), "s"),
    }
