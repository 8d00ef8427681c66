"""Layer spans and counters for a traced pass, installed from outside.

Every public function of a zwords layer module is replaced, in every
module that binds it (the package, its own module, and each module that
imported it), by a wrapper.  A call from another layer or from the
benchmark records a span: name, operation id, parent span, start and end.
A call from inside the same layer is not a boundary and records nothing.
A few names also feed counters (`PROBES`), on every call.  Classes and
their constructors are not wrapped, so their time is the caller's.
Spans stay in memory until the pass ends.

What each layer metric should move, written down before measuring:
  schreier.self_s, ordinals.calls -> ops_per_s and op_ms_p50 on
      schreier-batch (no change on codec-cli and cb-index); the Schreier
      cache size shows as peak_rss_mb there
  search.candidates, .nodes_expanded, .node_yield, .instances_colored
      -> op_ms_p50 on witness-search
  words.self_s, .rel_r1_calls, .extracted_words -> ops_per_s on
      witness-search and cb-index
  families.derivative_steps, .members_visited, .hereditary_check_s
      -> op_ms_p50 on cb-index
  rationals.encode_s, .decode_s, .digits -> op_ms_tail on codec-cli
  cli.parser_s -> op_ms_p50 on codec-cli
  trace.overhead_ratio: traced over untraced operation time
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter
from time import perf_counter

LAYERS = ("ordinals", "schreier", "words", "families", "rationals", "search", "cli")


def _search_report(c, result, args):
    c["search.candidates"] += result.candidates
    c["search.nodes_expanded"] += result.nodes_expanded


def _members(c, result, args):
    c["families.members_visited"] += len(args[0])


def _derivative(c, result, args):
    c["families.derivative_steps"] += 1
    _members(c, result, args)


# name -> (counter of the summed inclusive seconds or None, counting hook or None)
PROBES = {
    "search.hj_witness_search": (None, _search_report),
    "search.xi_witness_search": (None, _search_report),
    "words.extracted_sets": (None, lambda c, r, a: c.update(
        {"words.extracted_words": len(r.constants) + len(r.variables)})),
    "words.rel_r1": (None, lambda c, r, a: c.update({"words.rel_r1_calls": 1})),
    "families.cb_derivative": (None, _derivative),
    "families.hereditary_closure": (None, _members),
    "families.largest_hereditary": (None, _members),
    "families.WordFamily.is_hereditary": ("families.hereditary_check_s", None),
    "rationals.encode": ("rationals.encode_s", lambda c, r, a: c.update(
        {"rationals.digits": len(r.entries)})),
    "rationals.evaluate": ("rationals.decode_s", lambda c, r, a: c.update(
        {"rationals.digits": len(a[0].entries)})),
    "search.Coloring.color_key": (None, lambda c, r, a: c.update(
        {"search.instances_colored": 1})),
    "cli.build_parser": ("cli.parser_s", None),
}
METHODS = (("families", "WordFamily", "is_hereditary"), ("search", "Coloring", "color_key"))


class Tracer:
    def __init__(self, zwords):
        self.spans: list[list] = []  # [name id, op id, parent index, start, end]
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.times: Counter = Counter()
        self.stack: list[tuple[str, int]] = [("bench", -1)]
        self.op = -1
        self._install(zwords)

    def _install(self, zwords) -> None:
        modules = {layer: importlib.import_module("zwords." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._wrap(layer, "%s.%s" % (layer, obj.__name__), obj)
        for mod in (zwords, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = "%s.%s.%s" % (layer, cls_name, meth)
            setattr(cls, meth, self._wrap(layer, name, getattr(cls, meth)))

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, spans, tracer = self.stack, self.spans, self
        timer, hook = PROBES.get(name, (None, None))
        counters, times = self.counters, self.times

        probed = timer is not None or hook is not None

        def wrapper(*args, **kwargs):
            boundary = stack[-1][0] != layer
            if not (boundary or probed):
                return fn(*args, **kwargs)
            if boundary:
                span = [name_id, tracer.op, stack[-1][1], 0.0, 0.0]
                stack.append((layer, len(spans)))
                spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if boundary:
                    span[3], span[4] = t0, t1
                    stack.pop()
            if timer:
                times[timer] += t1 - t0
            if hook:
                hook(counters, result, args)
            return result

        return functools.wraps(fn)(wrapper)

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(("bench", len(self.spans)))
        self.spans.append([-1, op, -1, perf_counter(), 0.0])

    def end_op(self) -> None:
        _, index = self.stack.pop()
        self.spans[index][4] = perf_counter()

    def summary(self) -> dict:
        """Per-layer call counts and self seconds, counters and probe
        times; all times raw."""
        child = [0.0] * len(self.spans)
        for name_id, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        op_s = 0.0
        for i, (name_id, _, parent, t0, t1) in enumerate(self.spans):
            if name_id < 0:
                op_s += t1 - t0
                continue
            entry = layers[self.names[name_id].split(".", 1)[0]]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child[i]
        return {"layers": layers, "op_s": op_s, "counters": dict(self.counters),
                "times": dict(self.times), "names": self.names}
