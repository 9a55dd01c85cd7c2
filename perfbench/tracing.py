"""Spans around the calls into each kzbraid module, recorded from outside.

`install` replaces each traced function by a timing wrapper under every
name a kzbraid module looks it up by (for example `reduce` inside both
`kzbraid.cli` and `kzbraid.closure`), plus `RelationSet.echelon` and the
`json.dumps` that `kzbraid.cli` calls.  `uninstall` puts the originals back.
Spans stay in memory; `layer_totals` turns one request's spans into self
times per layer metric, a self time being a span's duration minus that of
its child spans.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function) -> the per-layer metric its self time is added to.
# Spans of functions not listed under a named metric go to trace.unnamed_self_s.
TRACED = {
    ("braids", "parse_braid_word"): "braids.parse_s",
    ("braids", "realize"): "braids.realize_s",
    ("braids", "permutation_of"): "trace.unnamed_self_s",
    ("transport", "transport"): "transport.transport_s",
    ("transport", "kontsevich_of_braid"): "trace.unnamed_self_s",
    ("transport", "simplex_oracle"): "transport.oracle_s",
    ("transport", "abelian_holonomy"): "transport.abelian_s",
    ("transport", "symmetrized"): "transport.abelian_s",
    ("words", "enumerate_words"): "trace.unnamed_self_s",
    ("words", "series_product"): "words.series_product_s",
    ("words", "relabel_strands"): "words.relabel_s",
    ("words", "series_to_json_dict"): "words.json_s",
    ("circles", "enumerate_circle_diagrams"): "circles.enumerate_s",
    ("circles", "circle_series_to_json_dict"): "words.json_s",
    ("closure", "closure_skeleton"): "trace.unnamed_self_s",
    ("closure", "tau_project"): "closure.tau_project_s",
    ("closure", "kontsevich_link"): "trace.unnamed_self_s",
    ("relations", "horizontal_relations"): "relations.horizontal_build_s",
    ("relations", "circle_relations"): "relations.circle_build_s",
    ("relations", "reduce"): "relations.reduce_s",
    ("relations", "quotient_dimension"): "trace.unnamed_self_s",
    ("cli", "main"): "cli.self_s",
}
TIME_METRICS = (
    "cli.self_s",
    "cli.import_s",
    "braids.parse_s",
    "braids.realize_s",
    "transport.transport_s",
    "transport.oracle_s",
    "transport.abelian_s",
    "words.json_s",
    "words.series_product_s",
    "words.relabel_s",
    "closure.tau_project_s",
    "circles.enumerate_s",
    "relations.circle_build_s",
    "relations.horizontal_build_s",
    "relations.echelon_s",
    "relations.reduce_s",
    "trace.unnamed_self_s",
)
COUNT_METRICS = (
    "transport.calls",
    "transport.steps_used",
    "words.output_terms",
    "relations.rows",
    "relations.rank",
    "relations.cache_lookups",
    "relations.cache_hits",
)
RELATION_CACHES = ("horizontal_relations", "circle_relations")


class Recorder:
    """In-memory spans [name, start, end, parent, request] and counts."""

    def __init__(self):
        self.spans = []
        self.counts = []  # [request, metric, amount]
        self.request = None
        self._stack = []

    def wrap(self, name, fn, after=None):
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(recorder, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, metric, amount):
        self.counts.append([self.request, metric, amount])

    @contextmanager
    def span(self, name):
        stack = self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.request]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()


def _count_transport(recorder, args, result):
    recorder.count("transport.calls", 1)
    recorder.count("transport.steps_used", result.steps_used)


def _count_terms(recorder, args, result):
    recorder.count("words.output_terms", len(result["terms"]))


AFTER = {
    ("transport", "transport"): _count_transport,
    ("words", "series_to_json_dict"): _count_terms,
    ("circles", "circle_series_to_json_dict"): _count_terms,
}


class _JsonProxy:
    """Stands in for the `json` module inside kzbraid.cli."""

    def __init__(self, module, dumps):
        self._module, self.dumps = module, dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _modules():
    return {name: mod for name, mod in list(sys.modules.items()) if name.startswith("kzbraid")}


def install(recorder):
    """Wrap every traced name; returns the undo list for `uninstall`."""
    modules = _modules()
    undo = []
    for (module, function), metric in TRACED.items():
        original = getattr(modules[f"kzbraid.{module}"], function)
        wrapped = recorder.wrap(f"{module}.{function}", original, AFTER.get((module, function)))
        for mod in modules.values():
            if getattr(mod, function, None) is original:
                undo.append((mod, function, original))
                setattr(mod, function, wrapped)
    relation_set = modules["kzbraid.relations"].RelationSet
    original_echelon = relation_set.echelon

    def echelon(self):
        fresh = self._echelon is None
        result = original_echelon(self)
        if fresh:
            recorder.count("relations.rows", len(self.rows))
            recorder.count("relations.rank", len(result))
        return result

    undo.append((relation_set, "echelon", original_echelon))
    relation_set.echelon = recorder.wrap("relations.echelon", echelon)
    cli = modules["kzbraid.cli"]
    undo.append((cli, "json", cli.json))
    cli.json = _JsonProxy(cli.json, recorder.wrap("json.dumps", cli.json.dumps))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def cache_counts():
    """(lookups, hits) summed over the relation-set caches."""
    relations = sys.modules["kzbraid.relations"]
    lookups = hits = 0
    for name in RELATION_CACHES:
        function = getattr(relations, name)
        while not hasattr(function, "cache_info"):
            function = function.__wrapped__
        info = function.cache_info()
        lookups += info.hits + info.misses
        hits += info.hits
    return lookups, hits


# span name -> metric, including the spans that are not module functions
_METRIC_OF = {f"{m}.{f}": metric for (m, f), metric in TRACED.items()}
_METRIC_OF.update({
    "relations.echelon": "relations.echelon_s",
    "json.dumps": "words.json_s",
    "import": "cli.import_s",
})


def layer_totals(spans, counts):
    """Self times per time metric and summed counts; parents index spans."""
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    totals.update(dict.fromkeys(COUNT_METRICS, 0))
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _request in spans:
        if parent is not None:
            child_time[parent] += end - start
    for (name, start, end, _parent, _request), inner in zip(spans, child_time):
        totals[_METRIC_OF[name]] += (end - start) - inner
    for _request, metric, amount in counts:
        totals[metric] += amount
    return totals
