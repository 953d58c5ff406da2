"""In-memory spans around the public functions of each layer (traced runs only).

:func:`install` replaces each traced function with a wrapper under the name
its caller looks up at call time (a module attribute or a class attribute),
so the program runs unchanged and no span code lives in ``src/``.  A span is
``(request id, span id, parent id, name, start, end, extra)``.  Spans nest
per thread; all spans under one facade call share that call's request id.
``extra`` carries the counters a layer returns (query statistics, update
reports), so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Recorder:
    """Collects spans in memory; :meth:`dump` writes them out at shutdown."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, call, annotate=None):
        """Run ``call()`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id, request_id = stack[-1] if stack else (None, span_id)
        stack.append((span_id, request_id))
        result = None
        start = time.perf_counter()
        try:
            result = call()
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = annotate(result) if annotate is not None and result is not None else None
            self.spans.append((request_id, span_id, parent_id, name, start, end, extra))

    def wrap(self, owner, attribute: str, name: str, annotate=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.span(name, lambda: original(*args, **kwargs), annotate)

        setattr(owner, attribute, wrapper)

    def dump(self) -> list:
        return [list(span) for span in self.spans]


class _TimedJson:
    """Stands in for the ``json`` module inside the async gateway.

    The gateway parses request bodies with ``json.loads`` and writes
    responses with ``json.dumps``; it also serialises read payloads with
    ``sort_keys=True`` to key in-flight coalescing, which is gateway work,
    not wire encoding.
    """

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def loads(self, *args, **kwargs):
        return self._recorder.span("schema.loads", lambda: json.loads(*args, **kwargs))

    def dumps(self, *args, **kwargs):
        name = "agateway.coalesce_key" if kwargs.get("sort_keys") else "schema.dumps"
        return self._recorder.span(name, lambda: json.dumps(*args, **kwargs))

    def __getattr__(self, name):
        return getattr(json, name)


def _query_statistics(result) -> dict:
    s = result.statistics
    return {
        "visited": s.visited_index_nodes,
        "examined": s.candidates_examined,
        "scored": s.communities_scored,
        "early": s.heap_terminated_early,
        "prop_hits": s.propagation_cache_hits,
        "prop_misses": s.propagation_cache_misses,
    }


def _update_report(report) -> dict:
    return {
        "mode": report.mode,
        "affected": report.affected_vertices,
        "dirt": report.overlay_dirt_ratio,
        "compacted": report.compacted,
    }


def install(recorder: Recorder) -> None:
    """Wrap the public function of every layer the benchmark splits time by."""
    import repro.core.engine as engine_module
    import repro.fastgraph.kernels as kernels
    import repro.fastgraph.offline as offline
    import repro.query.dtopl as dtopl_module
    import repro.query.topl as topl_module
    import repro.service.agateway as agateway
    import repro.service.schema as schema
    import repro.store as store
    from repro.core.engine import InfluentialCommunityEngine
    from repro.dynamic.truss_maintenance import IncrementalTrussState
    from repro.fastgraph.delta import DeltaCSR
    from repro.serve.batch import BatchQueryEngine
    from repro.service.facade import CommunityService

    wrap = recorder.wrap
    agateway.json = _TimedJson(recorder)
    wrap(CommunityService, "handle_json", "facade.handle_json")
    wrap(schema, "decode_request", "schema.decode")
    for response in (
        schema.BuildResponse,
        schema.ToplResponse,
        schema.DToplResponse,
        schema.UpdateResponse,
        schema.ErrorResponse,
    ):
        wrap(response, "to_json", "schema.encode")
    for endpoint in ("build", "topl", "dtopl", "update"):
        wrap(CommunityService, endpoint, "facade." + endpoint)
    wrap(BatchQueryEngine, "answer", "serve.answer")
    wrap(topl_module.TopLProcessor, "query", "topl.query", _query_statistics)
    wrap(dtopl_module.DTopLProcessor, "query", "dtopl.query")
    wrap(topl_module, "hop_subgraph", "traversal.hop_subgraph")
    wrap(topl_module, "extract_seed_community", "seed.extract", lambda seed: bool(seed))
    wrap(topl_module, "community_propagation", "propagate")
    wrap(kernels, "community_propagation_csr", "propagate")
    wrap(
        dtopl_module,
        "greedy_select_diversified",
        "dtopl.greedy",
        lambda picked: {"increments": picked[1]},
    )
    wrap(InfluentialCommunityEngine, "apply_updates", "dynamic.apply", _update_report)
    wrap(IncrementalTrussState, "apply", "dynamic.truss")
    wrap(engine_module, "affected_centers", "dynamic.affected")
    wrap(offline, "fast_refresh_records", "dynamic.refresh")
    wrap(engine_module, "refresh_vertex_aggregates", "dynamic.refresh")
    wrap(engine_module, "patch_tree_index", "index.patch")
    wrap(DeltaCSR, "compact", "fastgraph.compact")
    wrap(engine_module, "precompute", "index.precompute")
    wrap(engine_module, "build_tree_index", "index.tree")
    wrap(store, "open_store", "store.attach")


# --------------------------------------------------------------------------- #
# analysis (client side)
# --------------------------------------------------------------------------- #
class Span:
    __slots__ = ("request", "id", "parent", "name", "start", "end", "extra", "children")

    def __init__(self, row) -> None:
        self.request, self.id, self.parent, self.name, self.start, self.end, self.extra = row
        self.children: list = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it covered by child spans."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda span: span.start):
            begin = max(child.start, cursor)
            finish = min(child.end, self.end)
            if finish > begin:
                covered += finish - begin
                cursor = finish
        return self.duration - covered


def load(rows: list) -> list:
    """Rebuild the span forest from dumped rows; returns every span."""
    spans = [Span(row) for row in rows]
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            by_id[span.parent].children.append(span)
    return spans


def self_time_report(spans: list) -> dict:
    """Per span name: calls, total and self milliseconds."""
    report: dict = {}
    for span in spans:
        entry = report.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += span.duration * 1000.0
        entry["self_ms"] += span.self_time * 1000.0
    for entry in report.values():
        entry["total_ms"] = round(entry["total_ms"], 3)
        entry["self_ms"] = round(entry["self_ms"], 3)
    return dict(sorted(report.items(), key=lambda item: -item[1]["self_ms"]))
