"""Correctness oracle: replay the run in-process on the reference backend.

Every response the gateway returned is compared with the response an
in-process :class:`~repro.service.facade.CommunityService` gives for the same
operation on the ``reference`` backend, at the epoch the response reports.
Both sides are reduced to the canonical wire form the scenario pipeline
compares backends with: a JSON round trip with the session name and every
timing field removed, update reports without the fields only the fast
backend's overlay has, and build summaries reduced to the graph and index
shape.  Query statistics lose their propagation-cache counters as well: those
depend on which queries ran before, and the open-loop workloads interleave
requests in whatever order the gateway completes them.
"""

from __future__ import annotations

import json

from repro.service.facade import CommunityService
from repro.service.schema import (
    BuildRequest,
    DToplRequest,
    ToplRequest,
    UpdateRequest,
    query_from_wire,
)

from workloads import SESSION

_TIMING_FIELDS = ("elapsed_seconds", "elapsed_ms", "queries_per_second")
_BACKEND_SPECIFIC_REPORT_FIELDS = ("overlay_dirt_ratio", "compacted", "applied_mode")
_CACHE_STATE_FIELDS = ("propagation_cache_hits", "propagation_cache_misses")


def _strip_timings(node) -> None:
    if isinstance(node, dict):
        for key in _TIMING_FIELDS:
            node.pop(key, None)
        for value in node.values():
            _strip_timings(value)
    elif isinstance(node, list):
        for value in node:
            _strip_timings(value)


def canonical(kind: str, document: dict) -> dict:
    """The comparable form of one response document (modified in place)."""
    document.pop("session", None)
    _strip_timings(document)
    if kind == "update":
        report = document.get("report", {})
        for key in _BACKEND_SPECIFIC_REPORT_FIELDS:
            report.pop(key, None)
    elif kind == "build":
        engine = document.get("engine", {})
        document = {
            "epoch": document.get("epoch"),
            "graph": engine.get("graph"),
            "index": engine.get("index"),
        }
    else:
        statistics = document.get("statistics", {})
        for key in _CACHE_STATE_FIELDS:
            statistics.pop(key, None)
    return document


def _wire(kind: str, response) -> dict:
    return canonical(kind, json.loads(json.dumps(response.to_json())))


class ReferenceReplay:
    """The reference-backend twin of every server's session.

    Reads are answered at the build epoch (every server answers its reads
    before its updates), each distinct one once; the update sequence is
    replayed once, after the reads.
    """

    def __init__(self, graph_doc: dict, build_config: dict) -> None:
        config = dict(build_config, backend="reference")
        self.service = CommunityService()
        response = self.service.build(
            BuildRequest(session=SESSION, graph=graph_doc, config=config, validate=False)
        )
        self.build = _wire("build", response)
        self.epoch = response.epoch
        self._answers: dict = {}
        self._updates: list = []

    def answer(self, kind: str, key: str) -> dict:
        """The expected document of a read at the build epoch."""
        if (kind, key) not in self._answers:
            if self._updates:
                raise RuntimeError("reads are replayed before the updates")
            query = query_from_wire(json.loads(key))
            if kind == "dtopl":
                response = self.service.dtopl(DToplRequest(session=SESSION, query=query))
            else:
                response = self.service.topl(ToplRequest(session=SESSION, query=query))
            self._answers[(kind, key)] = _wire(kind, response)
        return self._answers[(kind, key)]

    def updates(self, keys: list) -> list:
        """The expected documents of the update sequence ``keys``, in order."""
        for key in keys[len(self._updates) :]:
            response = self.service.update(UpdateRequest.from_json(json.loads(key)))
            self._updates.append(_wire("update", response))
        return self._updates[: len(keys)]
