"""Seeded inputs of the gateway workloads.

Every input a run sends is generated here, before the server starts, from
the workload name and ``--seed``: the network (fixed: the 5.2k-edge bench
network of ``BENCH_fastcore``), the query streams, the update scripts and the
arrival schedules.  The program under test only ever sees the resulting request
documents.  :func:`fingerprint` hashes all of it, so the self-test can show
that a seed pins the inputs down.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.dynamic.updates import random_update_batch
from repro.graph.generators import planted_community_graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.keyword_assignment import assign_keywords
from repro.query.params import DTopLQuery, TopLQuery
from repro.service.schema import DToplRequest, ToplRequest, UpdateRequest

SESSION = "bench"

#: Query shape shared by every workload (r=2, k=3, L=5, theta=0.1, n=3).
K, RADIUS, TOP_L, THETA, CANDIDATE_FACTOR = 3, 2, 5, 0.1, 3
#: Offline-phase settings of every session; the oracle uses the same ones.
#: The overlay compaction threshold stays at its default (0.25), so every
#: timed update takes the plain incremental path.
ENGINE_CONFIG = {"backend": "fast", "max_radius": 2, "thresholds": [0.1, 0.2, 0.3]}

#: Open-loop rate of reads-hot (requests per second), fixed for every run.
#: Two closed-loop connections sending the hot mix back to back saturate the
#: gateway, with the client on the same two vCPUs (Xeon, 2.1 GHz), at
#: 500-1300 req/s as the shared machine's speed drifts.  200 req/s keeps the
#: gateway 15-40% busy across that range: arrivals still queue behind each
#: other, but the queue stays short.  At 320 req/s (up to 65% busy) the TopL p95
#: swung between 4.8 and 11 ms from run to run.
HOT_RATE = 200.0
#: Size of the reads-hot query pool (3:1 TopL:DTopL); it fits the 256-entry
#: result cache of the serving layer.
HOT_POOL = 48
#: The last UPDATE_ROUNDS servers of a run apply one update sequence after
#: their reads (so every read runs at epoch 0): SEED_UPDATES untimed batches,
#: then TIMED_UPDATES timed ones, each EDITS_PER_BATCH localized edits around
#: its own focus vertex.  The first batch a server applies seeds its trussness
#: map with one full peeling, which no later batch repeats, so it is sent
#: untimed.  The batches carry damage threshold 1.0, so the dense network
#: takes the incremental maintenance path (truss update, affected centres,
#: record refresh, tree patch) instead of the rebuild fallback.  A batch's
#: cost follows how many centres it affects (200-450 here), so the median
#: needs a dozen distinct batches to stop following the seed; the reference
#: replay of each one takes about a second, which caps their number.
EDITS_PER_BATCH = 12
UPDATE_ROUNDS = 2
SEED_UPDATES = 1
TIMED_UPDATES = 12
UPDATE_DAMAGE_THRESHOLD = 1.0
#: Fresh queries each reads-cold server answers before its timed chunks.
COLD_WARMUP = 4

#: Fixed seed of the network (the one BENCH_fastcore uses).
NETWORK_SEED = 13


def dense_network():
    """The ~5.2k-edge planted-community network (14 x 50, p in 0.05-0.3)."""
    graph = planted_community_graph(
        [50] * 14,
        intra_probability=0.3,
        inter_probability=0.0005,
        weight_range=(0.05, 0.3),
        rng=NETWORK_SEED,
        name="fastcore-14x50",
    )
    assign_keywords(graph, keywords_per_vertex=3, domain_size=50, rng=NETWORK_SEED)
    return graph


@dataclass(frozen=True)
class Request:
    """One request document, ready to send."""

    kind: str  # "topl" | "dtopl" | "update"
    key: str  # canonical identity of the operation (query or batch)
    body: bytes

    @property
    def path(self) -> str:
        return "/v1/" + self.kind


#: Servers a run sets up, one after another; each answers CHUNKS_PER_ROUND
#: chunks of the timed traffic.  Spreading the timed window over the whole
#: run in short chunks averages over the slow and fast stretches of a shared
#: machine.
ROUNDS = 4
CHUNKS_PER_ROUND = 2
CHUNKS = ROUNDS * CHUNKS_PER_ROUND


@dataclass
class Inputs:
    """Everything one run sends, in the order the workload sends it."""

    graph_doc: dict
    build_config: dict
    #: Requests every server answers before its timed chunks (checked, not
    #: timed).
    warmup: list = field(default_factory=list)
    #: Closed loop: one request sequence the chunks consume in order.  Open
    #: loop: one list of ``(due offset seconds, Request)`` pairs per chunk,
    #: sent on ``connections`` connections.
    closed: list = field(default_factory=list)
    schedules: list = field(default_factory=list)
    connections: int = 1
    #: Updates the last UPDATE_ROUNDS servers apply after their reads
    #: (SEED_UPDATES, then TIMED_UPDATES).
    updates: list = field(default_factory=list)


def _query_request(keywords, dtopl: bool) -> Request:
    base = TopLQuery(
        keywords=frozenset(keywords), k=K, radius=RADIUS, theta=THETA, top_l=TOP_L
    )
    if dtopl:
        request = DToplRequest(
            session=SESSION,
            query=DTopLQuery(base=base, candidate_factor=CANDIDATE_FACTOR),
        )
    else:
        request = ToplRequest(session=SESSION, query=base)
    document = request.to_json()
    key = json.dumps(document["query"], sort_keys=True)
    return Request("dtopl" if dtopl else "topl", key, json.dumps(document).encode())


def _update_request(batch) -> Request:
    request = UpdateRequest(
        session=SESSION, edits=tuple(batch), damage_threshold=UPDATE_DAMAGE_THRESHOLD
    )
    # The whole document is the key: the oracle replays it as sent.
    key = json.dumps(request.to_json(), sort_keys=True)
    return Request("update", key, key.encode())


def _fresh_queries(rng: random.Random, domain: list, count: int, used: set) -> list:
    """``count`` queries with never-repeated keyword sets, 3:1 TopL:DTopL.

    Each block of twelve holds, for each keyword-set size of 3, 4 and 5,
    three TopL and one DTopL query, in seeded order.  So a seed picks which
    keywords a run asks for but not how many, which sets most of the cost.
    """
    requests = []
    while len(requests) < count:
        block = [(size, dtopl) for size in (3, 4, 5) for dtopl in (False, False, False, True)]
        rng.shuffle(block)
        for size, dtopl in block:
            while True:
                keywords = frozenset(rng.sample(domain, size))
                if keywords not in used:
                    used.add(keywords)
                    break
            requests.append(_query_request(keywords, dtopl))
    return requests[:count]


def _harmonic_picker(rng: random.Random, pool: list):
    """Draw pool entries with probability proportional to 1 / rank."""
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    return lambda: rng.choices(pool, weights=weights)[0]


def _schedule(rng: random.Random, rate: float, seconds: float) -> list:
    """Poisson arrivals over ``[0, seconds)`` with exactly ``rate * seconds`` points.

    A Poisson process conditioned on its count places the points uniformly,
    so the offered load is the same in every run while the gaps stay
    exponential-like.
    """
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _update_stream(graph, rng: random.Random, count: int) -> list:
    """``count`` sequentially valid localized batches around rotating foci."""
    evolving = graph_from_dict(graph_to_dict(graph))
    foci = sorted(evolving.vertices())
    rng.shuffle(foci)
    requests = []
    for position in range(count):
        batch = random_update_batch(
            evolving,
            EDITS_PER_BATCH,
            rng=rng,
            insert_ratio=0.5,
            focus=foci[position % len(foci)],
            focus_radius=1,
        )
        batch.apply_to(evolving)
        requests.append(_update_request(batch))
    return requests


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of ``workload`` for one run of ``seconds`` timed seconds."""
    rng = random.Random(f"{workload}:{seed}")
    graph = dense_network()
    domain = sorted(graph.keyword_domain())
    inputs = Inputs(graph_doc=graph_to_dict(graph), build_config=dict(ENGINE_CONFIG))
    used: set = set()
    if workload == "reads-cold":
        inputs.warmup = _fresh_queries(rng, domain, COLD_WARMUP, used)
        # Enough fresh queries for an engine ten times faster than today's.
        inputs.closed = _fresh_queries(rng, domain, int(seconds * 250) + 12, used)
    elif workload == "reads-hot":
        pool = _fresh_queries(rng, domain, HOT_POOL, used)
        inputs.warmup = list(pool)
        pick = _harmonic_picker(rng, pool)
        inputs.schedules = [
            [(due, pick()) for due in _schedule(rng, HOT_RATE, seconds / CHUNKS)]
            for _ in range(CHUNKS)
        ]
        inputs.connections = 2
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.updates = _update_stream(graph, rng, SEED_UPDATES + TIMED_UPDATES)
    return inputs


def fingerprint(inputs: Inputs) -> str:
    """SHA-256 over every input of the run, in send order."""
    digest = hashlib.sha256()
    digest.update(json.dumps(inputs.graph_doc, sort_keys=True).encode())
    digest.update(json.dumps(inputs.build_config, sort_keys=True).encode())
    for request in inputs.warmup + inputs.closed + inputs.updates:
        digest.update(request.body)
    digest.update(str(inputs.connections).encode())
    for schedule in inputs.schedules:
        for due, request in schedule:
            digest.update(repr(due).encode())
            digest.update(request.body)
    return digest.hexdigest()
