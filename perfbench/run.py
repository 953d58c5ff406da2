"""Gateway benchmark: seeded client traffic against the real front door.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reads-cold --seed 1 --seconds 14 --trace 0

A run sets up ``ROUNDS`` servers one after another.  Each one launches
``perfbench/server.py`` (the async gateway over an unsharded
``CommunityService``), creates the session with ``POST /v1/build``, answers
its warm-up reads and ``CHUNKS_PER_ROUND`` timed chunks of the workload's
read traffic from a single client process (at most two connections); the
last ``UPDATE_ROUNDS`` servers then apply the update sequence.  Every answer
is checked against an in-process replay on the reference backend as the run
goes, and the run prints one JSON result object as its last line of output.

* ``--trace 0``: end-to-end metrics; ``setup_s`` is the median over the
  servers.  Their times are scaled to the reference machine: multiplied
  by the reference reading of a fixed CPU yardstick over its median reading
  before the first server and after each one (``perfbench/calibrate.py``,
  :func:`end_to_end`).
  The report line before the result holds the figures as measured, the
  yardstick and the scale.
* ``--trace 1``: per-layer metrics.  Every second server records spans
  around every layer (``perfbench/spans.py``); the difference between the
  TopL medians of traced and untraced servers is ``trace.overhead_frac``.

``--fingerprint`` prints the hash of the generated inputs and exits;
``--inject-fault answer`` corrupts one answer before it is checked and
``--inject-fault status`` sends one read to a session that does not exist
(both for ``perfbench/selftest.py``).  The run exits 1 when any request
failed: a non-2xx response, a transport error or a wrong answer.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of a run (the reads-hot store, server statistics files).
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("reads-cold", "reads-hot")

sys.path.insert(0, str(SRC))
clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a wrong answer)."""


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class Server:
    """One ``server.py`` process; ``launched`` is when it was started."""

    def __init__(self, traced: bool, work: Path, number: int) -> None:
        self.stats_path = work / f"server-{number}.json"
        command = [sys.executable, str(HERE / "server.py"), "--out", str(self.stats_path)]
        if traced:
            command.append("--trace")
        self.launched = clock()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.kill()
            raise BenchError(f"server did not start (said {line!r})")
        self.port = int(line.split()[1])
        self.up_s = clock() - self.launched

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> dict:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            self.process.wait(timeout=60)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.kill()
            raise BenchError("server did not stop cleanly") from None
        finally:
            self.process.stdout.close()
        with open(self.stats_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        self.stats_path.unlink()
        return stats

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #
class Checker:
    """Counts requests and failures, comparing answers with the reference replay.

    A failure is a non-2xx response, a transport error or a wrong answer:
    one that differs from the oracle's.
    """

    def __init__(self, inputs, inject_fault) -> None:
        from oracle import ReferenceReplay

        self.replay = ReferenceReplay(inputs.graph_doc, inputs.build_config)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._corrupt = inject_fault == "answer"

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def _document(self, record):
        self.attempted += 1
        if record.status != 200:
            reason = record.error or record.body[:200]
            self._fail(f"{record.kind}: status {record.status} {reason!r}")
            return None
        try:
            return json.loads(record.body)
        except ValueError:
            self._fail(f"{record.kind}: response is not JSON")
            return None

    def build(self, reply: bytes) -> None:
        from oracle import canonical

        self.attempted += 1
        if canonical("build", json.loads(reply)) != self.replay.build:
            self._fail("build summary differs from the reference build")

    def reads(self, records: list) -> None:
        from oracle import canonical

        for record in records:
            document = self._document(record)
            if document is None:
                continue
            got = canonical(record.kind, document)
            if self._corrupt:
                got["epoch"] = -1  # the self-test's deliberately wrong answer
                self._corrupt = False
            if got != self.replay.answer(record.kind, record.key):
                self._fail(f"{record.kind} at epoch {document.get('epoch')} differs")

    def updates(self, keys: list, records: list) -> None:
        """``records`` answered ``keys`` in order on one freshly built server."""
        from oracle import canonical

        for record, expected in zip(records, self.replay.updates(keys)):
            document = self._document(record)
            if document is not None and canonical("update", document) != expected:
                self._fail(f"update at epoch {document.get('epoch')} differs")


# --------------------------------------------------------------------------- #
# the rounds of a run
# --------------------------------------------------------------------------- #
@dataclass
class Chunk:
    start: float
    records: list

    @property
    def seconds(self) -> float:
        done = [r.done for r in self.records]
        return max(done) - self.start if done else 0.0


@dataclass
class Round:
    """One server's share of a run."""

    traced: bool
    setup_s: float = 0.0
    up_s: float = 0.0
    chunks: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    rss_mb: float = 0.0
    gateway: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def window(self) -> list:
        return [record for chunk in self.chunks for record in chunk.records]

    @property
    def timed_updates(self) -> list:
        from workloads import SEED_UPDATES

        return self.updates[SEED_UPDATES:]


def _build_body(inputs, store_path) -> bytes:
    from repro.service.schema import BuildRequest
    from workloads import SESSION

    if store_path is not None:
        request = BuildRequest(session=SESSION, store_path=str(store_path))
    else:
        request = BuildRequest(
            session=SESSION, graph=inputs.graph_doc, config=inputs.build_config, validate=False
        )
    return json.dumps(request.to_json()).encode()


def run_round(number: int, traced: bool, traffic, checker: Checker, work: Path, body: bytes):
    """Set up one server, send it its share of the traffic, and stop it.

    ``traffic`` is the run's :class:`Traffic`, which hands out the timed
    chunks in order.  Returns the :class:`Round` and the kernel tier the
    server reports.
    """
    import httpload
    from workloads import CHUNKS_PER_ROUND, ROUNDS, UPDATE_ROUNDS

    inputs = traffic.inputs
    result = Round(traced)
    server = Server(traced, work, number)
    try:
        status, reply = asyncio.run(httpload.call(server.port, "POST", "/v1/build", body))
        result.setup_s = clock() - server.launched
        result.up_s = server.up_s
        if status != 200:
            raise BenchError(f"build returned {status}: {reply[:300]!r}")
        checker.build(reply)
        status, reply = asyncio.run(httpload.call(server.port, "GET", "/v1/health"))
        kernel_tier = str(json.loads(reply)["sessions"][0]["engine"]["kernels"]["active"])
        checker.reads(asyncio.run(httpload.closed_loop(server.port, inputs.warmup)))
        for _ in range(CHUNKS_PER_ROUND):
            # The load generator must not add pauses of its own to the latencies.
            gc.collect()
            gc.disable()
            try:
                start = clock()
                records = asyncio.run(traffic.send(server.port))
            finally:
                gc.enable()
            result.chunks.append(Chunk(start, records))
            # Checking between chunks also spreads the timed chunks over the run.
            checker.reads(records)
        if number >= ROUNDS - UPDATE_ROUNDS:
            result.updates = asyncio.run(httpload.closed_loop(server.port, inputs.updates))
        result.rss_mb = server.peak_rss_mb()
        stats = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    result.gateway = stats["gateway"]
    result.spans = stats["spans"]
    return result, kernel_tier


class Traffic:
    """Hands out the timed chunks of a workload's read traffic in order."""

    def __init__(self, inputs, seconds: float) -> None:
        from workloads import CHUNKS

        self.inputs = inputs
        self._closed = iter(inputs.closed)
        self._schedules = iter(inputs.schedules)
        self._chunk_seconds = seconds / CHUNKS

    def send(self, port: int):
        import httpload

        if self.inputs.closed:
            return httpload.closed_loop(port, self._closed, self._chunk_seconds)
        return httpload.open_loop(port, next(self._schedules), self.inputs.connections)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tail(values: list, q: int) -> float:
    """Median over consecutive chunks of ``values`` of their ``q``-th percentile.

    A chunk holds enough samples to put ten beyond its percentile.
    ``values`` are in the order the requests were sent, so a stretch in which
    the machine ran slow moves one chunk's percentile, not the result.
    """
    chunks = max(1, int(len(values) * (100 - q) / 100) // 10)
    size = len(values) // chunks
    return _median(
        [_percentile(values[i * size : (i + 1) * size], q) for i in range(chunks)]
    )


def _latencies_ms(records: list, kind: str) -> list:
    """Latencies of the successful ``kind`` requests; there must be some."""
    values = [r.latency * 1000.0 for r in records if r.kind == kind and r.status == 200]
    if not values:
        raise BenchError(f"no successful {kind} request to time")
    return values


def end_to_end(rounds: list, scales: dict, closed: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, with times scaled to the reference machine
    (see :mod:`calibrate`), and the same figures as measured.

    Set-up and updates keep the server busy, and so do a closed loop's
    reads: they take the sustained yardstick's scale.  An open loop's reads
    take the bursts' scale, and its throughput is not scaled, because its
    schedule sets it on any machine that keeps up.
    """
    window = [record for run in rounds for record in run.window]
    topl = _latencies_ms(window, "topl")
    dtopl = _latencies_ms(window, "dtopl")
    updates = _latencies_ms([r for run in rounds for r in run.timed_updates], "update")
    completed = sum(1 for r in window if r.status == 200)
    seconds = sum(chunk.seconds for run in rounds for chunk in run.chunks)
    busy = scales["sustained"]
    reads = busy if closed else scales["bursts"]
    # name: (value as measured, scale, unit); ``setup_s`` is scaled as well,
    # but the benchmark format fixes its unit as s.
    values = {
        "setup_s": (_median([run.setup_s for run in rounds]), busy, "s"),
        "server_rss_mb": (max(run.rss_mb for run in rounds), 1.0, "MB"),
        "topl_p50_ms": (_median(topl), reads, "ref_ms"),
        "topl_p90_ms": (_tail(topl, 90), reads, "ref_ms"),
        "dtopl_p50_ms": (_median(dtopl), reads, "ref_ms"),
        "update_p50_ms": (_median(updates), busy, "ref_ms"),
        "ops_per_s": (completed / seconds, 1.0 / busy if closed else 1.0, "1/ref_s"),
    }
    metrics = {
        name: {"value": value * scale, "unit": unit}
        for name, (value, scale, unit) in values.items()
    }
    return metrics, {name: value for name, (value, _, _) in values.items()}


def _traced_spans(rounds: list) -> tuple[list, list, set]:
    """Every span of the traced servers, the ones inside timed chunks, and
    the request ids of the timed updates.

    Span and request ids restart in every server, so requests become
    ``(server number, id)`` pairs.
    """
    import spans as spanlib
    from workloads import SEED_UPDATES

    every, region, timed_updates = [], [], set()
    for number, run in enumerate(rounds):
        spans = spanlib.load(run.spans)
        for span in spans:
            span.request = (number, span.request)
        every += spans
        chunks = [(chunk.start, chunk.start + chunk.seconds) for chunk in run.chunks]
        region += [s for s in spans if any(a <= s.start <= b for a, b in chunks)]
        updates = sorted((s for s in spans if s.name == "facade.update"), key=lambda s: s.start)
        timed_updates |= {s.request for s in updates[SEED_UPDATES:]}
    return every, region, timed_updates


def per_layer(traced: list, untraced: list, parallelism: float, failed_frac: float) -> dict:
    every, region, timed_updates = _traced_spans(traced)
    by_name: dict = {}
    for span in region:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total_ms(name):
        return sum(s.duration for s in named(name)) * 1000.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    build_requests = {s.request for s in every if s.name == "facade.build"}

    def build_s(name):
        durations = [s.duration for s in every if s.name == name and s.request in build_requests]
        return _median(durations)

    queries = named("topl.query")
    executed = len(queries) or 1
    query_stats = [s.extra for s in queries if s.extra]
    answers = named("serve.answer")
    hits = sum(1 for s in answers if not s.children)
    prop_hits = sum(e["prop_hits"] for e in query_stats)
    prop_lookups = prop_hits + sum(e["prop_misses"] for e in query_stats)
    examined = sum(e["examined"] for e in query_stats)
    seeds = named("seed.extract")
    greedy = named("dtopl.greedy")
    # The timed updates, without the seeding batch each server starts with.
    update_spans = [s for s in every if s.request in timed_updates]
    applies = [s for s in update_spans if s.name == "dynamic.apply"]
    updates = len(applies) or 1

    def update_ms(name):
        return sum(s.duration for s in update_spans if s.name == name) * 1000.0 / updates

    reports = [s.extra for s in sorted(applies, key=lambda s: s.start) if s.extra]
    reads = [s for s in region if s.name in ("facade.topl", "facade.dtopl")]

    window = [record for run in traced for record in run.window]
    read_records = [r for r in window if r.kind in ("topl", "dtopl") and r.status == 200]
    overhead = [
        (r.done - r.sent - json.loads(r.body)["elapsed_seconds"]) * 1000.0
        for r in read_records
    ]
    requests = len(named("facade.handle_json")) or 1
    late = [(r.sent - r.due) * 1000.0 for r in window]
    untraced_p50 = _median(_latencies_ms([r for run in untraced for r in run.window], "topl"))
    traced_p50 = _median(_latencies_ms(window, "topl"))

    values = {
        "agateway.overhead_p50_ms": (_median(overhead), "ms"),
        "agateway.coalesced": (sum(run.gateway.get("coalesced", 0) for run in traced), "count"),
        "agateway.rejected": (sum(run.gateway.get("rejected", 0) for run in traced), "count"),
        "agateway.up_s": (_median([run.up_s for run in traced]), "s"),
        "schema.decode_ms": (
            (total_ms("schema.loads") + total_ms("schema.decode")) / requests, "ms"),
        "schema.encode_ms": (
            (total_ms("schema.encode") + total_ms("schema.dumps")) / requests, "ms"),
        "schema.response_bytes": (mean([len(r.body) for r in read_records]), "bytes"),
        "facade.topl_ms": (_median([s.duration * 1e3 for s in named("facade.topl")]), "ms"),
        "facade.dtopl_ms": (_median([s.duration * 1e3 for s in named("facade.dtopl")]), "ms"),
        "facade.update_ms": (
            _median([s.duration * 1e3 for s in update_spans if s.name == "facade.update"]),
            "ms"),
        "facade.build_s": (build_s("facade.build"), "s"),
        "facade.wait_ms": (mean([s.self_time * 1e3 for s in reads]), "ms"),
        "serve.answer_ms": (_median([s.duration * 1e3 for s in answers]), "ms"),
        "serve.result_hit_rate": (hits / len(answers) if answers else 0.0, "frac"),
        "serve.propagation_hit_rate": (
            prop_hits / prop_lookups if prop_lookups else 0.0, "frac"),
        "topl.self_ms": (mean([s.self_time * 1e3 for s in queries]), "ms"),
        "topl.visited_index_nodes": (mean([e["visited"] for e in query_stats]), "count"),
        "topl.candidates_examined": (mean([e["examined"] for e in query_stats]), "count"),
        "topl.communities_scored": (mean([e["scored"] for e in query_stats]), "count"),
        "topl.pruned_frac": (
            1.0 - sum(e["scored"] for e in query_stats) / examined if examined else 0.0,
            "frac"),
        "topl.early_stop_frac": (mean([float(e["early"]) for e in query_stats]), "frac"),
        "traversal.hop_subgraph_ms": (total_ms("traversal.hop_subgraph") / executed, "ms"),
        "traversal.hop_subgraph_calls": (
            len(named("traversal.hop_subgraph")) / executed, "count"),
        "seed.extract_ms": (total_ms("seed.extract") / executed, "ms"),
        "seed.extract_calls": (len(seeds) / executed, "count"),
        "seed.nonempty_frac": (
            sum(1 for s in seeds if s.extra) / len(seeds) if seeds else 0.0, "frac"),
        "propagate.ms": (total_ms("propagate") / executed, "ms"),
        "propagate.calls": (len(named("propagate")) / executed, "count"),
        "dtopl.greedy_ms": (mean([s.duration * 1e3 for s in greedy]), "ms"),
        "dtopl.increment_evaluations": (
            mean([s.extra["increments"] for s in greedy if s.extra]), "count"),
        "dynamic.apply_ms": (update_ms("dynamic.apply"), "ms"),
        "dynamic.truss_ms": (update_ms("dynamic.truss"), "ms"),
        "dynamic.affected_ms": (update_ms("dynamic.affected"), "ms"),
        "dynamic.refresh_ms": (update_ms("dynamic.refresh"), "ms"),
        "index.patch_ms": (update_ms("index.patch"), "ms"),
        "fastgraph.compact_ms": (update_ms("fastgraph.compact"), "ms"),
        "dynamic.affected_vertices": (mean([e["affected"] for e in reports]), "count"),
        "dynamic.rebuilds": (sum(1 for e in reports if e["mode"] == "rebuild"), "count"),
        "dynamic.compactions": (sum(1 for e in reports if e["compacted"]), "count"),
        "dynamic.final_dirt_ratio": (reports[-1]["dirt"] if reports else 0.0, "frac"),
        "index.precompute_s": (build_s("index.precompute"), "s"),
        "index.tree_s": (build_s("index.tree"), "s"),
        "store.attach_s": (build_s("store.attach"), "s"),
        "loadgen.late_p99_ms": (_percentile(late, 99), "ms"),
        "loadgen.effective_parallelism": (parallelism, "x"),
        "loadgen.failed_frac": (failed_frac, "frac"),
        "trace.overhead_frac": ((traced_p50 - untraced_p50) / untraced_p50, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def _environment(parallelism: float, kernel_tier: str, yardstick: dict) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_tier": kernel_tier,
        "effective_parallelism": round(parallelism, 3),
        "yardstick": yardstick,
    }


def _pack_store(inputs, work: Path) -> Path:
    """Build the reads-hot session offline and pack it (outside any timing)."""
    from repro.core.config import EngineConfig
    from repro.core.engine import InfluentialCommunityEngine
    from repro.graph.io import graph_from_dict
    from repro.store import pack_store

    config = dict(inputs.build_config)
    config["thresholds"] = tuple(config["thresholds"])
    engine = InfluentialCommunityEngine.build(
        graph_from_dict(inputs.graph_doc), config=EngineConfig(**config), validate=False
    )
    path = work / "reads-hot.repro-store"
    pack_store(engine, path)
    return path


def _break_one_request(inputs) -> None:
    """Aim the first timed read at a session that does not exist (a 404)."""
    from workloads import Request

    def broken(request):
        document = json.loads(request.body)
        document["session"] = "no-such-session"
        return Request(request.kind, request.key, json.dumps(document).encode())

    if inputs.closed:
        inputs.closed[0] = broken(inputs.closed[0])
    else:
        due, request = inputs.schedules[0][0]
        inputs.schedules[0][0] = (due, broken(request))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true")
    parser.add_argument("--inject-fault", choices=("answer", "status"))
    args = parser.parse_args(argv)
    # A terminated run still runs its cleanup, which stops the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    import calibrate
    from workloads import ROUNDS, fingerprint, make_inputs

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    if args.fingerprint:
        print(fingerprint(inputs))
        return 0
    if args.inject_fault == "status":
        _break_one_request(inputs)

    parallelism = calibrate.effective_parallelism()
    # The yardstick is read while no server runs, so the program cannot move it.
    modes = ("sustained",) if inputs.closed else ("sustained", "bursts")
    readings = {mode: [calibrate.yardstick_ms(mode)] for mode in modes}
    checker = Checker(inputs, args.inject_fault)
    traffic = Traffic(inputs, args.seconds)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = []
    try:
        store_path = _pack_store(inputs, work) if args.workload == "reads-hot" else None
        body = _build_body(inputs, store_path)
        for number in range(ROUNDS):
            traced = bool(args.trace) and number % 2 == 1
            run, kernel_tier = run_round(number, traced, traffic, checker, work, body)
            rounds.append(run)
            for mode in modes:
                readings[mode].append(calibrate.yardstick_ms(mode))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    keys = [request.key for request in inputs.updates]
    for run in rounds:
        if run.updates:
            checker.updates(keys, run.updates)

    failed_frac = checker.failed / checker.attempted
    yardstick = {mode: statistics.median(values) for mode, values in readings.items()}
    scales = {mode: calibrate.YARDSTICK_REFERENCE_MS[mode] / ms for mode, ms in yardstick.items()}
    measured = None
    traced = [run for run in rounds if run.traced]
    untraced = [run for run in rounds if not run.traced]
    if args.trace:
        import spans as spanlib

        metrics = per_layer(traced, untraced, parallelism, failed_frac)
        layer_report = spanlib.self_time_report(_traced_spans(traced)[0])
    else:
        metrics, measured = end_to_end(rounds, scales, bool(inputs.closed))
        layer_report = None
    window = [record for run in untraced for record in run.window]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(
            parallelism,
            kernel_tier,
            {mode: {"ms": round(ms, 4), "scale": round(scales[mode], 4)}
             for mode, ms in yardstick.items()},
        ),
        "measured": measured,
        "samples": {
            "topl": sum(1 for r in window if r.kind == "topl"),
            "dtopl": sum(1 for r in window if r.kind == "dtopl"),
            "update": sum(len(run.timed_updates) for run in untraced),
        },
        "problems": checker.problems,
        "self_time": layer_report,
    }
    print(json.dumps({"report": report}))
    correct = checker.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
