"""Workload ``serve-mix``: a closed-loop query mix against ``repro serve``.

Set-up launches ``STORES`` ``millisampler-repro serve`` processes, each
on fresh store and cache directories and its own store seed, and builds
both regions' shard stores through ``/v1/dataset``; each set-up time runs
from launch until both stores answer.  Every (store, query) target is
then fetched once, untimed, so page caches are warm and each target has a
reference body.  Spreading the load over several stores averages out how
much one seed's dataset weighs.

The load is a closed loop of ``CLIENTS`` connections from this one
process: each client sends a query, waits for the last byte of the
reply, and then draws its next target uniformly with its own seeded
generator, until the run's time is up.  No generation happens in
this phase: the work is shard memmap loads, streaming folds, result
serialization and the NDJSON transport.  ``burst_contention`` answers
are orders of magnitude larger than the rest, so the p99 measures
serialization and transport while the p50 measures the fold path.

The traced run uses the first store only: half its time on a server
process, half on ``QueryService`` and ``ReproServer`` started in this
process with the layers patched (see ``_install``); generation in the
pool worker is attributed by ``paper-run``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from perfbench import common
from perfbench.tracer import Tracer

RACKS = 10
RUNS_PER_RACK = 4
CLIENTS = 2
REQUEST_THREADS = 2
#: Servers started per run, each on its own store seed; set-up is timed
#: for each and the load is spread over all of them.
STORES = 3
REGIONS = ("RegA", "RegB")
FIGURES = ("hourly_boxes", "run_contention", "burst_contention", "profiles")
MIX = tuple(
    path
    for region in REGIONS
    for path in [f"/v1/table1?region={region}"]
    + [f"/v1/figure?name={name}&region={region}" for name in FIGURES]
)
TIMEOUT_S = 60

_RESULT_TAIL = b'"event": "result"}'
_END = b"\r\n0\r\n\r\n"


class QueryFailed(Exception):
    pass


def fetch(port: int, path: str) -> tuple[float, bytes, int]:
    """GET ``path``; returns (seconds from connect to last byte, the
    terminal NDJSON line, response bytes).  Raises QueryFailed unless the
    stream ends in a ``result`` event."""
    started = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        pieces = []
        tail = b""
        while True:
            piece = sock.recv(1 << 20)
            if not piece:
                break
            pieces.append(piece)
            tail = (tail + piece)[-len(_END) - 8:]
            if tail.endswith(_END):
                break
        elapsed = time.perf_counter() - started
    response = b"".join(pieces)
    return elapsed, _terminal_line(response, path), len(response)


def _terminal_line(response: bytes, path: str) -> bytes:
    head, sep, body = response.partition(b"\r\n\r\n")
    if not sep or not head.startswith(b"HTTP/1.1 200"):
        raise QueryFailed(f"{path}: bad response head {head[:60]!r}")
    lines = []
    offset = 0
    while True:
        eol = body.index(b"\r\n", offset)
        size = int(body[offset:eol], 16)
        if size == 0:
            break
        lines.append(body[eol + 2 : eol + 2 + size])
        offset = eol + 4 + size
    last = b"".join(lines).rstrip(b"\n").rsplit(b"\n", 1)[-1]
    if not last.endswith(_RESULT_TAIL):
        raise QueryFailed(f"{path}: stream ended in {last[-120:]!r}")
    return last


def get_json(port: int, path: str) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
        data = b""
        while piece := sock.recv(1 << 16):
            data += piece
    return json.loads(data.partition(b"\r\n\r\n")[2])


# -- the two ways of running the server ---------------------------------------


class ServerProcess:
    """``millisampler-repro serve`` as a child process."""

    def __init__(self, seed: int, tmp: common.TempRoot, env: dict) -> None:
        argv = [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--racks", str(RACKS),
            "--runs-per-rack", str(RUNS_PER_RACK), "--seed", str(seed),
            "--store-dir", tmp.fresh("store"), "--cache-dir", tmp.fresh("cache"),
            "--jobs", "1", "--request-threads", str(REQUEST_THREADS),
        ]
        # A session of its own, so a hung server can be killed together
        # with its pool worker.
        self.proc = subprocess.Popen(argv, env=env, cwd=common.ROOT,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self._lines: list[bytes] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(TIMEOUT_S):
            self.stop()
            raise RuntimeError("repro serve did not start listening")
        match = re.search(rb"http://127\.0\.0\.1:(\d+)", b"".join(self._lines))
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve: {b''.join(self._lines)[-500:]!r}")
        self.port = int(match.group(1))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if b"listening on" in line:
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server drained cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join(TIMEOUT_S)
        return self.proc.returncode == 0 and any(
            b"drained cleanly" in line for line in self._lines
        )


class ServerInProcess:
    """``QueryService`` + ``ReproServer`` on a loop thread of this process."""

    def __init__(self, seed: int, tmp: common.TempRoot) -> None:
        from repro.config import FleetConfig
        from repro.service import QueryService, ReproServer, ServiceConfig

        # The service forks its pool worker here, before any thread of
        # ours exists.
        service = QueryService(ServiceConfig(
            fleet=FleetConfig(racks_per_region=RACKS, runs_per_rack=RUNS_PER_RACK,
                              seed=seed, jobs=1),
            cache_dir=tmp.fresh("cache"), store_dir=tmp.fresh("store"),
            request_threads=REQUEST_THREADS,
        ))
        self.server = ReproServer(service, host="127.0.0.1", port=0)
        self._loop = None
        started = threading.Event()

        def serve() -> None:
            import asyncio

            async def main() -> None:
                self._loop = asyncio.get_running_loop()
                await self.server.start()
                started.set()
                await self.server.serve_forever(install_signals=False)

            asyncio.run(main())

        self._thread = threading.Thread(target=serve, name="bench-server")
        self._thread.start()
        if not started.wait(TIMEOUT_S):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.bound_port

    def stop(self) -> bool:
        self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(TIMEOUT_S)
        return not self._thread.is_alive()


# -- load -------------------------------------------------------------------


def _setup(make_server):
    """Launch a server and build both regions' stores; (server, seconds)."""
    started = time.perf_counter()
    server = make_server()
    try:
        for region in REGIONS:
            fetch(server.port, f"/v1/dataset?region={region}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _closed_loop(targets, seed, seconds, references, out, tag_requests=False):
    """CLIENTS clients, each waiting for its reply before drawing the next
    (store, query) target; returns [(target, latency s, bytes, request id)]."""
    samples: list[tuple[tuple, float, int, str]] = []
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        draw = random.Random(seed * 1000 + index)
        sequence = 0
        while time.perf_counter() < deadline:
            target = draw.choice(targets)
            _store, port, path = target
            request_id = f"{index}-{sequence}"
            sequence += 1
            url = f"{path}&rid={request_id}" if tag_requests else path
            with lock:
                out.attempted += 1
            try:
                latency, body, size = fetch(port, url)
            except (OSError, QueryFailed, ValueError) as exc:
                with lock:
                    out.failed += 1
                    out.check(False, f"{path}: {exc}")
                continue
            with lock:
                if not out.check(body == references[target],
                                 f"{path}: body differs from the first answer"):
                    out.failed += 1
                samples.append((target, latency, size, request_id))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def _references(servers, seed: int, out: common.Outcome):
    """Every (store, query) target, fetched once untimed: warms the page
    cache and gives each target its reference body."""
    targets = [(store, server.port, path)
               for store, server in enumerate(servers) for path in MIX]
    references = {target: fetch(target[1], target[2])[1] for target in targets}
    if seed == common.DEFAULT_SEED:
        # One pinned digest per store, over its answer to every query.
        for store, pinned in enumerate(common.pinned_digest("serve-mix")[:len(servers)]):
            found = common.digest({path: hashlib.sha256(body).hexdigest()
                                   for (s, _port, path), body in references.items()
                                   if s == store})
            out.check(found == pinned, f"store {store}: result digest {found} != pinned {pinned}")
    return targets, references


def store_seed(seed: int, index: int) -> int:
    """The ``--seed`` of a run's ``index``-th store."""
    return seed * 1000 + index


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    common.import_program()
    out = common.Outcome()
    with common.TempRoot("serve-mix") as tmp:
        env = common.child_env(tmp.path)
        if trace:
            _traced(seed, seconds, tmp, env, out)
            return out
        servers, setups = [], []
        try:
            for index in range(STORES):
                server, took = _setup(lambda: ServerProcess(store_seed(seed, index), tmp, env))
                servers.append(server)
                setups.append(took)
            targets, references = _references(servers, seed, out)
            started = time.perf_counter()
            samples = _closed_loop(targets, seed, seconds, references, out)
            measured = time.perf_counter() - started
            out.kernel = get_json(servers[0].port, "/metrics")["config"]["kernel"]
            rss = [server.peak_rss_mb() for server in servers]
        finally:
            for server in servers:
                out.check(server.stop(), "repro serve did not drain cleanly")
    latencies = [s[1] for s in samples]
    out.check(len(latencies) >= 1000,
              f"only {len(latencies)} queries: p99 needs 10 samples beyond it")
    out.put("setup_s", common.median(setups), "s")
    out.put("latency_p50_ms", common.median(latencies) * 1e3, "ms")
    out.put("latency_p99_ms", common.percentile(latencies, 99) * 1e3, "ms")
    out.put("requests_per_s", len(latencies) / measured, "1/s")
    out.put("peak_rss_mb", common.median(rss), "MB")
    return out


# -- traced run -------------------------------------------------------------

#: Request id of the HTTP request a server task is handling.
_REQUEST = contextvars.ContextVar("bench_request", default=None)

#: (program telemetry timer regex, benchmark span, how they differ).
CROSS_CHECK = (
    (r"^serve/[a-z0-9]+$", "service.execute", "same scope"),
    (r"(^|/)shards/build/Reg[AB]$", "fleet.shards.build", "same scope"),
    (r"(^|/)shards/load$", "fleet.shards.load",
     "the timer also covers summary loads of /v1/dataset"),
    (r"(^|/)shards/merge$", "analysis.streaming.fold",
     "the timer covers merge only; the span adds add_columns and finalize"),
)


def _install(tracer: Tracer, stream_spans: dict) -> None:
    from repro.analysis import streaming
    from repro.fleet import shards
    from repro.service import core, server

    original_route = server.ReproServer._route

    async def route(self, writer, path, params):
        _REQUEST.set(params.get("rid"))
        return await original_route(self, writer, path, params)

    tracer.patch(server.ReproServer, "_route", route)

    # QueryService.stream: server-side time of one request, from the
    # call to the last event; its steps run on executor threads.
    original_stream = core.QueryService.stream

    def stream(self, query):
        request_id = _REQUEST.get()
        inner = original_stream(self, query)

        def steps():
            started = time.perf_counter()
            try:
                while True:
                    with tracer.request(request_id):
                        try:
                            event = next(inner)
                        except StopIteration:
                            return
                    yield event
            finally:
                ended = time.perf_counter()
                tracer.record("service.stream", started, ended, request_id)
                stream_spans[request_id] = ended - started

        return steps()

    tracer.patch(core.QueryService, "stream", stream)

    # The leader's flight runs on a request thread: carry the request id.
    flights: dict[int, object] = {}
    original_acquire = core.QueryService._acquire_flight

    def acquire(self, query):
        flight, leader = original_acquire(self, query)
        if leader:
            flights[id(flight)] = tracer.current_request()
        return flight, leader

    tracer.patch(core.QueryService, "_acquire_flight", acquire)
    original_run_flight = core.QueryService._run_flight

    def run_flight(self, flight, query):
        with tracer.request(flights.pop(id(flight), None)), tracer.span("service.execute"):
            return original_run_flight(self, flight, query)

    tracer.patch(core.QueryService, "_run_flight", run_flight)

    tracer.wrap([shards.RegionShardStore], "build", "fleet.shards.build")
    tracer.wrap_generator(shards.ShardedRegionDataset, "iter_frames", "fleet.shards.load")
    for accumulator in (streaming.Table1Accumulator, streaming.RackProfileAccumulator,
                        streaming.HourlyBoxAccumulator, streaming.RunContentionAccumulator,
                        streaming.BurstContentionAccumulator):
        for method in ("add_columns", "merge", "finalize"):
            tracer.wrap([accumulator], method, "analysis.streaming.fold")
    for name in dir(core):
        if name.startswith("serialize_"):
            tracer.wrap([core], name, "service.serialize")


def _traced(seed, seconds, tmp, env, out) -> None:
    """Half the time untraced (child process), half traced (in-process),
    both on the run's first store."""
    dataset_seed = store_seed(seed, 0)
    server, _ = _setup(lambda: ServerProcess(dataset_seed, tmp, env))
    try:
        targets, references = _references([server], seed, out)
        plain = _closed_loop(targets, seed, seconds / 2, references, out)
    finally:
        out.check(server.stop(), "repro serve did not drain cleanly")

    tracer = Tracer()
    stream_spans: dict[str, float] = {}
    _install(tracer, stream_spans)
    try:
        server, setup_s = _setup(lambda: ServerInProcess(dataset_seed, tmp))
        try:
            # The untraced server's answers are the references here too.
            targets = [(0, server.port, path) for path in MIX]
            references = {(0, server.port, path): body
                          for (_, _, path), body in references.items()}
            for target in targets:
                fetch(target[1], target[2])
            first_span = len(tracer.spans)
            traced = _closed_loop(targets, seed, seconds / 2, references, out,
                                  tag_requests=True)
            metrics_doc = get_json(server.port, "/metrics")
        finally:
            out.check(server.stop(), "in-process server did not stop")
    finally:
        tracer.restore()
    out.kernel = metrics_doc["config"]["kernel"]
    tracer.dump(common.spans_path(f"serve-mix-seed{seed}"))

    setup_tracer = Tracer()
    setup_tracer.spans = tracer.spans[:first_span]
    load_tracer = Tracer()
    load_tracer.spans = tracer.spans[first_span:]
    n = len(traced)
    self_times = load_tracer.self_times()
    latencies = {rid: latency for _path, latency, _size, rid in traced}
    server_ms = [stream_spans[rid] * 1e3 for rid in latencies if rid in stream_spans]
    transport_ms = [(latencies[rid] - stream_spans[rid]) * 1e3
                    for rid in latencies if rid in stream_spans]
    out.check(len(server_ms) == n, "some requests have no server-side span")
    timers = metrics_doc["telemetry"]["timers"]
    service = metrics_doc["service"]

    def per_query(name):
        return self_times.get(name, 0.0) / n

    out.put("service.server_query_ms", common.median(server_ms), "ms")
    out.put("service.transport_ms", common.median(transport_ms), "ms")
    out.put("fleet.shards.load_s", per_query("fleet.shards.load"), "s")
    out.put("analysis.streaming.fold_s", per_query("analysis.streaming.fold"), "s")
    out.put("service.serialize_s", per_query("service.serialize"), "s")
    out.put("service.response_bytes", sum(s[2] for s in traced) / n, "bytes")
    out.put("service.coalesced_frac",
            service["queries_coalesced"] / max(service["requests"], 1), "frac")
    out.put("fleet.shards.build_s", setup_tracer.self_times().get("fleet.shards.build", 0.0), "s")
    out.put("fleet.shards.write_s",
            sum(t["total_s"] for name, t in timers.items() if name.endswith("shards/write")), "s")
    # Leaf layers of a request: the transport, the query body's own code
    # and the load/fold/serialize layers; the rest of the server-side
    # stream is waiting (executor hops, queues).
    attributed = sum(transport_ms) / 1e3 + sum(
        v for k, v in self_times.items() if k != "service.stream"
    )
    out.put("unattributed_frac", 1 - attributed / sum(latencies.values()), "frac")
    out.put("trace_overhead_frac",
            common.median([s[1] for s in traced]) / common.median([s[1] for s in plain]) - 1,
            "frac")

    out.report.append(f"traced queries: {n}; untraced: {len(plain)}; traced setup {setup_s:.2f}s")
    out.report.append("layer self time per query (ms):")
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        out.report.append(f"  {name:<32s} {value / n * 1e3:9.3f}")
    out.report.append("program telemetry timer vs benchmark spans (s, whole traced server):")
    totals = tracer.totals()
    for pattern, span, note in CROSS_CHECK:
        program = sum(t["total_s"] for name, t in timers.items() if re.search(pattern, name))
        out.report.append(f"  {pattern:<28s} {program:9.3f}  vs {totals.get(span, 0.0):9.3f}"
                          f"  {span} ({note})")
