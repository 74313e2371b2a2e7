"""Workload ``packet-incast``: packet-level DCTCP incast in one rack, with
a Millisampler on every host and a SyncMillisampler collection over the
traffic window, through the public packet-level API.

The traffic is ``ROUNDS`` overlapping ``IncastApp`` rounds onto a few hot
receivers.  Their sizes (fan-in, bytes per sender, initial window) come
from one fixed table, so every seed offers the same load; the seed
decides the arrangement: which round goes to which receiver, from which
senders, and when.  The table is sized so the switch both ECN-marks and
discards (the Figure 19 regime), and every round must complete.

Each unit of work is one scenario: set-up (rack build, traffic
scheduling, the sync request) and then the measured part, from the first
``run_until`` to the run summary, polling every host's sampler agent
every 10 ms as a deployment would.  The run's scenarios each get their
own seed, derived from the run's seed; after the timed part, the first
one runs again and must reproduce its outputs.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import nullcontext

import numpy as np

from perfbench import common
from perfbench.tracer import Tracer

SERVERS = 32
HOT_RECEIVERS = 4
ROUNDS = 24
SAMPLER_BUCKETS = 500
SAMPLER_CPUS = 4
POLL_INTERVAL_S = 10e-3
#: Timed builds for setup_s, after one untimed warm-up build.
SETUP_REPS = 10


def _round_table() -> list[tuple[int, int, int]]:
    """(fan-in, bytes per sender, initial cwnd in segments) per round;
    the same for every seed.  The first round is a full-rack incast whose
    initial windows alone exceed the shared buffer, so every arrangement
    sees discards."""
    draw = np.random.default_rng(20221025)
    return [(SERVERS - 1, 1024 * 1024, 100)] + [
        (int(draw.integers(8, SERVERS)), int(draw.integers(128, 1024)) * 1024,
         int(draw.integers(20, 61)))
        for _ in range(ROUNDS - 1)
    ]


ROUND_TABLE = _round_table()


class _NoTrace:
    """Stands in for the tracer in untraced runs."""

    @staticmethod
    def span(name):
        return nullcontext()


class Scenario:
    """One seeded scenario, built (set-up) and then simulated (measured)."""

    def __init__(self, seed: np.random.SeedSequence) -> None:
        from repro.config import SamplerConfig
        from repro.core.scheduler import RunScheduler
        from repro.core.syncsampler import SyncMillisampler
        from repro.simnet.topology import build_rack
        from repro.workload.flows import IncastApp

        draw = np.random.default_rng(seed)
        config = SamplerConfig(buckets=SAMPLER_BUCKETS, cpus=SAMPLER_CPUS)
        self.rack = build_rack("bench", servers=SERVERS, sampler_config=config,
                               rng=np.random.default_rng(draw.integers(2**32)))
        window = config.buckets * config.sampling_interval
        # The earliest start SyncMillisampler accepts: one run duration.
        self.sync_start = window
        self.end = self.sync_start + window + 0.05
        # Periodic collection resumes one period after the simulated
        # window.  With build_rack's random phase, a periodic run can fall
        # due just after the sync run's scheduled end while that run, which
        # started at the host's first packet, is still recording; poll()
        # then enables a running sampler and raises SamplerError("run
        # already in progress") -- a core defect, left for its own fix.
        for sampled in self.rack.sampled_hosts:
            sampled.scheduler = RunScheduler(
                period=sampled.scheduler.period, run_duration=window,
                first_start=self.end + sampled.scheduler.period,
            )
        self.apps = []
        for index in draw.permutation(ROUNDS):
            fanin, size, cwnd = ROUND_TABLE[index]
            receiver = int(draw.integers(HOT_RECEIVERS))
            others = [h for i, h in enumerate(self.rack.hosts) if i != receiver]
            senders = sorted(draw.choice(len(others), size=fanin, replace=False))
            app = IncastApp([others[i] for i in senders], self.rack.hosts[receiver],
                            bytes_per_sender=size, initial_cwnd_segments=cwnd,
                            segment_bytes=8 * 1024)
            app.start(at_time=self.sync_start + 0.02 + float(draw.uniform(0, 0.7 * window)))
            self.apps.append(app)
        self.sync = SyncMillisampler()
        self.sync_id = self.sync.request_collection(
            self.rack.sampled_hosts, self.rack.name, "RegA", self.sync_start,
            now=self.rack.engine.now,
        )

    def simulate(self, tracer=_NoTrace):
        """Run the traffic, collect the sync run and summarize it."""
        from repro.analysis.summary import summarize_run

        engine = self.rack.engine
        tick = 0
        # Poll times as exact multiples, so a poll lands exactly on the
        # scheduled sync start.
        while engine.now < self.end:
            with tracer.span("simnet.engine.run_until"):
                engine.run_until(min(tick * POLL_INTERVAL_S, self.end))
            with tracer.span("core.sampler.poll"):
                self.rack.poll_samplers()
            tick += 1
        with tracer.span("core.sampler.poll"):
            self.rack.poll_samplers()
        with tracer.span("core.syncsampler.assemble"):
            sync_run = self.sync.assemble(self.sync_id)
        with tracer.span("analysis.summary.summarize_run"):
            return sync_run, summarize_run(sync_run)

    def counts(self) -> dict[str, int]:
        switch = self.rack.switch.counters
        samplers = [host.sampler.stats for host in self.rack.sampled_hosts]
        return {
            "simnet.engine.events": self.rack.engine.events_run,
            "core.sampler.packets": sum(s.packets_processed + s.packets_skipped_disabled
                                        for s in samplers),
            "simnet.switch.ecn_marked_bytes": switch.ecn_marked_bytes,
            "simnet.switch.discard_bytes": switch.discard_bytes,
            "simnet.tcp.retransmissions": sum(
                sender.retransmissions for app in self.apps for sender, _ in app.connections
            ),
        }

    def check(self, sync_run, summary, out: common.Outcome) -> dict | None:
        """Output checks; returns the digest payload when all pass."""
        switch = self.rack.switch.counters
        counts = self.counts()
        passed = all([
            out.check(switch.ingress_bytes == switch.forwarded_bytes + switch.discard_bytes,
                      "switch ingress != forwarded + discarded"),
            out.check(all(app.result.completed == len(app.senders) for app in self.apps),
                      "an incast round did not complete"),
            out.check(counts["simnet.switch.ecn_marked_bytes"] > 0, "no ECN marks"),
            out.check(counts["simnet.switch.discard_bytes"] > 0, "no switch discards"),
            out.check(len(sync_run.runs) == SERVERS, "sync run misses hosts"),
        ])
        if not passed:
            return None
        return {
            "counts": counts,
            "switch": dataclasses.asdict(switch),
            "rounds": [(app.result.finish_time, app.result.total_retransmissions,
                        app.result.total_timeouts) for app in self.apps],
            "contention": dataclasses.asdict(summary.contention),
            "bursts": [dataclasses.asdict(burst) for burst in summary.bursts],
        }


def scenario_seed(seed: int, index: int) -> np.random.SeedSequence:
    """The seed of a run's ``index``-th scenario."""
    return np.random.SeedSequence([seed, index])


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    common.import_program()
    out = common.Outcome()
    # The first build pays for lazy imports, so it is not timed.
    Scenario(scenario_seed(seed, 0))
    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        Scenario(scenario_seed(seed, 0))
        setups.append(time.perf_counter() - started)

    walls, traced_walls, first = [], [], None
    tracer = Tracer()
    started = time.perf_counter()
    while True:
        index = len(walls)
        wall, payload = _timed(seed, index, out)
        walls.append(wall)
        first = payload if index == 0 else first
        if trace:
            # The same scenario traced: the overhead compares equal work,
            # and tracing must not change its outputs.
            wall, traced = _timed(seed, index, out, tracer)
            traced_walls.append(wall)
            _compare(payload, traced, out, "tracing changed a scenario's outputs")
        if time.perf_counter() - started >= seconds:
            break
    measured = time.perf_counter() - started
    if not trace:
        # Determinism: the run's first scenario once more, untimed.
        _compare(first, _timed(seed, 0, out)[1], out,
                 "the same scenario produced different outputs")
    if seed == common.DEFAULT_SEED and first is not None:
        found, pinned = common.digest(first), common.pinned_digest("packet-incast")
        out.check(found == pinned, f"output digest {found} != pinned {pinned}")
    from repro.fleet.kernels import resolve_kernel

    out.kernel = resolve_kernel("auto")

    if trace:
        _layer_metrics(out, tracer, walls, traced_walls, seed)
        return out
    out.put("setup_s", common.median(setups), "s")
    out.put("latency_p50_ms", common.median(walls) * 1e3, "ms")
    out.put("latency_p99_ms", common.percentile(walls, 99) * 1e3, "ms")
    out.put("requests_per_s", len(walls) / measured, "1/s")
    out.put("peak_rss_mb", common.self_peak_rss_mb(), "MB")
    return out


def _timed(seed: int, index: int, out: common.Outcome, tracer: Tracer | None = None):
    """Build and run one scenario; returns (seconds from the first
    ``run_until`` to the summary, the checked outputs or None)."""
    out.attempted += 1
    scenario = Scenario(scenario_seed(seed, index))
    started = time.perf_counter()
    if tracer is None:
        sync_run, summary = scenario.simulate()
    else:
        with tracer.request(index), tracer.span("scenario"):
            sync_run, summary = scenario.simulate(tracer)
    wall = time.perf_counter() - started
    if tracer is not None:
        for name, value in scenario.counts().items():
            tracer.count(name, value)
    payload = scenario.check(sync_run, summary, out)
    if payload is None:
        out.failed += 1
    # Free the scenario before the next one is built, so the peak RSS is
    # one scenario's, not a function of how many fit in the run.
    del scenario, sync_run, summary
    gc.collect()
    return wall, payload


def _compare(first: dict | None, second: dict | None, out: common.Outcome,
             problem: str) -> None:
    """Two runs of one scenario must agree.

    Ephemeral ports come from a process-wide allocator, so a later run
    hashes other 5-tuples into the connection sketch: bursts' connection
    estimates are left out of this comparison (the pinned digest of the
    run's first scenario, which starts from a fresh process, covers them).
    """
    if first is None or second is None:
        return

    def port_free(payload):
        bursts = [{k: v for k, v in b.items() if k != "avg_connections"}
                  for b in payload["bursts"]]
        return {**payload, "bursts": bursts}

    out.check(common.digest(port_free(first)) == common.digest(port_free(second)), problem)


def _layer_metrics(out, tracer, walls, traced_walls, seed) -> None:
    n = len(traced_walls)
    self_times = tracer.self_times()
    tracer.dump(common.spans_path(f"packet-incast-seed{seed}"))
    for metric, span in (("simnet.engine.run_s", "simnet.engine.run_until"),
                         ("core.sampler.poll_s", "core.sampler.poll"),
                         ("core.syncsampler.assemble_s", "core.syncsampler.assemble"),
                         ("analysis.summary.summarize_s", "analysis.summary.summarize_run")):
        out.put(metric, self_times.get(span, 0.0) / n, "s")
    for name in ("simnet.engine.events", "core.sampler.packets",
                 "simnet.switch.ecn_marked_bytes", "simnet.switch.discard_bytes",
                 "simnet.tcp.retransmissions"):
        out.put(name, tracer.counts[name] / n, "bytes" if name.endswith("_bytes") else "count")
    out.put("unattributed_frac", self_times.get("scenario", 0.0) / sum(traced_walls), "frac")
    out.put("trace_overhead_frac",
            common.median(traced_walls) / common.median(walls) - 1, "frac")
    out.report.append(f"traced scenarios: {n}; untraced: {len(walls)}")
    out.report.append("layer self time per scenario (s):")
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        out.report.append(f"  {name:<36s} {value / n:9.4f}")
    out.report.append(
        f"simulated events per second (untraced): "
        f"{tracer.counts['simnet.engine.events'] / n / common.median(walls):.0f}"
    )
