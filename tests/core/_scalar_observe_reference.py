"""Per-packet numpy-scalar ``observe``: the test oracle for the fold.

:class:`ScalarObserveReference` is a :class:`Millisampler` whose
``observe`` writes every counter and sketch bit eagerly, one numpy
scalar ``+=`` / ``|=`` per packet through ``CounterSet.add`` with its
bounds checks, exactly as the sampler did before its writes were
deferred to column batches.  Its arrays are never pending, so the
inherited ``read_run``/``sketch`` fold nothing.  :class:`ReferenceTap`
is the matching tap: one :class:`PacketObservation` per packet.

The equivalence tests and ``test_bench_sampler_tap`` compare the live
sampler against these, so the fold keeps an independent oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import BYTE_COUNTER_KINDS, CounterKind
from repro.core.millisampler import (
    Direction,
    Millisampler,
    PacketObservation,
    SamplerState,
)
from repro.core.sketch import hash_flow_key
from repro.errors import SamplerError
from repro.simnet.clock import HostClock
from repro.simnet.tap import rss_cpu


class ScalarObserveReference(Millisampler):
    """A sampler that applies every packet's writes immediately."""

    def observe(self, obs: PacketObservation) -> None:
        """Process one packet observation at the tc hook."""
        if self._state is SamplerState.DETACHED:
            raise SamplerError("detached filter cannot observe packets")
        if self._state is SamplerState.DISABLED:
            self.stats.packets_skipped_disabled += 1
            self.stats.cpu_ns += self.cost_model.per_packet_disabled_ns
            return

        if self._start_time is None:
            # The first packet after enabling marks the run start.
            self._start_time = obs.time

        bucket = int((obs.time - self._start_time) / self.sampling_interval)
        if bucket < 0:
            raise SamplerError("observation precedes run start (non-monotonic clock)")
        if bucket >= self.buckets:
            # Past the last bucket: clear the enabled flag as the
            # completion signal and drop the packet from accounting.
            self._state = SamplerState.DISABLED
            self.stats.runs_completed += 1
            self.stats.cpu_ns += self.cost_model.per_packet_disabled_ns
            return

        cpu = obs.cpu % self.cpus
        if obs.direction is Direction.INGRESS:
            self._counters.add(CounterKind.IN_BYTES, cpu, bucket, obs.size)
            if obs.ecn_marked:
                self._counters.add(CounterKind.IN_ECN_BYTES, cpu, bucket, obs.size)
            if obs.retransmit:
                self._counters.add(CounterKind.IN_RETX_BYTES, cpu, bucket, obs.size)
        else:
            self._counters.add(CounterKind.OUT_BYTES, cpu, bucket, obs.size)
            if obs.retransmit:
                self._counters.add(CounterKind.OUT_RETX_BYTES, cpu, bucket, obs.size)
        if self.count_flows:
            bit = hash_flow_key(obs.flow_key)
            self._sketch_words[cpu, bucket, bit >> 6] |= np.uint64(1 << (bit & 63))

        self.stats.packets_processed += 1
        self.stats.cpu_ns += (
            self.cost_model.per_packet_full_ns
            if self.count_flows
            else self.cost_model.per_packet_no_flows_ns
        )

    def observe_packet(self, *args, **kwargs) -> None:
        raise AssertionError("the reference only takes PacketObservations")


class ReferenceTap:
    """The tap as it was: one PacketObservation per packet."""

    def __init__(self, sampler: Millisampler, clock: HostClock | None = None) -> None:
        self.sampler = sampler
        self.clock = clock or HostClock()
        self._flow_cache: dict = {}

    def on_packet(self, packet, direction: Direction, now: float) -> None:
        if self.sampler.state.value == "detached":
            return
        cached = self._flow_cache.get(packet.flow)
        if cached is None:
            cached = (packet.flow.as_tuple(), rss_cpu(packet, self.sampler.cpus))
            self._flow_cache[packet.flow] = cached
        flow_key, cpu = cached
        self.sampler.observe(
            PacketObservation(
                time=self.clock.read(now),
                direction=direction,
                size=packet.size,
                flow_key=flow_key,
                cpu=cpu,
                ecn_marked=packet.ecn_ce,
                retransmit=packet.retransmit,
            )
        )


def folded_sketch_words(sampler: Millisampler) -> np.ndarray:
    """The per-CPU sketch words, read after folding pending writes."""
    sampler._fold()
    return sampler._sketch_words


def folded_counters(sampler: Millisampler) -> dict[CounterKind, np.ndarray]:
    """The per-CPU byte counters, read after folding pending writes."""
    sampler._fold()
    return {kind: sampler._counters[kind]._values for kind in BYTE_COUNTER_KINDS}


def assert_same_sampler_state(expected: Millisampler, actual: Millisampler) -> None:
    """Lifecycle, stats (``cpu_ns`` included, exactly) and every per-CPU
    counter and sketch word agree."""
    assert actual.state is expected.state
    assert actual.start_time == expected.start_time
    assert actual.stats == expected.stats
    want, got = folded_counters(expected), folded_counters(actual)
    for kind in BYTE_COUNTER_KINDS:
        assert want[kind].tobytes() == got[kind].tobytes(), kind
    assert folded_sketch_words(expected).tobytes() == folded_sketch_words(actual).tobytes()
