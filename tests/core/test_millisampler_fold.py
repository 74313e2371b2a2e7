"""Deferred counter/sketch writes vs the per-packet scalar oracle.

The live sampler runs its state machine per packet but buffers the
counter and sketch writes in bounded columns, folding them in one
scatter when the columns fill, on ``read_run``/``sketch`` and never
across ``enable``.  Every case here feeds the same packets to the live
sampler and to :class:`ScalarObserveReference` (the historical
numpy-scalar ``observe``) and demands identical per-CPU counters,
sketch words, lifecycle and stats, ``cpu_ns`` included.
"""

import numpy as np
import pytest

from repro.core.millisampler import (
    Direction,
    Millisampler,
    PacketObservation,
    SamplerState,
)
from repro.core.run import RunMetadata
from repro.errors import SamplerError
from repro.simnet.clock import HostClock
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.tap import MillisamplerTap
from tests.core._scalar_observe_reference import (
    ReferenceTap,
    ScalarObserveReference,
    assert_same_sampler_state,
)

FOLD = Millisampler.FOLD_PACKETS
RUN_FIELDS = (
    "in_bytes",
    "out_bytes",
    "in_retx_bytes",
    "out_retx_bytes",
    "in_ecn_bytes",
    "conn_estimate",
)


def make_pair(count_flows=True, buckets=40, cpus=4, enable=True):
    """(reference, live) samplers with identical configuration."""
    pair = []
    for cls in (ScalarObserveReference, Millisampler):
        sampler = cls(
            RunMetadata(host="h", region="RegA"),
            sampling_interval=1e-3,
            buckets=buckets,
            cpus=cpus,
            count_flows=count_flows,
        )
        sampler.attach()
        if enable:
            sampler.enable()
        pair.append(sampler)
    return pair


def observations(count, horizon, seed=0, start=0.0):
    rng = np.random.default_rng(seed)
    times = start + np.sort(rng.uniform(0, horizon, count))
    return [
        PacketObservation(
            time=float(times[i]),
            direction=Direction.INGRESS if rng.random() < 0.6 else Direction.EGRESS,
            size=int(rng.integers(0, 65536)),
            flow_key=("10.0.0.1", f"10.0.1.{rng.integers(0, 300)}", 1, 2, "tcp"),
            cpu=int(rng.integers(0, 11)),  # > sampler cpus: exercises modulo
            ecn_marked=bool(rng.random() < 0.1),
            retransmit=bool(rng.random() < 0.05),
        )
        for i in range(count)
    ]


def feed(samplers, stream):
    for sampler in samplers:
        for obs in stream:
            sampler.observe(obs)


def assert_same_runs(reference, live):
    a, b = reference.read_run(), live.read_run()
    for field in RUN_FIELDS:
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert a.meta == b.meta
    assert_same_sampler_state(reference, live)


class TestFoldBoundaries:
    @pytest.mark.parametrize("count", [FOLD - 1, FOLD, FOLD + 1, 3 * FOLD])
    def test_counts_around_the_fold_constant(self, count):
        reference, live = make_pair()
        feed((reference, live), observations(count, horizon=0.039, seed=count))
        assert live.state is SamplerState.ENABLED
        assert len(live._sizes) == count % FOLD  # bounded: folded in full batches
        live.finish(now=1.0)
        reference.finish(now=1.0)
        assert_same_runs(reference, live)

    @pytest.mark.parametrize("count_flows", [True, False])
    def test_completion_mid_buffer(self, count_flows):
        """The packet past the window disables the filter with writes
        still pending; the tail takes the disabled path."""
        reference, live = make_pair(count_flows=count_flows)
        stream = observations(5000, horizon=0.055, seed=3)
        feed((reference, live), stream)
        assert live.state is SamplerState.DISABLED
        assert 0 < len(live._sizes) < FOLD
        assert_same_runs(reference, live)


class TestLifecycleWithPendingWrites:
    def test_enable_discards_an_unread_run(self):
        reference, live = make_pair()
        feed((reference, live), observations(3000, horizon=0.06, seed=1))
        assert live.state is SamplerState.DISABLED and len(live._sizes)
        for sampler in (reference, live):
            sampler.enable()
        assert len(live._sizes) == 0
        feed((reference, live), observations(2000, horizon=0.03, seed=2, start=5.0))
        live.finish(now=6.0)
        reference.finish(now=6.0)
        assert_same_runs(reference, live)

    def test_enable_after_abort_discards_pending(self):
        reference, live = make_pair()
        feed((reference, live), observations(1000, horizon=0.02, seed=4))
        for sampler in (reference, live):
            sampler.abort()
            sampler.enable()
        feed((reference, live), observations(1000, horizon=0.02, seed=5, start=1.0))
        live.finish(now=2.0)
        reference.finish(now=2.0)
        assert_same_runs(reference, live)

    def test_sketch_mid_run_folds(self):
        reference, live = make_pair(buckets=10, cpus=2)
        first, second = np.array_split(np.array(observations(600, 0.009, seed=6)), 2)
        feed((reference, live), first)
        for cpu in range(2):
            for bucket in range(10):
                assert live.sketch(cpu, bucket).bitmap == reference.sketch(cpu, bucket).bitmap
        assert len(live._sizes) == 0
        feed((reference, live), second)
        live.finish(now=1.0)
        reference.finish(now=1.0)
        assert_same_runs(reference, live)

    def test_detached_packet_raises_at_that_packet(self):
        reference, live = make_pair(enable=False)
        for sampler in (reference, live):
            sampler.detach()
            with pytest.raises(SamplerError, match="detached"):
                sampler.observe(observations(1, 0.001)[0])
        assert_same_sampler_state(reference, live)

    def test_packet_before_run_start_raises_at_that_packet(self):
        reference, live = make_pair()
        stream = observations(500, horizon=0.02, seed=7, start=1.0)
        early = PacketObservation(time=0.5, direction=Direction.INGRESS, size=10, flow_key=1)
        for sampler in (reference, live):
            for obs in stream:
                sampler.observe(obs)
            with pytest.raises(SamplerError, match="precedes run start"):
                sampler.observe(early)
        assert_same_sampler_state(reference, live)

    def test_disabled_packets_only_touch_stats(self):
        reference, live = make_pair(enable=False)
        feed((reference, live), observations(100, horizon=0.01, seed=8))
        assert len(live._sizes) == 0
        assert_same_sampler_state(reference, live)


class TestTapAgainstReferenceTap:
    def test_packet_stream_through_taps(self):
        """The field-wise tap and the historical PacketObservation tap
        produce the same run from the same simulator packets."""
        rng = np.random.default_rng(9)
        flows = [FlowKey(f"h{i}", "h0", 40000 + i, 5001) for i in range(40)]
        packets = [
            Packet(
                src=flow.src,
                dst=flow.dst,
                size=int(rng.integers(64, 65536)),
                flow=flow,
                ecn_ce=bool(rng.random() < 0.2),
                retransmit=bool(rng.random() < 0.05),
            )
            for flow in (flows[i] for i in rng.integers(0, len(flows), 20_000))
        ]
        directions = [Direction.INGRESS if rng.random() < 0.7 else Direction.EGRESS
                      for _ in packets]
        times = np.sort(rng.uniform(0.0, 0.045, len(packets)))
        reference, live = make_pair()
        clock = HostClock(offset=2e-4, drift_ppm=3.0)
        for tap in (ReferenceTap(reference, clock), MillisamplerTap(live, clock)):
            for packet, direction, now in zip(packets, directions, times):
                tap.on_packet(packet, direction, float(now))
        assert live.state is SamplerState.DISABLED
        assert_same_runs(reference, live)
