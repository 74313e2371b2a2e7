"""Vectorized sampler fast path: observe_batch vs the scalar loop.

``observe_batch`` must be indistinguishable from calling ``observe``
per packet in array order — same counters, same sketch bitmaps, same
state transitions, same stats — including the awkward case where the
run completes in the middle of a batch.
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
from repro.core.sketch import hash_flow_keys
from repro.errors import SamplerError
from tests.core._scalar_observe_reference import folded_sketch_words


def make_pair(count_flows=True, buckets=50, cpus=4):
    """Two identical enabled samplers: one fed scalars, one the batch."""
    samplers = []
    for _ in range(2):
        sampler = Millisampler(
            RunMetadata(host="h", region="RegA"),
            sampling_interval=1e-3,
            buckets=buckets,
            cpus=cpus,
            count_flows=count_flows,
        )
        sampler.attach()
        sampler.enable()
        samplers.append(sampler)
    return samplers


def random_packets(rng, count, horizon):
    return dict(
        times=np.sort(rng.uniform(0, horizon, count)),
        sizes=rng.integers(0, 65536, count),
        directions=rng.random(count) < 0.6,
        cpus=rng.integers(0, 11, count),  # > sampler cpus: exercises modulo
        ecn_marked=rng.random(count) < 0.1,
        retransmit=rng.random(count) < 0.05,
        keys=rng.integers(0, 400, count),
    )


def feed_scalar(sampler, p):
    for i in range(len(p["times"])):
        sampler.observe(
            PacketObservation(
                time=float(p["times"][i]),
                direction=Direction.INGRESS if p["directions"][i] else Direction.EGRESS,
                size=int(p["sizes"][i]),
                flow_key=int(p["keys"][i]),
                cpu=int(p["cpus"][i]),
                ecn_marked=bool(p["ecn_marked"][i]),
                retransmit=bool(p["retransmit"][i]),
            )
        )


def feed_batch(sampler, p):
    sampler.observe_batch(
        p["times"],
        p["sizes"],
        p["directions"],
        p["cpus"],
        p["ecn_marked"],
        p["retransmit"],
        flow_bits=hash_flow_keys(p["keys"]) if sampler.count_flows else None,
    )


def assert_samplers_equal(scalar, batch):
    assert scalar.state is batch.state
    assert scalar.stats == batch.stats
    assert np.array_equal(folded_sketch_words(scalar), folded_sketch_words(batch))
    if scalar.state is not SamplerState.ENABLED and scalar.start_time is not None:
        a, b = scalar.read_run(), batch.read_run()
        for field in (
            "in_bytes",
            "out_bytes",
            "in_retx_bytes",
            "out_retx_bytes",
            "in_ecn_bytes",
            "conn_estimate",
        ):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestBatchEquivalence:
    @pytest.mark.parametrize("count_flows", [True, False])
    def test_completion_mid_batch(self, rng, count_flows):
        """Packets past the window flip the filter to DISABLED exactly
        where the scalar loop would, and the tail is accounted as
        disabled-path skips."""
        scalar, batch = make_pair(count_flows=count_flows)
        p = random_packets(rng, 4000, horizon=0.065)  # past the 50 ms window
        feed_scalar(scalar, p)
        feed_batch(batch, p)
        assert scalar.state is SamplerState.DISABLED
        assert_samplers_equal(scalar, batch)

    def test_all_in_window_stays_enabled(self, rng):
        scalar, batch = make_pair()
        p = random_packets(rng, 500, horizon=0.049)
        feed_scalar(scalar, p)
        feed_batch(batch, p)
        assert batch.state is SamplerState.ENABLED
        assert_samplers_equal(scalar, batch)

    def test_chunked_batches_equal_one_batch(self, rng):
        """Splitting a stream across observe_batch calls is associative."""
        whole, chunked = make_pair()
        p = random_packets(rng, 3000, horizon=0.07)
        feed_batch(whole, p)
        for lo in range(0, 3000, 700):
            hi = min(lo + 700, 3000)
            chunk = {
                k: v[lo:hi] for k, v in p.items()
            }
            feed_batch(chunked, chunk)
        assert_samplers_equal(whole, chunked)

    def test_disabled_sampler_counts_batch_as_skipped(self):
        scalar, batch = make_pair()
        # Complete both runs first.
        done = dict(
            times=np.array([0.0, 10.0]),
            sizes=np.array([100, 100]),
            directions=np.array([True, True]),
            cpus=np.zeros(2, dtype=np.int64),
            ecn_marked=np.zeros(2, dtype=bool),
            retransmit=np.zeros(2, dtype=bool),
            keys=np.array([1, 1]),
        )
        feed_batch(scalar, done)
        feed_batch(batch, done)
        before = batch.stats.packets_skipped_disabled
        p = random_packets(np.random.default_rng(0), 100, horizon=0.01)
        feed_scalar(scalar, p)
        feed_batch(batch, p)
        assert batch.stats.packets_skipped_disabled == before + 100
        assert scalar.stats == batch.stats

    def test_empty_batch_is_a_noop(self):
        _, batch = make_pair()
        empty = np.zeros(0)
        batch.observe_batch(empty, empty, np.zeros(0, dtype=bool))
        assert batch.stats.packets_processed == 0
        assert batch.state is SamplerState.ENABLED

    def test_first_packet_sets_start_time(self):
        _, batch = make_pair()
        batch.observe_batch(
            np.array([3.5, 3.51]),
            np.array([100, 200]),
            np.array([True, False]),
            flow_bits=np.array([0, 1]),
        )
        assert batch.start_time == 3.5


class TestBatchValidation:
    def test_detached_rejected(self):
        sampler = Millisampler(RunMetadata(host="h"))
        with pytest.raises(SamplerError):
            sampler.observe_batch(np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool))

    def test_length_mismatch_rejected(self):
        _, batch = make_pair()
        with pytest.raises(SamplerError):
            batch.observe_batch(np.zeros(3), np.zeros(2), np.zeros(3, dtype=bool))

    def test_negative_size_rejected(self):
        _, batch = make_pair()
        with pytest.raises(SamplerError):
            batch.observe_batch(
                np.zeros(1), np.array([-5]), np.ones(1, dtype=bool), flow_bits=np.array([0])
            )

    def test_missing_flow_bits_rejected(self):
        _, batch = make_pair(count_flows=True)
        with pytest.raises(SamplerError):
            batch.observe_batch(np.zeros(1), np.ones(1), np.ones(1, dtype=bool))

    def test_flow_bits_out_of_range_rejected(self):
        _, batch = make_pair()
        with pytest.raises(SamplerError):
            batch.observe_batch(
                np.zeros(1), np.ones(1), np.ones(1, dtype=bool), flow_bits=np.array([128])
            )

    def test_non_monotonic_clock_rejected(self):
        _, batch = make_pair()
        with pytest.raises(SamplerError):
            batch.observe_batch(
                np.array([5.0, 1.0]),
                np.array([10, 10]),
                np.ones(2, dtype=bool),
                flow_bits=np.array([0, 0]),
            )


class TestSketchView:
    def test_sketch_accessor_matches_scalar_objects(self, rng):
        """The FlowSketch view over the uint64 backing reports the same
        bitmap/bits/estimate the old per-cell objects would have."""
        scalar, batch = make_pair(buckets=10, cpus=2)
        p = random_packets(rng, 300, horizon=0.009)
        feed_scalar(scalar, p)
        feed_batch(batch, p)
        for cpu in range(2):
            for bucket in range(10):
                a = scalar.sketch(cpu, bucket)
                b = batch.sketch(cpu, bucket)
                assert a.bitmap == b.bitmap
                assert a.bits_set == b.bits_set
                assert a.estimate() == b.estimate()

    def test_sketch_accessor_bounds(self):
        _, batch = make_pair()
        with pytest.raises(SamplerError):
            batch.sketch(99, 0)
        with pytest.raises(SamplerError):
            batch.sketch(0, 99)
