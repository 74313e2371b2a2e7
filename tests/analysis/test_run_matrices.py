"""Exactness of the one-pass burst detection and run summary.

:func:`detect_run_bursts` and :func:`summarize_run` work on a rack run's
``(servers, buckets)`` matrices at once.  Their results must equal the
per-server loop they replaced — :func:`detect_bursts` plus
:func:`annotate_contention` for every server, and the per-server
statistics — not approximately but as identical pickle bytes: every
float bit, every Python type, every field.
"""

import math
import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.bursts import (
    annotate_contention,
    detect_bursts,
    detect_run_bursts,
)
from repro.analysis.contention import contention_stats
from repro.analysis.summary import RunSummary, ServerRunStats, summarize_run
from repro.core.run import MillisamplerRun, RunMetadata, SyncRun
from repro.fleet.rackrun import RackRunSynthesizer
from repro.workload.region import REGION_A, build_region_workloads

FULL_BUCKET = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL
THRESHOLD = units.BURST_UTILIZATION_THRESHOLD


def _reference_run_bursts(sync_run, threshold=THRESHOLD, loss_lag_buckets=2):
    """The historical per-server loop."""
    contention = sync_run.contention_series(threshold)
    bursts = []
    for index, run in enumerate(sync_run.runs):
        for burst in detect_bursts(run, threshold, loss_lag_buckets, server=index):
            annotate_contention(burst, run, contention, loss_lag_buckets)
            bursts.append(burst)
    return bursts


def _reference_summary(sync_run, threshold=THRESHOLD, loss_lag_buckets=2):
    """The historical per-server summarize_run body."""
    contention = sync_run.contention_series(threshold)
    stats = contention_stats(contention)
    duration = sync_run.duration
    all_bursts = []
    server_stats = []
    for index, run in enumerate(sync_run.runs):
        bursts = detect_bursts(run, threshold, loss_lag_buckets, server=index)
        for burst in bursts:
            annotate_contention(burst, run, contention, loss_lag_buckets)
        all_bursts.extend(bursts)
        utilization = run.ingress_utilization()
        mask = run.bursty_mask(threshold)
        inside = utilization[mask]
        outside = utilization[~mask]
        conns = run.conn_estimate
        server_stats.append(
            ServerRunStats(
                server=index,
                task=run.meta.task,
                bursty=bool(mask.any()),
                avg_utilization=float(utilization.mean()),
                utilization_in_bursts=float(inside.mean()) if inside.size else float("nan"),
                utilization_outside_bursts=(
                    float(outside.mean()) if outside.size else float("nan")
                ),
                bursts_per_second=len(bursts) / duration,
                conns_inside=float(conns[mask].mean()) if mask.any() else float("nan"),
                conns_outside=float(conns[~mask].mean()) if (~mask).any() else float("nan"),
                total_in_bytes=float(run.in_bytes.sum()),
                in_burst_bytes=float(run.in_bytes[mask].sum()),
            )
        )
    return RunSummary(
        rack=sync_run.rack,
        region=sync_run.region,
        hour=sync_run.hour,
        servers=sync_run.servers,
        buckets=sync_run.buckets,
        sampling_interval=sync_run.sampling_interval,
        contention=stats,
        bursts=all_bursts,
        server_stats=server_stats,
        switch_discard_bytes=sync_run.switch_discard_bytes,
        switch_ingress_bytes=sync_run.switch_ingress_bytes,
        extras=dict(sync_run.extras),
    )


def assert_exact(sync_run, loss_lag_buckets=2):
    expected = _reference_run_bursts(sync_run, loss_lag_buckets=loss_lag_buckets)
    actual = detect_run_bursts(sync_run, loss_lag_buckets=loss_lag_buckets)
    assert pickle.dumps(actual) == pickle.dumps(expected)
    expected_summary = _reference_summary(sync_run, loss_lag_buckets=loss_lag_buckets)
    actual_summary = summarize_run(sync_run, loss_lag_buckets=loss_lag_buckets)
    assert pickle.dumps(actual_summary) == pickle.dumps(expected_summary)


def _run(in_bytes, retx, conns, index=0, line_rate=units.SERVER_LINK_RATE):
    buckets = len(in_bytes)
    return MillisamplerRun(
        meta=RunMetadata(host=f"h{index}", task=f"task/{index % 2}", line_rate=line_rate),
        in_bytes=np.asarray(in_bytes, dtype=np.float64),
        out_bytes=np.zeros(buckets),
        in_retx_bytes=np.asarray(retx, dtype=np.float64),
        out_retx_bytes=np.zeros(buckets),
        in_ecn_bytes=np.zeros(buckets),
        conn_estimate=np.asarray(conns, dtype=np.float64),
    )


def _series(segments, buckets, rng):
    """An ingress series whose bursty buckets are the given segments,
    with irregular float values so summation order shows in the bits."""
    in_bytes = rng.uniform(0.0, 0.45, buckets) * FULL_BUCKET
    for start, length in segments:
        in_bytes[start : start + length] = rng.uniform(0.51, 1.3, length) * FULL_BUCKET
    return in_bytes


def _sync_run(rows, rng, retx_prob=0.1):
    runs = []
    for index, in_bytes in enumerate(rows):
        buckets = len(in_bytes)
        retx = np.where(rng.random(buckets) < retx_prob, rng.uniform(1.0, 9e4, buckets), 0.0)
        conns = rng.uniform(0.0, 500.0, buckets)
        runs.append(_run(in_bytes, retx, conns, index))
    return SyncRun(rack="r0", region="RegA", runs=runs, hour=3, switch_discard_bytes=1.5)


server_layouts = st.lists(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 140)),  # (gap, burst length)
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)


class TestRunBurstsExact:
    @given(
        layouts=server_layouts,
        tail=st.integers(0, 20),
        lead=st.integers(0, 3),
        loss_lag_buckets=st.integers(0, 4),
        retx_prob=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_matches_per_server_loop(
        self, layouts, tail, lead, loss_lag_buckets, retx_prob, seed
    ):
        """Bursts at bucket 0 (lead 0) and at the last bucket (tail 0),
        gaps of 1-3 buckets (closer than the loss lag), lengths across
        numpy's pairwise-sum block edges (8 and 128), dense and absent
        retransmissions."""
        rng = np.random.default_rng(seed)
        server_segments = []
        for layout in layouts:
            segments, cursor = [], lead
            for gap, length in layout:
                segments.append((cursor, length))
                cursor += length + gap
            server_segments.append((segments, cursor))
        buckets = max(1, max(cursor for _, cursor in server_segments) + tail)
        rows = [_series(segments, buckets, rng) for segments, _ in server_segments]
        assert_exact(_sync_run(rows, rng, retx_prob), loss_lag_buckets)

    def test_burst_at_first_and_last_bucket(self):
        rng = np.random.default_rng(1)
        rows = [_series([(0, 3), (7, 3)], 10, rng), _series([(0, 10)], 10, rng)]
        sync_run = _sync_run(rows, rng, retx_prob=0.5)
        bursts = detect_run_bursts(sync_run)
        assert [(b.server, b.start, b.end) for b in bursts] == [
            (0, 0, 3), (0, 7, 10), (1, 0, 10),
        ]
        assert_exact(sync_run)

    def test_bursts_closer_than_lag_with_first_loss(self):
        """Retransmissions in the gap between two close bursts belong to
        the first; the second's first loss reads its own window."""
        in_bytes = np.full(12, 0.1 * FULL_BUCKET)
        in_bytes[[1, 2, 4, 5, 6]] = 0.8 * FULL_BUCKET
        retx = np.zeros(12)
        retx[[3, 6, 8]] = [100.0, 200.0, 300.0]
        sync_run = SyncRun(
            rack="r0",
            region="RegA",
            runs=[
                _run(in_bytes, retx, np.arange(12.0)),
                _run(np.roll(in_bytes, 1), np.zeros(12), np.ones(12), index=1),
            ],
        )
        for lag in range(5):
            assert_exact(sync_run, loss_lag_buckets=lag)
        first, second = detect_run_bursts(sync_run, loss_lag_buckets=2)[:2]
        assert first.lossy and first.retx_bytes == 100.0
        assert second.lossy and second.first_loss_contention >= 1

    def test_long_segments_cross_pairwise_blocks(self):
        rng = np.random.default_rng(2)
        rows = [
            _series([(0, 7), (9, 8), (20, 9)], 400, rng),
            _series([(1, 128), (131, 129), (262, 135)], 400, rng),
        ]
        assert_exact(_sync_run(rows, rng, retx_prob=0.2))

    def test_all_idle_run(self):
        rng = np.random.default_rng(3)
        rows = [_series([], 50, rng) for _ in range(3)]
        sync_run = _sync_run(rows, rng)
        assert detect_run_bursts(sync_run) == []
        summary = summarize_run(sync_run)
        assert all(math.isnan(s.utilization_in_bursts) for s in summary.server_stats)
        assert_exact(sync_run)

    def test_fully_bursty_run(self):
        rng = np.random.default_rng(4)
        rows = [_series([(0, 30)], 30, rng), _series([(0, 30)], 30, rng)]
        sync_run = _sync_run(rows, rng)
        summary = summarize_run(sync_run)
        assert all(math.isnan(s.conns_outside) for s in summary.server_stats)
        assert_exact(sync_run)

    def test_one_server_run(self):
        rng = np.random.default_rng(5)
        assert_exact(_sync_run([_series([(2, 5), (9, 1)], 12, rng)], rng, 0.4))

    def test_mixed_line_rates(self):
        """Utilization uses each server's own line rate."""
        rng = np.random.default_rng(6)
        in_bytes = _series([(3, 4)], 20, rng)
        sync_run = SyncRun(
            rack="r0",
            region="RegA",
            runs=[
                _run(in_bytes, np.zeros(20), np.ones(20)),
                _run(in_bytes, np.zeros(20), np.ones(20), 1, line_rate=4 * units.SERVER_LINK_RATE),
            ],
        )
        assert [b.server for b in detect_run_bursts(sync_run)] == [0]
        assert_exact(sync_run)

    def test_synthesized_rack_runs(self):
        """Fleet-model runs (row views of one matrix per series)."""
        workloads = build_region_workloads(REGION_A, racks=2, rng=np.random.default_rng(7))
        synthesizer = RackRunSynthesizer()
        for seed, workload in enumerate(workloads):
            sync_run = synthesizer.synthesize(workload, 10, np.random.default_rng(seed))
            assert_exact(sync_run)
