"""Columnar frames of run summaries and the one aggregation path.

A region-day is aggregated as a sequence of **frames**: per-run and
per-burst numeric column arrays projected from
:class:`~repro.analysis.summary.RunSummary` objects.  The shard store
(:mod:`repro.fleet.shards`) yields one memmap-backed frame per shard;
an in-memory :class:`~repro.fleet.dataset.RegionDataset` yields its
whole day as a single frame.  :class:`FrameAggregations` writes every
figure-level reduction once over ``iter_frames()``, ``rack_names`` and
``region``, folding each frame through the mergeable accumulators of
:mod:`repro.analysis.streaming`, so both dataset kinds produce the same
results by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.racks import RackProfile
from ..analysis.stats import BoxStats
from ..analysis.streaming import (
    BurstContentionAccumulator,
    BurstContentionView,
    HourlyBoxAccumulator,
    RackProfileAccumulator,
    RunContentionAccumulator,
    RunContentionView,
    Table1Accumulator,
)
from ..analysis.summary import RunSummary
from ..obs.metrics import Metrics

if TYPE_CHECKING:
    from .dataset import DatasetSummary

#: Numeric per-run summary columns (one row per rack run).  These are
#: what the streaming aggregations read; the full RunSummary objects
#: stay in the pickle sidecar.
RUN_COLUMNS: tuple[str, ...] = (
    "rack_id",
    "hour",
    "servers",
    "buckets",
    "sampling_interval",
    "contention_mean",
    "contention_min_active",
    "contention_p90",
    "contention_max",
    "contention_frac_zero",
    "n_bursts",
    "bursty_server_runs",
    "switch_discard_bytes",
    "switch_ingress_bytes",
    "total_in_bytes",
    "colocated",
    "distinct_tasks",
    "dominant_share",
)
RUN_COL: dict[str, int] = {name: index for index, name in enumerate(RUN_COLUMNS)}

#: Numeric per-burst columns (one row per detected burst).
BURST_COLUMNS: tuple[str, ...] = (
    "run_row",
    "burst_index",
    "max_contention",
    "lossy",
    "first_loss_contention",
    "length_buckets",
    "volume_bytes",
)
BURST_COL: dict[str, int] = {name: index for index, name in enumerate(BURST_COLUMNS)}


def summaries_to_columns(
    summaries: list[RunSummary], rack_ids: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Project summaries onto the (runs, bursts) numeric column arrays."""
    runs = np.zeros((len(summaries), len(RUN_COLUMNS)), dtype=np.float64)
    burst_rows: list[list[float]] = []
    for row, (summary, rack_id) in enumerate(zip(summaries, rack_ids)):
        contention = summary.contention
        runs[row] = (
            rack_id,
            summary.hour,
            summary.servers,
            summary.buckets,
            summary.sampling_interval,
            contention.mean,
            contention.min_active,
            contention.p90,
            contention.max,
            contention.frac_zero,
            len(summary.bursts),
            summary.bursty_server_runs(),
            summary.switch_discard_bytes,
            summary.switch_ingress_bytes,
            summary.total_in_bytes,
            float(bool(summary.extras.get("colocated", False))),
            float(summary.extras.get("distinct_tasks", 0)),
            float(summary.extras.get("dominant_share", 0.0)),
        )
        for burst_index, burst in enumerate(summary.bursts):
            burst_rows.append(
                [
                    float(row),
                    float(burst_index),
                    float(burst.max_contention),
                    float(burst.lossy),
                    float(burst.first_loss_contention),
                    float(burst.length),
                    float(burst.volume),
                ]
            )
    bursts = (
        np.asarray(burst_rows, dtype=np.float64)
        if burst_rows
        else np.zeros((0, len(BURST_COLUMNS)), dtype=np.float64)
    )
    return runs, bursts


def _close_mmap(array: np.ndarray) -> None:
    """Release the file mapping behind a ``np.load(mmap_mode="r")`` array.

    CPython's ``mmap.mmap`` dups the file descriptor, so every live
    memmap holds one open fd until its mapping is explicitly closed —
    GC alone is too lazy for a long-lived service iterating hundreds of
    shards.  Any view taken from the array becomes invalid after this.
    In-memory arrays have no mapping and pass through untouched.
    """
    mapping = getattr(array, "_mmap", None)
    if mapping is not None:
        try:
            mapping.close()
        except BufferError:
            # A live view still aliases the mapping; leave it to GC
            # rather than pulling memory out from under the view.
            pass


@dataclass
class ShardFrame:
    """One frame's columnar arrays plus its shard manifest record
    (empty for an in-memory frame)."""

    record: dict
    runs: np.ndarray  # (n_runs, len(RUN_COLUMNS)) float64
    bursts: np.ndarray  # (n_bursts, len(BURST_COLUMNS)) float64

    def run_column(self, name: str) -> np.ndarray:
        return self.runs[:, RUN_COL[name]]

    def burst_column(self, name: str) -> np.ndarray:
        return self.bursts[:, BURST_COL[name]]

    def close(self) -> None:
        """Release both file mappings (and their fds) eagerly.

        Consumers that stream shard-by-shard call this as soon as the
        shard's rows are folded into an accumulator, keeping the open-fd
        count O(1) in the number of shards instead of O(shards)-until-GC.
        """
        _close_mmap(self.runs)
        _close_mmap(self.bursts)


class FrameAggregations:
    """Every figure-level aggregation of a region-day, written once.

    Subclasses provide ``region``, ``rack_names`` (rack ids in the
    frames index this list) and ``iter_frames()``.  Each aggregation
    runs one accumulator per frame and folds them left to right — the
    associative-merge shape a distributed reducer would use.
    """

    @property
    def metrics(self) -> Metrics:
        """Registry for merge telemetry (a throwaway one by default)."""
        return Metrics()

    def _merge_frames(self, make, feed):
        merged = None
        metrics = self.metrics
        for frame in self.iter_frames():
            partial = make()
            try:
                feed(partial, frame)
            finally:
                # Accumulators copy out of memmap-backed blocks (see
                # _RowBlocks._materialized), so the shard's fds can be
                # released the moment its rows are folded.
                frame.close()
            with metrics.span("shards/merge"):
                if merged is None:
                    merged = partial
                else:
                    merged.merge(partial)
                metrics.incr("dataset.shards.merged")
        if merged is None:
            merged = make()
        return merged

    def table1_row(self) -> DatasetSummary:
        """Table 1's row for this region."""
        names = np.asarray(self.rack_names)

        def feed(acc: Table1Accumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("servers"),
                frame.run_column("bursty_server_runs"),
                frame.run_column("n_bursts"),
            )

        return self._merge_frames(lambda: Table1Accumulator(self.region), feed).finalize()

    def rack_profiles(self, hours: set[int] | None = None) -> list[RackProfile]:
        """Per-rack aggregates, optionally restricted to ``hours``."""
        names = np.asarray(self.rack_names)
        region = self.region

        def feed(acc: RackProfileAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                region,
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_mean"),
                frame.run_column("switch_discard_bytes"),
                frame.run_column("switch_ingress_bytes"),
                frame.run_column("distinct_tasks"),
                frame.run_column("dominant_share"),
                frame.run_column("colocated"),
            )

        return self._merge_frames(
            lambda: RackProfileAccumulator(hours=hours), feed
        ).finalize()

    def hourly_boxes(self, racks: set[str] | None = None) -> dict[int, BoxStats]:
        """Figure 13's hourly contention boxes, optionally rack-filtered."""
        names = np.asarray(self.rack_names)

        def feed(acc: HourlyBoxAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_mean"),
            )

        return self._merge_frames(lambda: HourlyBoxAccumulator(racks=racks), feed).finalize()

    def run_contention(self) -> RunContentionView:
        """Figure 15's per-run (min-active, p90) contention arrays."""
        names = np.asarray(self.rack_names)

        def feed(acc: RunContentionAccumulator, frame: ShardFrame) -> None:
            rack_ids = frame.run_column("rack_id").astype(np.int64)
            acc.add_columns(
                names[rack_ids],
                frame.run_column("hour").astype(np.int64),
                frame.run_column("contention_min_active"),
                frame.run_column("contention_p90"),
            )

        return self._merge_frames(lambda: RunContentionAccumulator(), feed).finalize()

    def burst_contention(self) -> BurstContentionView:
        """Figure 16's per-burst contention/loss annotations."""
        names = np.asarray(self.rack_names)

        def feed(acc: BurstContentionAccumulator, frame: ShardFrame) -> None:
            if frame.bursts.shape[0] == 0:
                return
            run_rows = frame.burst_column("run_row").astype(np.int64)
            rack_ids = frame.runs[run_rows, RUN_COL["rack_id"]].astype(np.int64)
            hours = frame.runs[run_rows, RUN_COL["hour"]].astype(np.int64)
            # Sub-key: preserve intra-run burst order under the stable
            # global (rack, hour, sub) sort.
            acc.add_columns(
                names[rack_ids],
                hours,
                frame.burst_column("burst_index").astype(np.int64),
                frame.burst_column("max_contention"),
                frame.burst_column("lossy"),
                frame.burst_column("first_loss_contention"),
            )

        return self._merge_frames(lambda: BurstContentionAccumulator(), feed).finalize()

    def hour_counts(self) -> dict[int, int]:
        """Runs per hour — the busy-hour fallback needs coverage counts."""
        counts: dict[int, int] = {}
        for frame in self.iter_frames():
            try:
                hours, per_hour = np.unique(
                    frame.run_column("hour").astype(np.int64), return_counts=True
                )
            finally:
                frame.close()
            for hour, count in zip(hours.tolist(), per_hour.tolist()):
                counts[hour] = counts.get(hour, 0) + count
        return counts
