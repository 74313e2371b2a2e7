"""Burst detection and per-burst properties (Sections 5, 6, 8).

A burst is "any consecutive set of one or more sample data points that
exceeds 50% of line rate" on ingress.  Each burst is annotated with the
properties the joint analysis needs: length, volume, average
connection count, the maximum contention over its lifetime, whether it
was contended at all, and whether it was lossy (retransmissions
observed within an RTT after the loss — in practice, retransmitted
bytes arriving during the burst or in the following buckets,
Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import units
from ..core.run import MillisamplerRun, SyncRun
from ..errors import AnalysisError


@dataclass
class Burst:
    """One detected burst on one server."""

    server: int  # index within the SyncRun
    start: int  # first bucket of the burst
    length: int  # buckets
    volume: float  # ingress bytes
    avg_connections: float
    retx_bytes: float = 0.0
    max_contention: int = 0
    lossy: bool = False
    #: Contention at the (approximate) time of the burst's first loss:
    #: the bucket where retransmitted bytes first appear, minus the
    #: repair lag.  The paper's alternate Section 8 methodology; -1
    #: when the burst is not lossy.
    first_loss_contention: int = -1

    @property
    def end(self) -> int:
        """One past the last bucket."""
        return self.start + self.length

    @property
    def contended(self) -> bool:
        """The burst saw at least one other simultaneously bursty server
        at some point in its lifetime (Section 6)."""
        return self.max_contention >= 2

    def length_ms(self, sampling_interval: float = units.ANALYSIS_INTERVAL) -> float:
        return self.length * sampling_interval / units.MSEC


def _mask_segments(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) pairs of consecutive-True segments."""
    if mask.size == 0:
        return []
    padded = np.concatenate([[False], mask, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(changes[i]), int(changes[i + 1])) for i in range(0, len(changes), 2)]


def detect_bursts(
    run: MillisamplerRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
    server: int = 0,
) -> list[Burst]:
    """Detect bursts in one server's run and annotate loss.

    ``loss_lag_buckets`` extends the retransmission-observation window
    past the end of the burst: retransmissions repair a loss roughly an
    RTT after it happened, so a burst's losses surface slightly later
    (Section 4.6: "our analysis must look for retransmissions that
    occur an RTT later").  The window is clipped at the next burst's
    first bucket — when two bursts sit closer together than the lag, an
    unclipped window would sweep up the next burst's retransmissions,
    double-counting the bytes and marking both bursts lossy from one
    loss event.
    """
    if loss_lag_buckets < 0:
        raise AnalysisError("loss lag cannot be negative")
    mask = run.bursty_mask(threshold)
    bursts: list[Burst] = []
    segments = _mask_segments(mask)
    for index, (start, end) in enumerate(segments):
        window_end = min(end + loss_lag_buckets, run.buckets)
        if index + 1 < len(segments):
            window_end = min(window_end, segments[index + 1][0])
        retx = float(run.in_retx_bytes[start:window_end].sum())
        bursts.append(
            Burst(
                server=server,
                start=start,
                length=end - start,
                volume=float(run.in_bytes[start:end].sum()),
                avg_connections=float(run.conn_estimate[start:end].mean()),
                retx_bytes=retx,
                lossy=retx > 0,
            )
        )
    return bursts


def annotate_contention(
    burst: Burst,
    run: MillisamplerRun,
    contention: np.ndarray,
    loss_lag_buckets: int = 2,
) -> None:
    """Attach both of Section 8's contention views to a burst.

    The primary methodology takes the *maximum* contention over the
    burst's lifetime; the alternate associates a lossy burst with the
    contention at its *first loss* — approximated as the first bucket
    with retransmitted bytes, shifted back by the repair lag ("bursts
    tend to see slightly lower contention levels at the time of their
    first loss", Section 8).
    """
    burst.max_contention = int(contention[burst.start : burst.end].max())
    if not burst.lossy:
        burst.first_loss_contention = -1
        return
    window_end = min(burst.end + loss_lag_buckets, run.buckets)
    retx_window = run.in_retx_bytes[burst.start : window_end]
    first_retx = burst.start + int(np.argmax(retx_window > 0))
    loss_bucket = max(first_retx - loss_lag_buckets, burst.start)
    loss_bucket = min(loss_bucket, burst.end - 1)
    burst.first_loss_contention = int(contention[loss_bucket])


def equal_value_groups(values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(value, indices)`` for each distinct value, indices ascending.

    Gathering the rows of one group into a C-contiguous ``(k, L)`` block
    and reducing along axis 1 reproduces each row's own ``.sum()`` /
    ``.mean()`` exactly, numpy's pairwise-summation blocks included.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    edges = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    for members in np.split(order, edges):
        if len(members):
            yield int(values[members[0]]), members


def _window_blocks(
    server: np.ndarray, start: np.ndarray, length: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(members, rows, cols)`` per distinct window length: fancy
    indices that gather the windows ``[start, start + length)`` of the
    ``members`` into one C-contiguous ``(k, length)`` block."""
    for width, members in equal_value_groups(length):
        yield members, server[members, None], start[members, None] + np.arange(width)


@dataclass(frozen=True)
class RunMatrices:
    """A rack run's series stacked as ``(servers, buckets)`` matrices,
    the input of one vectorized pass of burst detection and
    summarization."""

    in_bytes: np.ndarray
    in_retx_bytes: np.ndarray
    conn_estimate: np.ndarray
    #: Ingress utilization as a fraction of each server's line rate.
    utilization: np.ndarray
    #: Bursty samples: utilization above the threshold.
    mask: np.ndarray
    #: Per-bucket contention (the run's ``contention_series``).
    contention: np.ndarray

    @classmethod
    def of(
        cls, sync_run: SyncRun, threshold: float = units.BURST_UTILIZATION_THRESHOLD
    ) -> "RunMatrices":
        def stack(name: str) -> np.ndarray:
            return np.vstack([getattr(run, name) for run in sync_run.runs], dtype=np.float64)

        in_bytes = stack("in_bytes")
        capacity = np.array(
            [run.meta.line_rate * run.meta.sampling_interval for run in sync_run.runs]
        )
        utilization = in_bytes / capacity[:, None]
        mask = utilization > threshold
        return cls(
            in_bytes=in_bytes,
            in_retx_bytes=stack("in_retx_bytes"),
            conn_estimate=stack("conn_estimate"),
            utilization=utilization,
            mask=mask,
            contention=mask.sum(axis=0),
        )

    def bursts(self, loss_lag_buckets: int = 2) -> list[Burst]:
        """Every server's bursts, in (server, start) order, annotated
        like :func:`detect_bursts` followed by :func:`annotate_contention`."""
        if loss_lag_buckets < 0:
            raise AnalysisError("loss lag cannot be negative")
        servers, buckets = self.mask.shape
        padded = np.zeros((servers, buckets + 2), dtype=bool)
        padded[:, 1:-1] = self.mask
        server, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
        server, start, end = server[0::2], edges[0::2], edges[1::2]
        count = len(start)

        volume = np.empty(count)
        avg_connections = np.empty(count)
        max_contention = np.empty(count, dtype=np.int64)
        for members, rows, cols in _window_blocks(server, start, end - start):
            volume[members] = self.in_bytes[rows, cols].sum(axis=1)
            avg_connections[members] = self.conn_estimate[rows, cols].mean(axis=1)
            max_contention[members] = self.contention[cols].max(axis=1)

        # Loss window: the repair lag past the burst, clipped at the run's
        # end and at the same server's next burst.
        next_start = np.append(np.where(server[1:] == server[:-1], start[1:], buckets), buckets)
        window_end = np.minimum(end + loss_lag_buckets, next_start)
        retx = np.empty(count)
        for members, rows, cols in _window_blocks(server, start, window_end - start):
            retx[members] = self.in_retx_bytes[rows, cols].sum(axis=1)
        lossy = retx > 0

        # First-loss contention: the first retransmitting bucket of the
        # loss window (here not clipped at the next burst), moved back by
        # the lag and kept inside the burst.
        first_loss = np.full(count, -1, dtype=np.int64)
        lossy_server, lossy_start, lossy_end = server[lossy], start[lossy], end[lossy]
        first_retx = np.empty(len(lossy_start), dtype=np.int64)
        loss_window = np.minimum(lossy_end + loss_lag_buckets, buckets) - lossy_start
        for members, rows, cols in _window_blocks(lossy_server, lossy_start, loss_window):
            first_retx[members] = lossy_start[members] + np.argmax(
                self.in_retx_bytes[rows, cols] > 0, axis=1
            )
        loss_bucket = np.minimum(
            np.maximum(first_retx - loss_lag_buckets, lossy_start), lossy_end - 1
        )
        first_loss[lossy] = self.contention[loss_bucket]

        return [
            Burst(*fields)
            for fields in zip(
                server.tolist(),
                start.tolist(),
                (end - start).tolist(),
                volume.tolist(),
                avg_connections.tolist(),
                retx.tolist(),
                max_contention.tolist(),
                lossy.tolist(),
                first_loss.tolist(),
            )
        ]


def detect_run_bursts(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> list[Burst]:
    """Detect bursts across every server of a rack run and annotate each
    with the maximum contention over its lifetime (Section 8
    methodology: "we consider the contention level at each sample point
    of the burst, and take the maximum") and its first-loss contention.

    One pass over the run's ``(servers, buckets)`` matrices; the result
    equals :func:`detect_bursts` plus :func:`annotate_contention` per
    server, value for value.
    """
    return RunMatrices.of(sync_run, threshold).bursts(loss_lag_buckets)


def burst_frequency(bursts: list[Burst], duration_s: float) -> float:
    """Bursts per second over a run (Figure 6's metric)."""
    if duration_s <= 0:
        raise AnalysisError("duration must be positive")
    return len(bursts) / duration_s


def bursty_fraction_of_bytes(run: MillisamplerRun, bursts: list[Burst]) -> float:
    """Fraction of a run's ingress bytes carried inside bursts
    (Section 5: 49.7% fleet-wide)."""
    total = float(run.in_bytes.sum())
    if total == 0:
        return 0.0
    in_bursts = sum(burst.volume for burst in bursts)
    return in_bursts / total
