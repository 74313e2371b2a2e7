"""Per-run reduction: everything the fleet-scale figures need, without
keeping raw sample series in memory.

A full day of the paper's data is 8.16 billion samples; the analyses
all operate on per-run aggregates (burst records, contention
statistics, utilization summaries).  :func:`summarize_run` computes
those once per :class:`~repro.core.run.SyncRun`, letting the dataset
generator discard the raw series immediately — the same
reduce-then-aggregate shape a production pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import units
from ..core.run import SyncRun
from ..errors import AnalysisError
from .bursts import Burst, RunMatrices, equal_value_groups
from .contention import ContentionStats, contention_stats


@dataclass
class ServerRunStats:
    """Per-server-run aggregates (the unit of Figures 6 and 8)."""

    server: int
    task: str
    bursty: bool  # had at least one burst
    avg_utilization: float
    utilization_in_bursts: float  # NaN when no bursts
    utilization_outside_bursts: float
    bursts_per_second: float
    conns_inside: float  # mean connection estimate inside bursts (NaN if none)
    conns_outside: float
    total_in_bytes: float
    in_burst_bytes: float


@dataclass
class RunSummary:
    """Everything the experiments keep about one rack run."""

    rack: str
    region: str
    hour: int
    servers: int
    buckets: int
    sampling_interval: float
    contention: ContentionStats
    bursts: list[Burst]
    server_stats: list[ServerRunStats]
    switch_discard_bytes: float
    switch_ingress_bytes: float
    extras: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.buckets * self.sampling_interval

    @property
    def total_in_bytes(self) -> float:
        return sum(stat.total_in_bytes for stat in self.server_stats)

    def bursty_server_runs(self) -> int:
        return sum(1 for stat in self.server_stats if stat.bursty)


def summarize_run(
    sync_run: SyncRun,
    threshold: float = units.BURST_UTILIZATION_THRESHOLD,
    loss_lag_buckets: int = 2,
) -> RunSummary:
    """Reduce one rack run to its :class:`RunSummary`."""
    if sync_run.buckets == 0:
        raise AnalysisError("cannot summarize an empty run")
    matrices = RunMatrices.of(sync_run, threshold)
    all_bursts = matrices.bursts(loss_lag_buckets)
    stats = contention_stats(matrices.contention)
    duration = sync_run.duration

    # Per-server aggregates, one block per bursty-sample count: the rows
    # of a group share their inside/outside lengths, so each masked
    # selection reshapes into a (k, length) block whose row reductions
    # equal the per-server ones exactly (see equal_value_groups).
    utilization, mask, conns = matrices.utilization, matrices.mask, matrices.conn_estimate
    servers, buckets = mask.shape
    rising = mask.copy()
    rising[:, 1:] &= ~mask[:, :-1]
    burst_counts = rising.sum(axis=1)
    inside_counts = mask.sum(axis=1)
    inside_util = np.full(servers, np.nan)
    outside_util = np.full(servers, np.nan)
    inside_conns = np.full(servers, np.nan)
    outside_conns = np.full(servers, np.nan)
    in_burst = np.zeros(servers)
    for inside, rows in equal_value_groups(inside_counts):
        group_mask = mask[rows]
        outside = buckets - inside
        group_util, group_conns = utilization[rows], conns[rows]
        if inside:
            inside_util[rows] = group_util[group_mask].reshape(-1, inside).mean(axis=1)
            inside_conns[rows] = group_conns[group_mask].reshape(-1, inside).mean(axis=1)
            in_burst[rows] = (
                matrices.in_bytes[rows][group_mask].reshape(-1, inside).sum(axis=1)
            )
        if outside:
            outside_util[rows] = group_util[~group_mask].reshape(-1, outside).mean(axis=1)
            outside_conns[rows] = group_conns[~group_mask].reshape(-1, outside).mean(axis=1)

    server_stats = [
        ServerRunStats(
            server=index,
            task=run.meta.task,
            bursty=inside > 0,
            avg_utilization=avg_util,
            utilization_in_bursts=in_util,
            utilization_outside_bursts=out_util,
            bursts_per_second=count / duration,
            conns_inside=in_conns,
            conns_outside=out_conns,
            total_in_bytes=total_in,
            in_burst_bytes=burst_bytes,
        )
        for index, (
            run, inside, avg_util, in_util, out_util, count, in_conns, out_conns,
            total_in, burst_bytes,
        ) in enumerate(
            zip(
                sync_run.runs,
                inside_counts.tolist(),
                utilization.mean(axis=1).tolist(),
                inside_util.tolist(),
                outside_util.tolist(),
                burst_counts.tolist(),
                inside_conns.tolist(),
                outside_conns.tolist(),
                matrices.in_bytes.sum(axis=1).tolist(),
                in_burst.tolist(),
            )
        )
    ]

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
