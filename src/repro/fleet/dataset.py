"""Day-scale dataset generation (Section 5, Table 1).

The paper's primary dataset: SyncMillisampler runs on ~1000 racks per
region, roughly hourly across one weekday — 22.4K rack runs and ~2M
server runs per region.  This module generates the synthetic
equivalent at configurable scale, reducing every rack run to a
:class:`~repro.analysis.summary.RunSummary` on the fly so memory stays
bounded regardless of scale.

Seeding
-------
Randomness is organized as a tree of independent streams derived from
``(config.seed, crc32(region))`` with :class:`numpy.random.SeedSequence`
spawn keys, instead of threading one sequential generator through the
whole region:

* one stream for task placement across the region's racks;
* one stream per rack for its run-hour schedule;
* one stream per (rack, run) for the synthesis of that rack run.

Because each (rack, run) stream is derived purely from indices, any
rack run can be synthesized in isolation — which is what makes
generation embarrassingly parallel and cacheable (see
:mod:`repro.fleet.cache`).

One synthesis unit
------------------
A :class:`ShardTask` — a rack range x hour band of (rack, run) seed
leaves — is the only unit of synthesis: :func:`synthesize_shard`
synthesizes its runs in fluid batches and reduces each batch at once.
:func:`generate_region_dataset` and the shard store
(:mod:`repro.fleet.shards`) both plan tasks with
:func:`plan_region_shards` and drive them through the one fan-out,
:func:`repro.fleet.parallel.fan_out`.  For a fixed seed the summaries
are identical for any plan geometry and job count, and when loaded
back from the on-disk cache.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ..analysis.summary import RunSummary, summarize_run
from ..config import FleetConfig
from ..errors import ConfigError
from ..obs.metrics import Metrics
from ..workload.region import RackWorkload, RegionSpec, build_region_workloads
from .frames import FrameAggregations, ShardFrame, summaries_to_columns
from .parallel import fan_out, resolve_jobs
from .rackrun import BatchItem, RackRunSynthesizer

#: Stream-tree branch tags (the first element of every spawn key).
_PLACEMENT_STREAM = 0
_HOURS_STREAM = 1
_RUN_STREAM = 2

#: Default shard geometry: racks per shard x hours per shard.  64 x 12
#: keeps a paper-scale (1000-rack) region at ~32 shards of a few
#: thousand runs each — large enough to amortize fluid batching, small
#: enough that one shard of summaries is a trivial memory footprint.
DEFAULT_SHARD_RACKS = 64
DEFAULT_SHARD_HOURS = 12


@dataclass
class DatasetSummary:
    """Table 1's row for one region."""

    region: str
    runs: int
    server_runs: int
    bursty_server_runs: int
    bursts: int
    racks: int

    @property
    def bursty_run_fraction(self) -> float:
        if self.server_runs == 0:
            return 0.0
        return self.bursty_server_runs / self.server_runs


@dataclass
class RegionDataset(FrameAggregations):
    """All reduced runs for one region-day, held in memory.

    Its aggregations (:class:`~repro.fleet.frames.FrameAggregations`)
    read the whole day as one columnar frame, built on first use.
    """

    region: str
    summaries: list[RunSummary]
    workloads: list[RackWorkload] = field(default_factory=list)
    _frame: ShardFrame | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The frame is derived: cache entries hold only the dataset.
        state = dict(self.__dict__)
        state.pop("_frame", None)
        return state

    @property
    def rack_names(self) -> list[str]:
        return [workload.rack for workload in self.workloads]

    def iter_frames(self) -> Iterator[ShardFrame]:
        """The whole day as one frame; rack ids index :attr:`workloads`."""
        if self._frame is None:
            rack_ids = {name: index for index, name in enumerate(self.rack_names)}
            runs, bursts = summaries_to_columns(
                self.summaries, [rack_ids[summary.rack] for summary in self.summaries]
            )
            self._frame = ShardFrame(record={}, runs=runs, bursts=bursts)
        yield self._frame


# -- seed-stream tree --------------------------------------------------------


def _region_entropy(region: str, seed: int) -> tuple[int, int]:
    """Root entropy for one region's stream tree.

    Deterministic per-region salt: Python's hash() is salted per process
    and would make "the same dataset" differ across runs, so the region
    name is mixed in via crc32.  SeedSequence requires non-negative
    entropy words.
    """
    return (seed % 2**63, zlib.crc32(region.encode("utf-8")))


def _stream(region: str, seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    sequence = np.random.SeedSequence(_region_entropy(region, seed), spawn_key=spawn_key)
    return np.random.default_rng(sequence)


def placement_rng(region: str, seed: int) -> np.random.Generator:
    """The stream that places tasks on every rack of a region."""
    return _stream(region, seed, (_PLACEMENT_STREAM,))


def rack_hours_rng(region: str, seed: int, rack_index: int) -> np.random.Generator:
    """The stream that schedules one rack's run hours."""
    return _stream(region, seed, (_HOURS_STREAM, rack_index))


def run_rng(region: str, seed: int, rack_index: int, run_index: int) -> np.random.Generator:
    """The stream that synthesizes one rack run, independent of all others."""
    return _stream(region, seed, (_RUN_STREAM, rack_index, run_index))


def _run_hours(
    runs_per_rack: int, hours: int, rng: np.random.Generator
) -> np.ndarray:
    """Hours at which one rack is sampled: spread across the day.

    The control plane schedules each rack roughly hourly but a rack
    lands in the sampled subset ~10 times a day (Section 7.2: "Each
    rack is typically associated with 10 runs spread throughout the
    day").
    """
    if runs_per_rack > hours:
        raise ConfigError("cannot run a rack more often than hourly in this model")
    chosen = rng.choice(hours, size=runs_per_rack, replace=False)
    return np.sort(chosen)


# -- generation plan ---------------------------------------------------------


@dataclass(frozen=True)
class RackRunPlan:
    """Everything needed to synthesize one rack's day in isolation."""

    rack_index: int
    workload: RackWorkload
    hours: tuple[int, ...]


def plan_region(spec: RegionSpec, config: FleetConfig) -> list[RackRunPlan]:
    """Deterministically place workloads and schedule every rack's runs.

    The plan is cheap (no fluid-model time); the expensive synthesis of
    each plan entry is independent of every other entry.
    """
    rng = placement_rng(spec.name, config.seed)
    workloads = build_region_workloads(spec, config.racks_per_region, rng)
    plans: list[RackRunPlan] = []
    for rack_index, workload in enumerate(workloads):
        hours = _run_hours(
            config.runs_per_rack,
            config.hours,
            rack_hours_rng(spec.name, config.seed, rack_index),
        )
        plans.append(
            RackRunPlan(
                rack_index=rack_index,
                workload=workload,
                hours=tuple(int(hour) for hour in hours),
            )
        )
    return plans




# -- shard plan and the synthesis unit ---------------------------------------


@dataclass(frozen=True)
class ShardKey:
    """Identity of one shard: a rack range x hour band of one region."""

    region: str
    rack_lo: int
    rack_hi: int  # exclusive
    hour_lo: int
    hour_hi: int  # exclusive

    @property
    def tag(self) -> str:
        return (
            f"r{self.rack_lo:04d}-{self.rack_hi:04d}"
            f"-h{self.hour_lo:02d}-{self.hour_hi:02d}"
        )


@dataclass(frozen=True)
class ShardTask:
    """One shard's generation work: the plans whose rack index falls in
    the range, each with the run indices whose hour falls in the band.

    ``run_indices`` index into the rack's *full* day schedule, so every
    run keeps its original ``(rack_index, run_index)`` seed-stream leaf
    and shard contents are bit-identical to any other plan geometry.
    """

    key: ShardKey
    plans: tuple[RackRunPlan, ...]
    run_indices: tuple[tuple[int, ...], ...]  # aligned with plans

    @property
    def total_runs(self) -> int:
        return sum(len(indices) for indices in self.run_indices)


def plan_region_shards(
    spec: RegionSpec,
    config: FleetConfig,
    shard_racks: int = DEFAULT_SHARD_RACKS,
    shard_hours: int = DEFAULT_SHARD_HOURS,
) -> tuple[list[RackRunPlan], list[ShardTask]]:
    """Partition a region plan into shard tasks.

    Returns the full plan list (rack order — the workloads contract)
    and the shard tasks ordered by (rack range, hour band).  Every
    (rack, run) of the plan appears in exactly one shard; shards with
    no runs are not planned.
    """
    if shard_racks < 1:
        raise ConfigError("shard must span at least one rack")
    if shard_hours < 1:
        raise ConfigError("shard must span at least one hour")
    plans = plan_region(spec, config)
    tasks: list[ShardTask] = []
    for rack_lo in range(0, len(plans), shard_racks):
        rack_hi = min(rack_lo + shard_racks, len(plans))
        for hour_lo in range(0, config.hours, shard_hours):
            hour_hi = min(hour_lo + shard_hours, config.hours)
            shard_plans: list[RackRunPlan] = []
            shard_indices: list[tuple[int, ...]] = []
            for plan in plans[rack_lo:rack_hi]:
                indices = tuple(
                    run_index
                    for run_index, hour in enumerate(plan.hours)
                    if hour_lo <= hour < hour_hi
                )
                if indices:
                    shard_plans.append(plan)
                    shard_indices.append(indices)
            if not shard_plans:
                continue
            tasks.append(
                ShardTask(
                    key=ShardKey(spec.name, rack_lo, rack_hi, hour_lo, hour_hi),
                    plans=tuple(shard_plans),
                    run_indices=tuple(shard_indices),
                )
            )
    return plans, tasks


def _summarize_batch(
    items: list[BatchItem],
    synthesizer: RackRunSynthesizer,
    metrics: Metrics,
) -> list[RunSummary]:
    """Synthesize one fluid batch and reduce every run immediately."""
    sync_runs = synthesizer.synthesize_batch(items, metrics=metrics)
    with metrics.span("synthesis/summarize"):
        return [summarize_run(sync_run) for sync_run in sync_runs]


def synthesize_shard(
    task: ShardTask,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    metrics: Metrics | None = None,
) -> list[RunSummary]:
    """Synthesize one task's runs (rack-major, hour-ascending order),
    reducing each fluid batch immediately — the one unit of synthesis.

    Batches of ``config.fluid_batch`` runs cross rack boundaries, so a
    task spanning many racks keeps the fluid kernel's batches full;
    peak memory is one batch of raw runs regardless of task size.
    """
    synthesizer = synthesizer or RackRunSynthesizer(policy=config.policy, kernel=config.kernel)
    metrics = metrics if metrics is not None else Metrics()
    items: list[BatchItem] = [
        (
            plan.workload,
            plan.hours[run_index],
            run_rng(task.key.region, config.seed, plan.rack_index, run_index),
        )
        for plan, run_indices in zip(task.plans, task.run_indices)
        for run_index in run_indices
    ]
    summaries: list[RunSummary] = []
    for start in range(0, len(items), config.fluid_batch):
        summaries.extend(
            _summarize_batch(items[start : start + config.fluid_batch], synthesizer, metrics)
        )
    return summaries


def generate_region_dataset(
    spec: RegionSpec,
    config: FleetConfig,
    synthesizer: RackRunSynthesizer | None = None,
    progress: Callable[[int, int], None] | None = None,
    jobs: int | None = None,
    metrics: Metrics | None = None,
    pool=None,
    cancel_event=None,
) -> RegionDataset:
    """Generate and reduce one region-day.

    ``jobs`` overrides ``config.jobs``: 1 synthesizes in this process as
    one task spanning the whole region (fluid batches cross racks), N > 1
    fans one task per rack day out over a process pool, and 0 uses every
    available core.  The result is identical for any job count.
    ``metrics`` receives a ``generate/<region>`` span and a
    ``dataset.generated_runs`` counter; telemetry never shapes data.
    ``pool``/``cancel_event`` reach the fan-out (see
    :func:`repro.fleet.parallel.fan_out`); the query service uses them
    for its persistent pool and graceful drain.
    """
    jobs = resolve_jobs(config.jobs if jobs is None else jobs)
    parallel = jobs > 1 or pool is not None
    metrics = metrics if metrics is not None else Metrics()
    plans, tasks = plan_region_shards(
        spec,
        config,
        shard_racks=1 if parallel else max(1, config.racks_per_region),
        shard_hours=config.hours,
    )
    total = sum(task.total_runs for task in tasks)
    per_task: dict[ShardKey, list[RunSummary]] = {}
    done = 0

    def handle(task: ShardTask, summaries: list[RunSummary]) -> None:
        nonlocal done
        per_task[task.key] = summaries
        done += len(summaries)
        if parallel:
            metrics.incr("dataset.parallel.rack_days")
        if progress is not None:
            progress(done, total)

    with metrics.span(f"generate/{spec.name}"):
        fan_out(
            tasks,
            partial(synthesize_shard, config=config, synthesizer=synthesizer),
            handle,
            jobs=jobs,
            metrics=metrics,
            kernel=config.kernel,
            label=lambda task: f"rack {task.key.rack_lo} ({task.plans[0].workload.rack})",
            pool=pool,
            cancel_event=cancel_event,
        )
    summaries = [summary for task in tasks for summary in per_task[task.key]]
    metrics.incr("dataset.generated_runs", len(summaries))
    # Every *planned* rack contributes its workload in rack order, even
    # racks that scheduled zero runs (the shard store keeps the same rule).
    return RegionDataset(
        region=spec.name,
        summaries=summaries,
        workloads=[plan.workload for plan in plans],
    )
