"""Sharded, out-of-core columnar store for region-day datasets.

The paper's primary dataset is 2 regions x ~1000 racks x 24 h — an
8.16 B-sample footprint that cannot live as one in-memory
:class:`RegionDataset` behind a single pickle blob.  This module
partitions a region-day into per-``(region, rack-range, hour-band)``
**shards**, each independently generated from the per-(rack, run) seed
streams of :mod:`repro.fleet.dataset`, so generation, caching, and
analysis pipeline shard-by-shard across workers with peak memory
bounded by one shard.

On disk a store is one directory per (region, dataset key, shard
geometry)::

    <store-dir>/RegA-<dataset_key>-r64h12/
        manifest.json            # shard index: keys, hashes, counts
        workloads.pkl            # every planned RackWorkload, rack order
        r0000-0064-h00-12.runs.npy    # columnar numeric run summary fields
        r0000-0064-h00-12.bursts.npy  # columnar per-burst annotations
        r0000-0064-h00-12.pkl         # full RunSummary objects (pickled)

* ``*.runs.npy`` / ``*.bursts.npy`` are plain ``.npy`` arrays loaded
  with ``np.load(mmap_mode="r")`` — zero-copy columnar access for the
  streaming aggregations (:mod:`repro.analysis.streaming`).
* ``*.pkl`` holds the full :class:`RunSummary` objects for consumers
  that need burst records or server stats beyond the numeric columns;
  it is only ever loaded one shard at a time.
* every file is written to a ``*.tmp`` sibling and atomically renamed;
  the manifest is written last, so a crashed writer can never leave a
  store that *looks* complete.  Stale temp files are swept on build.

Shards are synthesized by the same unit and fan-out as the in-memory
:func:`~repro.fleet.dataset.generate_region_dataset`, and every
(rack, run) pair owns an independent seed-stream leaf, so shard
contents are **bit-identical** to the corresponding slice of the
in-memory region-day; the determinism suite holds shard-by-shard.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import threading
from concurrent.futures import Executor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ..analysis.summary import RunSummary
from ..config import FleetConfig
from ..errors import ConfigError
from ..obs.metrics import Metrics
from ..workload.region import RackWorkload, RegionSpec
from .cache import dataset_cache_key, sweep_stale_tmp_files
from .dataset import (
    DEFAULT_SHARD_HOURS,
    DEFAULT_SHARD_RACKS,
    RegionDataset,
    ShardKey,
    ShardTask,
    plan_region_shards,
    synthesize_shard,
)
from .frames import (
    BURST_COL,
    BURST_COLUMNS,
    RUN_COL,
    RUN_COLUMNS,
    FrameAggregations,
    ShardFrame,
    _close_mmap,
    summaries_to_columns,
)
from .parallel import fan_out
from .rackrun import RackRunSynthesizer

logger = logging.getLogger(__name__)

#: Bump whenever the shard layout or the summary reduction changes in a
#: way that invalidates existing stores.
SHARD_FORMAT_VERSION = 1

#: Schema tag distinguishing a shard-store manifest from any other JSON.
STORE_SCHEMA = "millisampler-repro/shard-store"

#: Environment override for the default store location.
STORE_DIR_ENV = "MILLISAMPLER_STORE_DIR"

def default_store_dir() -> str:
    """``$MILLISAMPLER_STORE_DIR`` or ``~/.cache/millisampler-shards``."""
    override = os.environ.get(STORE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "millisampler-shards")


# -- atomic file plumbing ----------------------------------------------------


def _atomic_write(path: str, write: Callable) -> None:
    """Write via a same-directory temp file + atomic rename."""
    directory = os.path.dirname(path)
    handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            write(stream)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- shard generation (worker side) ------------------------------------------


def _write_shard(
    directory: str,
    task: ShardTask,
    summaries: list[RunSummary],
    metrics: Metrics,
) -> dict:
    """Write one shard's three files atomically; return its manifest record."""
    rack_ids = [
        plan.rack_index
        for plan, indices in zip(task.plans, task.run_indices)
        for _ in indices
    ]
    runs, bursts = summaries_to_columns(summaries, rack_ids)
    tag = task.key.tag
    names = {
        "runs": f"{tag}.runs.npy",
        "bursts": f"{tag}.bursts.npy",
        "summaries": f"{tag}.pkl",
    }
    with metrics.span("shards/write"):
        _atomic_write(
            os.path.join(directory, names["runs"]), lambda s: np.save(s, runs)
        )
        _atomic_write(
            os.path.join(directory, names["bursts"]), lambda s: np.save(s, bursts)
        )
        _atomic_write(
            os.path.join(directory, names["summaries"]),
            lambda s: pickle.dump(summaries, s, protocol=pickle.HIGHEST_PROTOCOL),
        )
    record = {
        "tag": tag,
        "region": task.key.region,
        "rack_lo": task.key.rack_lo,
        "rack_hi": task.key.rack_hi,
        "hour_lo": task.key.hour_lo,
        "hour_hi": task.key.hour_hi,
        "runs": int(runs.shape[0]),
        "bursts": int(bursts.shape[0]),
        "racks_present": int(np.unique(runs[:, RUN_COL["rack_id"]]).size),
        "files": names,
        "bytes": {
            kind: os.path.getsize(os.path.join(directory, name))
            for kind, name in names.items()
        },
        "sha256": {
            kind: _sha256_file(os.path.join(directory, name))
            for kind, name in names.items()
        },
    }
    return record


def _build_shard(
    task: ShardTask,
    config: FleetConfig,
    directory: str,
    synthesizer: RackRunSynthesizer | None,
    metrics: Metrics,
) -> dict:
    """Generate and write one whole shard; return its manifest record.

    The store's unit of work for :func:`repro.fleet.parallel.fan_out`:
    only the record (and, in a pool, a telemetry snapshot) crosses the
    process boundary back to the parent.
    """
    with metrics.span("shards/generate"):
        summaries = synthesize_shard(task, config, synthesizer, metrics=metrics)
        return _write_shard(directory, task, summaries, metrics)


# -- the store ---------------------------------------------------------------


class ShardStoreError(Exception):
    """An unreadable or inconsistent shard store (treated as a miss)."""


@dataclass
class RegionShardStore:
    """One region-day's shard directory: build, validate, and open.

    The directory name embeds the dataset content key (everything that
    shapes the data) *and* the shard geometry (which shapes only the
    file layout), so differently-sharded stores of the same dataset
    coexist without aliasing.
    """

    root: str
    spec: RegionSpec
    config: FleetConfig
    shard_racks: int = DEFAULT_SHARD_RACKS
    shard_hours: int = DEFAULT_SHARD_HOURS
    metrics: Metrics = field(default_factory=Metrics, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shard_racks < 1 or self.shard_hours < 1:
            raise ConfigError("shard geometry must be at least 1x1")

    @property
    def dataset_key(self) -> str:
        return dataset_cache_key(self.spec, self.config)

    @property
    def directory(self) -> str:
        return os.path.join(
            self.root,
            f"{self.spec.name}-{self.dataset_key[:16]}"
            f"-r{self.shard_racks}h{self.shard_hours}",
        )

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    # -- reading ---------------------------------------------------------

    def load_manifest(self) -> dict | None:
        """The validated manifest, or None when absent/stale/corrupt."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except FileNotFoundError:
            self.metrics.incr("dataset.shards.miss")
            return None
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("ignoring unreadable shard manifest %s: %s", self.manifest_path, exc)
            self.metrics.incr("dataset.shards.miss")
            return None
        try:
            self._validate(manifest)
        except ShardStoreError as exc:
            logger.warning("ignoring stale shard store %s: %s", self.directory, exc)
            self.metrics.incr("dataset.shards.miss")
            return None
        self.metrics.incr("dataset.shards.hit")
        return manifest

    def _validate(self, manifest: dict) -> None:
        if manifest.get("schema") != STORE_SCHEMA:
            raise ShardStoreError("not a shard-store manifest")
        if manifest.get("format") != SHARD_FORMAT_VERSION:
            raise ShardStoreError(
                f"format {manifest.get('format')} != {SHARD_FORMAT_VERSION}"
            )
        if manifest.get("dataset_key") != self.dataset_key:
            raise ShardStoreError("dataset key mismatch")
        if manifest.get("region") != self.spec.name:
            raise ShardStoreError("region mismatch")
        if (
            manifest.get("shard_racks") != self.shard_racks
            or manifest.get("shard_hours") != self.shard_hours
        ):
            raise ShardStoreError("shard geometry mismatch")
        if list(manifest.get("run_columns", [])) != list(RUN_COLUMNS) or list(
            manifest.get("burst_columns", [])
        ) != list(BURST_COLUMNS):
            raise ShardStoreError("column layout mismatch")
        for record in manifest.get("shards", []):
            for kind, name in record["files"].items():
                path = os.path.join(self.directory, name)
                if not os.path.exists(path):
                    raise ShardStoreError(f"missing shard file {name}")
                expected = record["bytes"][kind]
                actual = os.path.getsize(path)
                if actual != expected:
                    raise ShardStoreError(
                        f"shard file {name} is {actual} bytes, expected {expected}"
                    )
        workloads = manifest.get("workloads_file")
        if workloads and not os.path.exists(os.path.join(self.directory, workloads)):
            raise ShardStoreError("missing workloads file")

    def verify_hashes(self, manifest: dict) -> bool:
        """Deep content check: every shard file matches its manifest hash."""
        for record in manifest.get("shards", []):
            for kind, name in record["files"].items():
                if _sha256_file(os.path.join(self.directory, name)) != record["sha256"][kind]:
                    return False
        return True

    # -- building --------------------------------------------------------

    def build(
        self,
        jobs: int = 1,
        synthesizer: RackRunSynthesizer | None = None,
        progress: Callable[[int, int], None] | None = None,
        pool: Executor | None = None,
        cancel_event: threading.Event | None = None,
        on_shard: Callable[[dict], None] | None = None,
    ) -> dict:
        """Generate every shard (inline or across a process pool) and
        atomically publish the manifest.  Returns the manifest.

        ``on_shard`` receives each shard's manifest record as it
        completes (the query service streams these as NDJSON progress
        events).  ``pool`` injects an external executor — the service's
        persistent pool — instead of creating one per build;
        ``cancel_event`` requests a graceful drain (in-flight shards
        finish, the manifest is *not* written, and
        :class:`~repro.errors.WorkerCancelled` is raised — the store
        stays an incomplete-but-consistent miss thanks to manifest-last
        atomicity).  Fan-out and failure semantics come from
        :func:`repro.fleet.parallel.fan_out`: fail-fast
        ``WorkerTaskError`` naming the shard, crash containment via
        ``WorkerCrashError``.
        """
        os.makedirs(self.directory, exist_ok=True)
        sweep_stale_tmp_files(self.directory, metrics=self.metrics)
        plans, tasks = plan_region_shards(
            self.spec, self.config, self.shard_racks, self.shard_hours
        )
        total = sum(task.total_runs for task in tasks)
        done = 0
        records: dict[str, dict] = {}

        def collect(task: ShardTask, record: dict) -> None:
            nonlocal done
            records[record["tag"]] = record
            self.metrics.incr("dataset.shards.generated")
            done += record["runs"]
            if progress is not None:
                progress(done, total)
            if on_shard is not None:
                on_shard(record)

        with self.metrics.span(f"shards/build/{self.spec.name}"):
            fan_out(
                tasks,
                partial(
                    _build_shard,
                    config=self.config,
                    directory=self.directory,
                    synthesizer=synthesizer,
                ),
                collect,
                jobs=jobs,
                metrics=self.metrics,
                kernel=self.config.kernel,
                label=lambda task: f"shard {task.key.tag}",
                pool=pool,
                cancel_event=cancel_event,
            )

        _atomic_write(
            os.path.join(self.directory, "workloads.pkl"),
            lambda s: pickle.dump(
                [plan.workload for plan in plans], s, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        manifest = {
            "schema": STORE_SCHEMA,
            "format": SHARD_FORMAT_VERSION,
            "region": self.spec.name,
            "dataset_key": self.dataset_key,
            "shard_racks": self.shard_racks,
            "shard_hours": self.shard_hours,
            "config": {
                "racks_per_region": self.config.racks_per_region,
                "runs_per_rack": self.config.runs_per_rack,
                "hours": self.config.hours,
                "seed": self.config.seed,
                # Human-auditable record of the sharing policy the store
                # was generated under; identity-wise the policy is
                # already inside dataset_key (and the directory name),
                # so stores for different policies can never collide.
                "policy": json.loads(self.config.policy.canonical_json()),
            },
            "rack_names": [plan.workload.rack for plan in plans],
            "workloads_file": "workloads.pkl",
            "run_columns": list(RUN_COLUMNS),
            "burst_columns": list(BURST_COLUMNS),
            "total_runs": total,
            "shards": [records[task.key.tag] for task in tasks],
        }
        _atomic_write(
            self.manifest_path,
            lambda s: s.write(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")),
        )
        self.metrics.incr("dataset.shards.stored", len(tasks))
        return manifest

    def open(
        self,
        jobs: int = 1,
        progress: Callable[[int, int], None] | None = None,
        pool: Executor | None = None,
        cancel_event: threading.Event | None = None,
        on_shard: Callable[[dict], None] | None = None,
    ) -> "ShardedRegionDataset":
        """Open the store, building it first on a miss."""
        manifest = self.load_manifest()
        if manifest is None:
            manifest = self.build(
                jobs=jobs,
                progress=progress,
                pool=pool,
                cancel_event=cancel_event,
                on_shard=on_shard,
            )
        return ShardedRegionDataset(store=self, manifest=manifest)


# -- the lazy dataset view ---------------------------------------------------


@dataclass
class ShardedRegionDataset(FrameAggregations):
    """Lazy region-day view over a shard store.

    Offers what :class:`RegionDataset` does (``region``, ``summaries``,
    ``workloads`` and the :class:`~repro.fleet.frames.FrameAggregations`)
    but folds the aggregations **streamingly**, one memmap-backed shard
    frame at a time.  Accessing :attr:`summaries` materializes every
    shard and is the path for analyses that need full summaries.
    """

    store: RegionShardStore
    manifest: dict
    _summaries: list[RunSummary] | None = field(default=None, repr=False)
    _workloads: list[RackWorkload] | None = field(default=None, repr=False)

    @property
    def region(self) -> str:
        return self.manifest["region"]

    @property
    def rack_names(self) -> list[str]:
        return self.manifest["rack_names"]

    @property
    def metrics(self) -> Metrics:
        return self.store.metrics

    # -- shard iteration -------------------------------------------------

    def iter_frames(self) -> Iterator[ShardFrame]:
        """Memmap-backed columnar frames, shard by shard.

        Each frame holds two open fds until its :meth:`ShardFrame.close`
        is called; the aggregations close every frame as soon as it is
        folded, and callers iterating directly should do the same.
        """
        for record in self.manifest["shards"]:
            with self.metrics.span("shards/load"):
                runs = np.load(
                    os.path.join(self.store.directory, record["files"]["runs"]),
                    mmap_mode="r",
                )
                bursts = np.load(
                    os.path.join(self.store.directory, record["files"]["bursts"]),
                    mmap_mode="r",
                )
            self.metrics.incr("dataset.shards.loaded")
            yield ShardFrame(record=record, runs=runs, bursts=bursts)

    def iter_summaries(self) -> Iterator[RunSummary]:
        """Every run summary in **global order** (rack-major, hour asc),
        holding one shard in memory at a time.

        Shards are stored (rack range major, hour band minor), so a
        rack's runs are split across hour bands; re-interleaving needs
        the shards of one rack range open together — that is one
        rack-range stripe, still far below whole-region footprint.
        """
        stripes: dict[int, list[dict]] = {}
        for record in self.manifest["shards"]:
            stripes.setdefault(record["rack_lo"], []).append(record)
        for rack_lo in sorted(stripes):
            per_rack: dict[int, list[tuple[int, RunSummary]]] = {}
            for record in sorted(stripes[rack_lo], key=lambda r: r["hour_lo"]):
                with self.metrics.span("shards/load"):
                    path = os.path.join(
                        self.store.directory, record["files"]["summaries"]
                    )
                    with open(path, "rb") as stream:
                        summaries = pickle.load(stream)
                runs = np.load(
                    os.path.join(self.store.directory, record["files"]["runs"]),
                    mmap_mode="r",
                )
                self.metrics.incr("dataset.shards.loaded")
                # astype copies, so the mapping (and its fd) can be
                # released before the next shard is opened.
                rack_ids = runs[:, RUN_COL["rack_id"]].astype(np.int64)
                hours = runs[:, RUN_COL["hour"]].astype(np.int64)
                _close_mmap(runs)
                for rack_id, hour, summary in zip(rack_ids, hours, summaries):
                    per_rack.setdefault(int(rack_id), []).append((int(hour), summary))
            for rack_id in sorted(per_rack):
                for _hour, summary in sorted(per_rack[rack_id], key=lambda p: p[0]):
                    yield summary

    # -- RegionDataset compatibility -------------------------------------

    @property
    def summaries(self) -> list[RunSummary]:
        """Materialized full summary list (legacy compatibility path)."""
        if self._summaries is None:
            self._summaries = list(self.iter_summaries())
        return self._summaries

    @property
    def workloads(self) -> list[RackWorkload]:
        if self._workloads is None:
            path = os.path.join(
                self.store.directory, self.manifest["workloads_file"]
            )
            with open(path, "rb") as stream:
                self._workloads = pickle.load(stream)
        return self._workloads

    def to_region_dataset(self) -> RegionDataset:
        """Materialize the equivalent in-memory :class:`RegionDataset`."""
        return RegionDataset(
            region=self.region, summaries=self.summaries, workloads=self.workloads
        )


def generate_region_shards(
    spec: RegionSpec,
    config: FleetConfig,
    store_dir: str,
    shard_racks: int = DEFAULT_SHARD_RACKS,
    shard_hours: int = DEFAULT_SHARD_HOURS,
    jobs: int = 1,
    metrics: Metrics | None = None,
    progress: Callable[[int, int], None] | None = None,
    pool: Executor | None = None,
    cancel_event: threading.Event | None = None,
    on_shard: Callable[[dict], None] | None = None,
) -> ShardedRegionDataset:
    """Build-or-open convenience wrapper around :class:`RegionShardStore`."""
    store = RegionShardStore(
        root=store_dir,
        spec=spec,
        config=config,
        shard_racks=shard_racks,
        shard_hours=shard_hours,
        metrics=metrics if metrics is not None else Metrics(),
    )
    return store.open(
        jobs=jobs,
        progress=progress,
        pool=pool,
        cancel_event=cancel_event,
        on_shard=on_shard,
    )


# Re-exported for the CLI's manifest epilogue.
__all__ = [
    "BURST_COL",
    "BURST_COLUMNS",
    "DEFAULT_SHARD_HOURS",
    "DEFAULT_SHARD_RACKS",
    "RUN_COL",
    "RUN_COLUMNS",
    "RegionShardStore",
    "ShardFrame",
    "ShardKey",
    "ShardStoreError",
    "ShardTask",
    "ShardedRegionDataset",
    "default_store_dir",
    "generate_region_shards",
    "plan_region_shards",
    "summaries_to_columns",
    "synthesize_shard",
]
