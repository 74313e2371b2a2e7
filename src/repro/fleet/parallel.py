"""Process-pool fan-out for region-day synthesis.

Dataset generation is embarrassingly parallel once every (rack, run)
pair owns an independent seed stream (see the seeding notes in
:mod:`repro.fleet.dataset`).  :func:`fan_out` is the one fan-out: both
:func:`~repro.fleet.dataset.generate_region_dataset` and the shard
store's build hand it their synthesis tasks and run them inline or
over a process pool.  Workers reduce every raw run to its
:class:`~repro.analysis.summary.RunSummary` before returning, so peak
memory stays one fluid batch per worker and only small results cross
the process boundary.

Determinism is structural, not incidental — workers never share RNG
state, and callers reassemble results in task order — so a region-day
is byte-identical for any job count.

:func:`run_windowed` is the pool substrate under :func:`fan_out`.  It
owns the failure semantics a long-lived process needs:

* **fail-fast** — the first task exception cancels everything still
  queued and surfaces as :class:`~repro.errors.WorkerTaskError` naming
  the failing unit, so a crash at rack 3 of 1000 costs O(window) work,
  not O(racks);
* **crash containment** — a worker process dying abruptly
  (``BrokenProcessPool``) is retried once on a fresh pool when the
  substrate owns the pool (transient death: OOM kill, stray signal);
  a second break raises :class:`~repro.errors.WorkerCrashError` listing
  the in-flight suspects;
* **graceful drain** — a ``cancel_event`` stops new submissions,
  lets in-flight work finish, and raises
  :class:`~repro.errors.WorkerCancelled` (the service's SIGTERM path).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, TypeVar

from ..errors import ConfigError, WorkerCancelled, WorkerCrashError, WorkerTaskError
from ..obs.metrics import Metrics
from .kernels import consume_pending, pool_initializer

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: int, reserved: int = 0) -> int:
    """Resolve a ``--jobs`` value: 0 means every available core.

    ``reserved`` subtracts cores already committed elsewhere from the
    auto-detected count — the query service passes its active request
    thread count so a persistent pool plus ``--exp-jobs`` style thread
    fan-out cannot double-subscribe the machine.  An *explicit* job
    count is honored as given (the caller said exactly what they want);
    only the ``0 = everything`` auto mode is clamped.  At least one
    worker always survives the clamp.
    """
    if jobs < 0:
        raise ConfigError("jobs cannot be negative")
    if reserved < 0:
        raise ConfigError("reserved core count cannot be negative")
    if jobs == 0:
        return max(1, (os.cpu_count() or 1) - reserved)
    return jobs


def run_windowed(
    items: Sequence[T],
    submit: Callable[[Executor, T], Future],
    handle: Callable[[T, Any], None],
    *,
    jobs: int = 1,
    window: int | None = None,
    label: Callable[[T], str] = repr,
    pool: Executor | None = None,
    retry_broken: bool = True,
    cancel_event: threading.Event | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> int:
    """Fan ``items`` out over a process pool with a shallow window.

    ``submit(executor, item)`` starts one unit of work and returns its
    future; ``handle(item, result)`` consumes each result in completion
    order.  At most ``window`` (default ``2 * jobs``) futures are in
    flight, so a huge region never has every task pickled and queued at
    once.  Returns the number of items handled.

    When ``pool`` is None the substrate creates and owns a
    ``ProcessPoolExecutor`` (``initializer``/``initargs`` run in each
    worker at fork — kernel JIT warm-up lives there); passing an
    executor (the service's persistent pool) reuses it, in which case a
    broken pool is *not* retried here — the pool's owner decides how to
    replace it — and the initializer is the pool owner's business.

    Failure semantics (see the module docstring): first task exception
    → cancel queued work, raise :class:`WorkerTaskError`; broken pool →
    one retry of the unfinished items on a fresh owned pool, then
    :class:`WorkerCrashError`; ``cancel_event`` set → drain in-flight
    work, raise :class:`WorkerCancelled`.
    """
    items = list(items)
    total = len(items)
    if total == 0:
        return 0
    jobs = resolve_jobs(jobs)
    if window is None:
        window = 2 * jobs
    if window < 1:
        raise ConfigError("window must admit at least one in-flight task")

    completed = 0
    pending: deque[int] = deque(range(total))
    retried = False
    while pending:
        owned: ProcessPoolExecutor | None = None
        executor = pool
        if executor is None:
            owned = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                initializer=initializer,
                initargs=initargs,
            )
            executor = owned
        in_flight: dict[Future, int] = {}
        drained = False
        retry_break: BrokenProcessPool | None = None
        try:
            while in_flight or (pending and not drained):
                if cancel_event is not None and cancel_event.is_set():
                    drained = True
                while pending and not drained and len(in_flight) < window:
                    index = pending.popleft()
                    try:
                        future = submit(executor, items[index])
                    except BrokenProcessPool as exc:
                        # A worker that died while the pool was idle (or
                        # between windows) breaks the pool before any
                        # future exists; same contract as a broken
                        # in-flight future.
                        unfinished = sorted((index, *in_flight.values(), *pending))
                        if owned is not None and retry_broken and not retried:
                            retried = True
                            pending = deque(unfinished)
                            retry_break = exc
                            break
                        suspects = [label(items[index])] + [
                            label(items[i]) for i in sorted(in_flight.values())
                        ]
                        raise WorkerCrashError(suspects, detail=str(exc)) from exc
                    in_flight[future] = index
                if retry_break is not None:
                    break
                if not in_flight:
                    break
                finished, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in finished:
                    index = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        # Every in-flight future reports the same pool
                        # breakage; the true victim is unknowable, so
                        # collect every suspect before deciding.
                        unfinished = sorted((index, *in_flight.values(), *pending))
                        if owned is not None and retry_broken and not retried:
                            retried = True
                            pending = deque(unfinished)
                            retry_break = exc
                            break
                        suspects = [label(items[index])] + [
                            label(items[i]) for i in sorted(in_flight.values())
                        ]
                        raise WorkerCrashError(suspects, detail=str(exc)) from exc
                    except Exception as exc:
                        raise WorkerTaskError(label(items[index]), exc) from exc
                    handle(items[index], result)
                    completed += 1
                if retry_break is not None:
                    break
        finally:
            if owned is not None:
                # cancel_futures drops everything still queued — the
                # fail-fast half of the contract; wait=False lets the
                # raising path return after at most one in-flight task
                # per worker.
                owned.shutdown(wait=False, cancel_futures=True)
            else:
                for future in in_flight:
                    future.cancel()
        if retry_break is not None:
            continue  # fresh owned pool for the unfinished items
        if drained and pending:
            raise WorkerCancelled(completed, total)
        pending.clear()
    return completed


def fan_out(
    tasks: Sequence[T],
    work: Callable[..., R],
    handle: Callable[[T, R], None],
    *,
    jobs: int,
    metrics: Metrics,
    kernel: str,
    label: Callable[[T], str],
    pool: Executor | None = None,
    cancel_event: threading.Event | None = None,
) -> None:
    """Run ``work(task, metrics=...)`` for every task and pass each
    result to ``handle(task, result)``.

    With ``jobs`` resolving to 1 and no ``pool``, or with at most one
    task, tasks run inline in task order, recording into ``metrics``;
    a set ``cancel_event`` stops them between tasks with
    :class:`~repro.errors.WorkerCancelled`.  Otherwise they fan out
    through :func:`run_windowed` (``kernel`` warms each owned worker):
    each worker records into its own registry, whose snapshot is merged
    into ``metrics`` before ``handle`` runs.  ``work`` must pickle — a
    module-level function or a ``functools.partial`` of one.
    """
    tasks = list(tasks)
    if (resolve_jobs(jobs) == 1 and pool is None) or len(tasks) <= 1:
        for index, task in enumerate(tasks):
            if cancel_event is not None and cancel_event.is_set():
                raise WorkerCancelled(index, len(tasks))
            handle(task, work(task, metrics=metrics))
        return

    def merge(task: T, result: tuple[R, dict]) -> None:
        value, snapshot = result
        metrics.merge(snapshot)
        handle(task, value)

    run_windowed(
        tasks,
        lambda executor, task: executor.submit(_pooled, work, task),
        merge,
        jobs=jobs,
        label=label,
        pool=pool,
        cancel_event=cancel_event,
        initializer=pool_initializer,
        initargs=(kernel,),
    )


def _pooled(work: Callable[..., R], task) -> tuple[R, dict]:
    """Pool worker entry point: one task into a worker-local registry.

    Telemetry crosses the process boundary as a plain snapshot, never
    as shared state.
    """
    metrics = Metrics()
    consume_pending(metrics)  # pool-initializer JIT compile time
    return work(task, metrics=metrics), metrics.snapshot()
