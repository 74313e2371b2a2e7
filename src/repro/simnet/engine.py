"""Discrete-event simulation engine.

A classic event-heap design: callbacks scheduled at absolute simulated
times, executed in time order (FIFO among equal times).  All network
components share one engine; simulated time never runs backwards.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError
from .audit import NOOP_TAP, active_tap


class Engine:
    """Event loop with absolute simulated time in seconds."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._events_run = 0
        self._audit = active_tap()
        # The no-op tap's hooks are empty, so skip the calls outright.
        self._audited = self._audit is not NOOP_TAP

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def pending(self) -> int:
        return len(self._heap)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now - 1e-15:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < now {self._now})"
            )
        if self._audited:
            self._audit.on_schedule(self, time)
        heapq.heappush(self._heap, (time, next(self._sequence), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError("delay cannot be negative")
        self.at(self._now + delay, callback)

    def step(self) -> bool:
        """Run the next event; returns False when no events remain."""
        if not self._heap:
            return False
        time, _seq, callback = heapq.heappop(self._heap)
        if self._audited:
            self._audit.on_advance(self, time)
        self._now = time
        self._events_run += 1
        callback()
        return True

    def run_until(self, end_time: float, max_events: int | None = None) -> None:
        """Run events with time <= ``end_time``; advances ``now`` to
        ``end_time`` even if the heap empties earlier."""
        heap = self._heap
        if max_events is not None:
            budget = max_events
            while heap and heap[0][0] <= end_time:
                if budget <= 0:
                    raise SimulationError(f"event budget exhausted at t={self._now}")
                self.step()
                budget -= 1
        else:
            # step() inlined: the common unbudgeted loop pays no method
            # call per event.
            audit = self._audit if self._audited else None
            heappop = heapq.heappop
            while heap and heap[0][0] <= end_time:
                time, _seq, callback = heappop(heap)
                if audit is not None:
                    audit.on_advance(self, time)
                self._now = time
                self._events_run += 1
                callback()
        if end_time > self._now:
            self._now = end_time

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap is empty."""
        budget = max_events
        while self.step():
            budget -= 1
            if budget <= 0 and self._heap:
                raise SimulationError("event budget exhausted; likely a scheduling loop")
