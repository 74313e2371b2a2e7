"""Per-server traffic demand synthesis.

Turns a rack's task placement into the fluid model's inputs: a
``(buckets, servers)`` matrix of offered bytes per millisecond, true
active-connection counts, and per-server sender-persistence constants.

Burst anatomy (per burst):

* arrival time — Poisson process at the task's diurnal-scaled rate;
* volume — lognormal (service-specific median/sigma);
* body intensity — clipped normal around the service mean, as a
  fraction of the server line rate;
* **slow-start overshoot** — the first couple of milliseconds arrive
  faster than the body, scaled by the burst's fan-in (many fresh DCTCP
  senders ramping together overshoot hardest; Section 3's heavy-incast
  problem).  The fluid DCTCP multiplier in the buffer model damps this
  for services whose senders stay adapted.

Contention emerges from three synchronization channels: bursts of one
*task* partially align on shared request/exchange waves (co-located
placements fire together), a smaller fraction align on *rack-wide*
waves (fan-in from common upstream aggregators), and the rest are
independent — plus sheer density.  Per-server burst rates are
heavy-tailed, and each run draws a rack-level load factor, giving the
run-to-run variation behind Figures 12 and 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import units
from ..errors import SimulationError
from ..workload.region import RackWorkload
from ..workload.services import ServiceSpec


@dataclass
class ServerDemand:
    """Fluid-model inputs for one rack run."""

    #: Offered bytes per bucket per server, (buckets, servers).
    demand: np.ndarray
    #: True active connection count per bucket per server.
    connections: np.ndarray
    #: Per-server sender-persistence time constants (seconds).
    persistence: np.ndarray
    #: Initial DCTCP rate multiplier per server (adapted for
    #: persistent-sender services, fully open otherwise).
    initial_multiplier: np.ndarray
    #: Initial DCTCP EWMA mark fraction (warm for persistent services,
    #: whose connections predate the run).
    initial_alpha: np.ndarray


def _libm_exp(values: np.ndarray) -> np.ndarray:
    """``exp`` of each element through libm, as the generator's own
    lognormal draws compute it."""
    return np.array(list(map(math.exp, values.tolist())))


class DemandModel:
    """Generates :class:`ServerDemand` for rack runs."""

    def __init__(
        self,
        step: float = units.ANALYSIS_INTERVAL,
        line_rate: float = units.SERVER_LINK_RATE,
        overshoot_scale: float = 0.4,
        overshoot_buckets: int = 2,
        shared_task_sync: float = 0.45,
        rack_sync: float = 0.15,
        rate_tail_sigma: float = 1.0,
        adapted_multiplier: float = 0.15,
    ) -> None:
        if overshoot_scale < 0:
            raise SimulationError("overshoot scale cannot be negative")
        if overshoot_buckets < 1:
            raise SimulationError("overshoot must span at least one bucket")
        if not 0 <= shared_task_sync <= 1 or not 0 <= rack_sync <= 1:
            raise SimulationError("sync fractions must be in [0, 1]")
        if shared_task_sync + rack_sync > 1:
            raise SimulationError("sync fractions cannot sum above 1")
        self.step = step
        self.line_rate = line_rate
        self.drain = line_rate * step
        self.overshoot_scale = overshoot_scale
        self.overshoot_buckets = overshoot_buckets
        # Geometric decay of the overshoot region; constant per model.
        self._decay_powers = np.array([0.5**bucket for bucket in range(overshoot_buckets)])
        self.shared_task_sync = shared_task_sync
        self.rack_sync = rack_sync
        self.rate_tail_sigma = rate_tail_sigma
        self.adapted_multiplier = adapted_multiplier

    # -- burst primitives ----------------------------------------------------

    def _burst_profiles(
        self, volume: np.ndarray, intensity: np.ndarray, overshoot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Byte arrivals per bucket for a batch of bursts.

        Returns every burst's profile concatenated in (burst, bucket)
        order, and each profile's length.  A burst's first
        ``overshoot_buckets`` buckets carry the geometrically decaying
        overshoot (``0.5**bucket``) on top of the constant body rate,
        then the body rate runs until the volume is spent; a burst with
        no volume has an empty profile.

        Bit-identical to the historical bucket-by-bucket loop: the
        overshoot head plus a few body buckets run as one column pass
        over all bursts (the median burst is one or two buckets), and
        the rare longer burst finishes in one ``np.subtract.accumulate``
        over its constant body rate — the same left-to-right
        subtraction order, so every bucket, including the final partial
        one, holds the identical floating-point value.
        """
        volume = np.asarray(volume, dtype=np.float64)
        body_rate = np.asarray(intensity, dtype=np.float64) * self.drain
        overshoot = np.asarray(overshoot, dtype=np.float64)
        over = self.overshoot_buckets
        head_limit = over + 8

        rates = np.empty((len(volume), head_limit))
        rates[:] = body_rate[:, None]
        rates[:, :over] = body_rate[:, None] * (
            1.0 + (overshoot - 1.0)[:, None] * self._decay_powers
        )
        head = np.empty_like(rates)
        remaining = volume.copy()
        alive = remaining > 0
        lengths = np.zeros(len(volume), dtype=np.int64)
        for bucket in range(head_limit):
            take = np.minimum(remaining, rates[:, bucket])
            head[:, bucket] = take
            remaining -= take
            lengths += alive
            alive &= remaining > 0

        # Bursts still holding bytes past the head drain body_rate per
        # bucket.  ceil(remaining / body_rate) + slack bounds the tail;
        # the historical loop's runaway guard capped profiles at 10_000
        # buckets, so never search further than that.
        tails: dict[int, np.ndarray] = {}
        for index in np.flatnonzero(alive).tolist():
            rate = float(body_rate[index])
            if rate > 0:
                tail_estimate = int(np.ceil(remaining[index] / rate)) + 2
            else:
                tail_estimate = 10_001
            tail = np.empty(1 + min(10_001, max(tail_estimate, 0)))
            tail[0] = remaining[index]
            tail[1:] = rate
            # tail[k] = bytes left after k more body buckets.
            np.subtract.accumulate(tail, out=tail)
            exhausted = np.flatnonzero(tail <= 0)
            if len(exhausted) == 0:
                raise SimulationError("burst profile failed to terminate")
            tail_buckets = int(exhausted[0])
            profile = np.full(tail_buckets, rate)
            # The last bucket takes whatever the sequential subtraction left.
            profile[-1] = tail[tail_buckets - 1]
            tails[index] = profile
            lengths[index] += tail_buckets
        if len(lengths) and lengths.max() > 10_000:
            raise SimulationError("burst profile failed to terminate")

        head_mask = np.arange(head_limit) < lengths[:, None]
        offsets = np.cumsum(lengths) - lengths
        values = np.empty(int(lengths.sum()))
        values[(offsets[:, None] + np.arange(head_limit))[head_mask]] = head[head_mask]
        for index, profile in tails.items():
            start = offsets[index] + head_limit
            values[start : start + len(profile)] = profile
        return values, lengths

    def _draw_burst_starts(
        self,
        spec: ServiceSpec,
        buckets: int,
        load: float,
        rng: np.random.Generator,
        task_phase: np.ndarray | None,
        rack_phase: np.ndarray,
        rate_multiplier: float,
    ) -> np.ndarray:
        """Burst start buckets: Poisson arrivals, partially synchronized.

        A burst aligns with one of three clocks: the *task's* shared
        phase (instances answering the same request waves / exchanging
        gradients in lockstep), the *rack's* phase (fan-in from common
        upstream aggregators hitting many services at once), or its own
        independent timing.  Synchronization is what turns per-server
        duty cycles into simultaneous buffer contention.
        """
        duration = buckets * self.step
        lam = spec.burst_rate * load * duration * rate_multiplier
        count = rng.poisson(lam)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        # Long-lived pools (collectives, streaming reads) stagger their
        # exchanges across peers; fresh request/response fan-in aligns
        # tightly on the triggering request wave.
        jitter = 16 if spec.sender_persistence >= 1.0 else 8
        choice = rng.random(count)
        starts = rng.integers(0, buckets, size=count)
        rack_aligned = choice < self.rack_sync
        if rack_aligned.any() and len(rack_phase) > 0:
            picks = rack_phase[rng.integers(0, len(rack_phase), size=count)]
            starts = np.where(
                rack_aligned, picks + rng.integers(0, jitter, size=count), starts
            )
        task_aligned = (choice >= self.rack_sync) & (
            choice < self.rack_sync + self.shared_task_sync
        )
        if task_aligned.any() and task_phase is not None and len(task_phase) > 0:
            picks = task_phase[rng.integers(0, len(task_phase), size=count)]
            starts = np.where(
                task_aligned, picks + rng.integers(0, jitter, size=count), starts
            )
        return np.clip(starts, 0, buckets - 1)

    def _serialize_starts(
        self, starts: np.ndarray, spec: ServiceSpec, buckets: int
    ) -> np.ndarray:
        """Push overlapping burst starts back so transfers on one host
        follow each other (separated by the typical burst length)."""
        if len(starts) == 0:
            return starts
        typical_length = max(
            1,
            int(
                np.exp(spec.burst_volume_log_mu)
                / (spec.burst_intensity_mean * self.drain)
            ),
        )
        # serialized[i] = max(ordered[i], serialized[i-1] + L): an exact
        # integer max-plus scan, L*i + max_{j<=i}(ordered[j] - L*j).
        ordered = np.sort(starts).astype(np.int64)
        shift = typical_length * np.arange(len(ordered), dtype=np.int64)
        serialized = shift + np.maximum.accumulate(ordered - shift)
        # Non-decreasing, so the starts inside the run are a prefix.
        return serialized[: np.searchsorted(serialized, buckets)]

    def _add_bursts(
        self,
        demand: np.ndarray,
        connections: np.ndarray,
        server_bursts: list[tuple[int, np.ndarray, np.ndarray, tuple[float, ...]]],
    ) -> None:
        """Add every burst of a rack run to its ``(buckets, servers)``
        demand and connection matrices in place.

        ``server_bursts`` holds, per active server in generation order,
        its index, its k burst starts, its ``(k, 4)`` standard-normal
        draws and its burst parameters (volume log-mu and log-sigma,
        intensity mean and std, connections, overshoot scale).

        The affine parts of the lognormal/normal draws run in numpy (the
        generator computes ``loc + scale * z`` the same way), but every
        ``exp`` goes through libm one element at a time: vectorized
        ``np.exp`` differs from libm in the last bit on a few percent of
        values, which would change the data.
        """
        servers_index, burst_starts, draws, params = zip(*server_bursts)
        counts = [len(starts) for starts in burst_starts]
        z = np.concatenate(draws)
        mu, sigma, intensity_mean, intensity_std, conns, scale = np.repeat(
            np.array(params), counts, axis=0
        ).T
        volume = _libm_exp(mu + sigma * z[:, 0])
        intensity = np.minimum(np.maximum(intensity_mean + intensity_std * z[:, 1], 0.55), 1.25)
        fanin = np.maximum(1.0, conns * _libm_exp(0.35 * z[:, 2]))
        overshoot = 1.0 + scale * (fanin / 40.0) * _libm_exp(0.5 * z[:, 3])
        values, lengths = self._burst_profiles(volume, intensity, overshoot)

        # Scatter each profile, cut at the run's end, onto its server's
        # column.  ufunc.at applies repeated cells in index order, and the
        # entries are in (burst, bucket) order, so overlapping bursts sum
        # in the same order as one += per burst.
        buckets, servers = demand.shape
        starts = np.concatenate(burst_starts)
        server = np.repeat(np.array(servers_index), counts)
        entry = np.repeat(np.arange(len(lengths)), lengths)
        offset = np.arange(len(values)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        keep = offset < (buckets - starts)[entry]
        entry = entry[keep]
        cells = (starts[entry] + offset[keep]) * servers + server[entry]
        np.add.at(demand.reshape(-1), cells, values[keep])
        np.maximum.at(connections.reshape(-1), cells, fanin[entry])

    # -- rack-level generation ---------------------------------------------

    def generate(
        self,
        workload: RackWorkload,
        hour: int,
        buckets: int,
        rng: np.random.Generator,
    ) -> ServerDemand:
        """Synthesize one run's demand for every server in the rack."""
        if buckets <= 0:
            raise SimulationError("bucket count must be positive")
        placement = workload.placement
        servers = placement.servers

        demand = np.zeros((buckets, servers))
        connections = np.zeros((buckets, servers))
        persistence = np.zeros(servers)
        initial_m = np.ones(servers)
        initial_alpha = np.zeros(servers)

        # Shared burst phases per task: instances of one task tend to
        # receive fan-in waves together (shards answering the same
        # requests, trainers exchanging gradients in lockstep).
        # Iterate tasks in sorted order: set iteration follows Python's
        # salted string hash and would consume RNG draws in a
        # process-dependent order, breaking reproducibility.
        task_phases: dict[str, np.ndarray] = {}
        for task in sorted(set(placement.tasks)):
            wave_count = rng.poisson(max(1.0, buckets * self.step * 8.0))
            task_phases[task] = rng.integers(0, buckets, size=max(wave_count, 1))
        rack_wave_count = rng.poisson(max(1.0, buckets * self.step * 5.0))
        rack_phase = rng.integers(0, buckets, size=max(rack_wave_count, 1))

        # Run-to-run load swings: the same rack is sometimes nearly idle
        # and sometimes hot (Section 7.3's 6.2% zero-activity runs, and
        # the day-long min/max bands of Figure 12).
        rack_load = float(rng.lognormal(mean=-0.1, sigma=0.45))

        # Per active server: its index, burst starts, burst draws and
        # burst parameters (see _add_bursts).
        server_bursts: list[tuple[int, np.ndarray, np.ndarray, tuple[float, ...]]] = []

        for index in range(servers):
            spec = placement.services[index]
            task = placement.tasks[index]
            load = (
                workload.diurnal.scaled(spec.diurnal_sensitivity).at_hour(hour)
                * workload.load_scale
                * rack_load
            )
            persistence[index] = spec.sender_persistence
            persistent_senders = spec.sender_persistence >= 1.0
            if persistent_senders:
                # Long-lived connection pools predate the run: their
                # windows and mark-fraction EWMA are already adapted.
                initial_m[index] = self.adapted_multiplier
                initial_alpha[index] = 0.5

            # -- baseline smooth traffic --------------------------------
            # Jitter is mean-one with a light tail: baseline traffic must
            # never cross the 50%-utilization burst threshold on its own.
            base = spec.baseline_utilization * load * self.drain
            if base > 0:
                jitter = rng.lognormal(mean=-0.06, sigma=0.35, size=buckets)
                demand[:, index] += base * jitter
            connections_base = spec.base_connections
            connections[:, index] += np.maximum(
                rng.normal(connections_base, connections_base * 0.2, size=buckets), 0.0
            )

            # -- active episode? ------------------------------------------
            # Server runs are bimodal: a server is either in an active
            # exchange episode (bursting at the task's full rate) or
            # nearly idle for the whole 2 s window (Section 5: 34% of
            # server runs have bursty ingress).  Load shifts the odds.
            p_active = min(0.95, spec.active_probability * load**0.25)
            if rng.random() >= p_active:
                continue

            # -- bursts ---------------------------------------------------
            # Active servers differ wildly in how hard they burst (the
            # heavy tail behind Figure 6's 7.5-vs-39.8 median/p90 gap).
            # min/max instead of np.clip: identical values (comparisons
            # are exact) without the scalar-ufunc dispatch cost.
            rate_multiplier = float(
                min(max(rng.lognormal(mean=-0.35, sigma=self.rate_tail_sigma), 0.05), 4.0)
            )
            starts = self._draw_burst_starts(
                spec, buckets, load, rng, task_phases.get(task), rack_phase,
                rate_multiplier,
            )
            if persistent_senders:
                # Long-lived pools (ML collectives, storage streams)
                # serialize transfers on a host: a new exchange waits for
                # the previous one instead of piling onto the same NIC.
                # Fresh request/response fan-in does stack — that *is*
                # incast, and it is where the overshoot loss lives.
                starts = self._serialize_starts(starts, spec, buckets)
            if len(starts) == 0:
                continue
            # Each burst's four draws (volume, body intensity, fan-in,
            # overshoot), in the generator's stream order: one (k, 4)
            # block is the same stream as k rounds of four scalar draws.
            draws = rng.standard_normal((len(starts), 4))
            # Slow-start overshoot: fresh senders ramp exponentially and
            # overshoot together; adapted long-lived connection pools
            # (persistent services) pace near their converged windows
            # and barely overshoot.
            overshoot_scale = self.overshoot_scale * (0.15 if persistent_senders else 1.0)
            params = (
                spec.burst_volume_log_mu,
                spec.burst_volume_log_sigma,
                spec.burst_intensity_mean,
                spec.burst_intensity_std,
                spec.burst_connections,
                overshoot_scale,
            )
            server_bursts.append((index, starts, draws, params))

        if server_bursts:
            self._add_bursts(demand, connections, server_bursts)

        return ServerDemand(
            demand=demand,
            connections=connections,
            persistence=persistence,
            initial_multiplier=initial_m,
            initial_alpha=initial_alpha,
        )
