"""Per-run fluid time loop: the test oracle for ``run_batch``.

It simulates one run with 1-D per-server state and calls the policy's
``limits`` on 1-D arrays, so the batch-equivalence tests compare the
model's one (batched) time loop against an independent implementation
rather than against itself.  Every update mirrors ``run_batch``
operation for operation; only the leading runs axis is absent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.fleet.buffermodel import FluidBufferModel, FluidBufferResult


def serial_run(
    model: FluidBufferModel,
    demand: np.ndarray,
    sender_persistence: np.ndarray,
    initial_multiplier: np.ndarray | None = None,
    initial_alpha: np.ndarray | None = None,
) -> FluidBufferResult:
    """Simulate ``demand`` (bytes offered per bucket per server,
    shape ``(buckets, servers)``) through the rack buffer.

    ``sender_persistence`` gives each server's sender-memory time
    constant in seconds.  ``initial_multiplier``/``initial_alpha``
    seed the DCTCP state (persistent-sender services start adapted;
    default is fresh senders).
    """
    demand = np.asarray(demand, dtype=np.float64)
    if demand.ndim != 2 or demand.shape[1] != model.servers:
        raise SimulationError(
            f"demand must be (buckets, {model.servers}); got {demand.shape}"
        )
    if np.any(demand < 0):
        raise SimulationError("demand cannot be negative")
    persistence = np.asarray(sender_persistence, dtype=np.float64)
    if persistence.shape != (model.servers,):
        raise SimulationError("sender_persistence must have one entry per server")

    buckets = demand.shape[0]
    cfg = model.buffer_config
    dedicated = float(cfg.dedicated_bytes_per_queue)
    shared_total = float(cfg.shared_bytes)
    ecn_threshold = float(cfg.ecn_threshold_bytes)
    drain = model.drain_per_step
    max_offered = model.max_offered_factor * drain
    activity_floor = model.activity_threshold_fraction * drain
    gap_steps = np.maximum(persistence / model.step, 1.0)

    # State
    q_fresh = np.zeros(model.servers)
    q_retx = np.zeros(model.servers)
    backlog = np.zeros(model.servers)  # sender-side unsent bytes
    m = (
        np.ones(model.servers)
        if initial_multiplier is None
        else np.asarray(initial_multiplier, dtype=np.float64).copy()
    )
    dctcp_alpha = (
        np.zeros(model.servers)
        if initial_alpha is None
        else np.asarray(initial_alpha, dtype=np.float64).copy()
    )
    # At run start every sender pool counts as recently active: the
    # initial m/alpha already encode its adapted-or-fresh state.
    steps_since_active = np.zeros(model.servers)
    #: Consecutive steps each queue has held bytes (the sharing
    #: policies' mice/elephant signal).
    queue_active_steps = np.zeros(model.servers)
    retx_pipe = np.zeros((model.retx_delay_steps, model.servers))

    # Outputs
    delivered = np.zeros((buckets, model.servers))
    delivered_retx = np.zeros((buckets, model.servers))
    ecn_marked = np.zeros((buckets, model.servers))
    dropped = np.zeros((buckets, model.servers))
    occupancy = np.zeros((buckets, model.servers))
    multiplier = np.zeros((buckets, model.servers))

    quadrant = model.quadrant
    nq = model.num_quadrants

    for t in range(buckets):
        # --- connection churn: fresh senders after long gaps --------
        slot = t % model.retx_delay_steps
        retx_in = retx_pipe[slot].copy()
        retx_pipe[slot] = 0.0
        wants_to_send = (demand[t] + backlog + retx_in) > activity_floor
        reset = wants_to_send & (steps_since_active > gap_steps)
        if np.any(reset):
            m[reset] = 1.0
            dctcp_alpha[reset] = 0.0

        # --- sources offer traffic, throttled by their windows ------
        backlog += demand[t]
        window_budget = np.maximum(m * max_offered - retx_in, 0.0)
        offered_fresh = np.minimum(backlog, window_budget)
        backlog -= offered_fresh
        offered = offered_fresh + retx_in

        # --- policy-governed admission, per quadrant ----------------
        q_total = q_fresh + q_retx
        q_before = q_total
        shared_used = np.maximum(q_total - dedicated, 0.0)
        pool_used = np.bincount(quadrant, weights=shared_used, minlength=nq)
        threshold = model.policy.limits(
            shared_total, pool_used, quadrant, shared_used, queue_active_steps
        )
        allowed_occ = dedicated + threshold
        # Space freed by draining during the bucket also admits bytes.
        room = np.maximum(allowed_occ - q_total, 0.0) + drain
        accepted = np.minimum(offered, room)

        # Respect the absolute pool size: a quadrant's end-of-bucket
        # shared usage can never exceed its physical shared bytes.
        # Reduce acceptances in proportion to each queue's would-be
        # shared draw until the constraint holds (a couple of passes
        # suffice; the clamp to non-negative acceptance is the only
        # nonlinearity).
        base_shared = q_total - drain - dedicated
        for _ in range(3):
            new_shared = np.maximum(base_shared + accepted, 0.0)
            new_pool = np.bincount(quadrant, weights=new_shared, minlength=nq)
            excess = np.maximum(new_pool - shared_total, 0.0)
            if not np.any(excess > 0):
                break
            with np.errstate(invalid="ignore", divide="ignore"):
                frac = np.where(
                    new_pool[quadrant] > 0, new_shared / new_pool[quadrant], 0.0
                )
            reduction = np.minimum(excess[quadrant] * frac, accepted)
            accepted = accepted - reduction

        drop = offered - accepted
        # Acceptance and drops split pro-rata between fresh and retx.
        with np.errstate(invalid="ignore", divide="ignore"):
            retx_frac_in = np.where(offered > 0, retx_in / offered, 0.0)
        accepted_retx = accepted * retx_frac_in

        # --- queue update and delivery -------------------------------
        q_fresh += accepted - accepted_retx
        q_retx += accepted_retx
        q_total = q_fresh + q_retx
        out = np.minimum(q_total, drain)
        with np.errstate(invalid="ignore", divide="ignore"):
            retx_share = np.where(q_total > 0, q_retx / q_total, 0.0)
        out_retx = out * retx_share
        q_fresh -= out - out_retx
        q_retx -= out_retx
        q_end = q_fresh + q_retx

        # --- ECN marking ----------------------------------------------
        # Fluid occupancy: arrivals spread over the bucket drain
        # concurrently, so the standing queue is the average of the
        # pre-arrival and post-drain depths — an arrival rate below
        # the drain rate leaves the queue (and ECN) untouched.
        mid_occupancy = 0.5 * (q_before + q_end)
        marked = mid_occupancy > ecn_threshold
        mark_fraction = np.where(marked, 1.0, 0.0)

        # --- fluid DCTCP source response ------------------------------
        # Activity follows *demand*, not throughput: a sender pool
        # throttled below the floor is still clocking ACKs and
        # growing its windows.
        active = wants_to_send & model.responsive_sources
        lost = (drop > 0) & model.responsive_sources
        # alpha only updates on active senders (per window of data).
        dctcp_alpha = np.where(
            active,
            dctcp_alpha + model.dctcp_gain * (mark_fraction - dctcp_alpha),
            dctcp_alpha,
        )
        m = np.where(
            active & marked,
            m * (1.0 - dctcp_alpha / 2.0) ** model.windows_per_step,
            m,
        )
        m = np.where(lost, m * 0.5, m)
        grow = active & ~(marked | lost)
        m = np.where(grow, m + model.additive_increase, m)
        np.clip(m, 0.05, 1.0, out=m)
        steps_since_active = np.where(active, 0.0, steps_since_active + 1.0)
        queue_busy = (q_end > 0) | (accepted > 0)
        queue_active_steps = np.where(queue_busy, queue_active_steps + 1.0, 0.0)

        # --- retransmissions: dropped bytes return one RTT+ later ----
        if model.retransmit_losses:
            retx_pipe[(t + model.retx_delay_steps) % model.retx_delay_steps] += drop

        delivered[t] = out
        delivered_retx[t] = out_retx
        ecn_marked[t] = out * mark_fraction
        dropped[t] = drop
        occupancy[t] = q_end
        multiplier[t] = m

    return FluidBufferResult(
        delivered=delivered,
        delivered_retx=delivered_retx,
        ecn_marked=ecn_marked,
        dropped=dropped,
        queue_occupancy=occupancy,
        rate_multiplier=multiplier,
    )
