"""Native (numba-jitted) fluid DCTCP + shared-buffer time loop.

This is the time loop of
:meth:`repro.fleet.buffermodel.FluidBufferModel.run_batch` — the
model's one time loop; a single ``run`` is a batch of one — compiled
down to two scalar loops per bucket, with the numpy loop kept as the
bit-exactness oracle.  The contract is
*exact* ``==`` equality, not ``allclose``, so every operation here
mirrors the numpy expression it replaces operation-for-operation:

* additions and subtractions keep the oracle's left-associative order
  (``q_total - drain - dedicated`` is ``(q_total - drain) - dedicated``);
* ``np.maximum(x, c)`` / ``np.minimum(x, c)`` become ``x if x > c else
  c`` / ``x if x < c else c`` — numpy returns the *second* operand on
  ties (including the ``-0.0`` vs ``+0.0`` tie), and so do these;
* the per-(run, quadrant) ``bincount`` pool sums become accumulation in
  ascending server order, which is exactly the order ``np.bincount``
  adds weights;
* guarded divisions (``np.where(d > 0, n / d, 0.0)``) become the same
  guard around a scalar division.

The one operation that cannot be mirrored scalar-for-scalar is
``(1 - alpha/2) ** windows_per_step``: numpy dispatches ``power`` to a
SIMD implementation (AVX512 on the baseline machine) whose results
differ from libm ``pow`` — what numba's ``**`` compiles to — by 1 ulp
on ~5% of inputs.  numpy's ``power`` *is* elementwise
position-independent (the same input double produces the same output
double at any array size, stride, or offset — verified empirically),
so the driver loop computes that single ufunc through numpy itself on
the ``(runs, servers)`` state plane each step, and the jitted closing
pass consumes the values only on the lanes the oracle uses them.
Bit-exactness is then true by construction on every machine, whichever
``power`` implementation its numpy dispatches to.

The per-bucket step is split around that ufunc call:

* :func:`_step_admit` — connection churn, window throttling, the
  policy-governed admission (per-policy limit rules inlined via
  :func:`_policy_limit`), the 3-pass physical pool clamp, queue update,
  delivery, ECN marking, and the DCTCP alpha update; returns how many
  lanes need the ``power`` result;
* ``np.power`` on the staged base plane (skipped when no lane needs it);
* :func:`_step_close` — the multiplier update (marked decrease, loss
  halving, additive increase, clip) and the multiplier output row.

All state lives in one ``(rows, runs, servers)`` float64 work array and
outputs in one ``(6, runs, buckets, servers)`` array, so each jitted
call unboxes a handful of arrays regardless of problem size.  Without
numba (see :mod:`._numba`) these functions run as plain Python: slow,
but the *same* code — which is how the parity suites pin the native
semantics on numba-less machines.
"""

from __future__ import annotations

import numpy as np

from ._numba import njit_cached

# -- per-policy native limit rules ------------------------------------------
#
# Ids are wired to policy classes via SharingPolicy.native_kernel_id
# (see repro.fleet.policies); a policy without an id falls back to the
# numpy path.  Each branch of _policy_limit mirrors the corresponding
# SharingPolicy.limits expression for a single queue, with the policy's
# constructor parameters packed into a fixed-width float vector by
# SharingPolicy.native_kernel_params().

POLICY_DYNAMIC_THRESHOLD = 0  # params: (alpha, -, -, -)
POLICY_STATIC_PARTITION = 1  # params: (queues_per_quadrant, -, -, -)
POLICY_COMPLETE_SHARING = 2  # params: (-, -, -, -)
POLICY_ENHANCED_DT = 3  # params: (alpha, burst_fraction, -, -)
POLICY_FLOW_AWARE = 4  # params: (mice_alpha, elephant_alpha, mice_steps, -)
POLICY_DELAY_DRIVEN = 5  # params: (alpha, delay_cap_bytes, -, -)
POLICY_SHARED_HEADROOM = 6  # params: (alpha, headroom_fraction,
#                                      oversubscription, queues_per_quadrant)

#: Width of the packed parameter vector every policy's
#: ``native_kernel_params()`` must fit in.
MAX_POLICY_PARAMS = 4

# Work-array rows.  0-8 persist across steps (the model state), the
# rest are per-step scratch shared between the two jitted passes.
_W_Q_FRESH = 0
_W_Q_RETX = 1
_W_BACKLOG = 2
_W_M = 3
_W_ALPHA = 4
_W_SINCE = 5  # steps_since_active
_W_QACTIVE = 6  # queue_active_steps
_W_GAP = 7  # per-lane reset gap (steps), constant over the run
_W_POWBASE = 8  # staged base of the ** windows_per_step ufunc
_W_POWVAL = 9  # np.power output plane
_W_POWMASK = 10
_W_LOSTMASK = 11
_W_GROWMASK = 12
_W_RETXIN = 13
_W_OFFERED = 14
_W_ACCEPTED = 15
_W_SHUSED = 16  # per-queue shared occupancy at step start
_W_QBEFORE = 17  # pre-arrival queue total
_W_WANTS = 18
_W_ROWS = 19

# consts vector indices (float64).
_C_DEDICATED = 0
_C_SHARED_TOTAL = 1
_C_ECN_THRESHOLD = 2
_C_DRAIN = 3
_C_MAX_OFFERED = 4
_C_ACTIVITY_FLOOR = 5
_C_DCTCP_GAIN = 6
_C_ADDITIVE_INCREASE = 7
_C_RESPONSIVE = 8  # 1.0 / 0.0
_C_RETRANSMIT = 9  # 1.0 / 0.0
CONSTS_LEN = 10

# iconsts vector indices (int64).
_I_RETX_SLOTS = 0
_I_NUM_QUADRANTS = 1
_I_POLICY_ID = 2
ICONSTS_LEN = 3

# Output-array rows.
_O_DELIVERED = 0
_O_DELIVERED_RETX = 1
_O_ECN_MARKED = 2
_O_DROPPED = 3
_O_OCCUPANCY = 4
_O_MULTIPLIER = 5
OUT_ROWS = 6


@njit_cached
def _policy_limit(pid, p0, p1, p2, p3, shared_total, pool_q, q_shared_used, q_active):
    """One queue's shared-occupancy limit under policy ``pid``.

    ``pool_q`` is the queue's quadrant's shared occupancy;
    ``q_shared_used`` and ``q_active`` are the queue's own shared
    occupancy and consecutive-active-step count.  Branches mirror the
    registered SharingPolicy.limits bodies exactly (see module doc).
    """
    if pid == POLICY_DYNAMIC_THRESHOLD:
        free = shared_total - pool_q
        if not free > 0.0:
            free = 0.0
        return p0 * free
    elif pid == POLICY_STATIC_PARTITION:
        return shared_total / p0
    elif pid == POLICY_COMPLETE_SHARING:
        return shared_total
    elif pid == POLICY_ENHANCED_DT:
        free = shared_total - pool_q
        if not free > 0.0:
            free = 0.0
        dt_limit = p0 * free
        burst_floor = q_shared_used + p1 * free
        # np.maximum returns the second operand on ties.
        return dt_limit if dt_limit > burst_floor else burst_floor
    elif pid == POLICY_FLOW_AWARE:
        free = shared_total - pool_q
        if not free > 0.0:
            free = 0.0
        alpha = p0 if q_active <= p2 else p1
        return alpha * free
    elif pid == POLICY_DELAY_DRIVEN:
        free = shared_total - pool_q
        if not free > 0.0:
            free = 0.0
        dt_limit = p0 * free
        return dt_limit if dt_limit < p1 else p1
    elif pid == POLICY_SHARED_HEADROOM:
        headroom_total = p1 * shared_total
        main_total = shared_total - headroom_total
        main_used = pool_q if pool_q < main_total else main_total
        headroom_used = pool_q - main_total
        if not headroom_used > 0.0:
            headroom_used = 0.0
        main_free = main_total - main_used
        if not main_free > 0.0:
            main_free = 0.0
        main_share = p0 * main_free
        quota = p2 * headroom_total / p3
        headroom_left = headroom_total - headroom_used
        if not headroom_left > 0.0:
            headroom_left = 0.0
        grant = quota if quota < headroom_left else headroom_left
        return main_share + grant
    # Unreachable: dispatch only routes registered ids here.
    return 0.0


@njit_cached
def _step_admit(t, demand, work, retx_pipe, pool, quadrant, params, consts, iconsts, out):
    """Everything up to (and including) the DCTCP alpha update for
    bucket ``t``; returns the number of lanes whose multiplier update
    needs the staged ``power`` result."""
    runs = work.shape[1]
    servers = work.shape[2]
    retx_slots = iconsts[_I_RETX_SLOTS]
    nq = iconsts[_I_NUM_QUADRANTS]
    pid = iconsts[_I_POLICY_ID]
    dedicated = consts[_C_DEDICATED]
    shared_total = consts[_C_SHARED_TOTAL]
    ecn_threshold = consts[_C_ECN_THRESHOLD]
    drain = consts[_C_DRAIN]
    max_offered = consts[_C_MAX_OFFERED]
    activity_floor = consts[_C_ACTIVITY_FLOOR]
    gain = consts[_C_DCTCP_GAIN]
    responsive = consts[_C_RESPONSIVE] != 0.0
    retransmit = consts[_C_RETRANSMIT] != 0.0
    p0 = params[0]
    p1 = params[1]
    p2 = params[2]
    p3 = params[3]
    slot = t % retx_slots
    pow_lanes = 0

    for r in range(runs):
        # --- churn, window throttling, pool occupancy ---------------
        for q in range(nq):
            pool[r, q] = 0.0
        for s in range(servers):
            retx_in = retx_pipe[slot, r, s]
            retx_pipe[slot, r, s] = 0.0
            d = demand[r, t, s]
            backlog = work[_W_BACKLOG, r, s]
            wants = (d + backlog + retx_in) > activity_floor
            m = work[_W_M, r, s]
            if wants and work[_W_SINCE, r, s] > work[_W_GAP, r, s]:
                m = 1.0
                work[_W_M, r, s] = 1.0
                work[_W_ALPHA, r, s] = 0.0
            backlog = backlog + d
            window_budget = m * max_offered - retx_in
            if not window_budget > 0.0:
                window_budget = 0.0
            offered_fresh = backlog if backlog < window_budget else window_budget
            backlog = backlog - offered_fresh
            work[_W_BACKLOG, r, s] = backlog
            q_total = work[_W_Q_FRESH, r, s] + work[_W_Q_RETX, r, s]
            shared_used = q_total - dedicated
            if not shared_used > 0.0:
                shared_used = 0.0
            pool[r, quadrant[s]] += shared_used
            work[_W_RETXIN, r, s] = retx_in
            work[_W_OFFERED, r, s] = offered_fresh + retx_in
            work[_W_QBEFORE, r, s] = q_total
            work[_W_SHUSED, r, s] = shared_used
            work[_W_WANTS, r, s] = 1.0 if wants else 0.0

        # --- policy-governed admission ------------------------------
        for s in range(servers):
            threshold = _policy_limit(
                pid, p0, p1, p2, p3,
                shared_total,
                pool[r, quadrant[s]],
                work[_W_SHUSED, r, s],
                work[_W_QACTIVE, r, s],
            )
            room = (dedicated + threshold) - work[_W_QBEFORE, r, s]
            if not room > 0.0:
                room = 0.0
            room = room + drain
            offered = work[_W_OFFERED, r, s]
            work[_W_ACCEPTED, r, s] = offered if offered < room else room

        # --- 3-pass physical pool clamp -----------------------------
        # (Per-run early break: runs past their own constraint see a
        # zero excess, for which the oracle's extra reduction passes
        # are numeric no-ops — so breaking per run is bit-identical to
        # the batched oracle's any-run break.)
        for _clamp in range(3):
            for q in range(nq):
                pool[r, q] = 0.0
            for s in range(servers):
                base_shared = (work[_W_QBEFORE, r, s] - drain) - dedicated
                new_shared = base_shared + work[_W_ACCEPTED, r, s]
                if not new_shared > 0.0:
                    new_shared = 0.0
                pool[r, quadrant[s]] += new_shared
            any_excess = False
            for q in range(nq):
                if pool[r, q] - shared_total > 0.0:
                    any_excess = True
                    break
            if not any_excess:
                break
            for s in range(servers):
                base_shared = (work[_W_QBEFORE, r, s] - drain) - dedicated
                accepted = work[_W_ACCEPTED, r, s]
                new_shared = base_shared + accepted
                if not new_shared > 0.0:
                    new_shared = 0.0
                new_pool = pool[r, quadrant[s]]
                frac = new_shared / new_pool if new_pool > 0.0 else 0.0
                excess = new_pool - shared_total
                if not excess > 0.0:
                    excess = 0.0
                reduction = excess * frac
                if not reduction < accepted:
                    reduction = accepted
                work[_W_ACCEPTED, r, s] = accepted - reduction

        # --- queue update, delivery, marking, alpha -----------------
        for s in range(servers):
            offered = work[_W_OFFERED, r, s]
            accepted = work[_W_ACCEPTED, r, s]
            retx_in = work[_W_RETXIN, r, s]
            drop = offered - accepted
            retx_frac_in = retx_in / offered if offered > 0.0 else 0.0
            accepted_retx = accepted * retx_frac_in
            q_fresh = work[_W_Q_FRESH, r, s] + (accepted - accepted_retx)
            q_retx = work[_W_Q_RETX, r, s] + accepted_retx
            q_total = q_fresh + q_retx
            out_bytes = q_total if q_total < drain else drain
            retx_share = q_retx / q_total if q_total > 0.0 else 0.0
            out_retx = out_bytes * retx_share
            q_fresh = q_fresh - (out_bytes - out_retx)
            q_retx = q_retx - out_retx
            q_end = q_fresh + q_retx
            work[_W_Q_FRESH, r, s] = q_fresh
            work[_W_Q_RETX, r, s] = q_retx

            mid_occupancy = 0.5 * (work[_W_QBEFORE, r, s] + q_end)
            marked = mid_occupancy > ecn_threshold
            mark_fraction = 1.0 if marked else 0.0

            wants = work[_W_WANTS, r, s] != 0.0
            active = wants and responsive
            lost = (drop > 0.0) and responsive
            alpha = work[_W_ALPHA, r, s]
            if active:
                alpha = alpha + gain * (mark_fraction - alpha)
                work[_W_ALPHA, r, s] = alpha
            pow_lane = active and marked
            if pow_lane:
                pow_lanes += 1
            work[_W_POWMASK, r, s] = 1.0 if pow_lane else 0.0
            work[_W_POWBASE, r, s] = 1.0 - alpha / 2.0
            work[_W_LOSTMASK, r, s] = 1.0 if lost else 0.0
            grow = active and not (marked or lost)
            work[_W_GROWMASK, r, s] = 1.0 if grow else 0.0
            work[_W_SINCE, r, s] = 0.0 if active else work[_W_SINCE, r, s] + 1.0
            busy = (q_end > 0.0) or (accepted > 0.0)
            work[_W_QACTIVE, r, s] = work[_W_QACTIVE, r, s] + 1.0 if busy else 0.0
            if retransmit:
                # (t + retx_slots) % retx_slots is the slot read above.
                retx_pipe[slot, r, s] += drop

            out[_O_DELIVERED, r, t, s] = out_bytes
            out[_O_DELIVERED_RETX, r, t, s] = out_retx
            out[_O_ECN_MARKED, r, t, s] = out_bytes * mark_fraction
            out[_O_DROPPED, r, t, s] = drop
            out[_O_OCCUPANCY, r, t, s] = q_end
    return pow_lanes


@njit_cached
def _step_close(t, work, consts, out):
    """Finish bucket ``t``: the multiplier decrease/halve/grow/clip
    sequence, consuming the ``power`` plane on the masked lanes."""
    runs = work.shape[1]
    servers = work.shape[2]
    additive_increase = consts[_C_ADDITIVE_INCREASE]
    for r in range(runs):
        for s in range(servers):
            m = work[_W_M, r, s]
            if work[_W_POWMASK, r, s] != 0.0:
                m = m * work[_W_POWVAL, r, s]
            if work[_W_LOSTMASK, r, s] != 0.0:
                m = m * 0.5
            if work[_W_GROWMASK, r, s] != 0.0:
                m = m + additive_increase
            # np.clip(m, 0.05, 1.0)
            if m < 0.05:
                m = 0.05
            elif m > 1.0:
                m = 1.0
            work[_W_M, r, s] = m
            out[_O_MULTIPLIER, r, t, s] = m


def fluid_run_batch(
    demand: np.ndarray,
    gap_steps: np.ndarray,
    initial_multiplier: np.ndarray,
    initial_alpha: np.ndarray,
    quadrant: np.ndarray,
    params: np.ndarray,
    consts: np.ndarray,
    iconsts: np.ndarray,
    windows_per_step: float,
) -> np.ndarray:
    """Drive the native kernel over a validated ``(runs, buckets,
    servers)`` demand tensor; returns the ``(6, runs, buckets,
    servers)`` output array (rows: delivered, delivered_retx,
    ecn_marked, dropped, occupancy, multiplier).

    The caller (:class:`~repro.fleet.buffermodel.FluidBufferModel`)
    owns validation and state broadcasting; this function is pure
    arithmetic and safe to warm from a worker-pool initializer.
    """
    runs, buckets, _servers = demand.shape
    servers = int(quadrant.shape[0])
    work = np.zeros((_W_ROWS, runs, servers))
    work[_W_M] = initial_multiplier
    work[_W_ALPHA] = initial_alpha
    work[_W_GAP] = gap_steps
    retx_pipe = np.zeros((int(iconsts[_I_RETX_SLOTS]), runs, servers))
    pool = np.zeros((runs, int(iconsts[_I_NUM_QUADRANTS])))
    out = np.zeros((OUT_ROWS, runs, buckets, servers))
    pow_base = work[_W_POWBASE]
    pow_val = work[_W_POWVAL]
    for t in range(buckets):
        lanes = _step_admit(
            t, demand, work, retx_pipe, pool, quadrant, params, consts, iconsts, out
        )
        if lanes:
            # The single op the jitted code cannot reproduce bit-exactly:
            # route it through the very ufunc the oracle calls (see the
            # module docstring).  Computed on the full plane, consumed
            # only on the masked lanes — exactly like the oracle.
            np.power(pow_base, windows_per_step, out=pow_val)
        _step_close(t, work, consts, out)
    return out
