"""Tests for the demand synthesis model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.errors import SimulationError
from repro.fleet.demand import DemandModel, _libm_exp
from repro.workload.region import REGION_A, build_region_workloads
from repro.workload.services import service_by_name

DRAIN = units.SERVER_LINK_RATE * units.ANALYSIS_INTERVAL


@pytest.fixture
def workload(rng):
    return build_region_workloads(REGION_A, racks=4, rng=rng)[0]


class TestDemandModel:
    def test_shapes(self, workload, rng):
        model = DemandModel()
        demand = model.generate(workload, hour=6, buckets=500, rng=rng)
        servers = workload.placement.servers
        assert demand.demand.shape == (500, servers)
        assert demand.connections.shape == (500, servers)
        assert demand.persistence.shape == (servers,)
        assert demand.initial_multiplier.shape == (servers,)

    def test_non_negative(self, workload, rng):
        demand = DemandModel().generate(workload, hour=6, buckets=500, rng=rng)
        assert demand.demand.min() >= 0
        assert demand.connections.min() >= 0

    def test_persistent_services_start_adapted(self, workload, rng):
        demand = DemandModel().generate(workload, hour=6, buckets=100, rng=rng)
        for index, spec in enumerate(workload.placement.services):
            if spec.sender_persistence >= 1.0:
                assert demand.initial_multiplier[index] < 1.0
                assert demand.initial_alpha[index] > 0.0
            else:
                assert demand.initial_multiplier[index] == 1.0
                assert demand.initial_alpha[index] == 0.0

    def test_baseline_never_bursty(self, rng):
        """Baseline-only servers (no active episode) must stay under the
        50% burst threshold."""
        workload = build_region_workloads(REGION_A, racks=4, rng=rng)[0]
        # Force zero active episodes by monkeypatching the rng draw is
        # fragile; instead check quiet servers statistically: with many
        # servers some are inactive, and their columns stay sub-threshold.
        demand = DemandModel().generate(workload, hour=3, buckets=1000, rng=rng)
        utilization = demand.demand / DRAIN
        quiet_columns = utilization.max(axis=0) < 0.5
        assert quiet_columns.any()  # some servers are inactive
        # Quiet columns still carry baseline traffic.
        assert demand.demand[:, quiet_columns].sum() > 0

    def test_invalid_hour_bucket_args(self, workload, rng):
        model = DemandModel()
        with pytest.raises(SimulationError):
            model.generate(workload, hour=6, buckets=0, rng=rng)

    def test_deterministic_given_seed(self, workload):
        a = DemandModel().generate(workload, 6, 200, np.random.default_rng(9))
        b = DemandModel().generate(workload, 6, 200, np.random.default_rng(9))
        np.testing.assert_array_equal(a.demand, b.demand)

    def test_diurnal_load_scales_demand(self, workload):
        model = DemandModel()
        busy_hour = workload.diurnal.busiest_hour()
        quiet_hour = (busy_hour + 12) % 24
        busy_total = np.mean(
            [
                model.generate(workload, busy_hour, 500, np.random.default_rng(s)).demand.sum()
                for s in range(8)
            ]
        )
        quiet_total = np.mean(
            [
                model.generate(workload, quiet_hour, 500, np.random.default_rng(s)).demand.sum()
                for s in range(8)
            ]
        )
        assert busy_total > quiet_total

    def test_connections_rise_inside_bursts(self, workload, rng):
        demand = DemandModel().generate(workload, 6, 1000, rng)
        utilization = demand.demand / DRAIN
        bursty = utilization > 0.5
        if bursty.any() and (~bursty).any():
            inside = demand.connections[bursty].mean()
            outside = demand.connections[~bursty].mean()
            assert inside > outside


def _profile(model, volume, intensity, overshoot):
    """One burst's profile through the batched builder."""
    values, lengths = model._burst_profiles(
        np.array([volume]), np.array([intensity]), np.array([overshoot])
    )
    assert lengths.tolist() == [len(values)]
    return values


class TestBurstProfile:
    def test_volume_conserved(self):
        model = DemandModel()
        profile = _profile(model, volume=5e6, intensity=0.8, overshoot=1.5)
        assert profile.sum() == pytest.approx(5e6)

    def test_overshoot_front_loads(self):
        model = DemandModel()
        profile = _profile(model, volume=20e6, intensity=0.8, overshoot=2.0)
        assert profile[0] > profile[-2]

    def test_no_overshoot_flat_body(self):
        model = DemandModel()
        profile = _profile(model, volume=10e6, intensity=0.8, overshoot=1.0)
        body = profile[:-1]
        assert np.allclose(body, body[0])


def _burst_profile_reference(model, volume, intensity, overshoot):
    """The historical bucket-by-bucket loop, pinned verbatim so the
    closed-form replacement is provably bit-identical to it."""
    body_rate = intensity * model.drain
    rates = []
    remaining = volume
    bucket = 0
    while remaining > 0:
        if bucket < model.overshoot_buckets:
            decay = 0.5**bucket
            rate = body_rate * (1.0 + (overshoot - 1.0) * decay)
        else:
            rate = body_rate
        take = min(remaining, rate)
        rates.append(take)
        remaining -= take
        bucket += 1
        if bucket > 10_000:
            raise SimulationError("burst profile failed to terminate")
    return np.array(rates)


class TestBurstProfileClosedForm:
    """The vectorized profile must equal the historical loop exactly —
    same buckets, same floating-point remainders, same failure mode."""

    @given(
        volume=st.floats(min_value=1.0, max_value=1e9),
        intensity=st.floats(min_value=0.05, max_value=8.0),
        overshoot=st.floats(min_value=0.1, max_value=4.0),
        overshoot_buckets=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200)
    def test_matches_reference_loop(self, volume, intensity, overshoot, overshoot_buckets):
        model = DemandModel(overshoot_buckets=overshoot_buckets)
        try:
            expected = _burst_profile_reference(model, volume, intensity, overshoot)
        except SimulationError:
            # Profiles needing more than 10,000 buckets fail in both.
            with pytest.raises(SimulationError):
                _profile(model, volume, intensity, overshoot)
            return
        actual = _profile(model, volume, intensity, overshoot)
        assert np.array_equal(actual, expected)

    def test_zero_volume_is_empty(self):
        model = DemandModel()
        assert len(_profile(model, 0.0, 0.8, 1.5)) == 0
        assert len(_burst_profile_reference(model, 0.0, 0.8, 1.5)) == 0

    def test_exact_multiple_of_rate(self):
        """Volume landing exactly on a bucket boundary (no fractional
        remainder) keeps the same bucket count as the loop."""
        model = DemandModel(overshoot_buckets=1)
        rate = 0.5 * model.drain
        expected = _burst_profile_reference(model, 7 * rate, 0.5, 1.0)
        actual = _profile(model, 7 * rate, 0.5, 1.0)
        assert np.array_equal(actual, expected)

    def test_nonterminating_profile_raises_like_loop(self):
        """A volume the body rate cannot drain in 10,000 buckets raises
        in both implementations."""
        model = DemandModel()
        tiny = 1e-12 * model.drain
        with pytest.raises(SimulationError):
            _burst_profile_reference(model, model.drain, tiny, 1.0)
        with pytest.raises(SimulationError):
            _profile(model, model.drain, tiny, 1.0)

    def test_nonterminating_burst_fails_the_whole_batch(self):
        model = DemandModel()
        tiny = 1e-12 * model.drain
        with pytest.raises(SimulationError):
            model._burst_profiles(
                np.array([1e6, model.drain, 5e6]),
                np.array([0.8, tiny, 0.8]),
                np.array([1.5, 1.0, 1.5]),
            )

    def test_profile_of_exactly_10000_buckets_is_allowed(self):
        """The guard sits where the loop's did: 10,000 buckets pass,
        10,001 raise."""
        model = DemandModel(overshoot_buckets=1)
        rate = 0.5 * model.drain
        for buckets, fails in ((10_000, False), (10_001, True)):
            volume = (buckets - 0.5) * rate
            if fails:
                with pytest.raises(SimulationError):
                    _burst_profile_reference(model, volume, 0.5, 1.0)
                with pytest.raises(SimulationError):
                    _profile(model, volume, 0.5, 1.0)
            else:
                expected = _burst_profile_reference(model, volume, 0.5, 1.0)
                assert len(expected) == buckets
                assert np.array_equal(_profile(model, volume, 0.5, 1.0), expected)

    @given(
        bursts=st.lists(
            st.tuples(
                # Zero volume, head-only bursts, and tails well past
                # overshoot + 8 buckets.
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=1.0, max_value=2e7),
                    st.floats(min_value=2e7, max_value=3e8),
                ),
                st.floats(min_value=0.05, max_value=2.0),
                st.floats(min_value=0.1, max_value=4.0),
            ),
            max_size=40,
        ),
        overshoot_buckets=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_batch_matches_reference_loop(self, bursts, overshoot_buckets):
        """A whole batch at once: each burst's slice of the concatenated
        profiles equals its own historical loop."""
        model = DemandModel(overshoot_buckets=overshoot_buckets)
        columns = np.array(bursts, dtype=np.float64).reshape(-1, 3)
        values, lengths = model._burst_profiles(*columns.T)
        assert len(lengths) == len(bursts)
        pieces = np.split(values, np.cumsum(lengths)[:-1]) if len(bursts) else []
        for piece, (volume, intensity, overshoot) in zip(pieces, bursts):
            expected = _burst_profile_reference(model, volume, intensity, overshoot)
            assert np.array_equal(piece, expected)


def _burst_loop_reference(model, demand, connections, rng, server_bursts):
    """The historical per-burst loop: four scalar draws per burst and one
    sliced ``+=`` per profile.  ``server_bursts`` is a list of
    ``(server, starts, spec, persistent)``, in generation order."""
    buckets = demand.shape[0]
    for index, starts, spec, persistent_senders in server_bursts:
        for start in starts:
            volume = rng.lognormal(spec.burst_volume_log_mu, spec.burst_volume_log_sigma)
            intensity = float(
                min(
                    max(rng.normal(spec.burst_intensity_mean, spec.burst_intensity_std), 0.55),
                    1.25,
                )
            )
            fanin = max(1.0, spec.burst_connections * rng.lognormal(mean=0.0, sigma=0.35))
            scale = model.overshoot_scale * (0.15 if persistent_senders else 1.0)
            overshoot = 1.0 + scale * (fanin / 40.0) * rng.lognormal(mean=0.0, sigma=0.5)
            profile = _burst_profile_reference(model, volume, intensity, overshoot)
            end = min(int(start) + len(profile), buckets)
            span = end - int(start)
            if span <= 0:
                continue
            demand[int(start) : end, index] += profile[:span]
            connections[int(start) : end, index] = np.maximum(
                connections[int(start) : end, index], fanin
            )


def _generate_reference(model, workload, hour, buckets, rng):
    """The historical ``DemandModel.generate``: scalar draws per burst,
    the serialization loop and one profile ``+=`` per burst.  The parts
    the vectorized rewrite left untouched (start draws) are shared."""
    placement = workload.placement
    servers = placement.servers
    demand = np.zeros((buckets, servers))
    connections = np.zeros((buckets, servers))
    task_phases = {}
    for task in sorted(set(placement.tasks)):
        wave_count = rng.poisson(max(1.0, buckets * model.step * 8.0))
        task_phases[task] = rng.integers(0, buckets, size=max(wave_count, 1))
    rack_wave_count = rng.poisson(max(1.0, buckets * model.step * 5.0))
    rack_phase = rng.integers(0, buckets, size=max(rack_wave_count, 1))
    rack_load = float(rng.lognormal(mean=-0.1, sigma=0.45))
    for index in range(servers):
        spec = placement.services[index]
        load = (
            workload.diurnal.scaled(spec.diurnal_sensitivity).at_hour(hour)
            * workload.load_scale
            * rack_load
        )
        persistent_senders = spec.sender_persistence >= 1.0
        base = spec.baseline_utilization * load * model.drain
        if base > 0:
            jitter = rng.lognormal(mean=-0.06, sigma=0.35, size=buckets)
            demand[:, index] += base * jitter
        connections_base = spec.base_connections
        connections[:, index] += np.maximum(
            rng.normal(connections_base, connections_base * 0.2, size=buckets), 0.0
        )
        p_active = min(0.95, spec.active_probability * load**0.25)
        if rng.random() >= p_active:
            continue
        rate_multiplier = float(
            min(max(rng.lognormal(mean=-0.35, sigma=model.rate_tail_sigma), 0.05), 4.0)
        )
        starts = model._draw_burst_starts(
            spec, buckets, load, rng, task_phases.get(placement.tasks[index]),
            rack_phase, rate_multiplier,
        )
        if persistent_senders:
            typical_length = max(
                1,
                int(
                    np.exp(spec.burst_volume_log_mu)
                    / (spec.burst_intensity_mean * model.drain)
                ),
            )
            starts = _serialize_starts_reference(starts, typical_length, buckets)
        _burst_loop_reference(
            model, demand, connections, rng, [(index, starts, spec, persistent_senders)]
        )
    return demand, connections


class TestGenerateExact:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generate_matches_historical_loop(self, seed):
        workloads = build_region_workloads(REGION_A, racks=3, rng=np.random.default_rng(seed))
        model = DemandModel()
        for offset, workload in enumerate(workloads):
            rng_seed = 100 * seed + offset
            hour = (7 * rng_seed) % 24
            rng, reference_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
            actual = model.generate(workload, hour, 600, rng)
            demand, connections = _generate_reference(
                model, workload, hour, 600, reference_rng
            )
            assert np.array_equal(actual.demand, demand)
            assert np.array_equal(actual.connections, connections)
            assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestBlockDraws:
    """The (k, 4) standard-normal block plus numpy affine maps plus libm
    ``exp`` must reproduce the scalar draws bit for bit and leave the
    generator in the same state.  A numpy build that fused
    ``loc + scale * z`` into one FMA would break this loudly."""

    SERVICES = ("web", "cache", "ml_trainer", "storage")

    def test_block_equals_scalar_lognormal_and_normal(self):
        spec = service_by_name("web")
        scalar_rng, block_rng = np.random.default_rng(5), np.random.default_rng(5)
        count = 20_000
        expected = np.array(
            [
                (
                    scalar_rng.lognormal(spec.burst_volume_log_mu, spec.burst_volume_log_sigma),
                    scalar_rng.normal(spec.burst_intensity_mean, spec.burst_intensity_std),
                    scalar_rng.lognormal(mean=0.0, sigma=0.35),
                    scalar_rng.lognormal(mean=0.0, sigma=0.5),
                )
                for _ in range(count)
            ]
        )
        z = block_rng.standard_normal((count, 4))
        actual = np.column_stack(
            [
                _libm_exp(spec.burst_volume_log_mu + spec.burst_volume_log_sigma * z[:, 0]),
                spec.burst_intensity_mean + spec.burst_intensity_std * z[:, 1],
                _libm_exp(0.35 * z[:, 2]),
                _libm_exp(0.5 * z[:, 3]),
            ]
        )
        assert np.array_equal(actual, expected)
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), buckets=st.integers(1, 300))
    @settings(max_examples=40)
    def test_add_bursts_matches_per_burst_loop(self, seed, buckets):
        """Draws, profiles and the scatter together, with bursts that
        overlap on one server and run past the end of the run."""
        model = DemandModel()
        servers = len(self.SERVICES)
        setup = np.random.default_rng(seed)
        base = setup.random((buckets, servers)) * model.drain
        server_bursts = []
        for index, name in enumerate(self.SERVICES):
            count = int(setup.integers(0, 12))
            # Few distinct starts: overlapping bursts on one server.
            starts = setup.integers(0, min(buckets, 4), size=count)
            if index % 2:
                starts = np.sort(setup.integers(0, buckets, size=count))
            server_bursts.append((index, starts, service_by_name(name), bool(index % 2)))

        expected_demand, expected_conns = base.copy(), base.copy()
        scalar_rng = np.random.default_rng(seed)
        _burst_loop_reference(
            model, expected_demand, expected_conns, scalar_rng, server_bursts
        )

        demand, conns = base.copy(), base.copy()
        block_rng = np.random.default_rng(seed)
        active = [
            (
                index,
                starts,
                block_rng.standard_normal((len(starts), 4)),
                (
                    spec.burst_volume_log_mu,
                    spec.burst_volume_log_sigma,
                    spec.burst_intensity_mean,
                    spec.burst_intensity_std,
                    spec.burst_connections,
                    model.overshoot_scale * (0.15 if persistent else 1.0),
                ),
            )
            for index, starts, spec, persistent in server_bursts
            if len(starts)
        ]
        if active:
            model._add_bursts(demand, conns, active)
        assert np.array_equal(demand, expected_demand)
        assert np.array_equal(conns, expected_conns)
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


def _serialize_starts_reference(starts, typical_length, buckets):
    """The historical serialization loop."""
    serialized = []
    next_free = 0
    for start in np.sort(starts):
        start = max(int(start), next_free)
        if start >= buckets:
            break
        serialized.append(start)
        next_free = start + typical_length
    return np.array(serialized, dtype=np.int64)


class TestSerialization:
    def test_serialize_separates_overlaps(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.array([10, 10, 10, 10])
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert len(set(serialized.tolist())) == len(serialized)

    def test_serialize_keeps_separated_starts(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.array([10, 500, 900])
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert serialized.tolist() == [10, 500, 900]

    def test_serialize_drops_starts_past_run(self):
        model = DemandModel()
        spec = service_by_name("ml_trainer")
        starts = np.full(1000, 998)
        serialized = model._serialize_starts(starts, spec, buckets=1000)
        assert len(serialized) < len(starts)

    def test_invalid_sync_fractions_rejected(self):
        with pytest.raises(SimulationError):
            DemandModel(shared_task_sync=0.9, rack_sync=0.2)
        with pytest.raises(SimulationError):
            DemandModel(rack_sync=-0.1)

    @given(
        starts=st.lists(st.integers(min_value=0, max_value=1999), max_size=60),
        buckets=st.integers(min_value=1, max_value=2000),
        service=st.sampled_from(["ml_trainer", "storage", "web", "cache"]),
    )
    @settings(max_examples=200)
    def test_scan_matches_reference_loop(self, starts, buckets, service):
        model = DemandModel()
        spec = service_by_name(service)
        starts = np.array([s % buckets for s in starts], dtype=np.int64)
        typical_length = max(
            1,
            int(np.exp(spec.burst_volume_log_mu) / (spec.burst_intensity_mean * model.drain)),
        )
        actual = model._serialize_starts(starts, spec, buckets)
        expected = _serialize_starts_reference(starts, typical_length, buckets)
        assert actual.dtype == np.int64
        assert np.array_equal(actual, expected)
