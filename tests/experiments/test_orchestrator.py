"""Tests for fault-isolated, observable experiment orchestration."""

import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.experiments import orchestrator
from repro.experiments.context import ExperimentContext
from repro.experiments.orchestrator import (
    ExperimentOutcome,
    OrchestrationResult,
    run_experiments,
    warm_datasets,
)


def tiny_ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext.small(racks=2, runs_per_rack=2, **kwargs)


#: Fast experiments that do not need the fleet dataset.
FAST = ["fig1", "perf"]


def failing_registry(monkeypatch, failing_id, exc=None):
    """Make one experiment raise while the rest resolve normally."""
    from repro.experiments.registry import get_experiment as real

    exc = exc or RuntimeError("injected failure")

    def fake(experiment_id):
        if experiment_id == failing_id:
            def boom(ctx):
                raise exc
            return boom
        return real(experiment_id)

    monkeypatch.setattr(orchestrator, "get_experiment", fake)


def probe_registry(monkeypatch, probe_id, body):
    """Replace one experiment with ``body(ctx) -> metrics`` as a probe."""
    from repro.experiments.base import ExperimentResult
    from repro.experiments.registry import get_experiment as real

    def fake(experiment_id):
        if experiment_id == probe_id:
            def probe(ctx):
                return ExperimentResult(
                    experiment_id=probe_id,
                    title="probe",
                    paper_claim="",
                    metrics=body(ctx),
                )
            return probe
        return real(experiment_id)

    monkeypatch.setattr(orchestrator, "get_experiment", fake)


def _worker_is_tracing(_item) -> bool:
    return tracemalloc.is_tracing()


class TestIsolation:
    def test_failure_is_contained_and_suite_completes(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        orch = run_experiments(tiny_ctx(), ["fig1", "perf", "fig4"])
        assert [o.experiment_id for o in orch.outcomes] == ["fig1", "perf", "fig4"]
        assert [o.status for o in orch.outcomes] == ["ok", "failed", "ok"]
        failed = orch.outcomes[1]
        assert failed.error == "RuntimeError: injected failure"
        assert not orch.ok
        assert set(orch.results) == {"fig1", "fig4"}

    def test_failure_summary_names_each_failure(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        orch = run_experiments(tiny_ctx(), ["fig1", "perf"])
        summary = orch.failure_summary()
        assert "1/2" in summary
        assert "perf" in summary and "injected failure" in summary
        assert OrchestrationResult(
            outcomes=[ExperimentOutcome("fig1", "ok")], results={}
        ).failure_summary() == ""

    def test_on_error_raise_propagates(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiments(tiny_ctx(), ["perf"], on_error="raise")

    def test_on_error_raise_releases_tracemalloc(self, monkeypatch):
        """Regression: the re-raise path returned before the epilogue,
        leaving the process-wide tracer running and leaking its peak
        into every later tracemalloc measurement in the process."""
        assert not tracemalloc.is_tracing()
        failing_registry(monkeypatch, "perf")
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiments(
                tiny_ctx(), ["perf"], on_error="raise", trace_memory=True
            )
        assert not tracemalloc.is_tracing()

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigError):
            run_experiments(tiny_ctx(), FAST, on_error="explode")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiments"):
            run_experiments(tiny_ctx(), ["figure-nope"])


class TestOutcomeTelemetry:
    def test_serial_outcomes_carry_timing_and_memory(self):
        orch = run_experiments(tiny_ctx(), FAST, trace_memory=True)
        for outcome in orch.outcomes:
            assert outcome.ok
            assert outcome.wall_time_s > 0
            assert outcome.peak_tracemalloc_bytes is not None
            assert outcome.peak_tracemalloc_bytes > 0
            assert outcome.peak_rss_bytes is not None
            assert outcome.metrics  # headline metrics captured

    def test_untraced_by_default(self, monkeypatch):
        """The default run leaves allocation tracing off inside the
        experiment body (so generation there runs at full speed) and
        reports no traced peak; RSS stays the always-on signal."""
        assert not tracemalloc.is_tracing()
        probe_registry(
            monkeypatch, "fig1",
            lambda ctx: {"tracing": float(tracemalloc.is_tracing())},
        )
        (outcome,) = run_experiments(tiny_ctx(), ["fig1"]).outcomes
        assert outcome.ok
        assert outcome.metrics == {"tracing": 0.0}
        assert outcome.peak_tracemalloc_bytes is None
        assert outcome.peak_rss_bytes is not None

    def test_traced_run_stops_tracer_in_pool_workers(self, monkeypatch):
        """Worker processes forked while the parent traces inherit the
        tracer; the shared pool initializer must switch it off there."""
        from repro.fleet.kernels import pool_initializer
        from repro.fleet.parallel import run_windowed

        def body(ctx):
            seen = []
            run_windowed(
                [0, 1, 2, 3],
                lambda executor, item: executor.submit(_worker_is_tracing, item),
                lambda _item, tracing: seen.append(tracing),
                jobs=2,
                initializer=pool_initializer,
                initargs=("numpy",),
            )
            return {
                "parent_tracing": float(tracemalloc.is_tracing()),
                "workers_tracing": float(sum(seen)),
                "tasks": float(len(seen)),
            }

        probe_registry(monkeypatch, "fig1", body)
        (outcome,) = run_experiments(
            tiny_ctx(), ["fig1"], trace_memory=True
        ).outcomes
        assert outcome.ok, outcome.error
        assert outcome.metrics == {
            "parent_tracing": 1.0, "workers_tracing": 0.0, "tasks": 4.0,
        }
        assert outcome.peak_tracemalloc_bytes is not None
        assert not tracemalloc.is_tracing()

    def test_experiment_spans_recorded(self):
        ctx = tiny_ctx()
        run_experiments(ctx, ["fig1"])
        assert "experiment/fig1" in ctx.metrics.timers()

    def test_cache_miss_then_hit_attributed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = ExperimentContext.small(racks=2, runs_per_rack=2)
        first.cache_dir = cache_dir
        orch = run_experiments(first, ["table1"])
        (outcome,) = orch.outcomes
        assert outcome.cache_misses == 2  # both regions generated
        assert outcome.cache_hits == 0

        second = ExperimentContext.small(racks=2, runs_per_rack=2)
        second.cache_dir = cache_dir
        orch = run_experiments(second, ["table1"])
        (outcome,) = orch.outcomes
        assert outcome.cache_hits == 2
        assert outcome.cache_misses == 0


class TestParallel:
    def test_parallel_metrics_identical_to_serial(self):
        ids = ["fig1", "perf", "table1"]
        serial = run_experiments(tiny_ctx(), ids, exp_jobs=1)
        parallel = run_experiments(tiny_ctx(), ids, exp_jobs=4)
        assert [o.experiment_id for o in parallel.outcomes] == ids
        assert all(o.ok for o in parallel.outcomes)
        for ser, par in zip(serial.outcomes, parallel.outcomes):
            assert ser.metrics == par.metrics  # exact float equality

    def test_parallel_isolates_failures_and_keeps_order(self, monkeypatch):
        failing_registry(monkeypatch, "fig4")
        orch = run_experiments(tiny_ctx(), ["fig1", "fig4", "perf"], exp_jobs=3)
        assert [o.experiment_id for o in orch.outcomes] == ["fig1", "fig4", "perf"]
        assert [o.status for o in orch.outcomes] == ["ok", "failed", "ok"]

    def test_warmup_failure_skips_dataset_experiments(self, monkeypatch):
        def broken_warmup(ctx, regions=orchestrator.WARMUP_REGIONS):
            raise RuntimeError("generation exploded")

        monkeypatch.setattr(orchestrator, "warm_datasets", broken_warmup)
        orch = run_experiments(tiny_ctx(), ["fig1", "table1"], exp_jobs=2)
        by_id = {o.experiment_id: o for o in orch.outcomes}
        assert by_id["fig1"].status == "ok"
        assert by_id["table1"].status == "skipped"
        assert "generation exploded" in by_id["table1"].error
        assert not orch.ok

    def test_warmup_populates_both_regions(self):
        ctx = tiny_ctx()
        warm_datasets(ctx)
        assert set(ctx._datasets) == {"RegA", "RegB"}
        assert "warmup" in ctx.metrics.timers()


class TestProgress:
    def test_progress_streams_in_requested_order(self, monkeypatch):
        failing_registry(monkeypatch, "perf")
        seen = []
        run_experiments(
            tiny_ctx(),
            ["fig1", "perf"],
            exp_jobs=2,
            progress=lambda outcome, result: seen.append(
                (outcome.experiment_id, outcome.status, result is not None)
            ),
        )
        assert seen == [("fig1", "ok", True), ("perf", "failed", False)]
