"""Tests for the combined report generator."""

import pytest

from repro.experiments import orchestrator
from repro.experiments.report import (
    HEADLINE_CHARS,
    headline,
    orchestrate,
    render_markdown,
    run_all,
    write_report,
)


class TestReport:
    @pytest.fixture(scope="class")
    def subset_results(self, small_ctx):
        # A fast, representative subset: analytic, packet-level, dataset.
        return run_all(small_ctx, ["fig1", "fig4", "table2"])

    def test_run_all_subset(self, subset_results):
        assert set(subset_results) == {"fig1", "fig4", "table2"}

    def test_markdown_structure(self, subset_results, small_ctx):
        text = render_markdown(subset_results, small_ctx)
        assert text.startswith("# Millisampler reproduction report")
        assert "## Summary" in text
        assert "## table2:" in text
        assert "**Paper:**" in text
        assert "loss_inversion_ratio" in text

    def test_write_report(self, small_ctx, tmp_path):
        path = str(tmp_path / "REPORT.md")
        progress_calls = []
        write_report(
            small_ctx, path, ["fig1"],
            progress=lambda eid, took: progress_calls.append(eid),
        )
        assert progress_calls == ["fig1"]
        with open(path) as handle:
            assert "fig1" in handle.read()


class TestHeadline:
    """Regression: headlines were cut at the first ".", so REPORT.md
    said "Pearson r = 0" where the metric was 0.96."""

    @pytest.mark.parametrize(
        "notes, expected",
        [
            ("Pearson r = 0.96. Paper: strong correlation.", "Pearson r = 0.96"),
            ("mean 0.43, p90 1.5; high-contention run mean 9.1",
             "mean 0.43, p90 1.5"),
            ("median 14.5 bursts per run (paper 12.0)",
             "median 14.5 bursts per run (paper 12.0)"),
            ("excluded 1.2% of runs.", "excluded 1.2% of runs"),
            ("version 2.0.1 holds.\nNext line.", "version 2.0.1 holds"),
            ("", ""),
        ],
    )
    def test_first_clause_keeps_decimals(self, notes, expected):
        assert headline(notes) == expected

    def test_long_headline_clipped_at_a_word(self):
        notes = "loss " + " ".join(f"{i}.25" for i in range(60))
        text = headline(notes)
        assert text.endswith(" …")
        assert len(text) <= HEADLINE_CHARS + 2
        # Every number survives whole.
        assert all(word.endswith(".25") for word in text.split()[1:-1])

    def test_summary_table_renders_decimals(self, small_ctx):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult(
            experiment_id="fig14", title="t", paper_claim="",
            notes="Pearson r = 0.96 (paper: positive). Details follow.",
        )
        text = render_markdown({"fig14": result}, small_ctx)
        assert "| `fig14` | t | Pearson r = 0.96 (paper: positive) |" in text


class TestReportFailureIsolation:
    def test_report_completes_with_failure_section(
        self, small_ctx, tmp_path, monkeypatch
    ):
        from repro.experiments.registry import get_experiment as real

        def fake(experiment_id):
            if experiment_id == "fig4":
                def boom(ctx):
                    raise RuntimeError("report stub failure")
                return boom
            return real(experiment_id)

        monkeypatch.setattr(orchestrator, "get_experiment", fake)
        path = str(tmp_path / "REPORT.md")
        write_report(small_ctx, path, ["fig1", "fig4"])
        with open(path) as handle:
            text = handle.read()
        assert "## Failures" in text
        assert "report stub failure" in text
        assert "## fig1:" in text  # the healthy experiment still rendered
        assert "## fig4:" not in text

    def test_run_all_stays_fail_fast(self, small_ctx, monkeypatch):
        from repro.experiments.registry import get_experiment as real

        def fake(experiment_id):
            def boom(ctx):
                raise RuntimeError("fail fast")
            return boom if experiment_id == "fig1" else real(experiment_id)

        monkeypatch.setattr(orchestrator, "get_experiment", fake)
        with pytest.raises(RuntimeError, match="fail fast"):
            run_all(small_ctx, ["fig1"])

    def test_orchestrate_records_wall_time_in_markdown(self, small_ctx, tmp_path):
        orchestration = orchestrate(small_ctx, ["fig1"])
        text = render_markdown(
            orchestration.results, small_ctx, orchestration.outcomes
        )
        assert "*Completed in" in text
