"""ExperimentContext behaviour that is not an experiment's result."""

from repro.config import FleetConfig
from repro.experiments import context as context_module
from repro.experiments.context import ExperimentContext
from repro.fleet.dataset import RegionDataset


class TestVerboseProgress:
    def test_prints_when_done_crosses_a_200_run_mark(self, monkeypatch, capsys):
        """Pool and shard builds report whole tasks at a time, so ``done``
        jumps over exact multiples of 200; the line still prints."""

        def generate(spec, config, progress=None, **_kwargs):
            for done in (150, 350, 500):
                progress(done, 500)
            return RegionDataset(region=spec.name, summaries=[])

        monkeypatch.setattr(context_module, "generate_region_dataset", generate)
        ctx = ExperimentContext(
            fleet=FleetConfig(racks_per_region=1, runs_per_rack=1), verbose=True
        )
        ctx.dataset("RegA")
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["  [RegA] 350/500 rack runs", "  [RegA] 500/500 rack runs"]
