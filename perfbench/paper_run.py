"""Workload ``paper-run``: a cold ``millisampler-repro run`` of every
experiment that needs the fleet dataset, through the real CLI.

Each unit of work is one CLI process at CLI defaults except a fixed small
scale, ``--jobs 1``, a fresh ``--cache-dir``, ``--seed`` and
``--manifest``, so the dataset is generated (never read from a cache)
under the orchestrator's default memory tracing.  Each unit of a run gets
its own CLI seed, derived from the run's seed.  The traced run repeats
every unit traced, and the two must give identical results.

Run as a script (``python3 perfbench/paper_run.py SPANS -- CLI-ARGS``),
this module is the traced child: it patches each generation layer, runs
the CLI in-process and writes its spans to SPANS.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402
from perfbench.tracer import Tracer, load  # noqa: E402

#: Every experiment registered with needs_dataset=True except fig10 and
#: fig13, which raise when the RegA-High class is empty (fig10) or has no
#: runs on one side of the 4-10 h window (fig13).  At the scales a run
#: can afford, some seeds do that: at 8 racks x 3 runs, 3 of 60 seeds
#: (fig10: seeds 35, 42; fig13: seed 10), and more at 12 x 3 or 8 x 4.
#: Their aggregations (profiles, hourly_boxes) are measured by serve-mix.
EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "table1", "table2",
    "implication-placement",
)
#: Every experiment above succeeded at this scale for each of the seeds
#: 0-59.  Small cold runs keep the median steady: a run's cost depends on
#: the seed's dataset, and superlinearly on its size under the
#: orchestrator's allocation tracing, so several small runs on distinct
#: seeds vary far less than one large one.
RACKS = 4
RUNS_PER_RACK = 2
#: `list` launches timed for setup_s (after one untimed warm-up).
SETUP_LAUNCHES = 5
UNIT_TIMEOUT_S = 60

CLI = [sys.executable, "-m", "repro.experiments.cli"]

#: The program's own telemetry timers (matched as a suffix of the
#: nested timer name) next to the benchmark's spans that cover the same
#: code: (timer pattern, [(span name, "self" or "total"), ...]).
CROSS_CHECK = (
    (r"generate/Reg[AB]", [("fleet.dataset.generate_region_dataset", "total")]),
    (r"synthesis/demand", [("fleet.demand.generate", "total")]),
    (r"synthesis/fluid", [("fleet.buffermodel.run_batch", "total")]),
    (r"synthesis/assemble", [("fleet.rackrun.synthesize_batch", "self"),
                             ("fleet.rackrun.sketch_estimates", "total")]),
    (r"synthesis/summarize", [("analysis.summary.summarize_run", "total")]),
    (r"cache/store", [("fleet.cache.store", "total")]),
)


def run_args(seed: int, cache_dir: str, manifest: str) -> list[str]:
    return [
        "run", *EXPERIMENTS,
        "--racks", str(RACKS), "--runs-per-rack", str(RUNS_PER_RACK),
        "--jobs", "1", "--cache-dir", cache_dir,
        "--seed", str(seed), "--manifest", manifest,
    ]


def _setup(tmp: common.TempRoot, env: dict) -> list[float]:
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        code, wall, _rss, err = common.spawn_measured(
            CLI + ["list"], env, UNIT_TIMEOUT_S, tmp.path
        )
        if code != 0:
            raise RuntimeError(f"`list` exited {code}: {err[-500:]}")
        if launch:
            times.append(wall)
    return times


def _check_manifest(path: str, out: common.Outcome) -> dict | None:
    """Validate one unit's manifest; returns its per-experiment headline
    metrics ("results") and the program's telemetry."""
    from repro.errors import ManifestError
    from repro.obs.manifest import validate_manifest

    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        validate_manifest(manifest)
    except (OSError, ValueError, ManifestError) as exc:
        out.check(False, f"manifest unreadable or invalid: {exc}")
        return None
    outcomes = manifest["experiments"]
    out.check([o["experiment_id"] for o in outcomes] == list(EXPERIMENTS),
              "manifest lists other experiments than requested")
    for outcome in outcomes:
        if not out.check(outcome["status"] == "ok",
                         f"{outcome['experiment_id']} {outcome['status']}: "
                         f"{outcome.get('error')}"):
            out.failed += 1
    out.kernel = manifest["config"].get("kernel")
    return {
        "results": {o["experiment_id"]: o["metrics"] for o in outcomes},
        "telemetry": manifest["telemetry"],
    }


def _unit(seed, tmp, env, out, traced: bool):
    """One cold CLI run; returns (wall s, peak RSS MB, manifest, spans)."""
    manifest = tmp.fresh("manifest") + ".json"
    args = run_args(seed, tmp.fresh("cache"), manifest)
    spans_path = common.spans_path(f"paper-run-seed{seed}")
    argv = ([sys.executable, os.path.abspath(__file__), spans_path, "--"] + args
            if traced else CLI + args)
    out.attempted += len(EXPERIMENTS)
    code, wall, rss, err = common.spawn_measured(argv, env, UNIT_TIMEOUT_S, tmp.path)
    if not out.check(code == 0, f"cli run exited {code}: {err[-800:]}"):
        out.failed += len(EXPERIMENTS)
        return wall, rss, None, None
    checked = _check_manifest(manifest, out)
    return wall, rss, checked, load(spans_path) if traced else None


def unit_seed(seed: int, index: int) -> int:
    """The CLI ``--seed`` of a run's ``index``-th cold run."""
    return seed * 1000 + index


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    common.import_program()
    out = common.Outcome()
    with common.TempRoot("paper-run") as tmp:
        env = common.child_env(tmp.path)
        setup = _setup(tmp, env)
        walls, rss, traced_walls, traces = [], [], [], []
        first = None
        started = time.perf_counter()
        while True:
            unit = unit_seed(seed, len(walls))
            wall, peak, checked, _ = _unit(unit, tmp, env, out, traced=False)
            if checked is None:
                break
            walls.append(wall)
            rss.append(peak)
            first = first or common.digest(checked["results"])
            if trace:
                # The same cold run traced: the overhead compares equal
                # work, and tracing must not change a single result.
                wall, _, traced, spans = _unit(unit, tmp, env, out, traced=True)
                if traced is None:
                    break
                out.check(common.digest(traced["results"]) == common.digest(checked["results"]),
                          f"seed {unit}: the traced run's results differ")
                traced_walls.append(wall)
                traces.append((spans, traced["telemetry"], wall))
            if time.perf_counter() - started >= seconds:
                break
        measured = time.perf_counter() - started
    if first is None:
        return out
    if seed == common.DEFAULT_SEED:
        pinned = common.pinned_digest("paper-run")
        out.check(first == pinned, f"result digest {first} != pinned {pinned}")
    if trace:
        _layer_metrics(out, traces, walls, traced_walls)
        return out
    out.put("setup_s", common.median(setup), "s")
    out.put("latency_p50_ms", common.median(walls) * 1e3, "ms")
    out.put("latency_p99_ms", common.percentile(walls, 99) * 1e3, "ms")
    out.put("requests_per_s", len(walls) / measured, "1/s")
    out.put("peak_rss_mb", common.median(rss), "MB")
    return out


def _layer_metrics(out, traces, walls, traced_walls) -> None:
    n = len(traces)
    sums = {"self": {}, "total": {}, "count": {}, "program": {}}
    unattributed = 0.0
    for tracer, telemetry, wall in traces:
        self_times = tracer.self_times()
        for kind, values in (("self", self_times), ("total", tracer.totals()),
                             ("count", tracer.counts)):
            for name, value in values.items():
                sums[kind][name] = sums[kind].get(name, 0.0) + value / n
        for timer, stats in telemetry["timers"].items():
            for pattern, _spans in CROSS_CHECK:
                if re.search(f"(^|/){pattern}$", timer):
                    program = sums["program"]
                    program[pattern] = program.get(pattern, 0.0) + stats["total_s"] / n
        # Everything outside the layer spans: interpreter start-up, CLI
        # and orchestrator code, result rendering, the manifest.
        attributed = sum(v for k, v in self_times.items() if k != "cli.main")
        unattributed += (wall - attributed) / wall / n

    def self_s(name):
        return sums["self"].get(name, 0.0)

    def count(name):
        return sums["count"].get(name, 0.0)

    out.put("fleet.dataset.generate_s", self_s("fleet.dataset.generate_region_dataset"), "s")
    out.put("fleet.demand.generate_s", self_s("fleet.demand.generate"), "s")
    out.put("fleet.buffermodel.run_batch_s", self_s("fleet.buffermodel.run_batch"), "s")
    out.put("fleet.buffermodel.server_bucket_steps",
            count("fleet.buffermodel.server_bucket_steps"), "count")
    out.put("fleet.rackrun.assemble_s", self_s("fleet.rackrun.synthesize_batch"), "s")
    out.put("fleet.rackrun.sketch_s", self_s("fleet.rackrun.sketch_estimates"), "s")
    out.put("analysis.summary.summarize_s", self_s("analysis.summary.summarize_run"), "s")
    out.put("fleet.rack_runs", count("fleet.rack_runs"), "count")
    out.put("fleet.cache.store_s", self_s("fleet.cache.store"), "s")
    out.put("fleet.cache.store_bytes", count("fleet.cache.store_bytes"), "bytes")
    out.put("experiments.analysis_s", self_s("experiments.run"), "s")
    out.put("unattributed_frac", unattributed, "frac")
    out.put("trace_overhead_frac",
            common.median(traced_walls) / common.median(walls) - 1, "frac")

    out.report.append("layer self time per cold run (s):")
    for name, value in sorted(sums["self"].items(), key=lambda kv: -kv[1]):
        out.report.append(f"  {name:<40s} {value:9.3f}")
    out.report.append("program telemetry timer vs benchmark spans (s per cold run):")
    for pattern, spans in CROSS_CHECK:
        bench = sum(sums[kind].get(name, 0.0) for name, kind in spans)
        label = " + ".join(f"{name} ({kind})" for name, kind in spans)
        out.report.append(
            f"  {pattern:<20s} {sums['program'].get(pattern, 0.0):9.3f}  vs {bench:9.3f}  {label}"
        )


# -- traced child ---------------------------------------------------------


def _install(tracer: Tracer) -> None:
    """Patch each generation layer's public functions."""
    from repro.analysis import summary
    from repro.experiments import context, orchestrator
    from repro.fleet import buffermodel, cache, dataset, demand, rackrun

    tracer.wrap([dataset, context], "generate_region_dataset",
                "fleet.dataset.generate_region_dataset")
    tracer.wrap([demand.DemandModel], "generate", "fleet.demand.generate")

    def bucket_steps(args, kwargs):
        batch_demand = args[1]
        lengths = kwargs.get("lengths")
        runs, buckets, servers = batch_demand.shape
        steps = int(lengths.sum()) * servers if lengths is not None else runs * buckets * servers
        tracer.count("fleet.buffermodel.server_bucket_steps", steps)

    tracer.wrap([buffermodel.FluidBufferModel], "run_batch",
                "fleet.buffermodel.run_batch", before=bucket_steps)
    tracer.wrap([rackrun.RackRunSynthesizer], "synthesize_batch",
                "fleet.rackrun.synthesize_batch",
                before=lambda a, k: tracer.count("fleet.rack_runs", len(a[1])))
    tracer.wrap([rackrun], "sketch_estimates", "fleet.rackrun.sketch_estimates")
    tracer.wrap([dataset, summary], "summarize_run", "analysis.summary.summarize_run")
    tracer.wrap([cache.DatasetCache], "store", "fleet.cache.store",
                after=lambda path: tracer.count("fleet.cache.store_bytes",
                                                os.path.getsize(path)))

    original_get = orchestrator.get_experiment

    def get_experiment(experiment_id):
        body = original_get(experiment_id)

        def traced(ctx):
            with tracer.request(experiment_id), tracer.span("experiments.run"):
                return body(ctx)

        return traced

    tracer.patch(orchestrator, "get_experiment", get_experiment)


def _child(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: paper_run.py SPANS -- CLI-ARGS")
    common.import_program()
    from repro.experiments import cli

    tracer = Tracer()
    _install(tracer)
    try:
        with tracer.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1:]))
