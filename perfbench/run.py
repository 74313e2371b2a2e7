"""End-to-end benchmark of the Millisampler reproduction.

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 25 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) for about
``--seconds`` seconds, checks its outputs, prints a report and, as the
last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` reports the per-layer metrics from a separate traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

WORKLOADS = {
    "paper-run": "perfbench.paper_run",
    "serve-mix": "perfbench.serve_mix",
    "packet-incast": "perfbench.packet_incast",
}


def _declared(trace: bool) -> list[tuple[str, str]]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _compile_sources() -> None:
    """Byte-compile the program once per checkout, so no timed launch
    pays for it (a no-op when the .pyc files are current)."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", common.SRC],
                   check=True, stdout=subprocess.DEVNULL, cwd=common.ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source()
    declared = _declared(bool(args.trace))
    _compile_sources()
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:  # the run failed as a whole: report it, do not hide it
        traceback.print_exc()
        out = common.Outcome(attempted=1, failed=1, problems=["workload raised"])

    metrics = {}
    for name, unit in declared:
        if name in out.metrics:
            value, measured_unit = out.metrics[name]
            if measured_unit != unit:
                out.problems.append(f"{name} measured in {measured_unit}, declared {unit}")
        elif args.trace:
            # A layer this workload does not exercise did no work in it.
            value = 0.0
        else:
            out.problems.append(f"{name} not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}

    for line in out.report:
        print(line)
    print("env " + json.dumps(common.environment(out.kernel), sort_keys=True))
    for problem in out.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(out.problems) > 20:
        print(f"CHECK FAILED: ... and {len(out.problems) - 20} more")
    for name, metric in metrics.items():
        print(f"{name:<40s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not out.problems and out.failed == 0 and out.attempted > 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted > 0 else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
