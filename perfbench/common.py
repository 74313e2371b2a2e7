"""Shared helpers of the end-to-end benchmark: paths, statistics,
digests, child processes and the environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: The seed whose output digests are pinned in digests.json.
DEFAULT_SEED = 1


def require_source() -> None:
    """Exit nonzero (no result line) unless the program's source is here."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(tmp_root: str) -> dict:
    """Environment for program subprocesses: this checkout's source, and
    a default cache directory inside the run's temp root so nothing can
    reach ~/.cache/millisampler-repro even if a flag is forgotten."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["MILLISAMPLER_CACHE_DIR"] = os.path.join(tmp_root, "default-cache")
    return env


class TempRoot:
    """A fresh directory under ``.bench_tmp/`` of the checkout, removed on
    exit; every cache and shard store of a run lives below it."""

    def __init__(self, label: str) -> None:
        self.path = os.path.join(
            ROOT, ".bench_tmp", f"{label}-{os.getpid()}-{time.time_ns()}"
        )
        self._count = 0

    def __enter__(self) -> "TempRoot":
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self, name: str) -> str:
        """A new, not yet existing path below the root."""
        self._count += 1
        return os.path.join(self.path, f"{name}-{self._count}")


def spawn_measured(argv: list[str], env: dict, timeout: float, scratch: str):
    """Run ``argv`` to completion and reap it with ``os.wait4``, which
    gives this child's own peak RSS (RUSAGE_CHILDREN would be a max over
    every child so far).

    Returns (exit code, wall seconds, peak RSS MB, stderr text).  Stdout
    is discarded and stderr goes to an unnamed file under ``scratch``, so
    a chatty child can never block on a full pipe.  A child still running
    after ``timeout`` seconds is killed and reported as exit code -9.
    """
    with tempfile.TemporaryFile(dir=scratch) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    # Linux reports ru_maxrss in KiB.
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr


def spans_path(name: str) -> str:
    """Where a traced run writes its spans: ``.bench_out/`` of the checkout."""
    directory = os.path.join(ROOT, ".bench_out")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{name}.spans.json")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=lambda value: value.item())  # numpy scalars
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pinned_digest(workload: str) -> str | None:
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(kernel: str | None) -> dict:
    """What the numbers depend on beyond the code: cores, CPU, library
    versions and the fluid kernel that actually ran."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
        "kernel": kernel,
    }


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    kernel: str | None = None
    #: Extra human-readable report lines (layer tables, cross-checks).
    report: list[str] = field(default_factory=list)

    def check(self, condition: bool, problem: str) -> bool:
        if not condition:
            self.problems.append(problem)
        return condition

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
