"""Per-CPU sampler layouts must not depend on the process.

RSS picks a flow's CPU from a hash of its 5-tuple.  The builtin
``hash`` of strings is salted per process (``PYTHONHASHSEED``), so with
it the same simulation put flows on different CPUs in different
processes; aggregates hid that because read-out sums or ORs across
CPUs.  This runs one small rack in two interpreters with different
hash seeds and compares every host's per-CPU counters and sketch words.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import hashlib
from repro.config import SamplerConfig
from repro.core.counters import BYTE_COUNTER_KINDS
from repro.simnet.topology import build_rack
from repro.workload.flows import IncastApp

rack = build_rack("det", servers=6, sampler_config=SamplerConfig(buckets=50, cpus=8))
for sampled in rack.sampled_hosts:
    sampled.sampler.attach()
    sampled.sampler.enable()
IncastApp(rack.hosts[1:], rack.hosts[0], bytes_per_sender=256 * 1024).start(at_time=1e-3)
rack.engine.run_until(0.2)
for sampled in rack.sampled_hosts:
    sampler = sampled.sampler
    sampler.finish(now=rack.engine.now)
    sampler.read_run()  # folds any pending writes
    digest = hashlib.sha256(sampler._sketch_words.tobytes())
    for kind in BYTE_COUNTER_KINDS:
        digest.update(sampler._counters[kind]._values.tobytes())
    print(sampler.meta.host, sampler.stats.packets_processed, digest.hexdigest())
"""


def _per_cpu_maps(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return result.stdout


def test_per_cpu_maps_independent_of_hash_seed():
    first, second = _per_cpu_maps("1"), _per_cpu_maps("2")
    assert len(first.splitlines()) == 6
    assert all(int(line.split()[1]) > 0 for line in first.splitlines())
    assert first == second
