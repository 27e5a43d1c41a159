"""The benchmark's tracer (perfbench/worker.py) wraps perclab names by
attribute; a name it cannot find drops that layer's metrics from a
traced run, and a counter that reads an attribute perclab no longer has
fails every traced trial.  Install the tracer in a fresh interpreter, so
that the wrappers do not leak into other tests, check that every name
exists, and run traced trials that between them reach every layer."""

import os
import subprocess
import sys
from pathlib import Path

import perclab

ROOT = Path(perclab.__file__).resolve().parents[2]

CHECK = """
import worker
t = worker.Tracer()
worker.install(t)
assert t.absent == [], t.absent
"""

TRACED_TRIALS = """
import run, worker
from perclab import harness
t = worker.Tracer()
worker.install(t)
configs = [
    dict(n=3000, d=3, alpha=0.18, base_seed=5),
    dict(n=2000, d=4, alpha=0.5, exhaustive_expansion=True),
    dict(n=10_000, d=4, alpha=0.5),
]
for c in configs:
    t.begin_trial()
    harness.run_trial(harness.ExperimentConfig(**c), 0)
seen = {span[0] for span in t.spans}.union(*t.counts)
missing = sorted(key for key, _ in run.LAYERS.values() if key not in seen)
assert not missing, missing
"""


def run_with_perfbench(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_tracer_finds_every_wrapped_name():
    proc = run_with_perfbench(CHECK)
    assert proc.returncode == 0, proc.stderr


def test_traced_trials_reach_every_layer():
    proc = run_with_perfbench(TRACED_TRIALS)
    assert proc.returncode == 0, proc.stderr
