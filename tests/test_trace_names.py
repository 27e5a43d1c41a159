"""The benchmark's tracer (perfbench/worker.py) wraps perclab names by
attribute; a name it cannot find drops that layer's metrics from a
traced run.  Install the tracer in a fresh interpreter, so that the
wrappers do not leak into other tests, and check that every name exists."""

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


def test_tracer_finds_every_wrapped_name():
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
