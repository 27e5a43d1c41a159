"""One benchmark run's own process: set up, then time trials.

run.py starts this file in a fresh interpreter and reads one JSON object
from its standard output.  Set-up is the import of perclab and one
n = 1000 warm-up trial of the workload; it ends at the monotonic time
reported as "setup_done".  Then whole rounds of trials run through
perclab.harness.run_trial until the time is up; every round runs the
same trial indices, so each graph is timed once per round.  Peak RSS is
read right after the last trial, so it covers set-up and trials.

The speed of the core is sampled with a fixed calibration kernel before
and after each trial and, in untraced runs, every TICK_S seconds during
set-up and trials.  Time spent sampling is taken out of the timed
intervals; run.py scales each interval by the mean sample over it.

With tracing on, the public functions a trial goes through are wrapped
from outside by replacing their module (or class) attributes.  Each call
becomes a span; a span's self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

TICK_S = 0.25


class Speedometer:
    """Times a fixed calibration kernel: a numpy sort of 2^18 floats into a
    buffer, which is memory-bound, and an interpreter loop, the two kinds of
    work a trial does.  Its work never changes and it allocates nothing, so
    its time follows the speed of the core.

    sample() runs it twice and times the second pass, which finds the
    kernel's 4 MB back in cache, so that the sample does not depend on how
    much of the cache the interrupted trial had taken.  Once started, a
    SIGALRM handler also samples every TICK_S seconds of wall time, in the
    middle of whatever is running (Python runs the handler between
    bytecodes), and adds the handler's own time to `ticking`, so that an
    interval can leave it out."""

    def __init__(self, np):
        self.keys = np.random.default_rng(0).random(1 << 18)
        self.buf = self.keys.copy()
        self.samples = []
        self.ticking = 0.0
        self.busy = False

    def kernel(self) -> None:
        self.buf[:] = self.keys
        self.buf.sort()
        total = 0
        for i in range(60_000):
            total += i & 7

    def sample(self) -> None:
        self.busy = True
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)
        self.busy = False

    def _tick(self, signum, frame) -> None:
        if self.busy:
            return
        t0 = time.perf_counter()
        self.sample()
        self.ticking += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean_since(self, k: int) -> float:
        return statistics.fmean(self.samples[k:])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, trial]
        self.stack = []
        self.counts = []  # one dict per trial
        self.absent = []
        self.trial = -1

    def begin_trial(self):
        self.trial += 1
        self.counts.append({})

    def add(self, key, value):
        counts = self.counts[-1]
        counts[key] = counts.get(key, 0) + int(value)

    def wrap(self, owner, attr, span=None, counts=None, pre=None):
        """Replace owner.attr by a wrapper that records a span named span
        (if given) and adds counts[key](args, result, pre(args)) to each
        counter key."""
        counts = counts or {}
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent += [span] + list(counts) if span else list(counts)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args) if pre else None
            if span is None:
                result = fn(*args, **kwargs)
            else:
                parent = self.stack[-1] if self.stack else -1
                self.spans.append([span, time.perf_counter(), None, parent, self.trial])
                self.stack.append(len(self.spans) - 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[self.stack.pop()][2] = time.perf_counter()
            for key, value in counts.items():
                self.add(key, value(args, result, before))
            return result

        setattr(owner, attr, traced)

    def self_times(self, trial: int) -> dict:
        """Self seconds per span name within one trial."""
        child = {}
        for name, start, end, parent, t in self.spans:
            if t == trial and parent >= 0:
                child[parent] = child.get(parent, 0.0) + end - start
        out = {}
        for i, (name, start, end, parent, t) in enumerate(self.spans):
            if t == trial:
                out[name] = out.get(name, 0.0) + end - start - child.get(i, 0.0)
        return out


def install(tracer: Tracer) -> None:
    from perclab import decomposition, expansion, harness, pairing

    wrap = tracer.wrap
    wrap(harness, "run_trial", "harness")
    wrap(
        harness, "sample_configuration", "pairing.sample",
        {"pairing.points": lambda a, r, b: a[0].total_points},
    )
    wrap(harness, "project", "pairing.project")
    wrap(
        pairing.Multigraph, "adjacency", "pairing.adjacency",
        {"pairing.adjacency_builds": lambda a, r, b: b},
        pre=lambda a: getattr(a[0], "_adj", None) is None,
    )
    wrap(
        harness, "choose_deletion_set", "percolation.delete",
        {"percolation.deleted": lambda a, r, b: len(r)},
    )
    wrap(harness, "apply_deletion", "percolation.delete")
    wrap(
        decomposition, "two_core", "decomposition.peel",
        {"decomposition.peeled": lambda a, r, b: a[0].n - r.size},
    )
    wrap(decomposition.TwoCore, "subgraph", "decomposition.core_subgraph")
    wrap(
        decomposition, "kernel", "decomposition.kernel",
        {
            "decomposition.kernel_edges": lambda a, r, b: r.graph.m,
            "decomposition.chain_vertices":
                lambda a, r, b: int(r.internal.sum()) + sum(len(c) for c in r.cycles),
        },
    )
    wrap(
        decomposition, "bushes", "decomposition.bushes",
        {"decomposition.bush_count": lambda a, r, b: len(r)},
    )
    wrap(
        decomposition, "classify_components", "decomposition.components",
        {"decomposition.component_count": lambda a, r, b: r.n_components},
    )
    wrap(decomposition, "csr_matrix", counts={"decomposition.csr_builds": lambda a, r, b: 1})
    wrap(expansion, "csr_matrix", counts={"expansion.csr_builds": lambda a, r, b: 1})
    wrap(harness, "spectral_lower_bound", "expansion.spectral")


def main() -> None:
    spec = json.loads(sys.argv[1])
    # numpy is perclab's first import anyway; importing it here lets the
    # ticks cover the rest of set-up.
    import numpy as np

    speed = Speedometer(np)
    if not spec["trace"]:
        speed.start()
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    from perclab import harness

    if not os.path.realpath(harness.__file__).startswith(src + os.sep):
        raise SystemExit(f"perclab was imported from {harness.__file__}, not from {src}")
    config = harness.ExperimentConfig(**spec["config"])
    harness.run_trial(harness.ExperimentConfig(**{**spec["config"], "n": 1000}), 0)
    setup_done = time.monotonic()
    setup_ticking = speed.ticking
    speed.sample()
    setup_calibration = speed.mean_since(0)

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)

    # Rounds: each round runs the trials with indices 0 .. graphs-1 once.
    # A new round starts only while it is expected to end by the deadline;
    # there is always at least one.  Each timed trial is stored
    # as [index, seconds less ticks, mean calibration from just before to
    # just after it, number of calibration samples in that mean].
    graphs = spec["graphs"]
    records, trials, layers, failed, rounds = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        for i in range(graphs):
            if tracer:
                tracer.begin_trial()
            k = len(speed.samples)
            speed.sample()
            ticking, t0 = speed.ticking, time.perf_counter()
            try:
                rec = harness.run_trial(config, i)
            except Exception:
                traceback.print_exc()
                failed += 1
                rec = None
            seconds = time.perf_counter() - t0 - (speed.ticking - ticking)
            speed.sample()
            if rec is not None:
                trials.append([i, seconds, speed.mean_since(k), len(speed.samples) - k])
                records.append(vars(rec))
                if tracer:
                    layers.append({**tracer.self_times(tracer.trial), **tracer.counts[-1]})
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > spec["seconds"]:
            break
    speed.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    json.dump(
        {
            "setup_done": setup_done,
            "setup_ticking_s": setup_ticking,
            "setup_calibration_s": setup_calibration,
            "attempted": rounds * graphs,
            "failed": failed,
            "trials": trials,
            "peak_rss_kb": peak_kb,
            "records": records,
            "layers": layers,
            "absent": tracer.absent if tracer else [],
            "spans": tracer.spans if tracer else [],
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
