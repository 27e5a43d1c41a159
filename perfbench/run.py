"""perclab benchmark: one run of one workload.

    python3 perfbench/run.py --workload headline_1e6 --seed 1 --seconds 30 --trace 0

Starts worker.py three times in turn, each in a fresh interpreter that sets
up and then runs whole rounds of trials through perclab.harness.run_trial
for a third of --seconds; each round times the same graphs again.
Afterwards, outside the timed region, every graph is re-derived from its
seed and checked against reference.py, and every repeat of it must give
the same record.  The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
whole run, with the environment it ran in, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# One BLAS thread, so that a run keeps to one core and the eigensolver's
# time does not depend on how busy the machine's other cores are.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
WORKER_TIMEOUT_S = 120

# Trial i of a run with --seed s uses seed s * SEED_STRIDE + i.
SEED_STRIDE = 1_000_000

WORKLOADS = {
    # crit 14's trial: sampler and kernel chain walk at full size, nothing peeled
    "headline_1e6": {"n": 1_000_000, "d": 4, "alpha": 0.5},
    # the battery's tightness batch: peel, bushes, components and real chains
    "tight_d3": {"n": 100_000, "d": 3, "alpha": 0.18},
    # the spectral certificate on the connected survivor; n is small enough
    # that a run covers dozens of graphs, whose eigensolver times differ
    "certify_1e4": {"n": 10_000, "d": 4, "alpha": 0.5, "exhaustive_expansion": True},
}

# Worker processes per run, one after another, each timing rounds for its
# share of --seconds.  CPython's speed differs by several percent from one
# process to the next (memory layout), so a run pools its trials, and takes
# its set-up time as the median, over several processes.
PROCESSES = 3

# Distinct graphs (trial indices) per round.  A run repeats the round, so
# only these graphs need re-deriving for the checks.
GRAPHS = {"headline_1e6": 1, "tight_d3": 8, "certify_1e4": 40}

# The calibration kernel's time (worker.Speedometer.sample) at the speed
# that setup_s and trial_s are reported at: about its time on a 2-vCPU Xeon
# host when nothing slows the core.  Each wall time is multiplied by this
# over the mean calibration sampled during and around it.  On a shared host a core's
# speed changes by up to 1.8x for stretches of seconds to minutes, and
# this scaling takes most of that out of the figures.
REFERENCE_CALIBRATION_S = 0.0043

# per-layer metric -> (span or counter name, unit)
LAYERS = {
    "pairing.sample_s": ("pairing.sample", "s"),
    "pairing.points": ("pairing.points", "count"),
    "pairing.project_s": ("pairing.project", "s"),
    "pairing.adjacency_s": ("pairing.adjacency", "s"),
    "pairing.adjacency_builds": ("pairing.adjacency_builds", "count"),
    "percolation.delete_s": ("percolation.delete", "s"),
    "percolation.deleted": ("percolation.deleted", "count"),
    "decomposition.core_subgraph_s": ("decomposition.core_subgraph", "s"),
    "decomposition.kernel_s": ("decomposition.kernel", "s"),
    "decomposition.kernel_edges": ("decomposition.kernel_edges", "count"),
    "decomposition.chain_vertices": ("decomposition.chain_vertices", "count"),
    "decomposition.peel_s": ("decomposition.peel", "s"),
    "decomposition.peeled": ("decomposition.peeled", "count"),
    "decomposition.bushes_s": ("decomposition.bushes", "s"),
    "decomposition.bush_count": ("decomposition.bush_count", "count"),
    "decomposition.components_s": ("decomposition.components", "s"),
    "decomposition.component_count": ("decomposition.component_count", "count"),
    "decomposition.csr_builds": ("decomposition.csr_builds", "count"),
    "expansion.csr_builds": ("expansion.csr_builds", "count"),
    "expansion.spectral_s": ("expansion.spectral", "s"),
    "harness.self_s": ("harness", "s"),
}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(config: dict, graphs: int, seconds: float, trace: bool) -> tuple[dict, float]:
    """The worker's result, and its set-up time counted from its spawn."""
    spec = {"src": SRC, "config": config, "graphs": graphs, "seconds": seconds, "trace": trace}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    result = json.loads(out)
    return result, result["setup_done"] - spawned


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """A wall time scaled to what it would read at the reference speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def layer_metrics(result: dict) -> dict:
    absent = set(result["absent"])
    out = {}
    for metric, (key, unit) in LAYERS.items():
        if key in absent:
            print(f"absent: {metric} ({key} is not in perclab)", file=sys.stderr)
            continue
        per_trial = [trial.get(key, 0) for trial in result["layers"]]
        out[metric] = {"value": float(statistics.median(per_trial)), "unit": unit}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")

    config = {**WORKLOADS[args.workload], "base_seed": args.seed * SEED_STRIDE}
    graphs = GRAPHS[args.workload]
    runs = [run_worker(config, graphs, args.seconds / PROCESSES, bool(args.trace)) for _ in range(PROCESSES)]
    result = {key: [x for r, _ in runs for x in r[key]] for key in ("trials", "records", "layers", "spans")}
    result["absent"] = runs[0][0]["absent"]
    if not result["trials"]:
        raise SystemExit("every trial failed")
    setups = [
        {"wall_s": wall, "ticking_s": r["setup_ticking_s"], "calibration_s": r["setup_calibration_s"]}
        for r, wall in runs
    ]
    setup_s = statistics.median(
        at_reference_speed(x["wall_s"] - x["ticking_s"], x["calibration_s"]) for x in setups
    )
    trial_s = [at_reference_speed(s, calibration) for _, s, calibration, _ in result["trials"]]

    failures, summaries, first = [], [], {}
    t_check = time.perf_counter()
    for rec in result["records"]:
        if rec["trial"] in first:
            failures += checks.check_repeat(first[rec["trial"]], rec)
            continue
        first[rec["trial"]] = rec
        trial = checks.rederive(config, rec["seed"])
        fails, summary = checks.check_trial(rec, trial)
        failures += fails
        summaries.append(summary)
    if summaries:
        failures += checks.check_run(config, trial.p, summaries)
    check_s = time.perf_counter() - t_check
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(result)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "trial_s": {"value": statistics.median(trial_s), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r, _ in runs) / 1024, "unit": "MB"},
        }
    line = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "metrics": metrics,
    }

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w") as fh:
        json.dump(
            {
                **line,
                "workload": args.workload,
                "config": config,
                "seconds": args.seconds,
                "graphs": graphs,
                "setups": setups,
                "trials": result["trials"],
                "check_s": check_s,
                "failures": failures,
                "env": {
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "python": platform.python_version(),
                    "git_sha": git_sha(),
                    "nproc": len(os.sched_getaffinity(0)),
                    **BLAS_ENV,
                },
                "layers": result["layers"],
                "spans": result["spans"],
            },
            fh,
            indent=1,
        )
    print(
        f"{args.workload}: {len(trial_s)} trials of {graphs} graphs, median {statistics.median(trial_s):.4f} s"
        f" (wall {statistics.median(t[1] for t in result['trials']):.4f} s), set-up {setup_s:.3f} s"
        f" (wall {statistics.median(x['wall_s'] for x in setups):.3f} s),"
        f" checks {check_s:.1f} s, {len(failures)} failed checks",
        file=sys.stderr,
    )
    print(json.dumps(line))


if __name__ == "__main__":
    main()
