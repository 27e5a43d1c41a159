"""Correctness checks for benchmark trials, run outside the timed region.

A trial is re-derived from its seed through perclab's public functions
(the README's reproducibility contract: one stream goes through sampling,
then deletion), and each record field the benchmark checks is recomputed
by reference.py.  Run-level checks compare sums over the run's trials
with bands a correct program leaves with probability below DELTA each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import perclab

import reference as ref

DELTA = 1e-7  # per band; four bands per run
EPS = 1e-9


@dataclass(frozen=True)
class Trial:
    """A trial's survivor and unpercolated projection, re-derived from its seed."""

    seed: int
    n: int
    d: int
    p: float
    r: int
    survivor_n: int
    edges: np.ndarray  # survivor multigraph
    full_edges: np.ndarray  # projection before deletion


def rederive(config: dict, seed: int) -> Trial:
    n, d = config["n"], config["d"]
    rng = np.random.default_rng(seed)
    conf = perclab.sample_configuration(perclab.DegreeSequence.regular(n, d), rng)
    params = perclab.DeletionParams(n, alpha=config["alpha"], seed=rng)
    outcome = perclab.apply_deletion(conf, perclab.choose_deletion_set(params))
    graph = perclab.project(outcome.survivor)
    return Trial(
        seed=seed,
        n=n,
        d=d,
        p=params.prob,
        r=outcome.r,
        survivor_n=graph.n,
        edges=graph.edges,
        full_edges=perclab.project(conf).edges,
    )


@dataclass(frozen=True)
class Summary:
    """What the run-level bands need from one trial."""

    r: int
    lost_one: int  # the record's N_{d-1}
    loops: int
    doubles: int
    irregular: int


def check_trial(rec: dict, t: Trial) -> tuple[list[str], Summary]:
    """Failures found in one record, and the trial's summary."""
    fails = []

    def expect(name, got, want):
        if got != want:
            fails.append(f"seed {t.seed}: {name} is {got}, reference gives {want}")

    n, edges = t.survivor_n, t.edges
    census = list(rec["census"])
    expect("r (re-derived)", rec["r"], t.r)
    expect("sum N_j", sum(census), t.n - rec["r"])
    expect("sum j*N_j", sum(j * c for j, c in enumerate(census)), 2 * edges.shape[0])
    expect("census", census, np.bincount(ref.degrees(n, edges), minlength=t.d + 1).tolist())

    core = ref.peel(n, edges)
    comps = ref.components(n, edges)
    runs = ref.deg2_runs(n, core)
    expect("two_core_size", rec["two_core_size"], core.size)
    expect("giant_size", rec["giant_size"], comps.giant)
    expect("n_components", rec["n_components"], comps.count)
    expect("kernel_size", rec["kernel_size"], core.kernel_size)
    expect("longest_deg2_run", rec["longest_deg2_run"], runs.longest)
    expect("core_cycle_count", rec["core_cycle_count"], runs.cycles)
    if rec["lambda2"] is not None:
        fails += check_certificate(rec, n, edges, runs)

    loops, doubles, irregular = ref.pairing_defects(t.n, t.full_edges)
    return fails, Summary(rec["r"], census[t.d - 1], loops, doubles, irregular)


def check_repeat(first: dict, rec: dict) -> list[str]:
    """A trial run again with the same seed must give the same record,
    apart from its runtime.  Fields are compared in their JSON form, so
    that NaN equals NaN."""
    return [
        f"seed {rec['seed']}: {key} is {rec[key]} on a repeat, {first[key]} the first time"
        for key in first
        if key != "runtime_ms" and json.dumps(rec[key]) != json.dumps(first[key])
    ]


def check_certificate(rec: dict, n: int, edges: np.ndarray, runs: ref.Runs) -> list[str]:
    """lambda2 and beta_lower against bounds that need no eigensolver."""
    fails = []
    seed, lam2, lower, upper = rec["seed"], rec["lambda2"], rec["beta_lower"], rec["beta_upper"]
    if not 0.0 <= lam2 <= 2.0:
        fails.append(f"seed {seed}: lambda2 {lam2} outside [0, 2]")
    rq = ref.rayleigh_quotient(n, edges, ref.probe_vector(n, edges))
    if lam2 > rq + 1e-6:
        fails.append(f"seed {seed}: lambda2 {lam2} exceeds a Rayleigh quotient {rq}")
    ratios = ref.ball_ratios(n, edges, ref.bfs_distances(n, edges, 0))
    if 0 < runs.longest_set.size <= n // 2:
        ratios.append(ref.boundary_ratio(n, edges, runs.longest_set))
    if ratios and lower > min(ratios) + EPS:
        fails.append(f"seed {seed}: beta_lower {lower} exceeds |N(S)-S|/|S| = {min(ratios)}")
    if upper is not None and lower > upper + EPS:
        fails.append(f"seed {seed}: beta_lower {lower} exceeds beta_upper {upper}")
    return fails


def check_run(config: dict, p: float, summaries: list[Summary]) -> list[str]:
    """Sums over the run's trials against their pairing-model bands."""
    n, d, T = config["n"], config["d"], len(summaries)
    fails = []

    def within(name, got, band):
        if got not in band:
            fails.append(f"{name} summed over {T} trials is {got}, outside [{band.lo:.1f}, {band.hi:.1f}]")

    within("r", sum(s.r for s in summaries), ref.binomial_band(n * T, p, DELTA))
    # a vertex with a loop or a parallel edge moves E N_{d-1} by less than 1
    lost = ref.freedman_band(T * ref.lost_one_mean(n, d, p), n * T, d + 1, p, DELTA)
    slack = sum(s.irregular for s in summaries)
    within(f"N_{d - 1}", sum(s.lost_one for s in summaries), ref.Band(lost.lo - slack, lost.hi + slack))
    within("loops", sum(s.loops for s in summaries), ref.poisson_band(T * ref.expected_loops(n, d), DELTA))
    within(
        "parallel pairs",
        sum(s.doubles for s in summaries),
        ref.poisson_band(T * ref.expected_doubles(n, d), DELTA),
    )
    return fails
