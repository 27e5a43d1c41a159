"""Experiment harness: sample, delete, decompose, certify, aggregate.

One trial is fully determined by (config, base_seed + trial_index); every
stage draws from a single per-trial generator, so reports are identical
whatever the worker count.  Aggregation is plain means and fractions over
the trial records.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from perclab import theory
from perclab.decomposition import decompose
from perclab.expansion import EXHAUSTIVE_LIMIT, certify, path_upper_bound, spectral_lower_bound
from perclab.pairing import (
    DegreeSequence,
    project,
    sample_configuration,
    sample_simple_regular,
)
from perclab.percolation import DeletionParams, apply_deletion, choose_deletion_set


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a batch of percolation trials.

    Exactly one of alpha (p = n**-alpha) or p must be given.  mode is
    'multigraph' (raw pairing projection) or 'simple' (rejection until the
    projection is simple).  exhaustive_expansion turns on expansion
    certificates: exact search when the survivor has at most
    EXHAUSTIVE_LIMIT vertices, spectral/run bounds otherwise.
    """

    n: int
    d: int
    alpha: float | None = None
    p: float | None = None
    eta: float | None = None
    trials: int = 1
    base_seed: int = 0
    mode: str = "multigraph"
    exhaustive_expansion: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if (self.alpha is None) == (self.p is None):
            raise ValueError("give exactly one of alpha or p")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.mode not in ("multigraph", "simple"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.eta is not None and self.alpha is not None:
            if not (0 < self.eta <= self.alpha):
                raise ValueError("need 0 < eta <= alpha")

    @property
    def K_effective(self) -> int | None:
        """Bush/tree size cutoff K, derived from eta (else alpha)."""
        eta = self.eta if self.eta is not None else self.alpha
        if eta is None or self.d < 3:
            return None
        return theory.bush_bound_K(self.d, eta)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    d: int
    alpha: float | None
    p: float
    r: int
    census: tuple
    mu: tuple | None
    giant_size: int
    n_components: int
    connected: bool
    max_tree_size: int
    cycle_component_count: int
    other_component_count: int
    max_bush_size: int
    two_core_size: int
    core_census: tuple
    kernel_size: int
    core_cycle_count: int
    longest_deg2_run: int
    deg2_paths_ge2: int
    rejections: int
    beta_exact: float | None
    beta_lower: float | None
    beta_upper: float | None
    lambda2: float | None
    diameter: float | None
    runtime_ms: float

    @property
    def n_survivors(self) -> int:
        return self.n - self.r

    def nongiant_trees_within(self, K: int) -> bool:
        return (
            self.cycle_component_count == 0
            and self.other_component_count == 0
            and self.max_tree_size <= K
        )


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    t0 = time.perf_counter()
    seed = config.base_seed + trial_index
    rng = np.random.default_rng(seed)

    rejections = 0
    if config.mode == "simple":
        cfg, _, rejections = sample_simple_regular(config.n, config.d, rng)
    else:
        cfg = sample_configuration(DegreeSequence.regular(config.n, config.d), rng)

    params = DeletionParams(config.n, alpha=config.alpha, p=config.p, seed=rng)
    prob = params.prob
    outcome = apply_deletion(cfg, choose_deletion_set(params))
    graph = project(outcome.survivor)

    dec = decompose(graph)
    comp = dec.components

    mu = None
    if config.alpha is not None and config.d >= 3:
        mp = theory.ModelParams(config.n, config.d, config.alpha, config.eta)
        mu = tuple(theory.mu_all(mp))

    beta_exact = beta_lower = beta_upper = lambda2 = diameter = None
    beta_upper = path_upper_bound(dec.longest_deg2_run, graph.n)
    if config.exhaustive_expansion:
        if graph.n <= EXHAUSTIVE_LIMIT:
            cert = certify(graph, longest_run=dec.longest_deg2_run, seed=rng)
            beta_exact = cert.exact_beta
            beta_lower = cert.lower_bound
            lambda2 = cert.lambda2
            diameter = cert.diameter
            if cert.upper_bound is not None:
                beta_upper = cert.upper_bound
        else:
            spect = spectral_lower_bound(graph, seed=rng)
            beta_lower = spect.value
            lambda2 = spect.lambda2

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial=trial_index,
        seed=seed,
        n=config.n,
        d=config.d,
        alpha=config.alpha,
        p=prob,
        r=outcome.r,
        census=tuple(int(x) for x in outcome.census),
        mu=mu,
        giant_size=comp.giant_size,
        n_components=comp.n_components,
        connected=comp.connected,
        max_tree_size=comp.max_isolated_tree_size,
        cycle_component_count=comp.isolated_cycle_count,
        other_component_count=comp.other_count,
        max_bush_size=dec.max_bush_size,
        two_core_size=dec.two_core_size,
        core_census=tuple(int(x) for x in dec.core_census),
        kernel_size=dec.kernel_size,
        core_cycle_count=len(dec.kernel.cycles),
        longest_deg2_run=dec.longest_deg2_run,
        deg2_paths_ge2=dec.kernel.runs_at_least(2),
        rejections=rejections,
        beta_exact=beta_exact,
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        lambda2=lambda2,
        diameter=diameter,
        runtime_ms=runtime_ms,
    )


def _trial_job(payload) -> TrialRecord:
    config_kwargs, idx = payload
    return run_trial(ExperimentConfig(**config_kwargs), idx)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list
    aggregate: dict
    predictions: dict | None

    def to_dict(self, strip_runtime: bool = False) -> dict:
        recs = []
        for r in self.records:
            d = {}
            for key, val in asdict(r).items():
                if isinstance(val, tuple):
                    val = [_json_safe(x) for x in val]
                else:
                    val = _json_safe(val)
                d[key] = val
            if strip_runtime:
                d["runtime_ms"] = 0.0
            recs.append(d)
        agg = {k: _json_safe(v) for k, v in self.aggregate.items()}
        if strip_runtime:
            agg.pop("mean_runtime_ms", None)
        return {
            "config": asdict(self.config),
            "records": recs,
            "aggregate": agg,
            "predictions": self.predictions,
        }

    def to_json(self, strip_runtime: bool = False) -> str:
        return json.dumps(
            self.to_dict(strip_runtime), sort_keys=True, indent=1, allow_nan=False
        )


def _json_safe(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return None
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def aggregate_records(records: list, K: int | None) -> dict:
    if not records:
        return {"trials": 0}
    T = len(records)

    def mean(vals):
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    def frac(flags):
        return float(np.mean([bool(f) for f in flags]))

    agg = {
        "trials": T,
        "mean_r": mean(r.r for r in records),
        "mean_giant_size": mean(r.giant_size for r in records),
        "mean_giant_fraction": mean(
            r.giant_size / r.n_survivors for r in records if r.n_survivors
        ),
        "mean_two_core_size": mean(r.two_core_size for r in records),
        "mean_kernel_size": mean(r.kernel_size for r in records),
        "mean_census": [
            mean(r.census[j] for r in records) for j in range(len(records[0].census))
        ],
        "mean_core_census": [
            mean(r.core_census[j] for r in records)
            for j in range(len(records[0].core_census))
        ],
        "fraction_connected": frac(r.connected for r in records),
        "fraction_core_cycle_free": frac(r.core_cycle_count == 0 for r in records),
        "fraction_nongiant_isolated_only": frac(
            r.nongiant_trees_within(1) for r in records
        ),
        "mean_longest_deg2_run": mean(r.longest_deg2_run for r in records),
        "mean_deg2_paths_ge2": mean(r.deg2_paths_ge2 for r in records),
        "mean_max_bush_size": mean(r.max_bush_size for r in records),
        "mean_runtime_ms": mean(r.runtime_ms for r in records),
    }
    if K is not None:
        agg["K"] = K
        agg["fraction_nongiant_trees_within_K"] = frac(
            r.nongiant_trees_within(K) for r in records
        )
        agg["fraction_bushes_within_K"] = frac(
            r.max_bush_size <= K for r in records
        )
    return agg


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run config.trials independent trials; records are ordered by trial
    index and identical for any worker count."""
    idxs = list(range(config.trials))
    if workers <= 1 or config.trials <= 1:
        records = [run_trial(config, i) for i in idxs]
    else:
        payloads = [(asdict(config), i) for i in idxs]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_job, payloads))

    preds = None
    if config.alpha is not None and config.d >= 3:
        mp = theory.ModelParams(config.n, config.d, config.alpha, config.eta)
        preds = theory.predictions(mp, run_lengths=(2,)).to_dict()
    agg = aggregate_records(records, config.K_effective)
    return ExperimentReport(config, records, agg, preds)


# ---------------------------------------------------------------------------
# CSV interface


# (column, TrialRecord field), one row per trial.  A column with {j} is
# one column per degree j = 0..d, read from the field's tuple (blank when
# the field is None); isolated_cycles counts pure-cycle components of the
# 2-core, the quantity the cycle-freeness predictions speak about.
_CSV_FIELDS = (
    ("n", "n"),
    ("d", "d"),
    ("alpha", "alpha"),
    ("seed", "seed"),
    ("r", "r"),
    ("N_{j}", "census"),
    ("mu_{j}", "mu"),
    ("giant_size", "giant_size"),
    ("two_core_size", "two_core_size"),
    ("longest_deg2_run", "longest_deg2_run"),
    ("max_tree_size", "max_tree_size"),
    ("isolated_cycles", "core_cycle_count"),
    ("connected", "connected"),
    ("beta_exact", "beta_exact"),
    ("beta_lower", "beta_lower"),
    ("beta_upper", "beta_upper"),
    ("lambda2", "lambda2"),
    ("diameter", "diameter"),
    ("runtime_ms", "runtime_ms"),
)


def csv_columns(d: int) -> list[str]:
    cols = []
    for col, _ in _CSV_FIELDS:
        cols += [col.format(j=j) for j in range(d + 1)] if "{j}" in col else [col]
    return cols


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return ""
        return repr(x)
    return str(x)


def write_csv(report: ExperimentReport, path_or_file) -> None:
    """One row per trial, columns as in csv_columns."""
    own = not hasattr(path_or_file, "write")
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow(csv_columns(report.config.d))
        for r in report.records:
            row = []
            for col, field in _CSV_FIELDS:
                val = getattr(r, field)
                if "{j}" not in col:
                    row.append(val)
                else:
                    row += [None] * (r.d + 1) if val is None else list(val)
            writer.writerow([_cell(x) for x in row])
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines, # comments


_CONFIG_TYPES = {
    "n": int,
    "d": int,
    "alpha": float,
    "p": float,
    "eta": float,
    "trials": int,
    "base_seed": int,
    "mode": str,
    "exhaustive_expansion": bool,
}


def parse_config_text(text: str) -> ExperimentConfig:
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        typ = _CONFIG_TYPES[key]
        if typ is bool:
            if val.lower() not in ("true", "false", "0", "1", "yes", "no"):
                raise ValueError(f"line {lineno}: bad boolean {val!r}")
            kwargs[key] = val.lower() in ("true", "1", "yes")
        else:
            kwargs[key] = typ(val)
    missing = [key for key in ("n", "d") if key not in kwargs]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    return ExperimentConfig(**kwargs)


def read_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())
