"""Verification battery: the package's promises checked at desk scale.

Fourteen checks, each printing one PASS/FAIL line.  Asymptotic statements
are operationalized as trial fractions at fixed n with explicit
thresholds; exact combinatorial claims are checked against brute-force
oracles.  Every check runs from the fixed ACCEPT_SEED, chosen once up
front, so a run is a single deterministic draw of the whole battery.  Not
every draw passes: crit 8 passes at exactly 45/50 on ACCEPT_SEED and
fails on some other seeds (ROADMAP, direction 2).
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import chdtrc

from perclab.decomposition import (
    classify_components,
    kernel,
    two_core,
    two_core_bruteforce,
)
from perclab.expansion import (
    diameter_check,
    distance_matrix,
    exact_vertex_expansion,
    path_upper_bound,
    reinstatement_expansion_check,
    spectral_lower_bound,
)
from perclab.harness import ExperimentConfig, run_trial, run_experiment
from perclab.pairing import (
    Configuration,
    DegreeSequence,
    SamplingFailureError,
    enumerate_matchings,
    matching_key,
    project,
    sample_configuration,
    sample_simple_regular,
)
from perclab.percolation import (
    DeletionParams,
    apply_deletion,
    choose_deletion_set,
    reinstate,
)

ACCEPT_SEED = 0
UNIFORMITY_LEVEL = 1e-3  # a chi-square p-value must exceed this to pass


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: list = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        detail = "; ".join(self.details)
        return f"{mark}  [{self.cid:2d}] {self.title}: {detail} ({self.seconds:.1f}s)"


class AcceptanceContext:
    """Lazily built shared inputs (trial batches, graph corpora)."""

    def __init__(self, seed: int = ACCEPT_SEED):
        self.seed = seed
        self._cache: dict = {}
        self.batch_seconds: dict = {}

    def batch(self, key: str) -> object:
        if key not in self._cache:
            configs = {
                "regime_a": ExperimentConfig(
                    n=100_000, d=4, alpha=0.5, trials=50, base_seed=self.seed
                ),
                "regime_c": ExperimentConfig(
                    n=100_000, d=4, alpha=0.4, trials=50, base_seed=self.seed
                ),
                "regime_b": ExperimentConfig(
                    n=100_000, d=4, alpha=0.2, trials=50, base_seed=self.seed
                ),
                "tightness": ExperimentConfig(
                    n=100_000, d=3, alpha=0.18, trials=50, base_seed=self.seed
                ),
            }
            t0 = time.perf_counter()
            self._cache[key] = run_experiment(configs[key])
            self.batch_seconds[key] = time.perf_counter() - t0
        return self._cache[key]

    def small_graphs(self, count: int = 1000) -> list:
        """Random multigraphs on <= 12 buckets, mixed degree sequences."""
        key = ("small", count)
        if key not in self._cache:
            rng = np.random.default_rng(self.seed + 1)
            out = []
            while len(out) < count:
                n = int(rng.integers(2, 13))
                degs = rng.integers(0, 5, size=n).astype(np.int64)
                if int(degs.sum()) % 2:
                    degs[int(rng.integers(n))] += 1
                g = project(sample_configuration(DegreeSequence(degs), rng))
                out.append(g)
            self._cache[key] = out
        return self._cache[key]

    def connected_graphs(self, count: int = 500) -> list:
        """Random connected multigraphs on <= 16 buckets, min degree >= 1."""
        key = ("connected", count)
        if key not in self._cache:
            rng = np.random.default_rng(self.seed + 2)
            out = []
            while len(out) < count:
                n = int(rng.integers(4, 17))
                degs = rng.integers(1, 5, size=n).astype(np.int64)
                if int(degs.sum()) % 2:
                    degs[int(rng.integers(n))] += 1
                g = project(sample_configuration(DegreeSequence(degs), rng))
                if classify_components(g).connected:
                    out.append(g)
            self._cache[key] = out
        return self._cache[key]

    def reinstatement_cases(self, count: int = 200) -> list:
        """(gprime, W, ghat, check_result) on simple cubic graphs with W
        pairwise at distance >= 3."""
        key = ("reinstate", count)
        if key not in self._cache:
            rng = np.random.default_rng(self.seed + 3)
            cases = []
            while len(cases) < count:
                n = int(rng.choice([12, 14, 16]))
                try:
                    _, ghat, _ = sample_simple_regular(n, 3, rng, retry_cap=200)
                except SamplingFailureError:
                    continue
                dist = distance_matrix(ghat)
                if math.isinf(dist.max()):
                    continue
                order = rng.permutation(n)
                W = [int(order[0])]
                for v in order[1:]:
                    if all(dist[v, w] >= 3 for w in W):
                        W.append(int(v))
                        if len(W) == 2:
                            break
                keep = np.ones(n, dtype=bool)
                keep[W] = False
                gprime, _ = ghat.induced(keep)
                res = reinstatement_expansion_check(gprime, W, ghat, d=3)
                cases.append((gprime, tuple(W), ghat, res))
            self._cache[key] = cases
        return self._cache[key]

    def small_survivors(self, count: int = 100) -> list:
        """(graph, exact_beta) for small percolated survivors."""
        key = ("survivors", count)
        if key not in self._cache:
            out = []
            for i in range(count):
                rng = np.random.default_rng(self.seed + 1000 + i)
                cfg = sample_configuration(DegreeSequence.regular(18, 4), rng)
                params = DeletionParams(18, alpha=0.3, seed=rng)
                outcome = apply_deletion(cfg, choose_deletion_set(params))
                g = project(outcome.survivor)
                if g.n == 0:
                    continue
                ev = exact_vertex_expansion(g)
                out.append((g, ev.value))
            self._cache[key] = out
        return self._cache[key]


# ---------------------------------------------------------------------------
# sampler self-test
#
# A chi-square check of raw matching frequencies against the uniform
# distribution over all (2m-1)!! pairings, and an exact check that the
# survivor's pairing is uniform given the deleted buckets and the surviving
# degrees: the finite fact that makes two-round deletion legal.


def _observed(counts: Counter, total_points: int) -> np.ndarray:
    """Counts over every matching of total_points, in enumeration order."""
    return np.array(
        [counts[k] for k in enumerate_matchings(total_points)], dtype=float
    )


def _chisquare(obs: np.ndarray) -> tuple[float, float]:
    """Pearson's statistic against equal expected counts and its upper-tail
    p-value on obs.size - 1 degrees of freedom."""
    e = obs.mean()
    chi2 = ((obs - e) ** 2 / e).sum()
    return float(chi2), float(chdtrc(obs.size - 1, chi2))


def matching_uniformity(seed, samples: int) -> dict:
    """Sampler frequencies over the 15 pairings of n=3 buckets of degree 2."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    seq = DegreeSequence.regular(3, 2)
    counts = Counter(
        matching_key(sample_configuration(seq, rng).pairs) for _ in range(samples)
    )
    obs = _observed(counts, seq.total_points)
    chi2, pval = _chisquare(obs)
    return {
        "samples": samples,
        "categories": obs.size,
        "observed_categories": int(np.count_nonzero(obs)),
        "chi2": chi2,
        "pvalue": pval,
        "passed": bool(pval > UNIFORMITY_LEVEL and np.all(obs > 0)),
    }


def deletion_uniformity() -> dict:
    """Every pairing times every deletion set of the degree sequences
    [2,2,2,2] and [3,1,0,2,2] through apply_deletion, grouped by (sequence,
    deleted buckets, surviving degrees): each group must hold every matching
    of the surviving points equally often.  Labels are 0-based."""
    groups: dict = {}
    for degrees in ((2, 2, 2, 2), (3, 1, 0, 2, 2)):
        seq = DegreeSequence(np.array(degrees))
        for key in enumerate_matchings(seq.total_points):
            config = Configuration(seq, np.array(key).reshape(-1, 2))
            for r in range(seq.n + 1):
                for deleted in combinations(range(seq.n), r):
                    out = apply_deletion(config, np.array(deleted, dtype=np.int64))
                    group = (degrees, deleted, tuple(out.survivor.seq.degrees.tolist()))
                    counts = groups.setdefault(group, Counter())
                    counts[matching_key(out.survivor.pairs)] += 1

    failures = []
    for (degrees, deleted, surviving), counts in groups.items():
        obs = _observed(counts, sum(surviving))
        if obs.min() != obs.max():
            failures.append(dict(sequence=degrees, deleted=deleted, degrees=surviving,
                                 min_count=int(obs.min()), max_count=int(obs.max())))
    return {
        "groups": len(groups),
        "failed_groups": len(failures),
        "first_failure": failures[0] if failures else None,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# the criteria


def crit_01_sampler_uniformity(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    mt = matching_uniformity(ctx.seed, 15_000)
    secs = time.perf_counter() - t0
    passed = mt["passed"] and secs < 5.0
    return CriterionResult(
        1,
        "matching sampler uniform over the 15 pairings (n=3, d=2)",
        passed,
        [
            f"chi2={mt['chi2']:.2f}",
            f"p={mt['pvalue']:.4f} (need > {UNIFORMITY_LEVEL:g})",
            f"{mt['observed_categories']}/15 categories seen",
        ],
        secs,
    )


def crit_02_pair_probability(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    seq = DegreeSequence.regular(6, 2)  # 12 points, m = 6
    rng = np.random.default_rng(ctx.seed)
    samples = 100_000
    hits = 0
    for _ in range(samples):
        c = sample_configuration(seq, rng)
        hits += int(c.pairs[0, 1] == 1)
    freq = hits / samples
    target = 1.0 / 11.0
    sigma = math.sqrt(target * (1 - target) / samples)
    passed = abs(freq - target) <= 4 * sigma
    return CriterionResult(
        2,
        "fixed-pair frequency matches 1/(2m-1) = 1/11 (m=6)",
        passed,
        [
            f"freq={freq:.5f}",
            f"target={target:.5f}",
            f"|dev|={abs(freq-target)/sigma:.2f} sigma (need <= 4)",
        ],
        time.perf_counter() - t0,
    )


def crit_03_degree_census(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_a")
    mean_census = rep.aggregate["mean_census"]
    mu3 = rep.predictions["mu"][3]
    n3_ok = abs(mean_census[3] - mu3) <= 0.10 * mu3
    n2_ok = 3.0 <= mean_census[2] <= 9.0
    zero_n0 = np.mean([r.census[0] == 0 for r in rep.records])
    build = ctx.batch_seconds.get("regime_a", 0.0)
    passed = n3_ok and n2_ok and zero_n0 >= 0.99 and build < 60.0
    return CriterionResult(
        3,
        "degree census tracks mu_j (d=4, alpha=0.5, n=1e5, 50 trials)",
        passed,
        [
            f"mean N_3={mean_census[3]:.1f} vs mu_3={mu3:.1f} (10% band)",
            f"mean N_2={mean_census[2]:.2f} in [3, 9]",
            f"N_0=0 in {zero_n0:.0%} of trials (need >= 99%)",
            f"batch built in {build:.1f}s (need < 60)",
        ],
        time.perf_counter() - t0,
    )


def crit_04_giant_and_trees(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_a")
    K = rep.config.K_effective
    good = [
        r.giant_size >= 0.99 * r.n_survivors and r.nongiant_trees_within(K)
        for r in rep.records
    ]
    frac = float(np.mean(good))
    return CriterionResult(
        4,
        f"giant component plus trees of <= K={K} buckets",
        frac >= 0.95,
        [f"giant >= 0.99(n-r) and non-giant trees <= {K} in {frac:.0%} (need >= 95%)"],
        time.perf_counter() - t0,
    )


def crit_05_bush_bound(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_a")
    K = rep.config.K_effective
    frac = float(np.mean([r.max_bush_size <= K for r in rep.records]))
    biggest = max(r.max_bush_size for r in rep.records)
    return CriterionResult(
        5,
        f"no bush exceeds K={K} buckets",
        frac >= 0.95,
        [f"within bound in {frac:.0%} (need >= 95%)", f"largest bush seen: {biggest}"],
        time.perf_counter() - t0,
    )


def crit_06_two_core(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_a")
    K = rep.config.K_effective
    t_ok = all(r.two_core_size >= 0.98 * r.n_survivors for r in rep.records)
    cyc = float(np.mean([r.core_cycle_count == 0 for r in rep.records]))
    run = float(np.mean([r.longest_deg2_run <= K for r in rep.records]))
    passed = t_ok and cyc >= 0.95 and run >= 0.90
    return CriterionResult(
        6,
        "2-core holds nearly everything, no stray cycles, short runs",
        passed,
        [
            f"t >= 0.98(n-r) in all trials: {t_ok}",
            f"no isolated core cycles in {cyc:.0%} (need >= 95%)",
            f"longest degree-2 run <= {K} in {run:.0%} (need >= 90%)",
        ],
        time.perf_counter() - t0,
    )


def crit_07_regime_c_connectivity(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_c")
    frac = rep.aggregate["fraction_connected"]
    return CriterionResult(
        7,
        "survivor connected at alpha=0.4 >= 1/3 (d=4, n=1e5)",
        frac >= 0.90,
        [f"connected in {frac:.0%} of 50 trials (need >= 90%)"],
        time.perf_counter() - t0,
    )


def crit_08_regime_b_isolation(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("regime_b")
    iso = rep.aggregate["fraction_nongiant_isolated_only"]
    cap = float(rep.config.n) ** (1.0 / 3.0)
    n0_ok = float(np.mean([r.census[0] <= cap for r in rep.records]))
    mean_n0 = float(np.mean([r.census[0] for r in rep.records]))
    passed = iso >= 0.90 and n0_ok >= 0.95
    # an isolated edge is the likeliest non-bare piece
    trials = len(rep.records)
    iso_edges = rep.predictions["isolated_edge_mean"]
    q = math.exp(-iso_edges)
    batch_ok = sum(
        math.comb(trials, k) * q**k * (1 - q) ** (trials - k)
        for k in range(math.ceil(0.90 * trials), trials + 1)
    )
    return CriterionResult(
        8,
        "only isolated vertices outside the giant at alpha=0.2 (d=4, n=1e5)",
        passed,
        [
            f"non-giant all bare vertices in {iso:.0%} (need >= 90%)",
            f"N_0 <= n^(1/3)={cap:.1f} in {n0_ok:.0%} (need >= 95%), mean N_0={mean_n0:.1f}",
            f"model: {iso_edges:.2f} isolated edges per trial, so a trial passes with "
            f"p~{q:.2f} and {trials} trials reach 90% with p~{batch_ok:.2f}",
        ],
        time.perf_counter() - t0,
    )


def crit_09_tightness_runs(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rep = ctx.batch("tightness")
    have_run = [r.longest_deg2_run >= 4 for r in rep.records]
    frac = float(np.mean(have_run))
    bound_ok = all(
        r.beta_upper is not None and r.beta_upper <= 2.0 / 3.0 + 1e-12
        for r, h in zip(rep.records, have_run)
        if h
    )
    passed = frac >= 0.80 and bound_ok
    return CriterionResult(
        9,
        "long degree-2 runs cap expansion at 2/(k-1) (d=3, alpha=0.18)",
        passed,
        [
            f"run of length >= 4 in {frac:.0%} of trials (need >= 80%)",
            f"reported upper bound <= 2/3 on those trials: {bound_ok}",
        ],
        time.perf_counter() - t0,
    )


def crit_10_oracles(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    peel_ok = 0
    graphs = ctx.small_graphs(1000)
    for g in graphs:
        tc = two_core(g)
        if np.array_equal(tc.alive, two_core_bruteforce(g)):
            peel_ok += 1

    bracket_ok = 0
    checked_path = 0
    corpus = ctx.connected_graphs(500)
    for g in corpus:
        ev = exact_vertex_expansion(g)
        sp = spectral_lower_bound(g)
        ok = sp.value <= ev.value + 1e-9
        core = two_core(g)
        if ok and core.size:
            core_g, _ = core.subgraph()
            ev_c = exact_vertex_expansion(core_g)
            sp_c = spectral_lower_bound(core_g)
            ok = sp_c.value <= ev_c.value + 1e-9
            if ok:
                ub = path_upper_bound(kernel(core_g).longest_run, core_g.n)
                if ub is not None:
                    checked_path += 1
                    ok = ev_c.value <= ub + 1e-12
        bracket_ok += int(ok)

    passed = peel_ok == len(graphs) and bracket_ok == len(corpus)
    return CriterionResult(
        10,
        "peel matches subset-enumeration 2-core; bounds bracket exact beta",
        passed,
        [
            f"peel == brute force on {peel_ok}/{len(graphs)} multigraphs",
            f"spectral <= exact <= run bound on {bracket_ok}/{len(corpus)} "
            f"connected graphs ({checked_path} with an applicable run bound)",
        ],
        time.perf_counter() - t0,
    )


def crit_11_deletion_uniformity(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    du = deletion_uniformity()
    details = [f"equal counts in {du['groups'] - du['failed_groups']}/{du['groups']} groups"]
    if du["first_failure"]:
        details.append("first unequal: sequence {sequence}, deleted {deleted}, degrees "
                       "{degrees}, counts {min_count}..{max_count}".format(**du["first_failure"]))
    return CriterionResult(
        11,
        "survivor pairing uniform given deleted buckets and degrees (exact)",
        du["passed"],
        details,
        time.perf_counter() - t0,
    )


def crit_12_reinstatement(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    n, d, alpha, trials = 10_000, 4, 0.9, 200
    p_direct = float(n) ** -alpha
    p1 = float(n) ** -0.75
    q = float(n) ** (0.75 - alpha)
    cfg = sample_configuration(DegreeSequence.regular(n, d), ctx.seed + 5)
    rng = np.random.default_rng(ctx.seed + 4)

    direct_hits = 0
    twostage_hits = 0
    for _ in range(trials):
        R = choose_deletion_set(DeletionParams(n, alpha=alpha, seed=rng))
        direct_hits += R.size
        R1 = choose_deletion_set(DeletionParams(n, p=p1, seed=rng))
        final = reinstate(cfg, apply_deletion(cfg, R1), q=q, seed=rng)
        twostage_hits += final.r
    total = n * trials
    sigma = math.sqrt(p_direct * (1 - p_direct) / total)
    f_direct = direct_hits / total
    f_two = twostage_hits / total
    freq_ok = (
        abs(f_direct - p_direct) <= 3 * sigma and abs(f_two - p_direct) <= 3 * sigma
    )

    cases = ctx.reinstatement_cases(200)
    exp_ok = sum(1 for *_, res in cases if res.passed)
    chain_ok = sum(1 for *_, res in cases if res.chain_ok)
    passed = freq_ok and exp_ok == len(cases)
    return CriterionResult(
        12,
        "two-stage deletion composes; reinstating far vertices keeps beta/2",
        passed,
        [
            f"pooled deletion freq: direct {f_direct:.2e}, two-stage {f_two:.2e}, "
            f"target {p_direct:.2e} (3 sigma = {3*sigma:.2e})",
            f"beta/2-expansion held in {exp_ok}/{len(cases)} oracle cases",
            f"subset inequality held in {chain_ok}/{len(cases)}",
        ],
        time.perf_counter() - t0,
    )


def crit_13_diameter(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    pool = []
    for g in ctx.connected_graphs(500):
        pool.append((g, exact_vertex_expansion(g).value))
        core = two_core(g)
        if core.size:
            core_g, _ = core.subgraph()
            pool.append((core_g, exact_vertex_expansion(core_g).value))
    for gprime, _, ghat, res in ctx.reinstatement_cases(200):
        pool.append((ghat, res.beta_hat))
        pool.append((gprime, res.beta_prime))
    pool.extend(ctx.small_survivors(100))

    checked = 0
    held = 0
    for g, beta in pool:
        if beta is None or not (0 < beta < math.inf):
            continue
        checked += 1
        held += int(diameter_check(g, beta).passed)
    return CriterionResult(
        13,
        "diameter <= 2 log_{1+beta}(n/2) + 2 on every expanding small graph",
        checked > 0 and held == checked,
        [f"held on {held}/{checked} graphs with exact beta > 0"],
        time.perf_counter() - t0,
    )


def crit_14_performance(ctx) -> CriterionResult:
    t0 = time.perf_counter()
    rec = run_trial(
        ExperimentConfig(n=1_000_000, d=4, alpha=0.5, base_seed=ctx.seed), 0
    )
    secs = rec.runtime_ms / 1000.0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    passed = secs < 10.0 and peak_gb < 2.0
    return CriterionResult(
        14,
        "one n=1e6 trial: sample, delete, decompose",
        passed,
        [
            f"trial time {secs:.2f}s (need < 10)",
            f"process peak rss {peak_gb:.2f} GB (need < 2)",
            f"giant={rec.giant_size}, core={rec.two_core_size}",
        ],
        time.perf_counter() - t0,
    )


CRITERIA = [
    crit_01_sampler_uniformity,
    crit_02_pair_probability,
    crit_03_degree_census,
    crit_04_giant_and_trees,
    crit_05_bush_bound,
    crit_06_two_core,
    crit_07_regime_c_connectivity,
    crit_08_regime_b_isolation,
    crit_09_tightness_runs,
    crit_10_oracles,
    crit_11_deletion_uniformity,
    crit_12_reinstatement,
    crit_13_diameter,
    crit_14_performance,
]


def run_criteria(ids=None, ctx=None, stream=None) -> list:
    """Run the battery (all of it, or the listed 1-based ids)."""
    ctx = ctx or AcceptanceContext()
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        if ids is not None and i not in ids:
            continue
        res = fn(ctx)
        results.append(res)
        if stream is not None:
            print(res.line(), file=stream, flush=True)
    return results
