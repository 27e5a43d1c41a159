"""Vertex deletion on configurations.

Buckets are deleted independently with probability p (usually n**-alpha).
Deleting a bucket removes every pair touching one of its points; the
survivors keep their relative order, so the surviving configuration uses
compacted labels 0..n-r-1 with an explicit map back to the originals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perclab.pairing import (
    Configuration,
    DegreeSequence,
    format_configuration,
    int64_array,
    parse_configuration,
)


@dataclass(frozen=True)
class DeletionParams:
    """Deletion rate, given either as alpha (p = n**-alpha) or explicit p."""

    n: int
    alpha: float | None = None
    p: float | None = None
    seed: object = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if (self.alpha is None) == (self.p is None):
            raise ValueError("give exactly one of alpha or p")
        if self.alpha is not None and not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        if self.p is not None and not (0 < self.p < 1):
            raise ValueError("p must lie in (0, 1)")

    @property
    def prob(self) -> float:
        if self.p is not None:
            return float(self.p)
        q = float(self.n) ** -self.alpha
        if not (0 < q < 1):
            raise ValueError(f"n**-alpha = {q} is not a probability; need n >= 2")
        return q


@dataclass(eq=False)
class PercolationOutcome:
    """Survivors of one deletion round.

    survivor labels are 0..n-r-1 in the order of the surviving original
    buckets; bucket_map[new] gives the original label.
    """

    original_n: int
    deleted: np.ndarray
    survivor: Configuration
    census: np.ndarray
    bucket_map: np.ndarray

    @property
    def r(self) -> int:
        return int(self.deleted.size)

    @property
    def n_survivors(self) -> int:
        return self.survivor.n


def choose_deletion_set(params: DeletionParams) -> np.ndarray:
    """Independent Bernoulli(p) per bucket; sorted array of deleted labels."""
    rng = np.random.default_rng(params.seed)
    return np.flatnonzero(rng.random(params.n) < params.prob).astype(np.int64)


def apply_deletion(config: Configuration, deleted) -> PercolationOutcome:
    """Remove buckets in ``deleted`` and every pair touching them.

    Surviving points whose partner died become unmatched and are dropped
    from the survivor's degree; the census N_0..N_d counts surviving
    buckets by their remaining degree (d = max original degree).
    """
    n = config.n
    deleted = np.unique(np.asarray(deleted, dtype=np.int64))
    if deleted.size and (deleted[0] < 0 or deleted[-1] >= n):
        raise ValueError("deleted label out of range")

    seq = config.seq
    dead_bucket = np.zeros(n, dtype=bool)
    dead_bucket[deleted] = True
    bop = seq.bucket_of_point

    # a pair survives iff both its buckets survive
    dead_point = dead_bucket[bop]
    pairs = config.pairs
    keep = ~(dead_point[pairs[:, 0]] | dead_point[pairs[:, 1]])
    kept = np.compress(keep, pairs, axis=0)
    cut_points = np.compress(~keep, pairs, axis=0).ravel()
    keep_point = ~dead_point
    keep_point[cut_points] = False

    keep_bucket = ~dead_bucket
    bucket_map = np.flatnonzero(keep_bucket)

    # each cut pair costs its buckets one degree per point
    lost = np.bincount(bop[cut_points], minlength=n)
    new_degrees = (seq.degrees - lost)[keep_bucket]

    d_max = int(seq.degrees.max()) if seq.n else 0
    census = np.bincount(new_degrees, minlength=d_max + 1).astype(np.int64)

    # relabel points in order, which keeps the pairs canonical
    new_id = np.cumsum(keep_point) - 1
    survivor = Configuration(DegreeSequence(new_degrees), new_id[kept])
    return PercolationOutcome(
        original_n=n,
        deleted=deleted,
        survivor=survivor,
        census=census,
        bucket_map=bucket_map,
    )


def percolate(config: Configuration, params: DeletionParams) -> PercolationOutcome:
    return apply_deletion(config, choose_deletion_set(params))


def reinstate(
    original: Configuration,
    outcome: PercolationOutcome,
    winners=None,
    q: float | None = None,
    seed=None,
) -> PercolationOutcome:
    """Undo the deletion of ``winners`` (a subset of the deleted buckets).

    When winners is None each deleted bucket independently stays deleted
    with probability q, so a first round at rate p1 followed by
    reinstatement composes to a single round at rate p1*q.  Reinstated
    buckets get back exactly the pairs whose other endpoint also lives.
    """
    if winners is None:
        if q is None or not (0 <= q <= 1):
            raise ValueError("need winners or a keep-deleted probability q in [0,1]")
        rng = np.random.default_rng(seed)
        stay = rng.random(outcome.r) < q
        winners = outcome.deleted[~stay]
    else:
        winners = np.unique(np.asarray(winners, dtype=np.int64))
        if np.setdiff1d(winners, outcome.deleted).size:
            raise ValueError("winners must be a subset of the deleted buckets")
    still_deleted = np.setdiff1d(outcome.deleted, winners)
    return apply_deletion(original, still_deleted)


# ---------------------------------------------------------------------------
# serialization: the survivor configuration text plus two trailing lines,
# "deleted: <original labels, 1-based>" and "census: N_0 .. N_d".


def format_outcome(outcome: PercolationOutcome) -> str:
    body = format_configuration(outcome.survivor)
    deleted = " ".join(str(int(x) + 1) for x in outcome.deleted)
    census = " ".join(str(int(c)) for c in outcome.census)
    return body + f"deleted: {deleted}\ncensus: {census}\n"


def parse_outcome(text: str) -> PercolationOutcome:
    lines = text.splitlines()
    deleted = None
    census = None
    body = []
    for ln in lines:
        s = ln.strip()
        if s.startswith("deleted:"):
            deleted = int64_array([int(x) - 1 for x in s[len("deleted:"):].split()])
        elif s.startswith("census:"):
            census = int64_array([int(x) for x in s[len("census:"):].split()])
        else:
            body.append(ln)
    if deleted is None or census is None:
        raise ValueError("outcome text lacks deleted:/census: lines")
    survivor = parse_configuration("\n".join(body))
    original_n = survivor.n + deleted.size
    if deleted.size and (deleted.min() < 0 or deleted.max() >= original_n):
        raise ValueError(f"deleted label out of range 1..{original_n}")
    if np.unique(deleted).size != deleted.size:
        raise ValueError("deleted label listed twice")
    # too short a census line yields a longer bincount, so it fails too
    expected = np.bincount(survivor.seq.degrees, minlength=max(census.size, 1))
    if not np.array_equal(census, expected):
        raise ValueError("census line does not match the survivor's degrees")
    keep = np.ones(original_n, dtype=bool)
    keep[deleted] = False
    return PercolationOutcome(
        original_n=original_n,
        deleted=deleted,
        survivor=survivor,
        census=census,
        bucket_map=np.flatnonzero(keep),
    )
