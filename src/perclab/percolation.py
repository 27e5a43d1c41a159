"""Vertex deletion on configurations and on their projections.

Buckets are deleted independently with probability p (usually n**-alpha).
Deleting a bucket removes every pair touching one of its points; the
survivors keep their relative order, so the surviving configuration uses
compacted labels 0..n-r-1: new label i is the i-th surviving original.
Because every pair touching a deleted bucket goes, deletion commutes with
projection: deleting the same vertices of ``project(config)`` gives
``project(apply_deletion(config, deleted).survivor)`` row for row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perclab.pairing import Configuration, DegreeSequence, Multigraph


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
        # 0 ** -alpha raises ZeroDivisionError, so n = 0 is refused first
        q = float(self.n) ** -self.alpha if self.n else 0.0
        if not (0 < q < 1):
            raise ValueError(f"n**-alpha = {q} is not a probability; need n >= 2")
        return q


@dataclass(eq=False)
class PercolationOutcome:
    """Survivors of one deletion round.

    survivor labels are 0..n-r-1 in the order of the surviving original
    buckets.
    """

    deleted: np.ndarray
    survivor: Configuration

    @property
    def r(self) -> int:
        return int(self.deleted.size)


def choose_deletion_set(params: DeletionParams) -> np.ndarray:
    """Independent Bernoulli(p) per bucket; sorted array of deleted labels."""
    rng = np.random.default_rng(params.seed)
    return np.flatnonzero(rng.random(params.n) < params.prob).astype(np.int64)


def delete_vertices(graph: Multigraph, deleted: np.ndarray) -> Multigraph:
    """The subgraph induced on the vertices not in ``deleted``, with the
    survivors relabelled 0..n-r-1 in their original order."""
    alive = np.ones(graph.n, dtype=bool)
    alive[deleted] = False
    return graph.induced(alive)[0]


def apply_deletion(config: Configuration, deleted) -> PercolationOutcome:
    """Remove buckets in ``deleted`` and every pair touching them.

    Surviving points whose partner died become unmatched and are dropped
    from the survivor's degree.
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

    # each cut pair costs its buckets one degree per point
    lost = np.bincount(bop[cut_points], minlength=n)
    new_degrees = (seq.degrees - lost)[~dead_bucket]

    # relabel surviving points in order: the kept rows match 0..t'-1
    new_id = np.cumsum(keep_point) - 1
    survivor = Configuration(DegreeSequence(new_degrees), new_id[kept])
    return PercolationOutcome(deleted=deleted, survivor=survivor)


def reinstate(
    original: Configuration, outcome: PercolationOutcome, q: float, seed=None
) -> PercolationOutcome:
    """Reinstate the deleted buckets of ``outcome``, each of which stays
    deleted independently with probability q, so that a first round at
    rate p1 followed by reinstatement composes to a single round at rate
    p1*q.  Reinstated buckets get back exactly the pairs whose other
    endpoint also lives.
    """
    if not (0 <= q <= 1):
        raise ValueError("need a keep-deleted probability q in [0,1]")
    stay = np.random.default_rng(seed).random(outcome.r) < q
    return apply_deletion(original, outcome.deleted[stay])
