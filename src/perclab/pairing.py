"""Configuration (pairing) model over buckets of labelled points.

A degree sequence d_1..d_n assigns d_i labelled points to bucket i.  A
configuration is a perfect matching ("pairing") of all the points, drawn
uniformly at random.  Collapsing each bucket to a vertex projects the
pairing onto a multigraph, which may carry loops and parallel edges.
Conditioning on the projection being simple recovers the uniform simple
d-regular graph, at the price of rejection sampling.

Points are indexed globally: bucket b owns the contiguous block
offsets[b] .. offsets[b+1]-1.  Externally (text files) buckets and the
points inside them are 1-based; everything in memory is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix

DEFAULT_RETRY_CAP = 10_000


class InvalidDegreeSequenceError(ValueError):
    """Degree sequence cannot support a pairing (odd point total etc.)."""


class SamplingFailureError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


# ---------------------------------------------------------------------------
# basic types


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """Validated degree sequence; the bucket/point layout lives here."""

    degrees: np.ndarray

    def __post_init__(self):
        deg = np.asarray(self.degrees, dtype=np.int64)
        if deg.ndim != 1:
            raise InvalidDegreeSequenceError("degree sequence must be 1-d")
        if deg.size and deg.min() < 0:
            raise InvalidDegreeSequenceError("negative degree")
        if int(deg.sum()) % 2 != 0:
            raise InvalidDegreeSequenceError(
                "sum of degrees is odd, no perfect matching of points exists"
            )
        object.__setattr__(self, "degrees", deg)
        offsets = np.zeros(deg.size + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])
        object.__setattr__(self, "offsets", offsets)

    offsets: np.ndarray = field(init=False, repr=False)

    @classmethod
    def regular(cls, n: int, d: int) -> "DegreeSequence":
        if n < 0 or d < 0:
            raise InvalidDegreeSequenceError("n and d must be nonnegative")
        return cls(np.full(n, d, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.degrees.size)

    @property
    def total_points(self) -> int:
        return int(self.offsets[-1])

    @property
    def m(self) -> int:
        return self.total_points // 2

    @property
    def bucket_of_point(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def __eq__(self, other):
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return np.array_equal(self.degrees, other.degrees)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class Configuration:
    """A degree sequence plus a perfect matching of its points.

    ``pairs`` is an (m, 2) array of global point ids in canonical form:
    u < v in each row, rows in increasing u, and every point in exactly
    one row.
    """

    seq: DegreeSequence
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        object.__setattr__(self, "pairs", pairs)
        m, t = self.seq.m, self.seq.total_points
        if pairs.shape != (m, 2):
            raise ValueError(f"pairs array has shape {pairs.shape}, expected ({m}, 2)")
        if m == 0:
            return
        if pairs.min() < 0 or pairs.max() >= t:
            raise ValueError(f"point id out of range 0..{t - 1}")
        u, v = pairs[:, 0], pairs[:, 1]
        if np.any(u >= v) or np.any(u[1:] <= u[:-1]):
            raise ValueError("pairs are not in canonical order (u < v, rows by increasing u)")
        if np.any(np.bincount(pairs.ravel(), minlength=t) != 1):
            raise ValueError("a point is matched more than once")

    @property
    def n(self) -> int:
        return self.seq.n

    @property
    def m(self) -> int:
        return self.seq.m

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.seq == other.seq and np.array_equal(self.pairs, other.pairs)


@dataclass(eq=False)
class Multigraph:
    """Projection of a configuration: loops and parallel edges allowed.

    ``edges`` is an (m, 2) array of vertex labels; a loop is a row (v, v).
    Loops contribute 2 to the degree of their vertex.
    """

    n: int
    edges: np.ndarray

    _degree: np.ndarray | None = field(default=None, init=False, repr=False)
    _adj: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} is negative")
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        self.edges = e

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degree(self) -> np.ndarray:
        if self._degree is None:
            d = np.bincount(self.edges[:, 0], minlength=self.n)
            d += np.bincount(self.edges[:, 1], minlength=self.n)
            self._degree = d.astype(np.int64)
        return self._degree

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style incidence: (indptr, neighbors, edge_ids).

        Every non-loop edge appears once from each endpoint; a loop (v, v)
        appears twice in v's slice, matching its degree contribution.
        """
        if self._adj is None:
            src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            eid = np.tile(np.arange(self.m, dtype=np.int64), 2)
            indptr, order = counting_sort(src, self.n)
            self._adj = (indptr, dst[order], eid[order])
        return self._adj

    def neighbor_sets(self) -> list[set[int]]:
        """Distinct neighbors, loops ignored.  Small graphs only."""
        out = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                out[int(u)].add(int(v))
                out[int(v)].add(int(u))
        return out

    def induced(self, keep: np.ndarray) -> tuple["Multigraph", np.ndarray]:
        """Subgraph on ``keep`` (bool mask or label array), labels compacted.

        Returns the subgraph and the array of original labels, so that new
        label i corresponds to original label labels[i] (order preserving).
        """
        keep = np.asarray(keep)
        if keep.dtype != bool:
            mask = np.zeros(self.n, dtype=bool)
            mask[keep] = True
        else:
            mask = keep
        labels = np.flatnonzero(mask)
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[labels] = np.arange(labels.size, dtype=np.int64)
        e = self.edges
        sel = mask[e[:, 0]] & mask[e[:, 1]]
        return Multigraph(labels.size, relabel[np.compress(sel, e, axis=0)]), labels

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            canonical_edges(self.edges), canonical_edges(other.edges)
        )


def counting_sort(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, order): a stable sort of ``keys``, values in 0..n-1, by
    counting; key k's positions are order[indptr[k]:indptr[k+1]], in
    increasing order.  That is the CSR of the n x len(keys) slot matrix,
    which scipy fills in linear time, where argsort is several times slower
    on unordered keys."""
    slot = np.arange(keys.size, dtype=np.int64)
    by_key = csr_matrix((np.ones(keys.size, dtype=np.int8), (keys, slot)), shape=(n, keys.size))
    return by_key.indptr.astype(np.int64), by_key.indices


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort endpoints within rows, then rows lexicographically."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = np.sort(e, axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))
    return e[order]


def is_simple(g: Multigraph) -> bool:
    """No loops, no parallel edges."""
    e = g.edges
    if e.size == 0:
        return True
    if np.any(e[:, 0] == e[:, 1]):
        return False
    ce = canonical_edges(e)
    return not np.any(np.all(ce[1:] == ce[:-1], axis=1))


# ---------------------------------------------------------------------------
# uniform pairing sampler
#
# Lay the 2m points out in a uniformly random order and pair them off two
# at a time.  Each of the (2m-1)!! pairings arises from exactly
# 2^m * m! of the (2m)! orders, so each comes out with probability
# 1/(2m-1)!!, i.e. uniformly (the configuration model of Bollobas 1980).


def sample_configuration(seq: DegreeSequence, seed=None) -> Configuration:
    """Uniform pairing of the points of ``seq``.

    ``seed`` may be an int, None, or a numpy Generator (consumed in place,
    which is how multi-stage pipelines stay on one stream).
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(seq.total_points)
    # file each pair under its smaller point; partner is nonzero exactly
    # there, since a larger point is at least 1
    partner = np.zeros(seq.total_points, dtype=np.int64)
    partner[np.minimum(perm[0::2], perm[1::2])] = np.maximum(perm[0::2], perm[1::2])
    first = np.flatnonzero(partner)
    pairs = np.empty((first.size, 2), dtype=np.int64)
    pairs[:, 0] = first
    pairs[:, 1] = partner[first]
    return Configuration(seq, pairs)


def project(config: Configuration) -> Multigraph:
    """Collapse buckets to vertices; keeps multiplicities and loops."""
    return Multigraph(config.n, config.seq.bucket_of_point[config.pairs])


def sample_simple_regular(
    n: int, d: int, seed=None, retry_cap: int = DEFAULT_RETRY_CAP
):
    """Uniform simple d-regular graph by rejection on the pairing model.

    Returns (configuration, graph, rejections).  Conditioned on simplicity
    the projection is uniform over simple d-regular graphs, so rejection
    is exact.  Raises SamplingFailureError after ``retry_cap`` rejections
    (e.g. n=2, d=3, where no simple realization exists).
    """
    seq = DegreeSequence.regular(n, d)
    rng = np.random.default_rng(seed)
    for attempt in range(retry_cap):
        config = sample_configuration(seq, rng)
        graph = project(config)
        if is_simple(graph):
            return config, graph, attempt
    raise SamplingFailureError(
        f"no simple {d}-regular graph on {n} vertices after {retry_cap} attempts"
    )


# ---------------------------------------------------------------------------
# exact pairing probabilities and enumeration (small-m ground truth)


def pair_probability(m: int, k: int) -> float:
    """P(k disjoint prescribed pairs all occur) in a uniform pairing of 2m points.

    Exact value: prod_{i<k} 1/(2m-1-2i).
    """
    if not (0 <= k <= m):
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    out = 1.0
    for i in range(k):
        out /= 2 * m - 1 - 2 * i
    return out


def matching_key(pairs: np.ndarray) -> tuple:
    """Hashable form of canonical pairs, comparable with
    enumerate_matchings' keys."""
    return tuple(map(tuple, np.asarray(pairs).tolist()))


def enumerate_matchings(total_points: int) -> list[tuple]:
    """All (2m-1)!! perfect matchings of 0..total_points-1, canonical keys."""
    if total_points % 2 != 0:
        raise InvalidDegreeSequenceError("odd number of points")

    def rec(free: tuple) -> Iterable[tuple]:
        if not free:
            yield ()
            return
        p = free[0]
        for j in range(1, len(free)):
            q = free[j]
            rest = free[1:j] + free[j + 1 :]
            for tail in rec(rest):
                yield ((p, q),) + tail

    return list(rec(tuple(range(total_points))))


# ---------------------------------------------------------------------------
# plain-text serialization
#
# configuration format:   header "n d_1 ... d_n", then one line per pair
# "b1 p1 b2 p2" (bucket and within-bucket point, both 1-based), pairs in
# canonical order.  multigraph format: one line "u v" per edge, 1-based,
# loops as "v v".


def format_configuration(config: Configuration) -> str:
    seq = config.seq
    lines = [" ".join(["%d" % seq.n] + ["%d" % d for d in seq.degrees])]
    bop = seq.bucket_of_point
    off = seq.offsets
    for u, v in config.pairs:
        bu, bv = bop[u], bop[v]
        lines.append(
            "%d %d %d %d" % (bu + 1, u - off[bu] + 1, bv + 1, v - off[bv] + 1)
        )
    return "\n".join(lines) + "\n"


def int64_array(values: list) -> np.ndarray:
    """Parsed integers as an int64 array; one outside int64 is a ValueError."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("integer outside the int64 range") from None


def parse_configuration(text: str) -> Configuration:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty configuration text")
    n, *degrees = (int(x) for x in lines[0].split())
    if len(degrees) != n:
        raise ValueError(f"header says n={n} but lists {len(degrees)} degrees")
    body = lines[1:]
    # summed as Python ints, before the header sizes any array
    if sum(degrees) != 2 * len(body):
        raise ValueError(
            f"the degrees sum to {sum(degrees)}, but {len(body)} pair lines hold {2 * len(body)} points"
        )
    seq = DegreeSequence(int64_array(degrees))
    used = np.zeros(seq.total_points, dtype=bool)
    pairs = []
    for ln in body:
        b1, p1, b2, p2 = (int(x) for x in ln.split())
        if not (1 <= b1 <= n and 1 <= b2 <= n):
            raise ValueError(f"bucket label out of range 1..{n}: {ln!r}")
        if not (1 <= p1 <= degrees[b1 - 1] and 1 <= p2 <= degrees[b2 - 1]):
            raise ValueError(f"point out of bucket range: {ln!r}")
        u = seq.offsets[b1 - 1] + (p1 - 1)
        v = seq.offsets[b2 - 1] + (p2 - 1)
        if used[u] or used[v] or u == v:
            raise ValueError(f"point matched twice: {ln!r}")
        used[u] = used[v] = True
        pairs.append((u, v))
    return Configuration(seq, canonical_edges(np.array(pairs, dtype=np.int64)))


def format_multigraph(g: Multigraph) -> str:
    lines = ["%d %d" % (u + 1, v + 1) for u, v in canonical_edges(g.edges)]
    return "\n".join(["%d" % g.n] + lines) + "\n"


def parse_multigraph(text: str) -> Multigraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty multigraph text")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        u, v = (int(x) for x in ln.split())
        edges.append((u - 1, v - 1))
    return Multigraph(n, int64_array(edges))
