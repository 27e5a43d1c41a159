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
MAX_VERTICES = 2**31 - 1  # the int32 label bound


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
    def bucket_of_point(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def __eq__(self, other):
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return np.array_equal(self.degrees, other.degrees)


@dataclass(frozen=True, eq=False)
class Configuration:
    """A degree sequence plus a perfect matching of its points.

    ``pairs`` is an (m, 2) array of global point ids in canonical form:
    u < v in each row, rows in increasing u, and every point in exactly
    one row.  The constructor trusts its caller: the sampler and
    ``apply_deletion`` build this form, and ``parse_configuration`` checks
    text before it gets here.
    """

    seq: DegreeSequence
    pairs: np.ndarray

    @property
    def n(self) -> int:
        return self.seq.n

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.seq == other.seq and np.array_equal(self.pairs, other.pairs)


@dataclass(eq=False)
class Multigraph:
    """Projection of a configuration: loops and parallel edges allowed.

    ``edges`` is an (m, 2) array of vertex labels in 0..n-1; a loop is a
    row (v, v).  Loops contribute 2 to the degree of their vertex.  As with
    ``Configuration``, only the parser checks the labels.
    """

    n: int
    edges: np.ndarray

    _degree: np.ndarray | None = field(default=None, init=False, repr=False)
    _adj: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degree(self) -> np.ndarray:
        if self._degree is None:
            d = np.bincount(self.edges.ravel(), minlength=self.n)
            self._degree = d.astype(np.int64, copy=False)
        return self._degree

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style incidence: (indptr, neighbors, edge_ids).

        Every non-loop edge appears once from each endpoint; a loop (v, v)
        appears twice in v's slice, matching its degree contribution.
        Slot i < m is edge i seen from its first end, slot m + i from its
        second.  The slots are sorted stably by their source vertex by
        counting: that is the CSR of the n x 2m slot matrix, which scipy
        fills in linear time, where argsort is several times slower on
        unordered keys.
        """
        if self._adj is None:
            src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            slot = np.arange(src.size, dtype=np.int64)
            by_src = csr_matrix(
                (np.ones(src.size, dtype=np.int8), (src, slot)), shape=(self.n, src.size)
            )
            order = by_src.indices
            eid = np.remainder(order, self.m, dtype=np.int64)
            self._adj = (by_src.indptr.astype(np.int64), dst[order], eid)
        return self._adj

    def induced(self, mask: np.ndarray) -> tuple["Multigraph", np.ndarray]:
        """Subgraph on the vertices of the bool ``mask``, labels compacted.

        Returns the subgraph and the array of original labels, so that new
        label i corresponds to original label labels[i] (order preserving).
        """
        labels = np.flatnonzero(mask)
        e = self.edges
        # a row's two end flags read as one uint16, 0x0101 when both ends
        # are kept; one gather over the contiguous edge list
        sel = np.take(mask, e).view(np.uint16)[:, 0] == 0x0101
        relabel = np.cumsum(mask)
        relabel -= 1  # in place: a second n-long array here raised the peak RSS
        return Multigraph(labels.size, np.take(relabel, np.compress(sel, e, axis=0))), labels

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            canonical_edges(self.edges), canonical_edges(other.edges)
        )


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
    return Configuration(seq, pair_off(rng.permutation(seq.total_points)))


def pair_off(order: np.ndarray) -> np.ndarray:
    """Canonical pairs of the points order[0], order[1] | order[2],
    order[3] | ..., for ``order`` a permutation of 0..t-1 with t even."""
    # file each pair under its smaller point; partner is nonzero exactly
    # there, since a larger point is at least 1
    partner = np.zeros(order.size, dtype=np.int64)
    partner[np.minimum(order[0::2], order[1::2])] = np.maximum(order[0::2], order[1::2])
    first = np.flatnonzero(partner)
    pairs = np.empty((first.size, 2), dtype=np.int64)
    pairs[:, 0] = first
    pairs[:, 1] = partner[first]
    return pairs


def project(config: Configuration) -> Multigraph:
    """Collapse buckets to vertices; keeps multiplicities and loops.

    When every bucket holds d > 0 points, point p lies in bucket p // d,
    which a division gives without the point-to-bucket table."""
    deg = config.seq.degrees
    d = int(deg[0]) if deg.size else 0
    if d > 0 and np.all(deg == d):
        return Multigraph(config.n, config.pairs // d)
    return Multigraph(config.n, np.take(config.seq.bucket_of_point, config.pairs))


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


def content_lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are neither blank nor # comments."""
    lines = (ln.strip() for ln in text.splitlines())
    return [ln for ln in lines if ln and not ln.startswith("#")]


def int64_array(values: list) -> np.ndarray:
    """Parsed integers as an int64 array; one outside int64 is a ValueError."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("integer outside the int64 range") from None


def parse_configuration(text: str) -> Configuration:
    lines = content_lines(text)
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
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty multigraph text")
    n = int(lines[0])
    # component labels are int32 (decomposition._components), and every
    # stage sizes arrays by n, so refuse the count before anything does
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count n={n} outside 0..{MAX_VERTICES}")
    edges = []
    for ln in lines[1:]:
        u, v = (int(x) for x in ln.split())
        edges.append((u - 1, v - 1))
    e = int64_array(edges)
    if e.size and (e.min() < 0 or e.max() >= n):
        raise ValueError("edge endpoint out of range")
    return Multigraph(n, e)
