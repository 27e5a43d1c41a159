"""Reference computations the benchmark checks the program against.

Everything here works on a plain (m, 2) edge array over vertices 0..n-1,
loops as (v, v) counting 2 toward the degree, and shares no code with
perclab: the peel is round by round, components come from hooking and
pointer jumping, BFS walks a CSR this module builds itself.  The
statistical bands at the end give the range a correct program stays in
with probability at least 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Label every vertex with the smallest vertex of its component."""
    label = np.arange(n, dtype=np.int64)
    e = edges[edges[:, 0] != edges[:, 1]]
    u, v = e[:, 0], e[:, 1]
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return label
        # every label is a root here; hook the larger root under the smaller
        np.minimum.at(label, np.maximum(lu, lv)[cross], np.minimum(lu, lv)[cross])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@dataclass(frozen=True)
class Components:
    count: int
    giant: int


def components(n: int, edges: np.ndarray) -> Components:
    if n == 0:
        return Components(0, 0)
    sizes = np.bincount(component_labels(n, edges), minlength=n)
    return Components(int(np.count_nonzero(sizes)), int(sizes.max()))


@dataclass(frozen=True)
class Core:
    alive: np.ndarray  # vertex mask of the 2-core
    degree: np.ndarray  # degree inside the core, 0 outside it
    edges: np.ndarray  # the core's edges

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.alive))

    @property
    def kernel_size(self) -> int:
        return int(np.count_nonzero(self.degree >= 3))


def peel(n: int, edges: np.ndarray) -> Core:
    """2-core by rounds: drop every vertex of degree <= 1 at once, repeat."""
    alive = np.ones(n, dtype=bool)
    e = edges
    while True:
        deg = degrees(n, e)
        drop = alive & (deg <= 1)
        if not drop.any():
            return Core(alive, np.where(alive, deg, 0), e)
        alive &= ~drop
        e = e[alive[e[:, 0]] & alive[e[:, 1]]]


@dataclass(frozen=True)
class Runs:
    longest: int  # longest degree-2 run, a pure cycle of L vertices giving L-1
    cycles: int  # components of the core made of degree-2 vertices only
    longest_set: np.ndarray  # vertices of one longest run


def deg2_runs(n: int, core: Core) -> Runs:
    """Runs from the components of the core's degree-2 vertices.

    Such a component is a path (a chain between branch vertices, all of
    whose vertices are internal) or a cycle (a whole core component).
    """
    two = core.degree == 2
    if not two.any():
        return Runs(0, 0, np.zeros(0, dtype=np.int64))
    e = core.edges[two[core.edges[:, 0]] & two[core.edges[:, 1]]]
    label = component_labels(n, e)
    sizes = np.bincount(label[two], minlength=n)
    nedges = np.bincount(label[e[:, 0]], minlength=n)
    cyclic = (sizes > 0) & (nedges == sizes)
    run = np.where(cyclic, sizes - 1, sizes)
    best = int(np.argmax(run))
    members = np.flatnonzero(two & (label == best))
    if cyclic[best]:
        members = members[1:]
    return Runs(int(run[best]), int(np.count_nonzero(cyclic)), members)


def bfs_distances(n: int, edges: np.ndarray, source: int) -> np.ndarray:
    """Hop distance from source; -1 where unreachable."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    nbr = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    hop = 0
    while frontier.size:
        hop += 1
        starts, lens = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
        slots = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        reached = np.unique(nbr[slots])
        frontier = reached[dist[reached] < 0]
        dist[frontier] = hop
    return dist


def boundary_ratio(n: int, edges: np.ndarray, subset: np.ndarray) -> float:
    """|N(S) \\ S| / |S| for a nonempty vertex set S."""
    inside = np.zeros(n, dtype=bool)
    inside[subset] = True
    a, b = inside[edges[:, 0]], inside[edges[:, 1]]
    outside = np.concatenate([edges[a & ~b, 1], edges[b & ~a, 0]])
    return np.unique(outside).size / int(np.count_nonzero(inside))


def ball_ratios(n: int, edges: np.ndarray, dist: np.ndarray) -> list[float]:
    """Boundary ratio of every BFS ball of at most n/2 vertices."""
    out = []
    for radius in range(int(dist.max()) + 1):
        ball = np.flatnonzero((dist >= 0) & (dist <= radius))
        if ball.size > n // 2:
            break
        out.append(boundary_ratio(n, edges, ball))
    return out


def rayleigh_quotient(n: int, edges: np.ndarray, y: np.ndarray) -> float:
    """x'Lx / x'x for the normalized Laplacian L and x = D^{1/2} y, after
    shifting y so that x is orthogonal to D^{1/2} 1.  Loops drop out of
    x'Lx; parallel edges count with multiplicity.  By Courant-Fischer the
    result bounds lambda_2 from above."""
    deg = degrees(n, edges).astype(np.float64)
    y = y.astype(np.float64)
    y = y - (deg @ y) / deg.sum()
    diff = y[edges[:, 0]] - y[edges[:, 1]]
    return float(diff @ diff) / float(deg @ (y * y))


def probe_vector(n: int, edges: np.ndarray) -> np.ndarray:
    """A vector with a small Rayleigh quotient: the indicator of vertex 0's
    component when the graph is disconnected, else dist(a, .) - dist(b, .)
    for a far-apart pair a, b found by two BFS sweeps."""
    dist0 = bfs_distances(n, edges, 0)
    if (dist0 < 0).any():
        return (dist0 >= 0).astype(np.float64)
    a = int(np.argmax(dist0))
    dist_a = bfs_distances(n, edges, a)
    b = int(np.argmax(dist_a))
    return (dist_a - bfs_distances(n, edges, b)).astype(np.float64)


def pairing_defects(n: int, edges: np.ndarray) -> tuple[int, int, int]:
    """Loops; pairs of parallel non-loop edges (a k-fold edge gives C(k, 2));
    and the number of vertices that carry either."""
    loop = edges[:, 0] == edges[:, 1]
    e = np.sort(edges[~loop], axis=1)
    keys, mult = np.unique(e[:, 0] * n + e[:, 1], return_counts=True)
    multi = keys[mult > 1]
    marked = np.zeros(n, dtype=bool)
    marked[edges[loop, 0]] = True
    marked[multi // n] = True
    marked[multi % n] = True
    doubles = int((mult * (mult - 1) // 2).sum())
    return int(np.count_nonzero(loop)), doubles, int(np.count_nonzero(marked))


# ---------------------------------------------------------------------------
# bands: a correct program lands outside each with probability < delta


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def binomial_band(trials: int, p: float, delta: float) -> Band:
    return Band(stats.binom.ppf(delta / 2, trials, p), stats.binom.isf(delta / 2, trials, p))


def poisson_band(mean: float, delta: float) -> Band:
    return Band(stats.poisson.ppf(delta / 2, mean), stats.poisson.isf(delta / 2, mean))


def freedman_band(center: float, steps: int, step_bound: float, p: float, delta: float) -> Band:
    """Two-sided Freedman bound for a sum of functions of independent
    Bernoulli(p) draws, each draw moving the sum by at most step_bound."""
    var = steps * p * (1 - p) * step_bound**2
    log_term = math.log(2 / delta)
    half = step_bound * log_term / 3
    dev = half + math.sqrt(half * half + 2 * var * log_term)
    return Band(center - dev, center + dev)


def expected_loops(n: int, d: int) -> float:
    """Exact mean number of loops of a uniform pairing, n buckets of d points."""
    return n * math.comb(d, 2) / (d * n - 1)


def expected_doubles(n: int, d: int) -> float:
    """Exact mean number of pairs of parallel non-loop edges."""
    points = d * n
    return math.comb(n, 2) * 2 * math.comb(d, 2) ** 2 / ((points - 1) * (points - 3))


def lost_one_mean(n: int, d: int, p: float) -> float:
    """E N_{d-1} when every vertex has d distinct neighbours: it survives
    and exactly one neighbour is deleted."""
    return n * (1 - p) * d * p * (1 - p) ** (d - 1)
