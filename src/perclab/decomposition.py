"""Structural decomposition of a multigraph after percolation.

The 2-core is what remains after repeatedly peeling degree-0/1 vertices;
the peel is confluent, so the removal order is irrelevant to the result.
Edges fall apart into cyclic edges (exactly the 2-core's edges) and
acyclic edges; components of the acyclic part are bushes, each anchored
to the core in at most one root.  Suppressing the core's degree-2 chains
gives the kernel (minimum degree 3), except for pure cycle components,
which have no branch vertex and are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _scipy_components

from perclab.pairing import Multigraph


@dataclass(eq=False)
class TwoCore:
    """Peel result: vertex and edge masks into the parent graph."""

    parent: Multigraph
    alive: np.ndarray
    edge_mask: np.ndarray
    degrees: np.ndarray  # degree within the core; 0 for peeled vertices

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.alive))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.edge_mask))

    def census(self, d_max: int | None = None) -> np.ndarray:
        """N'_0..N'_d over core vertices (entries below 2 are always 0)."""
        if d_max is None:
            d_max = int(self.parent.degree.max()) if self.parent.n else 0
        counts = np.bincount(self.degrees[self.alive], minlength=d_max + 1)
        return counts.astype(np.int64)

    def subgraph(self) -> tuple[Multigraph, np.ndarray]:
        """(core as its own graph with compacted labels, original labels).

        When nothing was peeled the core is the parent itself, which is
        returned as is (with its cached degree and adjacency).
        """
        labels = np.flatnonzero(self.alive)
        if labels.size == self.parent.n:
            return self.parent, labels
        relabel = np.full(self.parent.n, -1, dtype=np.int64)
        relabel[labels] = np.arange(labels.size, dtype=np.int64)
        edges = relabel[self.parent.edges[self.edge_mask]]
        return Multigraph(labels.size, edges), labels


def two_core(g: Multigraph) -> TwoCore:
    """Peel vertices of degree <= 1 until min degree >= 2.

    The peel runs in rounds.  Each round removes the front, every live
    vertex of degree <= 1, together with its live edges, lowers the degree
    at the far end of each such edge, and takes as the next front the live
    ends whose degree fell to <= 1.  A round reads only the front's
    incidence slots, so the rounds together touch each slot once (the
    linear-time peel of Batagelj and Zaversnik, 2003), at a fixed cost of
    a few numpy calls per round.  The peel is confluent, so rounds give the
    same core as any one-vertex-at-a-time order.
    """
    n, m = g.n, g.m
    deg = g.degree.copy()
    alive_v = np.ones(n, dtype=bool)
    alive_e = np.ones(m, dtype=bool)

    front = np.flatnonzero(deg <= 1)
    if front.size:  # often empty after light deletion; then no CSR is built
        indptr, nbr, eid = g.adjacency()
    while front.size:
        alive_v[front] = False
        starts = indptr[front]
        counts = indptr[front + 1] - starts
        firsts = np.cumsum(counts) - counts
        slots = np.arange(firsts[-1] + counts[-1]) + np.repeat(starts - firsts, counts)
        slots = slots[alive_e[eid[slots]]]
        # an edge between two victims is listed from both sides; only the
        # victims' degrees are lowered twice, and those are zeroed below
        alive_e[eid[slots]] = False
        ends = nbr[slots]
        np.subtract.at(deg, ends, 1)
        # a live vertex reached from two victims must enter the front once
        front = np.unique(ends[alive_v[ends] & (deg[ends] <= 1)])

    deg[~alive_v] = 0
    return TwoCore(parent=g, alive=alive_v, edge_mask=alive_e, degrees=deg)


def two_core_bruteforce(g: Multigraph) -> np.ndarray:
    """Ground truth by subset enumeration: union of all vertex sets whose
    induced sub-multigraph has minimum degree >= 2.  Returns a bool mask.

    Loops count 2 toward induced degree and parallel edges count with
    multiplicity, matching the peel's bookkeeping.  n <= 16 only.
    """
    n = g.n
    if n > 16:
        raise ValueError("subset enumeration is for n <= 16")
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        if u == v:
            A[u, u] += 2
        else:
            A[u, v] += 1
            A[v, u] += 1
    member = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    induced = member @ A  # induced[s, v] = degree of v inside subset s
    ok = np.all((induced >= 2) | ~member, axis=1)
    if not ok.any():
        return np.zeros(n, dtype=bool)
    return member[ok].any(axis=0)


# ---------------------------------------------------------------------------
# kernel


@dataclass(eq=False)
class Kernel:
    """Branch vertices with degree-2 chains collapsed to weighted edges.

    graph.edges[i] spans labels[.] with internal[i] suppressed degree-2
    vertices in between; chains that close on themselves without meeting
    a branch vertex are pure cycles, listed in ``cycles`` (vertex arrays)
    and excluded from the kernel.
    """

    graph: Multigraph
    labels: np.ndarray
    internal: np.ndarray
    cycles: list[np.ndarray]

    @property
    def cycle_lengths(self) -> np.ndarray:
        return np.array([len(c) for c in self.cycles], dtype=np.int64)


def kernel(core: Multigraph) -> Kernel:
    """Suppress degree-2 chains of a graph with min degree >= 2.

    The degree-2 vertices split into components: a path is the interior
    of one chain and leaves through exactly two exit edges (edges with one
    branch endpoint), a component without exit edges is a pure cycle.
    Edges between two branch vertices are kernel edges with no interior.
    """
    n, m = core.n, core.m
    deg = core.degree
    if n and int(deg.min()) < 2:
        raise ValueError("kernel is defined for minimum degree >= 2 (peel first)")
    edges = core.edges
    branch = deg >= 3
    kverts = np.flatnonzero(branch)
    kidx = np.full(n, -1, dtype=np.int64)
    kidx[kverts] = np.arange(kverts.size, dtype=np.int64)

    b0, b1 = branch[edges[:, 0]], branch[edges[:, 1]]
    direct = edges[b0 & b1]

    # components of the graph on the degree-2 vertices alone
    chain_verts = np.flatnonzero(~branch)
    cidx = np.full(n, -1, dtype=np.int64)
    cidx[chain_verts] = np.arange(chain_verts.size, dtype=np.int64)
    inner = cidx[edges[~(b0 | b1)]]
    mat = csr_matrix(
        (np.ones(inner.shape[0], dtype=np.int8), (inner[:, 0], inner[:, 1])),
        shape=(chain_verts.size, chain_verts.size),
    )
    ncomp, comp = _scipy_components(mat, directed=False)
    sizes = np.bincount(comp, minlength=ncomp)

    # exit edges, (branch end, chain end); a stable sort on the chain's
    # component puts each chain's two exits side by side
    leaving = b0 ^ b1
    ex = np.where(b0[leaving][:, None], edges[leaving], edges[leaving][:, ::-1])
    ex_comp = comp[cidx[ex[:, 1]]]
    order = np.argsort(ex_comp, kind="stable")
    ends = ex[order, 0].reshape(-1, 2)
    chain_comp = ex_comp[order][0::2]

    kedge = np.concatenate([direct, ends])
    internal = np.concatenate([np.zeros(len(direct), dtype=np.int64), sizes[chain_comp]])

    is_cycle = np.ones(ncomp, dtype=bool)
    is_cycle[ex_comp] = False
    members = np.argsort(comp, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    cycles = [
        chain_verts[members[bounds[c] : bounds[c + 1]]] for c in np.flatnonzero(is_cycle)
    ]

    cyc_total = sum(len(c) for c in cycles)
    # conservation: every core vertex is a branch vertex, an internal chain
    # vertex, or on a pure cycle; ditto edges
    assert kverts.size + int(internal.sum()) + cyc_total == n
    assert kedge.shape[0] + int(internal.sum()) + cyc_total == m

    kgraph = Multigraph(kverts.size, kidx[kedge])
    return Kernel(graph=kgraph, labels=kverts, internal=internal, cycles=cycles)


class PathCount(NamedTuple):
    count: int
    cycle_flag: bool


@dataclass(frozen=True)
class Deg2Runs:
    """Maximal degree-2 runs of a 2-core: chain runs sit between branch
    vertices; a pure cycle of length L counts as a cyclic run of L-1."""

    chain_internal: np.ndarray  # internal vertices per kernel edge (0 allowed)
    cycle_lengths: np.ndarray

    @property
    def longest(self) -> int:
        best = 0
        if self.chain_internal.size:
            best = int(self.chain_internal.max())
        if self.cycle_lengths.size:
            best = max(best, int(self.cycle_lengths.max()) - 1)
        return best

    def count_at_least(self, k: int) -> PathCount:
        if k < 1:
            raise ValueError("run length must be >= 1")
        chains = int(np.count_nonzero(self.chain_internal >= k))
        cyc = int(np.count_nonzero(self.cycle_lengths - 1 >= k))
        return PathCount(chains + cyc, cyc > 0)


def deg2_runs(core: Multigraph) -> Deg2Runs:
    k = kernel(core)
    return Deg2Runs(chain_internal=k.internal, cycle_lengths=k.cycle_lengths)


def longest_deg2_run(core: Multigraph) -> int:
    return deg2_runs(core).longest


def count_deg2_paths(core: Multigraph, k: int) -> PathCount:
    return deg2_runs(core).count_at_least(k)


# ---------------------------------------------------------------------------
# bushes


@dataclass(eq=False)
class Bush:
    """One component of the acyclic part.  root is the unique 2-core vertex
    (None for free-standing trees, including isolated vertices)."""

    vertices: np.ndarray
    root: int | None

    @property
    def size(self) -> int:
        return int(self.vertices.size)


def bushes(g: Multigraph, core: TwoCore | None = None) -> list[Bush]:
    """Components of the graph minus the cyclic (2-core) edges, skipping
    the trivial singletons that are bare core vertices."""
    if core is None:
        core = two_core(g)
    acyclic = g.edges[~core.edge_mask]
    relevant = ~core.alive
    relevant[acyclic.ravel()] = True
    verts = np.flatnonzero(relevant)
    if verts.size == 0:
        return []
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[verts] = np.arange(verts.size, dtype=np.int64)
    sub = relabel[acyclic]
    mat = csr_matrix(
        (np.ones(sub.shape[0], dtype=np.int8), (sub[:, 0], sub[:, 1])),
        shape=(verts.size, verts.size),
    )
    ncomp, labels = _scipy_components(mat, directed=False)
    out = []
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(ncomp + 1))
    for c in range(ncomp):
        members = verts[order[bounds[c] : bounds[c + 1]]]
        roots = members[core.alive[members]]
        if roots.size > 1:
            raise AssertionError("a bush met the core in more than one vertex")
        out.append(Bush(vertices=members, root=int(roots[0]) if roots.size else None))
    return out


# ---------------------------------------------------------------------------
# connected components and their kinds


@dataclass(eq=False)
class ComponentReport:
    n_components: int
    labels: np.ndarray
    sizes: np.ndarray
    giant_label: int | None
    giant_size: int
    tree_comps: list[np.ndarray]  # non-giant tree components
    cycle_comps: list[np.ndarray]  # non-giant cycle components
    other_comps: list[np.ndarray]  # anything else non-giant
    K: int | None = None

    @property
    def connected(self) -> bool:
        return self.n_components <= 1

    @property
    def max_isolated_tree_size(self) -> int:
        return max((len(c) for c in self.tree_comps), default=0)

    @property
    def isolated_cycle_count(self) -> int:
        return len(self.cycle_comps)

    @property
    def other_count(self) -> int:
        return len(self.other_comps)

    @property
    def all_trees_within_K(self) -> bool | None:
        if self.K is None:
            return None
        return (
            self.max_isolated_tree_size <= self.K
            and self.isolated_cycle_count == 0
            and self.other_count == 0
        )


def classify_components(g: Multigraph, K: int | None = None) -> ComponentReport:
    """Split off the giant component and classify the rest.

    Ties for the largest component go to the one containing the smallest
    vertex label.  A non-giant component is a tree when its edge count is
    size-1, a cycle when edges == size and every degree is 2, else other.
    """
    n = g.n
    if n == 0:
        return ComponentReport(
            0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            None, 0, [], [], [], K,
        )
    mat = csr_matrix(
        (np.ones(g.m, dtype=np.int8), (g.edges[:, 0], g.edges[:, 1])),
        shape=(n, n),
    )
    ncomp, labels = _scipy_components(mat, directed=False)
    sizes = np.bincount(labels, minlength=ncomp).astype(np.int64)
    giant_size = int(sizes.max())
    # first vertex living in a maximum-size component decides the tie
    giant_label = int(labels[np.flatnonzero(sizes[labels] == giant_size)[0]])

    edge_counts = np.bincount(labels[g.edges[:, 0]], minlength=ncomp)
    deg = g.degree
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(ncomp + 1))

    trees, cycles, others = [], [], []
    for c in range(ncomp):
        if c == giant_label:
            continue
        members = order[bounds[c] : bounds[c + 1]]
        s, e = sizes[c], int(edge_counts[c])
        if e == s - 1:
            trees.append(members)
        elif e == s and bool(np.all(deg[members] == 2)):
            cycles.append(members)
        else:
            others.append(members)
    return ComponentReport(
        n_components=int(ncomp),
        labels=labels.astype(np.int64),
        sizes=sizes,
        giant_label=giant_label,
        giant_size=giant_size,
        tree_comps=trees,
        cycle_comps=cycles,
        other_comps=others,
        K=K,
    )


# ---------------------------------------------------------------------------
# everything at once


@dataclass(eq=False)
class Decomposition:
    graph: Multigraph
    core: TwoCore
    core_graph: Multigraph
    core_labels: np.ndarray
    kernel: Kernel
    bushes: list[Bush]
    components: ComponentReport
    runs: Deg2Runs
    K: int | None = None

    @property
    def two_core_size(self) -> int:
        return self.core.size

    @property
    def kernel_size(self) -> int:
        return self.kernel.graph.n

    @property
    def core_census(self) -> np.ndarray:
        return self.core.census()

    @property
    def longest_deg2_run(self) -> int:
        return self.runs.longest

    @property
    def core_cycles(self) -> list[np.ndarray]:
        """Pure-cycle components of the 2-core, in parent labels."""
        return [self.core_labels[c] for c in self.kernel.cycles]

    @property
    def max_bush_size(self) -> int:
        return max((b.size for b in self.bushes), default=0)

    def report(self) -> dict:
        comp = self.components
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "two_core_size": self.two_core_size,
            "kernel_size": self.kernel_size,
            "core_census": self.core_census.tolist(),
            "bushes": [
                {
                    "vertices": (b.vertices + 1).tolist(),
                    "root": None if b.root is None else int(b.root) + 1,
                }
                for b in self.bushes
            ],
            "isolated_trees": [(c + 1).tolist() for c in comp.tree_comps],
            "isolated_cycles": [(c + 1).tolist() for c in comp.cycle_comps],
            "core_cycles": [(c + 1).tolist() for c in self.core_cycles],
            "giant_size": comp.giant_size,
            "longest_deg2_run": self.longest_deg2_run,
            "connected": comp.connected,
        }


def decompose(g: Multigraph, K: int | None = None) -> Decomposition:
    core = two_core(g)
    core_g, core_labels = core.subgraph()
    kern = kernel(core_g)
    runs = Deg2Runs(chain_internal=kern.internal, cycle_lengths=kern.cycle_lengths)
    return Decomposition(
        graph=g,
        core=core,
        core_graph=core_g,
        core_labels=core_labels,
        kernel=kern,
        bushes=bushes(g, core),
        components=classify_components(g, K),
        runs=runs,
        K=K,
    )
