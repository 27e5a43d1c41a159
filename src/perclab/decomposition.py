"""Structural decomposition of a multigraph after percolation.

The 2-core is what remains after repeatedly peeling degree-0/1 vertices;
the peel is confluent, so the removal order is irrelevant to the result.
Edges fall apart into cyclic edges (exactly the 2-core's edges) and
acyclic edges; components of the acyclic part are bushes, each anchored
to the core in at most one root.  Suppressing the core's degree-2 chains
gives the kernel (minimum degree 3), except for pure cycle components,
which have no branch vertex and are reported separately.

Bushes and connected components come back as labellings (one label per
vertex, one size per label); member lists are built only on request.
Rows of an edge list are selected with np.compress, which copies them
several times faster than boolean indexing does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here builds a CSR.  The name stays importable because the
# benchmark's tracer (perfbench/worker.py) counts calls of it, and so
# reads decomposition.csr_builds = 0.
from scipy.sparse import csr_matrix  # noqa: F401

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
        edges = relabel[np.compress(self.edge_mask, self.parent.edges, axis=0)]
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
# component labelling


def _components(n: int, edges: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, label per vertex, size per label) of the graph on 0..n-1
    with the given edge list, in any row order; loops and parallel edges
    are allowed.  Components are numbered in the order of their smallest
    vertices and labels are int32 (n < 2^31), both as scipy.sparse.csgraph
    labels them, which the tests use as the oracle.

    A union-find in rounds, after Shiloach and Vishkin (1982): every live
    edge joins two roots, and the larger root is hooked onto the smallest
    root it is joined to; then the trees are compressed to their roots by
    pointer jumping, each edge is carried to its ends' roots, and the
    edges inside one tree drop out.  A vertex only ever points at a
    smaller one, so each root is the smallest vertex of its tree.
    Everything is int32 to keep the working set small at n = 10^6.
    """
    f = np.arange(n, dtype=np.int32)
    jumped = np.empty_like(f)
    lo = edges[:, 0].astype(np.int32)
    hi = edges[:, 1].astype(np.int32)
    while lo.size:
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi, out=hi)
        np.minimum.at(f, hi, lo)
        while True:
            np.take(f, f, out=jumped, mode="clip")
            if np.array_equal(jumped, f):
                break
            f, jumped = jumped, f
        np.take(f, lo, out=lo, mode="clip")
        np.take(f, hi, out=hi, mode="clip")
        live = lo != hi
        lo, hi = np.compress(live, lo), np.compress(live, hi)
    root_rank = np.cumsum(f == np.arange(n, dtype=np.int32), dtype=np.int32) - 1
    labels = root_rank[f]
    ncomp = int(root_rank[-1]) + 1 if n else 0
    return ncomp, labels, np.bincount(labels, minlength=ncomp)


def _members(labels: np.ndarray, sizes: np.ndarray, which: np.ndarray) -> list[np.ndarray]:
    """The vertices of each component in which (increasing labels), each
    in increasing order.  Only those components' vertices are sorted, and
    a label of -1 (no component) is never picked."""
    if len(which) == 0:
        return []
    picked = np.flatnonzero(np.isin(labels, which))
    picked = picked[np.argsort(labels[picked], kind="stable")]
    return np.split(picked, np.cumsum(sizes[which])[:-1])


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

    @property
    def longest_run(self) -> int:
        """Longest maximal degree-2 run: a chain's internal vertices, or
        L-1 for a pure cycle of length L."""
        return max(int(self.internal.max(initial=0)), int(self.cycle_lengths.max(initial=1)) - 1)

    def runs_at_least(self, k: int) -> int:
        """Number of maximal degree-2 runs of length >= k, counted as in
        longest_run."""
        if k < 1:
            raise ValueError("run length must be >= 1")
        return int(np.count_nonzero(self.internal >= k) + np.count_nonzero(self.cycle_lengths > k))


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
    direct = b0 & b1
    nd = int(np.count_nonzero(direct))

    # components of the graph on the degree-2 vertices alone
    chain_verts = np.flatnonzero(~branch)
    cidx = np.full(n, -1, dtype=np.int64)
    cidx[chain_verts] = np.arange(chain_verts.size, dtype=np.int64)
    chain_edges = np.compress(~(b0 | b1), edges, axis=0)
    ncomp, comp, sizes = _components(chain_verts.size, cidx[chain_edges])

    # exit edges, (branch end, chain end); a stable sort on the chain's
    # component puts each chain's two exits side by side
    leaving = b0 ^ b1
    exits = np.compress(leaving, edges, axis=0)
    ex = np.where(b0[leaving][:, None], exits, exits[:, ::-1])
    ex_comp = comp[cidx[ex[:, 1]]]
    order = np.argsort(ex_comp, kind="stable")
    ends = ex[order, 0].reshape(-1, 2)
    chain_comp = ex_comp[order][0::2]

    # one allocation: direct edges, then one edge per chain, relabelled in
    # place (take's "raise" mode buffers a copy; no index here is clipped)
    kedge = np.empty((nd + len(ends), 2), dtype=np.int64)
    np.take(edges, np.flatnonzero(direct), axis=0, out=kedge[:nd], mode="clip")
    kedge[nd:] = ends
    np.take(kidx, kedge, out=kedge, mode="clip")
    internal = np.zeros(len(kedge), dtype=np.int64)
    internal[nd:] = sizes[chain_comp]

    is_cycle = np.ones(ncomp, dtype=bool)
    is_cycle[ex_comp] = False
    cycles = [chain_verts[c] for c in _members(comp, sizes, np.flatnonzero(is_cycle))]

    cyc_total = int(sizes[is_cycle].sum())
    # conservation: every core vertex is a branch vertex, an internal chain
    # vertex, or on a pure cycle; ditto edges
    assert kverts.size + int(internal.sum()) + cyc_total == n
    assert kedge.shape[0] + int(internal.sum()) + cyc_total == m

    kgraph = Multigraph(kverts.size, kedge)
    return Kernel(graph=kgraph, labels=kverts, internal=internal, cycles=cycles)


# ---------------------------------------------------------------------------
# bushes


@dataclass(eq=False)
class Bushes:
    """Components of the acyclic part, as a labelling of the parent graph.

    labels[v] is v's bush, or -1 for a core vertex that no acyclic edge
    touches; roots[b] is bush b's one 2-core vertex, or -1 for a
    free-standing tree (isolated vertices included).
    """

    labels: np.ndarray
    sizes: np.ndarray
    roots: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def max_size(self) -> int:
        return int(self.sizes.max(initial=0))

    def vertices(self) -> list[np.ndarray]:
        """Each bush's vertices in increasing order, bush by bush."""
        return _members(self.labels, self.sizes, np.arange(len(self)))


def bushes(g: Multigraph, core: TwoCore | None = None) -> Bushes:
    """Components of the graph minus the cyclic (2-core) edges, skipping
    the trivial singletons that are bare core vertices."""
    if core is None:
        core = two_core(g)
    acyclic = np.compress(~core.edge_mask, g.edges, axis=0)
    in_bush = ~core.alive
    in_bush[acyclic.ravel()] = True
    verts = np.flatnonzero(in_bush)
    labels = np.full(g.n, -1, dtype=np.int64)
    if verts.size == 0:
        none = np.zeros(0, dtype=np.int64)
        return Bushes(labels=labels, sizes=none, roots=none)
    # labels first holds the compact index of each bush vertex
    labels[verts] = np.arange(verts.size, dtype=np.int64)
    ncomp, comp, sizes = _components(verts.size, labels[acyclic])
    labels[verts] = comp

    on_core = core.alive[verts]
    if np.any(np.bincount(comp[on_core], minlength=ncomp) > 1):
        raise AssertionError("a bush met the core in more than one vertex")
    roots = np.full(ncomp, -1, dtype=np.int64)
    roots[comp[on_core]] = verts[on_core]
    return Bushes(labels=labels, sizes=sizes, roots=roots)


# ---------------------------------------------------------------------------
# connected components and their kinds

GIANT, TREE, CYCLE, OTHER = range(4)


@dataclass(eq=False)
class ComponentReport:
    """labels[v] is v's component; kinds[c] is GIANT for the giant and
    TREE, CYCLE or OTHER for every other component."""

    n_components: int
    labels: np.ndarray
    sizes: np.ndarray
    kinds: np.ndarray
    giant_label: int | None
    giant_size: int

    @property
    def connected(self) -> bool:
        return self.n_components <= 1

    def _of_kind(self, kind: int) -> list[np.ndarray]:
        return _members(self.labels, self.sizes, np.flatnonzero(self.kinds == kind))

    @property
    def tree_comps(self) -> list[np.ndarray]:
        return self._of_kind(TREE)

    @property
    def cycle_comps(self) -> list[np.ndarray]:
        return self._of_kind(CYCLE)

    @property
    def other_comps(self) -> list[np.ndarray]:
        return self._of_kind(OTHER)

    @property
    def max_isolated_tree_size(self) -> int:
        return int(self.sizes[self.kinds == TREE].max(initial=0))

    @property
    def isolated_cycle_count(self) -> int:
        return int(np.count_nonzero(self.kinds == CYCLE))

    @property
    def other_count(self) -> int:
        return int(np.count_nonzero(self.kinds == OTHER))


def classify_components(g: Multigraph) -> ComponentReport:
    """Split off the giant component and classify the rest.

    Ties for the largest component go to the one containing the smallest
    vertex label.  A non-giant component is a tree when its edge count is
    size-1, a cycle when edges == size and every degree is 2, else other.
    """
    ncomp, labels, sizes = _components(g.n, g.edges)
    edge_counts = np.bincount(labels[g.edges[:, 0]], minlength=ncomp)
    off_two = np.bincount(labels[g.degree != 2], minlength=ncomp)
    kinds = np.full(ncomp, OTHER, dtype=np.int8)
    kinds[edge_counts == sizes - 1] = TREE
    kinds[(edge_counts == sizes) & (off_two == 0)] = CYCLE

    giant_label, giant_size = None, 0
    if ncomp:
        giant_size = int(sizes.max())
        # first vertex living in a maximum-size component decides the tie
        giant_label = int(labels[np.flatnonzero(sizes[labels] == giant_size)[0]])
        kinds[giant_label] = GIANT
    return ComponentReport(
        n_components=int(ncomp),
        labels=labels,
        sizes=sizes,
        kinds=kinds,
        giant_label=giant_label,
        giant_size=giant_size,
    )


# ---------------------------------------------------------------------------
# everything at once


@dataclass(eq=False)
class Decomposition:
    graph: Multigraph
    core: TwoCore
    core_labels: np.ndarray
    kernel: Kernel
    bushes: Bushes
    components: ComponentReport

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
        return self.kernel.longest_run

    @property
    def core_cycles(self) -> list[np.ndarray]:
        """Pure-cycle components of the 2-core, in parent labels."""
        return [self.core_labels[c] for c in self.kernel.cycles]

    @property
    def max_bush_size(self) -> int:
        return self.bushes.max_size

    def report(self) -> dict:
        comp = self.components
        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "two_core_size": self.two_core_size,
            "kernel_size": self.kernel_size,
            "core_census": self.core_census.tolist(),
            "bushes": [
                {"vertices": (v + 1).tolist(), "root": None if r < 0 else int(r) + 1}
                for v, r in zip(self.bushes.vertices(), self.bushes.roots)
            ],
            "isolated_trees": [(c + 1).tolist() for c in comp.tree_comps],
            "isolated_cycles": [(c + 1).tolist() for c in comp.cycle_comps],
            "core_cycles": [(c + 1).tolist() for c in self.core_cycles],
            "giant_size": comp.giant_size,
            "longest_deg2_run": self.longest_deg2_run,
            "connected": comp.connected,
        }


def decompose(g: Multigraph) -> Decomposition:
    core = two_core(g)
    core_g, core_labels = core.subgraph()
    return Decomposition(
        graph=g,
        core=core,
        core_labels=core_labels,
        kernel=kernel(core_g),
        bushes=bushes(g, core),
        components=classify_components(g),
    )
