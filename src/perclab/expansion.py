"""Vertex and edge expansion: exact search on small graphs, certified
bounds on everything else.

Exact values come from enumerating all 2**n vertex subsets with bitmask
vectorization, so they are only offered up to EXHAUSTIVE_LIMIT vertices.
Above that the certificate brackets the truth between a spectral lower
bound (lambda_2 of the normalized Laplacian, via Cheeger) and an upper
bound read off a long degree-2 run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as _scipy_shortest_path

from perclab.decomposition import _components
from perclab.pairing import Multigraph

EXHAUSTIVE_LIMIT = 20
LANCZOS_TOL = 1e-3  # relative Ritz residual at which Lanczos stops
LANCZOS_MAX_STEPS = 10_000  # operator applications before it gives up


def _popcount(x: np.ndarray) -> np.ndarray:
    """Bit counts as int64, so that products of counts (_best_ratio's
    cross-multiplication) cannot overflow a small integer type."""
    return np.bitwise_count(x).astype(np.int64)


class ExactExpansion(NamedTuple):
    value: float
    witness: tuple | None
    numerator: int | None
    denominator: int | None


def _neighbor_bits(g: Multigraph) -> np.ndarray:
    nbr = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        if u != v:
            nbr[u] |= 1 << int(v)
            nbr[v] |= 1 << int(u)
    return nbr


def _subset_tables(g: Multigraph):
    """For every nonempty subset S of g's vertices: its mask, |S| and
    |N(S) \\ S|, the one table every exact vertex-expansion search reads."""
    n = g.n
    _check_exhaustive_size(n)
    nbr_bits = _neighbor_bits(g)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    sizes = _popcount(masks)
    nbrs = np.zeros(masks.size, dtype=np.int64)
    for v in range(n):
        sel = (masks >> v) & 1 == 1
        nbrs[sel] |= nbr_bits[v]
    return masks, sizes, _popcount(nbrs & ~masks)


def _lex_least(ties: np.ndarray) -> tuple:
    """Lexicographically least vertex set among bitmask candidates."""
    chosen: list[int] = []
    cur = ties
    while True:
        lows = cur & -cur
        vmin_bit = int(lows.min())
        v = vmin_bit.bit_length() - 1
        chosen.append(v)
        cur = cur[lows == vmin_bit] & ~np.int64(vmin_bit)
        if (cur == 0).any():
            return tuple(chosen)


def _best_ratio(num: np.ndarray, den: np.ndarray, masks: np.ndarray) -> tuple:
    """Minimize num/den exactly; ties resolved to the lex-least vertex set."""
    ratios = num / den
    i = int(np.argmin(ratios))
    bn, bd = int(num[i]), int(den[i])
    ties = masks[num * bd == bn * den]
    return bn, bd, _lex_least(ties)


def _check_exhaustive_size(n: int) -> None:
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exact search is capped at {EXHAUSTIVE_LIMIT} vertices (got {n}); use bounds"
        )


def _min_vertex_expansion(masks, sizes, out, n: int) -> ExactExpansion:
    """The least out/|S| over the table's subsets with |S| <= n/2; +inf when
    none is that small."""
    ok = sizes <= n // 2
    if not ok.any():
        return ExactExpansion(math.inf, None, None, None)
    bn, bd, witness = _best_ratio(out[ok], sizes[ok], masks[ok])
    return ExactExpansion(bn / bd, witness, bn, bd)


def exact_vertex_expansion(g: Multigraph) -> ExactExpansion:
    """min |N(S) \\ S| / |S| over nonempty S with |S| <= n/2, exactly.

    Loops and edge multiplicities are irrelevant here; only the distinct
    neighbor relation matters.  Disconnected graphs score 0.  Graphs with
    a single vertex have no admissible S; the min over nothing is +inf.
    """
    return _min_vertex_expansion(*_subset_tables(g), g.n)


def exact_edge_expansion(g: Multigraph) -> ExactExpansion:
    """min e(S, V-S) / d(S) over S with 0 < d(S) <= |E|, exactly.

    d(S) sums degrees (loops count 2); e(S, V-S) counts cut edges with
    multiplicity (loops never cross).  Subsets of isolated vertices have
    d(S) = 0 and impose no constraint; if every subset is like that the
    min is +inf.
    """
    n = g.n
    _check_exhaustive_size(n)
    if n == 0:
        return ExactExpansion(math.inf, None, None, None)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    deg = g.degree
    dS = np.zeros(masks.size, dtype=np.int64)
    for v in range(n):
        sel = (masks >> v) & 1 == 1
        dS[sel] += deg[v]
    cut = np.zeros(masks.size, dtype=np.int64)
    for u, v in g.edges:
        if u != v:
            cut += ((masks >> int(u)) & 1) ^ ((masks >> int(v)) & 1)
    ok = (dS > 0) & (dS <= g.m)
    if not ok.any():
        return ExactExpansion(math.inf, None, None, None)
    bn, bd, witness = _best_ratio(cut[ok], dS[ok], masks[ok])
    return ExactExpansion(bn / bd, witness, bn, bd)


# ---------------------------------------------------------------------------
# bounds


def path_upper_bound(longest_run: int, n: int) -> float | None:
    """Upper bound on vertex expansion from a degree-2 run of length k.

    Cutting a stretch of j = min(k-1, floor(n/2)) consecutive run vertices
    exposes at most 2 neighbors, so beta <= 2/j whenever j >= 1.  (Taking
    all k run vertices would also expose only 2, but k can exceed n/2;
    k-1 internal vertices always fit the size constraint when they fit in
    half the graph.)  Returns None when no such certificate exists.
    """
    j = min(longest_run - 1, n // 2)
    return 2.0 / j if j >= 1 else None


class SpectralBound(NamedTuple):
    value: float
    lambda2: float
    connected: bool


def _normalized_adjacency(g: Multigraph) -> csr_matrix:
    # both directions of every edge; the two entries of a loop sum to its
    # weight 2, as parallel edges sum to their multiplicity
    u = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    v = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    scale = 1.0 / np.sqrt(g.degree)
    return csr_matrix((scale[u] * scale[v], (u, v)), shape=(g.n, g.n))


def _top_eigenvalue(op, v: np.ndarray) -> tuple[float, float]:
    """Top Ritz value theta of the symmetric operator ``op`` (norm at most
    1) by plain Lanczos from ``v``, with its residual rho = beta_j |s_j|:
    some eigenvalue of ``op`` lies within rho of theta.  Lost orthogonality
    only adds copies of converged Ritz values (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 13).  Stops on ARPACK's rule for the top Ritz
    pair (theta, s), rho <= tol * max(|theta|, eps^(2/3)), checked every 10
    steps, or at once on an invariant Krylov space (beta_j at rounding
    level)."""
    eps = np.finfo(np.float64).eps
    alphas, betas = [], []
    q_prev, q, beta = 0.0, v / np.linalg.norm(v), 0.0
    for j in range(1, LANCZOS_MAX_STEPS + 1):
        w = op(q)
        w -= beta * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = math.sqrt(float(w @ w))
        invariant = beta <= eps * v.size
        if invariant or j % 10 == 0 or j == LANCZOS_MAX_STEPS:
            theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(j - 1, j - 1))
            resid = beta * abs(float(s[-1, 0]))
            if invariant or resid <= LANCZOS_TOL * max(abs(theta[0]), eps ** (2 / 3)):
                return float(theta[0]), resid
        betas.append(beta)
        q_prev, q = q, w / beta
    raise RuntimeError(
        f"Lanczos did not converge on n = {v.size} after {LANCZOS_MAX_STEPS} "
        f"steps (last residual {resid:.3g})"
    )


def spectral_lower_bound(g: Multigraph, seed=0) -> SpectralBound:
    """Certified lower bound (lambda2/2) * (d_min/d_max) on vertex expansion.

    Chain of custody: Cheeger gives cut(S) >= (lambda2/2) * min(vol S,
    vol S-bar); dividing by d_max bounds boundary vertices from below and
    d_min converts volume to cardinality, on either side of the min.
    Disconnected graphs report 0 with the flag down; on fewer than 2
    vertices lambda2 does not exist and the bound is vacuously 0.

    lambda2 = max(1 - theta - rho, 0) for the top Lanczos Ritz value theta
    of the reflected operator and its residual rho: some eigenvalue lies
    within rho of theta, so if theta approximates the top eigenvalue (the
    one assumption), that eigenvalue is at most theta + rho and lambda2 is
    a lower bound by construction.  rho is at most
    LANCZOS_TOL * max(|theta|, eps^(2/3)).  The Krylov space is invariant
    within n steps, so small graphs stop early.  The start vector, one
    ``standard_normal(n)`` draw from ``seed``, is the only draw.
    """
    n = g.n
    if n < 2:
        return SpectralBound(0.0, math.nan, True)
    deg = g.degree
    if int(deg.min()) == 0 or _components(n, g.edges)[0] > 1:
        return SpectralBound(0.0, 0.0, False)
    S = _normalized_adjacency(g)
    # S has top eigenpair (1, u) with u = sqrt(deg / vol).  The reflection
    # S - 2uu^T sends it to -1 and keeps every other eigenpair, so its top
    # eigenvalue is 1 - lambda2.  (Deflating to S - uu^T would leave a 0
    # that outranks 1 - lambda2 whenever lambda2 > 1, as on complete graphs.)
    u = np.sqrt(deg / float(deg.sum()))

    def reflected(x):
        y = S @ x
        y -= (2.0 * (u @ x)) * u
        return y

    theta, rho = _top_eigenvalue(reflected, np.random.default_rng(seed).standard_normal(n))
    lam2 = float(max(1.0 - theta - rho, 0.0))
    value = 0.5 * lam2 * float(deg.min()) / float(deg.max())
    return SpectralBound(value, lam2, True)


class DiameterCheck(NamedTuple):
    diameter: float
    bound: float
    passed: bool


def distance_matrix(g: Multigraph) -> np.ndarray:
    """All-pairs hop distances (float matrix, inf across components)."""
    if g.n == 0:
        return np.zeros((0, 0))
    adj = csr_matrix(
        (np.ones(g.m), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n)
    )
    return _scipy_shortest_path(adj, method="D", directed=False, unweighted=True)


def diameter_check(g: Multigraph, beta: float) -> DiameterCheck:
    """Does diameter <= 2 * log_{1+beta}(n/2) + 2 hold?

    The ball around any vertex multiplies by at least 1+beta until it
    passes n/2, so two balls meet within the bound; that holds for every
    connected beta-expander, and the check keeps it honest.
    """
    n = g.n
    if n == 0 or beta <= 0:
        return DiameterCheck(math.inf, math.inf, False)
    dist = distance_matrix(g)
    diam = float(dist.max()) if n > 1 else 0.0
    if math.isinf(diam):
        return DiameterCheck(diam, math.nan, False)
    log_half = math.log(n / 2.0) / math.log(1.0 + beta)
    bound = 2.0 * log_half + 2.0
    return DiameterCheck(diam, bound, diam <= bound + 1e-9)


# ---------------------------------------------------------------------------
# reinstatement


@dataclass(frozen=True)
class ReinstatementCheck:
    passed: bool
    chain_ok: bool
    beta_prime: float
    beta_hat: float


def reinstatement_expansion_check(
    gprime: Multigraph, winners, ghat: Multigraph
) -> ReinstatementCheck:
    """Verify that reinstating a spread-out vertex set W costs at most half
    the expansion.

    gprime must be ghat minus W (labels compacted in order); vertices of W
    must be pairwise at distance >= 3 in ghat, with no loops on W.  The
    check computes beta(ghat) exactly and compares it with half of
    min(beta(gprime), 2), and additionally verifies the subset inequality
    |N(S) \\ S| >= d|S cap W| - |S - W| for every S that is W-heavy
    (|S cap W| > |S - W|, |S| <= n/2), where d is the fewest distinct
    neighbours of a vertex of W.
    """
    n = ghat.n
    W = np.unique(np.asarray(winners, dtype=np.int64))
    if W.size == 0:
        raise ValueError("W is empty, nothing was reinstated")
    if W.min() < 0 or W.max() >= n:
        raise ValueError("W label out of range")
    if np.any(ghat.edges[:, 0] == ghat.edges[:, 1]):
        loops = ghat.edges[ghat.edges[:, 0] == ghat.edges[:, 1], 0]
        if np.intersect1d(loops, W).size:
            raise ValueError("a reinstated vertex carries a loop")

    dist = distance_matrix(ghat)
    for i in range(W.size):
        for j in range(i + 1, W.size):
            if dist[W[i], W[j]] < 3:
                raise ValueError(
                    f"reinstated vertices {int(W[i])} and {int(W[j])} are at "
                    f"distance {dist[W[i], W[j]]:.0f} < 3"
                )

    keep = np.ones(n, dtype=bool)
    keep[W] = False
    if gprime != ghat.induced(keep)[0]:
        raise ValueError("gprime does not match ghat with W removed")

    bp = exact_vertex_expansion(gprime)
    masks, sizes, out = _subset_tables(ghat)
    bh = _min_vertex_expansion(masks, sizes, out, n)
    # a graph too small to have any admissible subset expands perfectly
    bp_frac = Fraction(2) if bp.numerator is None else Fraction(bp.numerator, bp.denominator)
    bh_frac = Fraction(2) if bh.numerator is None else Fraction(bh.numerator, bh.denominator)
    cert = min(bp_frac, Fraction(2))
    passed = bh_frac >= cert / 2

    # the table's row mask - 1 holds that mask, so row 2^w - 1 is {w}, whose
    # out-count is w's number of distinct neighbours
    w_masks = 1 << W
    d = int(out[w_masks - 1].min())
    in_w = _popcount(masks & w_masks.sum())
    rest = sizes - in_w
    heavy = (in_w > rest) & (sizes <= n // 2)
    need = d * in_w - rest
    chain_ok = bool(np.all(out[heavy] >= need[heavy]))

    return ReinstatementCheck(
        passed=bool(passed), chain_ok=chain_ok, beta_prime=bp.value, beta_hat=bh.value
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class ExpansionCertificate:
    n: int
    max_degree: int
    connected: bool
    exact_beta: float | None = None
    witness: tuple | None = None
    exact_gamma: float | None = None
    gamma_witness: tuple | None = None
    lower_bound: float | None = None
    lower_source: str | None = None
    upper_bound: float | None = None
    upper_source: str | None = None
    lambda2: float | None = None
    diameter: float | None = None
    diameter_bound: float | None = None
    diameter_pass: bool | None = None

    def to_dict(self) -> dict:
        """The fields, with witnesses 1-based."""
        out = asdict(self)
        for key in ("witness", "gamma_witness"):
            if out[key] is not None:
                out[key] = [v + 1 for v in out[key]]
        return out


def certify(
    g: Multigraph,
    exact: bool = True,
    longest_run: int | None = None,
    seed=0,
) -> ExpansionCertificate:
    """Bounds, plus exact expansion and a diameter check when ``exact`` is
    set and the graph has at most EXHAUSTIVE_LIMIT vertices."""
    spect = spectral_lower_bound(g, seed=seed)
    cert = ExpansionCertificate(
        n=g.n,
        max_degree=int(g.degree.max()) if g.n else 0,
        connected=spect.connected,
        lambda2=spect.lambda2,
        lower_bound=spect.value,
        lower_source="spectral",
    )
    if longest_run is not None:
        ub = path_upper_bound(longest_run, g.n)
        if ub is not None:
            cert.upper_bound = ub
            cert.upper_source = "degree-2 run"
    if exact and g.n <= EXHAUSTIVE_LIMIT:
        ev = exact_vertex_expansion(g)
        ee = exact_edge_expansion(g)
        cert.exact_beta = ev.value
        cert.witness = ev.witness
        cert.exact_gamma = ee.value
        cert.gamma_witness = ee.witness
        if spect.connected and 0 < ev.value < math.inf:
            dc = diameter_check(g, ev.value)
            cert.diameter = dc.diameter
            cert.diameter_bound = dc.bound
            cert.diameter_pass = dc.passed
    return cert
