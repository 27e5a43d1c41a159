"""Closed-form predictions for vertex deletion at rate p = n**-alpha.

Everything here is arithmetic on the model parameters; no sampling.  The
guiding quantities for a d-regular start:

  mu_j  = C(d, j) * n**(1 - (d-j)*alpha)   expected buckets of degree j
  r     ~ n**(1 - alpha)                   deleted buckets
  K     = least integer > 2 / ((d-2)*eta)  bush/tree size cutoff

and the regime split on eta (the lower bound on alpha):

  (a)  0 < eta <= 1/(2(d-1))   degree-1 survivors are plentiful
  (b)  1/(2(d-1)) < eta < 1/(d-1)   isolated vertices only
  (c)  eta >= 1/(d-1)          nothing below degree d-1 survives

Boundary conventions: eta == 1/(d-1) classifies as (c), and
eta == 1/(2(d-1)) classifies as (a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# expected counts at least this large are flagged as concentrated
CONCENTRATION_THRESHOLD = 30.0


@dataclass(frozen=True)
class ModelParams:
    """Deletion model n, d, alpha with optional exponent floor eta.

    eta defaults to alpha itself (the constant-exponent case).  alpha may
    exceed eta but never undercut it.
    """

    n: int
    d: int
    alpha: float
    eta: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.d < 3:
            raise ValueError("degree must be at least 3 for the regime analysis")
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive")
        eta = self.eta
        if eta is None:
            object.__setattr__(self, "eta", float(self.alpha))
        elif not (0 < eta <= self.alpha):
            raise ValueError("need 0 < eta <= alpha")

    @property
    def p(self) -> float:
        return float(self.n) ** -self.alpha


def mu(j: int, params: ModelParams) -> float:
    """Expected number of surviving buckets with degree exactly j.

    A bucket keeps degree j when it survives and exactly d-j of its d
    partner buckets are deleted; to leading order that is
    C(d, j) * n * p**(d-j) = C(d, j) * n**(1 - (d-j)*alpha).
    """
    d = params.d
    if not (0 <= j <= d):
        raise ValueError(f"degree class j={j} outside 0..{d}")
    return math.comb(d, j) * float(params.n) ** (1 - (d - j) * params.alpha)


def mu_all(params: ModelParams) -> list[float]:
    return [mu(j, params) for j in range(params.d + 1)]


def expected_r(params: ModelParams) -> tuple[float, bool]:
    """(expected deleted buckets, concentrated?).

    r is Binomial(n, n**-alpha) with mean n**(1-alpha); the flag says the
    mean is large enough (>= 30) that r/E[r] -> 1 is a usable statement.
    """
    val = float(params.n) ** (1 - params.alpha)
    return val, val >= CONCENTRATION_THRESHOLD


def bush_bound_K(d: int, eta: float) -> int:
    """Least integer strictly greater than 2/((d-2)*eta).

    Any tree of at least K buckets hanging below the 2-core (or standing
    alone) would need so many degree-<=2 buckets that its expected count
    n**(1 - (d-2)*eta*K/2) vanishes; K is the smallest size for which the
    exponent goes negative.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if not (eta > 0):
        raise ValueError("need eta > 0")
    x = 2.0 / ((d - 2) * eta)
    return math.floor(x) + 1


def regime_classify(d: int, eta: float) -> str:
    """'a', 'b', or 'c' per the eta thresholds (boundaries: see module doc)."""
    if d < 3:
        raise ValueError("need d >= 3")
    if not (eta > 0):
        raise ValueError("need eta > 0")
    if eta >= 1.0 / (d - 1):
        return "c"
    if eta > 1.0 / (2 * (d - 1)):
        return "b"
    return "a"


def isolated_tree_decay(params: ModelParams) -> float:
    """Leading order for the expected count of isolated edges, n**(1-2(d-1)alpha).

    In regime (b) this exponent is negative, which is what makes "isolated
    vertices only" an almost-sure statement; the rate of decay is still
    polynomially slow near the regime boundary.
    """
    return float(params.n) ** (1 - 2 * (params.d - 1) * params.alpha)


def isolated_edge_mean(params: ModelParams) -> float:
    """Finite-n expected count of isolated edges, (nd/2)(1-p)**2 p**(2(d-1)).

    One of the nd/2 edges is isolated when both its ends survive and all
    2(d-1) of its neighbours are deleted; isolated_tree_decay keeps only
    the leading order n**(1-2(d-1)alpha) of this.
    """
    n, d, p = params.n, params.d, params.p
    return n * d / 2 * (1 - p) ** 2 * p ** (2 * (d - 1))


def isolated_vertex_cap(params: ModelParams) -> float:
    """High-probability ceiling n**((d-2)/(2d-2)) on isolated-vertex counts."""
    d = params.d
    return float(params.n) ** ((d - 2) / (2.0 * d - 2.0))


def expected_deg2_paths(t: float, m: float, n2: float, k: int) -> float:
    """Expected maximal degree-2 runs of length >= k inside a 2-core.

    With t core buckets, m surviving pairs and n2 core buckets of degree 2,
    a run of k specific degree-2 buckets needs k+1 chained pairs:

        (t - k)**2 / (2m) * ((n2 - k) / (2m))**(k-1)

    Nonpositive inputs (k exhausts the degree-2 supply) give 0.
    """
    if k < 1:
        raise ValueError("run length k must be >= 1")
    if m <= 0 or t - k <= 0 or n2 - k < 0:
        return 0.0
    return (t - k) ** 2 / (2.0 * m) * ((n2 - k) / (2.0 * m)) ** (k - 1)


def core_mu(params: ModelParams) -> dict:
    """Leading-order 2-core structure from the degree census.

    Below the top class only degrees d-1 and d survive in regime (b)/(c)
    with any mass; the core keeps essentially every bucket of degree >= 2,
    so t ~ n - r and the degree-2 class of the core tracks mu_2.
    """
    mus = mu_all(params)
    r, _ = expected_r(params)
    t = params.n - r - sum(mus[:2])
    return {
        "t": t,
        "pairs": 0.5 * sum(j * mj for j, mj in enumerate(mus)),
        "n2": mus[2] if params.d >= 2 else 0.0,
    }


def predictions(params: ModelParams, run_lengths: tuple[int, ...] = ()) -> dict:
    """Every closed-form quantity for one parameter point, JSON-ready;
    deg2_paths maps each run length k (as a string) to its expected count."""
    r, conc = expected_r(params)
    core = core_mu(params)
    return {
        "n": params.n,
        "d": params.d,
        "alpha": params.alpha,
        "eta": params.eta,
        "p": params.p,
        "expected_r": r,
        "r_concentrated": conc,
        "mu": mu_all(params),
        "regime": regime_classify(params.d, params.eta),
        "K": bush_bound_K(params.d, params.eta),
        "isolated_tree_decay": isolated_tree_decay(params),
        "isolated_edge_mean": isolated_edge_mean(params),
        "isolated_vertex_cap": isolated_vertex_cap(params),
        "deg2_paths": {
            str(k): expected_deg2_paths(core["t"], core["pairs"], core["n2"], k)
            for k in run_lengths
        },
    }
