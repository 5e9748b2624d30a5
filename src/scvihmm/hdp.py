"""Hierarchical stick-breaking prior over transition rows.

Holds the variational posterior over the shared stick proportions and the
two concentration parameters, the geometric expectation feeding the
transition surrogate, and the expected table-count statistics that drive
the stick updates.  Table counts for a corpus of N sequences are estimated
from a batch of sequences by treating the corpus as N replicates of a
representative sequence: per-position transition indicators are treated
as overlapping but independent, which turns the absence probability of
each transition into a sum of log terms and keeps the whole computation
linear in sequence length.  ``messages.sweep`` returns those log terms
summed over a batch; their batch means are the inputs here.  The Gamma
priors of the two concentrations have no defaults in this module: the
caller passes them, and ``engine.train`` passes the run config's.
"""

from dataclasses import dataclass

import numpy as np

from .special import (
    BetaParams,
    GammaParams,
    beta_expect_logs,
    digamma,
    gamma_expect,
    gamma_geo_expect,
)

# geometric weights are floored here (log scale) so deep truncations stay
# strictly positive instead of underflowing to zero
_LOG_FLOOR = -650.0

__all__ = [
    "HdpPosterior",
    "TableStats",
    "compute_geo_alpha_pi",
    "tables_from_aggregates",
    "update_hdp",
]


@dataclass(frozen=True)
class TableStats:
    """Expected table counts and log restaurant-level stick terms.

    ``es[k][k']`` is the expected number of tables serving state k' in
    restaurant k (row 0 is the start state); ``elogeta[k]`` is the expected
    log of restaurant k's auxiliary Beta variable, always <= 0.
    """

    es: np.ndarray
    elogeta: np.ndarray

    def __post_init__(self):
        es = np.asarray(self.es, dtype=float)
        elogeta = np.asarray(self.elogeta, dtype=float)
        if es.ndim != 2 or es.shape[0] != es.shape[1] + 1:
            raise ValueError("es must be (K+1) x K")
        if elogeta.shape != (es.shape[0],):
            raise ValueError("elogeta must have K+1 entries")
        if not np.all(np.isfinite(es)) or np.any(es < 0.0):
            raise ValueError("es entries must be finite and >= 0")
        if not np.all(np.isfinite(elogeta)) or np.any(elogeta > 0.0):
            raise ValueError("elogeta entries must be finite and <= 0")
        object.__setattr__(self, "es", es)
        object.__setattr__(self, "elogeta", elogeta)


@dataclass(frozen=True)
class HdpPosterior:
    """Variational state of the hierarchical prior.

    ``sticks`` holds K Beta posteriors (two length-K arrays),
    ``alpha`` and ``gamma`` the two Gamma concentration posteriors, and
    ``geo_alpha_pi`` caches the per-destination geometric weights.  The
    cache is refreshed by every update; ``initial`` pins it to a flat start
    weight, which ``engine.train`` takes from the config's ``trans_prior``,
    so the first sweep starts from the same transition prior counts as the
    flat-prior models.
    """

    sticks: BetaParams
    alpha: GammaParams
    gamma: GammaParams
    geo_alpha_pi: np.ndarray

    def __post_init__(self):
        geo = np.asarray(self.geo_alpha_pi, dtype=float)
        if geo.ndim != 1 or geo.size != self.num_states:
            raise ValueError("geo_alpha_pi must have one entry per state")
        if not np.all(np.isfinite(geo)) or np.any(geo <= 0.0):
            raise ValueError("geo_alpha_pi entries must be finite and > 0")
        object.__setattr__(self, "geo_alpha_pi", geo)

    @property
    def num_states(self) -> int:
        return self.sticks.u.size

    @classmethod
    def initial(
        cls,
        num_states: int,
        start_weight: float,
        alpha_prior: GammaParams,
        gamma_prior: GammaParams,
    ) -> "HdpPosterior":
        sticks = BetaParams(
            np.ones(num_states), np.full(num_states, gamma_expect(gamma_prior))
        )
        return cls(sticks, alpha_prior, gamma_prior, np.full(num_states, start_weight))


def compute_geo_alpha_pi(sticks: BetaParams, alpha: GammaParams) -> np.ndarray:
    """Geometric expectation of (concentration x stick weight) per state.

    Composed in log space: the geometric expectation of a product of
    independent factors is the product of their geometric expectations.
    """
    e_log, e_log1m = beta_expect_logs(sticks)
    prefix = np.concatenate(([0.0], np.cumsum(e_log1m[:-1])))
    logs = np.log(gamma_geo_expect(alpha)) + e_log + prefix
    return np.exp(np.maximum(logs, _LOG_FLOOR))


def tables_from_aggregates(
    mean_counts: np.ndarray,
    mean_logq0_pair: np.ndarray,
    mean_logq0_row: np.ndarray,
    corpus_size: int,
    post: HdpPosterior,
) -> TableStats:
    """Table statistics for the N-replicate corpus from batch-mean inputs.

    ``mean_counts`` and the two absence log probabilities are per-sequence
    expectations: the batch means of the ``counts``, ``absence_pair`` and
    ``absence_row`` sums of ``messages.sweep``.  Cells with exactly zero
    expected count short-circuit to zero tables.
    """
    n = float(corpus_size)
    geo = post.geo_alpha_pi[None, :]
    positive, q_pos, e_plus = _occupancy(mean_counts, mean_logq0_pair, n)
    es = np.where(
        positive, geo * q_pos * (digamma(geo + e_plus) - digamma(geo)), 0.0
    )

    pos_row, q_row, e_plus_row = _occupancy(mean_counts.sum(axis=1), mean_logq0_row, n)
    mean_alpha = gamma_expect(post.alpha)
    elogeta = np.where(
        pos_row, q_row * (digamma(mean_alpha) - digamma(mean_alpha + e_plus_row)), 0.0
    )
    return TableStats(np.maximum(es, 0.0), np.minimum(elogeta, 0.0))


def _occupancy(mean_counts, mean_logq0, n):
    """The occupied mask, q and e+ of each cell of the n-replicate corpus.

    q = 1 - exp(n * mean_logq0) is the chance that some replicate uses the
    cell, floored at the smallest normal float, and e+ = n * mean_counts / q
    its expected count given that one does.  Cells with zero expected count
    get q = e+ = 1 for the caller to mask out.
    """
    with np.errstate(over="ignore"):
        q = -np.expm1(n * mean_logq0)
    positive = mean_counts > 0.0
    q = np.where(positive, np.maximum(q, np.finfo(float).tiny), 1.0)
    return positive, q, np.where(positive, n * mean_counts / q, 1.0)


def _solve_gamma_mean(c_v, c_b, u_new, a_gamma, rho):
    """Mean of q(gamma) consistent with the stick and rate updates.

    The stick rates need E[gamma] while the gamma rate needs the updated
    sticks, so the pair is solved as a one-dimensional root problem in
    g = E[gamma].  f(g) = a_gamma / b_gamma(g) - g is positive near zero
    and negative for large g; plain bisection is deterministic, which also
    makes the full update idempotent at rho = 1.

    f is pure, so a step that moves neither end of the bracket (the
    midpoint rounds onto the end it would replace) is a fixed point: every
    later step would repeat it.  The loop stops there, which returns the
    same bits as running all 200 steps, usually after 50-60 of them.
    """

    K = u_new.size

    def b_gamma_of(g):
        # E[log(1 - stick)] = psi(v) - psi(u + v), both from one digamma call
        v = c_v + rho * g
        psi = digamma(np.concatenate((v, u_new + v)))
        return c_b - rho * (psi[:K] - psi[K:]).sum()

    def f(g):
        return a_gamma / b_gamma_of(g) - g

    lo = 1e-12
    attempts = 0
    while f(lo) <= 0.0 and attempts < 60:
        lo /= 8.0
        attempts += 1
    # u > 0 gives psi(v) < psi(u + v), so b_gamma(g) >= c_b and f(hi) <= a_gamma / c_b - hi < 0
    hi = a_gamma / c_b + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    g = 0.5 * (lo + hi)
    return g, b_gamma_of(g)


def update_hdp(
    post: HdpPosterior,
    tables: TableStats,
    rho: float,
    alpha_prior: GammaParams,
    gamma_prior: GammaParams,
) -> HdpPosterior:
    """Weighted-average update of all six hierarchical-prior parameters.

    The stick rates are coupled to the gamma posterior (its mean enters
    the rate update, and its own rate update is evaluated under the sticks
    after their update); the coupled pair is solved to self-consistency,
    so applying the update twice at rho = 1 equals applying it once.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    K = post.num_states
    if tables.es.shape != (K + 1, K):
        raise ValueError("table statistics do not match the truncation")

    col = tables.es.sum(axis=0)
    # tail[k'] = sum of column totals strictly beyond k'
    tail = np.concatenate((np.cumsum(col[::-1])[::-1][1:], [0.0]))

    u_new = (1.0 - rho) * post.sticks.u + rho * (1.0 + col)
    a_alpha = (1.0 - rho) * post.alpha.a + rho * (alpha_prior.a + tables.es.sum())
    b_alpha = (1.0 - rho) * post.alpha.b + rho * (alpha_prior.b - tables.elogeta.sum())
    a_gamma = (1.0 - rho) * post.gamma.a + rho * (gamma_prior.a + K)

    c_v = (1.0 - rho) * post.sticks.v + rho * tail
    c_b = (1.0 - rho) * post.gamma.b + rho * gamma_prior.b
    g, b_gamma = _solve_gamma_mean(c_v, c_b, u_new, a_gamma, rho)
    v_new = c_v + rho * g

    sticks = BetaParams(u_new, v_new)
    alpha = GammaParams(a_alpha, b_alpha)
    gamma = GammaParams(a_gamma, b_gamma)
    return HdpPosterior(sticks, alpha, gamma, compute_geo_alpha_pi(sticks, alpha))
