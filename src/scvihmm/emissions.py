"""Categorical emission family and its surrogate-row computation.

The emission model is kept in exponential-family form: a prior given by
its pseudo-counts and expected sufficient statistics accumulated per
state.  Only the categorical/Dirichlet family is implemented; its
sufficient statistic for a token is the indicator vector of that token, so
the statistics are expected token counts, and the surrogate row has the
closed form

    row[w] = (pseudo[w] + stats[k][w]) / (sum(pseudo) + count[k]).

This is the zeroth-order approximation: rows are built from expected counts
directly, with no variance correction.  Rows are computed once per
minibatch from the running global statistics; the current token's own
indicator is *not* folded back in before normalizing.  A Gaussian or
Poisson family would plug in by supplying its own sufficient statistic and
log-normalizer in place of the ratio above.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmissionPrior",
    "EmissionStats",
    "surrogate_emission_row",
    "surrogate_emission_matrix",
]


@dataclass(frozen=True)
class EmissionPrior:
    """Natural-parameter prior for one emission family.

    ``pseudo_counts`` has one entry per sufficient-statistic dimension
    (Dirichlet pseudo-counts for the categorical family).
    """

    pseudo_counts: np.ndarray

    def __post_init__(self):
        pseudo = np.asarray(self.pseudo_counts, dtype=float)
        if pseudo.ndim != 1 or pseudo.size == 0:
            raise ValueError("pseudo_counts must be a nonempty 1-d vector")
        if not np.all(np.isfinite(pseudo)) or np.any(pseudo <= 0.0):
            raise ValueError("pseudo_counts entries must be finite and > 0")
        object.__setattr__(self, "pseudo_counts", pseudo)

    @classmethod
    def symmetric(cls, concentration: float, vocab_size: int) -> "EmissionPrior":
        return cls(np.full(vocab_size, float(concentration)))

    @property
    def vocab_size(self) -> int:
        return self.pseudo_counts.size

    @property
    def total(self) -> float:
        return float(self.pseudo_counts.sum())


@dataclass
class EmissionStats:
    """Expected emission sufficient statistics, one row per state.

    ``token_stats[k][w]`` is the expected count of token w emitted from
    state k.
    """

    token_stats: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.token_stats, dtype=float)
        if t.ndim != 2:
            raise ValueError("token_stats must be K x V")
        if not np.all(np.isfinite(t)) or np.any(t < 0.0):
            raise ValueError("token_stats entries must be finite and >= 0")
        self.token_stats = t

    @property
    def state_counts(self) -> np.ndarray:
        """Expected number of emissions from each state: the row sums."""
        return self.token_stats.sum(axis=1)

    @classmethod
    def zeros(cls, num_states: int, vocab_size: int) -> "EmissionStats":
        return cls(np.zeros((num_states, vocab_size)))


def surrogate_emission_row(prior: EmissionPrior, stats: EmissionStats, k: int) -> np.ndarray:
    """Surrogate emission distribution for state ``k``.

    Returns a strictly positive vector summing to 1 within 1e-12.
    """
    if not 0 <= k < stats.token_stats.shape[0]:
        raise IndexError(f"state index {k} outside truncation {stats.token_stats.shape[0]}")
    if stats.token_stats.shape[1] != prior.vocab_size:
        raise ValueError("stats vocabulary size does not match prior")
    numer = prior.pseudo_counts + stats.token_stats[k]
    return numer / (prior.total + stats.state_counts[k])


def surrogate_emission_matrix(prior: EmissionPrior, stats: EmissionStats) -> np.ndarray:
    """All surrogate rows at once; row k equals surrogate_emission_row(prior, stats, k)."""
    if stats.token_stats.shape[1] != prior.vocab_size:
        raise ValueError("stats vocabulary size does not match prior")
    numer = prior.pseudo_counts[None, :] + stats.token_stats
    denom = prior.total + stats.state_counts
    return numer / denom[:, None]
