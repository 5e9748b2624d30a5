"""Categorical emission family and its surrogate-row computation.

The emission model is kept in exponential-family form: a prior given by
its pseudo-counts and expected sufficient statistics accumulated per
state.  Only the categorical/Dirichlet family is implemented; its
sufficient statistic for a token is the indicator vector of that token, so
the statistics are a K x V array ``token_stats`` of expected token counts
(the ``token_stats`` half of ``engine.GlobalStats``), and the surrogate
row has the closed form

    row[w] = (pseudo[w] + token_stats[k][w]) / (sum(pseudo) + sum(token_stats[k])).

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


def surrogate_emission_matrix(prior: EmissionPrior, token_stats: np.ndarray) -> np.ndarray:
    """Surrogate emission rows of all K states, each strictly positive and summing to 1."""
    if token_stats.shape[1] != prior.vocab_size:
        raise ValueError("stats vocabulary size does not match prior")
    numer = prior.pseudo_counts[None, :] + token_stats
    denom = prior.total + token_stats.sum(axis=1)
    return numer / denom[:, None]
