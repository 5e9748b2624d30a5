"""Geometric surrogate of the uncollapsed stochastic variational baseline.

``svi-hmm`` shares the collapsed engine's state and step: expected
transition and emission counts n, blended with the same corpus scale and
rho schedule.  Read as uncollapsed variational inference, prior + n are
the Dirichlet variational parameters of every row, and the blend is the
natural-gradient step toward prior + scaled batch statistics.  The one
difference is the point matrices each sweep uses: the rows' geometric
mean-field weights exp(psi(prior + n) - psi(row sum)) instead of their
means.  Those weights do not sum to 1, so they are renormalized for the
shared forward-backward code (posterior marginals are unchanged because
the recursion renormalizes per step anyway, only the reported data
likelihood is affected).
"""

import numpy as np

from .messages import SurrogateParams
from .special import digamma

__all__ = ["svi_surrogate"]


def _geometric_rows(mat: np.ndarray) -> np.ndarray:
    weights = np.exp(digamma(mat) - digamma(mat.sum(axis=1))[:, None])
    return weights / weights.sum(axis=1, keepdims=True)


def svi_surrogate(trans_posterior: np.ndarray, emit_posterior: np.ndarray) -> SurrogateParams:
    """Renormalized geometric mean-field weights of every Dirichlet row.

    ``trans_posterior`` is (K+1) x K and ``emit_posterior`` K x V; every
    entry is a positive Dirichlet parameter.
    """
    return SurrogateParams(_geometric_rows(trans_posterior), _geometric_rows(emit_posterior))
