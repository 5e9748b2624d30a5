"""Digamma and the Beta/Gamma/Dirichlet expectations used by the variational updates.

Everything here is dependency-free on purpose: digamma sits in the inner
loop of the surrogate-parameter builds, and the expectations are thin
wrappers around it.  Which expectation each mode's surrogate takes is
stated in ``engine.build_surrogate``.  ``BetaParams`` holds two float64
arrays of one shape (0-d for a single Beta), and ``beta_expect_logs``
works elementwise on them; ``GammaParams`` holds two floats.  Both records
convert and check their values once, on construction.  ``digamma`` accepts
scalars or ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BetaParams",
    "GammaParams",
    "digamma",
    "beta_expect_logs",
    "gamma_expect",
    "gamma_geo_expect",
    "dirichlet_geo_rows",
]

# Recurrence threshold for the asymptotic series.  With the six Bernoulli
# correction terms below, the first omitted term at x=6 is ~1.1e-12, just
# over the accuracy budget; shifting to x>=7 brings it under 1.3e-13.
_ASYMPTOTIC_MIN = 7.0

# geometric weights are floored here (log scale) so deep truncations and tiny
# Dirichlet parameters stay strictly positive instead of underflowing to zero
_LOG_FLOOR = -650.0

# B_2k/(2k) coefficients of the asymptotic expansion, highest order last.
_BERNOULLI_TERMS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def digamma(x):
    """psi(x) for positive x, elementwise.

    Upward recurrence psi(x) = psi(x+1) - 1/x until x >= 7, then the
    asymptotic series in 1/x^2.  Raises ValueError on non-positive or
    non-finite input.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("digamma requires finite x > 0")

    shifted = arr.copy()
    acc = np.zeros_like(shifted)
    # At most ceil(_ASYMPTOTIC_MIN) shifts are ever needed.
    for _ in range(int(_ASYMPTOTIC_MIN)):
        small = shifted < _ASYMPTOTIC_MIN
        if not small.any():
            break
        acc -= np.where(small, 1.0 / shifted, 0.0)
        shifted += small

    inv = 1.0 / shifted
    inv2 = inv * inv
    tail = np.zeros_like(shifted)
    for coef in reversed(_BERNOULLI_TERMS):
        tail = (tail + coef) * inv2
    result = acc + np.log(shifted) - 0.5 * inv - tail
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of elementwise Beta distributions: float64 arrays of one shape."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.shape != v.shape:
            raise ValueError(f"Beta parameters u {u.shape} and v {v.shape} differ in shape")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("Beta parameters must be finite")
        if np.any(u <= 0.0) or np.any(v <= 0.0):
            raise ValueError("Beta parameters must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of one Gamma distribution, as floats."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("Gamma parameters must be finite")
        if a <= 0.0 or b <= 0.0:
            raise ValueError("Gamma parameters must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def beta_expect_logs(p: BetaParams):
    """(E[log x], E[log(1-x)]) for x ~ Beta(u, v); both strictly negative."""
    both = digamma(p.u + p.v)
    return digamma(p.u) - both, digamma(p.v) - both


def gamma_expect(p: GammaParams) -> float:
    """E[x] = a/b for x ~ Gamma(a, b)."""
    return p.a / p.b


def gamma_geo_expect(p: GammaParams) -> float:
    """Geometric expectation exp(E[log x]) = exp(psi(a))/b for x ~ Gamma(a, b).

    Always strictly below gamma_expect for the same parameters.
    """
    return float(np.exp(digamma(p.a)) / p.b)


def dirichlet_geo_rows(params: np.ndarray) -> np.ndarray:
    """Geometric expectations exp(E[log x]) of Dirichlet rows, renormalized.

    Each row of ``params`` holds the positive parameters of one Dirichlet;
    its weights exp(psi(params) - psi(row sum)), with logs floored at
    ``_LOG_FLOOR``, sum to less than 1 and are divided by their sum.
    """
    logs = digamma(params) - digamma(params.sum(axis=1))[:, None]
    weights = np.exp(np.maximum(logs, _LOG_FLOOR, out=logs))
    return weights / weights.sum(axis=1, keepdims=True)
