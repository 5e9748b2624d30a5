"""Digamma and the Beta/Gamma/Dirichlet expectations used by the variational updates.

Everything here is dependency-free on purpose: digamma sits in the inner
loop of the surrogate-parameter builds, and the expectations are thin
wrappers around it.  Which expectation each mode's surrogate takes is
stated in ``engine.build_surrogate``.  ``BetaParams`` holds two float64
arrays of one shape (0-d for a single Beta), and ``beta_expect_logs``
works elementwise on them; ``GammaParams`` holds two floats.  Both records
convert and check their values once, on construction.  ``digamma`` accepts
scalars or ndarrays, and gives every element the same fixed shift by 7
before an asymptotic series, in whole-array passes without masks: one
expression is accurate from 1e-300 to the largest float.
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

# Every argument is shifted by 7 before the asymptotic series.  With the six
# Bernoulli correction terms below, the first omitted term at x=6 is ~1.1e-12,
# just over the accuracy budget; at x+7 >= 7 it is under 1.3e-13.
_SHIFT = 7.0

# The shift's sum is formed from x capped here, so that x(x+6) and 2x+6 stay
# finite.  Above the cap the sum, under 7e-100, is far below half an ulp of
# psi(x) > 230, so the cap changes no result.
_SHIFT_CAP = 1e100

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
    """psi(x) for positive x, elementwise; a float for a scalar or 0-d input.

    Every element takes the same fixed shift,
    psi(x) = psi(x+7) - sum_{k<7} 1/(x+k), then the asymptotic series in
    1/(x+7)^2.  The shift's sum is taken in three pairs that share one
    numerator: with y = x(x+6) and t = 2x+6,
    1/(x+k) + 1/(x+6-k) = t/(y + k(6-k)) for k = 0, 1, 2, and
    1/(x+3) = 2/t.  The ends of the float range are safe.  At tiny x all
    terms are positive and none cancels, so 1/x, which dominates, keeps its
    relative accuracy (y = 6x stays normal down to 1e-300).  At huge x,
    y and t would overflow, so the sum is taken from x capped at
    ``_SHIFT_CAP``, which changes no result.  All arithmetic runs in place
    in four buffers of the input's size.  Raises ValueError on non-positive
    or non-finite input.
    """
    arr = np.asarray(x, dtype=np.float64)
    # NaN fails both comparisons
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError("digamma requires finite x > 0")
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    a, b, t = np.empty((3, flat.size))

    np.minimum(flat, _SHIFT_CAP, out=a)
    np.add(a, 6.0, out=b)
    np.add(a, b, out=t)
    a *= b  # y
    np.add(a, 8.0, out=b)
    np.divide(1.0, b, out=b)
    np.add(a, 5.0, out=out)
    np.divide(1.0, out, out=out)
    b += out
    np.divide(1.0, a, out=a)
    a += b
    a *= t
    np.divide(2.0, t, out=t)
    a += t  # sum_{k<7} 1/(x+k)

    np.add(flat, _SHIFT, out=b)
    np.log(b, out=out)
    out -= a
    np.divide(1.0, b, out=b)  # 1/(x+7)
    np.multiply(b, b, out=t)
    np.multiply(t, _BERNOULLI_TERMS[-1], out=a)
    for coef in reversed(_BERNOULLI_TERMS[:-1]):
        a += coef
        a *= t
    b *= 0.5
    out -= b
    out -= a
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


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
    weights = digamma(params)
    weights -= digamma(params.sum(axis=1))[:, None]
    np.maximum(weights, _LOG_FLOOR, out=weights)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights
