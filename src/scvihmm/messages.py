"""Batched forward-backward over surrogate-parametrized chains.

One sweep runs the scaled recursion of Rabiner (1989) over a whole batch
of sequences against one frozen set of surrogate parameters and returns
batch sums.  The forward and backward vectors are renormalized often enough
to stay in ordinary floating point regardless of sequence length, and a
sequence's log likelihood is the sum of the log factors divided out.  State
0 is the start state; it emits nothing, nothing transitions back into it,
and its outgoing row is used only for the first step of a sequence.

The batch is sorted by length, longest first, and cut into slices whose
padded size (longest length x sequence count) stays within
``SLICE_POSITIONS``.  A slice is laid out time-major; at time t only its
first n_t sequences are still running, so each step works on a row prefix.

Renormalization is lazy.  Write A for ``inner`` (the K x K block of
``trans`` below the start row), obs_t for the emission column of token x_t,
and R for ``RENORM_EVERY``.  The forward rows are

    a_1 = trans[0] * obs_1,    a_t = (a_{t-1} A) * obs_t / f_t,

where f_t is the sum of the row before the division at each position t
with t % R == R - 1 and at the sequence's last position, and f_t = 1
elsewhere.  A step is then one matrix product into its row and one in-place
product.  Each a_t is the exact forward message p(x_1..t, z_t) divided by
f_1 ... f_t, and a_T sums to 1 at the last position T, so log p(x) =
sum_t log f_t.  A is row-stochastic and obs_t <= 1, so a row only loses
mass between renormalizations and no entry exceeds 1.  The backward rows
b_t are proportional to the exact backward messages, with any positive
factor per position: b_T = 1, b_{t-1} = r_t A^T with r_t = obs_t * b_t,
divided by its own sum on the same cadence.  ``right`` holds r_t.

The posteriors then follow from whole-array operations.  With

    U_t = sum_k a_tk b_tk,

the unary posterior is a_t * b_t / U_t and the pair posterior is

    xi_tij = a_{t-1,i} A_ij r_tj / (f_t U_t).

The pair term is proportional to a_{t-1,i} A_ij obs_tj b_tj, and its sum
over i and j is sum_j ((a_{t-1} A) * obs_t)_j b_tj = f_t sum_j a_tj b_tj =
f_t U_t, which is the normalizer.  So ``right`` is divided by f_t U_t in
place, and the transition counts are inner * sum_t a[t-1]^T right[t], one
matrix product; the pairwise posteriors are never stored.  U is inf at
padded positions, which zeroes ``right`` and ``unary`` there.

A product of R factors can underflow where one factor would not: a token
with emission 1e-90 under every state, repeated R = 8 times, is 1e-720, so
its sum reads 0 and its renormalization NaN.  If any f_t or any running
U_t is not within [``RENORM_FLOOR``, 1 / ``RENORM_FLOOR``] (a NaN is not),
the slice is swept again by the same code with R = 1, the textbook
recursion.  The first attempt runs with floating point warnings off.

The hierarchical prior's pair absence sum, sum_t log(1 - p_tij) with pair
posterior p_tij = alpha[t-1, i] * inner[i, j] * right[t, j], is a power
series over matrix products in the same way.  Before it is taken, each
forward row is divided by its sum S_t and right[t] multiplied by S_{t-1}.
That leaves every p_tij as it is, makes alpha[t] the normalized forward
vector (at most 1, as the bounds below need), and gives right[t] the scale
of the textbook recursion; without it right[t] would carry 1 / S_{t-1},
up to about 1e22 after 8 positions, and push positions onto the dense path
below.  Then

    sum_t log(1 - p_tij) = -sum_m (inner_ij^m / m) * (sum_t alpha^m[t-1]^T right^m[t])_ij,

with powers taken elementwise, one product per term, summed for m = 1 ..
``SERIES_TERMS`` (M).  Cut there, the series is exact to within
tau^M / ((M + 1)(1 - tau)) of |log(1 - p)| for p <= tau = ``SERIES_BOUND``;
at M = 13 and tau = 1/16 that is 1.7e-17.  The pair posterior sums over j to
the marginal of i at t-1 and over i to the marginal of j at t, so p_tij is
at most the smaller of the two, and only cells where both marginals exceed
tau can exceed it.  A marginal row sums to 1, so there are at most 15 such
states on each side; those few cells get log(1 - p) exactly, in place of
their share of the series, and a forced transition (p = 1) stays -inf.  The
forward vectors are at most 1 but right[t] is not bounded, so a position
whose right[t] exceeds ``SERIES_RIGHT_MAX`` (where right^M could overflow)
is summed exactly over every cell instead.
"""
from dataclasses import dataclass

import numpy as np

# padded positions (longest length x sequence count) of one slice
SLICE_POSITIONS = 2**15
# positions per matrix product of the pair absence series
SERIES_CHUNK_ROWS = 256
# terms kept of log(1 - p) = -sum_m p^m / m
SERIES_TERMS = 13
# the largest pair posterior the series covers; larger cells are summed exactly
SERIES_BOUND = 1.0 / 16.0
# positions with a larger right factor are summed exactly, so right^m stays finite
SERIES_RIGHT_MAX = 2.0**64
# positions between renormalizations of the running forward and backward rows
RENORM_EVERY = 8
# a slice whose factors or posterior normalizers leave [RENORM_FLOOR, 1 / RENORM_FLOOR]
# is swept again, renormalizing at every position
RENORM_FLOOR = 2.0**-700

__all__ = ["SurrogateParams", "BatchSums", "sweep"]


@dataclass(frozen=True)
class SurrogateParams:
    """Point parameters for one inference sweep.

    ``trans`` has K+1 rows over K states: row 0 is the start-state row and
    rows 1..K are the per-state transition distributions.  ``emit`` is
    K x V.  All rows must be strictly positive and sum to 1 within 1e-10.
    """

    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=float)
        emit = np.asarray(self.emit, dtype=float)
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1] + 1:
            raise ValueError("trans must be (K+1) x K")
        if emit.ndim != 2 or emit.shape[0] != trans.shape[1]:
            raise ValueError("emit must be K x V")
        for name, mat in (("trans", trans), ("emit", emit)):
            if not np.all(np.isfinite(mat)) or np.any(mat <= 0.0):
                raise ValueError(f"{name} entries must be finite and > 0")
            if np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-10):
                raise ValueError(f"{name} rows must sum to 1 within 1e-10")
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "emit", emit)

    @property
    def num_states(self) -> int:
        return self.trans.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.emit.shape[1]


@dataclass(frozen=True)
class BatchSums:
    """What one sweep returns; the arrays sum over the batch's sequences.

    ``loglik[i]`` is the log likelihood of the batch's i-th sequence.
    ``counts`` ((K+1) x K, row 0 the start transitions) holds the expected
    transition counts and ``token_stats`` (K x V) the expected count of
    each token under each state; both have total mass equal to the batch's
    token count.  ``absence_pair`` ((K+1) x K) and ``absence_row`` (K+1)
    sum the log probability that a sequence never takes a transition, or
    never leaves a state, treating its positions as independent (a
    position sum of log(1 - p)); they are -inf where a position forces the
    event, as the start row always is.  Sums not asked for are None.
    """

    loglik: np.ndarray
    counts: np.ndarray = None
    token_stats: np.ndarray = None
    absence_pair: np.ndarray = None
    absence_row: np.ndarray = None


def _slices(batch, vocab_size):
    """(batch positions, T x B tokens, running count per time) per slice."""
    seqs = [np.asarray(seq) for seq in batch]
    if not seqs:
        raise ValueError("batch must not be empty")
    lengths = np.array([seq.size for seq in seqs])
    shapes = {(seq.ndim, seq.dtype.kind) for seq in seqs}
    if not shapes <= {(1, "i"), (1, "u")} or lengths.min() == 0:
        raise ValueError("sequence must be a nonempty 1-d array of token indices")
    order = np.argsort(-lengths, kind="stable")
    slices = []
    start = 0
    while start < len(seqs):
        cols = order[start : start + max(1, SLICE_POSITIONS // lengths[order[start]])]
        tokens = np.zeros((lengths[cols[0]], cols.size), dtype=np.intp)
        for j, i in enumerate(cols):
            tokens[: lengths[i], j] = seqs[i]
        if tokens.min() < 0 or tokens.max() >= vocab_size:
            raise ValueError("sequence contains token indices outside the vocabulary")
        n_at = (lengths[cols][None, :] > np.arange(tokens.shape[0])[:, None]).sum(axis=1)
        slices.append((cols, tokens, n_at))
        start += cols.size
    return slices


def _forward(params, tokens, n_at, every, alpha=None, obs=None):
    """T x B factors f_t divided out of the forward rows of one slice.

    A running row is renormalized at each position t with t % every ==
    every - 1 and at its last position; every other factor is 1.  With
    ``alpha`` (T x B x K, zeros) the forward vectors are written into it and
    ``obs`` (T x B x K) holds the slice's gathered emissions.  Without, the
    emissions are gathered one block of ``every`` positions at a time and the
    recursion runs in two B x K buffers, so memory stays O(T x B).
    """
    inner = params.trans[1:]
    scales = np.ones(tokens.shape)
    sizes = n_at.tolist()
    # rows ends[t] .. n_at[t] - 1 have their last position at t
    ends = sizes[1:] + [0]
    if alpha is None:
        buffers = np.empty((2, tokens.shape[1], params.num_states))
    prev = None
    for t, n in enumerate(sizes):
        phase = t % every
        if alpha is None:
            if phase == 0:
                block = params.emit.T[tokens[t : t + every]]
            cur, emit = buffers[t % 2], block[phase]
        else:
            cur, emit = alpha[t], obs[t]
        head = cur[:n]
        if t:
            np.dot(prev[:n], inner, out=head)
            head *= emit[:n]
        else:
            np.multiply(params.trans[0], emit[:n], out=head)
        lo = 0 if phase == every - 1 else ends[t]
        if lo < n:
            factor = cur[lo:n].sum(axis=1)
            cur[lo:n] /= factor[:, None]
            scales[t, lo:n] = factor
        prev = cur
    return scales


def _series(p):
    """-sum_{m=1..SERIES_TERMS} p^m / m, by Horner's rule."""
    acc = np.full_like(p, 1.0 / SERIES_TERMS)
    for m in range(SERIES_TERMS - 1, 0, -1):
        acc = acc * p + 1.0 / m
    return -p * acc


def _exact_cells(hot_before, hot_after):
    """(row, i, j) of every cell with hot_before[row, i] and hot_after[row, j]."""
    K = hot_before.shape[1]
    rows_i, cols_i = np.divmod(np.flatnonzero(hot_before), K)
    rows_j, cols_j = np.divmod(np.flatnonzero(hot_after), K)
    # the hot j of each row sit together in cols_j; pair each hot i with them
    per_row = np.bincount(rows_j, minlength=hot_before.shape[0])
    first_j = np.cumsum(per_row) - per_row
    reps = per_row[rows_i]
    offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    return (
        np.repeat(rows_i, reps),
        np.repeat(cols_i, reps),
        cols_j[np.repeat(first_j[rows_i], reps) + offsets],
    )


def _absence(inner, alpha, right, unary, running):
    """Pair and row absence sums of one slice; see the module docstring."""
    K = inner.shape[0]
    pair = np.zeros((K + 1, K))
    row = np.empty(K + 1)
    # before[r] = alpha[t-1, b] and after[r] = right[t, b] meet in the pair term at t
    before = alpha[:-1].reshape(-1, K)
    after = right[1:].reshape(-1, K)
    unary_before = unary[:-1].reshape(-1, K)
    # flat (t-1) x B index of every running position t >= 1
    rows = np.flatnonzero(running[1:])
    with np.errstate(divide="ignore"):
        pair[0] = np.log1p(-np.minimum(unary[0], 1.0)).sum(axis=0)
        # every sequence leaves the start state at its first position
        row[0] = -np.inf
        row[1:] = np.log1p(-np.minimum(unary_before[rows], 1.0)).sum(axis=0)

    dense = after.max(axis=1) > SERIES_RIGHT_MAX
    series_rows = rows[~dense[rows]]
    powers = np.zeros((SERIES_TERMS, K, K))
    for lo in range(0, series_rows.size, SERIES_CHUNK_ROWS):
        idx = series_rows[lo : lo + SERIES_CHUNK_ROWS]
        a, r = before[idx], after[idx]
        a_m, r_m = a.copy(), r.copy()
        for m in range(SERIES_TERMS):
            if m:
                a_m *= a
                r_m *= r
            powers[m] += a_m.T @ r_m
    inner_m = inner.copy()
    for m in range(SERIES_TERMS):
        if m:
            inner_m *= inner
        pair[1:] -= inner_m / (m + 1) * powers[m]

    hot_after = (unary[1:].reshape(-1, K) > SERIES_BOUND) & ~dense[:, None]
    at, i, j = _exact_cells(unary_before > SERIES_BOUND, hot_after)
    p = before[at, i] * inner[i, j] * after[at, j]
    with np.errstate(divide="ignore"):
        np.add.at(pair[1:], (i, j), np.log1p(-np.minimum(p, 1.0)) - _series(p))
        dense_rows = np.flatnonzero(dense)
        # a block of pair posteriors as large as one series chunk
        step = max(1, SERIES_CHUNK_ROWS // K)
        for lo in range(0, dense_rows.size, step):
            idx = dense_rows[lo : lo + step]
            p = before[idx, :, None] * inner * after[idx, None, :]
            pair[1:] += np.log1p(-np.minimum(p, 1.0)).sum(axis=0)
    return pair, row


def _in_range(x):
    """Whether every entry lies in [RENORM_FLOOR, 1 / RENORM_FLOOR]; NaN does not."""
    return bool(np.all((x >= RENORM_FLOOR) & (x <= 1.0 / RENORM_FLOOR)))


def _recursion(params, tokens, n_at, stats, every):
    """(scales, posteriors, ok) of one slice, renormalizing every ``every`` positions.

    ``posteriors`` is None without ``stats``, else (alpha, right, unary,
    running) as the module docstring defines them.  ``ok`` is false when a
    factor or a running normalizer left [RENORM_FLOOR, 1 / RENORM_FLOOR],
    which a run with ``every`` = 1 does not check.
    """
    if not stats:
        scales = _forward(params, tokens, n_at, every)
        return scales, None, every == 1 or _in_range(scales)
    T, B = tokens.shape
    inner = params.trans[1:]
    # the gathered emissions obs_t; the backward sweep makes each row r_t = obs_t * b_t
    right = params.emit.T[tokens]
    alpha = np.zeros(right.shape)
    scales = _forward(params, tokens, n_at, every, alpha, right)
    running = np.arange(B) < n_at[:, None]
    beta = np.zeros(right.shape)
    beta[running.sum(axis=0) - 1, np.arange(B)] = 1.0
    inner_t = inner.T
    for t, n in zip(range(T - 1, 0, -1), n_at[:0:-1].tolist()):
        below = beta[t - 1, :n]
        np.dot(right[t, :n], inner_t, out=below)
        if (t - 1) % every == every - 1:
            below /= below.sum(axis=1)[:, None]
        right[t - 1, :n] *= below
    unary = np.multiply(alpha, beta, out=beta)
    norm = unary.sum(axis=2)
    ok = every == 1 or (_in_range(scales) and _in_range(norm[running]))
    # a padded position divides by inf, which zeroes its unary and right rows
    norm[~running] = np.inf
    unary /= norm[..., None]
    right /= (scales * norm)[..., None]
    return scales, (alpha, right, unary, running), ok


def _slice_sums(params, tokens, n_at, stats, absence):
    """Per-sequence log likelihoods of one slice and, if asked, its sums."""
    with np.errstate(all="ignore"):
        scales, posteriors, ok = _recursion(params, tokens, n_at, stats, RENORM_EVERY)
    if not ok:
        scales, posteriors, _ = _recursion(params, tokens, n_at, stats, 1)
    loglik = np.log(scales).sum(axis=0)
    if not stats:
        return loglik, ()
    alpha, right, unary, running = posteriors
    K = params.num_states
    inner = params.trans[1:]
    counts = np.empty((K + 1, K))
    counts[0] = unary[0].sum(axis=0)
    counts[1:] = inner * (alpha[:-1].reshape(-1, K).T @ right[1:].reshape(-1, K))
    # padded weights are +0.0, so leaving them out of the sums changes no bit
    on = np.flatnonzero(running)
    on_tokens = tokens.ravel()[on]
    weights = unary.reshape(-1, K)
    by_token = [
        np.bincount(on_tokens, weights=weights[:, k].take(on), minlength=params.vocab_size)
        for k in range(K)
    ]
    sums = (counts, np.stack(by_token))
    if absence:
        # forward rows summing to 1 keep the series in its range; right takes
        # the factor so that every pair posterior stays as it is
        row_sums = alpha.sum(axis=2)
        row_sums[~running] = 1.0
        alpha /= row_sums[..., None]
        right[1:] *= row_sums[:-1, :, None]
        sums += _absence(inner, alpha, right, unary, running)
    return loglik, sums


def sweep(params: SurrogateParams, batch, stats=True, absence=False) -> BatchSums:
    """Forward-backward over every sequence of ``batch``, summed.

    With ``stats`` false only the forward recursion runs and only the log
    likelihoods come back; ``absence`` adds the hierarchical prior's
    absence sums.  The slices' sums are added up in slice order.
    """
    loglik = np.empty(len(batch))
    total = None
    for cols, tokens, n_at in _slices(batch, params.vocab_size):
        loglik[cols], sums = _slice_sums(params, tokens, n_at, stats or absence, absence)
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return BatchSums(loglik, *total)
