"""Batched forward-backward over surrogate-parametrized chains.

One sweep runs the scaled recursion of Rabiner (1989) over a whole batch
of sequences against one frozen set of surrogate parameters and returns
batch sums.  The forward and backward vectors are renormalized often enough
to stay in ordinary floating point regardless of sequence length, and a
sequence's log likelihood is the sum of the log factors divided out.  State
0 is the start state; it emits nothing, nothing transitions back into it,
and its outgoing row is used only for the first step of a sequence.

The batch is read as (start, length) windows into one token array: a
``Corpus``'s own array, or a plain list of sequences copied into one first
(``corpus.as_windows``).  The array's tokens were range-checked where it
was made, so the sweep only compares its largest token with the
vocabulary size, once.  The windows are sorted by length, longest first,
and cut into slices, and each slice's packed tokens are one gather from
the array.  Every slice takes at most ``SLICE_SEQUENCES`` sequences, as
OpenBLAS multiplies by a K x K matrix about 1.4 times slower per row above
about 400 rows.  A slice that yields sums holds every position, so its
padded size (longest length x sequence count) stays within
``SLICE_POSITIONS``.  A forward-only slice holds the rows of
``RENORM_EVERY`` times at once and takes ``RENORM_EVERY`` times as many
padded positions, so long held-out chains sweep together.  A sequence
longer than a cap gets a slice of its own.

At time t only a slice's first n_t sequences are still running.  A slice
is laid out packed and time-major: it holds one row per running position,
and the block of time t holds the n_t rows of the sequences running at t
and starts at offset n_0 + ... + n_{t-1}.  Each step works on its block,
and the step to t reads the first n_t rows of the block of t - 1.  No
array of a sweep has a row for a padded position.

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
place, and the transition counts are inner * before^T after, one matrix
product; the pairwise posteriors are never stored.  ``after`` is the rows
of ``right`` at t >= 1, and ``before`` holds, row for row, the forward
row a_{t-1} of the same sequence: the first n_t rows of the block of
t - 1 of ``alpha`` for each t >= 1, moved to its front once per slice.

A product of R factors can underflow where one factor would not: a token
with emission 1e-90 under every state, repeated R = 8 times, is 1e-720, so
its sum reads 0 and its renormalization NaN.  If any f_t or any U_t is
not within [``RENORM_FLOOR``, 1 / ``RENORM_FLOOR``] (a NaN is not),
the slice is swept again by the same code with R = 1, the textbook
recursion.  The first attempt runs with floating point warnings off.

The hierarchical prior's pair absence sum, sum_t log(1 - p_tij) with pair
posterior p_tij = alpha[t-1, i] * inner[i, j] * right[t, j], is a power
series over matrix products in the same way.  It runs over the rows of
``before`` and ``after`` ``SERIES_CHUNK_ROWS`` at a time.  Within a chunk
each forward row alpha[t-1] is divided by its sum S_{t-1} and right[t]
multiplied by S_{t-1}.
That leaves every p_tij as it is, makes alpha[t-1] the normalized forward
vector (at most 1, as the bounds below need), and gives right[t] the scale
of the textbook recursion; without it right[t] would carry 1 / S_{t-1},
up to about 1e22 after 8 positions, and push positions onto the dense path
below.  Then

    sum_t log(1 - p_tij) = -sum_m c_m inner_ij^m (sum_t alpha^m[t-1]^T right^m[t])_ij,

with powers taken elementwise, one product per term, summed for m = 1 .. 9
with c_m = ``SERIES_COEFS``.  The m = 1 term needs no product of its own:
the scaling cancels in it, so it is the counts product before^T after, less
the share of the dense rows below.  The c_m are the Chebyshev economization
of the Taylor series of -log(1 - p) / p on [0, tau], tau = ``SERIES_BOUND``
= 1/16.  With
the coefficients as rounded, the series is exact to within 2.9e-17 of
|log(1 - p)| for p <= tau (the maximum over a fine grid, taken in exact
rationals).  The pair posterior sums over j to the marginal of i at t-1 and
over i to the marginal of j at t, so p_tij is at most the smaller of the
two, and only cells where both marginals exceed tau can exceed it.  A
marginal row sums to 1, so there are at most 15 such states on each side;
those few cells get log(1 - p) exactly, in place of their share of the
series, and a forced transition (p = 1) stays -inf.  Their p is the product
of the unscaled rows, as the dense path below and the every-cell reference
take it: near p = 1, log(1 - p) magnifies a rounding of p by 1 / (1 - p).
The forward vectors are at most 1 but right[t] is not bounded, so a
position whose scaled right[t] exceeds ``SERIES_RIGHT_MAX`` (where right^9
could overflow) is summed exactly over every cell instead.  The row absence
sum, of log(1 - unary) over the positions t - 1 that ``before`` holds, is
taken in one call over them, after the same in-place move of ``unary``.

A sweep keeps its slice arrays in three buffers held per thread, which
only grow, up to ``SLICE_POSITIONS`` x K doubles each (35 MB in all at
K = 45); a slice needs one row of K doubles per running position in each.
A stats sweep holds a slice's ``right``, ``alpha`` (later ``before``) and
``beta`` (later ``unary``) there.  ``right`` is filled by a gather of the
emission columns; every row of the other two is written before it is read,
so nothing is zeroed.  The forward-only sweep of evaluation holds the
blocks of ``RENORM_EVERY`` times of gathered emissions and those of two
times of running rows there, which its cap on sequences keeps within
``SLICE_POSITIONS`` rows.  Both run the one forward loop, over the
buffers they pass: a stats sweep's gather is the loop's one refill of a
block as long as the slice.  The gathers read a contiguous V x K copy of
the emission columns, made once per sweep.  An array larger than the
buffers may grow to (one sequence longer than ``SLICE_POSITIONS``) is
allocated apart.  Nothing else is kept between calls, and nothing a sweep
returns is a view of the buffers.

The reason is the allocator, not the copying.  Fresh arrays would be 1.8
MB each for a slice of 200 sequences and 5000 tokens at K = 45, under
numpy's 4 MB huge-page cut.  A process whose heap hands such blocks
back to the kernel faults in their pages again at every sweep, and which
process does so depends on its allocation history.  So no step makes a
temporary of a slice's size: ``before`` and the row sum's ``unary`` rows
are moved in place, ``GATHER_ROWS`` rows per step.  The absence sums still
allocate, per slice, two boolean masks of a slice's positions and the
codes and corrections of its hot cells, 16 bytes a cell; the arrays that
list the cells are made in runs of about ``SLICE_POSITIONS`` cells.
"""
import math
import threading
from dataclasses import dataclass

import numpy as np

from .corpus import RANGE_ERROR, as_windows

# padded positions (longest length x sequence count) of one slice
SLICE_POSITIONS = 2**15
# sequences of one slice, so a step multiplies at most this many rows
SLICE_SEQUENCES = 256
# positions per matrix product of the pair absence series
SERIES_CHUNK_ROWS = 256
# rows per step of the in-place gathers that line a slice's t - 1 rows up with its t rows
GATHER_ROWS = 256
# c_1 .. c_9 of log(1 - p) ~ -sum_m c_m p^m on [0, 1/16]: the Taylor series of
# -log(1 - p) / p economized to degree 8 in exact rationals, rounded to doubles
SERIES_COEFS = (
    1.0,
    0.4999999999999622,
    0.3333333333493981,
    0.24999999737535056,
    0.20000021442239943,
    0.16665685455646542,
    0.14311959261132798,
    0.1209490756002964,
    0.14399613095271455,
)
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


def _slices(batch, vocab_size, stats=True):
    """(batch positions, packed tokens, running count per time) per slice.

    ``batch`` is read as windows into one token array (``as_windows``), whose
    ``top`` is checked against ``vocab_size`` once; each slice's tokens are
    then one gather from that array.  They are packed time-major: the block
    of time t holds the tokens at t of the slice's first n_t sequences and
    starts at n_0 + ... + n_{t-1}.  A slice takes at most SLICE_SEQUENCES
    sequences and SLICE_POSITIONS padded positions, RENORM_EVERY times as
    many without ``stats``, and at least one sequence, however long.
    """
    batch = as_windows(batch)
    if not len(batch):
        raise ValueError("batch must not be empty")
    if batch.top >= vocab_size:
        raise ValueError(RANGE_ERROR)
    lengths = batch.lengths
    order = np.argsort(-lengths, kind="stable")
    budget = SLICE_POSITIONS if stats else RENORM_EVERY * SLICE_POSITIONS
    slices = []
    start = 0
    while start < len(batch):
        count = min(SLICE_SEQUENCES, budget // lengths[order[start]])
        cols = order[start : start + max(1, count)]
        lens = lengths[cols]
        # n_at[t] sequences are longer than t
        n_at = cols.size - np.cumsum(np.bincount(lens))[: lens[0]]
        # packed position p holds time t of sequence b = p - offset[t], token starts[b] + t
        time = np.repeat(np.arange(n_at.size), n_at)
        col = np.arange(time.size) - np.repeat(np.cumsum(n_at) - n_at, n_at)
        slices.append((cols, batch.tokens[batch.starts[cols][col] + time], n_at))
        start += cols.size
    return slices


def _forward(params, columns, tokens, n_at, every, rows, obs, steps=None):
    """(factors f_t, per-sequence log likelihoods) of the forward rows of one slice.

    A running row is renormalized at each position t with t % every ==
    every - 1 and at its last position; every other factor is 1.  The
    factors come back packed like ``tokens``, and the log likelihoods sum
    their logs in time order.  ``rows`` and ``obs`` hold the packed blocks
    of a run of times: with ``steps`` None the whole slice, so that one
    gather at t = 0 fills ``obs`` with every emission column and the forward
    vectors stay in ``rows``.  Evaluation passes ``steps`` = ``RENORM_EVERY``:
    ``obs`` then holds the blocks of ``steps`` times, refilled at each
    multiple of ``steps``, and ``rows`` those of two times in turn, so memory
    stays O(T x B).  A buffer that holds s times keeps the block of time t at
    offset[t] - offset[t - t % s].  The block length does not follow the
    cadence: the ``every`` = 1 retry keeps its block, and as the gathers only
    copy, no bit depends on it.
    """
    inner = params.trans[1:]
    sizes = n_at.tolist()
    T = len(sizes)
    offsets = [0, *np.cumsum(n_at).tolist()]
    depth, width = (T, T) if steps is None else (2, steps)
    scales = np.ones(tokens.size)
    # rows ends[t] .. n_at[t] - 1 have their last position at t
    ends = sizes[1:] + [0]
    prev = None
    for t, n in enumerate(sizes):
        at = offsets[t]
        if t % width == 0:
            span = tokens[at : offsets[min(t + width, T)]]
            # _slices has checked the tokens; "clip" lets take write into out without a copy
            np.take(columns, span, axis=0, mode="clip", out=obs[: span.size])
        in_rows, in_obs = at - offsets[t - t % depth], at - offsets[t - t % width]
        head = rows[in_rows : in_rows + n]
        if t:
            np.dot(prev[:n], inner, out=head)
            head *= obs[in_obs : in_obs + n]
        else:
            np.multiply(params.trans[0], obs[:n], out=head)
        lo = 0 if t % every == every - 1 else ends[t]
        if lo < n:
            factor = head[lo:].sum(axis=1, out=scales[at + lo : at + n])
            head[lo:] /= factor[:, None]
        prev = head
    # packed position p holds sequence p - offset[t]; bincount adds in time order
    seq = np.arange(tokens.size)
    seq -= np.repeat(np.cumsum(n_at) - n_at, n_at)
    return scales, np.bincount(seq, weights=np.log(scales))


def _series(p):
    """-sum_m SERIES_COEFS[m - 1] p^m, the series' log(1 - p), by Horner's rule."""
    acc = np.full_like(p, SERIES_COEFS[-1])
    for coef in SERIES_COEFS[-2::-1]:
        acc = acc * p + coef
    return -p * acc


def _exact_cells(hot_before, hot_after):
    """(row, i, j) of every cell with hot_before[row, i] and hot_after[row, j], in runs.

    The cells come in (row, i, j) order, cut into runs of about
    SLICE_POSITIONS cells, so that the arrays that list them stay that long.
    """
    K = hot_before.shape[1]
    rows_i, cols_i = np.divmod(np.flatnonzero(hot_before), K)
    rows_j, cols_j = np.divmod(np.flatnonzero(hot_after), K)
    # the hot j of each row sit together in cols_j; pair each hot i with them
    per_row = np.bincount(rows_j, minlength=hot_before.shape[0])
    first_j = np.cumsum(per_row) - per_row
    reps = per_row[rows_i]
    cuts = np.searchsorted(np.cumsum(reps), np.arange(SLICE_POSITIONS, reps.sum(), SLICE_POSITIONS))
    bounds = [0, *cuts.tolist(), reps.size]
    # a generator keeps its locals until it ends; drop those the runs do not read
    del rows_j, per_row
    for lo, hi in zip(bounds, bounds[1:]):
        run = reps[lo:hi]
        offsets = np.arange(run.sum()) - np.repeat(np.cumsum(run) - run, run)
        yield (
            np.repeat(rows_i[lo:hi], run),
            np.repeat(cols_i[lo:hi], run),
            cols_j[np.repeat(first_j[rows_i[lo:hi]], run) + offsets],
        )


def _leading_rows(x, n_at):
    """Rows (t - 1, b < n_t) of packed ``x`` for t >= 1, in time order, moved in place to its front.

    These are the rows of each time whose sequence runs on to the next; the
    view of them that comes back is all of ``x`` that still holds its rows.
    """
    # row k comes from row k + shift[k], and shift never falls, so a step
    # reads only rows that no earlier step has written
    shift = np.repeat(n_at[0] - n_at[:-1], n_at[1:])
    for lo in range(np.searchsorted(shift, 0, side="right"), shift.size, GATHER_ROWS):
        src = np.arange(lo, min(lo + GATHER_ROWS, shift.size))
        x[lo : lo + src.size] = x[src + shift[lo : lo + src.size]]
    return x[: shift.size]


def _absence(inner, before, after, unary, n_at, product):
    """Pair and row absence sums of one slice; see the module docstring.

    ``before`` and ``after`` hold alpha[t - 1] and right[t] of each
    sequence running at t >= 1, row for row, and ``product`` is
    before^T after.  ``unary`` is packed and is overwritten.
    """
    K = inner.shape[0]
    pair = np.zeros((K + 1, K))
    row = np.empty(K + 1)
    first = int(n_at[0])
    hot_after = unary[first:] > SERIES_BOUND
    with np.errstate(divide="ignore"):
        pair[0] = np.log1p(-np.minimum(unary[:first], 1.0)).sum(axis=0)
        # every sequence leaves the start state at its first position
        row[0] = -np.inf
        logs = _leading_rows(unary, n_at)
        hot_before = logs > SERIES_BOUND
        # log1p(-min(u, 1)) in place, summed over positions in one call
        np.minimum(logs, 1.0, out=logs)
        np.negative(logs, out=logs)
        row[1:] = np.log1p(logs, out=logs).sum(axis=0)

    powers = np.zeros((len(SERIES_COEFS), K, K))
    # the m = 1 term is the counts product, less the dense rows below
    powers[0] = product
    # whether each row is summed exactly over every cell
    dense = np.zeros(len(before), dtype=bool)
    for lo in range(0, len(before), SERIES_CHUNK_ROWS):
        chunk = slice(lo, lo + SERIES_CHUNK_ROWS)
        sums = before[chunk].sum(axis=1)[:, None]
        a = before[chunk] / sums
        r = after[chunk] * sums
        if r.max() > SERIES_RIGHT_MAX:
            np.greater(r.max(axis=1), SERIES_RIGHT_MAX, out=dense[chunk])
            # zero rows add nothing to the series, and right^m of a dense row could overflow
            a[dense[chunk]] = 0.0
            r[dense[chunk]] = 0.0
        a_m, r_m = a * a, r * r
        for m in range(1, len(SERIES_COEFS)):
            if m > 1:
                a_m *= a
                r_m *= r
            powers[m] += a_m.T @ r_m
    dense_rows = np.flatnonzero(dense)
    if dense_rows.size:
        powers[0] -= before[dense_rows].T @ after[dense_rows]
    inner_m = inner.copy()
    for m, coef in enumerate(SERIES_COEFS):
        if m:
            inner_m *= inner
        pair[1:] -= inner_m * coef * powers[m]

    hot_after[dense] = False
    # the hot cells' codes i * K + j and corrections, run by run in position order
    cells, exact = [], []
    for at, i, j in _exact_cells(hot_before, hot_after):
        p = before[at, i] * inner[i, j] * after[at, j]
        with np.errstate(divide="ignore"):
            exact.append(np.log1p(-np.minimum(p, 1.0)) - _series(p))
        cells.append(i * K + j)
    # one sum over every run's cells, in the order of one pass over the slice; the
    # runs' codes go before the corrections are joined, so two copies never meet
    codes = np.concatenate(cells)
    cells.clear()
    pair[1:] += np.bincount(codes, weights=np.concatenate(exact), minlength=K * K).reshape(K, K)
    with np.errstate(divide="ignore"):
        # a block of pair posteriors as large as one series chunk
        step = max(1, SERIES_CHUNK_ROWS // K)
        for lo in range(0, dense_rows.size, step):
            idx = dense_rows[lo : lo + step]
            p = before[idx, :, None] * inner * after[idx, None, :]
            pair[1:] += np.log1p(-np.minimum(p, 1.0)).sum(axis=0)
    return pair, row


_held = threading.local()


def _held_arrays(*shapes):
    """Views of this thread's held buffers, one per shape (at most three, each ending in K).

    The buffers only grow, up to SLICE_POSITIONS x K entries each; a larger
    array (one sequence longer than SLICE_POSITIONS) is allocated apart.
    """
    if not hasattr(_held, "buffers"):
        _held.buffers = [np.empty(0)] * 3
    views = []
    for k, shape in enumerate(shapes):
        size = math.prod(shape)
        buf = _held.buffers[k]
        if buf.size < size:
            buf = np.empty(size)
            if size <= SLICE_POSITIONS * shape[-1]:
                _held.buffers[k] = buf
        views.append(buf[:size].reshape(shape))
    return views


def _in_range(x):
    """Whether every entry lies in [RENORM_FLOOR, 1 / RENORM_FLOOR]; NaN does not."""
    return bool(np.all((x >= RENORM_FLOOR) & (x <= 1.0 / RENORM_FLOOR)))


def _recursion(params, columns, tokens, n_at, stats, every):
    """(log likelihoods, posteriors, ok) of one slice, renormalizing every ``every`` positions.

    ``posteriors`` is None without ``stats``, else the packed (alpha,
    right, unary) the module docstring defines.  ``ok`` is false when a
    factor or a normalizer left [RENORM_FLOOR, 1 / RENORM_FLOOR], which a
    run with ``every`` = 1 does not check.
    """
    K = params.num_states
    if not stats:
        steps = RENORM_EVERY
        obs, rows = _held_arrays((n_at[:steps].sum(), K), (n_at[:2].sum(), K))
        scales, loglik = _forward(params, columns, tokens, n_at, every, rows, obs, steps)
        return loglik, None, every == 1 or _in_range(scales)
    right, alpha, beta = _held_arrays(*[(tokens.size, K)] * 3)
    # the forward sweep gathers the emissions obs_t into right; the backward
    # sweep makes each row r_t = obs_t * b_t
    scales, loglik = _forward(params, columns, tokens, n_at, every, alpha, right)
    sizes = n_at.tolist()
    offsets = [0, *np.cumsum(n_at).tolist()]
    inner_t = params.trans[1:].T
    # every sequence running at the last time ends there
    beta[offsets[-2] :] = 1.0
    for t in range(len(sizes) - 1, 0, -1):
        n, lo, hi = sizes[t], offsets[t - 1], offsets[t]
        below = beta[lo : lo + n]
        np.dot(right[hi : hi + n], inner_t, out=below)
        if (t - 1) % every == every - 1:
            below /= below.sum(axis=1)[:, None]
        if lo + n < hi:
            # the sequences whose last position is t - 1
            beta[lo + n : hi] = 1.0
        right[lo : lo + n] *= below
    unary = np.multiply(alpha, beta, out=beta)
    norm = unary.sum(axis=1)
    ok = every == 1 or (_in_range(scales) and _in_range(norm))
    unary /= norm[:, None]
    norm *= scales
    right /= norm[:, None]
    return loglik, (alpha, right, unary), ok


def _slice_sums(params, columns, tokens, n_at, stats, absence):
    """Per-sequence log likelihoods of one slice and, if asked, its sums."""
    with np.errstate(all="ignore"):
        loglik, posteriors, ok = _recursion(params, columns, tokens, n_at, stats, RENORM_EVERY)
    if not ok:
        loglik, posteriors, _ = _recursion(params, columns, tokens, n_at, stats, 1)
    if not stats:
        return loglik, ()
    alpha, right, unary = posteriors
    K = params.num_states
    inner = params.trans[1:]
    first = int(n_at[0])
    # the pair term at t >= 1 meets alpha[t - 1] and right[t] of each sequence running at t
    before, after = _leading_rows(alpha, n_at), right[first:]
    product = before.T @ after
    counts = np.empty((K + 1, K))
    counts[0] = unary[:first].sum(axis=0)
    counts[1:] = inner * product
    by_token = [
        np.bincount(tokens, weights=unary[:, k], minlength=params.vocab_size) for k in range(K)
    ]
    sums = (counts, np.stack(by_token))
    if absence:
        sums += _absence(inner, before, after, unary, n_at, product)
    return loglik, sums


def sweep(params: SurrogateParams, batch, stats=True, absence=False) -> BatchSums:
    """Forward-backward over every sequence of ``batch``, summed.

    ``batch`` is a ``Corpus``, its ``windows``, or a list of token sequences,
    which is copied into the same layout first.  With ``stats`` false only
    the forward recursion runs and only the log likelihoods come back;
    ``absence`` adds the hierarchical prior's absence sums.  The slices'
    sums are added up in slice order.
    """
    batch = as_windows(batch)
    loglik = np.empty(len(batch))
    total = None
    # row v is the emission column of token v, contiguous for the gathers
    columns = np.ascontiguousarray(params.emit.T)
    stats = stats or absence
    for cols, tokens, n_at in _slices(batch, params.vocab_size, stats):
        loglik[cols], sums = _slice_sums(params, columns, tokens, n_at, stats, absence)
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return BatchSums(loglik, *total)
