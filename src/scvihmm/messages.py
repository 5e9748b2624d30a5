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
``SLICE_POSITIONS``.  A forward-only slice holds only a block of
gathered emissions and two times of rows at once, so it takes
``RENORM_EVERY`` times as many padded positions, and long held-out chains
sweep together.  A sequence longer than a cap gets a slice of its own.

At time t only a slice's first n_t sequences are still running.  A slice
is laid out packed and time-major: it holds one row per running position,
and the block of time t holds the n_t rows of the sequences running at t
and starts at offset n_0 + ... + n_{t-1}.  Each step works on its block,
and the step to t reads the first n_t rows of the block of t - 1.  No
array of a sweep has a row for a padded position.

The blocks of a run of times with one running count n are equal and lie
end to end, so one 3-D view of a run yields them one by one.  The forward
and backward loops step through a run by those views: a step is one
``np.dot`` into its block and one ``np.multiply`` into a block, both with
``out=``, with no index arithmetic and no temporary array.  A run of one
time is stepped through two slices instead, no dearer than a view.  A
long chain is where this shows: at 4 or 8 rows a step is numpy call
overhead, not arithmetic.  At K = 45, one BLAS thread, a forward step
costs 2.2 µs at 4 rows and 2.9 µs at 8 (2.9 and 3.7 µs with the per-time
slicing before), against 1.5 and 2.0 µs for a bare loop of the two calls
over prebuilt views.

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

The posteriors then follow from whole-array operations over a block of
times at a time (below).  With

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
t - 1 of ``alpha`` for each t >= 1.

Only ``alpha`` spans a stats slice.  Its backward pass walks the slice in
blocks of whole times, last block first, and holds one block of ``right``
and of b_t at a time.  A block takes about ``BLOCK_DOUBLES`` doubles of
rows, which fit a 2 MB L2 cache with the block's ``alpha`` rows, or
``BLOCK_TIMES`` times of the slice's first running count where those are
more, so that a slice of short sequences is one block.  The forward loop
gathers the emissions of the same blocks ahead of its steps.  The backward
pass regathers each block's emissions, steps through its times, forms its
``unary`` and divides its ``right`` by f_t U_t, and then adds the block's
sums: the start row of the counts, the counts product before^T after, the
token counts and, with absence sums, the row sums, the series powers, the
hot-cell corrections and the dense rows below.  The block of times a to
b - 1 reduces the pair terms at a + 1 to b.  The one at b straddles
the block's edge and reads the rows of time b, which the later block
leaves in a carry of n_b <= ``SLICE_SEQUENCES`` rows: r_b before its
division, where the step into b - 1 starts, and right[b] and unary[b]
after it.
``before`` is the block's forward rows, each time's first n_{t+1} moved to
the front in place.  A slice that fits one block does the arithmetic of
a whole-slice pass; over several, the sums add up block by block, in
another order, and move by rounding only.

A product of R factors can underflow where one factor would not: a token
with emission 1e-90 under every state, repeated R = 8 times, is 1e-720, so
its sum reads 0 and its renormalization NaN.  If any f_t or any U_t is
not within [``RENORM_FLOOR``, 1 / ``RENORM_FLOOR``] (a NaN is not),
the slice is swept again by the same code with R = 1, the textbook
recursion.  The factors are checked before the backward pass and each
block's U_t before its sums are added; a failed attempt drops the sums of
the blocks before it.  The first attempt runs with floating point warnings
off.

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
taken in one call over a block's, after the same in-place move of
``unary``.

A sweep keeps its arrays in four buffers held per thread, which only
grow.  A stats sweep holds there a slice's ``alpha``, one row of K
doubles per running position, up to ``SLICE_POSITIONS`` x K doubles (11.8
MB at K = 45); a block's ``right`` and ``beta`` (later ``unary``), each
up to the larger of ``BLOCK_DOUBLES`` and ``BLOCK_TIMES`` x
``SLICE_SEQUENCES`` x K doubles, and no more than the slice's positions x K
(2.9 MB at K = 45, 0.5 MB for any K below 8); and the carry, 3 x
``SLICE_SEQUENCES`` x K doubles at most.  ``right`` is filled by a gather
of the emission columns; every row of the others is written before it is
read, so nothing is zeroed.  The forward-only sweep of evaluation
holds there a block of gathered emissions, as many whole times as fit
``RENORM_EVERY`` x ``SLICE_SEQUENCES`` = 2,048 rows (8 times of a slice
of 256 sequences, 256 times of 8 long chains), and the running rows of
two times in turn.  Both run the one forward loop, each over the blocks of
its own plan, and the plan, a slice's runs and blocks, is made once for
both loops of a slice.  The gathers read a contiguous V x K copy of the
emission columns, made once per sweep.  An array larger than the buffers
may grow to (one sequence longer than ``SLICE_POSITIONS``) is allocated
apart.  Nothing else is kept between calls, and nothing a sweep returns
is a view of the buffers.

The reason is the allocator, not the copying.  Fresh arrays would be 1.8
MB each for a slice of 200 sequences and 5000 tokens at K = 45, under
numpy's 4 MB huge-page cut.  A process whose heap hands such blocks
back to the kernel faults in their pages again at every sweep, and which
process does so depends on its allocation history.  So no step makes a
temporary of a slice's size, and none of a block's size but the absence
sums' masks: ``before`` and the row sum's ``unary`` rows are moved in
place, ``GATHER_ROWS`` rows per step, and the token counts take a
bincount per state.  The absence sums allocate, per block, two boolean
masks of a block's positions and the codes and corrections of its hot
cells, 16 bytes a cell; the arrays that list the cells are made in runs of
about ``BLOCK_DOUBLES`` / 16 cells.  A stats sweep of 4 chains of 6,000
tokens at K = 45, buffers grown afresh, peaks at 2.0 MiB (with absence
sums 2.7 MiB) above its 8.2 MiB ``alpha``; a backward pass over the whole
slice took 26.0 and 36.7 MiB in all.
"""
import array
import bisect
import itertools
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
# doubles per block array of a stats slice's backward pass, so that a block fits a 2 MB L2 cache
BLOCK_DOUBLES = 2**16
# times of its slice's first running count that a block's rows take at least (2 or more, for
# the carry): a block costs about 0.1 ms besides its steps, which 32 times of 200 rows make small
BLOCK_TIMES = 32
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


def _plan(n_at, capacity):
    """(sizes, offsets, runs, fills) of one slice, which its forward and backward loops share.

    ``sizes`` lists each n_t and ``offsets`` the packed offset of each time,
    with the slice's size last.  ``runs`` lists 0 and each time t at which
    n_t differs from n_{t-1}.  ``fills`` lists the first time of each block:
    a block holds as many whole times as fit ``capacity`` rows, and at least
    one.
    """
    sizes = n_at.tolist()
    # machine integers: a list would hold an int object of 32 bytes per time
    offsets = array.array("q", [0])
    offsets.frombytes(np.cumsum(n_at, dtype=np.int64).tobytes())
    runs = [0, *(np.flatnonzero(n_at[1:] != n_at[:-1]) + 1).tolist()]
    fills = [0]
    while offsets[fills[-1]] + capacity < offsets[-1]:
        # a block shorter than one time's rows fails the gather rather than loop here
        past = bisect.bisect_right(offsets, offsets[fills[-1]] + capacity) - 1
        fills.append(max(past, fills[-1] + 1))
    return sizes, offsets, runs, fills


def _forward(params, columns, tokens, plan, every, rows, obs):
    """(factors f_t, per-sequence log likelihoods) of the forward rows of one slice.

    A running row is renormalized at each position t with t % every ==
    every - 1 and at its last position; every other factor is 1.  The
    factors come back packed like ``tokens``, and the log likelihoods sum
    their logs in time order.  ``obs`` takes the packed emissions of one
    block of the ``plan`` at a time, refilled by one gather at the block's
    first time: a stats sweep's blocks are those its backward pass reduces,
    about ``BLOCK_DOUBLES`` doubles each, and evaluation's hold 2,048 rows,
    256 times of 8 long chains.  ``rows`` holds the forward rows of every
    time if it has a row per position, else those of two times in turn, the
    block of time t at (t % 2) x n_0, so memory stays O(T x B).  No bit
    depends on either buffer's length, as the gathers only copy.

    The loop goes span by span: a run of times of one running count n
    within one block; time 0 is a span of its own.  A span's row and
    emission blocks are the views a 3-D view of it yields, one a step, so a
    step is one matrix product into its row block and one in-place product
    with its emission block, with no index arithmetic: about 2.2 µs at 4
    rows and K = 45, against 1.5 µs for the two calls alone (module
    docstring).  Rows are renormalized at the cadence positions and at the
    span's last time.
    """
    inner = params.trans[1:]
    K = inner.shape[0]
    sizes, offsets, runs, fills = plan
    T = len(sizes)
    scales = np.ones(tokens.size)
    # rows ends[t] .. n_at[t] - 1 have their last position at t
    ends = sizes[1:] + [0]
    n0, ring = sizes[0], len(rows) < tokens.size
    # time 0, whose step differs, is a span of its own
    cuts = sorted({1, *runs, *fills} - {T}) + [T]
    refills = iter(fills[1:] + [T])
    dot, mul, islice = np.dot, np.multiply, itertools.islice
    refill = base = 0
    for a, b in zip(cuts, cuts[1:]):
        n, at = sizes[a], offsets[a]
        if a == refill:
            base, refill = at, next(refills)
            span = tokens[at : offsets[refill]]
            # _slices has checked the tokens; "clip" lets take write into out without a copy
            np.take(columns, span, axis=0, mode="clip", out=obs[: span.size])
        emitted = obs[at - base : at - base + (b - a) * n]
        if b - a == 1:
            head = rows[a % 2 * n0 : a % 2 * n0 + n] if ring else rows[at : at + n]
            if a:
                dot(prev[:n], inner, head)
                mul(head, emitted, head)
            else:
                mul(params.trans[0], emitted, head)
            prev = head
        else:
            if ring:
                even, odd = rows[:n], rows[n0 : n0 + n]
                heads = itertools.cycle((odd, even) if a % 2 else (even, odd))
            else:
                heads = rows[at : at + (b - a) * n].reshape(b - a, n, K)
            steps = zip(heads, emitted.reshape(b - a, n, K))
            prev, t = prev[:n], a
            # the cadence positions before the span's last time
            for mark in range(a + (every - 1 - a) % every, b - 1, every):
                for head, ob in islice(steps, mark + 1 - t):
                    dot(prev, inner, head)
                    mul(head, ob, head)
                    prev = head
                _renormalize(prev, scales[offsets[mark] : offsets[mark] + n])
                t = mark + 1
            for head, ob in steps:
                dot(prev, inner, head)
                mul(head, ob, head)
                prev = head
        # the span's last time renormalizes all rows at the cadence, else those that end there
        lo = 0 if (b - 1) % every == every - 1 else ends[b - 1]
        if lo < n:
            _renormalize(prev[lo:], scales[offsets[b - 1] + lo : offsets[b]])
    # only renormalized positions have a factor other than 1, and adding log 1 = 0
    # moves no sum; packed position p at time t holds sequence p - offsets[t], and
    # bincount adds in time order
    at = (scales != 1.0).nonzero()[0]
    starts = np.frombuffer(offsets, np.int64)
    seq = at - starts[np.searchsorted(starts[1:], at, side="right")]
    return scales, np.bincount(seq, weights=np.log(scales[at]), minlength=n0)


def _renormalize(x, sums):
    """Divide each row of ``x`` in place by its sum, written into ``sums``."""
    np.divide(x, np.add.reduce(x, 1, None, sums)[:, None], x)


def _backward(params, plan, every, a, b, right, beta, src, sums):
    """Write the backward rows b_t of times a .. b - 1 into ``beta`` and turn ``right`` into r_t.

    The times are one block of the ``plan``, packed from row 0 of each
    buffer.  ``right`` comes in holding their emissions obs_t and leaves
    holding r_t = obs_t * b_t; ``src`` holds r_b of the next block, or is
    None for the slice's last block.  A row b_t is divided by its own sum,
    written into ``sums``, at each t with t % every == every - 1, between
    its matrix product and its product into ``right``.  The loop goes run
    by run, last run first, over the runs s .. e - 1 of one running count m
    within the block.  The step to t reads all of the rows of t + 1, which
    the step before it finished, and writes the first n_{t+1} rows of the
    block of t.  The step to e - 1 reads the narrower rows of e, or ``src``,
    and is taken alone; those to e - 2 .. s step through the views of
    reversed 3-D views of the run.
    """
    K = params.num_states
    inner_t = params.trans[1:].T
    sizes, offsets, runs, _ = plan
    T = len(sizes)
    dot, mul, islice = np.dot, np.multiply, itertools.islice
    starts = [a, *runs[bisect.bisect_right(runs, a) : bisect.bisect_left(runs, b)]]
    base = offsets[a]
    for s, e in zip(starts[::-1], [b, *starts[:0:-1]]):
        m, top = sizes[s], offsets[e - 1] - base
        if e < T:
            n = sizes[e]
            row, target = beta[top : top + n], right[top : top + n]
            dot(src, inner_t, row)
            if (e - 1) % every == every - 1:
                _renormalize(row, sums[:n])
            mul(target, row, target)
            # the sequences whose last position is e - 1
            beta[top + n : top + m] = 1.0
        else:
            # every sequence running at the last time ends there
            beta[top : top + m] = 1.0
        src = right[top : top + m]
        if e - s == 1:
            continue
        steps = zip(*(x[offsets[s] - base : top].reshape(e - 1 - s, m, K)[::-1] for x in (beta, right)))
        t = e - 2
        for mark in range((e - 1) // every * every - 1, s - 1, -every):
            for row, target in islice(steps, t - mark):
                dot(src, inner_t, row)
                mul(target, row, target)
                src = target
            row, target = next(steps)
            dot(src, inner_t, row)
            _renormalize(row, sums[:m])
            mul(target, row, target)
            src, t = target, mark - 1
        for row, target in steps:
            dot(src, inner_t, row)
            mul(target, row, target)
            src = target


def _series(p):
    """-sum_m SERIES_COEFS[m - 1] p^m, the series' log(1 - p), by Horner's rule."""
    acc = np.full_like(p, SERIES_COEFS[-1])
    for coef in SERIES_COEFS[-2::-1]:
        acc *= p
        acc += coef
    acc *= p
    return np.negative(acc, out=acc)


def _exact_cells(hot_before, hot_after):
    """(row, i, j) of every cell with hot_before[row, i] and hot_after[row, j], in runs.

    The cells come in (row, i, j) order, cut into runs of about
    BLOCK_DOUBLES / 16 cells, so that the dozen arrays a run makes take
    about one block array.
    """
    K, step = hot_before.shape[1], max(1, BLOCK_DOUBLES // 16)
    rows_i, cols_i = np.divmod(np.flatnonzero(hot_before), K)
    rows_j, cols_j = np.divmod(np.flatnonzero(hot_after), K)
    # the hot j of each row sit together in cols_j; pair each hot i with them
    per_row = np.bincount(rows_j, minlength=hot_before.shape[0])
    first_j = np.cumsum(per_row) - per_row
    reps = per_row[rows_i]
    cuts = np.searchsorted(np.cumsum(reps), np.arange(step, reps.sum(), step))
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


def _series_terms(inner, before, after, product):
    """(the pair absence series over the rows of ``before`` and ``after``, the dense rows).

    The dense rows, whose scaled right factor exceeds SERIES_RIGHT_MAX, add
    nothing to the series; ``_absence`` sums them over every cell.  Each
    chunk's temporaries go when this returns.
    """
    K = inner.shape[0]
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
    series = np.zeros((K, K))
    inner_m = inner.copy()
    for m, coef in enumerate(SERIES_COEFS):
        if m:
            inner_m *= inner
        series -= inner_m * coef * powers[m]
    return series, dense_rows


def _absence(inner, before, after, unary, n_at, product):
    """Pair and row absence sums of one block of a slice; see the module docstring.

    ``before`` and ``after`` hold alpha[t - 1] and right[t] of each
    sequence running at t, for the block's pair terms, row for row, and
    ``product`` is before^T after.  ``unary`` is packed like ``n_at``, the
    block's times and then the first time of the next, and is overwritten.
    The start row of the pair sum reads the block's first time.
    """
    K = inner.shape[0]
    pair = np.zeros((K + 1, K))
    row = np.empty(K + 1)
    first = int(n_at[0])
    # the series first, so that its chunks and the hot masks never meet
    pair[1:], dense_rows = _series_terms(inner, before, after, product)
    hot_after = unary[first:] > SERIES_BOUND
    hot_after[dense_rows] = False
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
    # the hot cells' codes i * K + j and corrections, run by run in position order
    cells, exact = [], []
    for at, i, j in _exact_cells(hot_before, hot_after):
        p = before[at, i] * inner[i, j] * after[at, j]
        series = _series(p)
        # log1p(-min(p, 1)) - series in place
        np.minimum(p, 1.0, out=p)
        np.negative(p, out=p)
        with np.errstate(divide="ignore"):
            np.log1p(p, out=p)
        exact.append(np.subtract(p, series, out=p))
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
    """Views of this thread's held buffers, one per shape (at most four, each ending in K).

    The buffers only grow, up to SLICE_POSITIONS x K entries each; a larger
    array (one sequence longer than SLICE_POSITIONS) is allocated apart.
    """
    if not hasattr(_held, "buffers"):
        _held.buffers = [np.empty(0)] * 4
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
    """Whether every entry lies in [RENORM_FLOOR, 1 / RENORM_FLOOR]; NaN does not.

    A NaN entry makes both extremes NaN, and every comparison with NaN is false.
    """
    return bool(RENORM_FLOOR <= x.min() and x.max() <= 1.0 / RENORM_FLOOR)


def _recursion(params, columns, tokens, n_at, stats, absence, every):
    """(log likelihoods, sums, ok) of one slice, renormalizing every ``every`` positions.

    ``sums`` is () without ``stats``, else the slice's (counts,
    token_stats), and with ``absence`` its (absence_pair, absence_row)
    after them.  ``ok`` is false when a factor or a normalizer left
    [RENORM_FLOOR, 1 / RENORM_FLOOR], which a run with ``every`` = 1 does
    not check; the sums are then ().

    A stats slice keeps its forward rows ``alpha`` whole.  The backward pass
    walks the blocks of the plan last first, each in block-sized ``right``
    and ``beta``: it regathers the block's emissions (the last block's are
    still there from the forward loop), runs the backward loop over them,
    forms the block's ``unary`` and divides its ``right`` by f_t U_t, and
    adds the block's sums (``_block_sums``).  The rows of the next block's
    first time b come from the carry, r_b before its division as the
    backward loop's start, and right[b] and unary[b] behind the block's own
    rows.
    """
    K = params.num_states
    n0 = int(n_at[0])
    # the first attempt runs with floating point warnings off
    quiet = "ignore" if every != 1 else None
    if not stats:
        block = min(tokens.size, RENORM_EVERY * SLICE_SEQUENCES)
        plan = _plan(n_at, block)
        obs, rows = _held_arrays((block, K), (sum(plan[0][:2]), K))
        with np.errstate(all=quiet):
            scales, loglik = _forward(params, columns, tokens, plan, every, rows, obs)
        return loglik, (), every == 1 or _in_range(scales)
    # rows for a block of whole times and, behind it, the first time of the next
    width = max(BLOCK_DOUBLES // K, BLOCK_TIMES * n0)
    plan = _plan(n_at, width - n0)
    sizes, offsets, _, fills = plan
    T = len(sizes)
    block = (min(width, tokens.size), K)
    # r_b before and after its division by f_b U_b, and the unary rows of b
    alpha, right, beta, carry = _held_arrays((tokens.size, K), block, block, (3 * n0, K))
    carry = carry.reshape(3, n0, K)
    with np.errstate(all=quiet):
        # the forward loop gathers each block's emissions into right; the last stays there
        scales, loglik = _forward(params, columns, tokens, plan, every, alpha, right)
    if not (every == 1 or _in_range(scales)):
        return loglik, (), False
    renorms = np.empty(n0)
    # -0.0 + x is x for every x, so a one-block slice keeps the bits of a whole-slice pass
    shapes = [(K + 1, K), (K, params.vocab_size)] + [(K + 1, K), (K + 1,)] * absence
    sums = tuple(np.full(shape, -0.0) for shape in shapes)
    for a, b in reversed(list(zip(fills, fills[1:] + [T]))):
        lo, hi = offsets[a], offsets[b]
        size = hi - lo
        if b < T:
            np.take(columns, tokens[lo:hi], axis=0, mode="clip", out=right[:size])
            n = sizes[b]
            right[size : size + n] = carry[1, :n]
            beta[size : size + n] = carry[2, :n]
        with np.errstate(all=quiet):
            _backward(params, plan, every, a, b, right, beta, carry[0, :n] if b < T else None, renorms)
            if a:
                carry[0, : sizes[a]] = right[: sizes[a]]
            unary = np.multiply(alpha[lo:hi], beta[:size], out=beta[:size])
            norm = unary.sum(axis=1)
            if not (every == 1 or _in_range(norm)):
                return loglik, (), False
            unary /= norm[:, None]
            norm *= scales[lo:hi]
            right[:size] /= norm[:, None]
        if a:
            carry[1, : sizes[a]] = right[: sizes[a]]
            carry[2, : sizes[a]] = unary[: sizes[a]]
        end = size + (sizes[b] if b < T else 0)
        block_rows = alpha[lo:hi], right[:end], beta[:end]
        _block_sums(params, tokens[lo:hi], n_at[a : b + 1], *block_rows, sums, a == 0)
    return loglik, sums, True


def _block_sums(params, tokens, n_at, alpha, right, unary, sums, start):
    """Add the sums of one block of a stats slice into ``sums``, in place.

    The block holds times a .. b - 1 and the pair terms at a + 1 .. b (at
    most T - 1); ``n_at`` holds n_a .. n_b, or n_a .. n_{T-1} for the last
    block.  ``alpha`` holds the block's forward rows, and ``right`` and
    ``unary`` its rows and then those of b.  ``sums`` holds (counts,
    token_stats) and, for absence sums, (absence_pair, absence_row).  Their
    start rows sum over time 0, so only the block that holds it (``start``)
    adds to them.  ``alpha`` and ``unary`` are overwritten.
    """
    inner = params.trans[1:]
    first = int(n_at[0])
    counts, token_stats = sums[:2]
    rows = slice(0 if start else 1, None)
    # the pair term at t meets alpha[t - 1] and right[t] of each sequence running at t
    before, after = _leading_rows(alpha, n_at), right[first:]
    product = before.T @ after
    if start:
        counts[0] += unary[:first].sum(axis=0)
    counts[1:] += inner * product
    # bincount adds each (state, token) cell's positions in order from 0
    for k, row in enumerate(token_stats):
        row += np.bincount(tokens, weights=unary[: tokens.size, k], minlength=row.size)
    if len(sums) > 2:
        for total, part in zip(sums[2:], _absence(inner, before, after, unary, n_at, product)):
            total[rows] += part[rows]


def _slice_sums(params, columns, tokens, n_at, stats, absence):
    """Per-sequence log likelihoods of one slice and, if asked, its sums."""
    loglik, sums, ok = _recursion(params, columns, tokens, n_at, stats, absence, RENORM_EVERY)
    if not ok:
        loglik, sums, _ = _recursion(params, columns, tokens, n_at, stats, absence, 1)
    return loglik, sums


def sweep(params: SurrogateParams, batch, stats=True, absence=False) -> BatchSums:
    """Forward-backward over every sequence of ``batch``, summed.

    ``batch`` is a ``Corpus``, its ``windows``, or a list of token sequences,
    which is copied into the same layout first.  With ``stats`` false only
    the forward recursion runs and only the log likelihoods come back;
    ``absence`` adds the hierarchical prior's absence sums.  The slices'
    sums are added up in slice order.
    """
    stats = stats or absence
    # the slices hold their own tokens, so a list's copy into windows goes here
    slices = _slices(batch, params.vocab_size, stats)
    loglik = np.empty(sum(cols.size for cols, _, _ in slices))
    total = None
    # row v is the emission column of token v, contiguous for the gathers
    columns = np.ascontiguousarray(params.emit.T)
    for cols, tokens, n_at in slices:
        loglik[cols], sums = _slice_sums(params, columns, tokens, n_at, stats, absence)
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return BatchSums(loglik, *total)
