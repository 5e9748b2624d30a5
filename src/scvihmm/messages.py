"""Batched forward-backward over surrogate-parametrized chains.

One sweep runs the scaled recursion of Rabiner (1989) over a whole batch
of sequences against one frozen set of surrogate parameters and returns
batch sums.  Each forward vector is renormalized and its scale kept, which
keeps everything in ordinary floating point regardless of sequence length;
a sequence's log likelihood is the sum of its log scales.  State 0 is the
start state; it emits nothing, nothing transitions back into it, and its
outgoing row is used only for the first step of a sequence.

The batch is sorted by length, longest first, and cut into slices whose
padded size (longest length x sequence count) stays within
``SLICE_POSITIONS``.  A slice is laid out time-major; at time t only its
first n_t sequences are still running, so each step works on a row prefix
and padded positions stay zero.  The pairwise posteriors are never stored:
the transition counts are inner * sum_t alpha[t-1]^T right[t], one matrix
product, with right[t] = obs[t] * beta[t] / scale[t].
"""

from dataclasses import dataclass

import numpy as np

# padded positions (longest length x sequence count) of one slice
SLICE_POSITIONS = 2**15
# running positions per chunk of the hierarchical prior's pair term
PAIR_CHUNK_ROWS = 64

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
    for seq in seqs:
        if seq.ndim != 1 or seq.size == 0 or not np.issubdtype(seq.dtype, np.integer):
            raise ValueError("sequence must be a nonempty 1-d array of token indices")
    lengths = np.array([seq.size for seq in seqs])
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


def _forward(params, tokens, n_at, alpha=None):
    """T x B scales of the forward recursion over one slice.

    Padded positions keep scale 1.  When ``alpha`` (T x B x K, zeros) is
    given, the normalized forward vectors are written into it.
    """
    inner = params.trans[1:]
    emit_by_token = params.emit.T
    scales = np.ones(tokens.shape)
    prev = None
    for t, n in enumerate(n_at):
        pred = params.trans[0] if t == 0 else prev[:n] @ inner
        vec = pred * emit_by_token[tokens[t, :n]]
        scales[t, :n] = vec.sum(axis=1)
        prev = vec / scales[t, :n, None]
        if alpha is not None:
            alpha[t, :n] = prev
    return scales


def _absence(inner, alpha, right, unary, running):
    """Pair and row absence sums of one slice, the pair term in row chunks."""
    K = inner.shape[0]
    pair = np.zeros((K + 1, K))
    row = np.empty(K + 1)
    # flat (t-1) x B index of every running position t >= 1
    rows = np.flatnonzero(running[1:])
    before = alpha[:-1].reshape(-1, K)
    after = right[1:].reshape(-1, K)
    with np.errstate(divide="ignore"):
        pair[0] = np.log1p(-np.minimum(unary[0], 1.0)).sum(axis=0)
        for lo in range(0, rows.size, PAIR_CHUNK_ROWS):
            idx = rows[lo : lo + PAIR_CHUNK_ROWS]
            p = before[idx, :, None] * inner * after[idx, None, :]
            pair[1:] += np.log1p(-np.minimum(p, 1.0)).sum(axis=0)
        # every sequence leaves the start state at its first position
        row[0] = -np.inf
        row[1:] = np.log1p(-np.minimum(unary[:-1][running[1:]], 1.0)).sum(axis=0)
    return pair, row


def _slice_sums(params, tokens, n_at, stats, absence):
    """Per-sequence log likelihoods of one slice and, if asked, its sums."""
    if not stats:
        return np.log(_forward(params, tokens, n_at)).sum(axis=0), ()
    T, B = tokens.shape
    K = params.num_states
    inner = params.trans[1:]
    emit_by_token = params.emit.T
    alpha = np.zeros((T, B, K))
    scales = _forward(params, tokens, n_at, alpha)
    beta = np.ones((T, B, K))
    right = np.zeros((T, B, K))
    for t in range(T - 1, 0, -1):
        n = n_at[t]
        right[t, :n] = emit_by_token[tokens[t, :n]] * beta[t, :n] / scales[t, :n, None]
        beta[t - 1, :n] = right[t, :n] @ inner.T
    unary = np.multiply(alpha, beta, out=beta)  # zero at padded positions, as alpha is
    counts = np.empty((K + 1, K))
    counts[0] = unary[0].sum(axis=0)
    counts[1:] = inner * (alpha[:-1].reshape(-1, K).T @ right[1:].reshape(-1, K))
    by_token = np.zeros((params.vocab_size, K))
    np.add.at(by_token, tokens.ravel(), unary.reshape(-1, K))
    sums = (counts, by_token.T)
    if absence:
        running = np.arange(B)[None, :] < n_at[:, None]
        sums += _absence(inner, alpha, right, unary, running)
    return np.log(scales).sum(axis=0), sums


def sweep(params: SurrogateParams, batch, stats=True, absence=False, pool=None) -> BatchSums:
    """Forward-backward over every sequence of ``batch``, summed.

    With ``stats`` false only the forward recursion runs and only the log
    likelihoods come back; ``absence`` adds the hierarchical prior's
    absence sums.  ``pool`` (an executor) maps the slices; their sums are
    reduced in slice order either way, so pooled and serial sweeps are
    bit-identical.
    """
    slices = _slices(batch, params.vocab_size)

    def work(piece):
        _, tokens, n_at = piece
        return _slice_sums(params, tokens, n_at, stats or absence, absence)

    results = pool.map(work, slices) if pool is not None else map(work, slices)
    loglik = np.empty(len(batch))
    total = None
    for (cols, _, _), (ll, sums) in zip(slices, results):
        loglik[cols] = ll
        total = sums if total is None else tuple(a + b for a, b in zip(total, sums))
    return BatchSums(loglik, *total)
