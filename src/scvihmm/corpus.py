"""Corpus ingestion, vocabulary handling, splits, batching, synthesis.

Text corpora are UTF-8, one sequence per line, whitespace-delimited.
Index 0 of every vocabulary is reserved for the unknown token so held-out
evaluation never fails on unseen words.  A vocabulary file lists one real
word per line, and blank lines are skipped: the i-th listed word has index
i.  Repeats, the unknown token and words with whitespace are refused, in a
file and in ``Vocabulary(words)`` alike.

A corpus holds its tokens in one flat array, and the sweep reads a batch
as (start, length) windows into it (``Windows``).  The form of a token
sequence from outside is checked in one place, ``token_arrays``; ``Corpus``
applies it to a list of sequences once, and the sweep converts a plain list
to windows by the same rule.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .config import _is_int, _is_real

UNK = "<unk>"
DRAW_BLOCK = 2**14  # uniform pairs per block of positions in generate_synthetic
RANGE_ERROR = "sequence token index outside vocabulary"

__all__ = [
    "UNK",
    "Vocabulary",
    "Corpus",
    "Windows",
    "as_windows",
    "SyntheticSpec",
    "GroundTruth",
    "load_corpus",
    "save_corpus",
    "split",
    "generate_synthetic",
    "minibatches",
]


class Vocabulary:
    """Bidirectional word/index map with the unknown token pinned at 0."""

    def __init__(self, words=()):
        self._words = [UNK]
        self._index = {UNK: 0}
        for number, word in enumerate(words, 1):
            # the i-th word is line i of the saved file
            self._append(word, "vocabulary", number)

    def _append(self, word, source, number):
        """Give ``word`` the next index, or name line ``number`` of ``source`` and the rule it breaks.

        The rule: a ``str`` without whitespace, not the unknown token, and
        not held already.
        """
        if not isinstance(word, str):
            problem = "is not a string"
        elif word.split() != [word]:
            problem = "is empty or holds whitespace, so no corpus token can match it"
        elif word in self._index:
            if word == UNK:
                problem = "is the unknown token, which every vocabulary holds at index 0"
            else:
                problem = "repeats an earlier line"
        else:
            self._index[word] = len(self._words)
            self._words.append(word)
            return
        # formatted on refusal only, not once per word
        raise ValueError(f"{source} line {number}: word {word!r} {problem}")

    def add(self, word: str) -> int:
        idx = self._index.get(word)
        if idx is None:
            idx = len(self._words)
            self._words.append(word)
            self._index[word] = idx
        return idx

    def index(self, word: str) -> int:
        """The word's index, or 0 (the unknown token) for a word not held."""
        return self._index.get(word, 0)

    def word(self, idx: int) -> str:
        return self._words[idx]

    def __len__(self):
        return len(self._words)

    @property
    def words(self):
        """Real words in index order, the unknown token excluded."""
        return tuple(self._words[1:])

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self._words == other._words

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for w in self._words[1:]:
                fh.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The words of a vocabulary file; ``ValueError`` names a refused line."""
        vocab = cls()
        source = f"vocabulary file {path},"
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                word = line.rstrip("\n")
                if word.strip():
                    vocab._append(word, source, number)
        return vocab


def token_arrays(sequences):
    """``(arrays, lengths)`` of a list of token sequences: the one check of their form.

    ``ValueError`` unless each is a nonempty 1-d integer array.  The token
    range is checked once ``_flatten`` has copied the arrays into one.
    """
    arrays = list(map(np.asarray, sequences))
    # a few distinct (ndim, dtype) pairs stand for every array; then len is the length
    forms = {(a.ndim, a.dtype) for a in arrays}
    if all(ndim == 1 and dtype.kind in "iu" for ndim, dtype in forms):
        lengths = np.fromiter(map(len, arrays), dtype=np.intp, count=len(arrays))
        if lengths.all():
            return arrays, lengths
    raise ValueError("sequence must be a nonempty 1-d array of integer token indices")


def _offsets(lengths):
    """Where each sequence starts in a flat array of sequences of ``lengths``, and the total last."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _flatten(sequences):
    """``(tokens, offsets)`` of a list of token sequences, copied into one ``intp`` array.

    ``token_arrays`` checks their form.  A uint64 token past the ``intp``
    range turns negative in the copy, so ``_top`` refuses it.
    """
    arrays, lengths = token_arrays(sequences)
    offsets = _offsets(lengths)
    tokens = np.empty(offsets[-1], dtype=np.intp)
    if arrays:
        np.concatenate(arrays, out=tokens, casting="unsafe")
    return tokens, offsets


def _top(tokens):
    """The largest of ``tokens``, -1 for none; ``ValueError`` for a negative one."""
    if not tokens.size:
        return -1
    if tokens.min() < 0:
        raise ValueError(RANGE_ERROR)
    return int(tokens.max())


@dataclass(frozen=True, eq=False)
class Windows:
    """Sequences as (start, length) windows into one flat ``intp`` token array.

    Window i is ``tokens[starts[i] : starts[i] + lengths[i]]``.  ``top``, the
    largest token of the array (-1 for none), bounds every window's tokens.
    """

    tokens: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    top: int

    def __len__(self):
        return len(self.lengths)

    def __iter__(self):
        """Views of the windows' tokens, in order."""
        for start, length in zip(self.starts.tolist(), self.lengths.tolist()):
            yield self.tokens[start : start + length]


class Corpus:
    """Read-only token-index sequences over a shared vocabulary.

    A corpus holds its sequences as a CSR matrix holds its rows: ``tokens``
    is one read-only ``intp`` array of every sequence in turn, and sequence
    i is ``tokens[offsets[i] : offsets[i + 1]]``, of length ``lengths[i]``.
    ``counts`` is their total length.  ``Corpus(sequences, vocab)`` takes a
    list of token sequences: ``token_arrays`` checks their form, and their
    tokens are copied into ``tokens`` and range-checked once, so a later
    change to the list's arrays leaves the corpus as it was.
    ``load_corpus``, ``generate_synthetic`` and ``split`` build the arrays
    directly.  ``sequences`` lists read-only views of the sequences, made
    on first access; the sweep reads ``windows`` instead.
    """

    def __init__(self, sequences, vocab):
        self._hold(*_flatten(sequences), vocab)

    @classmethod
    def _of(cls, tokens, offsets, vocab) -> "Corpus":
        """A corpus that holds the ``intp`` arrays ``tokens`` and ``offsets`` themselves."""
        corpus = cls.__new__(cls)
        corpus._hold(tokens, offsets, vocab)
        return corpus

    def _hold(self, tokens, offsets, vocab):
        self._top = _top(tokens)
        if self._top >= len(vocab):
            raise ValueError(RANGE_ERROR)
        self.tokens, self.offsets, self.lengths = tokens, offsets, np.diff(offsets)
        for array in (tokens, offsets, self.lengths):
            array.flags.writeable = False
        self.vocab = vocab
        self.counts = int(offsets[-1])

    def __len__(self):
        return len(self.lengths)

    @cached_property
    def sequences(self) -> list:
        """Read-only views of the sequences, in order."""
        bounds = self.offsets.tolist()
        return [self.tokens[a:b] for a, b in zip(bounds, bounds[1:])]

    def windows(self, index=None) -> Windows:
        """The sequences at ``index``, in its order (every one by default), as windows."""
        starts, lengths = self.offsets[:-1], self.lengths
        if index is not None:
            starts, lengths = starts[index], lengths[index]
        return Windows(self.tokens, starts, lengths, self._top)

    def _take(self, index) -> "Corpus":
        """A corpus of the sequences at ``index``, in its order, gathered into new arrays."""
        lengths = self.lengths[index]
        offsets = _offsets(lengths)
        # position p of the flat result holds token p - offsets[j] of sequence j
        shift = np.repeat(self.offsets[index] - offsets[:-1], lengths)
        return Corpus._of(self.tokens[shift + np.arange(offsets[-1])], offsets, self.vocab)

    @classmethod
    def from_sequences(cls, sequences, vocab) -> "Corpus":
        """A corpus of any iterable of integer sequences."""
        return cls(list(sequences), vocab)


def as_windows(batch) -> Windows:
    """``batch`` as windows: a ``Windows`` as it is, every sequence of a ``Corpus``.

    Anything else is a list of token sequences, copied into one array by
    the rule ``Corpus`` applies, so every sweep reads one layout.
    """
    if isinstance(batch, Windows):
        return batch
    if isinstance(batch, Corpus):
        return batch.windows()
    tokens, offsets = _flatten(batch)
    return Windows(tokens, offsets[:-1], np.diff(offsets), _top(tokens))


def load_corpus(path, vocab: Vocabulary = None) -> Corpus:
    """Parse a text corpus; build the vocabulary unless one is supplied.

    Blank lines are skipped.  A supplied vocabulary is frozen: words it
    does not hold map to index 0, the unknown token.
    """
    build = vocab is None
    if build:
        vocab = Vocabulary()
    # Vocabulary.index as the dict's own get, so no Python frame runs per token
    held = vocab._index.get
    ids, lengths = [], []
    with open(path, encoding="utf-8") as fh:
        for tokens in map(str.split, fh):
            if tokens:
                ids += map(vocab.add, tokens) if build else map(held, tokens, repeat(0))
                lengths.append(len(tokens))
    if not lengths:
        raise ValueError(f"no sequences in corpus file {path}")
    return Corpus._of(np.array(ids, dtype=np.intp), _offsets(lengths), vocab)


def save_corpus(corpus: Corpus, path):
    words = (UNK,) + corpus.vocab.words
    line_words = [words[i] for i in corpus.tokens.tolist()]
    bounds = corpus.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(bounds, bounds[1:]):
            fh.write(" ".join(line_words[a:b]) + "\n")


def split(corpus: Corpus, train_fraction: float, seed: int):
    """Deterministic shuffled split into (train, test) sharing the vocabulary."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    n = len(corpus)
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty side for {n} sequences"
        )
    order = np.random.default_rng(seed).permutation(n)
    return corpus._take(order[:n_train]), corpus._take(order[n_train:])


@dataclass
class SyntheticSpec:
    """Generating chain for synthetic corpora.

    ``trans`` is (K+1) x K with row 0 the start distribution; ``emit`` is
    K x V over raw symbol ids 0..V-1.  Corpus token index = raw id + 1
    (index 0 stays reserved for the unknown token).
    """

    num_states: int
    vocab_size: int
    trans: np.ndarray
    emit: np.ndarray
    seq_count: int
    min_length: int
    max_length: int
    seed: int = 0

    def __post_init__(self):
        _check_counts(self.num_states, self.vocab_size, self.seq_count,
                      self.min_length, self.max_length, self.seed)
        self.trans = np.asarray(self.trans, dtype=float)
        self.emit = np.asarray(self.emit, dtype=float)
        if self.trans.shape != (self.num_states + 1, self.num_states):
            raise ValueError("trans must be (K+1) x K")
        if self.emit.shape != (self.num_states, self.vocab_size):
            raise ValueError("emit must be K x V")
        for name, mat in (("trans", self.trans), ("emit", self.emit)):
            if not np.all(mat >= 0.0) or np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-10):
                raise ValueError(f"{name} rows must be stochastic")

    @classmethod
    def random(
        cls,
        num_states: int,
        vocab_size: int,
        seq_count: int,
        min_length: int,
        max_length: int,
        seed: int = 0,
        self_persistence: float = 0.0,
    ) -> "SyntheticSpec":
        """Random Dirichlet rows; ``self_persistence`` adds extra mass on
        self-transitions to make states sticky."""
        _check_counts(num_states, vocab_size, seq_count, min_length, max_length, seed)
        if not (_is_real(self_persistence) and 0.0 <= self_persistence <= 1.0):
            raise ValueError(f"self_persistence must be a number in [0, 1], got {self_persistence!r}")
        rng = np.random.default_rng(seed)
        trans = rng.dirichlet(np.ones(num_states), size=num_states + 1)
        if self_persistence > 0.0:
            trans[1:] = (1.0 - self_persistence) * trans[1:]
            trans[1:] += self_persistence * np.eye(num_states)
        emit = rng.dirichlet(np.ones(vocab_size), size=num_states)
        return cls(num_states, vocab_size, trans, emit, seq_count, min_length, max_length, seed)


def _check_counts(num_states, vocab_size, seq_count, min_length, max_length, seed):
    """``ValueError`` unless each is an integer no smaller than its floor."""
    for name, value, low in (
        ("num_states", num_states, 1), ("vocab_size", vocab_size, 1),
        ("seq_count", seq_count, 1), ("min_length", min_length, 1),
        ("max_length", max_length, min_length), ("seed", seed, 0),
    ):
        if not (_is_int(value) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class GroundTruth:
    """The generating parameters, for oracle evaluation of synthetic runs."""

    trans: np.ndarray
    emit: np.ndarray


def _cumulative(mat: np.ndarray) -> np.ndarray:
    """Cumulative rows for ``_sample_rows``, +inf from each row's last positive cell on.

    A row may sum to a little less than 1, so a uniform can exceed its whole
    cumulative row; the +inf tail lands such a draw on the last cell with
    mass and leaves every other draw where it was.
    """
    cum = np.cumsum(mat, axis=1)
    last = mat.shape[1] - 1 - np.argmax(mat[:, ::-1] > 0.0, axis=1)
    cum[np.arange(mat.shape[1])[None, :] >= last[:, None]] = np.inf
    return cum


def _sample_rows(cum_rows: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # inverse-CDF draw per row: count how many cumulative cells each uniform exceeds
    return (u[:, None] > cum_rows.take(rows, axis=0)).sum(axis=1)


def generate_synthetic(spec: SyntheticSpec):
    """Sample a corpus from the spec's chain; also returns the generator.

    Sequences are drawn in lockstep across the corpus, with per-sequence
    lengths uniform on [min_length, max_length].  The seed fixes the tokens
    through this draw order: ``seq_count`` (n) lengths from one
    ``rng.integers`` call, then, for each position t up to the longest
    length, n uniforms for the states of sequences 0..n-1 at t followed by n
    uniforms for their tokens at t.  A token uniform of a position past its
    sequence's length is drawn and unused.  Each uniform u picks the first
    cell of its cumulative row (``_cumulative``) that u does not exceed.

    The uniforms come in blocks of ``DRAW_BLOCK // n`` positions (one at
    least).  The state chain is walked position by position with
    ``_sample_rows``; once per block, the block's tokens are drawn state by
    state with ``_sample_by_row``.  Both give the same draw for the same u.
    """
    rng = np.random.default_rng(spec.seed)
    lengths = rng.integers(spec.min_length, spec.max_length + 1, size=spec.seq_count)
    tokens = _draw_tokens(rng, lengths, _cumulative(spec.trans), _cumulative(spec.emit))
    flat = tokens.T[lengths[:, None] > np.arange(tokens.shape[0])]
    del tokens  # the padded array need not outlive the gather
    flat += 1
    vocab = Vocabulary(f"w{i}" for i in range(spec.vocab_size))
    corpus = Corpus._of(flat, _offsets(lengths), vocab)
    return corpus, GroundTruth(spec.trans.copy(), spec.emit.copy())


def _draw_tokens(rng, lengths, cum_trans, cum_emit):
    """Raw symbol ids, longest length x n, in ``generate_synthetic``'s draw order.

    Cells past a sequence's length are left unset.
    """
    n, t_max = lengths.size, int(lengths.max())
    block = max(1, DRAW_BLOCK // n)
    tokens = np.empty((t_max, n), dtype=np.intp)
    states = np.empty((block, n), dtype=np.int64)
    prev = np.full(n, -1, dtype=np.int64)  # a state's trans row is prev + 1; row 0 starts a sequence
    for start in range(0, t_max, block):
        u = rng.random((min(block, t_max - start), 2, n))
        drawn = states[: len(u)]
        for j in range(len(u)):
            prev = drawn[j] = _sample_rows(cum_trans, prev + 1, u[j, 0])
        live = lengths > np.arange(start, start + len(u))[:, None]
        tokens[start : start + len(u)][live] = _sample_by_row(cum_emit, drawn[live], u[:, 1][live])
    return tokens


def _sample_by_row(cum_rows: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_sample_rows`` with one ``np.searchsorted`` per row index.

    A left search counts the cells strictly below u, as ``_sample_rows``
    does, because cumulative rows never decrease.
    """
    out = np.empty(rows.shape, dtype=np.int64)
    for k in range(cum_rows.shape[0]):
        at = rows == k
        out[at] = np.searchsorted(cum_rows[k], u[at], side="left")
    return out


def minibatches(corpus: Corpus, batch_size: int, seed: int, mode: str = "shuffle"):
    """Infinite stream of index batches.

    ``shuffle`` chunks a fresh permutation each pass (final batch may be
    short); ``iid`` draws ``batch_size`` uniform indices with replacement.
    The arguments are checked by this call, before any batch is drawn.
    """
    if not (_is_int(batch_size) and batch_size >= 1):
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if mode not in ("shuffle", "iid"):
        raise ValueError(f"unknown batch mode {mode!r}")
    n = len(corpus)
    if n == 0:
        raise ValueError("cannot draw minibatches from an empty corpus")
    return _draw_batches(n, batch_size, np.random.default_rng(seed), mode)


def _draw_batches(n, batch_size, rng, mode):
    if mode == "iid":
        while True:
            yield rng.integers(0, n, size=batch_size)
    else:
        while True:
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                yield order[start : start + batch_size]
