"""Benchmark workload shapes and the seeded generator that writes their inputs.

The inputs are drawn here, not with ``scvihmm.corpus.generate_synthetic``,
so that a documented change to the library's own draw stream cannot change
what the training and evaluation metrics measure.  Each workload is a sticky
10-state chain with sparse Dirichlet(0.1) emission rows; the seed picks the
chain and the sequences.  Sequence lengths are stratified over the length
range, so the token count of a corpus barely moves from seed to seed.
"""

from dataclasses import dataclass

import numpy as np

TRUE_STATES = 10
SELF_PERSISTENCE = 0.5
EMIT_CONCENTRATION = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int
    train_seqs: int
    heldout_seqs: int
    min_len: int
    max_len: int
    num_states: int
    minibatch: int
    large_batch: int
    threads: int
    gen_reps: int


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-seqs",
            vocab_size=500, train_seqs=3600, heldout_seqs=1600, min_len=10, max_len=40,
            num_states=45, minibatch=200, large_batch=1000, threads=1, gen_reps=3,
        ),
        Workload(
            "long-seqs",
            vocab_size=500, train_seqs=16, heldout_seqs=8, min_len=4000, max_len=6000,
            num_states=45, minibatch=4, large_batch=8, threads=2, gen_reps=3,
        ),
    )
}


def make_chain(w: Workload, seed: int):
    """The generating chain: (K0+1) x K0 transitions (row 0 = start) and K0 x V emissions."""
    rng = np.random.default_rng([seed, 1])
    trans = rng.dirichlet(np.ones(TRUE_STATES), size=TRUE_STATES + 1)
    trans[1:] = (1.0 - SELF_PERSISTENCE) * trans[1:] + SELF_PERSISTENCE * np.eye(TRUE_STATES)
    emit = rng.dirichlet(np.full(w.vocab_size, EMIT_CONCENTRATION), size=TRUE_STATES)
    return trans, emit


def _lengths(rng, n, lo, hi):
    # one length per stratum of [lo, hi], in random order
    strata = (rng.permutation(n) + rng.random(n)) / n
    return lo + np.floor(strata * (hi - lo + 1)).astype(np.int64)


def _draw(rng, cum, rows):
    # inverse-CDF draw of one category per row index
    u = rng.random(rows.size) * cum[rows, -1]
    return np.minimum((u[:, None] >= cum[rows]).sum(axis=1), cum.shape[1] - 1)


def sample_sequences(w: Workload, seed: int, n: int, stream: int):
    """``n`` raw-symbol sequences (ids 0..V-1) drawn in lockstep from the chain."""
    trans, emit = make_chain(w, seed)
    cum_trans, cum_emit = np.cumsum(trans, axis=1), np.cumsum(emit, axis=1)
    rng = np.random.default_rng([seed, 2, stream])
    lengths = _lengths(rng, n, w.min_len, w.max_len)
    tokens = np.empty((n, int(lengths.max())), dtype=np.int64)
    state = _draw(rng, cum_trans, np.zeros(n, dtype=np.int64))
    for t in range(tokens.shape[1]):
        if t:
            state = _draw(rng, cum_trans, state + 1)
        tokens[:, t] = _draw(rng, cum_emit, state)
    return [tokens[i, : lengths[i]] for i in range(n)]


def write_inputs(w: Workload, seed: int, directory):
    """Write vocab.txt, train.txt and heldout.txt into ``directory``."""
    paths = {name: directory / f"{name}.txt" for name in ("vocab", "train", "heldout")}
    words = [f"w{i}" for i in range(w.vocab_size)]
    paths["vocab"].write_text("".join(word + "\n" for word in words), encoding="utf-8")
    for stream, (name, n) in enumerate((("train", w.train_seqs), ("heldout", w.heldout_seqs))):
        seqs = sample_sequences(w, seed, n, stream)
        text = "".join(" ".join(words[i] for i in seq) + "\n" for seq in seqs)
        paths[name].write_text(text, encoding="utf-8")
