"""Golden outputs: each algorithm trained on one small fixed-seed corpus.

A refactor of the training path must leave these pins alone.  Every
algorithm's surrogate matrices are pinned bit for bit by the SHA-256 of
their bytes, and its held-out LL by its ``repr``.
"""

import hashlib

import numpy as np
import pytest

from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.engine import k_effective, train

GOLDEN = {
    "scvi-hmm": dict(
        heldout_ll="-3.0314969633474163",
        k_effective=6,
        trans_sha256="75cf098a493a20f4876aab56e018d82e86687121d9e8e985745140481034d1aa",
        emit_sha256="6c342288a33b449463b0b49d80626e1597a2dc0102258937e0b3a1d5efd5c6ff",
    ),
    "scvi-hdphmm": dict(
        heldout_ll="-3.0326623701133886",
        k_effective=6,
        trans_sha256="151fc282c604f7a3ab4d9e7b9731d1b05282cea313293110caad0c4aafb3befe",
        emit_sha256="e5d0ad3e8d8edb32cec1e07b4662b8ed404f025d2cc26f0ff1adc91a560ff6e7",
    ),
    "svi-hmm": dict(
        heldout_ll="-3.0273708479871546",
        k_effective=6,
        trans_sha256="8ad981642c0f158d336e4c77e358c938468b7aec8eb3fd6d1b153722d3b739a8",
        emit_sha256="4d4a73e9c018666f087a674b5bd0152f809865ff432021c3e8ca1ed39fc4681f",
    ),
}


def chain_corpora(n_train=240, n_heldout=60, seed=3, num_states=4, vocab_size=30):
    """Training and held-out sequences of 5-20 tokens from one sticky chain.

    Sampled here rather than by ``generate_synthetic`` so the pins do not
    move when the library's generator does.
    """
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.full(num_states, 0.5), num_states + 1)
    trans[1:] += 2.0 * np.eye(num_states)
    trans /= trans.sum(axis=1, keepdims=True)
    emit = rng.dirichlet(np.full(vocab_size, 0.2), num_states)
    seqs = []
    for _ in range(n_train + n_heldout):
        z = rng.choice(num_states, p=trans[0])
        seq = []
        for _ in range(rng.integers(5, 21)):
            seq.append(1 + rng.choice(vocab_size, p=emit[z]))
            z = rng.choice(num_states, p=trans[1 + z])
        seqs.append(np.array(seq))
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size))
    return (
        Corpus.from_sequences(seqs[:n_train], vocab),
        Corpus.from_sequences(seqs[n_train:], vocab),
    )


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_outputs(algorithm):
    train_c, heldout = chain_corpora()
    config = RunConfig(
        algorithm=algorithm, num_states=6, kappa=0.6, minibatch_size=30,
        large_batch_size=90, passes=3, seed=5,
    )
    model, metrics = train(train_c, config, heldout=heldout)
    pin = GOLDEN[algorithm]
    ll = metrics[-1].heldout_ll
    assert k_effective(model) == pin["k_effective"]
    assert repr(ll) == pin["heldout_ll"]
    params = model.surrogate()
    assert hashlib.sha256(params.trans.tobytes()).hexdigest() == pin["trans_sha256"]
    assert hashlib.sha256(params.emit.tobytes()).hexdigest() == pin["emit_sha256"]
