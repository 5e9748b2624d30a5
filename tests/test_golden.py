"""Golden outputs: each algorithm trained on one small fixed-seed corpus.

A refactor of the training path must leave these pins alone.  Every
algorithm's surrogate matrices are pinned bit for bit by the SHA-256 of
their bytes, and its held-out LL by its ``repr``.  ``scvi-hdphmm`` is also
pinned with a large batch of one minibatch, where every step updates the
stick posterior from its own minibatch's table-count estimates.
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
        heldout_ll="-3.0326732797181393",
        k_effective=6,
        trans_sha256="69340ed839b0f88a90c75a1bbe57726766f24c19a7530e51abf593a83830042a",
        emit_sha256="3e23add74b476b2a02743761d3a0c8f2ce63fe09a1a8a4896c937cf9d1f82b90",
    ),
    "svi-hmm": dict(
        heldout_ll="-3.027370847987157",
        k_effective=6,
        trans_sha256="e43aedcfb087970d0b56b74d6b52c22178117182b5bcc63e125a0ff4370ae192",
        emit_sha256="60a7aaf6b1904a94d8632de680e1f939670f5cdcad81156290e9079f9544807c",
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


# a large batch of one minibatch gives the same table-count estimates
# whichever of its minibatches they are read from, so this pin does not
# depend on that choice
EVERY_STEP = dict(
    heldout_ll="-3.0330747160462397",
    k_effective=6,
    trans_sha256="8555a23358d459b38fddfe4d10de4f8c7b136606448975f13fca799a32551398",
    emit_sha256="3089abad8bf641cefb20d7981afd1a553e03826fecaa6932f53dad88fb976136",
)


def check_pin(pin, **settings):
    train_c, heldout = chain_corpora()
    config = RunConfig(num_states=6, kappa=0.6, minibatch_size=30, passes=3, seed=5, **settings)
    model, metrics = train(train_c, config, heldout=heldout)
    ll = metrics[-1].heldout_ll
    assert k_effective(model) == pin["k_effective"]
    assert repr(ll) == pin["heldout_ll"]
    params = model.surrogate()
    assert hashlib.sha256(params.trans.tobytes()).hexdigest() == pin["trans_sha256"]
    assert hashlib.sha256(params.emit.tobytes()).hexdigest() == pin["emit_sha256"]


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_golden_outputs(algorithm):
    check_pin(GOLDEN[algorithm], algorithm=algorithm, large_batch_size=90)


def test_hdp_update_at_every_step():
    check_pin(EVERY_STEP, algorithm="scvi-hdphmm", large_batch_size=30)
