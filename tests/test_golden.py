"""Golden outputs: each algorithm trained on one small fixed-seed corpus.

A refactor of the training path must leave these pins alone.  Every
algorithm's surrogate matrices are pinned bit for bit by the SHA-256 of
their bytes, and its held-out LL by its ``repr``.  ``scvi-hdphmm`` is also
pinned with a large batch of one minibatch, where every step updates the
stick posterior from its own minibatch's table-count estimates.  The long-chain
pins train and evaluate on 8 chains of 300-700 tokens: their runs of one running
count cross the renormalization cadence many times, every chain ends between
two renormalization positions, and the held-out sweep refills its emission
block inside a run.
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


def chain_corpora(n_train=240, n_heldout=60, seed=3, num_states=4, vocab_size=30, lengths=(5, 20)):
    """Training and held-out sequences of ``lengths`` tokens (inclusive) from one sticky chain.

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
        for _ in range(rng.integers(lengths[0], lengths[1] + 1)):
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


# 8 training and 8 held-out chains of 300-700 tokens, in minibatches of 4
LONG_CHAINS = {
    "scvi-hmm": dict(
        heldout_ll="-2.9787565133008767",
        k_effective=6,
        trans_sha256="f1a33a11a3d4d15995aba929226c0388e91e07156349c6b8be09b8648194a7da",
        emit_sha256="d7d1092cfe04815eb5a60819e5c8aa49b29b5a4b28eda04597fd073f53f6b5f0",
    ),
    "scvi-hdphmm": dict(
        heldout_ll="-2.9786619592584693",
        k_effective=6,
        trans_sha256="5327665d64dc84494fa2bc3212526e20243eb3d222e2bb5fb70c54e3fe55daeb",
        emit_sha256="cde2737a4e71b6ff340eac7753ce79cfe6caaeb918f00399e5ee1755c62b6e83",
    ),
    "svi-hmm": dict(
        heldout_ll="-2.9835959479645573",
        k_effective=6,
        trans_sha256="42bf084182ae524d2a147cb9184c14fc419619c63a1946a6cda2982515724155",
        emit_sha256="7b367c8da15b1d25060c41667cf6f4b39b03719f11557f8b50b16c9325bea702",
    ),
}


def check_pin(pin, corpora=None, **settings):
    train_c, heldout = corpora or chain_corpora()
    settings = dict(dict(num_states=6, kappa=0.6, minibatch_size=30, passes=3, seed=5), **settings)
    config = RunConfig(**settings)
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


@pytest.mark.parametrize("algorithm", sorted(LONG_CHAINS))
def test_long_chain_golden_outputs(algorithm):
    corpora = chain_corpora(n_train=8, n_heldout=8, seed=13, lengths=(300, 700))
    check_pin(LONG_CHAINS[algorithm], corpora, algorithm=algorithm, minibatch_size=4, large_batch_size=8, passes=2)
