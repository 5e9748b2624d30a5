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
        heldout_ll="-3.0326732797181397",
        k_effective=6,
        trans_sha256="3cf7d309c144d3a85ec5878a3e959088b4b1353b27bd25551b57741494416489",
        emit_sha256="70cec73410060d00f671b02b89a9c6cc4db14363a9a01931fc916d7ecd3bcfbd",
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


# a large batch of one minibatch gives the same table-count estimates
# whichever of its minibatches they are read from, so this pin does not
# depend on that choice
EVERY_STEP = dict(
    heldout_ll="-3.0330747160462392",
    k_effective=6,
    trans_sha256="44b4e5d3e1e1e9b157f9bc3d741945dc10b9635da0e7eb71c66044884ab661fc",
    emit_sha256="5cfe2bb4238b3cbfefd7e102832c553dd2a3209ebe70cd68d7eeb5951288ea02",
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
