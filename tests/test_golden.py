"""Golden outputs: each algorithm trained on one small fixed-seed corpus.

A refactor of the training path must leave these pins alone.  The
collapsed algorithms are pinned bit for bit: the held-out LL by its
``repr`` and the surrogate matrices by the SHA-256 of their bytes.  The
uncollapsed baseline's held-out LL is pinned within 1e-12 relative,
because where its Dirichlet prior enters the blend is free to move the
last bits.
"""

import hashlib

import numpy as np
import pytest

from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.engine import k_effective, train

SVI_LL_RTOL = 1e-12

GOLDEN = {
    "scvi-hmm": dict(
        heldout_ll="-3.0314969633474145",
        k_effective=6,
        trans_sha256="d3e627adfd470715a728b24bbb14e374396f56308059e2603f533e9c2e6d536a",
        emit_sha256="9af8952d4b7a97e13750c92eed0a9347a62545297808826947a911c5d6e8ba45",
    ),
    "scvi-hdphmm": dict(
        heldout_ll="-3.0326623701133886",
        k_effective=6,
        trans_sha256="5d464853619b159b474465826abbeeae97433383c88e12a20535572fd39908f3",
        emit_sha256="47359a6c7d881877f4cddcde00f61f2838c3ebfed334bbf4895605fde69bad68",
    ),
    "svi-hmm": dict(heldout_ll="-3.0273708479871546", k_effective=6),
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
    if algorithm == "svi-hmm":
        want = float(pin["heldout_ll"])
        assert abs(ll - want) <= SVI_LL_RTOL * abs(want), f"{ll!r} vs {want!r}"
        return
    assert repr(ll) == pin["heldout_ll"]
    params = model.surrogate()
    assert hashlib.sha256(params.trans.tobytes()).hexdigest() == pin["trans_sha256"]
    assert hashlib.sha256(params.emit.tobytes()).hexdigest() == pin["emit_sha256"]
