"""Checks for the uncollapsed variational baseline.

Its state is the engine's expected counts; the Dirichlet variational
parameters of every row are the prior plus those counts.
"""

import math

import numpy as np
import pytest

from oracles import batch_vb_hmm
from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.engine import (
    GlobalStats,
    TrainedModel,
    build_surrogate,
    initialize_stats,
    process_minibatch,
    step_size,
    train,
)
from scvihmm.special import dirichlet_geo_rows


class TestSurrogate:
    """The geometric rows every ``svi-hmm`` surrogate is built from."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 7.0])
    def test_symmetric_rows_are_uniform(self, c):
        np.testing.assert_allclose(dirichlet_geo_rows(np.full((4, 3), c)), 1 / 3, atol=1e-12)
        np.testing.assert_allclose(dirichlet_geo_rows(np.full((3, 5), c)), 1 / 5, atol=1e-12)

    def test_two_to_one_row(self):
        # weights exp(psi(2)), exp(psi(1)) over common denominator
        # renormalize to e/(e+1), 1/(e+1)
        rows = dirichlet_geo_rows(np.array([[2.0, 1.0]]))
        e = math.e
        np.testing.assert_allclose(rows[0], [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(0)
        for shape in ((5, 4), (4, 6)):
            rows = dirichlet_geo_rows(rng.gamma(2.0, size=shape))
            assert np.all(rows > 0)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_build_surrogate_takes_geometric_rows(self):
        stats = initialize_stats(3, 5, 40.0, seed=1)
        config = RunConfig(algorithm="svi-hmm", num_states=3, trans_prior=0.2, emit_prior=0.3)
        params = build_surrogate(TrainedModel(config, stats))
        np.testing.assert_array_equal(params.trans, dirichlet_geo_rows(0.2 + stats.trans_counts))
        np.testing.assert_array_equal(params.emit, dirichlet_geo_rows(0.3 + stats.token_stats))


def untrained_svi_model(vocab_size, num_states, seed):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(f"w{i}" for i in range(vocab_size - 1))
    seqs = [rng.integers(1, vocab_size, rng.integers(3, 9)) for _ in range(10)]
    corpus = Corpus.from_sequences(seqs, vocab)
    config = RunConfig(algorithm="svi-hmm", num_states=num_states, minibatch_size=5,
                       large_batch_size=5, passes=0, seed=seed)
    model, _ = train(corpus, config)
    return model, corpus


class TestInitialize:
    def test_deterministic_and_above_prior(self):
        a, _ = untrained_svi_model(6, 3, seed=4)
        b, _ = untrained_svi_model(6, 3, seed=4)
        assert a.hdp is None and a.config.trans_prior == 0.1
        np.testing.assert_array_equal(a.stats.trans_counts, b.stats.trans_counts)
        # the Dirichlet parameters prior + counts sit strictly above the prior
        assert np.all(a.stats.trans_counts > 0)
        assert np.all(a.stats.token_stats > 0)

    def test_noise_mass_scaled_to_tokens(self):
        model, corpus = untrained_svi_model(9, 4, seed=1)
        init = initialize_stats(4, 9, corpus.counts, seed=2)
        np.testing.assert_array_equal(model.stats.trans_counts, init.trans_counts)
        assert abs(model.stats.trans_counts.sum() - corpus.counts) < 1e-6
        assert abs(model.stats.token_stats.sum() - corpus.counts) < 1e-6

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GlobalStats(np.ones((3, 3)), np.ones((3, 4)))
        with pytest.raises(ValueError):
            GlobalStats(np.ones((4, 3)), -np.ones((3, 4)))
        with pytest.raises(ValueError):
            svi_model(GlobalStats(np.ones((3, 2)), np.ones((2, 4))), trans_prior=0.0)


def random_batch(rng, n_seqs, vocab_size, max_len=12):
    return [
        rng.integers(0, vocab_size, rng.integers(3, max_len + 1))
        for _ in range(n_seqs)
    ]


def svi_model(stats, **priors):
    config = RunConfig(algorithm="svi-hmm", num_states=stats.trans_counts.shape[1], **priors)
    return TrainedModel(config, stats)


def svi_update(stats, batch, rho, corpus_size):
    return process_minibatch(svi_model(stats), batch, rho, corpus_size)[0]


class TestStep:
    def test_full_step_is_prior_plus_batch_estimate(self):
        from scvihmm.messages import sweep

        rng = np.random.default_rng(5)
        stats = initialize_stats(2, 4, 50.0, seed=2)
        batch = random_batch(rng, 3, 4)
        params = build_surrogate(svi_model(stats))
        sums = sweep(params, batch)
        scale = 9 / 3
        out = svi_update(stats, batch, 1.0, 9)
        np.testing.assert_array_equal(out.trans_counts, scale * sums.counts)
        np.testing.assert_array_equal(out.token_stats, scale * sums.token_stats)

    def test_vanishing_step_changes_nothing(self):
        rng = np.random.default_rng(6)
        stats = initialize_stats(2, 4, 50.0, seed=3)
        batch = random_batch(rng, 3, 4)
        out = svi_update(stats, batch, step_size(10**12, 1.0), 9)
        np.testing.assert_allclose(out.trans_counts, stats.trans_counts, rtol=1e-9)

    def test_counter_increment_and_empty_batch(self):
        stats = initialize_stats(2, 4, 50.0, seed=3)
        before = (stats.trans_counts.copy(), stats.token_stats.copy())
        svi_update(stats, [np.array([1, 2, 0])], step_size(3, 0.7), 5)
        # the schedule is the caller's step count; the step mutates nothing
        np.testing.assert_array_equal(stats.trans_counts, before[0])
        np.testing.assert_array_equal(stats.token_stats, before[1])
        with pytest.raises(ValueError):
            svi_update(stats, [], step_size(4, 0.7), 5)

    def test_batch_vb_fixed_point(self):
        # full-batch steps with rho pinned to 1 must walk the same
        # trajectory as an independently coded batch VB iteration
        rng = np.random.default_rng(8)
        batch = random_batch(rng, 6, 5, max_len=15)
        stats = initialize_stats(2, 5, 60.0, seed=5)
        oracle = batch_vb_hmm(
            batch, 2, 5, 0.1, 0.1,
            0.1 + stats.trans_counts, 0.1 + stats.token_stats, 40,
        )
        current = stats
        for _ in range(40):
            current = svi_update(current, batch, 1.0, len(batch))
        ref_trans, ref_emit = oracle[-1]
        np.testing.assert_allclose(0.1 + current.trans_counts, ref_trans, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            0.1 + current.token_stats, ref_emit, rtol=1e-6, atol=1e-9
        )
