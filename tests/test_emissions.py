"""Checks for the categorical emission family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dirichlet_predictive_row, surrogate_emission_row
from scvihmm.emissions import EmissionPrior, surrogate_emission_matrix
from scvihmm.engine import GlobalStats


class TestEmissionPrior:
    def test_symmetric_constructor(self):
        prior = EmissionPrior.symmetric(0.1, 5)
        np.testing.assert_array_equal(prior.pseudo_counts, np.full(5, 0.1))
        assert prior.vocab_size == 5
        assert abs(prior.total - 0.5) < 1e-15

    @pytest.mark.parametrize(
        "pseudo",
        [np.array([]), np.array([0.0, 1.0]), np.array([1.0, -0.5]), np.array([np.nan, 1.0])],
    )
    def test_rejects_bad_pseudo_counts(self, pseudo):
        with pytest.raises(ValueError):
            EmissionPrior(pseudo)


class TestEmissionStats:
    """The emission statistics are the ``token_stats`` array of GlobalStats."""

    def test_rejects_negative_entries(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="token_stats"):
                GlobalStats(np.ones((2, 1)), np.array([[1.0, bad]]))


class TestSurrogateRow:
    def test_zero_stats_gives_uniform(self):
        prior = EmissionPrior.symmetric(0.1, 5)
        stats = np.zeros((2, 5))
        row = surrogate_emission_row(prior, stats, 0)
        np.testing.assert_allclose(row, np.full(5, 0.2), atol=1e-15)

    def test_single_count_example(self):
        prior = EmissionPrior.symmetric(0.1, 5)
        stats = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        row = surrogate_emission_row(prior, stats, 0)
        expected = np.array([1.1, 0.1, 0.1, 0.1, 0.1]) / 1.5
        np.testing.assert_allclose(row, expected, atol=1e-15)
        oracle = dirichlet_predictive_row(prior.pseudo_counts, stats[0])
        np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_two_token_example(self):
        prior = EmissionPrior.symmetric(0.1, 2)
        stats = np.array([[3.0, 1.0]])
        row = surrogate_emission_row(prior, stats, 0)
        np.testing.assert_allclose(row, np.array([3.1, 1.1]) / 4.2, atol=1e-15)
        oracle = dirichlet_predictive_row(prior.pseudo_counts, stats[0])
        np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_generic_form_agreement_on_random_stats(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            vocab = int(rng.integers(2, 8))
            prior = EmissionPrior(rng.uniform(0.05, 3.0, vocab))
            stats = rng.uniform(0.0, 10.0, (1, vocab))
            row = surrogate_emission_row(prior, stats, 0)
            oracle = dirichlet_predictive_row(prior.pseudo_counts, stats[0])
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_rows_normalized_and_positive(self):
        rng = np.random.default_rng(11)
        prior = EmissionPrior.symmetric(0.1, 9)
        for _ in range(100):
            stats = rng.uniform(0.0, 50.0, (4, 9))
            mat = surrogate_emission_matrix(prior, stats)
            assert np.all(mat > 0.0) and np.all(mat < 1.0)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(17)
        prior = EmissionPrior(rng.uniform(0.1, 2.0, 6))
        stats = rng.uniform(0.0, 5.0, (3, 6))
        mat = surrogate_emission_matrix(prior, stats)
        for k in range(3):
            np.testing.assert_array_equal(mat[k], surrogate_emission_row(prior, stats, k))

    def test_state_index_out_of_range(self):
        prior = EmissionPrior.symmetric(0.1, 5)
        stats = np.zeros((2, 5))
        with pytest.raises(IndexError):
            surrogate_emission_row(prior, stats, 2)

    def test_vocab_mismatch(self):
        prior = EmissionPrior.symmetric(0.1, 4)
        stats = np.zeros((2, 5))
        with pytest.raises(ValueError):
            surrogate_emission_matrix(prior, stats)
        with pytest.raises(ValueError):
            surrogate_emission_row(prior, stats, 0)


def kl_to_uniform(row):
    v = row.size
    return float(np.sum(row * (np.log(row) + np.log(v))))


class TestSurrogateRowProperties:
    def test_flattening_moves_toward_uniform(self):
        # Adding a constant to every token stat (and V*c to the count) keeps
        # the row valid and shrinks its KL divergence to uniform.
        prior = EmissionPrior.symmetric(0.1, 5)
        base = np.array([[12.0, 3.0, 0.5, 0.0, 1.5]])
        last_kl = kl_to_uniform(
            surrogate_emission_row(prior, base, 0)
        )
        for c in (1.0, 10.0, 100.0):
            stats = base + c
            row = surrogate_emission_row(prior, stats, 0)
            np.testing.assert_allclose(row.sum(), 1.0, atol=1e-12)
            kl = kl_to_uniform(row)
            assert kl < last_kl
            last_kl = kl

    def test_large_count_limit_recovers_proportions(self):
        prior = EmissionPrior.symmetric(0.1, 4)
        proportions = np.array([0.4, 0.3, 0.2, 0.1])
        stats = 1e6 * proportions[None, :]
        row = surrogate_emission_row(prior, stats, 0)
        np.testing.assert_allclose(row, proportions, atol=1e-4)

    def test_row_independence(self):
        prior = EmissionPrior.symmetric(0.1, 6)
        rng = np.random.default_rng(23)
        t = rng.uniform(0.0, 10.0, (4, 6))
        before = surrogate_emission_matrix(prior, t)
        t2 = t.copy()
        t2[2] += rng.uniform(1.0, 5.0, 6)
        after = surrogate_emission_matrix(prior, t2)
        for k in (0, 1, 3):
            assert np.array_equal(before[k], after[k])
        assert not np.array_equal(before[2], after[2])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_rows_valid(self, seed):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 12))
        prior = EmissionPrior(rng.uniform(0.01, 5.0, vocab))
        stats = rng.uniform(0.0, 100.0, (2, vocab))
        row = surrogate_emission_row(prior, stats, 1)
        assert np.all(row > 0.0)
        assert abs(row.sum() - 1.0) < 1e-12
