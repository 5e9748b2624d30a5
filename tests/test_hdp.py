"""Checks for the stick-breaking prior machinery.

The table-count estimator has no simple closed form, so it is pinned down
from several directions: exact one-customer cases, analytic bounds
(tables never exceed customers, at least one table whenever anyone shows
up), shape properties in the replicate count, Monte-Carlo restaurant
simulation, and a full batch trajectory against an independent
implementation.
"""

import numpy as np
import pytest

from oracles import batch_hdp_scvi, crp_expected_tables_mc, log_forward_backward, zero_tables
from scvihmm.config import RunConfig
from scvihmm.corpus import Corpus, Vocabulary
from scvihmm.engine import TrainedModel, initialize_stats, process_minibatch
from scvihmm.hdp import (
    HdpPosterior,
    TableStats,
    _solve_gamma_mean,
    compute_geo_alpha_pi,
    tables_from_aggregates,
    update_hdp,
)
from scvihmm.messages import SurrogateParams, sweep
from scvihmm.special import BetaParams, GammaParams, beta_expect_logs

# the Gamma(1, 0.1) concentration priors RunConfig defaults to
PRIOR = GammaParams(1.0, 0.1)


def make_posterior(num_states, geo, alpha=(1.0, 0.1), gamma=(1.0, 0.1)):
    return HdpPosterior(
        BetaParams(np.ones(num_states), np.full(num_states, 10.0)),
        GammaParams(*alpha),
        GammaParams(*gamma),
        np.asarray(geo, float),
    )


def random_posterior_case(seed, num_states=None, seq_len=None, vocab_size=None):
    """One sequence's sweep sums (its own batch means), its surrogate and a prior."""
    rng = np.random.default_rng(seed)
    K = num_states or int(rng.integers(1, 5))
    T = seq_len or int(rng.integers(2, 16))
    V = vocab_size or int(rng.integers(2, 9))
    trans = rng.dirichlet(np.ones(K), size=K + 1)
    emit = rng.dirichlet(np.ones(V), size=K)
    seq = rng.integers(0, V, T)
    params = SurrogateParams(trans, emit)
    sums = sweep(params, [seq], absence=True)
    geo = rng.uniform(1e-3, 2.0, size=K)
    return sums, (params, seq), make_posterior(K, geo), rng


def tables(sums, n, hdp_post):
    return tables_from_aggregates(
        sums.counts, sums.absence_pair, sums.absence_row, n, hdp_post
    )


class TestGeoWeights:
    def test_unit_sticks_unit_concentration(self):
        # Beta(1,1) sticks contribute e^{psi(1)-psi(2)} = e^{-1} per factor
        # and the concentration is tuned so its geometric weight is 1
        K = 5
        sticks = BetaParams(np.ones(K), np.ones(K))
        alpha = GammaParams(1.0, float(np.exp(-np.euler_gamma)))
        geo = compute_geo_alpha_pi(sticks, alpha)
        np.testing.assert_allclose(geo, np.exp(-(np.arange(K) + 1.0)), rtol=1e-12)

    def test_single_state_composition(self):
        from scipy.special import digamma as ref

        sticks = BetaParams(np.array([2.0]), np.array([3.0]))
        alpha = GammaParams(1.5, 0.4)
        geo = compute_geo_alpha_pi(sticks, alpha)
        expected = np.exp(ref(1.5) - np.log(0.4) + ref(2.0) - ref(5.0))
        np.testing.assert_allclose(geo, [expected], rtol=1e-12)

    def test_symmetric_sticks_decay(self):
        sticks = BetaParams(np.full(6, 2.0), np.full(6, 5.0))
        geo = compute_geo_alpha_pi(sticks, GammaParams(1.0, 0.1))
        assert np.all(np.diff(geo) < 0)
        assert np.all(geo > 0)

    def test_deep_truncation_stays_positive(self):
        K = 500
        sticks = BetaParams(np.ones(K), np.full(K, 50.0))
        geo = compute_geo_alpha_pi(sticks, GammaParams(1.0, 0.1))
        assert np.all(geo > 0) and np.all(np.isfinite(geo))

    def test_startup_cache_is_pinned_flat(self):
        post = HdpPosterior.initial(7, 0.37, PRIOR, PRIOR)
        np.testing.assert_array_equal(post.geo_alpha_pi, np.full(7, 0.37))


class TestAbsenceLogProbs:
    def test_single_state_deterministic(self):
        params = SurrogateParams(np.ones((2, 1)), np.full((1, 3), 1 / 3))
        sums = sweep(params, [np.array([0, 2, 1])], absence=True)
        pair, row = sums.absence_pair, sums.absence_row
        # every transition into the only state is certain at every step
        assert pair[0, 0] == -np.inf and pair[1, 0] == -np.inf
        assert row[0] == -np.inf and row[1] == -np.inf

    def test_start_row_always_forced(self):
        sums, _, _, _ = random_posterior_case(1)
        assert sums.absence_row[0] == -np.inf

    def test_hand_computed_two_state(self):
        sums, (params, seq), _, _ = random_posterior_case(2, num_states=2, seq_len=3)
        unary, pairwise, _ = log_forward_backward(params.trans, params.emit, seq)
        expected = np.log1p(-pairwise[0, 1, 0]) + sum(
            np.log1p(-pairwise[t, 1, 0]) for t in (1, 2)
        )
        assert abs(sums.absence_pair[1, 0] - expected) < 1e-12
        expected_row = np.log1p(-unary[0, 0]) + np.log1p(-unary[1, 0])
        assert abs(sums.absence_row[1] - expected_row) < 1e-12

    def test_nonpositive(self):
        for seed in range(5):
            sums, _, _, _ = random_posterior_case(100 + seed)
            assert np.all(sums.absence_pair <= 0) and np.all(sums.absence_row <= 0)


class TestExpectedTables:
    def test_one_certain_customer_is_one_table(self):
        # a single replicate with a guaranteed transition seats exactly one
        # customer, hence exactly one table whatever the concentration
        post = make_posterior(2, [0.37, 1.8])
        mean_counts = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        mlqp = np.zeros((3, 2))
        mlqp[0, 0] = -np.inf
        mlqr = np.array([-np.inf, 0.0, 0.0])
        tables = tables_from_aggregates(mean_counts, mlqp, mlqr, 1, post)
        assert abs(tables.es[0, 0] - 1.0) < 1e-9
        # one certain customer at the restaurant level: E[log eta] = -1/E[alpha]
        assert abs(tables.elogeta[0] - (-1.0 / 10.0)) < 1e-9
        assert tables.es[0, 1] == 0.0 and tables.elogeta[1] == 0.0

    def test_zero_cells_short_circuit(self):
        post = make_posterior(2, [0.5, 0.5])
        mean_counts = np.array([[0.5, 0.0], [0.3, 0.0], [0.0, 0.0]])
        mlqp = np.where(mean_counts > 0, -0.7, 0.0)
        mlqr = np.array([-0.7, -0.4, 0.0])
        tables = tables_from_aggregates(mean_counts, mlqp, mlqr, 10, post)
        assert np.all(tables.es[:, 1] == 0.0)
        assert tables.es[2, 0] == 0.0
        assert tables.elogeta[2] == 0.0
        assert tables.es[0, 0] > 0 and tables.es[1, 0] > 0

    def test_tables_bounded_by_customers_and_presence(self):
        for seed in range(120):
            sums, _, hdp_post, rng = random_posterior_case(200 + seed)
            n = int(rng.integers(1, 1000))
            got = tables(sums, n, hdp_post)
            assert np.all(got.es >= 0) and np.all(np.isfinite(got.es))
            assert np.all(got.elogeta <= 0) and np.all(np.isfinite(got.elogeta))
            # never more tables than expected customers
            assert np.all(got.es <= n * sums.counts * (1 + 1e-10) + 1e-12)
            # at least one table whenever anyone shows up at all
            q_pos = -np.expm1(n * sums.absence_pair)
            active = sums.counts > 0
            assert np.all(got.es[active] >= q_pos[active] - 1e-12)

    def test_growth_in_replicates_concave_and_monotone(self):
        sums, _, hdp_post, _ = random_posterior_case(7, num_states=3, seq_len=10)
        grid = [2**i for i in range(11)]
        curves = np.array([tables(sums, n, hdp_post).es for n in grid])
        etas = np.array([tables(sums, n, hdp_post).elogeta for n in grid])
        diffs = np.diff(curves, axis=0)
        assert np.all(diffs >= -1e-12)
        slopes = diffs / np.diff(grid)[:, None, None]
        assert np.all(np.diff(slopes, axis=0) <= 1e-10)
        assert np.all(np.diff(etas, axis=0) <= 1e-12)

    def test_sublinear_replication(self):
        sums, _, hdp_post, _ = random_posterior_case(8, num_states=2, seq_len=4)
        es = {n: tables(sums, n, hdp_post).es for n in (1, 10, 100)}
        active = sums.counts > 1e-3
        assert np.all(es[10][active] < 10 * es[1][active])
        assert np.all(es[100][active] < 10 * es[10][active])

    def test_matches_restaurant_simulation(self):
        rng = np.random.default_rng(77)
        trans = rng.dirichlet(np.ones(2), size=3)
        emit = rng.dirichlet(np.ones(4), size=2)
        seq = rng.integers(0, 4, 4)
        sums = sweep(SurrogateParams(trans, emit), [seq], absence=True)
        _, pairwise, _ = log_forward_backward(trans, emit, seq)
        geo = np.array([0.3, 0.2])
        hdp_post = make_posterior(2, geo)
        seed = 1000
        for n in (1, 10, 100):
            got = tables(sums, n, hdp_post)
            for row in range(3):
                for col in range(2):
                    if sums.counts[row, col] < 0.05:
                        continue
                    if row == 0:
                        probs = [pairwise[0, 0, col]]
                    else:
                        probs = list(pairwise[1:, row, col])
                    seed += 1
                    mc = crp_expected_tables_mc(probs, n, geo[col], 10_000, seed)
                    assert abs(got.es[row, col] - mc) <= 0.15 * mc


class TestValidation:
    def test_table_stats_shapes_and_signs(self):
        with pytest.raises(ValueError):
            TableStats(np.zeros((3, 3)), np.zeros(4))
        with pytest.raises(ValueError):
            TableStats(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            TableStats(-np.ones((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            TableStats(np.zeros((3, 2)), np.ones(3))

    def test_posterior_geo_validation(self):
        sticks = BetaParams(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            HdpPosterior(sticks, GammaParams(1, 1), GammaParams(1, 1), np.zeros(2))
        with pytest.raises(ValueError):
            HdpPosterior(sticks, GammaParams(1, 1), GammaParams(1, 1), np.ones(3))

    def test_update_rho_and_shape_domain(self):
        post = HdpPosterior.initial(3, 0.1, PRIOR, PRIOR)
        tables = TableStats(*zero_tables(3))
        for rho in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                update_hdp(post, tables, rho, PRIOR, PRIOR)
        with pytest.raises(ValueError):
            update_hdp(post, TableStats(*zero_tables(4)), 1.0, PRIOR, PRIOR)


class TestUpdate:
    def test_full_step_zero_tables_closed_form(self):
        # with no observed tables the coupled solve has the exact solution
        # E[gamma] = 10: v = 10, b_gamma = (1 + K) / 10 * prior rate shape
        K = 5
        start = HdpPosterior.initial(K, 0.1, PRIOR, PRIOR)
        post = update_hdp(start, TableStats(*zero_tables(K)), 1.0, PRIOR, PRIOR)
        np.testing.assert_array_equal(post.sticks.u, np.ones(K))
        np.testing.assert_allclose(post.sticks.v, np.full(K, 10.0), atol=1e-9)
        assert post.gamma.a == 1.0 + K
        assert abs(post.gamma.b - 0.1 * (1.0 + K)) < 1e-10
        assert post.alpha.a == 1.0
        assert abs(post.alpha.b - 0.1) < 1e-15

    def test_cache_refreshed(self):
        start = HdpPosterior.initial(4, 0.1, PRIOR, PRIOR)
        post = update_hdp(start, TableStats(*zero_tables(4)), 1.0, PRIOR, PRIOR)
        np.testing.assert_array_equal(
            post.geo_alpha_pi, compute_geo_alpha_pi(post.sticks, post.alpha)
        )

    def _random_tables(self, seed, num_states):
        rng = np.random.default_rng(seed)
        es = rng.uniform(0.0, 3.0, size=(num_states + 1, num_states))
        elogeta = -rng.uniform(0.0, 0.5, size=num_states + 1)
        return TableStats(es, elogeta)

    def test_vanishing_step_changes_nothing(self):
        start = HdpPosterior.initial(3, 0.1, PRIOR, PRIOR)
        post = update_hdp(start, self._random_tables(1, 3), 1.0, PRIOR, PRIOR)
        after = update_hdp(post, self._random_tables(2, 3), 1e-12, PRIOR, PRIOR)
        np.testing.assert_allclose(after.sticks.u, post.sticks.u, rtol=1e-9)
        np.testing.assert_allclose(after.sticks.v, post.sticks.v, rtol=1e-9)
        assert abs(after.alpha.a - post.alpha.a) < 1e-9
        assert abs(after.gamma.b - post.gamma.b) < 1e-6

    def test_full_step_idempotent(self):
        tables = self._random_tables(3, 4)
        once = update_hdp(HdpPosterior.initial(4, 0.1, PRIOR, PRIOR), tables, 1.0, PRIOR, PRIOR)
        twice = update_hdp(once, tables, 1.0, PRIOR, PRIOR)
        np.testing.assert_array_equal(once.sticks.u, twice.sticks.u)
        np.testing.assert_array_equal(once.sticks.v, twice.sticks.v)
        assert (once.alpha.a, once.alpha.b) == (twice.alpha.a, twice.alpha.b)
        assert (once.gamma.a, once.gamma.b) == (twice.gamma.a, twice.gamma.b)
        np.testing.assert_array_equal(once.geo_alpha_pi, twice.geo_alpha_pi)

    def test_stick_means_follow_table_mass(self):
        # a state receiving most tables should claim a larger stick share
        K = 3
        es = np.zeros((K + 1, K))
        es[:, 0] = 5.0
        es[:, 1] = 0.5
        tables = TableStats(es, -0.1 * np.ones(K + 1))
        post = update_hdp(HdpPosterior.initial(K, 0.1, PRIOR, PRIOR), tables, 1.0, PRIOR, PRIOR)
        means = post.sticks.u / (post.sticks.u + post.sticks.v)
        assert means[0] > means[1] > means[2]


def full_bisection(c_v, c_b, u_new, a_gamma, rho):
    """The gamma-mean solve run for all 200 bisection steps, no early stop.

    Also returns how many times the lower bracket was divided.
    """

    def b_gamma_of(g):
        _, e_log1m = beta_expect_logs(BetaParams(u_new, c_v + rho * g))
        return c_b - rho * e_log1m.sum()

    def f(g):
        return a_gamma / b_gamma_of(g) - g

    lo = 1e-12
    lower = 0
    while f(lo) <= 0.0 and lower < 60:
        lo /= 8.0
        lower += 1
    hi = a_gamma / c_b + 1.0
    attempts = 0
    while f(hi) > 0.0 and attempts < 60:
        hi *= 2.0
        attempts += 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    return g, b_gamma_of(g), lower


class TestSolveGammaMean:
    def test_fixed_point_stop_returns_the_full_bisection_bits(self):
        rng = np.random.default_rng(71)
        exhausted = 0
        for case in range(30):
            K = int(rng.integers(1, 12))
            rho = float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
            u_new = rng.uniform(1.0, 50.0, K)
            if case % 3 == 0:
                # no tail mass: f stays <= 0 down to the last lower bracket
                c_v = np.zeros(K)
                a_gamma = float(rng.uniform(0.05, 0.9)) * K
            else:
                c_v = rng.uniform(0.0, 20.0, K) * rng.integers(0, 2, K)
                a_gamma = float(rng.uniform(0.5, 30.0))
            c_b = float(rng.uniform(0.01, 5.0))
            g, b_gamma, lower = full_bisection(c_v, c_b, u_new, a_gamma, rho)
            exhausted += lower == 60
            got = _solve_gamma_mean(c_v, c_b, u_new, a_gamma, rho)
            assert got[0] == g and got[1] == b_gamma
        assert exhausted > 0


class TestBatchTrajectory:
    def test_matches_independent_implementation(self):
        # full-batch co-evolution of statistics and stick posterior, step
        # size pinned to 1, against a from-scratch implementation
        rng = np.random.default_rng(90)
        K, V = 3, 5
        vocab = Vocabulary(f"w{i}" for i in range(V - 1))
        seqs = [rng.integers(0, V, rng.integers(8, 15)) for _ in range(5)]
        corpus = Corpus.from_sequences(seqs, vocab)
        stats = initialize_stats(K, V, corpus.counts, seed=17)
        snaps = batch_hdp_scvi(
            seqs, K, V, 0.1,
            stats.trans_counts, stats.token_stats, 20,
        )
        config = RunConfig(algorithm="scvi-hdphmm", num_states=K)
        post = HdpPosterior.initial(K, 0.1, PRIOR, PRIOR)
        current = stats
        for i in range(20):
            model = TrainedModel(config, current, post)
            current, sums = process_minibatch(model, seqs, 1.0, len(seqs))
            parts = (sums.counts, sums.absence_pair, sums.absence_row)
            means = [total / len(seqs) for total in parts]
            tables = tables_from_aggregates(*means, len(seqs), post)
            post = update_hdp(post, tables, 1.0, PRIOR, PRIOR)
            ref = snaps[i]
            np.testing.assert_allclose(
                current.trans_counts, ref["counts"], rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(
                current.token_stats, ref["tokens"], rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(post.sticks.u, ref["u"], rtol=1e-8)
            np.testing.assert_allclose(post.sticks.v, ref["v"], rtol=1e-8)
            np.testing.assert_allclose(
                [post.alpha.a, post.alpha.b], ref["alpha"], rtol=1e-8
            )
            np.testing.assert_allclose(
                [post.gamma.a, post.gamma.b], ref["gamma"], rtol=1e-8
            )
            np.testing.assert_allclose(post.geo_alpha_pi, ref["geo"], rtol=1e-7)
