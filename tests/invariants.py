"""Property batteries behind the invariant-suite acceptance check.

One function per documented module invariant; each runs its full battery
of seeded random cases (100 by default where the property is case-based)
and raises AssertionError on the first violation.  Returns a short
human-readable summary used by the acceptance report.
"""

import math

import numpy as np

from oracles import batch_sums, enumerate_paths, log_space_loglik, surrogate_emission_row
from scvihmm.config import RunConfig
from scvihmm.corpus import (
    Corpus,
    SyntheticSpec,
    Vocabulary,
    generate_synthetic,
    load_corpus,
    minibatches,
    save_corpus,
    split,
)
from scvihmm.engine import (
    TrainedModel,
    build_surrogate,
    initialize_stats,
    predictive_log_likelihood,
    process_minibatch,
    step_size,
)
from scvihmm.hdp import (
    HdpPosterior,
    TableStats,
    compute_geo_alpha_pi,
    tables_from_aggregates,
    update_hdp,
)
from scvihmm.messages import SurrogateParams, sweep
from scvihmm.model_io import load_model, save_model
from scvihmm.special import (
    BetaParams,
    GammaParams,
    beta_expect_logs,
    digamma,
    gamma_expect,
    gamma_geo_expect,
)


# the Gamma(1, 0.1) concentration priors RunConfig defaults to
PRIOR = GammaParams(1.0, 0.1)


def _model(trans_counts, token_stats, algorithm="scvi-hmm"):
    """A model of these statistics under the default 0.1 priors of ``algorithm``."""
    config = RunConfig(algorithm=algorithm, num_states=trans_counts.shape[1])
    return TrainedModel(config, trans_counts, token_stats)


def _random_params(rng, num_states=None, vocab_size=None):
    k = num_states or int(rng.integers(1, 5))
    v = vocab_size or int(rng.integers(2, 9))
    return SurrogateParams(
        rng.dirichlet(np.ones(k), size=k + 1), rng.dirichlet(np.ones(v), size=k)
    )


def _random_case(rng, max_states=5, max_len=16, max_seqs=4):
    """Random surrogate and a batch of 1..max_seqs sequences for it."""
    params = _random_params(rng, int(rng.integers(1, max_states)))
    batch = [
        rng.integers(0, params.vocab_size, int(rng.integers(2, max_len)))
        for _ in range(int(rng.integers(1, max_seqs + 1)))
    ]
    return params, batch


# ---------------------------------------------------------------- special


def check_beta_log_signs_and_swap(n=100):
    rng = np.random.default_rng(11)
    for _ in range(n):
        u, v = rng.uniform(0.05, 50.0, size=2)
        a, b = beta_expect_logs(BetaParams(u, v))
        assert a < 0 and b < 0
        swapped = beta_expect_logs(BetaParams(v, u))
        assert swapped == (b, a)
    return f"{n} Beta parameter pairs"


def check_geometric_below_arithmetic(n=100):
    rng = np.random.default_rng(12)
    for _ in range(n):
        p = GammaParams(rng.uniform(0.05, 80.0), rng.uniform(0.01, 20.0))
        assert gamma_geo_expect(p) < gamma_expect(p)
    return f"{n} Gamma parameter pairs"


def check_digamma_recurrence(n=100):
    rng = np.random.default_rng(13)
    xs = np.exp(rng.uniform(np.log(0.1), np.log(1e6), size=n))
    gap = digamma(xs + 1.0) - digamma(xs)
    assert np.all(np.abs(gap - 1.0 / xs) <= 1e-10)
    return f"{n} points in [0.1, 1e6]"


def check_geometric_product_rule(n=100):
    rng = np.random.default_rng(14)
    for _ in range(n):
        m = int(rng.integers(2, 6))
        gammas = [GammaParams(rng.uniform(0.2, 20.0), rng.uniform(0.1, 5.0)) for _ in range(m)]
        via_logs = math.exp(sum(math.log(gamma_geo_expect(g)) for g in gammas))
        via_product = math.prod(gamma_geo_expect(g) for g in gammas)
        assert abs(via_logs - via_product) <= 1e-12 * via_product
    return f"{n} factor products"


# -------------------------------------------------------------- emissions


def _kl_to_uniform(row):
    v = row.size
    return float(np.sum(row * np.log(row * v)))


def check_emission_smoothing_toward_uniform(n=100):
    rng = np.random.default_rng(21)
    for _ in range(n):
        v = int(rng.integers(2, 12))
        pseudo = np.full(v, rng.uniform(0.05, 2.0))
        base = rng.uniform(0.0, 30.0, size=(1, v))
        kls = []
        for c in (0.0, 1.0, 10.0, 100.0)[:4]:
            t = base + c
            row = surrogate_emission_row(pseudo, t, 0)
            assert np.all(row > 0) and abs(row.sum() - 1.0) < 1e-12
            kls.append(_kl_to_uniform(row))
        assert kls[0] >= kls[1] >= kls[2] >= kls[3]
    return f"{n} rows, added mass in {{1,10,100}}"


def check_emission_large_count_limit(n=100):
    rng = np.random.default_rng(22)
    for _ in range(n):
        v = int(rng.integers(2, 12))
        pseudo = np.full(v, rng.uniform(0.05, 2.0))
        props = rng.dirichlet(np.ones(v))
        t = (1e6 * props)[None, :]
        row = surrogate_emission_row(pseudo, t, 0)
        assert np.max(np.abs(row - props)) < 1e-4
    return f"{n} rows at 1e6 scale"


def check_emission_row_independence(n=100):
    rng = np.random.default_rng(23)
    for _ in range(n):
        k, v = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        t = rng.uniform(0.0, 5.0, size=(k, v))
        before = build_surrogate(_model(np.ones((k + 1, k)), t)).emit
        t2 = t.copy()
        t2[0] += rng.uniform(1.0, 3.0, size=v)
        after = build_surrogate(_model(np.ones((k + 1, k)), t2)).emit
        assert np.array_equal(before[1:], after[1:])
        assert not np.array_equal(before[0], after[0])
    return f"{n} perturbed-row matrices"


# --------------------------------------------------------------- messages


def check_loglik_log_space_agreement(n=100):
    rng = np.random.default_rng(31)
    for _ in range(n):
        params, batch = _random_case(rng)
        for got, seq in zip(sweep(params, batch, stats=False).loglik, batch):
            ref = log_space_loglik(params.trans, params.emit, seq)
            assert abs(got - ref) <= 1e-9 * abs(ref)
    return f"{n} scaled-vs-log sweeps"


def check_label_equivariance(n=100):
    rng = np.random.default_rng(32)
    for _ in range(n):
        params, batch = _random_case(rng, max_states=5)
        k = params.num_states
        perm = rng.permutation(k)
        sums = sweep(params, batch)
        permuted = SurrogateParams(
            np.vstack((params.trans[0, perm], params.trans[1:][perm][:, perm])),
            params.emit[perm],
        )
        sums_p = sweep(permuted, batch)
        assert np.allclose(sums_p.token_stats, sums.token_stats[perm], atol=1e-12)
        assert np.all(np.abs(sums_p.loglik - sums.loglik) < 1e-9)
    return f"{n} permutations"


def check_enumeration_equivalence(n=100):
    rng = np.random.default_rng(33)
    for _ in range(n):
        params = _random_params(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        batch = [
            rng.integers(0, params.vocab_size, int(rng.integers(1, 9)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        sums = sweep(params, batch)
        counts, tokens, loglik = batch_sums(enumerate_paths, params.trans, params.emit, batch)
        assert np.max(np.abs(sums.token_stats - tokens)) <= 1e-10
        assert np.max(np.abs(sums.counts - counts)) <= 1e-10
        assert np.all(np.abs(sums.loglik - loglik) <= 1e-10 * np.abs(loglik))
    return f"{n} brute-force comparisons"


def check_pairwise_unary_consistency(n=100):
    rng = np.random.default_rng(34)
    for _ in range(n):
        params, batch = _random_case(rng)
        total = sum(seq.size for seq in batch)
        sums = sweep(params, batch)
        # the pairwise marginals sum to the unary ones, which sum to 1
        assert np.allclose(sums.counts.sum(axis=0), sums.token_stats.sum(axis=1), atol=1e-12)
        assert abs(sums.token_stats.sum() - total) <= 1e-12 * total
    return f"{n} posterior consistency sweeps"


# ----------------------------------------------------------------- engine


def _random_minibatch_setup(rng):
    k, v = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    vocab = Vocabulary(f"w{i}" for i in range(v - 1))
    seqs = [rng.integers(0, v, rng.integers(2, 10)) for _ in range(int(rng.integers(2, 9)))]
    corpus = Corpus.from_sequences(seqs, vocab)
    model = _model(*initialize_stats(k, v, corpus.counts, int(rng.integers(1000))))
    kappa = float(rng.uniform(0.5, 1.0))
    return corpus, model, step_size(int(rng.integers(0, 20)), kappa)


def check_stats_nonnegative_finite(n=100):
    rng = np.random.default_rng(41)
    for _ in range(n):
        corpus, model, rho = _random_minibatch_setup(rng)
        out, _ = process_minibatch(model, corpus.sequences, rho, len(corpus))
        assert np.all(out.trans_counts >= 0) and np.all(np.isfinite(out.trans_counts))
        assert np.all(out.token_stats >= 0)
        assert np.all(np.isfinite(out.token_stats))
    return f"{n} minibatch updates"


def check_convex_total_mass(n=100):
    rng = np.random.default_rng(42)
    for _ in range(n):
        corpus, model, rho = _random_minibatch_setup(rng)
        m = int(rng.integers(1, len(corpus) + 1))
        batch = corpus.sequences[:m]
        out, _ = process_minibatch(model, batch, rho, len(corpus))
        mean_tokens = sum(len(s) for s in batch) / m
        expected = (1 - rho) * model.trans_counts.sum() + rho * len(corpus) * mean_tokens
        assert abs(out.trans_counts.sum() - expected) <= 1e-8 * max(expected, 1.0)
    return f"{n} convex-combination totals"


def check_minibatch_order_invariance(n=100):
    rng = np.random.default_rng(43)
    for _ in range(n):
        corpus, model, rho = _random_minibatch_setup(rng)
        a, _ = process_minibatch(model, corpus.sequences, rho, len(corpus))
        b, _ = process_minibatch(model, corpus.sequences, rho, len(corpus))
        assert np.array_equal(a.trans_counts, b.trans_counts)
        assert np.array_equal(a.token_stats, b.token_stats)
        c, _ = process_minibatch(model, corpus.sequences[::-1], rho, len(corpus))
        assert np.allclose(c.trans_counts, a.trans_counts, rtol=1e-9, atol=1e-12)
    return f"{n} repeat/reversed minibatches"


def check_flat_prior_term_structure(n=100):
    rng = np.random.default_rng(44)
    for _ in range(n):
        k, v = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        counts = rng.uniform(0.0, 10.0, size=(k + 1, k))
        emit = rng.uniform(0.01, 5.0, size=(k, v))
        params = build_surrogate(_model(counts, emit))
        unnorm = 0.1 + counts
        assert np.allclose(params.trans, unnorm / unnorm.sum(axis=1, keepdims=True),
                           atol=1e-12)
    return f"{n} surrogate constructions with flat 0.1 prior term"


def check_predictive_pure_function(n=100):
    rng = np.random.default_rng(45)
    for _ in range(n):
        corpus, model, _ = _random_minibatch_setup(rng)
        first = predictive_log_likelihood(model, corpus)
        clone = _model(model.trans_counts.copy(), model.token_stats.copy())
        assert predictive_log_likelihood(model, corpus) == first
        assert predictive_log_likelihood(clone, corpus) == first
    return f"{n} re-evaluations"


# -------------------------------------------------------------------- hdp


def _random_table_inputs(rng):
    """One sequence's sweep sums (its own batch means) and a random prior."""
    k = int(rng.integers(1, 5))
    params = _random_params(rng, k)
    seq = rng.integers(0, params.vocab_size, int(rng.integers(2, 14)))
    sums = sweep(params, [seq], absence=True)
    hdp_post = HdpPosterior(
        BetaParams(rng.uniform(0.5, 3.0, k), rng.uniform(1.0, 15.0, k)),
        GammaParams(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.05, 1.0))),
        GammaParams(1.0, 0.1),
        rng.uniform(1e-3, 2.0, k),
    )
    return sums, hdp_post


def _tables(sums, n_rep, hdp_post):
    return tables_from_aggregates(sums.counts, sums.absence_pair, sums.absence_row, n_rep, hdp_post)


def check_tables_at_most_customers(n=100):
    rng = np.random.default_rng(51)
    for _ in range(n):
        sums, hdp_post = _random_table_inputs(rng)
        n_rep = int(rng.integers(1, 2000))
        tables = _tables(sums, n_rep, hdp_post)
        assert np.all(tables.es <= n_rep * sums.counts + 1e-9)
    return f"{n} table/customer bounds"


def check_tables_at_least_presence(n=100):
    rng = np.random.default_rng(52)
    for _ in range(n):
        sums, hdp_post = _random_table_inputs(rng)
        localC = sums.counts
        n_rep = int(rng.integers(1, 2000))
        tables = _tables(sums, n_rep, hdp_post)
        q_pos = -np.expm1(n_rep * sums.absence_pair)
        geo = hdp_post.geo_alpha_pi[None, :]
        e_plus = np.where(localC > 0, n_rep * localC / np.maximum(q_pos, 1e-300), 1.0)
        floor = q_pos * geo * (digamma(geo + np.minimum(e_plus, 1.0)) - digamma(geo))
        active = localC > 0
        assert np.all(tables.es[active] >= floor[active] - 1e-9)
    return f"{n} presence lower bounds"


def check_tables_monotone_concave_in_replicates(n=100):
    rng = np.random.default_rng(53)
    grid = np.array([2**i for i in range(11)], dtype=float)
    for _ in range(n):
        sums, hdp_post = _random_table_inputs(rng)
        curves = np.array([_tables(sums, int(g), hdp_post).es for g in grid])
        diffs = np.diff(curves, axis=0)
        assert np.all(diffs >= -1e-9)
        # concavity on the dyadic grid, as slopes of the divided differences
        slopes = diffs / np.diff(grid)[:, None, None]
        assert np.all(np.diff(slopes, axis=0) <= 1e-9)
    return f"{n} dyadic growth curves"


def check_update_idempotent_at_full_step(n=100):
    rng = np.random.default_rng(54)
    for _ in range(n):
        k = int(rng.integers(1, 6))
        tables = TableStats(
            rng.uniform(0.0, 4.0, size=(k + 1, k)), -rng.uniform(0.0, 1.0, k + 1)
        )
        start = HdpPosterior.initial(k, 0.1, PRIOR, PRIOR)
        once = update_hdp(start, tables, 1.0, PRIOR, PRIOR)
        twice = update_hdp(once, tables, 1.0, PRIOR, PRIOR)
        assert np.array_equal(once.sticks.u, twice.sticks.u)
        assert np.array_equal(once.sticks.v, twice.sticks.v)
        assert (once.alpha.a, once.alpha.b) == (twice.alpha.a, twice.alpha.b)
        assert (once.gamma.a, once.gamma.b) == (twice.gamma.a, twice.gamma.b)
    return f"{n} double applications"


def check_geo_cache_coherent(n=100):
    rng = np.random.default_rng(55)
    post = HdpPosterior.initial(4, 0.1, PRIOR, PRIOR)
    for _ in range(n):
        tables = TableStats(
            rng.uniform(0.0, 3.0, size=(5, 4)), -rng.uniform(0.0, 0.8, 5)
        )
        post = update_hdp(post, tables, float(rng.uniform(0.05, 1.0)), PRIOR, PRIOR)
        recomputed = compute_geo_alpha_pi(post.sticks, post.alpha)
        assert np.max(np.abs(post.geo_alpha_pi - recomputed)) <= 1e-12
    return f"{n} sequential updates"


# -------------------------------------------------------------------- svi


def check_rows_stay_above_prior(n=100):
    # the Dirichlet rows are prior + counts, so they stay above the prior
    # exactly when the counts stay above 0
    rng = np.random.default_rng(61)
    for _ in range(n):
        k, v = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        stats = initialize_stats(k, v, 60.0, int(rng.integers(1000)))
        seqs = [rng.integers(0, v, rng.integers(2, 9)) for _ in range(3)]
        # rho = 1 wipes the old counts, so a word absent from the batch sits
        # exactly on 0; every later step is a strict convex blend
        model = _model(*stats, "svi-hmm")
        first, _ = process_minibatch(model, seqs, 1.0, 6)
        assert np.all(first.trans_counts >= 0.0)
        assert np.all(first.token_stats >= 0.0)
        kappa = float(rng.uniform(0.5, 1.0))
        rho = step_size(int(rng.integers(1, 10)), kappa)
        stepped, _ = process_minibatch(model, seqs, rho, 6)
        assert np.all(stepped.trans_counts > 0.0)
        assert np.all(stepped.token_stats > 0.0)
    return f"{n} natural-gradient steps"


def check_shared_data_streams(n=100):
    rng = np.random.default_rng(62)
    vocab = Vocabulary(f"w{i}" for i in range(5))
    seqs = [rng.integers(0, 6, rng.integers(2, 8)) for _ in range(17)]
    corpus = Corpus.from_sequences(seqs, vocab)
    for _ in range(n):
        seed = int(rng.integers(10000))
        mode = "shuffle" if rng.random() < 0.5 else "iid"
        m = int(rng.integers(1, 9))
        # train draws from this stream whatever the algorithm, so one stream per algorithm
        streams = [minibatches(corpus, m, seed, mode) for _ in range(3)]
        for _ in range(4):
            ref = next(streams[0])
            for s in streams[1:]:
                assert np.array_equal(ref, next(s))
    return f"{n} seed/mode stream triplets"


# ----------------------------------------------------------------- corpus


def check_corpus_round_trip(n=100, tmp_dir=None):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(71)
    base = Path(tmp_dir) if tmp_dir else Path(tempfile.mkdtemp(prefix="inv_corpus_"))
    for i in range(n):
        v = int(rng.integers(2, 10))
        vocab = Vocabulary(f"tok{j}" for j in range(v))
        seqs = [rng.integers(1, v + 1, rng.integers(1, 9))
                for _ in range(int(rng.integers(1, 7)))]
        corpus = Corpus.from_sequences(seqs, vocab)
        cpath, vpath = base / f"c{i}.txt", base / f"v{i}.txt"
        save_corpus(corpus, cpath)
        vocab.save(vpath)
        reloaded = load_corpus(cpath, vocab=Vocabulary.load(vpath))
        assert len(reloaded) == len(corpus)
        for a, b in zip(reloaded.sequences, corpus.sequences):
            assert np.array_equal(a, b)
    return f"{n} save/load cycles"


def check_split_partitions(n=100):
    rng = np.random.default_rng(72)
    vocab = Vocabulary(["a", "b", "c"])
    for _ in range(n):
        n_seqs = int(rng.integers(2, 40))
        seqs = [rng.integers(0, 4, rng.integers(1, 7)) for _ in range(n_seqs)]
        corpus = Corpus.from_sequences(seqs, vocab)
        frac = float(rng.uniform(0.2, 0.8))
        n_train = int(round(frac * n_seqs))
        if n_train == 0 or n_train == n_seqs:
            continue
        train_c, test_c = split(corpus, frac, int(rng.integers(1000)))
        assert len(train_c) + len(test_c) == len(corpus)
        pool = sorted(tuple(s) for s in corpus.sequences)
        got = sorted(tuple(s) for s in train_c.sequences + test_c.sequences)
        assert pool == got
    return f"{n} random splits"


def check_synthetic_transition_frequencies(n_specs=3):
    # identity emissions expose the state path; chi-square per row against
    # the spec's transition distribution at ~1e5 observed transitions
    from scipy.stats import chi2

    for seed in range(n_specs):
        rng = np.random.default_rng(seed)
        k = 3
        trans = rng.dirichlet(np.full(k, 5.0), size=k + 1)
        emit = np.eye(k)
        spec = SyntheticSpec(k, k, trans, emit, 6000, 18, 24, seed=seed)
        corpus, _ = generate_synthetic(spec)
        counts = np.zeros((k, k))
        for seq in corpus.sequences:
            raw = seq - 1
            np.add.at(counts, (raw[:-1], raw[1:]), 1)
        assert counts.sum() > 1e5
        for row in range(k):
            observed = counts[row]
            expected = observed.sum() * trans[row + 1]
            stat = float(((observed - expected) ** 2 / expected).sum())
            assert stat < chi2.ppf(0.999, df=k - 1), f"row {row}: chi2 {stat:.1f}"
    return f"{n_specs} generators at >=1e5 transitions"


# ------------------------------------------------------------ persistence


def check_model_round_trip_persistence(n=100, tmp_dir=None):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(81)
    base = Path(tmp_dir) if tmp_dir else Path(tempfile.mkdtemp(prefix="inv_model_"))
    algos = ("scvi-hmm", "scvi-hdphmm", "svi-hmm")
    for i in range(n):
        algo = algos[i % 3]
        k, v = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        config = RunConfig(algorithm=algo, num_states=k)
        vocab = Vocabulary(f"w{j}" for j in range(v - 1))
        emit = rng.uniform(0.0, 5.0, (k, v))
        counts = rng.uniform(0.0, 5.0, (k + 1, k))
        hdp = None
        if algo == "scvi-hdphmm":
            hdp = HdpPosterior(
                BetaParams(rng.uniform(0.5, 3.0, k), rng.uniform(1.0, 12.0, k)),
                GammaParams(1.0, 0.1), GammaParams(2.0, 0.3),
                rng.uniform(0.01, 1.0, k),
            )
        model = TrainedModel(config, counts, emit, hdp=hdp, vocab=vocab)
        path = base / f"m{i}.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded.hdp) is type(model.hdp)
        assert np.array_equal(loaded.trans_counts, model.trans_counts)
        assert np.array_equal(loaded.token_stats, model.token_stats)
        assert loaded.config == model.config and loaded.vocab == model.vocab
    return f"{n} checkpoint cycles"


# -------------------------------------------------------------------- cli


def check_metrics_rows_parse(n=100, tmp_dir=None):
    import csv
    import tempfile
    from pathlib import Path

    from scvihmm.cli import METRICS_HEADER, append_metrics
    from scvihmm.engine import MetricRecord

    rng = np.random.default_rng(91)
    base = Path(tmp_dir) if tmp_dir else Path(tempfile.mkdtemp(prefix="inv_csv_"))
    path = base / "metrics.csv"
    records = []
    train_clock = eval_clock = 0.0
    for i in range(n):
        train_clock += float(rng.uniform(0.0, 2.0))
        eval_clock += float(rng.uniform(0.0, 0.5))
        ll = float(rng.normal(-3.0, 1.0)) if rng.random() < 0.9 else float("nan")
        records.append(MetricRecord(i, i // 7, train_clock, eval_clock, ll, int(rng.integers(1, 50))))
    append_metrics(path, records)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == METRICS_HEADER
    assert len(rows) == n + 1
    for row in rows[1:]:
        int(row[0]); int(row[1]); float(row[4]); int(row[5])
    for col in (2, 3):
        seconds = [float(row[col]) for row in rows[1:]]
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))
    return f"{n} metric rows"


def check_cli_defaults_match_reference_setup():
    from scvihmm.cli import build_config, build_parser

    args = build_parser().parse_args(["train", "corpus.txt"])
    config = build_config(args)
    assert config.trans_prior == 0.1 and config.emit_prior == 0.1
    assert config.alpha_prior_shape == 1.0 and config.alpha_prior_rate == 0.1
    assert config.gamma_prior_shape == 1.0 and config.gamma_prior_rate == 0.1
    assert config.kappa == 0.5
    assert config.minibatch_size == 1000 and config.large_batch_size == 10000
    assert config.num_states == 45
    return "default flag resolution"


ALL_CHECKS = [
    check_beta_log_signs_and_swap,
    check_geometric_below_arithmetic,
    check_digamma_recurrence,
    check_geometric_product_rule,
    check_emission_smoothing_toward_uniform,
    check_emission_large_count_limit,
    check_emission_row_independence,
    check_loglik_log_space_agreement,
    check_label_equivariance,
    check_enumeration_equivalence,
    check_pairwise_unary_consistency,
    check_stats_nonnegative_finite,
    check_convex_total_mass,
    check_minibatch_order_invariance,
    check_flat_prior_term_structure,
    check_predictive_pure_function,
    check_tables_at_most_customers,
    check_tables_at_least_presence,
    check_tables_monotone_concave_in_replicates,
    check_update_idempotent_at_full_step,
    check_geo_cache_coherent,
    check_rows_stay_above_prior,
    check_shared_data_streams,
    check_corpus_round_trip,
    check_split_partitions,
    check_synthetic_transition_frequencies,
    check_model_round_trip_persistence,
    check_metrics_rows_parse,
    check_cli_defaults_match_reference_setup,
]
