"""Acceptance gate: eight end-to-end checks, one printed pass/fail line each.

The lines are written straight to the terminal (bypassing capture), so a
plain `pytest tests/test_acceptance.py` shows the verdicts as they land.
Everything here runs on synthetic corpora; the checks are property-based
plus scaled-down relative comparisons between the algorithms.
"""

import functools
import time
from dataclasses import replace

import numpy as np

import invariants
from oracles import batch_cvb0_hmm, crp_expected_tables_mc, log_forward_backward
from scvihmm.config import RunConfig
from scvihmm.corpus import SyntheticSpec, generate_synthetic
from scvihmm.engine import (
    TrainedModel,
    initialize_stats,
    predictive_log_likelihood,
    process_minibatch,
    train,
)
from scvihmm.hdp import HdpPosterior, tables_from_aggregates
from scvihmm.messages import SurrogateParams, sweep
from scvihmm.special import BetaParams, GammaParams


def _emit(capsys, line):
    # bypass capture so every run prints exactly one verdict line per check
    with capsys.disabled():
        print(line, flush=True)


def _criterion(num):
    def wrap(fn):
        def run(capsys):
            try:
                detail = fn()
            except BaseException as exc:
                _emit(capsys, f"[acceptance {num}] FAIL: {exc}")
                raise
            _emit(capsys, f"[acceptance {num}] PASS: {detail}")

        # keep the collected name; pytest must see run's own signature, so
        # no functools.wraps (it would expose the zero-arg wrapped function)
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


# -- shared synthetic recovery setup (checks 3 and 4) ----------------------

RECOVERY_SCHEDULE = dict(num_states=3, kappa=0.7, minibatch_size=50, passes=10)


@functools.lru_cache(maxsize=None)
def recovery_corpus():
    spec = SyntheticSpec.random(3, 20, 2000, 10, 30, seed=21, self_persistence=0.6)
    corpus, _ = generate_synthetic(spec)
    heldout_spec = SyntheticSpec(3, 20, spec.trans, spec.emit, 600, 10, 30, seed=999)
    heldout, _ = generate_synthetic(heldout_spec)
    # generating-model heldout score; the reserved unknown-token column gets
    # negligible mass so the row sums stay inside the validator's tolerance
    emit = np.full((3, 21), 1e-300)
    emit[:, 1:] = spec.emit
    truth_ll = predictive_log_likelihood(SurrogateParams(spec.trans, emit), heldout)
    return corpus, heldout, truth_ll


@functools.lru_cache(maxsize=None)
def recovery_run(algorithm, seed):
    corpus, heldout, _ = recovery_corpus()
    config = RunConfig(algorithm=algorithm, seed=seed, **RECOVERY_SCHEDULE)
    model, metrics = train(corpus, config, heldout)
    assert metrics[-1].pass_index == config.passes
    return metrics[-1]


# -- checks, in order ------------------------------------------------------


@_criterion(1)
def test_forward_backward_matches_enumeration():
    t0 = time.perf_counter()
    invariants.check_enumeration_equivalence(n=200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"200 batch sweeps match exhaustive path enumeration at 1e-10 ({elapsed:.1f}s)"


@_criterion(2)
def test_single_sequence_full_step_reaches_batch_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    seq = rng.integers(0, 4, 20)
    num_states, vocab_size = 2, 4
    stats = initialize_stats(num_states, vocab_size, 20.0, seed=7)
    oracle = batch_cvb0_hmm(
        seq, num_states, vocab_size, 0.1, 0.1,
        stats.trans_counts, stats.token_stats, 60,
    )
    model = TrainedModel(RunConfig(num_states=num_states), stats)
    for _ in range(60):
        # a blend weight of 1 replaces the statistics with the batch estimate
        current, _ = process_minibatch(model, [seq], 1.0, 1)
        model = replace(model, stats=current)
    ref_counts, ref_tokens = oracle[-1]
    dev = max(
        float(np.max(np.abs(current.trans_counts - ref_counts))),
        float(np.max(np.abs(current.token_stats - ref_tokens))),
    )
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-6, f"stats deviate by {dev:.2e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    return f"stats match the batch collapsed-VB fixed point to {dev:.1e} ({elapsed:.1f}s)"


@_criterion(3)
def test_synthetic_recovery_close_to_generator():
    corpus, heldout, truth_ll = recovery_corpus()
    t0 = time.perf_counter()
    final = recovery_run("scvi-hmm", 0)
    elapsed = time.perf_counter() - t0
    gap = abs(final.heldout_ll - truth_ll)
    assert gap <= 0.05, f"heldout gap {gap:.4f} nats"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return (
        f"heldout {final.heldout_ll:.4f} vs generator {truth_ll:.4f}, "
        f"gap {gap:.4f} <= 0.05 nats ({elapsed:.1f}s)"
    )


@_criterion(4)
def test_collapsed_beats_uncollapsed_on_average():
    seeds = range(5)
    scvi = np.mean([recovery_run("scvi-hmm", s).heldout_ll for s in seeds])
    svi = np.mean([recovery_run("svi-hmm", s).heldout_ll for s in seeds])
    assert scvi >= svi, f"mean heldout {scvi:.6f} < {svi:.6f}"
    return f"mean heldout over 5 seeds: collapsed {scvi:.5f} >= uncollapsed {svi:.5f}"


@_criterion(5)
def test_hierarchical_prior_prunes_states_without_regression():
    k, v = 3, 20
    emit = np.zeros((k, v))
    emit[0, 0:2] = [0.6, 0.4]
    emit[1, 2:4] = [0.7, 0.3]
    emit[2, 4:6] = [0.5, 0.5]
    trans = np.full((k + 1, k), 0.05 / (k - 1))
    trans[0] = 1.0 / k
    np.fill_diagonal(trans[1:], 0.95)
    spec = SyntheticSpec(k, v, trans, emit, 100, 10, 30, seed=5)
    corpus, _ = generate_synthetic(spec)
    heldout, _ = generate_synthetic(SyntheticSpec(k, v, trans, emit, 60, 10, 30, seed=888))

    t0 = time.perf_counter()
    result = {}
    for algo in ("scvi-hmm", "scvi-hdphmm"):
        lls, keffs = [], []
        for seed in range(5):
            config = RunConfig(
                algorithm=algo, num_states=10, kappa=0.6, minibatch_size=10,
                large_batch_size=20, passes=50, seed=seed,
            )
            _, metrics = train(corpus, config, heldout)
            lls.append(metrics[-1].heldout_ll)
            keffs.append(metrics[-1].k_effective)
        result[algo] = (float(np.mean(lls)), float(np.mean(keffs)))
    elapsed = time.perf_counter() - t0

    (finite_ll, finite_k) = result["scvi-hmm"]
    (hdp_ll, hdp_k) = result["scvi-hdphmm"]
    assert hdp_k <= finite_k, f"effective states {hdp_k} > {finite_k}"
    assert hdp_ll >= finite_ll - 0.02, f"heldout regression {finite_ll - hdp_ll:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    return (
        f"effective states {hdp_k:.1f} <= {finite_k:.1f}, heldout "
        f"{hdp_ll:.4f} vs {finite_ll:.4f} over 5 seeds ({elapsed:.1f}s)"
    )


@_criterion(6)
def test_expected_tables_match_restaurant_simulation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    params = SurrogateParams(
        rng.dirichlet(np.ones(2), size=3), rng.dirichlet(np.ones(5), size=2)
    )
    seq = rng.integers(0, 5, 4)
    sums = sweep(params, [seq], absence=True)
    localC = sums.counts
    _, pairwise, _ = log_forward_backward(params.trans, params.emit, seq)
    hdp_post = HdpPosterior(
        BetaParams(np.array([1.0, 1.0]), np.array([8.0, 10.0])),
        GammaParams(2.0, 0.5), GammaParams(1.0, 0.1),
        np.array([0.3, 0.2]),
    )
    active = localC >= 0.05
    worst, prev = 0.0, None
    for n_rep in (1, 10, 100):
        tables = tables_from_aggregates(
            localC, sums.absence_pair, sums.absence_row, n_rep, hdp_post
        )
        for row in range(3):
            for col in range(2):
                if not active[row, col]:
                    continue
                probs = pairwise[1:, row, col] if row >= 1 else [pairwise[0, 0, col]]
                mc = crp_expected_tables_mc(
                    probs, n_rep, hdp_post.geo_alpha_pi[col], 10_000,
                    seed=row * 10 + col,
                )
                worst = max(worst, abs(tables.es[row, col] - mc) / mc)
        if prev is not None:
            # tenfold more replicates must yield far fewer than tenfold tables
            assert np.all(tables.es[active] < 10 * prev[active]), "table growth is not sublinear"
        prev = tables.es
    elapsed = time.perf_counter() - t0
    assert worst <= 0.15, f"worst deviation {worst:.3f}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return (
        f"expected tables within {worst:.1%} of 1e4-replicate simulation at "
        f"N in {{1,10,100}}, growth sublinear ({elapsed:.1f}s)"
    )


@_criterion(7)
def test_invariant_battery():
    t0 = time.perf_counter()
    for check in invariants.ALL_CHECKS:
        check()
    elapsed = time.perf_counter() - t0
    return f"{len(invariants.ALL_CHECKS)} property batteries passed ({elapsed:.1f}s)"


@_criterion(8)
def test_random_configs_never_diverge():
    t0 = time.perf_counter()
    spec = SyntheticSpec.random(4, 12, 150, 5, 15, seed=8, self_persistence=0.4)
    corpus, _ = generate_synthetic(spec)
    heldout, _ = generate_synthetic(
        SyntheticSpec(4, 12, spec.trans, spec.emit, 40, 5, 15, seed=777)
    )
    rng = np.random.default_rng(88)
    algos = ("scvi-hmm", "scvi-hdphmm", "svi-hmm")
    for i in range(20):
        m = int(rng.integers(1, 101))
        config = RunConfig(
            algorithm=algos[i % 3],
            num_states=int(rng.integers(2, 21)),
            kappa=0.5 + 0.5 * float(1.0 - rng.random()),
            minibatch_size=m,
            large_batch_size=max(m, 50),
            passes=5,
            seed=int(rng.integers(1000)),
        )
        model, metrics = train(corpus, config, heldout)
        for record in metrics:
            assert np.isfinite(record.heldout_ll), f"config {i}: non-finite heldout"
        params = model.surrogate()
        assert np.all(np.isfinite(params.trans)) and np.all(np.isfinite(params.emit)), (
            f"config {i}: non-finite surrogate"
        )
    elapsed = time.perf_counter() - t0
    return f"20 random configs ran 5 passes with finite metrics throughout ({elapsed:.1f}s)"
