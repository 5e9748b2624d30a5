"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (log-space,
brute-force enumeration, Monte Carlo) rather than by calling into the
package, so that agreement is evidence and not tautology.
"""

import itertools

import numpy as np
from scipy.special import gammaln, logsumexp


def dirichlet_predictive_row(pseudo_counts, token_stats_row):
    """Predictive token distribution via the generic log-normalizer route.

    Scores each token by the conjugate-posterior log normalizer after
    adding that token's indicator statistic, then normalizes.  For the
    Dirichlet-categorical pair this must reproduce the closed-form ratio.
    """
    alpha = np.asarray(pseudo_counts, float) + np.asarray(token_stats_row, float)

    def log_norm(a):
        return float(gammaln(a).sum() - gammaln(a.sum()))

    base = log_norm(alpha)
    scores = np.empty(alpha.size)
    for w in range(alpha.size):
        bumped = alpha.copy()
        bumped[w] += 1.0
        scores[w] = log_norm(bumped) - base
    scores = np.exp(scores - scores.max())
    return scores / scores.sum()


def surrogate_emission_row(pseudo_counts, token_stats, k):
    """Surrogate emission distribution of state ``k``, one row at a time.

    The per-row reference for the emission rows of ``engine.build_surrogate``:
    (pseudo + token_stats[k]) / (sum(pseudo) + sum(token_stats[k])), with
    ``pseudo_counts`` the Dirichlet pseudo-count vector.
    """
    pseudo = np.asarray(pseudo_counts, float)
    token_stats = np.asarray(token_stats, float)
    if not 0 <= k < token_stats.shape[0]:
        raise IndexError(f"state index {k} outside truncation {token_stats.shape[0]}")
    if token_stats.shape[1] != pseudo.size:
        raise ValueError("stats vocabulary size does not match prior")
    return (pseudo + token_stats[k]) / (pseudo.sum() + token_stats[k].sum())


def zero_tables(num_states):
    """(es, elogeta) arrays of a truncation with no tables at all."""
    return np.zeros((num_states + 1, num_states)), np.zeros(num_states + 1)


def enumerate_paths(trans, emit, seq):
    """Exact chain posterior by summing over every state path.

    Returns (unary, pairwise, loglik) in the same layout as the package's
    forward-backward: pairwise slice 0 uses the start row, later slices use
    rows 1..K for the previous state.  Exponential in len(seq); intended
    for len(seq) <= 8, K <= 3.
    """
    trans = np.asarray(trans, float)
    emit = np.asarray(emit, float)
    seq = list(seq)
    T, K = len(seq), trans.shape[1]
    unary = np.zeros((T, K))
    pairwise = np.zeros((T, K + 1, K))
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        p = trans[0, path[0]] * emit[path[0], seq[0]]
        for t in range(1, T):
            p *= trans[path[t - 1] + 1, path[t]] * emit[path[t], seq[t]]
        total += p
        pairwise[0, 0, path[0]] += p
        for t in range(T):
            unary[t, path[t]] += p
            if t > 0:
                pairwise[t, path[t - 1] + 1, path[t]] += p
    return unary / total, pairwise / total, float(np.log(total))


def log_space_loglik(trans, emit, seq):
    """Sequence log likelihood via a logsumexp forward recursion."""
    trans = np.asarray(trans, float)
    emit = np.asarray(emit, float)
    seq = list(seq)
    log_inner = np.log(trans[1:])
    acc = np.log(trans[0]) + np.log(emit[:, seq[0]])
    for t in range(1, len(seq)):
        acc = logsumexp(acc[:, None] + log_inner, axis=0) + np.log(emit[:, seq[t]])
    return float(logsumexp(acc))


def log_forward_backward(trans, emit, seq):
    """Unary/pairwise posteriors via a fully log-space alpha-beta sweep."""
    trans = np.asarray(trans, float)
    emit = np.asarray(emit, float)
    seq = np.asarray(seq)
    T, K = seq.size, trans.shape[1]
    log_tr = np.log(trans[1:])
    log_e = np.log(emit)
    la = np.zeros((T, K))
    la[0] = np.log(trans[0]) + log_e[:, seq[0]]
    for t in range(1, T):
        la[t] = logsumexp(la[t - 1][:, None] + log_tr, axis=0) + log_e[:, seq[t]]
    lb = np.zeros((T, K))
    for t in range(T - 2, -1, -1):
        lb[t] = logsumexp(log_tr + (log_e[:, seq[t + 1]] + lb[t + 1])[None, :], axis=1)
    loglik = float(logsumexp(la[T - 1]))
    unary = np.exp(la + lb - loglik)
    pairwise = np.zeros((T, K + 1, K))
    pairwise[0, 0] = unary[0]
    for t in range(1, T):
        pairwise[t, 1:, :] = np.exp(
            la[t - 1][:, None] + log_tr + (log_e[:, seq[t]] + lb[t])[None, :] - loglik
        )
    return unary, pairwise, loglik


def dense_absence(inner, before, after, unary, n_at, product):
    """Pair and row absence sums of one sweep slice, every cell exact.

    The reference for ``messages._absence``, taking the same arguments
    (``product`` unused): the pair term sums log(1 - min(p, 1)) over every
    row r and every (i, j) cell, p = before[r, i] * inner[i, j] * after[r, j],
    building the pair posteriors 64 rows at a time.  ``unary`` is packed:
    n_at[t] rows for each time t.
    """
    K = inner.shape[0]
    pair = np.zeros((K + 1, K))
    row = np.empty(K + 1)
    starts = np.cumsum(n_at) - n_at
    # the rows of each time that the next time continues, in time order
    lead = np.concatenate(
        [np.empty((0, K))]
        + [unary[starts[t - 1] : starts[t - 1] + n_at[t]] for t in range(1, len(n_at))]
    )
    with np.errstate(divide="ignore"):
        pair[0] = np.log1p(-np.minimum(unary[: n_at[0]], 1.0)).sum(axis=0)
        for lo in range(0, len(before), 64):
            p = before[lo : lo + 64, :, None] * inner * after[lo : lo + 64, None, :]
            pair[1:] += np.log1p(-np.minimum(p, 1.0)).sum(axis=0)
        row[0] = -np.inf
        row[1:] = np.log1p(-np.minimum(lead, 1.0)).sum(axis=0)
    return pair, row


def batch_sums(posterior, trans, emit, batch):
    """Batch sums of one posterior routine, the package's sweep layout.

    ``posterior`` is ``enumerate_paths`` or ``log_forward_backward``.
    Returns (counts, token_stats, per-sequence logliks): the pairwise
    slices summed over positions and sequences, the unary rows scattered
    onto their tokens, and each sequence's log normalizer.
    """
    vocab_size = np.asarray(emit).shape[1]
    counts, tokens, logliks = 0.0, 0.0, []
    for seq in batch:
        unary, pairwise, loglik = posterior(trans, emit, seq)
        counts = counts + pairwise.sum(axis=0)
        tokens = tokens + _scatter_tokens(unary, seq, vocab_size)
        logliks.append(loglik)
    return counts, tokens, np.array(logliks)


def _scatter_tokens(unary, seq, vocab_size):
    out = np.zeros((unary.shape[1], vocab_size))
    for t, w in enumerate(seq):
        out[:, w] += unary[t]
    return out


def batch_cvb0_hmm(seq, num_states, vocab_size, trans_prior, emit_prior,
                   init_counts, init_tokens, iterations):
    """Batch collapsed-VB fixed-point iteration for one sequence.

    Surrogates are built from prior + current expected counts, posteriors
    from the log-space sweep, and the counts replaced wholesale (the
    no-averaging batch specialization).  Returns the stats trajectory.
    """
    counts = np.asarray(init_counts, float).copy()
    tokens = np.asarray(init_tokens, float).copy()
    trajectory = []
    for _ in range(iterations):
        trans_raw = trans_prior + counts
        trans = trans_raw / trans_raw.sum(axis=1, keepdims=True)
        emit = (emit_prior + tokens) / (
            emit_prior * vocab_size + tokens.sum(axis=1)
        )[:, None]
        unary, pairwise, _ = log_forward_backward(trans, emit, seq)
        counts = pairwise.sum(axis=0)
        tokens = _scatter_tokens(unary, seq, vocab_size)
        trajectory.append((counts.copy(), tokens.copy()))
    return trajectory


def batch_vb_hmm(sequences, num_states, vocab_size, trans_prior, emit_prior,
                 init_trans, init_emit, iterations):
    """Batch mean-field VB for a finite chain over a whole corpus.

    Row parameters move to prior + summed batch statistics each round;
    per-sweep matrices are the renormalized geometric row weights.
    Returns the Dirichlet-parameter trajectory.
    """
    from scipy.special import digamma as ref_digamma

    trans_rows = np.asarray(init_trans, float).copy()
    emit_rows = np.asarray(init_emit, float).copy()
    trajectory = []
    for _ in range(iterations):
        tw = np.exp(ref_digamma(trans_rows) - ref_digamma(trans_rows.sum(axis=1))[:, None])
        ew = np.exp(ref_digamma(emit_rows) - ref_digamma(emit_rows.sum(axis=1))[:, None])
        trans = tw / tw.sum(axis=1, keepdims=True)
        emit = ew / ew.sum(axis=1, keepdims=True)
        sum_counts = np.zeros((num_states + 1, num_states))
        sum_tokens = np.zeros((num_states, vocab_size))
        for seq in sequences:
            unary, pairwise, _ = log_forward_backward(trans, emit, seq)
            sum_counts += pairwise.sum(axis=0)
            sum_tokens += _scatter_tokens(unary, seq, vocab_size)
        trans_rows = trans_prior + sum_counts
        emit_rows = emit_prior + sum_tokens
        trajectory.append((trans_rows.copy(), emit_rows.copy()))
    return trajectory


def crp_expected_tables_mc(position_probs, n_replicates, concentration,
                           num_draws, seed):
    """Monte-Carlo expected table count for one transition cell.

    Stage 1 draws the replicated customer count (each position of each of
    the N replicate sequences contributes an independent Bernoulli); stage
    2 seats the customers by simulating the restaurant process table by
    table (customer i opens a new table with probability c/(c+i-1)).
    """
    rng = np.random.default_rng(seed)
    position_probs = np.asarray(position_probs, float)
    customers = np.zeros(num_draws, dtype=np.int64)
    for p in position_probs:
        customers += rng.binomial(n_replicates, p, size=num_draws)
    n_max = int(customers.max())
    if n_max == 0:
        return 0.0
    open_prob = concentration / (concentration + np.arange(n_max))
    opened = rng.random((num_draws, n_max)) < open_prob[None, :]
    active = np.arange(n_max)[None, :] < customers[:, None]
    return float((opened & active).sum(axis=1).mean())


def batch_hdp_scvi(sequences, num_states, vocab_size, emit_prior,
                   init_counts, init_tokens, iterations,
                   alpha_prior=(1.0, 0.1), gamma_prior=(1.0, 0.1),
                   pinned=0.1):
    """Batch collapsed-VB with a stick-breaking transition prior.

    Full-batch specialization (every blend at step size 1, so stale terms
    vanish): surrogate from geometric prior weights plus counts, log-space
    sweeps, replicate-based table estimates, then the coupled stick/rate
    update solved with Brent's method.  Uses scipy special functions
    throughout.  Returns per-iteration state snapshots.
    """
    from scipy.optimize import brentq
    from scipy.special import digamma as dg

    K = num_states
    N = len(sequences)
    counts = np.asarray(init_counts, float).copy()
    tokens = np.asarray(init_tokens, float).copy()
    a_al, b_al = alpha_prior
    a_ga, b_ga = gamma_prior
    geo = np.full(K, pinned)
    snaps = []
    for _ in range(iterations):
        trans_raw = geo[None, :] + counts
        trans = trans_raw / trans_raw.sum(axis=1, keepdims=True)
        emit = (emit_prior + tokens) / (
            emit_prior * vocab_size + tokens.sum(axis=1)
        )[:, None]

        sum_c = np.zeros((K + 1, K))
        sum_t = np.zeros((K, vocab_size))
        sum_lqp = np.zeros((K + 1, K))
        sum_lqr = np.zeros(K + 1)
        for seq in sequences:
            unary, pairwise, _ = log_forward_backward(trans, emit, seq)
            sum_c += pairwise.sum(axis=0)
            sum_t += _scatter_tokens(unary, seq, vocab_size)
            with np.errstate(divide="ignore"):
                sum_lqp += np.log1p(-np.minimum(pairwise, 1.0)).sum(axis=0)
                fm = np.zeros((len(seq), K + 1))
                fm[0, 0] = 1.0
                fm[1:, 1:] = unary[:-1]
                sum_lqr += np.log1p(-np.minimum(fm, 1.0)).sum(axis=0)
        counts = sum_c.copy()
        tokens = sum_t.copy()

        mean_c = sum_c / N
        with np.errstate(over="ignore"):
            q = -np.expm1(N * (sum_lqp / N))
        pos = mean_c > 0.0
        q = np.where(pos, np.maximum(q, np.finfo(float).tiny), 1.0)
        es = np.where(
            pos,
            geo[None, :] * q * (dg(geo[None, :] + N * mean_c / q) - dg(geo[None, :])),
            0.0,
        )
        row_c = mean_c.sum(axis=1)
        with np.errstate(over="ignore"):
            qr = -np.expm1(N * (sum_lqr / N))
        posr = row_c > 0.0
        qr = np.where(posr, np.maximum(qr, np.finfo(float).tiny), 1.0)
        mean_alpha = a_al / b_al
        elogeta = np.where(
            posr, qr * (dg(mean_alpha) - dg(mean_alpha + N * row_c / qr)), 0.0
        )

        col = es.sum(axis=0)
        tail = np.concatenate((np.cumsum(col[::-1])[::-1][1:], [0.0]))
        u = 1.0 + col
        a_al = alpha_prior[0] + es.sum()
        b_al = alpha_prior[1] - elogeta.sum()
        a_ga = gamma_prior[0] + K
        c_b = gamma_prior[1]

        def f(g):
            vv = tail + g
            return a_ga / (c_b - (dg(vv) - dg(u + vv)).sum()) - g

        g = brentq(f, 1e-13, a_ga / c_b + 1.0, xtol=1e-14, rtol=8.9e-16, maxiter=300)
        v = tail + g
        b_ga = c_b - (dg(v) - dg(u + v)).sum()

        e_log = dg(u) - dg(u + v)
        e_l1m = dg(v) - dg(u + v)
        prefix = np.concatenate(([0.0], np.cumsum(e_l1m[:-1])))
        geo = np.exp((dg(a_al) - np.log(b_al)) + e_log + prefix)
        snaps.append({
            "counts": counts.copy(), "tokens": tokens.copy(),
            "u": u.copy(), "v": v.copy(),
            "alpha": (a_al, b_al), "gamma": (a_ga, b_ga),
            "geo": geo.copy(),
        })
    return snaps
