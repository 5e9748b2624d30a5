"""One benchmark workload, run in a fresh process by ``run.py``.

Set-up is import, ``load_corpus`` of the train and held-out files with the
frozen vocabulary, and ``RunConfig.validate``; it ends where training could
start.  With ``--setup-only`` the process stops there.  Otherwise a
warm-up trains one minibatch step per algorithm and runs the oracle and
checkpoint round-trip checks on those models; then rounds run until
``--seconds`` have passed (two rounds at least, so every training is repeated
with the same seed).  A round trains each algorithm for one pass with no
held-out set, saves the model, evaluates the reloaded checkpoint, and
generates synthetic corpora of the workload's shape.  With ``--trace 1``,
untraced and traced rounds alternate; the traced ones give the per-layer
figures, and a final memory pass records per-call peak allocations.

Each throughput metric is the fastest of the run's samples (one sample per
training run, evaluation or generation call).  On a shared host the speed of
fixed work drifts by a quarter over tens of seconds, and contention only ever
slows a sample down, so the fastest sample is the steadiest estimate of the
code's own speed; the median of a run follows the host's drift instead.

Every operation that raises or fails a check counts as failed; the run goes
on.  The result is one JSON object on standard output.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import TRUE_STATES, WORKLOADS, make_chain

ALGORITHMS = ("scvi-hmm", "scvi-hdphmm", "svi-hmm")
PASSES = 1
ORACLE_TOKENS = 2000  # held-out tokens the log-space forward check covers
ORACLE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


class Ledger:
    """Counts operations; a raised exception or failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def log_forward(trans, emit, seq):
    """Sequence log likelihood by a log-space forward pass (logsumexp per step)."""
    log_start, log_inner, log_emit = np.log(trans[0]), np.log(trans[1:]), np.log(emit)
    la = log_start + log_emit[:, seq[0]]
    for x in seq[1:]:
        a = la[:, None] + log_inner
        m = a.max(axis=0)
        la = m + np.log(np.exp(a - m).sum(axis=0)) + log_emit[:, x]
    m = la.max()
    return float(m + np.log(np.exp(la - m).sum()))


class Bench:
    def __init__(self, args):
        self.w = WORKLOADS[args.workload]
        self.seed = args.seed
        self.dir = Path(args.dir)
        self.lib = {}
        self.ledger = Ledger()
        self.reference_ll = {}

    def setup(self):
        from scvihmm import config, corpus, engine, model_io

        self.lib = dict(config=config, corpus=corpus, engine=engine, model_io=model_io)
        vocab = corpus.Vocabulary.load(self.dir / "vocab.txt")
        self.train = corpus.load_corpus(self.dir / "train.txt", vocab=vocab)
        self.heldout = corpus.load_corpus(self.dir / "heldout.txt", vocab=vocab)
        w = self.w
        self.configs = {
            algo: config.RunConfig(
                algorithm=algo, num_states=w.num_states, minibatch_size=w.minibatch,
                large_batch_size=w.large_batch, passes=PASSES, seed=self.seed,
                threads=w.threads,
            ).validate()
            for algo in ALGORITHMS
        }

    # -- operations -------------------------------------------------------

    def op_train(self, algo, corpus=None, cfg=None):
        engine = self.lib["engine"]
        corpus = corpus or self.train
        cfg = cfg or self.configs[algo]
        start = time.perf_counter()
        model, _ = engine.train(corpus, cfg)
        seconds = time.perf_counter() - start
        k = engine.k_effective(model)
        expect(1 <= k <= cfg.num_states, f"{algo}: k_effective {k} outside [1, {cfg.num_states}]")
        return model, seconds, k

    def op_eval(self, algo, model):
        engine, model_io = self.lib["engine"], self.lib["model_io"]
        path = self.dir / f"{algo}.model"
        model_io.save_model(model, path)
        start = time.perf_counter()
        loaded = model_io.load_model(path)
        ll = engine.predictive_log_likelihood(loaded, self.heldout)
        seconds = time.perf_counter() - start
        floor = -math.log(len(self.heldout.vocab))
        expect(math.isfinite(ll) and ll > floor, f"{algo}: held-out LL {ll} not above uniform {floor}")
        ref = self.reference_ll.setdefault(algo, ll)
        expect(ll == ref, f"{algo}: held-out LL {ll!r} differs from the same-seed run's {ref!r}")
        return seconds

    def op_roundtrip(self, algo, model):
        engine, model_io = self.lib["engine"], self.lib["model_io"]
        path = self.dir / f"{algo}.roundtrip.model"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        a, b = model.surrogate(), loaded.surrogate()
        same = a.trans.tobytes() == b.trans.tobytes() and a.emit.tobytes() == b.emit.tobytes()
        expect(same, f"{algo}: reloaded surrogate differs from the saved one")
        before = engine.predictive_log_likelihood(model, self.heldout)
        after = engine.predictive_log_likelihood(loaded, self.heldout)
        expect(before == after, f"{algo}: reloaded LL {after!r} != in-memory {before!r}")

    def op_oracle(self, algo, model):
        corpus, engine = self.lib["corpus"], self.lib["engine"]
        sample, tokens = [], 0
        for seq in self.heldout.sequences:
            sample.append(seq)
            tokens += seq.size
            if tokens >= ORACLE_TOKENS:
                break
        params = model.surrogate()
        ref = sum(log_forward(params.trans, params.emit, s) for s in sample) / tokens
        got = engine.predictive_log_likelihood(model, corpus.Corpus.from_sequences(sample, self.heldout.vocab))
        expect(abs(got - ref) <= ORACLE_TOLERANCE * max(1.0, abs(ref)),
               f"{algo}: predictive LL {got!r} vs log-space forward {ref!r}")

    def op_generate(self):
        corpus, w = self.lib["corpus"], self.w
        trans, emit = make_chain(w, self.seed)
        spec = corpus.SyntheticSpec(TRUE_STATES, w.vocab_size, trans, emit, w.train_seqs,
                                    w.min_len, w.max_len, seed=self.seed)
        start = time.perf_counter()
        out, _ = corpus.generate_synthetic(spec)
        seconds = time.perf_counter() - start
        lengths = [s.size for s in out.sequences]
        expect(len(lengths) == w.train_seqs, f"generated {len(lengths)} sequences, not {w.train_seqs}")
        expect(min(lengths) >= w.min_len and max(lengths) <= w.max_len, "generated length out of range")
        lo = min(int(s.min()) for s in out.sequences)
        hi = max(int(s.max()) for s in out.sequences)
        expect(1 <= lo and hi <= w.vocab_size, f"generated tokens span [{lo}, {hi}], not within [1, {w.vocab_size}]")
        return out.counts, seconds

    # -- rounds -----------------------------------------------------------

    def warm_up(self):
        """One minibatch step per algorithm, checked, before anything is timed.

        The first full round of a fresh process runs measurably slower than
        the rest, so timing starts after this.  The checks that need a
        trained model but not a full pass run on these small models.
        """
        corpus, run = self.lib["corpus"], self.ledger.run
        sub = self.train.sequences[: self.w.minibatch]
        small = corpus.Corpus.from_sequences(sub, self.train.vocab)
        for algo in ALGORITHMS:
            cfg = replace(self.configs[algo], large_batch_size=self.w.minibatch)
            trained = run(f"warm-up train {algo}", self.op_train, algo, small, cfg)
            if trained is not None:
                run(f"checkpoint round trip {algo}", self.op_roundtrip, algo, trained[0])
                run(f"log-space forward check {algo}", self.op_oracle, algo, trained[0])
        run("warm-up generate", self.op_generate)

    def round(self):
        """One round; returns its timings and the k_effective of each model."""
        run = self.ledger.run
        out = {"train": {}, "k": {}, "eval": [], "gen": []}
        for algo in ALGORITHMS:
            trained = run(f"train {algo}", self.op_train, algo)
            if trained is None:
                continue
            model, seconds, k = trained
            out["train"][algo] = seconds
            out["k"][algo] = k
            seconds = run(f"eval {algo}", self.op_eval, algo, model)
            if seconds is not None:
                out["eval"].append(self.heldout.counts / seconds)
        for _ in range(self.w.gen_reps):
            generated = run("generate", self.op_generate)
            if generated is not None:
                out["gen"].append(generated[0] / generated[1])
        return out

    def rounds(self, seconds, traced):
        """Rounds until ``seconds`` pass; with ``traced``, every other round is traced."""
        results, start, n = [], time.perf_counter(), 0
        while True:
            began = time.perf_counter()
            if traced and n % 2 == 1:
                results.append(("traced",) + self.traced_round())
            else:
                results.append(("plain", self.round(), None))
            n += 1
            elapsed, last = time.perf_counter() - start, time.perf_counter() - began
            if n >= 2 and elapsed + 0.5 * last >= seconds:
                return results

    # -- end-to-end metrics -----------------------------------------------

    def end_to_end(self, results):
        tokens = PASSES * self.train.counts
        samples = defaultdict(list)
        for _, r, _ in results:
            for algo, seconds in r["train"].items():
                samples[f"train_tok_per_s.{algo}"].append(tokens / seconds)
            samples["eval_tok_per_s"] += r["eval"]
            samples["gen_tok_per_s"] += r["gen"]
        print("samples " + json.dumps(samples), file=sys.stderr)
        names = [f"train_tok_per_s.{algo}" for algo in ALGORITHMS] + ["eval_tok_per_s", "gen_tok_per_s"]
        metrics = {name: (max(samples[name] or [0.0]), "tok/s") for name in names}
        for algo in ALGORITHMS:
            metrics[f"heldout_ll.{algo}"] = (self.reference_ll.get(algo, 0.0), "nats/token")
        return metrics

    # -- tracing ----------------------------------------------------------

    def traced_round(self):
        from tracing import TARGETS, Patches, Tracer

        tracer = Tracer()
        patches = Patches(tracer.wrap, TARGETS)
        try:
            r = self.round()
        finally:
            patches.restore()
        self.ledger.run("trace counts", self.check_trace_counts, tracer, patches.absent)
        return r, (tracer, patches.absent)

    def check_trace_counts(self, tracer, absent):
        from tracing import TARGETS

        n_algos = len(ALGORITHMS)
        want = {
            "messages.forward_backward.calls": n_algos * PASSES * len(self.train),
            "messages.forward_backward.tokens": n_algos * PASSES * self.train.counts,
            "messages.sequence_log_likelihood.tokens": n_algos * self.heldout.counts,
        }
        for key, value in want.items():
            layer = key.rsplit(".", 1)[0]
            if any(f"{m}.{a}" in absent for m, a in TARGETS[layer]):
                continue
            expect(tracer.counts[key] == value, f"trace {key} = {tracer.counts[key]}, expected {value}")

    def memory_pass(self):
        """Per-call peak bytes of the sweep layers over the longest sequences, serially."""
        import tracemalloc

        from tracing import MEMORY_LAYERS, Patches, PeakMemory

        corpus = self.lib["corpus"]
        n = min(len(self.train), self.w.minibatch)
        longest = sorted(self.train.sequences, key=len, reverse=True)[:n]
        sub = corpus.Corpus.from_sequences(longest, self.train.vocab)
        cfg = replace(self.configs["scvi-hdphmm"], threads=1, minibatch_size=n, large_batch_size=n)
        peaks = PeakMemory()
        tracemalloc.start()
        patches = Patches(peaks.wrap, MEMORY_LAYERS)
        try:
            self.ledger.run("memory pass train scvi-hdphmm", self.op_train, "scvi-hdphmm", sub, cfg)
        finally:
            patches.restore()
            tracemalloc.stop()
        return peaks.peaks

    def per_layer(self, results, load_tracer):
        from tracing import TARGETS

        traced = [(r, extra) for kind, r, extra in results if kind == "traced"]
        plain = [r for kind, r, _ in results if kind == "plain"]
        absent = set()
        rows = defaultdict(list)
        traced_train_s = []
        for r, (tracer, missing) in traced:
            absent.update(missing)
            self_s, _ = tracer.self_times()
            c = tracer.counts
            for layer in TARGETS:
                rows[f"{layer}.s"].append(self_s.get(layer, 0.0))
                for key in ("calls", "tokens", "sequences", "elements", "pairwise_bytes_computed"):
                    rows[f"{layer}.{key}"].append(c.get(f"{layer}.{key}", 0.0))
            rows["model_io.bytes"].append(c.get("model_io.save_model.bytes", 0.0))
            rows["engine.process_minibatch.worker_busy_share"].append(
                tracer.busy_share("engine.process_minibatch", self.w.threads))
            rows["engine.train.steps"].append(
                c.get("engine.process_minibatch.calls", 0.0) + c.get("svi.svi_step.calls", 0.0))
            traced_train_s.append(sum(r["train"].values()))
            for algo, k in r["k"].items():
                rows[f"k_effective.{algo}"].append(k)
            for layer in tracer.count_errors:
                print(f"trace: counts of {layer} could not be taken", file=sys.stderr)
        for name in sorted(absent):
            print(f"trace: {name} is absent; its layer reads 0", file=sys.stderr)

        load_self, _ = load_tracer.self_times()
        rows["corpus.load_corpus.s"] = [load_self.get("corpus.load_corpus", 0.0)]
        rows["corpus.load_corpus.tokens"] = [load_tracer.counts.get("corpus.load_corpus.tokens", 0.0)]
        untraced = statistics.median(sum(r["train"].values()) for r in plain)
        rows["trace.overhead_share"] = [statistics.median(traced_train_s) / untraced - 1.0]
        for layer, peak in self.memory_pass().items():
            rows[f"{layer}.peak_bytes"] = [float(peak)]
        return {name: statistics.median(v) for name, v in rows.items() if v}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory holding the workload's text files")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    bench = Bench(args)
    load_tracer = None
    if args.trace:
        from tracing import Patches, Tracer

        load_tracer = Tracer()
        patches = Patches(load_tracer.wrap, ["corpus.load_corpus"])
        bench.setup()
        patches.restore()
    else:
        bench.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    bench.warm_up()
    results = bench.rounds(args.seconds, traced=bool(args.trace))
    if args.trace:
        values = bench.per_layer(results, load_tracer)
        listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in listed["per_layer"]}
    else:
        metrics = bench.end_to_end(results)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(json.dumps({
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "rounds": len(results),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": bench.w.threads,
        },
    }))


if __name__ == "__main__":
    main()
