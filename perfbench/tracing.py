"""Per-layer spans and counts, recorded by wrappers around library names.

The wrappers replace module-level names that the library looks up at call
time (for example ``scvihmm.engine.forward_backward``), so the library's
own files stay untouched.  Spans are kept in memory.  Each thread has its
own parent stack; a span opened on a pool thread with an empty stack takes
as parent the innermost span then open on the thread that installed the
tracer, which is the minibatch step that dispatched it.  Self time is a
span's duration minus the union of its children's intervals, so children
that overlap on a pool are not subtracted twice.  A layer's self time sums
its spans over all threads, so on a pool it can exceed the wall time.
"""

import importlib
import os
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# layer -> module-level names that route calls into it
TARGETS = {
    "corpus.load_corpus": [("scvihmm.corpus", "load_corpus")],
    "corpus.generate_synthetic": [("scvihmm.corpus", "generate_synthetic")],
    "emissions.surrogate_emission_matrix": [("scvihmm.engine", "surrogate_emission_matrix")],
    "engine.train": [("scvihmm.engine", "train")],
    "engine.build_surrogate": [("scvihmm.engine", "build_surrogate")],
    "engine.process_minibatch": [("scvihmm.engine", "process_minibatch")],
    "engine.k_effective": [("scvihmm.engine", "k_effective")],
    "engine.predictive_log_likelihood": [("scvihmm.engine", "predictive_log_likelihood")],
    "messages.forward_backward": [("scvihmm.engine", "forward_backward"),
                                  ("scvihmm.svi", "forward_backward")],
    "messages.local_stats": [("scvihmm.engine", "local_stats"), ("scvihmm.svi", "local_stats")],
    "messages.sequence_log_likelihood": [("scvihmm.engine", "sequence_log_likelihood")],
    "hdp.absence_log_probs": [("scvihmm.engine", "absence_log_probs")],
    "hdp.tables_from_aggregates": [("scvihmm.engine", "tables_from_aggregates")],
    "hdp.update_hdp": [("scvihmm.engine", "update_hdp")],
    "special.digamma": [("scvihmm.special", "digamma"), ("scvihmm.hdp", "digamma"),
                        ("scvihmm.svi", "digamma")],
    "svi.svi_surrogate": [("scvihmm.svi", "svi_surrogate")],
    "svi.svi_step": [("scvihmm.svi", "svi_step")],
    "model_io.load_model": [("scvihmm.model_io", "load_model")],
    "model_io.save_model": [("scvihmm.model_io", "save_model")],
}

# layers whose per-call peak allocation the memory pass records
MEMORY_LAYERS = ("messages.forward_backward", "messages.local_stats", "hdp.absence_log_probs")


def _fb_counts(args, result, add):
    params, seq = args[0], args[1]
    k = params.trans.shape[1]
    add("tokens", np.size(seq))
    add("pairwise_bytes_computed", np.size(seq) * (k + 1) * k * 8)


# layer -> function adding per-call counts from (args, result)
COUNTERS = {
    "corpus.load_corpus": lambda a, r, add: add("tokens", r.counts),
    "corpus.generate_synthetic": lambda a, r, add: add("tokens", r[0].counts),
    "engine.process_minibatch": lambda a, r, add: add("sequences", len(a[1])),
    "messages.forward_backward": _fb_counts,
    "messages.sequence_log_likelihood": lambda a, r, add: add("tokens", np.size(a[1])),
    "special.digamma": lambda a, r, add: add("elements", np.size(a[0])),
    "model_io.save_model": lambda a, r, add: add("bytes", os.path.getsize(a[1])),
}


def _resolve(module, attr):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, None
    return mod, getattr(mod, attr, None)


class Patches:
    """Replaces library names with wrappers; ``restore`` puts the originals back."""

    def __init__(self, wrap, layers):
        self.saved = []
        self.absent = []
        for layer in layers:
            for module, attr in TARGETS[layer]:
                mod, fn = _resolve(module, attr)
                if fn is None:
                    self.absent.append(f"{module}.{attr}")
                    continue
                self.saved.append((mod, attr, fn))
                setattr(mod, attr, wrap(layer, fn))

    def restore(self):
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved = []


class Tracer:
    """Spans ``[layer, start, end, parent]`` and counts of one traced stretch."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.count_errors = set()
        self._count_lock = threading.Lock()  # pool threads add counts concurrently
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn):
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else None
            span = [layer, time.perf_counter(), None, parent]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._add(layer, "calls", 1)
            if counter is not None:
                try:
                    counter(args, result, lambda key, v: self._add(layer, key, v))
                except Exception:  # a changed signature must not break the run
                    self.count_errors.add(layer)
            return result

        return traced

    def _add(self, layer, key, value):
        with self._count_lock:
            self.counts[f"{layer}.{key}"] += float(value)

    def self_times(self):
        """Per-layer sum of self time, and per-span direct children."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        totals = defaultdict(float)
        for span in self.spans:
            start, end = span[1], span[2]
            covered, reach = 0.0, start
            for _, c_start, c_end, _ in sorted(children[id(span)], key=lambda s: s[1]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[span[0]] += (end - start) - covered
        return totals, children

    def busy_share(self, layer, threads):
        """Child time of ``layer`` spans, the surrogate build aside, over ``threads`` x their wall."""
        _, children = self.self_times()
        busy = wall = 0.0
        for span in self.spans:
            if span[0] != layer:
                continue
            wall += threads * (span[2] - span[1])
            busy += sum(c[2] - c[1] for c in children[id(span)] if c[0] != "engine.build_surrogate")
        return busy / wall if wall > 0 else 0.0


class PeakMemory:
    """Largest tracemalloc peak of one call per layer; calls must not overlap."""

    def __init__(self):
        self.peaks = defaultdict(int)

    def wrap(self, layer, fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            self.peaks[layer] = max(self.peaks[layer], tracemalloc.get_traced_memory()[1] - base)
            return result

        return measured
