"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the `graphs`, `hiw`, `sampler`,
`saem`, `exact` and `dataio` modules from outside the package: each wrapper
is installed under every name an `ebggm` module binds the function to (so
`ebggm.sampler.perfect_sequence` is wrapped as well as
`ebggm.graphs.perfect_sequence`).  Spans stay in memory as flat arrays with
a parent index and are written out when the command finishes; the parent
process turns them into self times (a span's duration minus the time its
child spans cover).

Span 0 is the root, named "cli": it starts when `ebggm.cli` has been
imported and the parent closes it at the moment the process exited, so the
self times of all spans add up to wall time minus set-up time.

A call made while a span of the same name is open is folded into that span
(`PosteriorScorer.score` calls `log_lik`, `write_visit_log` calls
`write_csv`), so counts are outermost calls.  Repeat ratios come from the
wrapper's own record of the graphs each scorer or move cache has been asked
about; no private state of the package is read.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

ROOT = "cli"

GENERATORS = {"exact.enumerate"}
REPEAT_TRACKED = {"hiw.score", "sampler.moves"}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, t_root):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.parent = array("q", [-1])
        self.name = array("q", [0])
        self.start = array("d", [t_root])
        self.end = array("d", [0.0])
        self.stack = [0]
        self.name_stack = [0]
        self.counts = Counter()
        self._seen = weakref.WeakKeyDictionary()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ----------------------------------------------------------- wrapping

    def install(self):
        """Replace every binding of each target inside the ebggm modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == "ebggm" or key.startswith("ebggm.")]
        for span, module, path, after in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, after)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, span, after):
        nid = self._name_id(span)
        calls = span + ".calls"
        signature = inspect.signature(fn)
        track = span in REPEAT_TRACKED
        counts, stack, name_stack = self.counts, self.stack, self.name_stack
        parent, name, start, end = self.parent, self.name, self.start, self.end
        clock = time.monotonic

        def begin():
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            name_stack.append(nid)
            start.append(clock())
            return idx

        def finish(idx):
            end[idx] = clock()
            stack.pop()
            name_stack.pop()

        if span in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def stepped():
                    while True:
                        idx = begin()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            finish(idx)
                        counts[span + ".items"] += 1
                        yield item
                counts[calls] += 1
                return stepped()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name_stack[-1] == nid:
                return fn(*args, **kwargs)
            counts[calls] += 1
            if track:
                self._note_repeat(span, args[0], args[1].edges)
            idx = begin()
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(counts, signature.bind(*args, **kwargs).arguments, out)
            return out
        return wrapper

    def _note_repeat(self, span, owner, key):
        seen = self._seen.setdefault(owner, set())
        if key in seen:
            self.counts[span + ".repeats"] += 1
        else:
            seen.add(key)
            self.counts[span + ".distinct"] += 1

    # ------------------------------------------------------------- output

    def finish(self, path):
        """Close the root at the current time, save spans; returns names and counts."""
        self.end[0] = time.monotonic()
        np.savez(path, parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        return {"names": self.names, "counts": dict(self.counts)}


def _after_chain(counts, arguments, out):
    state_in = arguments.get("init", arguments.get("state"))
    steps = arguments.get("n_steps", arguments.get("M"))
    counts["sampler.steps"] += int(steps)
    counts["sampler.accepts"] += (out[0].accept_count
                                  - getattr(state_in, "accept_count", 0))


def _after_saem(counts, arguments, out):
    counts["saem.iters"] += len(out.trace)


def _after_write(counts, arguments, out):
    counts["dataio.bytes_written"] += os.path.getsize(arguments["path"])


# (span name, module, attribute path, hook run on the call's arguments and
# result) of every wrapped function.
TARGETS = (
    ("graphs.legal_additions", "ebggm.graphs", "legal_additions", None),
    ("graphs.legal_deletions", "ebggm.graphs", "legal_deletions", None),
    ("graphs.perfect_sequence", "ebggm.graphs", "perfect_sequence", None),
    ("hiw.scorer_build", "ebggm.hiw", "PosteriorScorer.__init__", None),
    ("hiw.score", "ebggm.hiw", "PosteriorScorer.score", None),
    ("hiw.score", "ebggm.hiw", "PosteriorScorer.log_lik", None),
    ("hiw.sample_hiw", "ebggm.hiw", "sample_hiw", None),
    ("sampler", "ebggm.sampler", "run_chain", _after_chain),
    ("sampler", "ebggm.sampler", "sample_graph_and_sigma", _after_chain),
    ("sampler", "ebggm.sampler", "edge_weights", None),
    ("sampler.moves", "ebggm.sampler", "MoveCache.moves", None),
    ("saem", "ebggm.saem", "run_saem", _after_saem),
    ("saem.compute_suff_stats", "ebggm.saem", "compute_suff_stats", None),
    ("saem.init_graph_backward", "ebggm.saem", "init_graph_backward", None),
    ("exact.enumerate", "ebggm.exact", "enumerate_decomposable", None),
    ("exact.exact_posterior", "ebggm.exact", "exact_posterior", None),
    ("exact.exact_marginal_mle", "ebggm.exact", "exact_marginal_mle", None),
    ("dataio.ingest_csv", "ebggm.dataio", "ingest_csv", None),
    ("dataio.sha256_of", "ebggm.dataio", "sha256_of", None),
) + tuple(("dataio.write", "ebggm.dataio", writer, _after_write) for writer in (
    "write_csv", "write_data_csv", "write_visit_log", "write_acceptance_trace",
    "write_posterior_csv", "write_saem_trace", "write_manifest"))


def self_times(parent, name, start, end, names):
    """Self time per span name: duration minus time covered by child spans.

    Spans nest (the program is single-threaded), so the time a span's
    children cover is the sum of their durations.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end) - np.asarray(start)
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = np.bincount(np.asarray(name), weights=dur - covered,
                      minlength=len(names))
    return {n: float(own[i]) for i, n in enumerate(names)}


def load_self_times(path, names, root_end):
    """Self times from a saved span file, with the root closed at root_end."""
    with np.load(path) as z:
        end = z["end"].copy()
        end[0] = root_end
        return self_times(z["parent"], z["name"], z["start"], end, names)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, own):
    """Per-layer metrics of one traced iteration, keyed by metric name.

    counts: the recorder's counters; own: self seconds per span name.
    Every span gets `<name>.self_s` and `<name>.calls`; layers that did not
    run read 0.
    """
    c = Counter(counts)
    out = {f"{span}.self_s": t for span, t in own.items()}
    out.update((f"{span}.calls", c[f"{span}.calls"]) for span in own
               if span != ROOT)
    out.update({
        "sampler.moves.repeat_ratio": _ratio(c["sampler.moves.repeats"],
                                             c["sampler.moves.calls"]),
        "sampler.steps": c["sampler.steps"],
        "sampler.accept_ratio": _ratio(c["sampler.accepts"], c["sampler.steps"]),
        "sampler.distinct_graphs": c["sampler.moves.distinct"],
        "hiw.score.repeat_ratio": _ratio(c["hiw.score.repeats"],
                                         c["hiw.score.calls"]),
        "hiw.scorer_builds": c["hiw.scorer_build.calls"],
        "saem.iters": c["saem.iters"],
        "exact.enumerate.graphs": c["exact.enumerate.items"],
        "dataio.bytes_written": c["dataio.bytes_written"],
    })
    return out
