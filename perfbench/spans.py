"""In-memory spans recorded around calls into the ``repro`` layers.

The benchmark never edits ``src/``: in a traced run it replaces chosen
public callables of the layers (``repro.tensor``, ``nn``, ``core``,
``optim``, ``hessian``, ``quant``, ``data``, ``io``, ``experiments``,
``serving``) with wrappers that open a span, call the original and
close the span.  An untraced run installs nothing.

A span is ``(id, name, start, end, parent, rid)``; ``parent`` is the
span open on the same thread when it started and ``rid`` ties the
spans of one served request together.  Spans stay in memory and are
written once, when the workload ends.

Each workload computes the per-layer metrics (names and units in
``BENCHMARK.json``) from these spans.  Every traced run reports all of
them, plus ``trace_overhead.*`` (traced minus untraced end-to-end
value); a layer the workload does not call reads 0, which is the
prediction for that workload.  Which end-to-end metric each one should
move, and on which workload:

=================================  ==========================================
``tensor.apply_calls.{sgd,hero}``  throughput/p50 on train_step; not serve
``tensor.backward_ms``             both step rates (train_step); not serve
``tensor.graph_backward_ms``       HERO step (p50 on train_step); not SGD
``tensor.penalty_backward_ms``     HERO/SGD ratio; not SGD
``tensor.alloc_peak_mb.hero``      peak_rss_mb on train_step
``nn.forward_ms``                  step rates; serve p50 only marginally
``nn.im2col_hit_ratio``            step rates
``core.perturb_ms``                HERO step; not SGD
``core.step_self_ms``              step rates
``core.hero_sgd_cost_ratio``       the paper's "one extra backprop" number
``optim.step_ms``                  step rates (expected < 1% of a step)
``hessian.hvp_*``                  reproduce (analysis); not train_step
``quant.ptq_eval_ms``              reproduce (analysis)
``data.*``                         reproduce (datagen); not the sweep
``experiments.*``                  reproduce (sweep wall time)
``serving.*``                      serve p50/tail/capacity; not train_step
``io.*``                           serve capacity; reproduce marginally
=================================  ==========================================

``serving.observe_lag_ms`` and ``serving.generator_lag_ms`` say how far
the serve driver's own timing can be trusted.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import statistics
import threading
import time

clock = time.perf_counter


class Tracer:
    """Span and counter store of one process.

    ``enabled=False`` gives the untraced run: :meth:`wrap` installs
    nothing and :meth:`span` records nothing, so no wrapper runs.
    """

    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self.counts = {}
        self.values = {}
        # Ids stay unique when spans of several processes are merged.
        self._ids = itertools.count(os.getpid() * 10_000_000 + 1)
        self._local = threading.local()
        self._undo = []
        self._count_lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, rid=None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": clock(),
            "end": None,
            "parent": stack[-1]["id"] if stack else None,
            "rid": rid if rid is not None else (stack[-1]["rid"] if stack else None),
        }
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = clock()
            stack.pop()
            self.spans.append(span)

    def count(self, name, n=1):
        if self.enabled:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def observe(self, name, value):
        """Keep one sample of a per-event quantity (a wait, a fill)."""
        if self.enabled:
            self.values.setdefault(name, []).append(value)

    def current(self):
        stack = self._stack() if self.enabled else ()
        return stack[-1] if stack else None

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr, name, counter=None, rid=None, on_result=None):
        """Replace ``owner.attr`` by a spanning wrapper (traced runs only).

        ``owner`` is a class, module or dict.  ``name`` is the span
        name, ``None`` for no span, or a callable ``(args, kwargs)``
        returning either per call.  ``counter`` also counts the calls;
        ``rid(args, kwargs)`` gives the request id the span belongs to
        and ``on_result(value)`` sees each call's return value.
        """
        if not self.enabled:
            return
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                value = func(*args, **kwargs)
            else:
                with tracer.span(span_name, rid(args, kwargs) if rid else None):
                    value = func(*args, **kwargs)
            if on_result is not None:
                on_result(value)
            return value

        self._set(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, original))

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def unwrap_all(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            self._set(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "values": self.values}, fh)

    def merge(self, path):
        """Add the spans, counts and samples another process dumped."""
        with open(path) as fh:
            payload = json.load(fh)
        self.spans.extend(payload["spans"])
        for name, n in payload["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, values in payload["values"].items():
            self.values.setdefault(name, []).extend(values)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def duration(span):
    return span["end"] - span["start"]


def self_time(span, children):
    """Duration minus the part of it that ``children`` cover."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children
    )
    covered, cursor = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return duration(span) - covered


def children_of(spans):
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    return by_parent


def named(spans, name):
    return [span for span in spans if span["name"] == name]


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def quantile(values, q):
    """The ``q`` quantile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]
