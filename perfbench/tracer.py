"""Span tracing of the bostbc layers, applied from outside the package.

The tracer replaces each public function of the layer modules (``codes``,
``structure``, ``linalg``, ``decoder``, ``sim``) by a timing wrapper, under
every module attribute that is bound to it, i.e. under the name the calling
module looks it up by (``bostbc.sim.sphere_decode``,
``bostbc.codes.generator_matrix``, ...).  Each call records one span:
name, start, end, parent span and the ``(master_seed, snr_index,
trial_index)`` key of the trial it belongs to.  Spans stay in memory until
the caller writes them out.

The wrappers exist only inside :meth:`Tracer.installed`; leaving the block
restores the original functions, so untraced code runs unwrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("codes", "structure", "linalg", "decoder", "sim")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "key", "child_ns",
                 "attrs")

    def __init__(self, span_id, name, parent, key):
        self.id = span_id
        self.name = name
        self.start = self.end = 0
        self.parent = parent
        self.key = key
        self.child_ns = 0
        self.attrs = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus the time covered by child spans.

        Calls are nested and sequential in one thread, so child intervals
        never overlap and their union is the sum of their durations.
        """
        return self.end - self.start - self.child_ns

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent,
                "key": list(self.key) if self.key else None,
                "self_ns": self.self_ns, "attrs": self.attrs}


def _trial_key(args, kwargs):
    """``(master_seed, snr_index, trial_index)`` of a ``run_trial`` call."""
    seed = kwargs["seed"] if "seed" in kwargs else args[3]
    entropy = getattr(seed, "entropy", seed)
    if isinstance(entropy, (list, tuple)):
        return tuple(int(e) for e in entropy)
    return (int(entropy),)


def _decode_attrs(args, kwargs, result):
    """Variant and counters of one ``sphere_decode`` call."""
    profile = kwargs["profile"] if "profile" in kwargs else (
        args[3] if len(args) > 3 else None)
    memoize = kwargs.get("memoize")
    if profile is None:
        variant = "plain"
    elif memoize is None or memoize:
        variant = "memoized"
    else:
        variant = "baseline"
    stats = result[1]
    return {"variant": variant, "em": stats.em_evaluations,
            "flops": stats.flops, "nodes": stats.nodes_visited,
            "hits": stats.cache_hits, "peak": stats.cache_entries_peak,
            "decoded": list(stats.decoded)}


# span name -> function(args, kwargs, result) giving the span's attributes
_ATTRS = {"decoder.sphere_decode": _decode_attrs}


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        #: key given to root spans; set around calls made outside a trial
        self.key = None
        #: span name -> callable(args, kwargs, result, span), run after a call
        self.observers = {}

    def wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        keyed = name == "sim.run_trial"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keyed:
                key = _trial_key(args, kwargs)
            else:
                key = parent.key if parent is not None else self.key
            span = Span(next(ids), name,
                        parent.id if parent is not None else None, key)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result, span)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public layer function for the duration of the block."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bostbc.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        replaced = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bostbc" or n.startswith("bostbc.")]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = targets.get(id(value))
                    if hit is not None and value is hit[0]:
                        setattr(module, attr, hit[1])
                        replaced.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(replaced):
                setattr(module, attr, value)

    @contextmanager
    def keyed(self, key):
        """Give root spans opened in the block the trial key ``key``."""
        previous, self.key = self.key, key
        try:
            yield
        finally:
            self.key = previous

    def take(self) -> list:
        """Return the spans recorded so far and forget them."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(spans, path) -> None:
    """Write spans as gzip-compressed JSON lines."""
    with gzip.open(path, "wt") as f:
        for span in spans:
            f.write(json.dumps(span.to_json()) + "\n")
