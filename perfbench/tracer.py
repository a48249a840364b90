"""In-memory span tracer that instruments torusbayes from the outside.

The package modules import each other's functions by name
(``from .posterior import map_estimate``), so one function can be bound in
several modules.  :func:`instrument` replaces every module-level binding of
each target inside ``torusbayes.*`` with a wrapper that records a span, and
restores every binding on exit.  Spans stay in memory; :func:`self_times`
turns them into per-key self time after the pass.

Self time is a span's duration minus the part of it that its child spans
cover.  Children may run in other threads: the replicate thread pool of
``torusbayes.experiments`` is swapped for one that records each task as a
span whose parent is the span that submitted it.  When several spans run at
once in different threads, each is charged an equal share of that wall
interval, so the self times of all spans in a pass add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

ROOT = "trace.unattributed"
TASK = "experiments"

# (module, attribute, span key).  Keys name the layer metric the span feeds.
TARGETS = (
    ("torusbayes.lattice", "build_lattice", "lattice.build"),
    ("torusbayes.operators", "symbol_values", "operators.symbol"),
    ("torusbayes.operators", "apply", "operators.apply"),
    ("torusbayes.operators", "densify", "operators.dense"),
    ("torusbayes.operators", "variable_coeff_op", "operators.dense"),
    ("torusbayes.fields", "sample_white_noise", "fields.sample"),
    ("torusbayes.fields", "sample_prior", "fields.sample"),
    ("torusbayes.fields", "operator_sqrt", "fields.sqrt"),
    ("torusbayes.posterior", "map_estimate", "posterior.map"),
    ("torusbayes.posterior", "posterior", "posterior.posterior"),
    ("torusbayes.posterior", "posterior_covariance", "posterior.cov"),
    ("torusbayes.posterior", "_pcg", "posterior.pcg"),
    ("torusbayes.experiments", "run_experiment", "experiments"),
    ("torusbayes.experiments", "run_bayes_convergence", "experiments"),
    ("torusbayes.experiments", "run_frequentist_convergence", "experiments"),
    ("torusbayes.experiments", "run_contraction", "experiments"),
    ("torusbayes.experiments", "run_credible", "experiments"),
    ("torusbayes.experiments", "run_appendix_b", "experiments"),
    ("torusbayes.config", "load_parser", "config.load"),
    ("torusbayes.config", "build_experiment_config", "config.load"),
    ("torusbayes.config", "build_estimate_settings", "config.load"),
    ("torusbayes.cli", "main", "cli"),
    ("numpy.fft", "fftn", "numpy.fft"),
    ("numpy.fft", "ifftn", "numpy.fft"),
)

KEY_OF = {f"{module}.{attr}": key for module, attr, key in TARGETS}


class Span:
    __slots__ = ("id", "key", "start", "end", "parent", "tid", "extra")

    def __init__(self, span_id, key, start, parent, tid):
        self.id = span_id
        self.key = key
        self.start = start
        self.end = None
        self.parent = parent
        self.tid = tid
        self.extra = None


class Tracer:
    """Records spans with name, start, end, parent span and thread id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of the calling thread, or None."""
        stack = self._stack()
        return stack[-1].id if stack else None

    def open(self, key: str, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), key, time.perf_counter(), parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the interpreter lock
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.key} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, key: str, parent=None):
        s = self.open(key, parent)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, key: str, hook=None):
        """Wrapper recording one span per call; ``hook(span, args, kwargs, result, exc)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(span, args, kwargs, None, exc)
                raise
            else:
                if hook is not None:
                    hook(span, args, kwargs, result, None)
                return result
            finally:
                self.close(span)

        return traced

    def executor_class(self):
        """ThreadPoolExecutor whose tasks are ``TASK`` spans parented to the submitting span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    with tracer.span(TASK, parent):
                        return fn(*args, **kwargs)

                return super().submit(task)

        return TracedExecutor


def _fft_hook(span, args, kwargs, result, exc):
    a = args[0]
    shape = getattr(a, "shape", None)
    if shape is None:
        return
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = range(len(shape))
    n = math.prod(shape[ax] for ax in axes)
    points = math.prod(shape)
    # 5 N log2 N flops per complex transform; bytes = input read + complex128 output
    span.extra = {
        "points": points,
        "flop": 5.0 * points * math.log2(n) if n > 1 else 0.0,
        "bytes": a.nbytes + 16 * points,
    }


def _pcg_hook(span, args, kwargs, result, exc):
    # SolverError carries the residual history; a success returns it
    residuals = getattr(exc, "residuals", None) if exc is not None else result[1]
    if residuals:
        span.extra = {"iters": len(residuals) - 1}


def _solver_error_hook(span, args, kwargs, result, exc):
    if exc is not None and hasattr(exc, "residuals"):
        span.extra = {"errors": 1}


def _dropped_hook(span, args, kwargs, result, exc):
    if exc is None and hasattr(result, "dropped"):
        span.extra = {"dropped": int(result.dropped)}


HOOKS = {
    ("numpy.fft", "fftn"): _fft_hook,
    ("numpy.fft", "ifftn"): _fft_hook,
    ("torusbayes.posterior", "_pcg"): _pcg_hook,
    ("torusbayes.posterior", "map_estimate"): _solver_error_hook,
    ("torusbayes.experiments", "run_experiment"): _dropped_hook,
}


class Patcher:
    """Replaces module attributes and puts every original back on restore."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value):
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def set_bindings(self, original, value):
        """Rebind every module-level name inside ``torusbayes.*`` that is ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "torusbayes" or name.startswith("torusbayes.")):
                continue
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.set(module, attr, value)

    def restore(self):
        while self.saved:
            module, attr, value = self.saved.pop()
            setattr(module, attr, value)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every binding of each of ``TARGETS``; yields the names of targets not found."""
    patcher = Patcher()
    missing = []
    try:
        for module_name, attr, key in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = tracer.wrap(original, key, HOOKS.get((module_name, attr)))
            if module_name.startswith("torusbayes"):
                patcher.set_bindings(original, wrapped)
            else:
                patcher.set(module, attr, wrapped)
        patcher.set_bindings(ThreadPoolExecutor, tracer.executor_class())
        yield missing
    finally:
        patcher.restore()


def self_times(spans, root: Span) -> dict[int, float]:
    """Self time per span id, clipped to the root span's interval.

    Sweeps span boundaries in time order.  Between two boundaries the open
    spans without open children are the ones doing the work; the interval
    is split equally among them.
    """
    lo, hi = root.start, root.end
    events = []
    for s in spans:
        start, end = max(s.start, lo), min(s.end, hi)
        if end < start:
            continue
        events.append((start, 1, s.id, s))
        events.append((end, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    open_ids: set[int] = set()
    children_open: dict[int, int] = {}
    leaves: set[int] = set()
    out = {s.id: 0.0 for s in spans}
    prev = lo
    for t, is_start, _, s in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                out[sid] += share
        prev = t
        parent = s.parent if s.parent in open_ids else None
        if is_start:
            open_ids.add(s.id)
            children_open[s.id] = 0
            leaves.add(s.id)
            if parent is not None:
                children_open[parent] += 1
                leaves.discard(parent)
        else:
            open_ids.discard(s.id)
            leaves.discard(s.id)
            if parent is not None:
                children_open[parent] -= 1
                if children_open[parent] == 0:
                    leaves.add(parent)
    return out


def summarize(spans, root: Span) -> dict[str, dict[str, float]]:
    """Per key: calls, self seconds, and the sum of every hook field."""
    selfs = self_times(spans, root)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.key, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[s.id]
        for name, value in (s.extra or {}).items():
            entry[name] = entry.get(name, 0) + value
    return out
