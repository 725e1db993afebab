"""Outside-in layer trace of the parafrac solvers.

Nothing inside ``parafrac`` knows about this module.  While a traced solve
runs, :func:`installed` replaces the module attributes that the solver
looks up at each layer boundary (``parafrac.parareal.coarse_step``,
``parafrac.stepping.assemble_diffusion``, ...) by wrappers that time
every call, and puts the originals back afterwards.  The wrappers only
time and forward, so traced results are bitwise equal to untraced ones.

A span is ``(id, name, start, end, thread, parent, solve)``.  Spans are
kept in memory by a :class:`Recorder` and reduced to per-layer metrics by
:func:`fine_metrics` and :func:`parareal_metrics`.
"""

from __future__ import annotations

import itertools
import threading
import types
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from typing import NamedTuple, Optional

import numpy

# The parallel stage only groups the fine sweeps and coarse steps of one
# iteration; self times look through it to the work spans it holds.
GROUP = "parareal.parallel_stage"
SOLVE_FINE = "solve.fine_sequential"
SOLVE_PARAREAL = "solve.parareal"


class Recorder:
    """Thread-safe in-memory span store.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with no open span (a parallel-stage worker) takes as parent the
    innermost open span of the thread that opened the solve, which during
    the parallel stage is the stage itself.
    """

    def __init__(self):
        self.spans = []
        self.solve = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, name, start, end, threading.get_ident(), parent, self.solve)
                )

    def solve_span(self, solve, name, fn, *args, **kwargs):
        """Run one solve as the root span; returns ``(result, spans)``."""
        self.spans = []
        self.solve = solve
        self._root_stack = self._stack()
        try:
            result = self.call(name, fn, args, kwargs)
        finally:
            self._root_stack = None
            self.solve = None
        return result, self.spans


def _traced(recorder, name, fn):
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


class TracedCallback:
    """Timing wrapper for a problem coefficient callback.

    Module-level and picklable, so a traced problem can still be sent to
    worker processes.  The recorder holds a lock and is not sent; an
    unpickled copy forwards untimed until it is given one.
    """

    def __init__(self, fn, name, recorder=None):
        self.fn = fn
        self.name = name
        self.recorder = recorder

    def __call__(self, *args):
        if self.recorder is None:
            return self.fn(*args)
        return self.recorder.call(self.name, self.fn, args, {})

    def __getstate__(self):
        return {"fn": self.fn, "name": self.name, "recorder": None}


def traced_problem(problem, recorder):
    """Copy of ``problem`` whose callbacks record ``problems.*`` spans."""
    return replace(
        problem,
        diffusion=TracedCallback(problem.diffusion, "problems.diffusion", recorder),
        source=TracedCallback(problem.source, "problems.source", recorder),
        initial=TracedCallback(problem.initial, "problems.initial", recorder),
    )


def _module_clone(module, **overrides):
    clone = types.ModuleType(module.__name__)
    clone.__dict__.update(module.__dict__)
    clone.__dict__.update(overrides)
    return clone


@contextmanager
def installed(recorder):
    """Install the layer wrappers for the duration of the block.

    Call only while no solve is running: the wrappers replace attributes
    that every thread of the process sees.
    """
    # importable only once run.import_parafrac has put the checkout's src first
    import parafrac.l1 as l1
    import parafrac.parareal as parareal
    import parafrac.stepping as stepping

    # stepping calls numpy.linalg.solve through its own ``np`` name; a
    # clone of numpy for stepping alone leaves every other caller untouched
    np_clone = _module_clone(
        stepping.np,
        linalg=_module_clone(
            numpy.linalg,
            solve=_traced(recorder, "stepping.batched_solve", numpy.linalg.solve),
        ),
    )
    targets = [
        (parareal, "run_coarse", "parareal.initial_coarse"),
        (parareal, "coarse_step", "parareal.coarse_step"),
        (parareal, "fine_sweep_intervals", "parareal.fine_sweep"),
        (parareal, "l2_norm", "parareal.l2_norm"),
        (parareal, "_parallel_stage", GROUP),
        (stepping, "assemble_diffusion", "spectral.assemble_diffusion"),
        (stepping, "lu_factor", "stepping.lu_factor"),
        (stepping, "lu_solve", "stepping.lu_solve"),
        (l1.FractionalWeights, "on_grid", "l1.on_grid"),
        (l1.FractionalWeights, "fine_rows", "l1.fine_rows"),
    ]
    saved = [(stepping, "np", stepping.np)]
    try:
        stepping.np = np_clone
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(recorder, name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- reduction to per-layer metrics -------------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    solve: str

    @property
    def seconds(self):
        return self.end - self.start


class SpanTree:
    """Index over the spans of one solve."""

    def __init__(self, spans):
        spans = [Span._make(s) for s in spans]
        self.by_id = {s.id: s for s in spans}
        self.children = {}
        self.by_name = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
            self.by_name.setdefault(s.name, []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def work_children(self, span):
        """Direct children, looking through group spans."""
        out = []
        for child in self.children.get(span.id, ()):
            if child.name == GROUP:
                out.extend(self.work_children(child))
            else:
                out.append(child)
        return out

    def self_time(self, span):
        """Duration minus the part of it covered by any child span."""
        covered = [(max(c.start, span.start), min(c.end, span.end))
                   for c in self.work_children(span)]
        return span.seconds - _union_length([iv for iv in covered if iv[1] > iv[0]])

    def is_outermost_l1(self, span):
        parent = self.by_id.get(span.parent)
        return parent is None or not parent.name.startswith("l1.")


def _total(spans):
    return sum(s.seconds for s in spans)


def _common(tree):
    """Metrics shared by every solve kind (time in seconds)."""
    lu_f = tree.named("stepping.lu_factor")
    asm = tree.named("spectral.assemble_diffusion")
    diff = tree.named("problems.diffusion")
    src = tree.named("problems.source")
    l1_spans = tree.named("l1.on_grid") + tree.named("l1.fine_rows")
    return {
        "stepping.lu.calls": len(lu_f),
        "stepping.lu_s": _total(lu_f) + _total(tree.named("stepping.lu_solve")),
        "spectral.assemble_diffusion.calls": len(asm),
        "spectral.assemble_diffusion_s": _total(asm),
        "problems.diffusion.calls": len(diff),
        "problems.source.calls": len(src),
        "problems.callback_s": _total(diff + src + tree.named("problems.initial")),
        "l1.on_grid.calls": len(tree.named("l1.on_grid")),
        "l1.weights_s": _total([s for s in l1_spans if tree.is_outermost_l1(s)]),
    }


def fine_metrics(spans):
    """Per-layer metrics of one ``run_fine_sequential`` solve."""
    tree = SpanTree(spans)
    (root,) = tree.named(SOLVE_FINE)
    out = _common(tree)
    out["stepping.fine_sequential.self_s"] = tree.self_time(root)
    return out


def parareal_metrics(spans):
    """Per-layer metrics of one ``parareal_solve``."""
    tree = SpanTree(spans)
    (root,) = tree.named(SOLVE_PARAREAL)
    coarse = tree.named("parareal.coarse_step")
    sweeps = tree.named("parareal.fine_sweep")
    norms = tree.named("parareal.l2_norm")
    solves = tree.named("stepping.batched_solve")
    block_max = 0.0
    imbalance = []
    for stage in tree.named(GROUP):
        blocks = [s.seconds for s in tree.children[stage.id] if s.name == "parareal.fine_sweep"]
        block_max += max(blocks)
        imbalance.append(max(blocks) * len(blocks) / sum(blocks))
    out = {
        "parareal.coarse_step.calls": len(coarse),
        "parareal.coarse_step_s": _total(coarse),
        "parareal.initial_coarse_s": _total(tree.named("parareal.initial_coarse")),
        "parareal.fine_sweep.calls": len(sweeps),
        "parareal.fine_sweep_s": _total(sweeps),
        "parareal.fine_block_max_s": block_max,
        "parareal.fine_block_imbalance": sum(imbalance) / len(imbalance),
        "parareal.l2_norm.calls": len(norms),
        "parareal.l2_norm_s": _total(norms),
        "parareal.self_s": tree.self_time(root),
        "stepping.coarse_step.self_s": sum(tree.self_time(s) for s in coarse),
        "stepping.fine_sweep.self_s": sum(tree.self_time(s) for s in sweeps),
        "stepping.batched_solve.calls": len(solves),
        "stepping.batched_solve_s": _total(solves),
        "l1.fine_rows.calls": len(tree.named("l1.fine_rows")),
    }
    out.update(_common(tree))
    return out
