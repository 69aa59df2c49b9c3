"""In-memory timing spans around calls into sowp's module entry points.

The tracer replaces a module attribute (or class attribute) with a wrapper
that records one span per call: name, thread, start, end, the span that was
open when it started, and counts derived from the call's arguments.  Nothing
under ``src/`` changes; the wrappers sit at the import sites the program
actually calls through.

Parents follow per-thread stacks.  A span that opens on a worker thread with
an empty stack takes the innermost open span of the thread that created the
tracer as its parent, so the sweep's per-point work nests under the sweep
call that submitted it.

Self time is a span's duration minus the part of its interval covered by
its children's intervals (their union, so overlapping children on two
threads are not subtracted twice).
"""

import contextlib
import importlib
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: int          # -1 for a root span
    name: str
    thread: int
    start: float
    end: float
    n: int = 0           # work items: points, matrices or elements
    deg: int = 0         # matrix order (eigvals only)
    cpu: float = 0.0     # CPU time of the span's thread inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceError(RuntimeError):
    """A traced name vanished or an expected span never fired."""


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals,
    each clipped to the parent's interval}."""
    by_id = {s.id: s for s in spans}
    children = {s.id: [] for s in spans}
    for s in spans:
        if s.parent in children:
            children[s.parent].append(s)
    out = {}
    for sid, kids in children.items():
        p = by_id[sid]
        covered = union_length(
            (max(k.start, p.start), min(k.end, p.end))
            for k in kids if k.end > p.start and k.start < p.end)
        out[sid] = p.duration - covered
    return out


def _count_none(args, kwargs):
    return 0, 0


def count_points(args, kwargs):
    """saddle_batch(pulse, e_bound, pz, pperp2): momentum points solved."""
    pz = kwargs["pz"] if "pz" in kwargs else args[2]
    return int(np.size(pz)), 0


def count_matrices(args, kwargs):
    """eigvals(a): matrices in the stack and their order."""
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


def count_elements(args, kwargs):
    """Pulse.vector_potential(self, t): time points evaluated."""
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"])), 0


class Tracer:
    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.spans = []
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks = {}
        self._root_thread = threading.get_ident()

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._root_thread:
            top = self._stacks.get(self._root_thread, [])[-1:]
            if top:
                return top[0]
        return -1

    def _open(self):
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, name, start, end, n, deg, cpu):
        stack.pop()
        span = Span(sid, parent, name, threading.get_ident(), start, end, n,
                    deg, cpu)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller itself (no wrapped function)."""
        sid, parent, stack = self._open()
        cpu0 = time.thread_time()
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._close(sid, parent, stack, name, start, end, 0, 0,
                        time.thread_time() - cpu0)

    def wrap(self, name: str, fn, count=_count_none):
        tracer = self
        clock = self.clock
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            t_in = clock()
            n, deg = count(args, kwargs)
            sid, parent, stack = tracer._open()
            cpu0 = thread_time()
            t_call = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t_ret = clock()
                cpu = thread_time() - cpu0
                tracer._close(sid, parent, stack, name, t_call, t_ret, n, deg, cpu)
                cost = (t_call - t_in) + (clock() - t_ret)
                with tracer._lock:
                    tracer.overhead_s += cost

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, sites):
        """Wrap every (span name, 'module' or 'module:Class', attribute,
        count function) site; raises TraceError if an attribute is gone."""
        t0 = self.clock()
        for name, owner_path, attr, count in sites:
            mod_name, _, cls_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                raise TraceError(f"traced name {owner_path}.{attr} vanished: {exc}") from exc
            if not callable(fn):
                raise TraceError(f"traced name {owner_path}.{attr} is not callable")
            setattr(owner, attr, self.wrap(name, fn, count))
        self.overhead_s += self.clock() - t0


# Public entry points wrapped at every import site the program calls through.
SITES = (
    ("cli.build_density_matrix", "sowp.cli", "build_density_matrix", _count_none),
    ("cli.buildup", "sowp.cli", "buildup", _count_none),
    ("cli.coherence_sweep", "sowp.cli", "coherence_sweep", _count_none),
    ("cli.signal_parameters", "sowp.cli", "signal_parameters", _count_none),
    ("cli.signal_trace", "sowp.cli", "signal_trace", _count_none),
    ("analysis.build_density_matrix", "sowp.analysis", "build_density_matrix", _count_none),
    ("analysis.amplitude_profiles", "sowp.analysis", "amplitude_profiles", _count_none),
    ("analysis.find_saddles", "sowp.analysis", "find_saddles", _count_none),
    ("densmat.amplitude_profiles", "sowp.densmat", "amplitude_profiles", _count_none),
    ("amplitude.saddle_batch", "sowp.amplitude", "saddle_batch", count_points),
    ("saddle.saddle_batch", "sowp.saddle", "saddle_batch", count_points),
    ("numpy.linalg.eigvals", "numpy.linalg", "eigvals", count_matrices),
    ("pulse.vector_potential", "sowp.pulse:Pulse", "vector_potential", count_elements),
    ("pulse.vector_potential_derivative", "sowp.pulse:Pulse",
     "vector_potential_derivative", count_elements),
)
