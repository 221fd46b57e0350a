"""Span tracing of cotypelab's public functions, for the per-layer run.

``Tracer.install`` wraps every public function of the layer modules, and
every public method of the classes they define, in each cotypelab
namespace (and module-level dict) that holds it, so calls made inside the
package are seen as well as calls made by the benchmark. Each call becomes
a span (name, start, end, parent) kept in memory and written to a sidecar
by ``write``. Spans of module functions are named ``module.function``;
methods are named ``module.method``, so ``targets.pairwise`` covers every
target class.

Per name the tracer keeps the call count, the total time of outermost
calls (a recursive call is not counted twice), the self time (duration
minus the time covered by direct child spans), and a few computed counters:
bytes a roll moves, the transform path taken, and, with ``alloc=True``,
the tracemalloc peak of the calls named in ``PEAK_ALLOC``. tracemalloc
slows every allocation inside those calls, child spans included, so the
times of a tracer made with ``alloc=True`` are not used.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

MODULES = ("gridops", "targets", "spaces", "harmonic", "cotype", "smoothing",
           "embeddings", "checks", "verify")
SPAN_CAPACITY = 1 << 20
PEAK_ALLOC = frozenset({"cotype.gamma_exhaustive_two_point",
                        "harmonic.rad_identity_residual", "spaces.torus_space"})


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counters = {}

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _roll_bytes(stat, args, kwargs, harmonic) -> None:
    values = _arg(args, kwargs, 1, "values")
    stat.add("mb_moved", 2.0 * values.nbytes / 1e6)  # read once, written once


def _transform_path(stat, args, kwargs, harmonic) -> None:
    f = _arg(args, kwargs, 0, "f")
    method = _arg(args, kwargs, 1, "method", "auto")
    if method == "auto":
        limit = getattr(harmonic, "DIRECT_SUM_LIMIT", 0)
        method = "direct" if f.domain.points <= limit else "fast"
    stat.add(f"calls_{method}", 1)


COUNTERS = {"gridops.roll_values": _roll_bytes,
            "harmonic.fourier_forward": _transform_path}


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.package = importlib.import_module("cotypelab")
        self.modules = [importlib.import_module(f"cotypelab.{m}") for m in MODULES]
        self.harmonic = self.modules[MODULES.index("harmonic")]
        self.names: list = []
        self.ids: dict = {}
        self.peak_ids: set = set()
        # Span storage is allocated up front and grown by doubling, so that list
        # growth rarely lands inside a tracemalloc window and counts as the
        # traced call's allocation.
        self.count = 0
        self.span_name = [0] * SPAN_CAPACITY
        self.span_parent = [0] * SPAN_CAPACITY
        self.span_start = [0.0] * SPAN_CAPACITY
        self.span_end = [0.0] * SPAN_CAPACITY
        self.stack: list = []
        self.child_time: list = []
        self.stats: dict = {}
        self.patched: list = []
        self.origin = 0.0

    # ---- recording

    def _call(self, name_id, stat, fn, hook, args, kwargs):
        idx = self.count
        if idx == len(self.span_start):
            for store in (self.span_name, self.span_parent, self.span_start, self.span_end):
                store.extend(store)
        self.count += 1
        self.span_name[idx] = name_id
        self.span_parent[idx] = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        self.child_time.append(0.0)
        stat.calls += 1
        stat.active += 1
        if hook is not None:
            hook(stat, args, kwargs, self.harmonic)
        alloc = name_id in self.peak_ids and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if alloc:
                stat.peak("peak_alloc_mb", tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()
            dur = t1 - t0
            self.span_start[idx] = t0 - self.origin
            self.span_end[idx] = t1 - self.origin
            self.stack.pop()
            stat.self_s += dur - self.child_time.pop()
            if self.child_time:
                self.child_time[-1] += dur
            stat.active -= 1
            if stat.active == 0:
                stat.total_s += dur

    def _wrap(self, name: str, fn):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        name_id = self.ids[name]
        stat = self.stats[name]
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name_id, stat, fn, hook, args, kwargs)

        return traced

    # ---- patching

    def _targets(self) -> list:
        """(original, replacement) for every module function; class methods are patched here."""
        out = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((obj, self._wrap(f"{short}.{attr}", obj)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_"):
                            continue
                        name = f"{short}.{mattr}"
                        if isinstance(raw, (staticmethod, classmethod)):
                            new = type(raw)(self._wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            new = self._wrap(name, raw)
                        else:
                            continue
                        setattr(obj, mattr, new)
                        self.patched.append((obj, mattr, raw, False))
        return out

    def install(self) -> None:
        replace = {id(orig): new for orig, new in self._targets()}
        if self.alloc:
            self.peak_ids = {self.ids[n] for n in PEAK_ALLOC if n in self.ids}
        for ns in [self.package] + self.modules:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replace:
                    setattr(ns, attr, replace[id(obj)])
                    self.patched.append((ns, attr, obj, False))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace:
                            obj[key] = replace[id(val)]
                            self.patched.append((obj, key, val, True))
        self.origin = time.perf_counter()

    def uninstall(self) -> None:
        for owner, key, orig, is_dict in reversed(self.patched):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self.patched.clear()

    # ---- results

    def summary(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            if st.calls:
                out[name] = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s,
                             **st.counters}
        return out

    def write(self, path: str) -> None:
        n = self.count
        np.savez(path,
                 names=np.array(self.names),
                 name=np.array(self.span_name[:n], dtype=np.int32),
                 parent=np.array(self.span_parent[:n], dtype=np.int64),
                 start=np.array(self.span_start[:n]),
                 end=np.array(self.span_end[:n]))
