"""Span tracer for the traced benchmark pass.

The tracer records a span around every call into a public function of a
``hyperconn`` module (the names in the module's ``__all__``) and around the
import of each module.  It reaches calls made inside the library by
temporarily rebinding each function object wherever a ``hyperconn`` module
binds it, which is where the calling module looks the name up; ``uninstall``
restores every original binding.  No source file is changed.

A span is (call id, parent call id, name id, start ns, end ns).  Spans stay
in memory in a flat ``array`` and are written out once, by ``write_spans``.
Self time is a span's duration minus the time its child spans cover.
Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import gzip
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

PACKAGE = "hyperconn"
_clock = time.perf_counter_ns


def layer_of(module_name: str) -> str:
    """Layer name of a module: ``hyperconn.psi`` -> ``psi``."""
    return module_name.split(".", 1)[1] if "." in module_name else "package"


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: Counter = Counter()
        self._patches: list = []
        self._finder = None

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self) -> tuple:
        cid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(cid)
        return cid, parent, _clock()

    def end(self, token: tuple, nid: int) -> None:
        cid, parent, t0 = token
        t1 = _clock()
        self.stack.pop()
        self.spans.extend((cid, parent, nid, t0, t1))

    def record(self, name: str, t0: int, t1: int) -> None:
        """A leaf span that was timed outside begin/end."""
        cid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((cid, parent, self.name_id(name), t0, t1))

    def wrap(self, name: str, fn, counted=None):
        """Traced stand-in for fn.  counted, if given, replaces the call
        itself and receives the original function as first argument."""
        nid = self.name_id(name)
        calls_key = name.split(".", 1)[0] + ".calls"
        counts = self.counts
        begin = self.begin
        end = self.end
        inner = fn if counted is None else (lambda *a, **k: counted(fn, *a, **k))

        if inspect.isgeneratorfunction(fn):
            # the work happens as the caller iterates: one span per step
            def traced(*args, **kwargs):
                counts[calls_key] += 1
                gen = inner(*args, **kwargs)
                while True:
                    token = begin()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end(token, nid)
                    yield item

        else:

            def traced(*args, **kwargs):
                counts[calls_key] += 1
                token = begin()
                try:
                    return inner(*args, **kwargs)
                finally:
                    end(token, nid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- imports ---------------------------------------------------------

    def trace_imports(self) -> None:
        """Record an ``<layer>.import`` span for each package module that is
        imported from now on.  Call before the first ``import hyperconn``."""
        self._finder = _ImportSpans(self)
        sys.meta_path.insert(0, self._finder)

    def stop_import_tracing(self) -> None:
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None

    # -- rebinding -------------------------------------------------------

    def install(self, special: dict | None = None) -> None:
        """Rebind every public function of every loaded package module.

        special maps ``(module, name)`` to a counting replacement that
        takes the original function as its first argument.
        """
        special = special or {}
        modules = {
            n: m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        for mname, mod in modules.items():
            layer = layer_of(mname)
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mname:
                    continue
                counted = special.get((layer, fname))
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn, counted))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def rebind(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time and span count per span name."""
        sp = self.spans
        n = len(sp) // 5
        child = {}
        for i in range(n):
            parent = sp[5 * i + 1]
            if parent >= 0:
                child[parent] = child.get(parent, 0) + sp[5 * i + 4] - sp[5 * i + 3]
        out: dict[str, list] = {}
        for i in range(n):
            cid, _parent, nid, t0, t1 = sp[5 * i : 5 * i + 5]
            acc = out.setdefault(self.names[nid], [0.0, 0])
            acc[0] += (t1 - t0 - child.get(cid, 0)) / 1e9
            acc[1] += 1
        return out

    def span_seconds(self, name: str) -> list[float]:
        """Durations of every span with the given name, in order."""
        nid = self._name_ids.get(name)
        sp = self.spans
        return [
            (sp[i + 4] - sp[i + 3]) / 1e9
            for i in range(0, len(sp), 5)
            if sp[i + 2] == nid
        ]

    def top_level_seconds(self, suffix: str) -> float:
        """Total duration of the spans without a parent whose name ends
        with suffix."""
        sp = self.spans
        return sum(
            (sp[i + 4] - sp[i + 3]) / 1e9
            for i in range(0, len(sp), 5)
            if sp[i + 1] == -1 and self.names[sp[i + 2]].endswith(suffix)
        )

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            sp = self.spans
            names = self.names
            for i in range(0, len(sp), 5):
                fh.write(
                    f"{sp[i]}\t{sp[i + 1]}\t{names[sp[i + 2]]}\t{sp[i + 3]}\t{sp[i + 4]}\n"
                )


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Finds package modules with the normal path finder and times the
    execution of their module bodies."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self.tracer, layer_of(fullname))
        return spec


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer: Tracer, layer: str):
        self._loader = loader
        self._tracer = tracer
        self._nid = tracer.name_id(f"{layer}.import")

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        token = self._tracer.begin()
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.end(token, self._nid)

    def __getattr__(self, name):
        return getattr(self._loader, name)


def timed_pool_class(tracer: Tracer):
    """ProcessPoolExecutor whose lifetime (start, map, shutdown) is recorded
    as a ``verify.pool`` span in the parent process."""

    class TimedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_t0 = _clock()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.record("verify.pool", self._bench_t0, _clock())

    return TimedPool
