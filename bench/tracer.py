"""Span tracer that instruments a package from outside its source.

`Tracer.install` replaces each traced function at every module attribute
that binds it, so a call through any import path opens a span, and
`Tracer.uninstall` puts the originals back.  The program's own files are
never edited.

A span records its process, its id, the span that caused it (the one open
below it on the call stack), its name and its start and end on the
system-wide monotonic clock.  Pool workers forked while the tracer is
installed inherit the wrappers.  A worker keeps its spans in memory and
appends them to a spool file only when its outermost span closes, that is
once per pool cell: writing per call would put file I/O on the hot path.
The parent reads the spool in `collect`.

Bytes moved through `multiprocessing` are counted in the parent at
`ForkingPickler.dumps` and `ForkingPickler.loads`, which both pool
directions go through.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import types
from collections import Counter, defaultdict, namedtuple
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

Span = namedtuple("Span", "pid sid parent name t0 t1")


def self_times(spans) -> dict:
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent on one thread, one after another, so
    their durations add up.  Keys are (pid, sid).
    """
    inner = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            inner[(s.pid, s.parent)] += s.t1 - s.t0
    return {(s.pid, s.sid): s.t1 - s.t0 - inner[(s.pid, s.sid)] for s in spans}


def span_name(fn) -> str:
    """`<defining module>.<qualname>`: one name however many modules bind it."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Spans and counters of one process tree, kept in memory.

    `counters` maps a span name to (metric, fn) pairs; after each call of
    that function `fn(result)` is added to the metric's count.
    """

    def __init__(self, spool_dir: str, counters: dict | None = None):
        self.spool_dir = spool_dir
        self.counters = counters or {}
        self.owner = os.getpid()
        self.names = set()
        self.pool = Counter()
        self._pool_lock = threading.Lock()
        self._bindings = []
        self._pickler = None
        self._start()

    def _start(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.next_sid = 0

    # -- installation -----------------------------------------------------

    def install(self, modules, private=()) -> None:
        """Wrap every public function defined in one of `modules`, plus the
        private ones named in `private`, at each binding in `modules`."""
        defined_here = {m.__name__ for m in modules}
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not (isinstance(value, types.FunctionType)
                        and value.__module__ in defined_here
                        and (not attr.startswith("_") or attr in private)):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                self._bindings.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
                self.names.add(span_name(value))
        self._count_pickles()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()
        if self._pickler is not None:
            ForkingPickler.dumps, ForkingPickler.loads = self._pickler
            self._pickler = None

    def _wrap(self, fn):
        name = span_name(fn)
        hooks = self.counters.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._start()  # first call in a forked worker
            stack = tracer.stack
            sid = tracer.next_sid
            tracer.next_sid = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(tracer.pid, sid, parent, name, t0, t1))
            for metric, count in hooks:
                tracer.counts[metric] += count(result)
            if not stack and tracer.pid != tracer.owner:
                tracer._flush()
            return result

        return traced

    def _count_pickles(self) -> None:
        dumps = ForkingPickler.__dict__["dumps"]
        loads = ForkingPickler.__dict__["loads"]
        self._pickler = (dumps, loads)
        tracer = self

        def counted_dumps(cls, obj, protocol=None):
            buf = dumps.__func__(cls, obj, protocol)
            if os.getpid() == tracer.owner:
                with tracer._pool_lock:
                    tracer.pool["messages"] += 1
                    tracer.pool["bytes_sent"] += memoryview(buf).nbytes
            return buf

        def counted_loads(data, /, **kwargs):
            if os.getpid() == tracer.owner:
                with tracer._pool_lock:
                    tracer.pool["bytes_received"] += memoryview(data).nbytes
            return loads(data, **kwargs)

        ForkingPickler.dumps = classmethod(counted_dumps)
        ForkingPickler.loads = staticmethod(counted_loads)

    # -- spool ------------------------------------------------------------

    def _flush(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self):
        """(spans, counts, pool) of this process and its workers since the
        last collect; the tracer starts afresh."""
        spans, counts = self.spans, self.counts
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path) as f:
                for line in f:
                    record = json.loads(line)
                    spans.extend(Span(*s) for s in record["spans"])
                    counts.update(record["counts"])
            os.remove(path)
        with self._pool_lock:
            pool = dict(self.pool)
            self.pool.clear()
        self._start()
        return spans, counts, pool
