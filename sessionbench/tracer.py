"""Per-layer tracing from outside the program.

The traced run wraps each layer's public entry points -- methods on their
classes, module functions at every place a caller looks them up -- with a
span that records name, start, end, parent, thread and the session or
request it belongs to. Self time is a span's duration minus the time its
child spans cover. Each thread keeps its own span stack (``repro.obs.trace``
shares one stack across threads, so it is not used here).

String kernels are called hundreds of thousands of times per run, so they
are aggregated (calls, time, distinct arguments) instead of stored as span
records; they still take part in the self-time accounting of their parents.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

#: (module, attribute path, metric name, kind). ``span`` stores one record
#: per call; ``agg`` and ``leaf`` only aggregate (``leaf`` also counts
#: distinct arguments); ``cm`` wraps a context-manager factory and times
#: its enter and exit halves, not the body it guards.
TARGETS = (
    ("repro.util.strings", "levenshtein", "strings.levenshtein", "leaf"),
    ("repro.util.strings", "jaro_winkler", "strings.jaro_winkler", "leaf"),
    ("repro.util.text", "tokenize", "text.tokenize", "leaf"),
    ("repro.util.text", "normalize", "text.normalize", "leaf"),
    ("repro.learning.structure.learner", "StructureLearner.generalize", "structure.generalize", "span"),
    ("repro.learning.model.type_learner", "SemanticTypeLearner.learn", "model.learn", "agg"),
    ("repro.learning.model.type_learner", "SemanticTypeLearner.recognize", "model.recognize", "span"),
    ("repro.linking.linker", "LearnedLinker.score", "linking.score", "agg"),
    ("repro.linking.linker", "LearnedLinker.train", "linking.train", "span"),
    ("repro.core.autocomplete", "AutoCompleteGenerator.column_suggestions",
     "autocomplete.column_suggestions", "span"),
    ("repro.learning.integration.steiner", "exact_top_k_steiner", "integration.steiner_exact", "span"),
    ("repro.learning.integration.spcsh", "spcsh_top_k_steiner", "integration.steiner_spcsh", "span"),
    ("repro.learning.integration.mira", "MiraLearner.accept", "integration.mira", "span"),
    ("repro.learning.integration.mira", "MiraLearner.reject", "integration.mira", "span"),
    ("repro.core.engine", "QueryEngine.run", "engine.run", "span"),
    ("repro.substrate.relational.evaluator", "Evaluator.run", "evaluator.run", "span"),
    ("repro.analysis.plan_analyzer", "PlanAnalyzer.check", "analysis.check", "span"),
    ("repro.substrate.services.base", "Service.invoke", "services.invoke", "agg"),
    ("repro.durability.recorder", "SessionRecorder.action", "durability.action", "cm"),
    ("repro.durability.recorder", "SessionRecorder.checkpoint", "durability.checkpoint", "span"),
    ("repro.durability.wal", "WalWriter.append", "durability.append", "span"),
)

#: The span every traced request runs under (see :func:`root`).
ROOT = "request"

#: The tracer wrappers are live only between install() and uninstall().
ACTIVE: "Tracer | None" = None


@contextmanager
def root(tag: str):
    """The root span of one request; a no-op when not tracing."""
    tracer = ACTIVE
    if tracer is None:
        yield
        return
    tracer.local.tag = tag
    frame = tracer.push(ROOT)
    try:
        yield
    finally:
        tracer.pop(frame, record=True)
        tracer.local.tag = None


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[list] = []
        self.tag = None
        self.stats: dict[str, list] | None = None
        self.seen: dict[str, set] | None = None


class Tracer:
    def __init__(self):
        self.local = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self._thread_stats: list[tuple[dict, dict]] = []
        self.extras: dict[str, float] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- span stack -----------------------------------------------------------
    def _state(self):
        local = self.local
        if local.stats is None:
            local.stats, local.seen = {}, {}
            with self._lock:
                self._thread_stats.append((local.stats, local.seen))
        return local

    def push(self, name: str) -> list:
        stack = self.local.stack
        parent = stack[-1][3] if stack else 0
        frame = [name, time.perf_counter(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def pop(self, frame: list, record: bool, args=None) -> None:
        end = time.perf_counter()
        local = self._state()
        stack = local.stack
        stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        elif name != ROOT:
            # Layer work outside any request (e.g. a session's constructor
            # learning its seed types): kept apart from the requests' time.
            self.add("unrooted_s", duration)
        entry = local.stats.get(name)
        if entry is None:
            entry = local.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if args is not None:
            local.seen.setdefault(name, set()).add(args)
        if record:
            spans_record = (span_id, name, start, end, parent, threading.get_ident(), local.tag)
            with self._lock:
                self.spans.append(spans_record)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.extras[name] = self.extras.get(name, 0.0) + value

    # -- results --------------------------------------------------------------
    def rooted_self_s(self) -> float:
        """Self seconds of every span under a request root, roots included."""
        return sum(entry[2] for entry in self.stats().values()) - self.extras.get("unrooted_s", 0.0)

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), all threads merged."""
        merged: dict[str, list] = {}
        with self._lock:
            for stats, _ in self._thread_stats:
                for name, (calls, total, self_time) in stats.items():
                    entry = merged.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += self_time
        return {name: tuple(entry) for name, entry in merged.items()}

    def distinct(self, name: str) -> int:
        with self._lock:
            union: set = set()
            for _, seen in self._thread_stats:
                union |= seen.get(name, set())
        return len(union)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        if kind == "cm":
            def factory(*args, **kwargs):
                return _TimedCM(tracer, name, fn(*args, **kwargs))
            return factory
        record = kind == "span"
        distinct = kind == "leaf"
        before_call, after_call = _OBSERVERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            before = before_call(tracer, args) if before_call else None
            frame = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                key = (args, tuple(sorted(kwargs.items()))) if distinct else None
                tracer.pop(frame, record, key)
            if after_call:
                after_call(tracer, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever it is bound."""
        global ACTIVE
        for module_name, path, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, kind))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, kind)
            # Callers bind module functions by name at import time (the
            # learners import tokenize, spcsh.py imports exact_top_k_steiner,
            # linking/similarity.py files jaro_winkler into its heuristic
            # table), so rebind every reference to the original.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if not getattr(other, "__name__", "").startswith("repro") or namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(other, key, original, wrapped)
                    elif isinstance(value, dict):
                        for dict_key, dict_value in list(value.items()):
                            if dict_value is original:
                                self._patch(value, dict_key, original, wrapped, item=True)
        ACTIVE = self

    def _patch(self, owner, attr, original, wrapped, item: bool = False) -> None:
        if item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, item))

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original, item in reversed(self._patches):
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        ACTIVE = None


class _TimedCM:
    """Times a context manager's enter and exit halves as two spans."""

    def __init__(self, tracer: Tracer, name: str, cm):
        self.tracer, self.name, self.cm = tracer, name, cm

    def __enter__(self):
        frame = self.tracer.push(self.name)
        try:
            return self.cm.__enter__()
        finally:
            self.tracer.pop(frame, True)

    def __exit__(self, *exc):
        frame = self.tracer.push(self.name)
        try:
            return self.cm.__exit__(*exc)
        finally:
            self.tracer.pop(frame, True)


# -- per-call observers: extra counts measured where the work happens --------
def _rows_out(tracer, args, result, before):
    tracer.add("engine.rows_out", len(result))


def _backend_before(tracer, args):
    return args[0].backend_calls


def _backend_after(tracer, args, result, before):
    tracer.add("services.backend_calls", args[0].backend_calls - before)


def _mira_updates(tracer, args, result, before):
    tracer.add("integration.mira_updates", result)


def _wal_bytes(tracer, args):
    from repro.durability.wal import encode_frame

    tracer.add("durability.bytes", len(encode_frame(args[1])))


#: metric name -> (called before the wrapped call, called after it returns)
_OBSERVERS = {
    "engine.run": (None, _rows_out),
    "services.invoke": (_backend_before, _backend_after),
    "integration.mira": (None, _mira_updates),
    "durability.append": (_wal_bytes, None),
}
