"""Concurrency correctness pass: static lock analysis + runtime race harness.

Part 1 (static, :mod:`.model` + :mod:`.rules`): an AST pass over ``src/``
discovering every lock, building the cross-module lock-acquisition graph
from ``with``-regions and transitive calls, and reporting

- **CONC001** — lock-order inversions (cycles in the acquisition graph);
- **CONC002** — blocking calls under a lock (``Future.result``,
  ``queue.get``, ``sleep``, ``fsync``, service ``invoke``);
- **CONC003** — shared attributes written both inside and outside the
  owning class's lock regions;
- **CONC004** — METRICS mutation while holding a non-metrics lock;
- **CONC005** — ``@recorded`` bodies that acquire server locks
  (deadlock-with-replay hazard).

Run it as ``python -m repro.analysis.concurrency src/``; suppressions use
the PR-5 lint syntax — ``lint: allow=CONC002 -- reason`` after a ``#`` on
the offending line.

Part 2 (runtime, :mod:`.runtime`): with ``REPRO_RACECHECK=1`` every lock
built through :func:`make_lock`/:func:`make_rlock` is a tracked wrapper
feeding an Eraser-style lockset tracker; CI runs the stress suites under
it and asserts the observed acquisition order never inverts the static
model and no guarded field ends shared-modified with an empty lockset.

Only the runtime half (plus config) is imported eagerly — it sits on the
import path of leaf lock-owning modules; the static half resolves lazily.
"""

from __future__ import annotations

from .config import RACECHECK
from .runtime import (
    TRACKER,
    LockTracker,
    TrackedLock,
    TrackedRLock,
    conc_stats_line,
    find_cycle,
    make_lock,
    make_rlock,
)

_LAZY = {
    "ConcurrencyModel": ".model",
    "build_model": ".model",
    "build_model_from_paths": ".model",
    "CONC_RULES": ".rules",
    "main": ".rules",
    "rule_concurrency": ".rules",
}

__all__ = [
    "CONC_RULES",
    "ConcurrencyModel",
    "LockTracker",
    "RACECHECK",
    "TRACKER",
    "TrackedLock",
    "TrackedRLock",
    "build_model",
    "build_model_from_paths",
    "conc_stats_line",
    "find_cycle",
    "main",
    "make_lock",
    "make_rlock",
    "rule_concurrency",
]


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(modname, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
