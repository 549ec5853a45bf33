"""Shared cache tiers for the multi-tenant session server.

One :class:`CacheTiers` bundle holds every memo an evaluation stack uses:

- **plan** — the :class:`~repro.cache.plan_cache.PlanResultCache` of
  materialized subplan results (PR 2);
- **analysis** — the static plan-analyzer report memo (PR 5);
- **compile** / **scan** — the columnar engine's compiled-closure and
  scan-transpose memos (PR 6).

Historically each evaluator/engine owned private instances of these. The
server promotes one bundle to a *shared tier* consulted by every tenant:
keys fold in the catalog's ``cache_scope`` (see
:meth:`repro.substrate.relational.catalog.Catalog.fork`), so tenants forked
from one frozen base address the same entries — tenant A's compiled plan
closure or materialized join is a hit for tenant B — while diverged or
unrelated catalogs can never collide. The underlying :class:`LRUCache`
instances are internally locked, which makes the bundle thread-safe without
any locking here.

The bundle also provides **single-flight** execution (:meth:`flight`): when
N tenants concurrently miss on the same root plan, one computes while the
rest wait and then hit, instead of all N redundantly computing under the
GIL — without it, a cold start pays N× the work and the shared tier buys
nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock
from .lru import LRUCache
from .plan_cache import PlanResultCache

#: Analyzer-report memo entries, keyed on (plan fingerprint, catalog
#: version), so a suggestion refresh re-checks each candidate plan once.
ANALYSIS_CAPACITY = 1024
#: Columnar compiled-plan memo entries (closures per fingerprint × version).
COMPILE_CAPACITY = 512
#: Columnar scan-transpose memo entries (column arrays per source × version).
SCAN_CAPACITY = 128


class CacheTiers:
    """The full set of evaluation memos, optionally shared across sessions.

    ``shared=False`` (the default, and the only mode exercised with
    ``REPRO_SERVER=0``) reproduces the historical per-evaluator layout
    exactly: same capacities, same metrics prefixes, and :meth:`flight` is a
    no-op. ``shared=True`` marks the bundle as a cross-tenant tier and turns
    on single-flight keying.
    """

    def __init__(self, *, shared: bool = False):
        self.shared = shared
        self.plan = PlanResultCache()
        self.analysis = LRUCache(ANALYSIS_CAPACITY, metrics_prefix="analysis.memo")
        self.compile = LRUCache(COMPILE_CAPACITY, metrics_prefix="columnar.compile")
        self.scan = LRUCache(SCAN_CAPACITY, metrics_prefix="columnar.scan")
        # Configured capacities, remembered so a brownout shrink can be
        # undone exactly (restore() after the load controller recovers).
        self._full_capacities = {
            name: getattr(self, name).capacity
            for name in ("plan", "analysis", "compile", "scan")
        }
        self.shrunk = False
        self._flight_master = make_lock("CacheTiers._flight_master")
        self._flights: dict = {}

    @contextmanager
    def flight(self, key: Hashable):
        """Serialize concurrent work on *key* (single-flight).

        The first caller acquires a per-key lock and computes; later callers
        block on the same lock, and on waking re-probe the cache and hit.
        Locks are refcounted and dropped when the last flight on a key
        lands, so the dict stays bounded by in-progress work. No-op when the
        bundle is not shared — single-session evaluation stays lock-free on
        this path.
        """
        if not self.shared:
            yield
            return
        with self._flight_master:
            if RACECHECK.enabled:
                TRACKER.note_access("CacheTiers._flights", self)
            lock, refs = self._flights.get(key, (None, 0))
            if lock is None:
                lock = make_lock("CacheTiers.<flight>")
            self._flights[key] = (lock, refs + 1)
        lock.acquire()
        try:
            yield
        finally:
            lock.release()
            with self._flight_master:
                if RACECHECK.enabled:
                    TRACKER.note_access("CacheTiers._flights", self)
                lock, refs = self._flights[key]
                if refs <= 1:
                    del self._flights[key]
                else:
                    self._flights[key] = (lock, refs - 1)

    def shrink(self, factor: int) -> int:
        """Brownout memory headroom: divide every tier's capacity by
        *factor* (floored at 8 entries), trimming LRU-first; idempotent
        until :meth:`restore`. Returns entries trimmed."""
        if self.shrunk:
            return 0
        self.shrunk = True
        trimmed = 0
        for name, full in self._full_capacities.items():
            trimmed += getattr(self, name).set_capacity(max(8, full // max(1, factor)))
        return trimmed

    def restore(self) -> None:
        """Undo :meth:`shrink`: configured capacities back, entries refill
        naturally (no way to un-evict)."""
        if not self.shrunk:
            return
        self.shrunk = False
        for name, full in self._full_capacities.items():
            getattr(self, name).set_capacity(full)

    def clear(self) -> None:
        """Drop every tier's entries (lifetime stats survive)."""
        self.plan.clear()
        self.analysis.clear()
        self.compile.clear()
        self.scan.clear()

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            "plan": self.plan.stats(),
            "analysis": self.analysis.stats(),
            "compile": self.compile.stats(),
            "scan": self.scan.stats(),
        }

    def __repr__(self) -> str:
        kind = "shared" if self.shared else "private"
        sizes = ", ".join(f"{name}={s['size']}" for name, s in self.stats().items())
        return f"CacheTiers({kind}, {sizes})"
