"""The shared-subplan result cache.

Stores fully-materialized annotated row lists keyed on
``(plan_fingerprint, catalog_version)``. The version component makes
invalidation *precise*: any catalog mutation — a committed source, a trust
adjustment, link-example feedback — moves the version forward, so stale
entries simply stop being addressable and age out of the LRU.

When the cache is promoted to a shared tier (the multi-tenant server),
callers additionally pass the catalog's ``cache_scope``, which is folded
into every key: sessions forked from the same frozen base share a scope
(so tenant A's evaluation is a hit for tenant B), while catalogs of
different lineage — or forks that have diverged — can never collide.

Entries are shared: a hit returns a shallow copy of the stored list (rows
and provenance expressions are immutable), so callers may extend/slice
their view without corrupting the cache.
"""

from __future__ import annotations

from typing import Hashable

from ..obs import METRICS
from ..provenance.expressions import Provenance
from ..substrate.relational.rows import Row
from .lru import LRUCache

AnnotatedRows = list[tuple[Row, Provenance]]

_MISSING = object()

#: LRU entries, kept modest: results are small at the paper's scale and
#: precise invalidation does the real work.
PLAN_CAPACITY = 512


class PlanResultCache:
    """LRU of evaluated subplan results, version-keyed (one per evaluator)."""

    def __init__(self, capacity: int = PLAN_CAPACITY):
        self._lru = LRUCache(capacity, metrics_prefix="cache.plan")

    def get(
        self, fingerprint: Hashable, version: Hashable, *, scope: Hashable = None
    ) -> AnnotatedRows | None:
        rows = self._lru.get((scope, fingerprint, version), _MISSING)
        if rows is _MISSING:
            return None
        return list(rows)

    def put(
        self, fingerprint: Hashable, version: Hashable, rows: AnnotatedRows, *, scope: Hashable = None
    ) -> None:
        self._lru.put((scope, fingerprint, version), list(rows))
        if METRICS.enabled:
            METRICS.gauge("cache.plan.size", float(len(self._lru)))

    # -- columnar entries ----------------------------------------------------
    # Batches live in the same LRU under a mode-tagged key: the columnar and
    # row representations of one subplan are distinct entries, so toggling
    # REPRO_COLUMNAR (the parity A/B benchmarks do, mid-process) can never
    # hand one mode a result materialized by the other.
    _BATCH_MODE = "columnar"

    def get_batch(self, fingerprint: Hashable, version: Hashable, *, scope: Hashable = None):
        """Cached :class:`ColumnBatch` for the key, or ``None``.

        Batches are immutable by contract (columns are never mutated in
        place), so the stored instance is returned as-is — no copy.
        """
        batch = self._lru.get((scope, fingerprint, version, self._BATCH_MODE), _MISSING)
        return None if batch is _MISSING else batch

    def put_batch(
        self, fingerprint: Hashable, version: Hashable, batch, *, scope: Hashable = None
    ) -> None:
        self._lru.put((scope, fingerprint, version, self._BATCH_MODE), batch)
        if METRICS.enabled:
            METRICS.gauge("cache.plan.size", float(len(self._lru)))

    def clear(self) -> None:
        self._lru.clear()

    @property
    def capacity(self) -> int:
        return self._lru.capacity

    def set_capacity(self, capacity: int) -> int:
        """Rebound the underlying LRU (brownout shrink); entries trimmed."""
        trimmed = self._lru.set_capacity(capacity)
        if METRICS.enabled:
            METRICS.gauge("cache.plan.size", float(len(self._lru)))
        return trimmed

    def stats(self) -> dict[str, int]:
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)
