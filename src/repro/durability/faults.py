"""Deterministic write-fault injection for the durability layer.

The PR-3 chaos pattern (:mod:`repro.resilience.faults`) applied to
storage: a :class:`WalFaultPolicy` decides — purely as a hash of
``(seed, tenant, log-operation index)`` — whether a given log append is
torn mid-frame, silently corrupted, or fails its sync. Hash-derived
decisions mean the fate of tenant A's append #17 is identical no matter
what other tenants write in between, which is what makes the
crash-recovery sweep in CI reproducible.

Arm a policy process-globally through :data:`WAL_FAULTS`
(``WAL_FAULTS.injected(policy)``), or pass one straight to a
:class:`~repro.durability.wal.WalWriter`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

#: Fault kinds a draw can land on, in cumulative-probability order.
KINDS = ("torn", "corrupt", "fsync")


@dataclass(frozen=True)
class WalFaultSpec:
    """Per-append fault probabilities (each in [0, 1], summing <= 1).

    - ``torn_rate``: the append writes only a frame prefix and raises
      (the simulated crash mid-write);
    - ``corrupt_rate``: the frame lands with a flipped payload byte and
      the writer continues (silent bit rot);
    - ``fsync_fail_rate``: the sync step fails; the record is buffered,
      not guaranteed durable.
    """

    torn_rate: float = 0.0
    corrupt_rate: float = 0.0
    fsync_fail_rate: float = 0.0

    @staticmethod
    def ambient(rate: float) -> "WalFaultSpec":
        """Split one ambient rate across the three kinds (chaos runs)."""
        return WalFaultSpec(
            torn_rate=rate / 3.0, corrupt_rate=rate / 3.0, fsync_fail_rate=rate / 3.0
        )


class WalFaultPolicy:
    """A seeded map from ``(tenant, op index)`` to a fault kind or None."""

    def __init__(self, seed: int = 0, spec: WalFaultSpec | None = None):
        self.seed = seed
        self.spec = spec or WalFaultSpec()

    def _draw(self, tenant: str, op_index: int) -> float:
        """Deterministic uniform draw in [0, 1) for one log operation."""
        token = f"wal:{self.seed}:{tenant}:{op_index}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def draw(self, tenant: str, op_index: int) -> str | None:
        """The fault kind hitting this operation, or ``None``."""
        spec = self.spec
        u = self._draw(tenant, op_index)
        cumulative = 0.0
        for kind, rate in zip(
            KINDS, (spec.torn_rate, spec.corrupt_rate, spec.fsync_fail_rate)
        ):
            cumulative += rate
            if u < cumulative:
                return kind
        return None


class WalFaultInjector:
    """Holds the process-global policy :class:`WalWriter` appends consult."""

    def __init__(self) -> None:
        self._policy: WalFaultPolicy | None = None

    @property
    def policy(self) -> WalFaultPolicy | None:
        return self._policy

    @contextmanager
    def injected(self, policy: WalFaultPolicy):
        """Arm *policy* for the duration of the block (tests/benchmarks)."""
        previous = self._policy
        self._policy = policy
        try:
            yield policy
        finally:
            self._policy = previous


#: The process-global write-fault injector.
WAL_FAULTS = WalFaultInjector()
