"""Deterministic fault injection for simulated services.

Production CopyCat composes external services (geocoders, resolvers, record
linkers) that flake, stall, and die; the reproduction's backends never do.
This harness makes every failure mode *reproducible*: a :class:`FaultPolicy`
decides, purely as a function of ``(seed, service name, backend-call
index)``, whether a given backend call fails, how (transient vs persistent),
and how much latency it pays first. The decision is hash-derived rather than
drawn from a shared stream, so the outcome of call #17 against the Geocoder
is identical no matter how calls to other services interleave — the property
that makes chaos benchmarks and regression tests stable.

Two ways to arm a policy:

- process-global, via :data:`FAULTS` (``FAULTS.injected(policy)`` context
  manager, or the ``REPRO_FAULT_RATE`` / ``REPRO_FAULT_SEED``
  environment knobs read at import) — every
  :class:`~repro.substrate.services.base.Service` consults it before each
  backend lookup;
- per-instance, via :meth:`FaultPolicy.wrap` (or
  ``ServiceRegistry.inject_faults``), which wraps one service's ``_lookup``
  so harness code can target a single backend without global state.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from ..errors import ServiceLookupFailed, TransientServiceError
from .config import RESILIENCE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from ..substrate.services.base import Service


@dataclass(frozen=True)
class FaultSpec:
    """Failure behavior for one service (or the policy default).

    - ``transient_rate``: probability in [0, 1] that a backend call raises a
      retryable :class:`TransientServiceError`;
    - ``persistent``: every call raises a non-retryable
      :class:`ServiceLookupFailed` (a dead backend);
    - ``latency_ms``: injected latency paid (slept) before every call;
    - ``flapping``: half-open ``[start, end)`` windows of backend-call
      indices during which every call fails transiently — models a backend
      that goes down for a stretch and recovers, the schedule circuit
      breakers exist for.
    """

    transient_rate: float = 0.0
    persistent: bool = False
    latency_ms: float = 0.0
    flapping: tuple[tuple[int, int], ...] = ()

    def is_flapping(self, call_index: int) -> bool:
        return any(start <= call_index < end for start, end in self.flapping)


class FaultPolicy:
    """A seeded, per-service map of :class:`FaultSpec` behaviors."""

    def __init__(
        self,
        seed: int | None = None,
        default: FaultSpec | None = None,
        per_service: Mapping[str, FaultSpec] | None = None,
    ):
        self.seed = RESILIENCE.seed if seed is None else seed
        self.default = default or FaultSpec()
        self.per_service = dict(per_service or {})

    def spec_for(self, service_name: str) -> FaultSpec:
        return self.per_service.get(service_name, self.default)

    def _draw(self, service_name: str, call_index: int) -> float:
        """Deterministic uniform draw in [0, 1) for one backend call."""
        token = f"{self.seed}:{service_name}:{call_index}".encode("utf-8")
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def check(
        self, service_name: str, call_index: int, sleep: Callable[[float], None] = time.sleep
    ) -> None:
        """Apply the policy to one backend call: sleep latency, maybe raise."""
        spec = self.spec_for(service_name)
        if spec.latency_ms > 0.0:
            sleep(spec.latency_ms / 1000.0)
        if spec.persistent:
            raise ServiceLookupFailed(
                f"service {service_name!r} backend is down (injected persistent fault)",
                service=service_name,
            )
        if spec.is_flapping(call_index):
            raise TransientServiceError(
                f"service {service_name!r} is flapping (injected fault, call #{call_index})",
                service=service_name,
            )
        if spec.transient_rate > 0.0 and self._draw(service_name, call_index) < spec.transient_rate:
            raise TransientServiceError(
                f"service {service_name!r} transient backend fault (injected, call #{call_index})",
                service=service_name,
            )

    # -- per-instance wrapping -------------------------------------------------
    def wrap(self, service: "Service") -> "Service":
        """Wrap one service's ``_lookup`` with this policy; returns *service*.

        The wrapper keeps its own call counter (independent of the global
        injector) and survives on the instance until :meth:`unwrap`.
        """
        if getattr(service, "_fault_wrapped", None) is not None:
            self.unwrap(service)
        inner = service._lookup
        counter = {"calls": 0}

        def faulty_lookup(inputs):
            index = counter["calls"]
            counter["calls"] += 1
            self.check(service.name, index)
            return inner(inputs)

        service._fault_wrapped = inner
        service._lookup = faulty_lookup  # type: ignore[method-assign]
        return service

    @staticmethod
    def unwrap(service: "Service") -> "Service":
        """Restore a service wrapped by :meth:`wrap`."""
        inner = getattr(service, "_fault_wrapped", None)
        if inner is not None:
            service._lookup = inner  # type: ignore[method-assign]
            service._fault_wrapped = None
        return service

    def __repr__(self) -> str:
        overrides = ", ".join(sorted(self.per_service)) or "-"
        return (
            f"FaultPolicy(seed={self.seed}, default_rate={self.default.transient_rate:g}, "
            f"overrides=[{overrides}])"
        )


@dataclass
class FaultInjector:
    """Process-global fault switchboard every service consults.

    ``active`` is ``None`` almost always; the check services pay on the
    healthy path is a single attribute load. Per-service backend-call
    indices live here so global injection is deterministic regardless of
    how many policies are swapped in and out.
    """

    active: FaultPolicy | None = None
    _counters: dict[str, int] = field(default_factory=dict)

    def install(self, policy: FaultPolicy) -> FaultPolicy:
        self.active = policy
        self._counters.clear()
        return policy

    def clear(self) -> None:
        self.active = None
        self._counters.clear()

    @contextmanager
    def injected(self, policy: FaultPolicy):
        """Run a block with *policy* armed; restores the previous policy."""
        previous, previous_counts = self.active, dict(self._counters)
        self.install(policy)
        try:
            yield policy
        finally:
            self.active = previous
            self._counters = previous_counts

    def before_call(self, service: "Service", sleep: Callable[[float], None] = time.sleep) -> None:
        """Hook invoked by ``Service`` before every backend lookup."""
        policy = self.active
        if policy is None:
            return
        index = self._counters.get(service.name, 0)
        self._counters[service.name] = index + 1
        policy.check(service.name, index, sleep=sleep)


def _policy_from_env() -> FaultPolicy | None:
    """Build the env-armed global policy (``REPRO_FAULT_RATE`` > 0).

    The environment variables themselves are read once in
    :mod:`repro.resilience.config` (REPRO001); this only consults the
    resulting knobs.
    """
    if RESILIENCE.fault_rate <= 0.0:
        return None
    return FaultPolicy(default=FaultSpec(transient_rate=RESILIENCE.fault_rate))


#: The process-wide injector; armed from the environment when requested.
FAULTS = FaultInjector()
_env_policy = _policy_from_env()
if _env_policy is not None:  # pragma: no cover - exercised by the chaos CI job
    FAULTS.install(_env_policy)
