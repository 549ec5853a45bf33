"""Resilience knobs: retries, deadlines, breakers, fault injection (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide resilience knobs every layer consults.
RESILIENCE = KnobSet("resilience", (
    Knob("enabled", "REPRO_RESILIENCE", bool, True,
         "0 turns off the resilient invocation path; service calls behave as before the layer"),
    Knob("retry_max", "REPRO_RETRY_MAX", int, 3, "attempts per service invocation, first try included"),
    Knob("retry_base_ms", "REPRO_RETRY_BASE_MS", float, 1.0, "backoff before the first retry"),
    Knob("deadline_ms", "REPRO_DEADLINE_MS", float, 2000.0,
         "budget of one invocation, all attempts and backoff included"),
    Knob("breaker_threshold", "REPRO_BREAKER_THRESHOLD", int, 8,
         "consecutive backend failures that open a service's circuit breaker"),
    Knob("breaker_cooldown_ms", "REPRO_BREAKER_COOLDOWN_MS", float, 50.0,
         "how long an open breaker rejects calls before it lets a probe through"),
    Knob("seed", "REPRO_FAULT_SEED", int, 20090104,
         "seed of fault schedules and backoff jitter, so chaos runs reproduce"),
    Knob("fault_rate", "REPRO_FAULT_RATE", float, 0.0,
         "transient-failure probability injected into every service backend (the chaos CI legs)"),
))
