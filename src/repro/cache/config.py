"""Cache-layer knobs: one switch per cache layer (see :mod:`repro.knobs`).

Every layer can be turned off on its own, so correctness A/B tests and
the CI cached-vs-uncached gate toggle layers without monkeypatching.
"""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide cache knobs every layer consults.
CACHE = KnobSet(
    "cache",
    (
        Knob("plan", "REPRO_CACHE_PLAN", bool, True, "shared-subplan result cache in the evaluator"),
        Knob("service", "REPRO_CACHE_SERVICE", bool, True, "`Service.invoke` memoization"),
        Knob("blocking", "REPRO_CACHE_BLOCKING", bool, True,
             "blocking-aware candidate generation for record-link joins"),
        Knob("suggestions", "REPRO_CACHE_SUGGESTIONS", bool, True,
             "session-level dirty-flag reuse of suggestion batches"),
        Knob("blocking_min_pairs", "REPRO_CACHE_BLOCKING_MIN_PAIRS", int, 4096,
             "below this many left×right pairs a record-link join keeps the full cross even with "
             "blocking on: blocking is an approximation, kept for inputs where the quadratic scan hurts"),
    ),
    switches=("plan", "service", "blocking", "suggestions"),
    master=Knob("all", "REPRO_CACHE", bool, True, "0 turns every cache layer below off"),
)
