"""Drift-layer knobs (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide drift knobs every layer consults.
DRIFT = KnobSet("drift", (
    Knob("enabled", "REPRO_DRIFT", bool, True,
         "0 turns off drift verification, healing and quarantine; extraction, commit and resync "
         "behave as before the drift layer"),
    Knob("type_divergence_threshold", "REPRO_DRIFT_TYPE_THRESHOLD", float, 0.5,
         "per-column token-pattern similarity to the induction-time type signature below which "
         "an extraction counts as drifted (Section 3.2's distribution matching)"),
    Knob("drift_penalty", "REPRO_DRIFT_PENALTY", float, 1.0,
         "extra source-graph edge cost per unit drift rate (drift events over resyncs)"),
))
