"""Static plan-analyzer knobs (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide analysis knobs every layer consults.
ANALYSIS = KnobSet("analysis", (
    Knob("enabled", "REPRO_ANALYSIS", bool, True,
         "0 lets plans reach the evaluator unchecked, as before the static analyzer"),
    Knob("gate_cache", "REPRO_ANALYSIS_GATE_CACHE", bool, True,
         "refuse plan-cache admission to nodes whose fingerprint does not cover every field, "
         "since two distinct plans could alias"),
    Knob("max_link_pairs", "REPRO_ANALYSIS_MAX_LINK_PAIRS", int, 250_000,
         "estimated left×right pairs above which an unblocked record-link join draws a blowup warning"),
    Knob("max_union_parts", "REPRO_ANALYSIS_MAX_UNION_PARTS", int, 16,
         "union width above which the unbounded-Union warning fires"),
))
