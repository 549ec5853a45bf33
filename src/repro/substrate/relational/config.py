"""Columnar-evaluation knobs (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ...knobs import Knob, KnobSet

#: The process-wide columnar knobs the evaluator consults.
COLUMNAR = KnobSet("columnar", (
    Knob("enabled", "REPRO_COLUMNAR", bool, True,
         "0 sends every plan down the row-at-a-time path, bit-for-bit the evaluator before "
         "columnar batches; the CI `columnar-parity` job runs tier-1 this way"),
))
