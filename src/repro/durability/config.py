"""Durable-session knobs (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide durability knobs recorders and stores consult.
DURABILITY = KnobSet("durability", (
    Knob("enabled", "REPRO_DURABILITY", bool, True,
         "0 never attaches a recorder or touches a file, reproducing in-memory sessions bit-for-bit"),
    Knob("root", "REPRO_DURABILITY_ROOT", str, "",
         "directory of per-tenant checkpoint and write-ahead-log files; persistence is active only "
         "when this (or a `SessionManager` root) is set, so library users stay in memory"),
    Knob("fsync", "REPRO_DURABILITY_FSYNC", bool, False,
         "fsync the log after every record and checkpoint; off by default because tests and "
         "benchmarks check crash consistency with injected faults, not physical sync"),
))
