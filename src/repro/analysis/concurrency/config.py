"""Race-check knob (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ...knobs import Knob, KnobSet

#: The process-wide race-check knob, read directly on hot paths.
RACECHECK = KnobSet("racecheck", (
    Knob("enabled", "REPRO_RACECHECK", bool, False,
         "1 makes every `make_lock` lock a tracked wrapper and feeds the `note_access` probes to "
         "the lockset checker; latched per lock at creation, so set it for the whole process to "
         "track module-level locks too"),
))
