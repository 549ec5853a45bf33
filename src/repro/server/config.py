"""Session-server and overload-protection knobs (see :mod:`repro.knobs`)."""

from __future__ import annotations

from ..knobs import Knob, KnobSet

#: The process-wide server knobs the session manager consults.
SERVER = KnobSet("server", (
    Knob("enabled", "REPRO_SERVER", bool, True,
         "0 runs every request inline on the calling thread with private per-session cache tiers, "
         "reproducing pre-server behaviour exactly"),
    Knob("workers", "REPRO_SERVER_WORKERS", int, 8, "worker threads dispatching per-session requests"),
    Knob("max_sessions", "REPRO_SERVER_MAX_SESSIONS", int, 64,
         "live-session cap; creating one past it evicts the least-recently-used session first"),
    Knob("idle_ttl", "REPRO_SERVER_IDLE_TTL", float, 900.0,
         "seconds untouched after which `SessionManager.evict_idle` expires a session"),
))

#: The process-wide admission-control, fairness and brownout knobs.
OVERLOAD = KnobSet("overload", (
    Knob("enabled", "REPRO_OVERLOAD", bool, True,
         "0 turns off admission control, deadlines, fairness and brownout; dispatch then reproduces "
         "the unprotected server bit-for-bit"),
    Knob("queue_depth", "REPRO_SERVER_QUEUE_DEPTH", int, 128,
         "per-tenant dispatch-queue bound; a submit past it is shed with `Overloaded`"),
    Knob("max_inflight", "REPRO_OVERLOAD_MAX_INFLIGHT", int, 1024,
         "server-wide watermark on admitted-but-unfinished requests"),
    Knob("shed_soft", "REPRO_OVERLOAD_SHED_SOFT", float, 0.75,
         "fraction of the inflight watermark where the seeded early-shed ramp starts"),
    Knob("shed_seed", "REPRO_OVERLOAD_SHED_SEED", int, 20090104,
         "seed of the early-shed draws, so a storm replays shed-for-shed"),
    Knob("rate", "REPRO_OVERLOAD_RATE", float, 0.0,
         "per-tenant token-bucket refill in requests per second (0 means unlimited)"),
    Knob("burst", "REPRO_OVERLOAD_BURST", int, 32, "token-bucket burst capacity"),
    Knob("drr_quantum", "REPRO_OVERLOAD_QUANTUM", int, 8,
         "requests one tenant may run before its deficit-round-robin drain yields the worker "
         "(0 drains to empty)"),
    Knob("brownout_window", "REPRO_BROWNOUT_WINDOW", int, 32,
         "rolling request-latency window the load controller watches"),
    Knob("brownout_p95_ms", "REPRO_BROWNOUT_P95_MS", float, 250.0,
         "p95 latency over a full window that counts as pressure"),
    Knob("brownout_pressure", "REPRO_BROWNOUT_PRESSURE", float, 0.85,
         "inflight fraction that counts as pressure on its own"),
    Knob("brownout_exit", "REPRO_BROWNOUT_EXIT", float, 0.5,
         "inflight fraction below which recovery observations count"),
    Knob("brownout_hold", "REPRO_BROWNOUT_HOLD", int, 8,
         "consecutive hot (or cool) observations needed to enter (or leave) brownout, so one "
         "spike never flips the level"),
))
