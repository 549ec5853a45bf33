"""The three workloads: worlds, fixed-work plans, and their units of work.

A run is a fixed list of *units* (one session, or one round of tenant
scripts). The workload seed picks the values inside each unit -- names,
addresses, phone numbers, row values -- but never the shapes: every seed
runs the same grid cells, the same number of sessions, pastes, suggestion
requests, link examples, reads and writes. The runner (``run.py``) brackets
every unit with the reference kernel, so no request is in flight while the
kernel runs.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import CopyCatSession, build_scenario
from repro.cache.tiers import CacheTiers
from repro.durability.replay import digest_hash, state_digest
from repro.server import SessionManager, SharedBase
from repro.server.config import OVERLOAD, SERVER
from repro.substrate.relational import (
    And,
    Attribute,
    Compare,
    Contains,
    Distinct,
    Join,
    NotNull,
    Project,
    Relation,
    Rename,
    Scan,
    Schema,
    Select,
    SourceMetadata,
    schema_of,
)
from repro.substrate.relational.schema import CITY, SemanticType
from repro.util.rng import seed_for

import tracer
import users
from users import OpLog

NPROC = os.cpu_count() or 1


def value_seed(seed: int, *labels: Any) -> int:
    """The values seed of one unit: a pure function of the run seed and labels."""
    return random.Random(":".join(str(part) for part in (seed, *labels))).randrange(2**31)


@dataclass
class UnitResult:
    """What one unit produced: samples, and what the checks need."""

    #: one log per simulated user (session or tenant script)
    logs: list[OpLog] = field(default_factory=list)
    #: (label, session, scenario) for every session the checks inspect
    sessions: list[tuple[str, Any, Any]] = field(default_factory=list)
    #: exceptions raised by operations (each one is a failed operation)
    errors: list[str] = field(default_factory=list)
    #: (raw seconds, batch) the program was busy serving requests
    busy: list[tuple[float, int]] = field(default_factory=list)
    #: private cache-tier bundles the unit's sessions used
    tiers: list = field(default_factory=list)


# ============================================================ demo_session
class DemoSession:
    """The Section 8 hurricane task, repeated over a grid of demo-size worlds."""

    name = "demo_session"
    #: (listing style, shelters, template noise): the fixed scenario grid
    GRID = [
        (style, n_shelters, noise)
        for n_shelters, noise in ((10, 0), (13, 1), (16, 2))
        for style in ("table", "ul", "div")
    ]
    #: passes over the grid: 5 x 9 sessions x 3 pastes = 135 paste samples
    PASSES = 5

    def plan(self, seed: int) -> list[tuple]:
        cells = [cell for _ in range(self.PASSES) for cell in self.GRID]
        return [(index, cell, value_seed(seed, index)) for index, cell in enumerate(cells)]

    def scenario(self, cell, values: int):
        style, n_shelters, noise = cell
        return build_scenario(seed=values, n_shelters=n_shelters, noise=noise, listing_style=style)

    def build(self, seed: int):
        """The world up to the first ready session (what ``setup_s`` times)."""
        _, cell, values = self.plan(seed)[0]
        scenario = self.scenario(cell, values)
        return CopyCatSession(catalog=scenario.catalog, seed=1, cache_tiers=CacheTiers())

    def warmup(self, seed: int) -> None:
        _, cell, values = self.plan(seed)[0]
        scenario = self.scenario(cell, value_seed(seed, "warmup"))
        self.task(CopyCatSession(catalog=scenario.catalog, seed=1), scenario, OpLog())

    def run_unit(self, unit, brackets: users.Brackets) -> UnitResult:
        """One session: one client, a kernel bracket after every request."""
        index, cell, values = unit
        result = UnitResult()
        scenario = self.scenario(cell, values)
        tiers = CacheTiers()
        session = CopyCatSession(catalog=scenario.catalog, seed=1, cache_tiers=tiers)
        label = f"{self.name}/{index}/{'-'.join(map(str, cell))}"
        log = OpLog(brackets, tag=label)
        brackets.mark()  # the world build above is not part of the session
        try:
            self.task(session, scenario, log)
        except Exception as exc:  # a failed operation, counted in ok_rate
            result.errors.append(f"{label}: {exc!r}")
        log.count("sessions")
        result.logs.append(log)
        result.busy.extend(sample for samples in log.requests.values() for sample in samples)
        result.sessions.append((label, session, scenario))
        result.tiers.append(tiers)
        return result

    def twin(self, unit, seed: int):
        """A unit of the same shape with other values (trace-overhead probe)."""
        index, cell, _ = unit
        return (index + 100_000, cell, value_seed(seed, "twin", index))

    def task(self, session, scenario, log: OpLog) -> None:
        users.demo_task(session, scenario, log)

    def close(self) -> None:
        pass


# ======================================================= integration_scale
N_LOCAL_SOURCES = 40
#: types of their own, so zone keys and notes never feed a service input
ZONE_KEY = SemanticType("PR-ZoneKey")
ZONE_NOTE = SemanticType("PR-ZoneNote")


def add_local_sources(catalog, scenario, values: int) -> None:
    """Forty local-repository sources that share attribute names.

    Source *i* carries keys ``Key{i}`` and ``Key{i + 1}`` (so the sources
    join each other into a ring of 40 nodes in the ~50-node source graph)
    and every tenth source also carries ``City``, joining the ring to the
    pasted shelters.
    Schemas are fixed by the source index (the shape); only row values come
    from *values*, so every seed builds the same source graph.
    """
    rng = random.Random(values)
    cities = scenario.gazetteer.cities
    for index in range(N_LOCAL_SOURCES):
        keys = [f"Key{index}", f"Key{(index + 1) % N_LOCAL_SOURCES}"]
        attrs = [Attribute(key, ZONE_KEY) for key in keys]
        if index % 10 == 0:
            attrs.append(Attribute("City", CITY))
        attrs.append(Attribute(f"Info{index:02d}", ZONE_NOTE))
        relation = Relation(f"Zone{index:02d}", Schema(attrs))
        for row in range(6):
            cells = [f"k{rng.randint(0, 5)}" for _ in keys]
            if index % 10 == 0:
                cells.append(cities[(row + index) % len(cities)])
            relation.add(cells + [f"note-{index}-{rng.randint(0, 999)}"])
        catalog.add_relation(relation, SourceMetadata(origin="import"))


class IntegrationScale(DemoSession):
    """The demo task over ~50 sources, with many suggest -> accept/reject rounds."""

    name = "integration_scale"
    GRID = [(style, 8, noise) for noise in (0, 1) for style in ("table", "ul", "div")]
    #: 8 passes x 6 sessions: 144 paste and 384 suggestion samples (the
    #: suggestion p90 sits in the two heaviest rounds, so it needs many)
    PASSES = 8
    #: one entry per suggestion round: what the user does with the batch
    ROUNDS = (
        "reject",
        ("ZipcodeResolver", ("Zip",)),
        "reject",
        ("Geocoder", ("Lat", "Lon")),
        "reject",
        "link",
        ("Contacts", ("Contact", "Phone")),
        "reject",
    )
    #: the zone each round's cross-source paste names: all four ring hops
    #: from the nearest City-carrying zone, so every round's Steiner search
    #: has the same shape
    ROUND_ZONES = (4, 16, 24, 36, 6, 14, 26, 34)

    def scenario(self, cell, values: int):
        scenario = super().scenario(cell, values)
        add_local_sources(scenario.catalog, scenario, values)
        return scenario

    def task(self, session, scenario, log: OpLog) -> None:
        with log.request("write"):
            users.import_shelters(session, scenario, log)
        with log.request("write"):
            users.import_contacts(session, scenario, log)
            session.start_integration("Shelters")
        shelters = session.catalog.relation("Shelters")
        names = [row.as_dict()["Name"] for row in shelters][:2]
        for round_index, action in enumerate(self.ROUNDS):
            # A cross-source paste (shelter names beside a local source's
            # values) asks for query explanations -- Steiner/SPCSH over the
            # source graph -- and the column completions refresh with it.
            local = session.catalog.relation(f"Zone{self.ROUND_ZONES[round_index]:02d}")
            info = [row.as_dict()[local.schema.names[-1]] for row in local][:2]
            with log.request("read"), log.op("suggest"):
                explained = session.explain_pasted_tuples(
                    {"Name": names, local.schema.names[-1]: info}, k=3
                )
                suggestions = session.column_suggestions(k=10)
            log.count("suggests")
            log.count("trees_requested", 3)
            log.note("trees_found", len(explained))
            log.note("suggestions_shown", len(suggestions))
            if action == "reject":
                with log.request("write"):
                    session.reject_column(_first_local(suggestions))
                log.count("rejects")
            elif action == "link":
                for shelter in scenario.shelters[:2]:
                    with log.request("write"):
                        users.teach_link(session, scenario, shelter, log)
            else:
                with log.request("write"):
                    users.accept(session, suggestions, *action, log)


#: the sources the user is after; never the one turned down
WANTED = ("ZipcodeResolver", "Geocoder", "Contacts")


def _first_local(suggestions) -> int:
    """The suggestion the user turns down: the best-ranked zone, else the
    worst-ranked suggestion the user is not after."""
    for index, suggestion in enumerate(suggestions):
        if suggestion.source.startswith("Zone"):
            return index
    unwanted = [i for i, suggestion in enumerate(suggestions) if suggestion.source not in WANTED]
    return unwanted[-1]


# ========================================================== tenant_server
N_FACILITIES = 8000
BASE_WORLD_SEED = 11
BROWNOUT_OUT_OF_REACH_MS = 3_600_000.0
N_TOWNS = 40


def add_facilities(catalog, values: int) -> None:
    """The 8k-row shared relations the read requests evaluate plans over.

    Attribute names share nothing with the shelter task's sources, so these
    relations add no edges to a tenant's source graph.
    """
    rng = random.Random(values)
    towns = [f"Town{i:02d}" for i in range(N_TOWNS)]
    roads = [f"{n} {w} Rd" for n in range(30) for w in ("Main", "Oak", "Creek")]
    facilities = Relation("Facilities", schema_of("Place", "Town", "Road", "Beds", "Tel", "Status"))
    facilities.extend(
        [
            f"Facility {i}",
            rng.choice(towns),
            rng.choice(roads),
            rng.randint(5, 80),
            f"555-{rng.randint(1000, 9999)}",
            rng.choice(["open", "full", "standby"]),
        ]
        for i in range(N_FACILITIES)
    )
    post = Relation("TownPost", schema_of("Town", "PostCode"))
    post.extend([town, f"{33000 + i}"] for i, town in enumerate(towns))
    catalog.add_relation(facilities)
    catalog.add_relation(post)


def plan_variants() -> list:
    """Twelve integration-shaped plans over the shared 8k-row relations."""
    plans = []
    for beds in (55, 60, 65, 70):
        for road, status in (("Main", "full"), ("Oak", "standby"), ("Creek", "open")):
            base = Select(Scan("Facilities"), Compare("Beds", ">", beds))
            base = Select(base, And((NotNull("Tel"), Compare("Status", "!=", status))))
            base = Select(base, Contains("Road", road))
            base = Rename(Project(base, ("Place", "Town", "Road", "Beds")), (("Place", "Site"),))
            plans.append(Distinct(Project(Join(base, Scan("TownPost"), (("Town", "Town"),)), ("Town", "PostCode"))))
    return plans


def tenant_script(scenario, plans, offset: int, values: int) -> list[tuple[str, Callable]]:
    """One tenant's requests in order: ``(read|write, fn(session, log))``.

    *values* picks which shelters the tenant teaches as link examples.
    """
    rotated = plans[offset % len(plans):] + plans[: offset % len(plans)]
    state: dict[str, Any] = {}

    def evaluate(plan):
        def read(session, log):
            with log.op("plan"):
                result = session.engine.run(plan)
            return (tuple(result.schema.names), [(row.values, str(prov)) for row, prov in result.rows])
        return ("read", read)

    def import_shelters(session, log):
        users.import_shelters(session, scenario, log)

    def import_contacts(session, log):
        users.import_contacts(session, scenario, log)
        session.start_integration("Shelters")

    def suggest(session, log):
        state["suggestions"] = users.suggest(session, log)
        return [(s.source, s.attribute_names) for s in state["suggestions"]]

    def accept(source, attrs):
        def write(session, log):
            users.accept(session, state["suggestions"], source, attrs, log)
        return ("write", write)

    def link(shelter):
        return ("write", lambda session, log: users.teach_link(session, scenario, shelter, log))

    def demote(session, log):
        log.count("demotes")
        return session.demote_row(0, distrust_base_rows=True)

    # The plan batch comes first, while the tenant's fork still shares the
    # base's cache scope (the fleet's tiers serve it); the first paste
    # diverges the fork onto a private scope for everything after it.
    script = [evaluate(plan) for plan in rotated[:8]]
    script += [("write", import_shelters), ("write", import_contacts)]
    script += [("read", suggest), accept("ZipcodeResolver", ("Zip",))]
    script += [("read", suggest), accept("Geocoder", ("Lat", "Lon"))]
    taught = random.Random(values).sample(scenario.shelters, 3)
    script += [("read", suggest)] + [link(shelter) for shelter in taught]
    script += [("read", suggest), accept("Contacts", ("Contact", "Phone"))]
    script += [("write", demote), evaluate(Distinct(Project(Scan("TownPost"), ("Town", "PostCode"))))]
    return script


class TenantServer:
    """Tenant scripts through a ``SessionManager`` over a frozen shared base."""

    name = "tenant_server"
    #: 40 tenants x 3 pastes = 120 paste samples
    TENANTS = 40
    #: tenants whose digest is checked against an isolated single-threaded run
    ISOLATION_SAMPLE = (0, 1, 39)

    def __init__(self, root: str):
        self.root = root
        self.manager: SessionManager | None = None
        self.scenario = None
        self.plans = plan_variants()
        self.clients = max(1, min(2, NPROC))
        self.backlog_max = 0

    def plan(self, seed: int) -> list[list[int]]:
        """Rounds of one tenant per client; with one client, 40 rounds of one."""
        self.seed = seed
        return [list(range(r, r + self.clients)) for r in range(0, self.TENANTS, self.clients)]

    def build(self, seed: int):
        """Base catalog, frozen shared base, manager, first ready tenant."""
        self.seed = seed
        # The shared world is part of the workload's shape (which sources
        # the tenants' source graphs hold, hence how many suggestions each
        # request executes); the seed picks the traffic over it: facility
        # rows, tenant RNG streams, which shelters each tenant teaches.
        scenario = build_scenario(seed=BASE_WORLD_SEED, n_shelters=8, noise=0)
        add_facilities(scenario.catalog, value_seed(seed, "facilities"))
        self.scenario = scenario
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        # As many workers as client threads (never more than nproc). The
        # brownout controller watches raw request latency, which moves with
        # host speed; it is set out of reach so every run serves every
        # request at the normal service level (a check asserts it).
        self._knobs = ExitStack()
        self._knobs.enter_context(SERVER.overridden(workers=self.clients))
        self._knobs.enter_context(OVERLOAD.overridden(brownout_p95_ms=BROWNOUT_OUT_OF_REACH_MS))
        self.manager = SessionManager(SharedBase(scenario.catalog), seed=seed, durability_root=self.root)
        return self.manager.session("tenant-ready")

    def warmup(self, seed: int) -> None:
        self.build(seed)
        self._run_tenant("warmup", 0, OpLog())

    def tenant_id(self, index: int) -> str:
        return f"tenant-{index}"

    def _request(self, tenant: str, kind: str, fn, log: OpLog):
        """Submit one request and wait for it: a closed-loop client step."""
        manager = self.manager
        stamps: dict[str, float] = {}

        def body(session):
            stamps["start"] = time.perf_counter()
            try:
                with tracer.root(tenant):
                    return fn(session, log)
            finally:
                stamps["end"] = time.perf_counter()

        submitted = time.perf_counter()
        try:
            future = manager.submit(tenant, body)
            self.backlog_max = max(self.backlog_max, manager.inflight)
            return future.result()
        finally:
            # A failed request is still an attempted one (as in ``OpLog.request``).
            log.add_request(kind, time.perf_counter() - submitted)
            if "end" in stamps:
                log.ops.setdefault("queue_wait", []).append((stamps["start"] - submitted, log._batch()))
                log.ops.setdefault("service", []).append((stamps["end"] - stamps["start"], log._batch()))

    def _run_tenant(self, tenant: str, offset: int, log: OpLog) -> list:
        """A whole script, request by request (warm-up and isolation use)."""
        return [
            self._request(tenant, kind, fn, log)
            for kind, fn in tenant_script(self.scenario, self.plans, offset, value_seed(self.seed, tenant))
        ]

    def run_unit(self, unit: list[int], brackets: users.Brackets) -> UnitResult:
        """One round: a closed-loop client per tenant, in lockstep.

        Every client submits its next request and waits for the result;
        when all of them are back, the kernel runs (nothing in flight) and
        the next batch starts.
        """
        result = UnitResult()
        tenants = [self.tenant_id(index) for index in unit]
        logs = [OpLog(brackets, mark_requests=False, tag=tenant) for tenant in tenants]
        scripts = [
            tenant_script(self.scenario, self.plans, index, value_seed(self.seed, tenant))
            for index, tenant in zip(unit, tenants)
        ]
        steps = len(scripts[0])
        go = threading.Barrier(len(unit) + 1)
        done = threading.Barrier(len(unit) + 1)
        errors: list[str] = []

        def client(slot: int) -> None:
            # A failed request does not end the script: every later request
            # is still sent, and each one that fails counts in ok_rate.
            for kind, fn in scripts[slot]:
                go.wait()
                try:
                    self._request(tenants[slot], kind, fn, logs[slot])
                except Exception as exc:
                    errors.append(f"{tenants[slot]}: {exc!r}")
                done.wait()

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(len(unit))]
        for thread in threads:
            thread.start()
        brackets.mark()
        for _ in range(steps):
            start = time.perf_counter()
            go.wait()
            done.wait()
            result.busy.append((time.perf_counter() - start, brackets.batch))
            brackets.mark()
        for thread in threads:
            thread.join()
        for slot, tenant in enumerate(tenants):
            logs[slot].count("sessions")
            result.logs.append(logs[slot])
            result.sessions.append((f"{self.name}/{tenant}", self.manager.session(tenant), self.scenario))
            if unit[slot] in self.ISOLATION_SAMPLE:
                logs[slot].count("isolation_checked")
        result.errors.extend(errors)
        return result

    def twin(self, unit, seed: int):
        """The same tenants: a twin runs on a manager of its own."""
        return list(unit)

    def isolated_digest(self, index: int) -> str:
        """The tenant's script run alone, single-threaded, on a plain session."""
        tenant = self.tenant_id(index)
        session = CopyCatSession(
            catalog=self.manager.base.fork_catalog(), seed=seed_for(self.manager.seed, tenant)
        )
        for _, fn in tenant_script(self.scenario, self.plans, index, value_seed(self.seed, tenant)):
            fn(session, OpLog())
        return digest_hash(state_digest(session))

    def cache_stats(self) -> dict:
        return self.manager.base.tiers.stats()

    def server_stats(self) -> dict:
        return self.manager.stats()

    def close(self) -> None:
        if self.manager is not None:
            self.manager.shutdown()
            self.manager = None
            self._knobs.close()
        shutil.rmtree(self.root, ignore_errors=True)


def make(name: str, root: str):
    if name == DemoSession.name:
        return DemoSession()
    if name == IntegrationScale.name:
        return IntegrationScale()
    if name == TenantServer.name:
        return TenantServer(root)
    raise KeyError(name)


NAMES = (DemoSession.name, IntegrationScale.name, TenantServer.name)
