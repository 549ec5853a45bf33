"""Simulated users: the Section 8 hurricane task, step by step.

Every step goes through the public ``CopyCatSession`` API, the way
``examples/hurricane_relief.py`` drives it. Each user-visible operation is
timed into an :class:`OpLog` under a kind (``paste``, ``suggest``,
``link``...), and each user *request* -- one interaction the user waits on
-- is logged as a ``read`` (nothing changes) or a ``write`` (a recorded
action that changes the session). The checks at the bottom compare a
finished session with the scenario's ground truth; they run outside every
timed region.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro import Browser, SpreadsheetApp
from repro.substrate.documents import CellRange
from repro.substrate.relational.schema import PLACE

import refkernel
import tracer

SHELTER_LABELS = ("Name", "Street", "City")
CONTACT_LABELS = ("Shelter", "Contact", "Phone", "Address")


class Brackets:
    """Reference-kernel brackets around batches of requests.

    ``mark()`` runs the kernel (only while no request is in flight) and
    closes the current batch; a sample taken in batch *i* is scaled by the
    kernel time ``min(K[i], K[i + 1])`` measured right before and right
    after it.
    """

    def __init__(self, reps: int = 3):
        self.reps = reps
        self.k: list[float] = []
        self.threads: list[int] = []
        self.mark()

    def mark(self) -> None:
        self.k.append(refkernel.measure(self.reps))
        self.threads.append(threading.active_count())

    @property
    def batch(self) -> int:
        return len(self.k) - 1

    def k_of(self, batch: int) -> float:
        return min(self.k[batch], self.k[batch + 1])

    def ms(self, sample: tuple[float, int]) -> float:
        """Reference milliseconds of one ``(raw seconds, batch)`` sample."""
        raw, batch = sample
        return refkernel.to_reference(raw, self.k_of(batch)) * 1000.0


class OpLog:
    """One simulated user's samples: ``(raw seconds, batch)`` per operation
    kind and per request kind, plus work counts.

    With *mark_requests*, :meth:`request` marks a kernel bracket after every
    request (one client, nothing else in flight); the server workload turns
    it off and brackets each batch of concurrent requests itself.
    """

    def __init__(self, brackets: Brackets | None = None, mark_requests: bool = True, tag: str = ""):
        self.brackets = brackets
        self.mark_requests = mark_requests
        self.tag = tag
        self.ops: dict[str, list[tuple[float, int]]] = {}
        self.requests: dict[str, list[tuple[float, int]]] = {"read": [], "write": []}
        #: work done (fixed per run, whatever the seed)
        self.counts: dict[str, int] = {}
        #: what the work produced (depends on the seed's values)
        self.outcomes: dict[str, int] = {}

    def _batch(self) -> int:
        return self.brackets.batch if self.brackets is not None else -1

    @contextmanager
    def op(self, kind: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.setdefault(kind, []).append((time.perf_counter() - start, self._batch()))

    @contextmanager
    def request(self, kind: str):
        start = time.perf_counter()
        try:
            with tracer.root(self.tag):
                yield
        finally:
            self.add_request(kind, time.perf_counter() - start)
            if self.brackets is not None and self.mark_requests:
                self.brackets.mark()

    def add_request(self, kind: str, raw: float) -> None:
        self.requests[kind].append((raw, self._batch()))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note(self, name: str, n: int) -> None:
        self.outcomes[name] = self.outcomes.get(name, 0) + n

    def n_requests(self) -> int:
        return sum(len(samples) for samples in self.requests.values())


def listing_records(browser: Browser) -> list:
    """The record nodes of the shelter listing, whatever its style."""
    for tag in ("table", "ul", "div"):
        for listing in browser.page.dom.find_all(tag, "listing"):
            return [node for node in listing.children if "record" in node.css_classes]
    raise LookupError("no shelter listing on the page")


def import_shelters(session, scenario, log: OpLog) -> None:
    """Paste two listing rows, accept the generalisation, label, commit."""
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    for record in listing_records(browser)[:2]:
        browser.copy_record(record, "Shelters")
        with log.op("paste"):
            outcome = session.paste()
        log.count("pastes")
        log.note("rows_suggested", outcome.n_suggested_rows)
    log.note("rows_accepted", session.accept_row_suggestions())
    for index, label in enumerate(SHELTER_LABELS):
        session.label_column(index, label)
    session.commit_source()


def import_contacts(session, scenario, log: OpLog) -> None:
    """One 2-row paste generalises the whole contacts sheet."""
    app = SpreadsheetApp(session.clipboard, scenario.contacts_workbook)
    app.open_sheet()
    app.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")
    with log.op("paste"):
        outcome = session.paste()
    log.count("pastes")
    log.note("rows_suggested", outcome.n_suggested_rows)
    log.note("rows_accepted", session.accept_row_suggestions())
    for index, label in enumerate(CONTACT_LABELS):
        session.label_column(index, label)
    session.set_column_type(0, PLACE, learn_from_values=False)
    session.commit_source()


def suggest(session, log: OpLog, k: int = 10) -> list:
    with log.op("suggest"):
        suggestions = session.column_suggestions(k=k)
    log.count("suggests")
    log.note("suggestions_shown", len(suggestions))
    return suggestions


def find_suggestion(suggestions, source: str, attrs) -> int:
    return next(
        index
        for index, suggestion in enumerate(suggestions)
        if suggestion.source == source and set(attrs) <= set(suggestion.attribute_names)
    )


def accept(session, suggestions, source: str, attrs, log: OpLog) -> None:
    index = find_suggestion(suggestions, source, attrs)
    session.preview_column(index)
    session.accept_column(index)
    log.count("accepts")


def teach_link(session, scenario, shelter, log: OpLog) -> None:
    """The user pastes the matching contact next to a shelter."""
    contacts = [row.as_dict() for row in session.catalog.relation("Contacts")]
    right = next(row for row in contacts if row["Phone"] == shelter.phone)
    with log.op("link"):
        session.add_link_example({"Name": shelter.name}, right)
    log.count("links")


def demo_task(session, scenario, log: OpLog, n_links: int = 2) -> None:
    """The whole Section 8 task as one user's sequence of requests."""
    with log.request("write"):
        import_shelters(session, scenario, log)
    with log.request("write"):
        import_contacts(session, scenario, log)
        session.start_integration("Shelters")
    for source, attrs in (("ZipcodeResolver", ("Zip",)), ("Geocoder", ("Lat", "Lon"))):
        with log.request("read"):
            suggestions = suggest(session, log)
        with log.request("write"):
            accept(session, suggestions, source, attrs, log)
    with log.request("read"):
        suggest(session, log)  # instantiates the candidate record linkers
    for shelter in scenario.shelters[:n_links]:
        with log.request("write"):
            teach_link(session, scenario, shelter, log)
    with log.request("read"):
        suggestions = suggest(session, log)
    with log.request("write"):
        accept(session, suggestions, "Contacts", ("Contact", "Phone"), log)


# -- ground truth ------------------------------------------------------------
def check_session(session, scenario) -> tuple[dict[str, bool], tuple[int, int]]:
    """Named ground-truth checks plus (correctly linked rows, output rows)."""
    checks: dict[str, bool] = {}
    imported = [row.as_dict() for row in session.catalog.relation("Shelters")]
    checks["shelters_equal_truth"] = imported == scenario.truth_shelter_rows()
    table = session.workspace.tab(session.OUTPUT_TAB)
    truth = {row["Name"]: row for row in scenario.truth_rows()}
    names = [table.cell(i, table.column_index("Name")).value for i in range(table.n_rows)]
    checks["output_rows_cover_truth"] = sorted(names) == sorted(truth)

    def column(attr):
        index = table.column_index(attr)
        return [table.cell(i, index).value for i in range(table.n_rows)]

    for attr in ("Zip", "Lat", "Lon"):
        values = column(attr)
        checks[f"{attr.lower()}_matches_gazetteer"] = all(
            name in truth and value == truth[name][attr] for name, value in zip(names, values)
        )
    linked = sum(
        1
        for name, contact, phone in zip(names, column("Contact"), column("Phone"))
        if name in truth and (contact, phone) == (truth[name]["Contact"], truth[name]["Phone"])
    )
    return checks, (linked, table.n_rows)
