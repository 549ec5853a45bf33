"""Evaluator edge cases: None keys, empty inputs, Union padding, laziness.

Companion to test_evaluator.py, focused on the boundaries the caching
layer must not disturb: joins skip None keys, empty relations flow through
every node, Union pads onto the merged schema, and Limit still
short-circuits (streaming nodes are deliberately uncached).
"""

from __future__ import annotations

import pytest

from repro.cache import CACHE
from repro.substrate.relational import (
    Catalog,
    DependentJoin,
    Distinct,
    Evaluator,
    Join,
    Limit,
    Project,
    RecordLinkJoin,
    Relation,
    RowLinker,
    Scan,
    Select,
    Union,
    schema_of,
)
from repro.substrate.relational.predicates import Predicate
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import FunctionService


class NameEquals(RowLinker):
    """Score 1.0 when Name fields are equal and non-None, else 0.0."""

    def score(self, left, right):
        value = left["Name"]
        if value is None or right["RName"] is None:
            return 0.0
        return 1.0 if value == right["RName"] else 0.0


class CountingPredicate(Predicate):
    """Always-true predicate that counts how many rows it examined."""

    def __init__(self):
        self.calls = 0

    def matches(self, row):
        self.calls += 1
        return True

    def __str__(self):
        return "CountingPredicate"


@pytest.fixture()
def catalog():
    cat = Catalog()
    left = Relation("L", schema_of("Name", "City"))
    left.extend(
        [["Monarch", "Creek"], [None, "Park"], ["Norcrest", None], ["Tedder", "Park"]]
    )
    cat.add_relation(left)
    right = Relation("R", schema_of("RName", "Phone"))
    right.extend([["Monarch", "555-1"], [None, "555-2"], ["Tedder", "555-3"]])
    cat.add_relation(right)
    cat.add_relation(Relation("EmptyL", schema_of("Name", "City")))
    cat.add_relation(Relation("EmptyR", schema_of("City", "Damage")))
    damage = Relation("D", schema_of("City", "Damage"))
    damage.extend([["Creek", "minor"], [None, "unknown"], ["Park", "severe"]])
    cat.add_relation(damage)
    calls = []

    def record_calls(city):
        calls.append(city)
        return {"Zip": "33063"} if city == "Creek" else None

    zips = FunctionService(
        "Z",
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        lambda City: record_calls(City),
    )
    zips.recorded = calls
    cat.add_service(zips)
    return cat


def run(catalog, plan):
    return Evaluator(catalog).run(plan)


class TestNoneKeys:
    def test_join_skips_none_keys_on_both_sides(self, catalog):
        result = run(catalog, Join(Scan("L"), Scan("D"), (("City", "City"),)))
        # L's None-city row (Norcrest) and D's None-city row never pair with
        # anything — None is "unknown", not a joinable value.
        cities = [row["City"] for row in result.plain_rows()]
        assert None not in cities
        assert sorted(cities) == ["Creek", "Park", "Park"]
        assert "Norcrest" not in {row["Name"] for row in result.plain_rows()}
        assert "unknown" not in {row["Damage"] for row in result.plain_rows()}

    def test_dependent_join_skips_none_bindings(self, catalog):
        result = run(catalog, DependentJoin(Scan("L"), "Z", (("City", "City"),)))
        # Norcrest's None city must not reach the service at all.
        assert None not in catalog.service("Z").recorded
        assert [row["Name"] for row in result.plain_rows()] == ["Monarch"]

    def test_record_link_join_with_none_fields(self, catalog):
        plan = RecordLinkJoin(Scan("L"), Scan("R"), NameEquals(), threshold=0.5)
        result = run(catalog, plan)
        # None names on either side score 0.0 and drop below threshold.
        matched = {(row["Name"], row["RName"]) for row in result.plain_rows()}
        assert matched == {("Monarch", "Monarch"), ("Tedder", "Tedder")}


class TestEmptyRelations:
    @pytest.mark.parametrize("cache_on", [True, False])
    def test_joins_over_empty_inputs(self, catalog, cache_on):
        plans = [
            Join(Scan("EmptyL"), Scan("D"), (("City", "City"),)),
            Join(Scan("L"), Scan("EmptyR"), (("City", "City"),)),
            RecordLinkJoin(Scan("EmptyL"), Scan("R"), NameEquals()),
            RecordLinkJoin(Scan("L"), Scan("EmptyL"), NameEquals()),
            DependentJoin(Scan("EmptyL"), "Z", (("City", "City"),)),
            Distinct(Scan("EmptyL")),
            Limit(Scan("EmptyL"), 5),
        ]
        if cache_on:
            for plan in plans:
                assert len(run(catalog, plan)) == 0
        else:
            with CACHE.disabled():
                for plan in plans:
                    assert len(run(catalog, plan)) == 0

    def test_union_with_empty_part_keeps_other_rows(self, catalog):
        result = run(catalog, Union((Scan("EmptyL"), Scan("L"))))
        assert len(result) == 4

    def test_empty_dependent_join_never_calls_service(self, catalog):
        run(catalog, DependentJoin(Scan("EmptyL"), "Z", (("City", "City"),)))
        assert catalog.service("Z").call_count == 0


class TestUnionPadding:
    def test_rows_padded_onto_merged_schema(self, catalog):
        result = run(catalog, Union((Scan("L"), Scan("D"))))
        # Merged schema: L's attributes first, D's novel ones appended.
        assert result.schema.names == ("Name", "City", "Damage")
        assert len(result) == 7
        from_l = [row for row in result.plain_rows() if row["Name"] is not None]
        assert all(row["Damage"] is None for row in from_l)
        from_d = [row for row in result.plain_rows() if row["Damage"] is not None]
        assert all(row["Name"] is None for row in from_d)

    def test_padding_preserves_provenance_per_part(self, catalog):
        result = run(catalog, Union((Scan("L"), Scan("D"))))
        sources = [str(prov).split("#")[0] for _, prov in result.rows]
        assert sources == ["L"] * 4 + ["D"] * 3


class TestLimitShortCircuit:
    def test_limit_does_not_materialize_child(self, catalog):
        # Select streams and is deliberately uncached, so Limit's break must
        # propagate: only the first row is ever examined.
        predicate = CountingPredicate()
        result = run(catalog, Limit(Select(Scan("L"), predicate), 1))
        assert len(result) == 1
        assert predicate.calls == 1

    def test_limit_zero_examines_nothing(self, catalog):
        predicate = CountingPredicate()
        result = run(catalog, Limit(Select(Scan("L"), predicate), 0))
        assert len(result) == 0
        assert predicate.calls == 0

    def test_limit_larger_than_child_is_total(self, catalog):
        result = run(catalog, Limit(Scan("L"), 99))
        assert len(result) == 4


class TestBlockedRecordLinkJoin:
    def test_blocked_join_matches_full_cross(self, catalog):
        """Force blocking on a tiny input and compare against the full cross.

        The rows share name tokens with their true matches, so token
        blocking must not change the answer — only skip hopeless pairs.
        """
        from repro.linking.linker import LearnedLinker
        from repro.linking.similarity import FieldPair

        plan = RecordLinkJoin(
            Scan("L"), Scan("R"), LearnedLinker([FieldPair("Name", "RName")]),
            threshold=0.5,
        )

        def key(result):
            return [(tuple(row.values), str(prov)) for row, prov in result.rows]

        with CACHE.disabled("blocking", "plan"):
            full = run(catalog, plan)
        with CACHE.overridden(blocking_min_pairs=1), CACHE.disabled("plan"):  # force the blocked path
            blocked = run(catalog, plan)
        assert key(blocked) == key(full)
        assert len(blocked) > 0


class TestBestOnlyPass:
    def test_tie_keeps_earliest_right_row(self, catalog):
        class Flat(RowLinker):
            def score(self, left, right):
                return 0.7  # every pair ties

        plan = RecordLinkJoin(Scan("L"), Scan("R"), Flat(), threshold=0.5)
        result = run(catalog, plan)
        # Each left row links exactly once, to the first right row.
        assert len(result) == 4
        assert all(row["Phone"] == "555-1" for row in result.plain_rows())

    def test_negative_scores_and_threshold(self, catalog):
        class Negative(RowLinker):
            def score(self, left, right):
                return -0.25

        plan = RecordLinkJoin(Scan("L"), Scan("R"), Negative(), threshold=-0.5)
        result = run(catalog, plan)
        # Scores below zero still clear a negative threshold.
        assert len(result) == 4

    def test_all_matches_mode_returns_every_pair_above_threshold(self, catalog):
        class Flat(RowLinker):
            def score(self, left, right):
                return 0.7

        plan = RecordLinkJoin(Scan("L"), Scan("R"), Flat(), threshold=0.5, best_only=False)
        result = run(catalog, plan)
        assert len(result) == 4 * 3


class TestProvenanceIndex:
    def test_provenance_of_merges_duplicates(self, catalog):
        result = run(catalog, Project(Scan("L"), ("City",)))
        park = next(row for row in result.plain_rows() if row["City"] == "Park")
        # Two L rows project to City=Park: provenance is their ⊕-combination.
        assert str(result.provenance_of(park)) == "(L#1 + L#3)"

    def test_merged_view_is_consistent_with_index(self, catalog):
        result = run(catalog, Project(Scan("L"), ("City",)))
        merged = result.merged()
        assert len(merged) == 3  # Creek, Park, None
        for row, prov in merged.rows:
            assert str(result.provenance_of(row)) == str(prov)

    def test_index_rebuilds_after_row_mutation(self, catalog):
        result = run(catalog, Scan("D"))
        result.provenance_of(result.plain_rows()[0])  # build the index
        extra_result = run(catalog, Scan("L"))
        extra_row, extra_prov = extra_result.rows[0]
        padded = extra_row.pad_to(result.schema)
        result.rows.append((padded, extra_prov))
        # The lazily-built index notices the length change and rebuilds.
        assert str(result.provenance_of(padded)) == "L#0"
