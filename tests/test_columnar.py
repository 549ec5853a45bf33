"""Columnar batch execution: compiled predicates, batches, interning, parity.

The contract under test is the PR's tentpole: with ``REPRO_COLUMNAR`` on,
every supported plan produces *exactly* the row path's output — rows,
provenance expressions, degradation notes, cache and blocking decisions —
while unsupported shapes fall back to row-at-a-time evaluation wholesale.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cache.config import CACHE
from repro.errors import EvaluationError
from repro.linking.blocking import (
    candidate_pairs,
    candidate_pairs_from_keys,
    column_token_keys,
    token_block_key,
)
from repro.obs import METRICS
from repro.resilience import FaultPolicy, FaultSpec
from repro.resilience.config import RESILIENCE
from repro.substrate.relational import (
    COLUMNAR,
    AggSpec,
    And,
    AttrCompare,
    Catalog,
    ColumnBatch,
    Compare,
    Contains,
    DependentJoin,
    Distinct,
    Evaluator,
    GroupBy,
    IsNull,
    Join,
    Limit,
    Not,
    NotNull,
    Or,
    Predicate,
    Project,
    RecordLinkJoin,
    Relation,
    Rename,
    Row,
    RowLinker,
    Scan,
    Schema,
    Select,
    Union,
    columnar_stats_line,
    schema_of,
)
from repro.substrate.relational.predicates import (
    TRUE,
    compile_predicate,
    is_compilable,
)
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import TableBackedService
from repro.util.strings import token_jaccard
from repro.util.text import (
    INTERN,
    InternPool,
    normalize,
    normalize_cache_stats,
)


# ------------------------------------------------------------------ fixtures
@pytest.fixture()
def catalog():
    cat = Catalog()
    shelters = Relation("S", schema_of("Name", "City", "Beds"))
    shelters.extend(
        [
            ["Monarch", "Creek", 40],
            ["Tedder", "Park", 25],
            ["Norcrest", "Creek", None],
            ["Monarch", "Creek", 40],
            [None, "Park", 10],
        ]
    )
    cat.add_relation(shelters)
    damage = Relation("D", schema_of("City", "Damage"))
    damage.extend([["Creek", "minor"], ["Park", "severe"], [None, "unknown"]])
    cat.add_relation(damage)
    zips = TableBackedService(
        "Z",
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
    )
    cat.add_service(zips)
    return cat


def snapshot(result):
    """Everything parity cares about, in a comparable shape."""
    return (
        result.schema.names,
        [(row.schema.names, row.values, str(prov)) for row, prov in result.rows],
        [(note.service, note.reason) for note in result.degraded],
    )


def assert_parity(catalog, plan, expect_fallback=False):
    """Run *plan* columnar and row-at-a-time on fresh evaluators; compare."""
    with COLUMNAR.overridden(enabled=True):
        columnar = Evaluator(catalog).run(plan)
    with COLUMNAR.disabled():
        row = Evaluator(catalog).run(plan)
    assert snapshot(columnar) == snapshot(row)
    with COLUMNAR.overridden(enabled=True):
        thunk = Evaluator(catalog).columnar.compiled(plan)
    if expect_fallback:
        assert thunk is None
    else:
        assert thunk is not None
    return columnar, row


# ------------------------------------------------- predicate compilation unit
MIXED = Schema(["a", "b", "t"])
#: columns: ints-with-None in a, mixed types in b, text in t
COLS = [
    [3, None, 7, 1, 5],
    [2, "x", None, 4, "y"],
    ["Creek St", None, "PARK ave", "creek", ""],
]


def rows_of(columns, schema=MIXED):
    return [
        Row(schema, [column[i] for column in columns])
        for i in range(len(columns[0]))
    ]


class TestCompilePredicate:
    @pytest.mark.parametrize(
        "predicate",
        [
            Compare("a", ">", 2),
            Compare("a", "==", 7),
            Compare("a", "<=", 3),
            Compare("b", "<", 3),  # TypeError on str-vs-int rows
            AttrCompare("a", ">", "b"),
            AttrCompare("a", "!=", "b"),
            IsNull("a"),
            NotNull("b"),
            Contains("t", "cree"),
            Contains("t", "AVE"),
            And((Compare("a", ">", 0), NotNull("b"))),
            Or((IsNull("a"), Compare("a", ">=", 5))),
            Not(Contains("t", "park")),
            Or(()),
            TRUE,
            And((Or((TRUE, IsNull("t"))), Not(And((IsNull("a"), IsNull("b")))))),
        ],
    )
    def test_mask_matches_row_semantics(self, predicate):
        mask_fn = compile_predicate(predicate, MIXED)
        assert mask_fn is not None
        mask = mask_fn(COLS, len(COLS[0]))
        expected = [predicate.matches(row) for row in rows_of(COLS)]
        assert mask == expected

    def test_all_parametrized_types_are_compilable(self):
        assert is_compilable(TRUE)
        assert is_compilable(And((Compare("a", ">", 1), Not(IsNull("b")))))

    def test_unknown_subclass_is_not_compilable(self):
        class Weird(Predicate):
            def matches(self, row):
                return True

        assert not is_compilable(Weird())
        assert compile_predicate(Weird(), MIXED) is None
        # ... including buried inside a known combinator
        assert not is_compilable(And((TRUE, Weird())))
        assert compile_predicate(Not(Weird()), MIXED) is None

    def test_missing_attribute_returns_none(self):
        # The row path raises lazily, per row evaluated; compilation must
        # refuse rather than raise eagerly.
        assert compile_predicate(Compare("nope", "==", 1), MIXED) is None
        assert compile_predicate(AttrCompare("a", "<", "nope"), MIXED) is None

    def test_typeerror_rows_compare_false_not_raise(self):
        mask_fn = compile_predicate(Compare("b", ">", 10), MIXED)
        mask = mask_fn(COLS, len(COLS[0]))
        assert mask == [False, False, False, False, False]


# --------------------------------------------------------------- ColumnBatch
class TestColumnBatch:
    def test_roundtrip_from_annotated(self, catalog):
        annotated = catalog.relation("S").annotated()
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_annotated(schema, annotated)
        assert batch.n_rows == len(annotated)
        assert batch.column("City") == ["Creek", "Park", "Creek", "Creek", "Park"]
        back = batch.to_annotated()
        assert [(r.values, str(p)) for r, p in back] == [
            (r.values, str(p)) for r, p in annotated
        ]

    def test_gather_reorders_rows_and_provenance(self, catalog):
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_relation_rows("S", schema, catalog.relation("S").rows())
        picked = batch.gather([3, 0])
        assert picked.n_rows == 2
        assert [str(p) for p in picked.provs] == ["S#3", "S#0"]
        assert picked.row_values(0) == ("Monarch", "Creek", 40)

    def test_zero_column_batch_keeps_cardinality(self):
        batch = ColumnBatch(Schema([]), [], [p for p in range(3) for p in ()])
        assert batch.n_rows == 0
        empty = ColumnBatch.from_annotated(Schema([]), [])
        assert empty.to_annotated() == []

    def test_interning_shares_equal_strings(self, catalog):
        pool_before = len(INTERN)
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_relation_rows("S", schema, catalog.relation("S").rows())
        city = batch.column("City")
        assert city[0] is city[2]  # both "Creek", one object
        assert len(INTERN) >= pool_before


# ------------------------------------------------------- intern pool & normalize
class TestInternPool:
    def test_equal_strings_become_identical(self):
        pool = InternPool()
        a = pool.intern("main " + "street")
        b = pool.intern("main street")
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_non_strings_pass_through(self):
        pool = InternPool()
        values = [None, 42, 3.5, ("t",)]
        assert [pool.intern(v) for v in values] == values
        assert len(pool) == 0
        assert pool.passes == 4

    def test_capacity_stops_admission_not_service(self):
        pool = InternPool(capacity=2)
        pool.intern("a")
        pool.intern("b")
        pool.intern("c")  # over capacity: returned as-is, not pooled
        assert len(pool) == 2
        assert pool.intern("a") is pool.intern("a")

    def test_intern_all_and_stats(self):
        pool = InternPool()
        column = ["x", "y", "x", None, 7]
        interned = pool.intern_all(column)
        assert interned == column
        assert interned[0] is interned[2]
        stats = pool.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["passes"] == 2


class TestNormalizeCache:
    def test_normalize_still_normalizes(self):
        assert normalize("  Main   St. ") == "main st."
        assert normalize("Creek​County") == "creekcounty"

    def test_stats_count_hits_and_misses(self):
        probe = "NeVeR seen Before 9871"
        before = normalize_cache_stats()
        normalize(probe)
        normalize(probe)
        after = normalize_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1
        assert set(after) >= {"hits", "misses", "evictions", "size", "eviction_rate"}

    def test_eviction_rate_is_evictions_per_miss(self):
        stats = normalize_cache_stats()
        assert stats["eviction_rate"] == pytest.approx(
            stats["evictions"] / max(stats["misses"], 1)
        )

    def test_normalize_results_are_interned(self):
        a = normalize("Creek  COUNTY")
        b = INTERN.intern("creek county")
        assert a is b


# ------------------------------------------------------------------- config
class TestColumnarConfig:
    def test_defaults(self):
        # `enabled` comes from the environment (the CI parity job runs this
        # suite under REPRO_COLUMNAR=0), so only assert shape.
        assert isinstance(COLUMNAR.enabled, bool)

    def test_disabled_context_restores(self):
        before = COLUMNAR.enabled
        with COLUMNAR.disabled():
            assert not COLUMNAR.enabled
        assert COLUMNAR.enabled is before

    def test_overridden_rejects_unknown_knob(self):
        with pytest.raises(ValueError):
            with COLUMNAR.overridden(warp_speed=True):
                pass

    def test_snapshot_and_repr_cover_knobs(self):
        snap = COLUMNAR.snapshot()
        assert set(snap) == {"enabled"}
        assert "enabled=" in repr(COLUMNAR)


# ----------------------------------------------------------- operator parity
class JaccardLinker(RowLinker):
    def __init__(self, left_attr="Name", right_attr="Alias", blockable=True):
        self.left_attr, self.right_attr = left_attr, right_attr
        self.blockable = blockable

    def score(self, left, right):
        return token_jaccard(
            str(left.get(self.left_attr) or ""), str(right.get(self.right_attr) or "")
        )

    def block_attribute_pairs(self):
        if self.blockable:
            return ((self.left_attr, self.right_attr),)
        return None

    def describe(self):
        return "jaccard"


class TestOperatorParity:
    def test_scan(self, catalog):
        assert_parity(catalog, Scan("S"))

    def test_select_chain(self, catalog):
        plan = Select(
            Select(Scan("S"), Compare("Beds", ">", 5)), Contains("City", "cree")
        )
        assert_parity(catalog, plan)

    def test_project_and_rename(self, catalog):
        plan = Rename(Project(Scan("S"), ("City", "Name")), (("Name", "Shelter"),))
        result, _ = assert_parity(catalog, plan)
        assert result.schema.names == ("City", "Shelter")

    def test_join_skips_null_keys_both_sides(self, catalog):
        plan = Join(Scan("S"), Scan("D"), (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert all(row["City"] is not None for row in result.plain_rows())

    def test_join_multi_condition(self, catalog):
        plan = Join(
            Rename(Scan("S"), (("Name", "N1"),)),
            Rename(Scan("S"), (("Name", "N2"), ("Beds", "B2"))),
            (("City", "City"), ("N1", "N2")),
        )
        assert_parity(catalog, plan)

    def test_union_pads_missing_attributes(self, catalog):
        plan = Union((Project(Scan("S"), ("City", "Name")), Scan("D")))
        result, _ = assert_parity(catalog, plan)
        assert "Damage" in result.schema.names
        # S-part rows are padded with NULL damage
        assert result.rows[0][0]["Damage"] is None

    def test_distinct_merges_provenance(self, catalog):
        plan = Distinct(Project(Scan("S"), ("City",)))
        result, _ = assert_parity(catalog, plan)
        assert len(result) == 2
        # both Creek occurrences folded into a ⊕ of three scan vars
        creek_prov = str(result.provenance_of(result.plain_rows()[0]))
        assert "+" in creek_prov

    def test_groupby(self, catalog):
        plan = GroupBy(
            Scan("S"), ("City",), (AggSpec("count", "Name", "n"), AggSpec("sum", "Beds", "beds"))
        )
        assert_parity(catalog, plan)

    def test_global_aggregate(self, catalog):
        plan = GroupBy(Scan("S"), (), (AggSpec("max", "Beds", "most"),))
        assert_parity(catalog, plan)

    def test_dependent_join(self, catalog):
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert {row["Zip"] for row in result.plain_rows()} == {"33063", "33309"}

    def test_dependent_join_null_inputs_skipped(self, catalog):
        rel = Relation("NC", schema_of("City"))
        rel.extend([["Creek"], [None], ["Park"]])
        catalog.add_relation(rel)
        plan = DependentJoin(Scan("NC"), "Z", (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert len(result) == 2

    def test_record_link_join_blocked_and_unblocked(self, catalog):
        aliases = Relation("A", schema_of("Alias", "Contact"))
        aliases.extend(
            [["Monarch Shelter", "x"], ["Tedder", "y"], ["Norcrest Hall", "z"]]
        )
        catalog.add_relation(aliases)
        with CACHE.overridden(blocking_min_pairs=1):  # force the blocking route at this scale
            for blockable in (True, False):
                plan = RecordLinkJoin(
                    Scan("S"),
                    Scan("A"),
                    JaccardLinker(blockable=blockable),
                    threshold=0.3,
                    best_only=True,
                )
                assert_parity(catalog, plan)
                plan_all = RecordLinkJoin(
                    Scan("S"), Scan("A"), JaccardLinker(blockable=blockable),
                    threshold=0.3, best_only=False,
                )
                assert_parity(catalog, plan_all)

    def test_deep_composite_plan(self, catalog):
        plan = Distinct(
            GroupBy(
                Join(
                    Select(Scan("S"), NotNull("Name")),
                    Rename(Scan("D"), (("Damage", "Level"),)),
                    (("City", "City"),),
                ),
                ("City", "Level"),
                (AggSpec("count", "Name", "n"),),
            )
        )
        assert_parity(catalog, plan)


class TestStatefulParity:
    def test_distrusted_rows_filtered(self, catalog):
        catalog.metadata("S").notes["distrusted_rows"] = {0, 3}
        result, _ = assert_parity(catalog, Scan("S"))
        assert len(result) == 3
        assert [str(p) for _, p in result.rows] == ["S#1", "S#2", "S#4"]

    def test_quarantined_source_degrades(self, catalog):
        from repro.drift import quarantine_source_in_catalog

        quarantine_source_in_catalog(catalog, "S", "layout drift")
        columnar, row = assert_parity(catalog, Select(Scan("S"), TRUE))
        assert columnar.is_degraded and row.is_degraded

    def test_degraded_service_parity(self, catalog):
        # The circuit breaker is stateful across runs, so each mode gets a
        # freshly reset breaker — then both must trip it identically.
        service = catalog.service("Z")
        FaultPolicy(seed=1, default=FaultSpec(persistent=True)).wrap(service)
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        try:
            with RESILIENCE.overridden(retry_base_ms=0.0):
                service.breaker.reset()
                with COLUMNAR.overridden(enabled=True):
                    columnar = Evaluator(catalog).run(plan)
                service.breaker.reset()
                with COLUMNAR.disabled():
                    row = Evaluator(catalog).run(plan)
            assert snapshot(columnar) == snapshot(row)
            assert columnar.is_degraded
            assert columnar.degraded_services() == ("Z",)
            for r, prov in columnar.rows:
                assert r.get("Zip") is None
                assert "degraded:Z" in str(prov)
        finally:
            FaultPolicy.unwrap(service)
            service.breaker.reset()

    def test_catalog_mutation_invalidates_compiled_plans(self, catalog):
        evaluator = Evaluator(catalog)
        plan = Join(Scan("S"), Scan("D"), (("City", "City"),))
        with COLUMNAR.overridden(enabled=True):
            first = evaluator.run(plan)
            catalog.relation("D").add(["Lake", "minor"])
            catalog.bump_version()
            second = evaluator.run(plan)
        assert len(second) == len(first)  # Lake matches no shelter
        catalog.relation("S").add(["Bayou", "Lake", 12])
        catalog.bump_version()
        with COLUMNAR.overridden(enabled=True):
            third = evaluator.run(plan)
        assert len(third) == len(first) + 1

    def test_plan_cache_entries_are_mode_tagged(self, catalog):
        evaluator = Evaluator(catalog)
        plan = Distinct(Scan("S"))
        with COLUMNAR.overridden(enabled=True):
            columnar = evaluator.run(plan)
        with COLUMNAR.disabled():
            row = evaluator.run(plan)  # same evaluator: must not see the batch
        assert snapshot(columnar) == snapshot(row)
        fingerprint_keys = len(evaluator.plan_cache)
        assert fingerprint_keys == 2  # one batch entry + one row entry


class TestFallbacks:
    def test_limit_falls_back(self, catalog):
        assert_parity(catalog, Limit(Scan("S"), 2), expect_fallback=True)

    def test_unknown_plan_subclass_falls_back(self, catalog):
        # The row path has no _eval_myscan either: parity means both modes
        # surface the same EvaluationError via the row-path dispatch.
        class MyScan(Scan):
            pass

        with COLUMNAR.overridden(enabled=True):
            evaluator = Evaluator(catalog)
            assert evaluator.columnar.compiled(MyScan("S")) is None
            with pytest.raises(EvaluationError, match="MyScan"):
                evaluator.run(MyScan("S"))
        with COLUMNAR.disabled():
            with pytest.raises(EvaluationError, match="MyScan"):
                Evaluator(catalog).run(MyScan("S"))

    def test_unknown_predicate_subclass_falls_back(self, catalog):
        class OddBeds(Predicate):
            def matches(self, row):
                return bool(row["Beds"]) and row["Beds"] % 2 == 1

        plan = Select(Scan("S"), OddBeds())
        with COLUMNAR.overridden(enabled=True):
            evaluator = Evaluator(catalog)
            assert evaluator.columnar.compiled(plan) is None
            result = evaluator.run(plan)
        with COLUMNAR.disabled():
            row = Evaluator(catalog).run(plan)
        assert snapshot(result) == snapshot(row)

    def test_fallback_counts_in_metrics(self, catalog):
        obs.reset()
        obs.enable()
        try:
            with COLUMNAR.overridden(enabled=True):
                evaluator = Evaluator(catalog)
                evaluator.run(Scan("S"))
                evaluator.run(Limit(Scan("S"), 1))
            assert METRICS.counter_value("columnar.plans") == 1
            assert METRICS.counter_value("columnar.fallbacks") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_unsupported_result_is_memoized(self, catalog):
        with COLUMNAR.overridden(enabled=True):
            evaluator = Evaluator(catalog)
            plan = Limit(Scan("S"), 2)
            assert evaluator.columnar.compiled(plan) is None
            assert evaluator.columnar.compiled(plan) is None  # memo hit, still None

    def test_error_parity_on_bad_aggregate(self, catalog):
        plan = GroupBy(Scan("S"), ("City",), (AggSpec("sum", "Name", "s"),))
        with COLUMNAR.overridden(enabled=True):
            with pytest.raises(EvaluationError):
                Evaluator(catalog).run(plan)
        with COLUMNAR.disabled():
            with pytest.raises(EvaluationError):
                Evaluator(catalog).run(plan)


# ------------------------------------------------------------ blocking helpers
class TestBlockingHelpers:
    def test_column_token_keys_match_row_keys(self):
        rows = [{"Name": "Monarch Shelter"}, {"Name": None}, {"Name": "a bc"}]
        key_fn = token_block_key("Name")

        class D(dict):
            def get(self, k, default=None):
                return dict.get(self, k, default)

        per_row = [set(key_fn(D(r))) for r in rows]
        per_col = [set(k) for k in column_token_keys([r["Name"] for r in rows])]
        assert per_row == per_col

    def test_candidate_pairs_from_keys_equals_row_based(self):
        left = [{"Name": "creek house"}, {"Name": "park"}]
        right = [{"Alias": "creek"}, {"Alias": "park lane"}, {"Alias": "zzz"}]
        key_fns = [(token_block_key("Name"), token_block_key("Alias"))]
        row_based = candidate_pairs(left, right, key_fns)
        col_based = candidate_pairs_from_keys(
            [column_token_keys([r["Name"] for r in left])],
            [column_token_keys([r["Alias"] for r in right])],
        )
        assert row_based == col_based == [(0, 0), (1, 1)]


# -------------------------------------------------------------- stats line
class TestStatsLine:
    def test_line_shape(self):
        line = columnar_stats_line()
        assert line.startswith("columnar: plans ")
        assert "interned" in line and "normalize evict rate" in line

    def test_disabled_marker(self):
        with COLUMNAR.disabled():
            assert columnar_stats_line().endswith("· disabled")
