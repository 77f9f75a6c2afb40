"""Tests for the pipelined (batch-at-a-time) executor.

Covers the PR's acceptance criteria:

* **Mode equivalence** — pipelined and materialized execution produce
  identical result tables and AQP cardinalities over seeded TPC-DS-like and
  JOB-like workloads, at batch sizes 1, 7 and 65536.
* **True laziness** — pipelined execution over a stream-attached
  (dynamically regenerated) database never calls
  ``TupleGenerator.materialize()`` and never caches the fact relation.
* **Single-pass stream contract** — a stream factory that hands back the
  same exhausted iterator twice raises ``EngineError`` instead of silently
  yielding empty data.
* **Join kernel** — ``HashJoinBuild.probe`` (direct-address or sorted
  index, full-match reuse, column pruning) equals a reference
  ``argsort`` + ``searchsorted`` probe kept in this file, and the pruned
  entry points (``execute_plan``, ``count``) agree with the full view of
  ``execute`` in both modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchdata.datagen import generate_database
from repro.benchdata.job import job_schema, job_workload
from repro.benchdata.tpcds import simple_workload
from repro.engine.database import Database
from repro.engine.executor import EXECUTOR_MODES, Executor
from repro.engine.pipeline import DENSE_SPAN_PER_ROW, HashJoinBuild
from repro.engine.table import Table
from repro.errors import EngineError
from repro.hydra.pipeline import Hydra
from repro.predicates.dnf import and_, col
from repro.tuplegen.generator import TupleGenerator, dynamic_database
from repro.workload.query import Query, Workload

BATCH_SIZES = (1, 7, 65_536)

#: Fact-table row limit per batch size, keeping the per-row Python overhead
#: of the degenerate batch sizes bounded while still spanning many batches.
ROW_LIMITS = {1: 60, 7: 700, 65_536: None}


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def sliced(database: Database, limit):
    """A copy of ``database`` with every table truncated to ``limit`` rows.

    Both executor modes run against the same truncated instance, so the
    equivalence check is unaffected by any dangling foreign keys the
    truncation introduces.
    """
    if limit is None:
        return database
    copy = Database(database.schema, name=f"{database.name}-sliced")
    for relation in database.relations:
        table = database.table(relation)
        copy.attach(relation, Table(
            {c: table.column(c)[:limit] for c in table.column_names},
            name=relation,
        ))
    return copy


def streamed_copy(database: Database, batch_size: int) -> Database:
    """Re-attach every table of ``database`` as a batch stream."""
    copy = Database(database.schema, name=f"{database.name}-streamed")
    for relation in database.relations:
        table = database.table(relation)

        def factory(table: Table = table) -> "iter":
            return (
                table.select(np.arange(len(table)) // batch_size == i)
                for i in range((len(table) + batch_size - 1) // batch_size)
            )

        copy.attach_stream(relation, factory, row_count=table.num_rows)
    return copy


def assert_identical(materialized, pipelined):
    """Result tables and annotated plans of the two modes must be equal."""
    left, right = materialized.table, pipelined.table
    assert left.num_rows == right.num_rows
    assert set(left.column_names) == set(right.column_names)
    for column in left.column_names:
        assert np.array_equal(left.column(column), right.column(column)), column
    assert materialized.plan.operator_cardinalities() == \
        pipelined.plan.operator_cardinalities()
    assert materialized.plan == pipelined.plan


# ---------------------------------------------------------------------- #
# mode equivalence over seeded benchmark workloads
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_modes_identical_on_tpcds_workload(small_tpcds_schema,
                                           small_tpcds_database, batch_size):
    base = sliced(small_tpcds_database, ROW_LIMITS[batch_size])
    streamed = streamed_copy(base, batch_size)
    workload = simple_workload(small_tpcds_schema, num_queries=25, seed=3)
    materializer = Executor(base, mode="materialize")
    pipeliner = Executor(streamed, mode="pipelined")
    for query in workload:
        assert_identical(materializer.execute(query), pipeliner.execute(query))
    assert pipeliner.stats.peak_batch_rows <= batch_size


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_modes_identical_on_job_workload(small_job_schema, batch_size):
    base = sliced(generate_database(small_job_schema, seed=19),
                  ROW_LIMITS[batch_size])
    streamed = streamed_copy(base, batch_size)
    workload = job_workload(small_job_schema, num_queries=20, seed=23)
    materializer = Executor(base, mode="materialize")
    pipeliner = Executor(streamed, mode="pipelined")
    for query in workload:
        assert_identical(materializer.execute(query), pipeliner.execute(query))
    assert pipeliner.stats.peak_batch_rows <= batch_size


def lower_half(schema, relation: str, attribute: str):
    """``attribute`` in the lower half of its domain."""
    domain = schema.relation(relation).attribute(attribute).domain
    return col(attribute).between(domain.lo, (domain.lo + domain.hi) // 2)


def pruning_cases(schema):
    """``(query, predicates)`` pairs: seeded TPC-DS queries with filtered
    parents, the ``customer -> customer_address`` snowflake hop, and a
    filtered query with no joins and nothing to count."""
    cases = []
    for query in simple_workload(schema, num_queries=10, seed=3):
        cases.append((query, [query.filter_for(rel) for rel in query.relations]))
    birth = lower_half(schema, "customer", "c_birth_year")
    state = lower_half(schema, "customer_address", "ca_state")
    snowflake = Query(
        query_id="snowflake", root="store_sales",
        relations=("store_sales", "customer", "customer_address", "item"),
        filters={"customer": birth, "customer_address": state})
    cases.append((snowflake, [
        and_(lower_half(schema, "store_sales", "ss_quantity"), state),
        lower_half(schema, "item", "i_class"),
        # an attribute outside the view counts zero rows, pruned or not
        lower_half(schema, "warehouse", "w_warehouse_sq_ft"),
    ]))
    cases.append((Query(query_id="no-join", root="item", relations=("item",),
                        filters={"item": lower_half(schema, "item", "i_class")}),
                  []))
    return cases


def test_count_matches_collected_table(small_tpcds_schema, small_tpcds_database):
    """The pruned entry points agree with the full view: ``execute_plan``
    (FK columns only) with ``execute``'s AQP and ``count`` with
    ``Table.count`` over ``execute``'s table — identically in both modes."""
    databases = {"materialize": small_tpcds_database,
                 "pipelined": streamed_copy(small_tpcds_database, 4096)}
    outcomes = {}
    for mode in EXECUTOR_MODES:
        executor = Executor(databases[mode], mode=mode)
        outcomes[mode] = []
        for query, predicates in pruning_cases(small_tpcds_schema):
            full = executor.execute(query)
            plan = executor.execute_plan(query)
            counts = executor.count(query, predicates)
            assert plan == full.plan, query.query_id
            assert counts == [full.table.count(p) for p in predicates]
            outcomes[mode].append((plan.operator_cardinalities(), counts))
    assert outcomes["materialize"] == outcomes["pipelined"]
    assert any(counts and counts[0] for _, counts in outcomes["pipelined"])


# ---------------------------------------------------------------------- #
# join-kernel oracle
# ---------------------------------------------------------------------- #
def reference_probe(build: Table, primary_key: str, left: Table,
                    fk_column: str, keep=None) -> Table:
    """The sorted-index probe: stable ``argsort`` of the keys, then
    ``searchsorted``; a repeated key matches its first row in the table.
    Drops the columns outside ``keep``, keeping one when none is left."""
    keys = build.column(primary_key)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    fks = left.column(fk_column)
    if len(sorted_keys) == 0:
        matched = np.zeros(len(fks), dtype=bool)
        positions = np.zeros(len(fks), dtype=np.int64)
    else:
        positions = np.clip(np.searchsorted(sorted_keys, fks), 0,
                            len(sorted_keys) - 1)
        matched = sorted_keys[positions] == fks
    rows = order[positions[matched]]
    columns = {c: left.column(c)[matched] for c in left.column_names}
    for column in build.column_names:
        if column != primary_key and column not in columns:
            columns[column] = build.column(column)[rows]
    kept = {c: v for c, v in columns.items() if keep is None or c in keep}
    first = left.column_names[0]
    return Table(kept or {first: columns[first]})


@st.composite
def join_inputs(draw):
    """A build side with dense, sparse or repeated (possibly negative)
    keys, and FKs drawn from the keys, below, above and between them."""
    kind = draw(st.sampled_from(["dense", "sparse", "repeated"]))
    n = draw(st.integers(0, 40))
    lo = draw(st.integers(-10**6, 10**6))
    if kind == "dense":
        span = draw(st.integers(n, DENSE_SPAN_PER_ROW * n))
        keys = draw(st.permutations(range(lo, lo + span)))[:n]
    elif kind == "sparse":
        keys = draw(st.lists(st.integers(-2**62, 2**62), min_size=n,
                             max_size=n, unique=True))
    else:
        keys = draw(st.lists(st.integers(lo, lo + n // 2), min_size=n,
                             max_size=n))
    low = min(keys, default=lo)
    high = max(keys, default=lo)
    fk = st.one_of(
        st.sampled_from(keys) if keys else st.just(lo),
        st.integers(low - 5, high + 5),
        st.integers(-2**63, 2**63 - 1),
        st.sampled_from([-2**63, 2**63 - 1]),
    )
    fks = draw(st.lists(fk, max_size=30))
    build = Table({"pk": np.array(keys, dtype=np.int64),
                   "b": np.arange(n, dtype=np.int64) * 10,
                   "shared": np.arange(n, dtype=np.int64) - 7})
    left = Table({"fk": np.array(fks, dtype=np.int64),
                  "a": np.arange(len(fks), dtype=np.int64),
                  "shared": np.full(len(fks), 99, dtype=np.int64)})
    keep = draw(st.one_of(st.none(), st.sets(
        st.sampled_from(["fk", "a", "shared", "b", "pk"]))))
    return kind, build, left, keep


@settings(deadline=None, max_examples=300)
@given(join_inputs())
def test_probe_matches_sorted_reference(inputs):
    kind, build_table, left, keep = inputs
    build = HashJoinBuild(build_table, "pk")
    keys = build_table.column("pk").tolist()
    span = max(keys) - min(keys) + 1 if keys else 0
    dense = len(set(keys)) == len(keys) and span <= DENSE_SPAN_PER_ROW * len(keys)
    assert (build._direct is not None) == dense
    if kind == "dense":
        assert dense
    out = build.probe(left, "fk", keep)
    expected = reference_probe(build_table, "pk", left, "fk", keep)
    assert out.column_names == expected.column_names
    for column in expected.column_names:
        assert np.array_equal(out.column(column), expected.column(column)), column


# ---------------------------------------------------------------------- #
# laziness: the fact relation is never materialised in pipelined mode
# ---------------------------------------------------------------------- #
def toy_workload() -> Workload:
    return Workload(name="toy", queries=[
        Query(query_id="q1", root="R", relations=("R", "S", "T"),
              filters={"S": col("A").between(20, 60), "T": col("C").between(2, 3)}),
        Query(query_id="q2", root="R", relations=("R", "S")),
        Query(query_id="q3", root="S", relations=("S",),
              filters={"S": col("A").between(20, 60)}),
    ])


def test_pipelined_never_materializes_fact(toy_schema, monkeypatch):
    from tests.test_service import toy_ccs

    summary = Hydra(toy_schema).build_summary(toy_ccs()).summary

    def forbidden(self):
        raise AssertionError("pipelined execution called materialize()")

    monkeypatch.setattr(TupleGenerator, "materialize", forbidden)
    database = dynamic_database(summary, toy_schema, batch_size=8192)
    executor = Executor(database, mode="pipelined")
    plans = executor.execute_workload(toy_workload())
    # The fact relation was consumed batch-at-a-time and never cached; the
    # dimension build sides were (stream-)materialised, as designed.
    assert database.is_dynamic("R")
    # q2 joins the full fact against an unfiltered dimension: referential
    # consistency guarantees every regenerated fact row survives.
    assert plans[1].output_cardinality() == 80_000
    assert executor.stats.peak_batch_rows <= 8192

    # AQPs equal those of materialized-mode execution of the same workload.
    reference = Executor(dynamic_database(summary, toy_schema), mode="materialize")
    monkeypatch.undo()
    expected = reference.execute_workload(toy_workload())
    assert [p.operator_cardinalities() for p in plans] == \
        [p.operator_cardinalities() for p in expected]


# ---------------------------------------------------------------------- #
# single-pass stream contract
# ---------------------------------------------------------------------- #
class TestScanBatchesContract:
    def _batches(self):
        return iter([Table({"T_pk": np.arange(1, 4), "C": np.array([1, 2, 3])},
                           name="T")])

    def test_same_iterator_factory_rejected(self, toy_schema):
        database = Database(toy_schema)
        one_shot = self._batches()
        database.attach_stream("T", lambda: one_shot)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3
        with pytest.raises(EngineError, match="same iterator object"):
            database.scan_batches("T")

    def test_fresh_iterator_factory_allows_rescans(self, toy_schema):
        database = Database(toy_schema)
        database.attach_stream("T", self._batches)
        for _ in range(3):
            assert sum(b.num_rows for b in database.scan_batches("T")) == 3

    def test_reattach_resets_one_shot_source(self, toy_schema):
        database = Database(toy_schema)
        one_shot = self._batches()
        database.attach_stream("T", lambda: one_shot)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3
        fresh = self._batches()
        database.attach_stream("T", lambda: fresh)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3


# ---------------------------------------------------------------------- #
# knobs and accounting
# ---------------------------------------------------------------------- #
class TestExecutorKnobs:
    def test_unknown_mode_rejected(self, toy_database):
        with pytest.raises(EngineError, match="unknown executor mode"):
            Executor(toy_database, mode="vectorized")

    def test_materialize_mode_peak_is_full_table(self, toy_database):
        executor = Executor(toy_database, mode="materialize")
        query = Query(query_id="q", root="R", relations=("R", "S"))
        executor.execute(query)
        assert executor.stats.peak_batch_rows == 80_000

    def test_pipelined_mode_peak_is_one_batch(self, toy_schema, toy_database):
        streamed = streamed_copy(toy_database, 5_000)
        executor = Executor(streamed, mode="pipelined")
        query = Query(query_id="q", root="R", relations=("R", "S"))
        plan = executor.execute_plan(query)
        assert plan.output_cardinality() == 80_000
        assert 0 < executor.stats.peak_batch_rows <= 5_000
        assert executor.stats.batches >= 2 * 16  # scan + join, 16 batches each

    def test_operator_chains_are_single_use(self, toy_database):
        from repro.engine.pipeline import BatchScan, drain

        scan = BatchScan(toy_database, "S")
        assert drain(scan) == 700
        with pytest.raises(EngineError, match="single-use"):
            drain(scan)
        assert scan.rows_out == 700  # no double counting happened

    def test_empty_stream_yields_empty_result(self, toy_schema):
        database = Database(toy_schema)
        database.attach_stream("T", lambda: iter(()), row_count=0)
        executor = Executor(database, mode="pipelined")
        result = executor.execute(Query(query_id="q", root="T", relations=("T",),
                                        filters={"T": col("C") == 2}))
        assert result.table.num_rows == 0
        assert result.table.has_column("C")
        assert result.plan.output_cardinality() == 0
