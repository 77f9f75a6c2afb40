"""Query executor producing annotated query plans.

The executor evaluates a :class:`~repro.workload.query.Query` against a
:class:`~repro.engine.database.Database`, building the left-deep plan of the
paper's Figure 1(c): scan/filter the root relation, then repeatedly filter a
dimension relation and PK-FK join it in.  Every operator's output cardinality
is recorded, which is precisely the AQP the client site ships to the vendor.

Two execution modes produce identical results:

* ``"pipelined"`` (the default) runs the fact side batch-at-a-time through
  the volcano-style operators of :mod:`repro.engine.pipeline`: the root
  relation is consumed via :meth:`Database.scan_batches`, so stream-attached
  relations are never materialised and peak memory is one batch plus the
  (small) dimension build sides;
* ``"materialize"`` is the classic table-at-a-time path: every relation is
  fully scanned before the first operator runs.

Both modes share the same join kernel (:class:`HashJoinBuild`), and because
filters are row-local and PK-FK joins match each fact row at most once, the
modes emit byte-identical result tables and
:class:`~repro.engine.plan.AnnotatedQueryPlan` cardinalities.  The executor's
:attr:`Executor.stats` hook records the peak batch (or intermediate) rows
either mode pushed through the plan, and the int64 values its filters and
joins materialised.

The join kernel indexes dense primary keys (every generated and regenerated
relation has keys ``1..N``) with a direct-address slot array, and reuses the
probe batch's arrays when every row matches, as PK-FK integrity makes the
normal case.  Each entry point carries only the columns its consumer reads:
:meth:`Executor.execute` returns the full denormalised view;
:meth:`Executor.execute_plan` carries only the foreign keys later joins read;
:meth:`Executor.count` carries those plus the attributes its predicates
name.  The root filter and every join drop the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.pipeline import (
    BatchFilter,
    BatchHashJoin,
    BatchOperator,
    BatchScan,
    HashJoinBuild,
    PipelineStats,
    collect,
    count_predicates,
    drain,
)
from repro.engine.plan import AnnotatedQueryPlan, FilterNode, JoinNode, PlanNode, ScanNode
from repro.engine.table import Table
from repro.errors import EngineError
from repro.obs.trace import span as trace_span
from repro.predicates.dnf import DNFPredicate
from repro.workload.query import Query, Workload

#: Supported execution modes.
EXECUTOR_MODES = ("pipelined", "materialize")


@dataclass
class ExecutionResult:
    """The outcome of executing one query: the final intermediate table (the
    join result, before any projection/aggregation) and the AQP."""

    table: Table
    plan: AnnotatedQueryPlan


class Executor:
    """Executes workload queries against a database, producing AQPs.

    Parameters
    ----------
    database:
        The database to execute against.
    mode:
        ``"pipelined"`` (default) evaluates batch-at-a-time without ever
        materialising stream-attached relations; ``"materialize"`` is the
        table-at-a-time path.  Results are identical in both modes.
    """

    def __init__(self, database: Database, mode: str = "pipelined") -> None:
        if mode not in EXECUTOR_MODES:
            raise EngineError(
                f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
            )
        self.database = database
        self.schema = database.schema
        self.mode = mode
        #: Peak-batch-rows accounting across every query this executor ran.
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query) -> ExecutionResult:
        """Execute ``query`` and return the result table plus its AQP.

        Collecting the result table concatenates the output batches; use
        :meth:`execute_plan` when only the AQP is needed (constant memory in
        pipelined mode) or :meth:`count` for streaming predicate counts.
        """
        pipeline, make_plan = self._prepare(query)
        table = collect(pipeline)
        return ExecutionResult(table=table, plan=make_plan())

    def execute_plan(self, query: Query) -> AnnotatedQueryPlan:
        """Execute ``query`` for its AQP alone, discarding result batches.

        In pipelined mode this is the constant-memory path: batches flow
        through the operators into a cardinality-accumulating sink and are
        dropped, so AQPs can be collected over databases far larger than
        memory.
        """
        pipeline, make_plan = self._prepare(query, keep=frozenset())
        drain(pipeline)
        return make_plan()

    def count(self, query: Query,
              predicates: Sequence[DNFPredicate]) -> List[int]:
        """Execute ``query`` and count, per predicate, the matching result
        rows — without retaining the result table in pipelined mode."""
        keep = frozenset(attr for p in predicates for attr in p.attributes)
        values_before = self.stats.values
        with trace_span("engine.count", mode=self.mode, relation=query.root,
                        predicates=len(predicates),
                        columns=len(keep)) as span:
            pipeline, _ = self._prepare(query, keep=keep)
            counts = count_predicates(pipeline, predicates)
            span.set_attribute("rows", pipeline.rows_out)
            span.set_attribute("values", self.stats.values - values_before)
        return counts

    def execute_workload(self, workload: Workload) -> List[AnnotatedQueryPlan]:
        """Execute every query of the workload, returning the AQPs."""
        with trace_span("engine.execute_workload", mode=self.mode,
                        queries=len(workload)) as span:
            plans = [self.execute_plan(query) for query in workload]
            span.set_attribute("batches", self.stats.batches)
            span.set_attribute("peak_batch_rows", self.stats.peak_batch_rows)
            span.set_attribute("values", self.stats.values)
        return plans

    # ------------------------------------------------------------------ #
    # plan assembly (shared by both modes)
    # ------------------------------------------------------------------ #
    def _prepare(
        self, query: Query, keep: Optional[AbstractSet[str]] = None,
    ) -> Tuple[BatchOperator, Callable[[], AnnotatedQueryPlan]]:
        """Validate the query and assemble its operator chain.

        ``keep`` names the columns the chain's consumer reads (``None``:
        the full denormalised view).

        Materialize mode forces the root relation into a whole table first,
        so the scan yields one full-size batch and every operator sees (and
        accounts) complete intermediates — table-at-a-time execution as a
        degenerate one-batch pipeline, sharing a single plan-construction
        path with pipelined mode.
        """
        query.validate(self.schema)
        if self.mode == "materialize":
            self.database.table(query.root)
        return self._build_pipeline(query, keep)

    def _build_pipeline(
        self, query: Query, keep: Optional[AbstractSet[str]],
    ) -> Tuple[BatchOperator, Callable[[], AnnotatedQueryPlan]]:
        """Assemble the operator chain for ``query``.

        Returns the chain's top operator plus a plan factory to call *after*
        the chain has been drained: operator cardinalities are only complete
        once every batch has flowed through.  Dimension (build) sides are
        resolved eagerly — they are whole-table consumers by design; only
        the fact side streams.  Past the root filter and each join, the
        chain carries ``keep`` plus the foreign keys of the joins still to
        come.
        """
        join_order = query.join_order(self.schema)
        fk_columns = [fk_column for _, fk_column, _ in join_order]

        def needed(done: int) -> Optional[AbstractSet[str]]:
            """Columns still read once the first ``done`` joins ran."""
            return None if keep is None else keep.union(fk_columns[done:])

        scan_op = BatchScan(self.database, query.root, self.stats)
        source: BatchOperator = scan_op
        root_filter = query.filter_for(query.root)
        filter_op: Optional[BatchFilter] = None
        if not root_filter.is_true:
            filter_op = BatchFilter(source, root_filter, self.stats, needed(0))
            source = filter_op

        joins: List[Tuple[BatchHashJoin, str, str, int, DNFPredicate, int]] = []
        for done, (_, fk_column, parent) in enumerate(join_order, start=1):
            parent_table = self.database.table(parent)
            scan_cardinality = parent_table.num_rows
            parent_filter = query.filter_for(parent)
            build_side = parent_table
            if not parent_filter.is_true:
                build_side = parent_table.select(parent_table.evaluate(parent_filter))
            build = HashJoinBuild(build_side, self.schema.relation(parent).primary_key)
            join_op = BatchHashJoin(source, fk_column, build, self.stats,
                                    needed(done))
            source = join_op
            joins.append((join_op, fk_column, parent, scan_cardinality,
                          parent_filter, build_side.num_rows))

        def make_plan() -> AnnotatedQueryPlan:
            plan: PlanNode = ScanNode(relation=query.root, cardinality=scan_op.rows_out)
            if filter_op is not None:
                plan = FilterNode(
                    relation=query.root,
                    predicate=root_filter,
                    child=plan,
                    cardinality=filter_op.rows_out,
                )
            for join_op, fk_column, parent, scan_cardinality, parent_filter, \
                    filtered_cardinality in joins:
                parent_scan: PlanNode = ScanNode(
                    relation=parent, cardinality=scan_cardinality
                )
                if not parent_filter.is_true:
                    parent_scan = FilterNode(
                        relation=parent,
                        predicate=parent_filter,
                        child=parent_scan,
                        cardinality=filtered_cardinality,
                    )
                plan = JoinNode(
                    fk_column=fk_column,
                    parent_relation=parent,
                    left=plan,
                    right=parent_scan,
                    cardinality=join_op.rows_out,
                )
            return AnnotatedQueryPlan(
                query_id=query.query_id,
                root_relation=query.root,
                root=plan,
                relations=tuple(query.relations),
            )

        return source, make_plan
