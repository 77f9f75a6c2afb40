"""Volcano-style batched execution pipeline.

The operators in this module evaluate the paper's left-deep AQP plans
batch-at-a-time instead of table-at-a-time: the root (fact) relation is
pulled through :meth:`~repro.engine.database.Database.scan_batches`, filters
and PK-FK joins are applied to one columnar batch at a time, and a sink at
the top of the chain accumulates whatever the caller needs (the full result
table, plain cardinalities, or per-predicate counts).

Stream-attached relations are therefore never materialised along the fact
side: peak memory is one batch (plus the build sides of the joins, which are
the small dimension relations of a star/snowflake query).  The pipelined
result is *identical* to table-at-a-time execution — filters are row-local
and PK-FK joins match each fact row against at most one dimension row, so
per-batch evaluation followed by concatenation commutes with whole-table
evaluation, preserving both row order and every operator cardinality.

Operator chains are single-use: each operator counts the rows it emits in
``rows_out`` (the AQP annotation) while it is drained, so a chain must be
built, drained through exactly one sink, and then only inspected — a second
drain raises :class:`EngineError` rather than double-counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import EngineError
from repro.predicates.dnf import DNFPredicate


@dataclass
class PipelineStats:
    """Memory-accounting hook shared by every operator of an executor.

    ``peak_batch_rows`` is the largest batch that flowed through any
    operator — the pipelined executor's peak working-set size in rows.  In
    table-at-a-time (``materialize``) mode the executor feeds every full
    intermediate table through the same hook, so the counter doubles as the
    apples-to-apples memory-footprint comparison between the two modes
    (dimension build sides are excluded in both modes).
    """

    batches: int = 0
    peak_batch_rows: int = 0
    rows: int = 0
    #: Int64 cells the filter and join operators materialised (copied or
    #: gathered) — the engine's work count, independent of machine speed.
    values: int = 0

    def observe(self, num_rows: int) -> None:
        """Record one batch (or one full intermediate) of ``num_rows``."""
        self.batches += 1
        self.rows += num_rows
        if num_rows > self.peak_batch_rows:
            self.peak_batch_rows = num_rows


class BatchOperator:
    """Base class of the streaming operators: an iterable of columnar
    batches that counts the rows it emits."""

    def __init__(self, stats: Optional[PipelineStats] = None) -> None:
        self.stats = stats
        #: Total rows emitted so far — the operator's AQP cardinality once
        #: the chain has been fully drained.
        self.rows_out = 0
        self._consumed = False

    def __iter__(self) -> Iterator[Table]:
        if self._consumed:
            raise EngineError(
                f"{type(self).__name__} has already been drained; operator"
                " chains are single-use — build a new pipeline"
            )
        self._consumed = True
        for batch in self._produce():
            self.rows_out += batch.num_rows
            if self.stats is not None:
                self.stats.observe(batch.num_rows)
            yield batch

    def _produce(self) -> Iterator[Table]:
        raise NotImplementedError


class BatchScan(BatchOperator):
    """Leaf operator: pulls a relation's batches from the database.

    Stream-attached relations are served straight from their batch factory
    (one fresh single pass, see :meth:`Database.scan_batches`); materialised
    relations arrive as a single batch.  A source that yields no batches at
    all still emits one empty batch carrying the relation's schema columns,
    so downstream operators always see the correct shape.
    """

    def __init__(self, database: Database, relation: str,
                 stats: Optional[PipelineStats] = None) -> None:
        super().__init__(stats)
        self.database = database
        self.relation = relation

    def _produce(self) -> Iterator[Table]:
        empty = True
        for batch in self.database.scan_batches(self.relation):
            empty = False
            yield batch
        if empty:
            rel = self.database.schema.relation(self.relation)
            yield Table.empty(rel.all_columns, name=self.relation)


class BatchFilter(BatchOperator):
    """Vectorised selection applied batch-by-batch.

    ``keep`` names the columns the rest of the plan reads (``None``: all);
    only those are copied through the selection mask.
    """

    def __init__(self, source: BatchOperator, predicate: DNFPredicate,
                 stats: Optional[PipelineStats] = None,
                 keep: Optional[AbstractSet[str]] = None) -> None:
        super().__init__(stats)
        self.source = source
        self.predicate = predicate
        self.keep = keep

    def _produce(self) -> Iterator[Table]:
        for batch in self.source:
            mask = batch.evaluate(self.predicate)
            kept = _kept(batch.column_names, self.keep) or batch.column_names[:1]
            out = batch.project(kept).select(mask)
            if self.stats is not None:
                self.stats.values += out.num_rows * len(kept)
            yield out


#: A build side whose primary keys span at most this many key values per
#: row is indexed directly, one slot per key value, so the slot array costs
#: at most 32 bytes per build row; sparser keys (or keys that repeat) use
#: the sorted index.
DENSE_SPAN_PER_ROW = 4


class HashJoinBuild:
    """The build side of a PK-FK join: a (filtered) dimension table indexed
    by primary key, built once per join and probed by every fact batch.

    The index is chosen from the keys themselves.  Dense unique keys (a
    span of at most :data:`DENSE_SPAN_PER_ROW` values per row — every
    regenerated and generated relation has keys ``1..N``) get a
    direct-address slot array, so a probe is one O(n) gather
    ``slots[fk - lo]``.  Sparse or repeated keys get a stable-sorted copy
    probed by vectorised binary search; a repeated key matches its first
    row in the table.
    """

    def __init__(self, table: Table, primary_key: str) -> None:
        self.table = table
        self.primary_key = primary_key
        pk = table.column(primary_key)
        self._direct = _direct_index(pk)
        if self._direct is None:
            self._order = np.argsort(pk, kind="stable")
            self._pk_sorted = pk[self._order]

    def _lookup(self, fks: np.ndarray) -> np.ndarray:
        """Build-side row of each foreign key, ``-1`` where no key matches."""
        if self._direct is not None:
            lo, slots = self._direct
            # FKs below ``lo`` wrap to huge unsigned offsets; every offset
            # past the span lands on the trailing -1 slot.
            offsets = (fks - lo).view(np.uint64)
            return slots[np.minimum(offsets, len(slots) - 1)]
        positions = np.searchsorted(self._pk_sorted, fks)
        positions = np.minimum(positions, len(self._pk_sorted) - 1)
        matched = self._pk_sorted[positions] == fks
        return np.where(matched, self._order[positions], -1)

    def probe(self, left: Table, fk_column: str,
              keep: Optional[AbstractSet[str]] = None) -> Table:
        """Join ``left`` rows whose ``fk_column`` matches a build-side key,
        carrying over every build-side column not already present.

        ``keep`` restricts the output to the named columns (``None``: all).
        When every row matches — the normal case under PK-FK integrity —
        the left batch's arrays are reused instead of copied.
        """
        if not left.has_column(fk_column):
            raise EngineError(
                f"intermediate result is missing foreign-key column {fk_column!r}"
            )
        rows = self._lookup(left.column(fk_column))
        kept = _kept(left.column_names, keep)
        carried = [c for c in _kept(self.table.column_names, keep)
                   if c != self.primary_key and not left.has_column(c)]
        if not (kept or carried):
            kept = list(left.column_names[:1])
        columns = {c: left.column(c) for c in kept}
        matched = rows >= 0
        if not matched.all():
            columns = {c: values[matched] for c, values in columns.items()}
            rows = rows[matched]
        for column in carried:
            columns[column] = self.table.column(column)[rows]
        return Table(columns, name=left.name)


def _direct_index(keys: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """``(lo, slots)`` with ``slots[k - lo]`` the row of key ``k`` (``-1``
    for a gap, plus one trailing ``-1`` slot for out-of-range probes), or
    ``None`` when the keys are too sparse or repeat."""
    lo = int(keys.min()) if len(keys) else 0
    span = int(keys.max()) - lo + 1 if len(keys) else 0
    if span > DENSE_SPAN_PER_ROW * len(keys):
        return None
    slots = np.full(span + 1, -1, dtype=np.int64)
    slots[keys - lo] = np.arange(len(keys))
    if np.count_nonzero(slots >= 0) < len(keys):
        return None
    return lo, slots


def _kept(columns: Sequence[str],
          keep: Optional[AbstractSet[str]]) -> List[str]:
    """The names of ``columns`` in ``keep`` (all of them when ``None``)."""
    return [c for c in columns if keep is None or c in keep]


class BatchHashJoin(BatchOperator):
    """PK-FK join: probes each fact-side batch against a prebuilt dimension
    side.  Every fact row matches at most one dimension row, so the join
    neither reorders nor duplicates probe rows — batch boundaries are
    preserved exactly.  ``keep`` is passed on to :meth:`HashJoinBuild.probe`.
    """

    def __init__(self, source: BatchOperator, fk_column: str,
                 build: HashJoinBuild,
                 stats: Optional[PipelineStats] = None,
                 keep: Optional[AbstractSet[str]] = None) -> None:
        super().__init__(stats)
        self.source = source
        self.fk_column = fk_column
        self.build = build
        self.keep = keep

    def _produce(self) -> Iterator[Table]:
        for batch in self.source:
            out = self.build.probe(batch, self.fk_column, self.keep)
            if self.stats is not None:
                reused = out.num_rows == batch.num_rows  # full match: no copy
                copied = sum(1 for c in out.column_names
                             if not (reused and batch.has_column(c)))
                self.stats.values += out.num_rows * copied
            yield out


# ---------------------------------------------------------------------- #
# sinks
# ---------------------------------------------------------------------- #
def collect(pipeline: BatchOperator) -> Table:
    """Drain the pipeline and concatenate its batches into one table."""
    # BatchScan always emits at least one (possibly empty) batch, which
    # Table.concat requires.
    return Table.concat(list(pipeline))


def drain(pipeline: BatchOperator) -> int:
    """Drain the pipeline, discarding batches; returns the emitted rows.

    This is the cardinality-accumulating sink of AQP collection: after
    draining, every operator's ``rows_out`` holds its annotation while peak
    memory stayed at one batch.
    """
    rows = 0
    for batch in pipeline:
        rows += batch.num_rows
    return rows


def count_predicates(pipeline: BatchOperator,
                     predicates: Sequence[DNFPredicate]) -> List[int]:
    """Drain the pipeline, accumulating per-predicate match counts.

    Evaluates every predicate against each batch as it streams past —
    equivalent to ``collect(pipeline).count(p)`` for each predicate, at one
    batch of peak memory.
    """
    counts = [0] * len(predicates)
    for batch in pipeline:
        for i, predicate in enumerate(predicates):
            counts[i] += batch.count(predicate)
    return counts
