"""The benchmark's two workloads: drift epochs and HTTP serving.

Both workloads start from the same client side: a TPC-DS-like database at
fact scale 0.001 and dimension scale 0.02, and the cardinality constraints
(CCs) that the paper's simple workload WLs yields on it.  Each op has two
timed steps, ``summarize`` and ``followup``:

* ``wls-epochs``: ``resummarize`` of a seeded one-constraint drift of WLs
  against the previous epoch, then ``verify`` of the new epoch.
* ``wls-serve``: two HTTP clients in a closed loop; each sends several warm
  ``POST /v1/summarize`` requests per ``GET /v1/stream`` of its half of the
  largest relation.

The benchmark seed picks the drifts (and, for ``wls-serve``, which warm
epoch each summarize request names); the query workload is the paper's
fixed WLs.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.benchdata.datagen import generate_database
from repro.benchdata.tpcds import simple_workload, tpcds_schema
from repro.constraints.workload import ConstraintSet
from repro.hydra.client import extract_constraints
from repro.metrics.similarity import SimilarityReport, evaluate_on_summary
from repro.schema.schema import Schema
from repro.server import RegenerationServer, constraint_set_to_wire, ndjson_batch
from repro.service.service import RegenerationService
from repro.summary.relation_summary import DatabaseSummary
from repro.tuplegen.generator import TupleGenerator

from layertrace import LayerTracer

FACT_SCALE = 0.001
DIMENSION_SCALE = 0.02
DATAGEN_SEED = 1
#: Queries and query seed of the paper's simple workload WLs (the seed is
#: the benchmark-data default).
WLS_QUERIES, WLS_QUERY_SEED = 110, 13
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Upper bound on one blocking build or request, far above any op here.
TIMEOUT = 120.0
#: What a summary build spends outside the traced layers.
BUILD_GAP = ("service dispatch, build_relation_summary, and the summary's"
             " component keys and serialisation")


class CheckFailed(Exception):
    """A reply or result the benchmark found wrong."""


def client_constraints() -> Tuple[Schema, ConstraintSet, float]:
    """The client database and the CCs of WLs on it.

    Returns ``(schema, constraints, extract_seconds)``.
    """
    schema = tpcds_schema(scale_factor=FACT_SCALE,
                          dimension_scale=DIMENSION_SCALE)
    database = generate_database(schema, seed=DATAGEN_SEED)
    workload = simple_workload(schema, num_queries=WLS_QUERIES,
                               seed=WLS_QUERY_SEED)
    started = time.perf_counter()
    package = extract_constraints(database, workload, name="WLs")
    return schema, package.constraints, time.perf_counter() - started


class DriftPlan:
    """Seeded one-constraint drifts of a base workload.

    Each drift raises the cardinality of one query CC (never a relation-size
    CC) by 1 to 3 rows.  Drifts only raise cardinalities and no drift
    repeats, so every drifted workload is new to the store and
    ``resummarize`` has a component to solve.
    """

    def __init__(self, base: ConstraintSet, seed: int) -> None:
        self.base = base
        self._choices = [(index, delta)
                         for index, cc in enumerate(base.constraints)
                         if cc.query_id for delta in (1, 2, 3)]
        random.Random(seed).shuffle(self._choices)

    def next(self) -> ConstraintSet:
        """The next drift of the base workload."""
        index, delta = self._choices.pop()
        constraints = list(self.base.constraints)
        constraints[index] = replace(
            constraints[index],
            cardinality=constraints[index].cardinality + delta)
        return ConstraintSet(constraints,
                             name=f"{self.base.name}+cc{index}{delta:+d}")


def fidelity(report: SimilarityReport,
             summary: DatabaseSummary) -> Dict[str, float]:
    """How faithful a summary is to the CCs it was built from.

    A CC is *within bound* when its error is at most the referential-repair
    tuples added to its relation (the additive error of Section 5.3).
    """
    results = report.results
    exact = sum(1 for r in results if r.actual == r.expected)
    within = sum(1 for r in results
                 if abs(r.actual - r.expected)
                 <= summary.extra_tuples.get(r.constraint.relation, 0))
    return {
        "cc_exact_fraction": exact / len(results),
        "cc_within_bound_fraction": within / len(results),
        "extra_tuples": float(sum(summary.extra_tuples.values())),
        "summary_bytes": float(summary.nbytes()),
    }


class Workload:
    """Shared op loop, step timing and failure accounting."""

    name = ""
    #: What each timed step is, on this workload.
    steps: Dict[str, str] = {}
    #: What a step spends the time no traced layer covers on.
    gaps: Dict[str, str] = {}
    #: Whether ``followup`` is an HTTP stream (``socket.s`` applies).
    streams = False
    #: Ops of each phase of a traced run (per client, for concurrent ones).
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.samples: Dict[str, List[float]] = {"summarize": [], "followup": []}
        self.attempted = 0
        self.failures: List[str] = []
        self.fidelity: Dict[str, float] = {}
        #: Extra human-readable report lines (p90s, throughput).
        self.notes: List[str] = []
        self.tracer: Optional[LayerTracer] = None
        self._lock = threading.Lock()

    # set-up and the op, per workload --------------------------------- #
    def setup(self) -> float:
        """Build the workload's inputs; returns the CC extraction seconds."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started (no-op before set-up)."""

    def op(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Once-per-run correctness checks and the fidelity metrics."""
        raise NotImplementedError

    # shared machinery ------------------------------------------------ #
    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)
        print(f"[{self.name}] check failed: {message}", file=sys.stderr)

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir))

    @contextmanager
    def step(self, name: str, announce: bool = True) -> Iterator[None]:
        """Time one step; ``announce`` attributes this thread's layer spans
        to it (off when concurrent clients run different steps)."""
        tracer = self.tracer
        if tracer is not None and announce:
            tracer.step = name
        started = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None and announce:
                tracer.step = None
        with self._lock:
            self.samples[name].append(elapsed)
        if tracer is not None:
            tracer.record_step(name, elapsed)

    def count_service(self, service: RegenerationService,
                      before: Dict[str, int]) -> None:
        """Credit the service's own solver, executor and store counters to
        the traced layers (deltas since ``before``)."""
        if self.tracer is None:
            return
        after = service.stats()
        for key, name in (("solver_cache_hits", "solve.cache_hits"),
                          ("executor_batches", "engine.batches"),
                          ("store_bytes", "store.bytes_written")):
            self.tracer.count(name, after[key] - before.get(key, 0))

    def measure(self, seconds: float, tracer: Optional[LayerTracer] = None,
                ops: Optional[int] = None) -> None:
        """Run ops back to back for ``seconds``, or exactly ``ops`` of them.

        In a timed run an op starts while less than ``seconds`` have
        passed, so at least one op runs.
        """
        self.tracer = tracer
        try:
            self._loop(seconds, ops, self.op, "op")
        finally:
            self.tracer = None

    def _loop(self, seconds: float, ops: Optional[int],
              op: Callable[[], None], label: str) -> None:
        """Run ``op`` until the time or op budget is spent; an op that
        raises is a failure and ends the loop."""
        started = time.perf_counter()
        done = 0
        while (done < ops if ops is not None
               else time.perf_counter() - started < seconds):
            with self._lock:
                self.attempted += 1
            op_started = time.perf_counter()
            try:
                op()
            except Exception as error:
                traceback.print_exc(file=sys.stderr)
                self.fail(f"{label} raised {type(error).__name__}: {error}")
                return
            done += 1
            if self.tracer is not None:
                self.tracer.record_op(time.perf_counter() - op_started)


class DriftEpochs(Workload):
    """Each op drifts WLs by one CC, resummarizes against the previous
    epoch and verifies the new epoch; once per run the last drift epoch is
    checked against a cold build of its workload."""

    name = "wls-epochs"
    trace_ops = 8
    steps = {"summarize": "drift resummarize of WLs against the previous"
                          " epoch",
             "followup": "verify of the new epoch through the pipelined"
                         " engine"}
    gaps = {"summarize": BUILD_GAP,
            "followup": "executor set-up around verify's batches"}

    service: Optional[RegenerationService] = None

    def setup(self) -> float:
        self.schema, self.ccs, extract_seconds = client_constraints()
        self.service = RegenerationService(self.schema,
                                           store=str(self.fresh_dir()))
        self.service.summarize(self.ccs, timeout=TIMEOUT)
        self.epoch = self.service.fingerprint(self.ccs)
        self.drifts = DriftPlan(self.ccs, self.seed)
        self.epoch_fidelity: List[Dict[str, float]] = []
        #: ``(drifted workload, its drift epoch)`` of the last op.
        self.last: Optional[Tuple[ConstraintSet, DatabaseSummary]] = None
        return extract_seconds

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def op(self) -> None:
        service = self.service
        drifted = self.drifts.next()
        before = service.stats()
        with self.step("summarize"):
            report = service.resummarize(self.epoch, drifted, timeout=TIMEOUT)
        with self.step("followup"):
            verified = service.verify(report.fingerprint, drifted)
        self.count_service(service, before)
        self.epoch = report.fingerprint
        expected = evaluate_on_summary(drifted, report.summary, self.schema)
        if ([r.actual for r in verified.results]
                != [r.actual for r in expected.results]):
            self.fail(f"verify of {drifted.name} disagrees with"
                      " evaluate_on_summary")
        self.epoch_fidelity.append(fidelity(verified, report.summary))
        self.last = (drifted, report.summary)

    def check(self) -> None:
        if self.last is not None:
            drifted, epoch = self.last
            store = self.fresh_dir()
            with RegenerationService(self.schema, store=str(store)) as service:
                cold = service.summarize(drifted, timeout=TIMEOUT)
            shutil.rmtree(store)
            if cold.content_digest() != epoch.content_digest():
                self.fail(f"drift epoch of {drifted.name} differs from its"
                          " cold build")
        if self.epoch_fidelity:
            self.fidelity = {
                key: statistics.median(f[key] for f in self.epoch_fidelity)
                for key in self.epoch_fidelity[0]}
        samples = self.samples["summarize"]
        if len(samples) >= 100:
            self.notes.append(
                "resummarize_s_p90 = "
                f"{statistics.quantiles(samples, n=10)[-1]:.6f} s"
                f" (n={len(samples)})")


class WarmServing(Workload):
    name = "wls-serve"
    steps = {"summarize": "warm POST /v1/summarize of a WLs epoch",
             "followup": "GET /v1/stream of one half of the largest"
                         " relation"}
    gaps = {"summarize": "request parsing, the JSON reply, the socket and"
                         " interpreter-lock wait behind the other client's"
                         " stream",
            "followup": "socket write and read, and interpreter-lock wait"
                        " (reported as socket.s)"}
    streams = True
    trace_ops = 3
    clients = 2
    summarizes_per_stream = 10
    #: Warm drift epochs the summarize requests pick from, besides WLs.
    drift_epochs = 2

    server: Optional[RegenerationServer] = None
    service: Optional[RegenerationService] = None

    def setup(self) -> float:
        self.schema, self.ccs, extract_seconds = client_constraints()
        store = str(self.fresh_dir())
        drifts = DriftPlan(self.ccs, self.seed)
        epochs = [self.ccs] + [drifts.next() for _ in range(self.drift_epochs)]
        with RegenerationService(self.schema, store=store) as builder:
            self.summary = builder.summarize(self.ccs, timeout=TIMEOUT)
            self.base = builder.fingerprint(self.ccs)
            for drifted in epochs[1:]:
                builder.resummarize(self.base, drifted, timeout=TIMEOUT)
            self.fingerprints = [builder.fingerprint(w) for w in epochs]
        self.bodies = [json.dumps({"workload": constraint_set_to_wire(w)})
                       .encode("utf-8") for w in epochs]
        relations = self.summary.relations
        self.relation = max(
            relations, key=lambda name: relations[name].total_rows())
        self.shards: Dict[int, bytes] = {}
        self.rows_streamed = 0
        self.stream_window = 0.0
        # A fresh service: it has never solved anything, so any LP solve
        # while serving shows in its counters.
        self.service = RegenerationService(self.schema, store=store)
        self.server = RegenerationServer(
            self.service, max_connections=2 * self.clients).start()
        return extract_seconds

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def measure(self, seconds: float, tracer: Optional[LayerTracer] = None,
                ops: Optional[int] = None) -> None:
        self.tracer = tracer
        started = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(index, seconds, ops),
                                    name=f"bench-client-{index}")
                   for index in range(self.clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self.tracer = None
        self.stream_window += time.perf_counter() - started

    def _client(self, index: int, seconds: float,
                ops: Optional[int]) -> None:
        rng = random.Random(self.seed * self.clients + index)
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=TIMEOUT)
        shard = f"{index + 1}/{self.clients}"
        path = f"/v1/stream/{self.base}/{self.relation}?shard={shard}"

        def cycle() -> None:
            for _ in range(self.summarizes_per_stream):
                epoch = rng.randrange(len(self.bodies))
                with self.step("summarize", announce=False):
                    connection.request(
                        "POST", "/v1/summarize", body=self.bodies[epoch],
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    reply = response.read()
                payload = json.loads(reply)
                if (response.status != 200 or payload.get("warm") is not True
                        or payload.get("fingerprint")
                        != self.fingerprints[epoch]):
                    raise CheckFailed(
                        f"summarize answered {response.status}: {payload}")
            with self.step("followup", announce=False):
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
            if response.status != 200:
                raise CheckFailed(f"stream answered {response.status}")
            first = self.shards.setdefault(index, body)
            if body != first:
                raise CheckFailed(f"shard {shard} changed between streams")
            with self._lock:
                self.rows_streamed += int(
                    response.getheader("X-Repro-Shard-Rows"))

        try:
            self._loop(seconds, ops, cycle, f"client {index}")
        finally:
            connection.close()

    def check(self) -> None:
        solved = self.service.stats()["solver_components_solved"]
        if solved:
            self.fail(f"the serving service solved {solved} LP components")
        if len(self.shards) == self.clients:
            whole = ndjson_batch(TupleGenerator(
                self.summary.relation(self.relation)).materialize())
            streamed = b"".join(self.shards[i] for i in range(self.clients))
            if streamed != whole:
                self.fail(f"the {self.clients} shards of {self.relation} do"
                          " not concatenate to ndjson_batch(materialize())")
        self.fidelity = fidelity(
            evaluate_on_summary(self.ccs, self.summary, self.schema),
            self.summary)
        samples = self.samples["summarize"]
        if len(samples) >= 100:
            self.notes.append(
                "summarize_warm_ms_p90 = "
                f"{1e3 * statistics.quantiles(samples, n=10)[-1]:.3f} ms"
                f" (n={len(samples)})")
        streams = self.samples["followup"]
        if streams and self.stream_window > 0:
            self.notes.append(
                f"stream_rows_per_s = {self.rows_streamed / self.stream_window:.1f}"
                f" ({self.rows_streamed} rows of {self.relation} over"
                f" {self.stream_window:.3f} s, {len(streams)} streams,"
                f" {self.clients} clients)")


WORKLOADS = {cls.name: cls for cls in (DriftEpochs, WarmServing)}
