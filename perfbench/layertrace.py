"""Per-layer timing for the traced benchmark run.

The program is not instrumented for this benchmark.  Instead, a traced run
wraps the public function each layer exposes (see ``_install``) for the
duration of the traced ops, and every wrapper records one span: its wall
time, minus the time of the wrapped calls nested inside it on the same
thread, is the layer's *self time*.  Spans are attributed to the benchmark
step that was running when they ended: a thread-local step (set around the
HTTP handlers) wins over the step the benchmark's own thread announced.
Untraced runs install nothing, so the end-to-end numbers pay no tracing
cost.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import (Callable, ContextManager, Dict, Iterator, List, Optional,
                    Tuple)


class _Frame:
    __slots__ = ("child_seconds",)

    def __init__(self) -> None:
        self.child_seconds = 0.0


class LayerTracer:
    """Collects per-layer self time and work counts of traced ops."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: The step the benchmark thread is running (sequential workloads).
        self.step: Optional[str] = None
        self.self_seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.step_walls: Dict[str, List[float]] = defaultdict(list)
        self.op_walls: List[float] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_step(self) -> str:
        return getattr(self._local, "step", None) or self.step or "other"

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def record_step(self, step: str, seconds: float) -> None:
        with self._lock:
            self.step_walls[step].append(seconds)

    def record_op(self, seconds: float) -> None:
        with self._lock:
            self.op_walls.append(seconds)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time one call into ``layer``; nested spans are subtracted."""
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1].child_seconds += elapsed
            key = (self.current_step(), layer)
            with self._lock:
                self.self_seconds[key] += elapsed - frame.child_seconds

    @contextmanager
    def thread_step(self, step: str) -> Iterator[None]:
        """Attribute this thread's spans to ``step`` (server handlers)."""
        previous = getattr(self._local, "step", None)
        self._local.step = step
        try:
            yield
        finally:
            self._local.step = previous

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def wrap(self, owner: object, name: str,
             enter: Optional[Callable[[], ContextManager]] = None,
             on_result: Optional[Callable[..., object]] = None) -> None:
        """Replace ``owner.name`` by a wrapper run inside ``enter()``.

        ``on_result(result, *args)`` counts work and may return a
        replacement result (e.g. a timed iterator).
        """
        original = getattr(owner, name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with enter() if enter is not None else nullcontext():
                result = original(*args, **kwargs)
            if on_result is not None:
                replaced = on_result(result, *args)
                if replaced is not None:
                    return replaced
            return result

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer's public calls for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)

    def _install(self) -> None:
        import repro.hydra.pipeline as pipeline
        import repro.lp.formulate as formulate
        import repro.lp.solver as solver
        import repro.server.http as http
        import repro.service.fingerprint as fingerprint
        import repro.service.service as service
        from repro.service.store import SummaryStore
        from repro.tuplegen.generator import TupleGenerator
        from repro.views.preprocess import Preprocessor

        count = self.count

        def layer(name: str) -> Callable[[], ContextManager]:
            return lambda: self.span(name)

        self.wrap(Preprocessor, "build_task", layer("views"),
                  lambda task, *_: count("views.subviews", len(task.subviews)))
        self.wrap(formulate, "partition_variables", layer("partition"),
                  lambda regions, *_: count("partition.regions", len(regions)))
        self.wrap(formulate, "shared_segments_from_constraints",
                  layer("partition"))
        self.wrap(pipeline, "formulate_view_lp", layer("formulate"),
                  lambda lp, *_: count("formulate.constraints",
                                       lp.model.num_constraints))
        for module in (pipeline, solver):
            self.wrap(module, "decompose_model", layer("decompose"),
                      lambda result, *_: count("decompose.components",
                                               len(result.components)))
        self.wrap(solver.ParallelLPSolver, "solve_many", layer("solve"))
        # Component solves run on the solver's worker threads, inside
        # solve_many's wall time: count outcomes only.
        self.wrap(solver.LPSolver, "solve", on_result=self._count_component)
        for name in ("subview_solutions", "merge_subview_solutions",
                     "instantiate_view_summary"):
            self.wrap(pipeline, name, layer("merge"))
        self.wrap(pipeline, "enforce_referential_consistency", layer("repair"),
                  lambda report, *_: count("repair.extra_tuples",
                                           report.total()))
        self.wrap(fingerprint, "workload_fingerprint", layer("fingerprint"))
        self.wrap(service.RegenerationService, "component_manifest",
                  layer("manifest"))
        self.wrap(service, "manifest_diff", layer("manifest"))
        for name in ("get_summary", "get_component"):
            self.wrap(SummaryStore, name, layer("store.get"), self._count_read)
        for name in ("put_summary", "put_component", "link_parent"):
            self.wrap(SummaryStore, name, layer("store.put"))
        self.wrap(TupleGenerator, "stream_range",
                  on_result=lambda batches, *_: self._timed_batches(batches))
        self.wrap(service.RegenerationService, "verify", layer("engine"))
        self.wrap(http, "ndjson_batch", layer("encode"),
                  lambda payload, *_: count("encode.bytes", len(payload)))
        self.wrap(http, "constraint_set_from_wire", layer("decode"))
        # The HTTP handlers run on server threads: attribute their spans to
        # the step the request belongs to.
        for method, step in (("do_POST", "summarize"), ("do_GET", "followup")):
            self.wrap(http._Handler, method,
                      functools.partial(self.thread_step, step))

    def _count_component(self, solution, *_args) -> None:
        self.count("solve.components_solved")
        if solution.max_violation <= 1e-9:
            self.count("solve.components_exact")

    def _count_read(self, result, *_args) -> None:
        self.count("store.reads")
        if result is not None:
            self.count("store.hits")

    def _timed_batches(self, batches: Iterator) -> Iterator:
        """Time each batch the generator produces as ``generate``."""
        try:
            while True:
                with self.span("generate"):
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                self.count("generate.rows", batch.num_rows)
                yield batch
        finally:
            batches.close()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def layer_seconds(self, layer: str) -> float:
        return sum(seconds for (_, name), seconds in self.self_seconds.items()
                   if name == layer)

    def covered_seconds(self, step: str) -> float:
        return sum(seconds for (s, _), seconds in self.self_seconds.items()
                   if s == step)

    def step_report(self, step: str) -> Dict[str, object]:
        """Wall, covered self time and the layers by self time, of a step."""
        wall = sum(self.step_walls.get(step, []))
        covered = self.covered_seconds(step)
        layers = sorted(
            ((name, seconds) for (s, name), seconds in self.self_seconds.items()
             if s == step and seconds > 0.0),
            key=lambda item: -item[1])
        return {
            "wall": wall,
            "covered": covered,
            "coverage": covered / wall if wall > 0 else 0.0,
            "layers": layers,
        }
