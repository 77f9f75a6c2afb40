"""The HTTP serving front-end: a network face for :class:`RegenerationService`.

``RegenerationServer`` wraps a running service in a threaded stdlib HTTP
server (one thread per connection, no third-party dependencies) so the
paper's regenerate-on-demand loop works across a socket:

* ``POST /v1/summarize`` — submit a workload (the wire form of
  :mod:`repro.server.wire`); warm fingerprints resolve without touching the
  LP solver, cold ones go through the service's weighted-fair admission
  queue under the request's ``tenant`` tag.  Admission rejection maps to
  **429**, a draining/closed service to **503**, and a cold request against
  a ``require_warm`` server to **409** — the HTTP spelling of the CLI's
  ``--require-warm`` exit 3;
* ``POST /v1/resummarize`` — incremental re-summarization of a drifted
  workload against a warm base epoch (``base_fingerprint`` + the wire
  workload): unchanged constraint-graph components reuse their cached
  solutions verbatim and only the delta is solved before stitching.  An
  unknown base fingerprint answers **404** (resummarize never cold-builds
  the base) and a ``require_warm`` server answers **409** for a cold
  *drifted* epoch — the same contracts as ``/v1/stream`` and
  ``/v1/summarize``;
* ``GET /v1/stream/<fingerprint>/<relation>`` — the regenerated relation as
  chunked NDJSON, one JSON object per tuple, produced batch-at-a-time by
  :meth:`TupleGenerator.stream_range` so the tuple stream is never
  materialised on either side of the socket.  ``?shard=i/n`` hands parallel
  clients disjoint contiguous row ranges whose concatenation is
  byte-identical to the whole relation;
* ``GET /v1/stats`` — the service's :class:`ServiceStats` as JSON;
* ``GET /metrics`` — the service registry in Prometheus text exposition
  format;
* ``GET /healthz`` — liveness (503 while draining).

Requests may carry an ``X-Repro-Trace-Id`` header: the server then records
its ``server.request`` span — and every service/store/solver span nested
under it — in that trace, so one trace id follows a request across the
socket.  The response echoes the header either way.

Shutdown is graceful: :meth:`RegenerationServer.shutdown` stops accepting
connections, refuses new work with 503, waits for in-flight requests —
streams included — to drain, and only then closes the listener; stream
cursors release their store pins on the way out (abrupt client disconnects
release them immediately, and the service's idle-cursor reaper backstops
readers that die without closing the socket).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SummaryError,
)
from repro.obs.logging import get_logger
from repro.obs.trace import Span, get_tracer
from repro.server.wire import (
    RequestTooLargeError,
    WireFormatError,
    constraint_set_from_wire,
    ndjson_batch,
    parse_shard,
    shard_bounds,
)
from repro.service.service import DEFAULT_TENANT, RegenerationService
from repro.tuplegen.generator import DEFAULT_BATCH_SIZE

logger = get_logger("server")

#: Request/response header carrying the trace id across the socket.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Optional request header naming the client's span the server span nests under.
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"

#: NDJSON content type of the streaming endpoint.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Default cap on request bodies (64 MiB — a wire workload is a few KB;
#: anything near this bound is a client bug).  Override per server with the
#: ``max_request_bytes`` knob; oversized bodies answer **413**.
MAX_BODY_BYTES = 64 * 1024 * 1024


def read_json_body(handler: BaseHTTPRequestHandler,
                   max_bytes: int = MAX_BODY_BYTES) -> Dict[str, object]:
    """Read one JSON object request body, bounded by ``max_bytes``.

    Shared by the serving front-end and the cluster's ``StoreServer`` so
    every repro HTTP endpoint enforces the same body cap.  Raises
    :class:`RequestTooLargeError` (→ 413) when the declared length exceeds
    the cap and :class:`WireFormatError` (→ 400) on everything else.  The
    read itself is bounded by the *declared* length, so a client that lies
    short simply fails JSON parsing — it can never make the server buffer
    more than ``max_bytes``.
    """
    length_header = handler.headers.get("Content-Length")
    if length_header is None:
        raise WireFormatError("a Content-Length request body is required")
    try:
        length = int(length_header)
    except ValueError:
        raise WireFormatError("bad Content-Length") from None
    if length < 0:
        raise WireFormatError("bad Content-Length")
    if length > max_bytes:
        raise RequestTooLargeError(
            f"request body of {length} bytes exceeds the"
            f" {max_bytes}-byte limit")
    raw = handler.rfile.read(length)
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"request body is not JSON: {error}") from None
    if not isinstance(body, dict):
        raise WireFormatError("request body must be a JSON object")
    return body


class _HTTPServer(ThreadingHTTPServer):
    """One thread per connection; never blocks process exit on stragglers."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    app: "RegenerationServer"


class RegenerationServer:
    """Threaded HTTP front-end over one :class:`RegenerationService`.

    Parameters
    ----------
    service:
        The (already constructed) serving back-end.  Its metrics registry
        gains the ``repro_server_*`` series, so one ``/metrics`` scrape
        covers server, service, store and solver.
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (the bound
        address is available as :attr:`host` / :attr:`port` after
        construction — the socket is bound in ``__init__``).
    max_connections:
        Cap on concurrently *in-flight* requests (streams count for their
        whole duration); excess requests are refused with 503 +
        ``Retry-After`` rather than queued behind a stuck stream.
    request_timeout:
        Socket timeout per connection and the default wait bound of
        blocking ``summarize`` requests (a slower build answers 504; the
        build itself keeps running and a retry picks it up via
        single-flight dedup).
    require_warm:
        Refuse cold workloads with 409 instead of running the pipeline —
        the HTTP spelling of ``serve --require-warm``.
    default_batch_size:
        Tuples per streamed NDJSON chunk when the client does not pass
        ``?batch_size=``.
    max_request_bytes:
        Cap on request body size; an oversized submit answers **413**
        (counted in ``repro_server_requests_total{code="413"}``) instead of
        ballooning server memory.
    """

    def __init__(self, service: RegenerationService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_connections: int = 64,
                 request_timeout: float = 30.0,
                 require_warm: bool = False,
                 default_batch_size: int = DEFAULT_BATCH_SIZE,
                 max_request_bytes: int = MAX_BODY_BYTES) -> None:
        if max_connections < 1:
            raise ServiceError("max_connections must be at least 1")
        if request_timeout <= 0:
            raise ServiceError("request_timeout must be positive")
        if default_batch_size < 1:
            raise ServiceError("default_batch_size must be at least 1")
        if max_request_bytes < 1:
            raise ServiceError("max_request_bytes must be at least 1")
        self.service = service
        self.require_warm = require_warm
        self.request_timeout = float(request_timeout)
        self.max_connections = max_connections
        self.default_batch_size = default_batch_size
        self.max_request_bytes = max_request_bytes
        self._state = threading.Condition()
        self._active = 0
        self._draining = False
        self._closed = False
        self._serve_thread: Optional[threading.Thread] = None
        registry = service.registry
        self._requests_total = registry.counter(
            "repro_server_requests_total",
            "HTTP requests served, by endpoint and status code",
            labelnames=("endpoint", "code"))
        self._g_active = registry.gauge(
            "repro_server_active_requests",
            "HTTP requests currently in flight (streams for their whole"
            " duration)")
        self._h_request = registry.histogram(
            "repro_server_request_seconds",
            "HTTP request latency, first byte in to last byte out",
            labelnames=("endpoint",))
        self._rows_streamed = registry.counter(
            "repro_server_rows_streamed_total",
            "Tuples written to NDJSON stream responses")
        self._bytes_sent = registry.counter(
            "repro_server_bytes_sent_total",
            "Response body bytes written (JSON and NDJSON)")
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address[:2]
        logger.info("http server bound on %s:%d (require_warm=%s)",
                    self.host, self.port, require_warm)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """``True`` once shutdown started (new work is refused with 503)."""
        with self._state:
            return self._draining

    def active_requests(self) -> int:
        """Requests currently in flight."""
        with self._state:
            return self._active

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` is called (blocking)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "RegenerationServer":
        """Serve on a background thread; returns ``self``."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="repro-http", daemon=True)
            self._serve_thread.start()
        return self

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful stop: refuse new work, drain in-flight requests, close.

        In-flight streams run to completion (bounded by ``drain_timeout``,
        defaulting to ``request_timeout``); their cursors release the store
        pins on the way out.  Idempotent and callable from any thread except
        one inside :meth:`serve_forever`.
        """
        with self._state:
            if self._closed:
                return
            self._draining = True
        self._httpd.shutdown()  # stop accepting; returns when the loop exits
        limit = self.request_timeout if drain_timeout is None else drain_timeout
        with self._state:
            drained = self._state.wait_for(lambda: self._active == 0, limit)
            self._closed = True
        if not drained:  # pragma: no cover - only on pathological streams
            logger.warning("shutdown proceeded with %d requests still in"
                           " flight after %.1fs drain", self.active_requests(),
                           limit)
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        logger.info("http server on %s:%d closed", self.host, self.port)

    def __enter__(self) -> "RegenerationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # request accounting (called from handler threads)
    # ------------------------------------------------------------------ #
    def _begin_request(self) -> str:
        """Admit one request: ``"ok"``, ``"draining"`` or ``"busy"``."""
        with self._state:
            if self._draining:
                return "draining"
            if self._active >= self.max_connections:
                return "busy"
            self._active += 1
        self._g_active.inc()
        return "ok"

    def _end_request(self) -> None:
        with self._state:
            self._active -= 1
            self._state.notify_all()
        self._g_active.dec()

    def _observe(self, endpoint: str, code: int, seconds: float) -> None:
        self._requests_total.labels(endpoint=endpoint, code=str(code)).inc()
        self._h_request.labels(endpoint=endpoint).observe(seconds)


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests onto the owning server's service."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # Set per-connection from the server knob before the socket is used.
    def setup(self) -> None:
        self.timeout = self.server.app.request_timeout
        super().setup()
        self._trace_id: Optional[str] = None

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #
    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        app: RegenerationServer = self.server.app
        parsed = urlsplit(self.path)
        segments = [unquote(s) for s in parsed.path.split("/") if s]
        query = parse_qs(parsed.query)
        endpoint, handler = self._dispatch(method, segments)
        started = time.perf_counter()

        # `/healthz` stays ungated so load balancers see "draining" rather
        # than a connection refusal mid-shutdown.
        if endpoint != "healthz":
            admission = app._begin_request()
            if admission != "ok":
                code = 503
                body = {"error": "server is draining" if admission == "draining"
                        else f"{app.max_connections} requests already in"
                        " flight", "status": admission}
                self._send_json(code, body, extra=(("Retry-After", "1"),))
                app._observe(endpoint, code, time.perf_counter() - started)
                return
        try:
            code = self._traced(endpoint, handler, segments, query)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            # The client went away mid-response; nothing left to send.
            code = 499
            self.close_connection = True
            logger.info("client disconnected during %s", endpoint)
        except Exception as error:  # last-resort 500, connection kept sane
            code = 500
            self.close_connection = True
            logger.error("unhandled error serving %s: %s", endpoint, error)
        finally:
            if endpoint != "healthz":
                app._end_request()
            app._observe(endpoint, code, time.perf_counter() - started)

    def _dispatch(self, method: str, segments: list) -> Tuple[str, object]:
        if segments == ["healthz"] and method == "GET":
            return "healthz", self._do_healthz
        if segments == ["metrics"] and method == "GET":
            return "metrics", self._do_metrics
        if segments == ["v1", "stats"] and method == "GET":
            return "stats", self._do_stats
        if segments == ["v1", "summarize"] and method == "POST":
            return "summarize", self._do_summarize
        if segments == ["v1", "resummarize"] and method == "POST":
            return "resummarize", self._do_resummarize
        if (len(segments) == 4 and segments[:2] == ["v1", "stream"]
                and method == "GET"):
            return "stream", self._do_stream
        return "unknown", self._do_unknown

    def _traced(self, endpoint: str, handler: object, segments: list,
                query: Dict[str, list]) -> int:
        """Run one routed request inside a ``server.request`` span.

        A client-supplied ``X-Repro-Trace-Id`` forces recording into that
        trace (the client already made the sampling decision); otherwise the
        process tracer's own sampling applies.  The span is *current* while
        the handler runs, so service/store/solver spans nest under it and
        the whole tree shares the client's trace id.
        """
        tracer = get_tracer()
        incoming = self.headers.get(TRACE_HEADER)
        if incoming:
            span = Span(tracer, "server.request", incoming,
                        self.headers.get(PARENT_SPAN_HEADER) or None,
                        {"endpoint": endpoint, "method": self.command})
            self._trace_id = incoming
        else:
            span = tracer.start_span("server.request", endpoint=endpoint,
                                     method=self.command)
            self._trace_id = getattr(span, "trace_id", None)
        with span:
            code = handler(segments, query)
            span.set_attribute("status", code)
        return code

    # -------------------------------------------------------------- #
    # response plumbing
    # -------------------------------------------------------------- #
    def _std_headers(self) -> None:
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)

    def _send_json(self, code: int, payload: Dict[str, object],
                   extra: Iterable[Tuple[str, str]] = ()) -> int:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra:
            self.send_header(name, value)
        self._std_headers()
        self.end_headers()
        self.wfile.write(body)
        self.server.app._bytes_sent.inc(len(body))
        return code

    def _send_text(self, code: int, text: str, content_type: str) -> int:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self._std_headers()
        self.end_headers()
        self.wfile.write(body)
        self.server.app._bytes_sent.inc(len(body))
        return code

    def _error(self, code: int, message: str, **extra_fields: object) -> int:
        payload: Dict[str, object] = {"error": message}
        payload.update(extra_fields)
        headers = (("Retry-After", "1"),) if code in (429, 503) else ()
        return self._send_json(code, payload, extra=headers)

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #
    def _do_unknown(self, segments: list, query: Dict[str, list]) -> int:
        return self._error(404, f"no route for {self.command}"
                                f" /{'/'.join(segments)}")

    def _do_healthz(self, segments: list, query: Dict[str, list]) -> int:
        app = self.server.app
        draining = app.draining
        payload = {
            "status": "draining" if draining else "ok",
            "engine": app.service.engine,
            "active_requests": app.active_requests(),
            "require_warm": app.require_warm,
        }
        return self._send_json(503 if draining else 200, payload)

    def _do_metrics(self, segments: list, query: Dict[str, list]) -> int:
        text = self.server.app.service.registry.to_prometheus()
        return self._send_text(200, text, "text/plain; version=0.0.4")

    def _do_stats(self, segments: list, query: Dict[str, list]) -> int:
        stats = self.server.app.service.service_stats()
        payload = {
            "counters": stats.counters,
            "queue_depth": stats.queue_depth,
            "tenants": [asdict(row) for row in stats.tenants],
        }
        return self._send_json(200, payload)

    def _do_summarize(self, segments: list, query: Dict[str, list]) -> int:
        app = self.server.app
        service = app.service
        try:
            body = self._read_json_body()
            workload = constraint_set_from_wire(body.get("workload"))
            relations = body.get("relations")
            if relations is not None and not isinstance(relations, list):
                raise WireFormatError("'relations' must be a list or null")
            tenant = str(body.get("tenant", DEFAULT_TENANT))
            wait = bool(body.get("wait", True))
            timeout = float(body.get("timeout", app.request_timeout))
        except RequestTooLargeError as error:
            return self._error(413, str(error))
        except WireFormatError as error:
            return self._error(400, str(error))
        fingerprint = service.fingerprint(workload, relations)
        if app.require_warm and not service.store.has_summary(fingerprint):
            return self._error(
                409, "fingerprint is not in the store and this server refuses"
                     " to run the pipeline (require_warm)",
                fingerprint=fingerprint)
        try:
            ticket = service.submit(workload, relations, tenant=tenant)
        except ServiceOverloadedError as error:
            return self._error(429, str(error), fingerprint=fingerprint)
        except ServiceClosedError as error:
            return self._error(503, str(error), fingerprint=fingerprint)
        payload: Dict[str, object] = {
            "fingerprint": ticket.fingerprint,
            "warm": ticket.warm,
            "tenant": ticket.tenant,
            "engine": service.engine,
        }
        if not wait:
            payload["status"] = "done" if ticket.done() else "building"
            return self._send_json(202, payload)
        try:
            summary = ticket.result(timeout)
        except ServiceError as error:
            return self._error(504, f"build did not finish within {timeout}s:"
                                    f" {error}", fingerprint=fingerprint)
        except ReproError as error:
            return self._error(500, f"{type(error).__name__}: {error}",
                               fingerprint=fingerprint)
        payload.update({
            "status": "done",
            "total_rows": int(summary.total_rows()),
            "summary_bytes": int(summary.nbytes()),
            "relations": {name: int(rel.total_rows())
                          for name, rel in sorted(summary.relations.items())},
        })
        return self._send_json(200, payload)

    def _do_resummarize(self, segments: list, query: Dict[str, list]) -> int:
        app = self.server.app
        service = app.service
        try:
            body = self._read_json_body()
            base_fingerprint = body.get("base_fingerprint")
            if not isinstance(base_fingerprint, str) or not base_fingerprint:
                raise WireFormatError(
                    "'base_fingerprint' must be a non-empty string")
            workload = constraint_set_from_wire(body.get("workload"))
            relations = body.get("relations")
            if relations is not None and not isinstance(relations, list):
                raise WireFormatError("'relations' must be a list or null")
            tenant = str(body.get("tenant", DEFAULT_TENANT))
            timeout = float(body.get("timeout", app.request_timeout))
        except RequestTooLargeError as error:
            return self._error(413, str(error))
        except WireFormatError as error:
            return self._error(400, str(error))
        if not service.store.has_summary(base_fingerprint):
            # Resummarize never cold-builds the base epoch: an unknown base
            # is the same 404 an unknown stream fingerprint answers.
            return self._error(404, "base fingerprint is not in the store;"
                                    " summarize the base workload first",
                               base_fingerprint=base_fingerprint)
        fingerprint = service.fingerprint(workload, relations)
        if app.require_warm and not service.store.has_summary(fingerprint):
            return self._error(
                409, "drifted fingerprint is not in the store and this server"
                     " refuses to run the pipeline (require_warm)",
                fingerprint=fingerprint, base_fingerprint=base_fingerprint)
        try:
            report = service.resummarize(base_fingerprint, workload,
                                         relations, tenant=tenant,
                                         timeout=timeout)
        except ServiceOverloadedError as error:
            return self._error(429, str(error), fingerprint=fingerprint)
        except ServiceClosedError as error:
            return self._error(503, str(error), fingerprint=fingerprint)
        except ServiceError as error:
            return self._error(504, f"build did not finish within {timeout}s:"
                                    f" {error}", fingerprint=fingerprint)
        except ReproError as error:
            return self._error(500, f"{type(error).__name__}: {error}",
                               fingerprint=fingerprint)
        summary = report.summary
        payload: Dict[str, object] = {
            "status": "done",
            "fingerprint": report.fingerprint,
            "parent_fingerprint": report.parent_fingerprint,
            "warm": report.warm,
            "tenant": tenant,
            "engine": service.engine,
            "components_total": report.total_components,
            "components_reused": len(report.reused_components),
            "components_solved": len(report.solved_components),
            "components_retired": len(report.retired_components),
            "content_digest": summary.content_digest(),
            "total_rows": int(summary.total_rows()),
            "summary_bytes": int(summary.nbytes()),
            "relations": {name: int(rel.total_rows())
                          for name, rel in sorted(summary.relations.items())},
        }
        return self._send_json(200, payload)

    def _do_stream(self, segments: list, query: Dict[str, list]) -> int:
        app = self.server.app
        service = app.service
        fingerprint, relation = segments[2], segments[3]
        try:
            shard_index, shard_count = parse_shard(
                query.get("shard", ["1/1"])[0])
            batch_size = int(query.get("batch_size",
                                       [app.default_batch_size])[0])
            if batch_size < 1:
                raise WireFormatError("batch_size must be at least 1")
            tenant = query.get("tenant", [DEFAULT_TENANT])[0]
        except (WireFormatError, ValueError) as error:
            return self._error(400, str(error))
        try:
            total_rows = service.total_rows(fingerprint, relation)
            start_row, stop_row = shard_bounds(total_rows, shard_index,
                                               shard_count)
            cursor = service.stream(fingerprint, relation,
                                    batch_size=batch_size,
                                    start_row=start_row, stop_row=stop_row,
                                    tenant=tenant)
        except (SummaryError, ServiceError) as error:
            # Unknown fingerprint (store-only resolution) or unknown relation.
            return self._error(404, str(error), fingerprint=fingerprint,
                               relation=relation)
        shard_rows = max(0, (stop_row or 0) - start_row + 1)
        try:
            self.send_response(200)
            self.send_header("Content-Type", NDJSON_CONTENT_TYPE)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("X-Repro-Total-Rows", str(total_rows))
            self.send_header("X-Repro-Shard-Rows", str(shard_rows))
            self.send_header("X-Repro-Shard",
                             f"{shard_index}/{shard_count}")
            self._std_headers()
            self.end_headers()
            sent = 0
            tracer = get_tracer()
            for batch in cursor:
                with tracer.span("server.encode",
                                 rows=batch.num_rows) as encode:
                    payload = ndjson_batch(batch)
                    encode.set_attribute("bytes", len(payload))
                if payload:
                    self._write_chunk(payload)
                    sent += len(payload)
                    app._rows_streamed.inc(batch.num_rows)
            self.wfile.write(b"0\r\n\r\n")
            app._bytes_sent.inc(sent)
            return 200
        finally:
            # Exhausted cursors already released their pin; this covers the
            # disconnect/error paths (and is a no-op otherwise).
            cursor.close()

    # -------------------------------------------------------------- #
    # helpers
    # -------------------------------------------------------------- #
    def _write_chunk(self, payload: bytes) -> None:
        self.wfile.write(f"{len(payload):x}\r\n".encode("ascii"))
        self.wfile.write(payload)
        self.wfile.write(b"\r\n")

    def _read_json_body(self) -> Dict[str, object]:
        return read_json_body(self, self.server.app.max_request_bytes)
