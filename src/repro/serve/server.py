"""The persistent compile/simulate daemon: ``python -m repro serve``.

A stdlib-only JSON-over-HTTP service on a TCP port or unix socket that
accepts :class:`~repro.exec.workload.WorkloadSpec`-shaped submits and runs
them through the existing compile-cache / fork-pool machinery:

* ``POST /v1/workload`` — body ``{"requests": [...]}`` (or a bare list);
  each request may add an integer ``"priority"`` override.  Responds with
  the per-request rows once every row has executed; rejects the *whole*
  submit with 429 (queue full), 413 (oversized batch or body) or 503
  (draining).
* ``GET  /healthz`` — liveness: status, queue depth, in-flight gauge.
* ``GET  /metrics`` — counters, per-kind latency histograms, queue-wait
  histogram and the merged compile-cache statistics (see
  :mod:`repro.serve.metrics`).

The front end is one :class:`asyncio.Protocol` per connection.  Its
``data_received`` appends to one buffer and, in a loop, takes each whole
request off it, checking every limit as the bytes arrive.  An inline
submit (below) is answered inside that loop with one ``transport.write``;
a queued one gets one task, which writes the reply once the rows are done
and then resumes the loop.  So pipelined requests are answered one at a
time, in order, and a client may half-close after its request.

A request that sends ``Connection: keep-alive`` keeps its connection open
for the next request; any other request's response closes it.  Each
request, including the wait for it on a kept-alive connection, must arrive
whole within :data:`READ_TIMEOUT` (one loop timer per request).

Each submit is parsed and validated once, on arrival, and its rows take
one of two paths:

* **inline** — the event loop runs the submit right away, when the daemon
  is in thread mode (``jobs=1``) and not draining, nothing is queued or in
  flight, and every request is warm and small
  (:func:`~repro.exec.workload.warm_and_small`: its table or estimate is
  already held and its simulate/verify work is bounded by what the table
  holds).  In thread mode the worker is a second thread of this process:
  it shares the interpreter lock with the event loop and, on a daemon
  pinned to one core, the core too, so handing it a warm row (tens of
  microseconds of work) costs more than running the row.
* **queued** — every other submit (a cold compile or calibration,
  ``auto``, ``sparse``, a ``memory_budget``, a large register, fork mode)
  is queued by ``(priority, arrival)`` — verify/estimate traffic overtakes
  heavy simulates — and executed by a worker pool: the batch runner's
  fork pool sharing one :class:`~repro.exec.cache.CompileCache` directory when
  ``jobs > 1``, one in-process thread otherwise.  The event loop keeps
  answering meanwhile.

Because an inline submit is only taken with the queue idle and runs
without yielding, rows never run concurrently and queued work is never
overtaken.  ``/metrics`` counts the rows of each path (``requests.inline``
and ``requests.queued``).  Startup warms the cache
(:meth:`CompileCache.warm_scan` plus an optional warmup-spec replay,
through the worker) and ``SIGTERM`` drains gracefully: admission closes,
idle connections (waiting for a request line) close, queued and in-flight
work finishes (pending submits still get their responses), then the daemon
exits 0.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Dict, List, Optional, Set, Tuple, Union

from repro.bench.formatting import json_safe
from repro.exceptions import ServeError, WorkloadError
from repro.exec.cache import CompileCache
from repro.exec.keys import CODE_VERSION
from repro.exec.workload import (
    WorkloadRequest,
    WorkloadSpec,
    _init_worker,
    _worker_execute,
    execute_with_stats,
    warm_and_small,
    zero_cache_stats,
)
from repro.serve.admission import (
    DEFAULT_MAX_BATCH,
    AdmissionController,
    AdmissionPolicy,
    priority_for,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import (
    DEFAULT_MAX_QUEUED,
    DrainingError,
    Job,
    JobQueue,
    OversizeError,
    QueueFullError,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Seconds a client may take to send one whole request: on a kept-alive
#: connection the wait for its first byte counts too, so an idle connection
#: is closed after this long.
READ_TIMEOUT = 30.0

#: Largest request body read, in bytes; a larger ``Content-Length`` is
#: answered 413 before any of the body is read.  The largest submit of
#: ``benchmarks/serve_smoke.py`` is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20

#: Most header lines read per request; more is answered 400.
MAX_HEADER_LINES = 100

#: Longest request or header line, in bytes (the asyncio stream reader's
#: default limit); a longer one is answered 400.
READ_LIMIT = 1 << 16

#: Reject-counter label for each admission error type.
_REJECT_REASON = {
    QueueFullError: "queue_full",
    DrainingError: "draining",
    OversizeError: "oversize",
}

#: A routed request's answer: ``(status, payload)``.
Answer = Tuple[int, Dict[str, object]]


class _Connection(asyncio.Protocol):
    """One client connection: whole requests are taken off one buffer as
    their bytes arrive and answered one at a time, in order."""

    def __init__(self, daemon: "ServeDaemon"):
        self.daemon = daemon
        self.transport: Optional[asyncio.Transport] = None
        #: Resolved once the connection has closed; a drain waits on it.
        self.closed: Optional["asyncio.Future"] = None
        self._buffer = bytearray()
        # The request being read: method and path once its request line is
        # in, headers, and the body length once the head is whole.
        self._method: Optional[str] = None
        self._path = ""
        self._headers: Dict[str, str] = {}
        self._header_lines = 0
        self._length: Optional[int] = None
        #: The task answering a queued submit; nothing is parsed meanwhile.
        self._pending: Optional["asyncio.Task"] = None
        self._write_paused = False
        self._eof = False
        self._deadline: Optional[asyncio.TimerHandle] = None

    @property
    def idle(self) -> bool:
        """Waiting for the request line of its next (or first) request."""
        return self._method is None and self._pending is None and not self._write_paused

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self.daemon._connections.add(self)
        self.daemon.metrics.connections += 1
        self._arm_deadline()

    def connection_lost(self, exc) -> None:
        self._disarm_deadline()
        self.daemon._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def eof_received(self) -> bool:
        # Stay open for the replies still owed (as StreamReaderProtocol
        # does): _serve closes the transport once nothing whole is left.
        self._eof = True
        self._serve()
        return True

    def pause_writing(self) -> None:
        # The client is not reading its replies: no read deadline meanwhile.
        self._write_paused = True
        self._disarm_deadline()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve()

    def _arm_deadline(self) -> None:
        # Missing it closes the connection with no reply.
        self._deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT, self.transport.close
        )

    def _disarm_deadline(self) -> None:
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def _serve(self) -> None:
        """Answer each whole request in the buffer until one is incomplete,
        a queued submit's reply is pending or the transport pushes back.
        An unexpected error closes only this connection."""
        transport = self.transport
        try:
            while self._pending is None and not self._write_paused and not transport.is_closing():
                try:
                    request = self._next_request()
                except ServeError as error:
                    self.daemon.metrics.record_rejected(
                        _REJECT_REASON.get(type(error), "bad_request")
                    )
                    self._reply(error.status, {"error": str(error)}, keep_alive=False)
                    return
                if request is None:
                    if not self._eof:
                        if self._deadline is None:
                            self._arm_deadline()
                        break
                    if self._length is None and (self._buffer or self._method is not None):
                        # EOF ends the last line and the head, as asyncio's
                        # stream reader reads them.
                        self._buffer += b"\n\n" if self._buffer else b"\n"
                        continue
                    transport.close()  # nothing whole is left to answer
                    break
                method, path, body, keep_alive = request
                answer = self.daemon._route(method, path, body)
                if isinstance(answer, tuple):
                    self._reply(*answer, keep_alive=keep_alive)
                else:
                    self._pending = asyncio.get_running_loop().create_task(
                        self._reply_when_done(answer, keep_alive)
                    )
        except Exception:
            transport.abort()
            raise
        # While nothing can be parsed, read ahead up to twice the line limit
        # (where asyncio's stream reader pauses too): a lower bound can
        # deadlock a client that writes its whole pipeline before it reads.
        if not self._eof:
            if self._pending is None and not self._write_paused:
                transport.resume_reading()
            elif len(self._buffer) > 2 * READ_LIMIT:
                transport.pause_reading()

    def _next_request(self) -> Optional[Tuple[str, str, bytes, bool]]:
        """Take one whole request off the buffer as ``(method, path, body,
        keep_alive)``, where ``keep_alive`` says the client sent
        ``Connection: keep-alive``; ``None`` until all of it has arrived.

        A malformed head raises :class:`ServeError` (400) and a body over
        :data:`MAX_BODY_BYTES` :class:`OversizeError` (413), before any of
        the body is read.
        """
        buffer = self._buffer
        while self._length is None:  # the head, one line at a time
            end = buffer.find(b"\n", 0, READ_LIMIT + 1)
            if end < 0:
                if len(buffer) > READ_LIMIT:
                    raise ServeError("request or header line is longer than the read limit")
                return None
            line = buffer[: end + 1].decode("latin-1")
            del buffer[: end + 1]
            if self._method is None:
                parts = line.split()
                if len(parts) != 3:
                    raise ServeError("malformed request line")
                self._method, self._path = parts[0].upper(), parts[1].split("?")[0]
            elif line in ("\r\n", "\n"):
                text = self._headers.get("content-length") or "0"
                if not (text.isascii() and text.isdigit()):
                    raise ServeError(f"invalid Content-Length {text!r}")
                self._length = int(text)
                if self._length > MAX_BODY_BYTES:
                    raise OversizeError(
                        f"body of {self._length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                    )
            elif self._header_lines == MAX_HEADER_LINES:
                raise ServeError(f"more than {MAX_HEADER_LINES} header lines")
            else:
                self._header_lines += 1
                name, _, value = line.partition(":")
                self._headers[name.strip().lower()] = value.strip()
        if len(buffer) < self._length:
            return None
        body = bytes(buffer[: self._length])
        del buffer[: self._length]
        tokens = {t.strip().lower() for t in self._headers.get("connection", "").split(",")}
        request = (
            self._method, self._path, body, "keep-alive" in tokens and "close" not in tokens
        )
        self._method, self._headers, self._header_lines, self._length = None, {}, 0, None
        self._disarm_deadline()  # the whole request is in
        return request

    async def _reply_when_done(self, answer: Awaitable[Answer], keep_alive: bool) -> None:
        """Write a queued submit's reply once its rows are done, then go on
        with the requests behind it."""
        try:
            status, payload = await answer
            self._pending = None
            if not self.transport.is_closing():  # else the client went away
                self._reply(status, payload, keep_alive=keep_alive)
                self._serve()
        except BaseException:
            self.transport.abort()
            raise

    def _reply(self, status: int, payload: Dict[str, object], *, keep_alive: bool) -> None:
        """Write one response.  It keeps the connection open only when its
        request asked for ``Connection: keep-alive`` and the daemon is not
        draining."""
        keep_alive = keep_alive and not self.daemon.admission.draining
        body = json.dumps(json_safe(payload), ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        self.transport.write(head.encode("latin-1") + body)
        if not keep_alive:
            self.transport.close()


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8752
    #: Serve on this unix socket instead of TCP when set.
    unix_socket: Optional[str] = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    salt: str = CODE_VERSION
    max_queued: int = DEFAULT_MAX_QUEUED
    max_batch: int = DEFAULT_MAX_BATCH
    #: Warmup workload replayed through the pool before serving: a spec
    #: path, a raw dict, or a parsed :class:`WorkloadSpec`.
    warmup: Optional[Union[str, Dict[str, object], WorkloadSpec]] = None
    #: Pre-load the newest on-disk cache entries at startup.
    warm_scan: bool = True
    #: Upper bound on the SIGTERM drain (seconds).
    drain_grace: float = 60.0


class WorkerPool:
    """Executes parsed workload requests for the daemon.

    ``jobs > 1`` reuses the batch runner's ``fork`` pool — the same
    ``_init_worker`` / ``_worker_execute`` functions, each worker holding a
    :class:`CompileCache` on the shared directory — so the daemon and
    ``python -m repro batch`` exercise identical execution code.  ``jobs=1``
    (or platforms without ``fork``) runs in-process on a single worker
    thread with one shared cache.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        salt: str = CODE_VERSION,
    ):
        self.jobs = max(1, int(jobs))
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.salt = salt
        self.mode = "thread"
        self._pool = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: The one serving cache in thread mode; ``None`` in fork mode, where
        #: each worker process holds its own.
        self.cache: Optional[CompileCache] = None
        if self.jobs > 1:
            if self.cache_dir is None:
                raise ServeError(
                    "serve with jobs > 1 needs a cache directory "
                    "(workers share compiled artifacts through it)"
                )
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-posix platforms
                self.jobs = 1
            else:
                self._pool = context.Pool(
                    processes=self.jobs,
                    initializer=_init_worker,
                    initargs=(self.cache_dir, salt),
                )
                self.mode = "fork"
        if self._pool is None:
            self.jobs = 1
            self.cache = CompileCache(self.cache_dir, salt=salt)
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )

    def warm(self, limit: Optional[int] = None) -> Dict[str, int]:
        """Scan the on-disk store so the first requests start warm.

        Thread mode warms the serving cache's own memo; fork mode scans
        through a parent-side cache, which faults the mmap'd archives into
        the OS page cache that the forked workers share (their per-process
        memos still fill on first use).
        """
        if self.mode == "thread":
            assert self.cache is not None
            return self.cache.warm_scan(limit)
        scratch = CompileCache(self.cache_dir, salt=self.salt)
        return scratch.warm_scan(limit)

    async def execute(self, index: int, request: WorkloadRequest) -> Dict[str, object]:
        """One request through a worker; returns ``{"row", "cache_stats"}``."""
        loop = asyncio.get_running_loop()
        if self.mode == "fork":
            future: "asyncio.Future" = loop.create_future()

            def _deliver(result):
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_result(result)
                )

            def _fail(error):
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_exception(error)
                )

            self._pool.apply_async(
                _worker_execute,
                ((index, request),),
                callback=_deliver,
                error_callback=_fail,
            )
            return await future
        return await loop.run_in_executor(
            self._executor, execute_with_stats, request, index, self.cache
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ServeDaemon:
    """The daemon: queue + admission + worker pool + HTTP front end."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.queue = JobQueue(self.config.max_queued)
        self.metrics = ServeMetrics()
        self.admission = AdmissionController(
            self.queue,
            AdmissionPolicy(
                max_queued=self.config.max_queued, max_batch=self.config.max_batch
            ),
        )
        self.pool: Optional[WorkerPool] = None
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._consumers: List["asyncio.Task"] = []
        #: Open client connections.
        self._connections: Set[_Connection] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> str:
        """Warm the cache, replay the warmup spec, bind, begin serving."""
        config = self.config
        self.pool = WorkerPool(config.jobs, config.cache_dir, config.salt)
        if config.warm_scan and config.cache_dir is not None:
            self.metrics.warm["scan"] = self.pool.warm()
        if config.warmup is not None:
            await self._run_warmup(self._load_warmup(config.warmup))
        loop = asyncio.get_running_loop()
        self._consumers = [loop.create_task(self._consume()) for _ in range(self.pool.jobs)]
        if config.unix_socket is not None:
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=config.unix_socket
            )
            self.address = f"unix:{config.unix_socket}"
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=config.host, port=config.port
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self.address = f"http://{host}:{port}"
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: finish every queued and in-flight row.

        Admission closes first (submits get 503) and idle connections
        (:attr:`_Connection.idle`) are closed, the queue is closed so
        consumers exit once the backlog is done, connections holding a
        request write their responses (with ``Connection: close``), and
        only then do the listener and the pool shut down.
        """
        self.admission.begin_drain()
        for connection in list(self._connections):
            if connection.idle:
                connection.transport.close()
        self.queue.close()
        grace = self.config.drain_grace
        if self._consumers:
            _, pending = await asyncio.wait(self._consumers, timeout=grace)
            for task in pending:  # pragma: no cover - pathological hang
                task.cancel()
        if self._connections:
            await asyncio.wait([c.closed for c in self._connections], timeout=grace)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.close()

    @staticmethod
    def _load_warmup(warmup) -> WorkloadSpec:
        if isinstance(warmup, WorkloadSpec):
            return warmup
        if isinstance(warmup, (dict, list)):
            return WorkloadSpec.from_dict(warmup)
        return WorkloadSpec.from_json(Path(warmup))

    async def _run_warmup(self, spec: WorkloadSpec) -> None:
        """Replay the warmup spec through the pool before accepting traffic.

        Cache deltas fold into the serving counters (keeping ``/metrics``
        equal to the sum of the workers' real :class:`CacheStats`); row
        outcomes are recorded under ``warm.warmup`` only, so request
        latency histograms describe served traffic exclusively.
        """
        results = await asyncio.gather(
            *(self.pool.execute(index, request) for index, request in enumerate(spec.requests))
        )
        ok = 0
        for item in results:
            self.metrics.record_cache_delta(item.get("cache_stats"))
            if item["row"].get("ok"):
                ok += 1
        self.metrics.warm["warmup"] = {"rows": len(results), "ok": ok}

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            job = await self.queue.get()
            if job is None:  # queue closed and empty: drain complete
                return
            self.metrics.record_queue_wait(time.monotonic() - job.enqueued_at)
            self.metrics.in_flight += 1
            try:
                result = await self.pool.execute(job.index, job.request)
            except Exception as error:  # pool infrastructure failure
                result = {
                    "row": {
                        "index": job.index,
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    },
                    "cache_stats": zero_cache_stats(),
                }
            finally:
                self.metrics.in_flight -= 1
            row = self._record(result, inline=False)
            if not job.future.done():
                job.future.set_result(row)

    def _record(self, result: Dict[str, object], *, inline: bool) -> Dict[str, object]:
        """Fold one executed row's cache delta and latency into the metrics;
        returns the row."""
        row = result["row"]
        self.metrics.record_cache_delta(result.get("cache_stats"))
        self.metrics.record_request(
            str(row.get("kind", "unknown")),
            float(row.get("seconds", 0.0) or 0.0),
            ok=bool(row.get("ok")),
            inline=inline,
        )
        return row

    def _answers_inline(self, requests: List[WorkloadRequest]) -> bool:
        """Whether this submit runs on the event loop now (module docstring)."""
        pool = self.pool
        return (
            pool.mode == "thread"
            and not self.admission.draining
            and not self.queue.depth
            and not self.metrics.in_flight
            and warm_and_small(requests, pool.cache)
        )

    def _answer_inline(
        self, requests: List[WorkloadRequest], priorities: List[int]
    ) -> List[Dict[str, object]]:
        """Run a submit on the event loop, in the order the worker would
        take it from an idle queue; returns the rows in submit order."""
        rows: List[Optional[Dict[str, object]]] = [None] * len(requests)
        for index in sorted(range(len(requests)), key=priorities.__getitem__):
            result = execute_with_stats(requests[index], index, self.pool.cache)
            rows[index] = self._record(result, inline=True)
        return rows

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    def _route(
        self, method: str, path: str, body: bytes
    ) -> Union[Answer, Awaitable[Answer]]:
        """The answer to one request: ``(status, payload)``, or an awaitable
        of it for a queued submit."""
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self._health_payload()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}
            return 200, self.metrics.snapshot(
                queue_depth=self.queue.depth,
                draining=self.admission.draining,
                jobs=self.pool.jobs if self.pool is not None else 0,
            )
        if path == "/v1/workload":
            if method != "POST":
                return 405, {"error": "submit workloads with POST /v1/workload"}
            return self._submit(body)
        return 404, {
            "error": f"unknown path {path!r}",
            "paths": ["POST /v1/workload", "GET /metrics", "GET /healthz"],
        }

    def _health_payload(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "queue_depth": self.queue.depth,
            "in_flight": self.metrics.in_flight,
            "jobs": self.pool.jobs if self.pool is not None else 0,
        }

    def _submit(self, body: bytes) -> Union[Answer, Awaitable[Answer]]:
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as error:
            self.metrics.record_rejected("bad_request")
            return 400, {"error": f"body is not valid JSON: {error}"}
        if isinstance(raw, list):  # bare-list shorthand, like WorkloadSpec
            raw = {"requests": raw}
        if not isinstance(raw, dict) or not isinstance(raw.get("requests"), list):
            self.metrics.record_rejected("bad_request")
            return 400, {"error": 'a submit needs a "requests" list'}
        try:
            cleaned: List[Dict[str, object]] = []
            priorities: List[int] = []
            for item in raw["requests"]:
                if not isinstance(item, dict):
                    raise ServeError(
                        f"every request must be an object, got {type(item).__name__}"
                    )
                priorities.append(priority_for(item))
                cleaned.append({k: v for k, v in item.items() if k != "priority"})
            # Full spec validation up front: a malformed request rejects the
            # submit with a 400 naming it, before anything is queued.
            spec = WorkloadSpec.from_dict({"requests": cleaned})
        except (WorkloadError, ServeError) as error:
            self.metrics.record_rejected("bad_request")
            return 400, {"error": f"{type(error).__name__}: {error}"}
        # No plan here: resolving "auto" runs a cold calibration, which must
        # not stall the event loop. The rows name the strategy they ran.
        requests = spec.requests
        start = time.perf_counter()
        try:
            self.admission.check(len(requests))
            inline = self._answers_inline(requests)
            if not inline:
                jobs = self.admission.admit(requests, priorities)
        except ServeError as error:
            self.metrics.record_rejected(_REJECT_REASON.get(type(error), "bad_request"))
            return error.status, {"error": str(error), "rejected": len(requests)}
        self.metrics.record_accepted(len(requests))
        if inline:
            return 200, self._submit_payload(self._answer_inline(requests, priorities), start)
        return self._queued_answer(jobs, start)

    async def _queued_answer(self, jobs: List[Job], start: float) -> Answer:
        return 200, self._submit_payload([await job.future for job in jobs], start)

    @staticmethod
    def _submit_payload(rows: List[Dict[str, object]], start: float) -> Dict[str, object]:
        compiles = [
            (row.get("strategy"), row.get("d"), row.get("k"))
            for row in rows
            if row.get("kind") in ("synthesize", "simulate")
        ]
        return {
            "ok": all(row.get("ok") for row in rows),
            "rows": rows,
            "seconds": round(time.perf_counter() - start, 6),
            "unique_compiles": len(set(compiles)),
            "dedup_savings": len(compiles) - len(set(compiles)),
        }


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
async def _amain(config: ServeConfig) -> int:
    daemon = ServeDaemon(config)
    address = await daemon.start()
    print(f"serving on {address}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - windows
            signal.signal(signum, lambda *_: stop.set())
    await stop.wait()
    print("drain: finishing queued and in-flight work...", file=sys.stderr, flush=True)
    await daemon.drain()
    print("drained cleanly", file=sys.stderr, flush=True)
    return 0


def run_daemon(config: Optional[ServeConfig] = None) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code."""
    return asyncio.run(_amain(config or ServeConfig()))
