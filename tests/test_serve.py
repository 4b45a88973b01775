"""The serve daemon: queue, admission, metrics, and the end-to-end HTTP path."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.exceptions import ServeError
from repro.exec.workload import WorkloadRequest, WorkloadSpec
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AdmissionController,
    AdmissionPolicy,
    DrainingError,
    Job,
    JobQueue,
    LatencyHistogram,
    OversizeError,
    QueueFullError,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeMetrics,
    WorkerPool,
    priority_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_async(coroutine):
    return asyncio.run(coroutine)


ESTIMATE = WorkloadRequest(kind="estimate", strategy="mct", dim=3, k=4)


def make_job(loop, index, priority):
    return Job(index=index, request=ESTIMATE, priority=priority, future=loop.create_future())


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------
def test_queue_orders_by_priority_then_arrival():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = JobQueue(max_queued=10)
        order = [
            (PRIORITY_LOW, "low-0"),
            (PRIORITY_HIGH, "high-0"),
            (PRIORITY_NORMAL, "normal-0"),
            (PRIORITY_LOW, "low-1"),
            (PRIORITY_HIGH, "high-1"),
        ]
        for index, (priority, _) in enumerate(order):
            queue.put_nowait(make_job(loop, index, priority))
        got = [await queue.get() for _ in range(len(order))]
        return [order[job.index][1] for job in got]

    assert run_async(scenario()) == ["high-0", "high-1", "normal-0", "low-0", "low-1"]


def test_queue_rejects_past_bound_and_batches_atomically():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = JobQueue(max_queued=2)
        queue.put_nowait(make_job(loop, 0, PRIORITY_LOW))
        queue.put_nowait(make_job(loop, 1, PRIORITY_LOW))
        with pytest.raises(QueueFullError):
            queue.put_nowait(make_job(loop, 2, PRIORITY_HIGH))
        assert queue.depth == 2
        # put_batch is all-or-nothing: one free slot cannot take two jobs.
        await queue.get()
        with pytest.raises(QueueFullError):
            queue.put_batch([make_job(loop, 3, PRIORITY_LOW), make_job(loop, 4, PRIORITY_LOW)])
        assert queue.depth == 1  # nothing from the failed batch leaked in

    run_async(scenario())


def test_queue_close_finishes_backlog_then_signals_none():
    async def scenario():
        loop = asyncio.get_running_loop()
        queue = JobQueue(max_queued=4)
        queue.put_nowait(make_job(loop, 0, PRIORITY_LOW))
        queue.put_nowait(make_job(loop, 1, PRIORITY_HIGH))
        queue.close()
        first = await queue.get()
        second = await queue.get()
        third = await queue.get()
        assert (first.index, second.index) == (1, 0)  # backlog still drains in order
        assert third is None
        with pytest.raises(DrainingError):
            queue.put_nowait(make_job(loop, 2, PRIORITY_LOW))

    run_async(scenario())


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def test_priority_classes():
    assert priority_for({"kind": "estimate", "strategy": "mct", "d": 3, "k": 4}) == PRIORITY_HIGH
    assert priority_for({"kind": "simulate", "verify": "smoke"}) == PRIORITY_HIGH
    assert priority_for({"kind": "synthesize"}) == PRIORITY_NORMAL
    assert priority_for({"kind": "simulate"}) == PRIORITY_LOW
    # An explicit override beats the kind-derived class.
    assert priority_for({"kind": "simulate", "priority": 0}) == PRIORITY_HIGH
    with pytest.raises(ServeError):
        priority_for({"kind": "simulate", "priority": "urgent"})
    with pytest.raises(ServeError):
        priority_for({"kind": "simulate", "priority": 9})
    # Only a JSON integer: int() used to queue 1.0, true and "1" as 1.
    for value in (1.0, 0.5, True, "1"):
        with pytest.raises(ServeError, match="must be an integer"):
            priority_for({"kind": "simulate", "priority": value})


def test_admission_rejections_map_to_http_statuses():
    async def scenario():
        queue = JobQueue(max_queued=3)
        controller = AdmissionController(queue, AdmissionPolicy(max_queued=3, max_batch=2))
        high = [PRIORITY_HIGH] * 3
        with pytest.raises(OversizeError) as oversize:
            controller.admit([ESTIMATE] * 3, high)
        assert oversize.value.status == 413
        jobs = controller.admit([ESTIMATE] * 2, high)
        assert [job.priority for job in jobs] == [PRIORITY_HIGH, PRIORITY_HIGH]
        assert [job.request for job in jobs] == [ESTIMATE, ESTIMATE]
        with pytest.raises(QueueFullError) as full:
            controller.admit([ESTIMATE] * 2, high)  # only one slot left
        assert full.value.status == 429
        with pytest.raises(QueueFullError):
            controller.check(2)  # the same answer without queueing anything
        controller.check(1)
        assert queue.depth == 2
        controller.begin_drain()
        with pytest.raises(DrainingError) as draining:
            controller.admit([ESTIMATE], high)
        assert draining.value.status == 503

    run_async(scenario())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_latency_histogram_buckets_are_cumulative():
    histogram = LatencyHistogram(bounds=(0.01, 0.1, 1.0))
    for seconds in (0.005, 0.05, 0.5, 5.0):
        histogram.observe(seconds)
    payload = histogram.as_dict()
    assert payload["count"] == 4
    assert payload["sum_seconds"] == pytest.approx(5.555)
    assert payload["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}


def test_metrics_fold_cache_deltas_into_hit_rate():
    metrics = ServeMetrics()
    assert metrics.cache_hit_rate is None
    metrics.record_cache_delta({"memo_hits": 2, "disk_hits": 1, "misses": 1, "puts": 1})
    metrics.record_cache_delta({"memo_hits": 1, "evictions": 2})
    metrics.record_request("simulate", 0.2, ok=True)
    metrics.record_request("simulate", 0.4, ok=False)
    metrics.record_rejected("queue_full")
    snapshot = metrics.snapshot(queue_depth=3, draining=False, jobs=2)
    assert snapshot["cache"]["memo_hits"] == 3 and snapshot["cache"]["evictions"] == 2
    assert snapshot["cache"]["hit_rate"] == pytest.approx(4 / 5)
    assert snapshot["requests"] == {
        "accepted": 0,
        "completed": 1,
        "failed": 1,
        "rejected": {"queue_full": 1, "draining": 0, "oversize": 0, "bad_request": 0},
        "inline": 0,
        "queued": 2,
    }
    assert snapshot["latency"]["simulate"]["count"] == 2
    assert snapshot["queue_depth"] == 3 and snapshot["jobs"] == 2


# ----------------------------------------------------------------------
# Consumer integration: priorities drive execution order
# ----------------------------------------------------------------------
def test_consumer_executes_by_priority_with_single_worker():
    async def scenario():
        daemon = ServeDaemon(ServeConfig(jobs=1, max_queued=8))
        daemon.pool = WorkerPool(jobs=1)
        completed = []
        raws = [
            {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3},
            {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
            {"kind": "estimate", "strategy": "mct", "d": 3, "k": 3},
        ]
        # Enqueue everything *before* the consumer starts: execution order
        # is then purely the queue's priority order.
        spec = WorkloadSpec.from_dict({"requests": raws})
        jobs = daemon.admission.admit(spec.requests, [priority_for(raw) for raw in raws])
        for job in jobs:
            job.future.add_done_callback(
                lambda future: completed.append(future.result()["kind"])
            )
        daemon.queue.close()
        await daemon._consume()
        rows = [job.future.result() for job in jobs]
        daemon.pool.close()
        return completed, rows, daemon.metrics

    completed, rows, metrics = run_async(scenario())
    assert completed == ["estimate", "synthesize", "simulate"]
    # Rows keep their submit positions regardless of execution order.
    assert [row["index"] for row in rows] == [0, 1, 2]
    assert all(row["ok"] for row in rows)
    assert metrics.completed == 3 and metrics.failed == 0
    assert metrics.queue_wait.count == 3


def test_worker_pool_needs_cache_dir_for_multiprocess():
    with pytest.raises(ServeError):
        WorkerPool(jobs=2, cache_dir=None)


# ----------------------------------------------------------------------
# End-to-end daemon over HTTP
# ----------------------------------------------------------------------
MIXED_SPEC = {
    "requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 4,
         "states": [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1]]},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 500},
    ]
}


class DaemonProcess:
    """Boot ``python -m repro serve`` on an ephemeral port; kill on exit."""

    def __init__(self, tmp_path: Path, *extra_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            stderr = self.process.stderr.read()
            self.process.kill()
            self.process.wait(timeout=10)
            self._close_pipes()
            raise AssertionError(f"daemon failed to start: {line!r}\n{stderr}")
        self.address = line.split()[-1]
        self.client = ServeClient(self.address, timeout=60.0)
        self.client.wait_ready()

    def sigterm(self, timeout: float = 30.0):
        self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=timeout)
        stderr = self.process.stderr.read()
        self._close_pipes()
        return self.process.returncode, stderr

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self.client.close()
        self._close_pipes()

    def _close_pipes(self):
        self.process.stdout.close()
        self.process.stderr.close()


@pytest.fixture
def daemon_factory(tmp_path):
    booted = []

    def boot(*extra_args: str) -> DaemonProcess:
        daemon = DaemonProcess(tmp_path, *extra_args)
        booted.append(daemon)
        return daemon

    yield boot
    for daemon in booted:
        daemon.kill()


def test_daemon_end_to_end_mixed_workload_and_drain(tmp_path, daemon_factory):
    warmup = tmp_path / "warmup.json"
    warmup.write_text(json.dumps(
        {"requests": [{"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4}]}
    ), encoding="utf-8")
    daemon = daemon_factory("--cache-dir", str(tmp_path / "cache"),
                            "--warmup", str(warmup))
    health = daemon.client.healthz()[1]
    assert health["status"] == "ok" and health["jobs"] == 1

    # Cold submit: the warmup already built the k=4 artifact.
    status, payload = daemon.client.submit(MIXED_SPEC)
    assert status == 200 and payload["ok"]
    rows = payload["rows"]
    assert [row["index"] for row in rows] == [0, 1, 2]
    assert rows[1]["outputs"] == ["00000", "10001"]
    assert rows[0]["cache"] in ("memo", "disk")  # warmed by the startup spec
    assert payload["unique_compiles"] == 1 and payload["dedup_savings"] == 1

    # A 50-request mixed workload, then the same again fully warm.
    big = {"requests": [
        {"kind": ("synthesize", "simulate", "estimate")[i % 3],
         "strategy": "mct", "d": 3, "k": 3 + (i % 4)}
        for i in range(50)
    ]}
    status, cold = daemon.client.submit(big)
    assert status == 200 and cold["ok"] and len(cold["rows"]) == 50
    status, warm = daemon.client.submit(big)
    assert status == 200 and warm["ok"]
    assert all(
        row["cache"] in ("memo", "disk")
        for row in warm["rows"] if row["kind"] != "estimate"
    )

    status, metrics = daemon.client.metrics()
    assert status == 200
    assert metrics["requests"]["accepted"] == 103
    assert metrics["requests"]["completed"] == 103
    assert metrics["requests"]["failed"] == 0
    for kind in ("synthesize", "simulate", "estimate"):
        assert metrics["latency"][kind]["count"] > 0
    # The cache section is the real CompileCache.stats sum (workers' deltas
    # folded in, warmup included): every compile-bearing request did exactly
    # one lookup, and only the distinct (strategy, d, k) scenarios missed.
    cache = metrics["cache"]
    lookups = cache["memo_hits"] + cache["disk_hits"] + cache["misses"]
    compile_bearing = 1 + 2 + 2 * (17 + 17)  # warmup + first submit + 2×big
    assert lookups == compile_bearing
    assert cache["misses"] == cache["puts"] == 4  # k∈{3,4,5,6}, k=4 warmed
    assert cache["hit_rate"] == pytest.approx((lookups - 4) / lookups)
    assert metrics["warm"]["warmup"] == {"rows": 1, "ok": 1}
    assert metrics["queue_wait"]["count"] == 103

    # SIGTERM while a submit is in flight: the response still arrives
    # complete (no failed rows) and the daemon exits 0.
    outcome = {}

    def slow_submit():
        outcome["response"] = daemon.client.submit(
            {"requests": [
                {"kind": "simulate", "strategy": "mct", "d": 3, "k": 6},
                {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 7},
            ]}
        )

    thread = threading.Thread(target=slow_submit)
    thread.start()
    time.sleep(0.15)
    code, stderr = daemon.sigterm()
    thread.join(timeout=30)
    assert code == 0 and "drained cleanly" in stderr
    status, payload = outcome["response"]
    assert status == 200 and payload["ok"]
    assert all(row["ok"] for row in payload["rows"])


def test_daemon_rejects_past_queue_bound_and_bad_requests(daemon_factory):
    daemon = daemon_factory("--max-queued", "4", "--max-batch", "8")

    # More requests than the queue bound: rejected outright with 429 —
    # never blocking, never partially admitted.
    oversized = {"requests": [
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 10 + i}
        for i in range(5)
    ]}
    status, payload = daemon.client.submit(oversized)
    assert status == 429 and "queue full" in payload["error"]

    status, payload = daemon.client.submit(
        {"requests": oversized["requests"] * 2}  # 10 > max_batch
    )
    assert status == 413

    status, payload = daemon.client.submit({"requests": [{"kind": "mystery"}]})
    assert status == 400 and "mystery" in payload["error"]
    status, payload = daemon.client.request("POST", "/v1/workload", None)
    assert status == 400
    status, _ = daemon.client.request("GET", "/no-such-path")
    assert status == 404
    status, _ = daemon.client.request("POST", "/metrics", {"x": 1})
    assert status == 405

    # A still-valid submit goes through afterwards, and every rejection is
    # on the counters.
    status, payload = daemon.client.submit({"requests": oversized["requests"][:2]})
    assert status == 200 and payload["ok"]
    metrics = daemon.client.metrics()[1]
    assert metrics["requests"]["rejected"]["queue_full"] == 1
    assert metrics["requests"]["rejected"]["oversize"] == 1
    assert metrics["requests"]["rejected"]["bad_request"] == 2
    assert metrics["requests"]["accepted"] == 2
    code, stderr = daemon.sigterm()
    assert code == 0 and "drained cleanly" in stderr


def test_daemon_multiprocess_pool_shares_cache_dir(tmp_path, daemon_factory):
    daemon = daemon_factory("--jobs", "2", "--cache-dir", str(tmp_path / "cache"))
    assert daemon.client.healthz()[1]["jobs"] == 2
    spec = {"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 4,
         "states": [[0, 0, 0, 0, 1]]},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 5},
    ]}
    status, cold = daemon.client.submit(spec)
    assert status == 200 and cold["ok"]
    assert cold["rows"][1]["outputs"] == ["00000"]
    status, warm = daemon.client.submit(spec)
    assert status == 200 and warm["ok"]
    assert all(row["cache"] in ("memo", "disk") for row in warm["rows"])
    metrics = daemon.client.metrics()[1]
    assert metrics["jobs"] == 2
    assert metrics["cache"]["puts"] >= 2  # both scenarios built at least once
    assert metrics["cache"]["memo_hits"] + metrics["cache"]["disk_hits"] >= 3
    code, stderr = daemon.sigterm()
    assert code == 0 and "drained cleanly" in stderr


def test_daemon_unix_socket_transport(tmp_path, daemon_factory):
    socket_path = str(tmp_path / "serve.sock")
    daemon = daemon_factory("--unix-socket", socket_path)
    assert daemon.address == f"unix:{socket_path}"
    with ServeClient(daemon.address) as client:
        assert client.healthz()[0] == 200
        status, payload = client.submit({"requests": [
            {"kind": "estimate", "strategy": "mct", "d": 3, "k": 20}]})
    assert status == 200 and payload["ok"]
    code, stderr = daemon.sigterm()
    assert code == 0 and "drained cleanly" in stderr


def test_daemon_rejects_unknown_backend_and_stray_budget_with_400(daemon_factory):
    """Both used to be accepted on a permutation circuit (``ok: true``).
    ``streaming`` names no engine; a budget applies to ``dense``."""
    daemon = daemon_factory()
    base = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3}
    status, payload = daemon.client.submit({"requests": [{**base, "backend": "nosuch"}]})
    assert status == 400 and "unknown backend 'nosuch'" in payload["error"]
    status, payload = daemon.client.submit({"requests": [{**base, "backend": "streaming"}]})
    assert status == 400 and "unknown backend 'streaming'" in payload["error"]
    assert "['dense', 'sparse']" in payload["error"]
    status, payload = daemon.client.submit(
        {"requests": [{**base, "backend": "sparse", "memory_budget": "8M"}]}
    )
    assert status == 400 and "got 'sparse'" in payload["error"]

    status, payload = daemon.client.submit(
        {"requests": [{**base, "states": [[0, 0, 0, 1], [1, 0, 0, 1]], "memory_budget": "8M"}]}
    )
    assert status == 200 and payload["ok"]
    row = payload["rows"][0]
    assert row["outputs"] == ["0000", "1001"] and row["sim_path"] == "gather"
    assert row["memory_budget"] == 8 * 1024**2
    metrics = daemon.client.metrics()[1]
    assert metrics["requests"]["rejected"]["bad_request"] == 3
    assert metrics["requests"]["accepted"] == 1
    code, stderr = daemon.sigterm()
    assert code == 0 and "drained cleanly" in stderr


def test_auto_submit_leaves_the_event_loop_answering(daemon_factory):
    """The submit path used to plan the workload on the event loop, and
    planning resolves ``auto`` through a cold calibration: about 1.8 s for
    d=5, k=12, during which the daemon answered nothing else."""
    daemon = daemon_factory()
    spec = {"requests": [
        {"kind": "synthesize", "strategy": "auto", "d": 5, "k": 12},
        {"kind": "simulate", "strategy": "auto", "d": 5, "k": 12},
    ]}
    latencies = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        submitted = pool.submit(daemon.client.submit, spec)
        while not submitted.done():
            start = time.monotonic()
            status, _ = daemon.client.healthz()  # this thread's own connection
            latencies.append(time.monotonic() - start)
            assert status == 200
            time.sleep(0.05)
        status, payload = submitted.result()
    assert max(latencies) < 0.5, latencies
    assert status == 200 and payload["ok"]
    assert all(row["strategy"] != "auto" for row in payload["rows"])
    # Counted from the rows' resolved strategies: one compile served both.
    assert payload["unique_compiles"] == 1 and payload["dedup_savings"] == 1


def test_daemon_answers_bad_simulate_states_with_400():
    """States with a digit outside [0, d), rows of unequal length, or a width
    other than the strategy's wire count used to compile and come back as a
    failed row under 200 OK."""
    base = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2}
    requests = [
        {**base, "states": [[]]},
        {**base, "states": [[0, 0, 7]]},
        {**base, "states": [[0, 0, 0], [0, 0]]},
        {**base, "strategy": "auto", "states": [[0, 0, 3]]},
    ]

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, post_workload(json.dumps({"requests": [request]}).encode())
            )
            for request in requests
        ]
        return replies, daemon.metrics.rejected["bad_request"], daemon.metrics.accepted

    replies, rejected, accepted = serve_in_process(scenario)
    for request, reply in zip(requests, replies):
        assert reply.startswith(b"HTTP/1.1 400 ") and b"state" in reply, request
    assert rejected == len(requests) and accepted == 0


def test_daemon_answers_simulate_and_verify_past_int64_with_400():
    """``mct`` at d=3, k=39 has 3^40 basis states, past int64: a simulate
    used to come back 200 with every output wrong, and a verify 200 with a
    failed row, though no check could run."""
    base = {"strategy": "mct", "d": 3, "k": 39}
    requests = [
        {**base, "kind": "simulate", "states": [[0] * 39 + [1]]},
        {**base, "kind": "synthesize", "verify": "smoke"},
    ]

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, post_workload(json.dumps({"requests": [request]}).encode())
            )
            for request in requests
        ]
        return replies, daemon.metrics.rejected["bad_request"], daemon.metrics.accepted

    replies, rejected, accepted = serve_in_process(scenario)
    for request, reply in zip(requests, replies):
        assert reply.startswith(b"HTTP/1.1 400 ") and b"int64" in reply, request
    assert rejected == len(requests) and accepted == 0


def test_daemon_answers_unsupported_strategy_points_with_400():
    """``mct-clean-ladder`` at d=4, k=2 (no wire for its gadget to borrow)
    and ``mct-odd`` at d=4 used to be accepted: the daemon answered 200 with
    a failed row."""
    requests = [
        {"kind": "simulate", "strategy": "mct-clean-ladder", "d": 4, "k": 2},
        {"kind": "synthesize", "strategy": "mct-clean-ladder", "d": 4, "k": 2},
        {"kind": "estimate", "strategy": "mct-odd", "d": 4, "k": 3},
    ]

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, post_workload(json.dumps({"requests": [request]}).encode())
            )
            for request in requests
        ]
        return replies, daemon.metrics.rejected["bad_request"], daemon.metrics.accepted

    replies, rejected, accepted = serve_in_process(scenario)
    for request, reply in zip(requests, replies):
        assert reply.startswith(b"HTTP/1.1 400 ") and b"does not support" in reply, request
    assert rejected == len(requests) and accepted == 0


def test_daemon_rejects_the_retired_engine_field_with_400():
    """``"engine"`` used to be accepted, so ``"object"`` compiled a second
    copy of the same circuit under its own cache key."""

    async def scenario(daemon, host, port):
        spec = {"requests": [{"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3,
                              "engine": "object"}]}
        reply = await raw_exchange(host, port, post_workload(json.dumps(spec).encode("utf-8")))
        return reply, daemon.metrics.rejected["bad_request"]

    reply, rejected = serve_in_process(scenario)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"unknown field(s) ['engine']" in reply
    assert rejected == 1


def test_daemon_rejects_a_bool_memory_budget_with_400():
    """``"memory_budget": true`` used to run as a 1-byte budget, on
    memmap-tiled kernels, and the daemon answered 200."""

    async def scenario(daemon, host, port):
        spec = {"requests": [{"kind": "simulate", "strategy": "mcu-exponential", "d": 3,
                              "k": 2, "memory_budget": True}]}
        reply = await raw_exchange(host, port, post_workload(json.dumps(spec).encode("utf-8")))
        return reply, daemon.metrics.rejected["bad_request"]

    reply, rejected = serve_in_process(scenario)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"memory budget must be a byte count" in reply
    assert rejected == 1


# ----------------------------------------------------------------------
# HTTP front end over a raw socket (in-process daemon)
# ----------------------------------------------------------------------
def serve_in_process(scenario, **config):
    """Run ``await scenario(daemon, host, port)`` against a live daemon
    (``config`` overrides :class:`ServeConfig` fields)."""

    async def main():
        daemon = ServeDaemon(ServeConfig(**{"port": 0, "drain_grace": 5.0, **config}))
        await daemon.start()
        host, port = daemon._server.sockets[0].getsockname()[:2]
        try:
            return await scenario(daemon, host, port)
        finally:
            await daemon.drain()

    return run_async(main())


async def raw_exchange(host, port, data: bytes) -> bytes:
    """Send raw bytes; return everything the daemon sends before closing."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(data)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()


def post_workload(body: bytes) -> bytes:
    """A raw ``POST /v1/workload`` request carrying ``body``."""
    return (
        b"POST /v1/workload HTTP/1.1\r\nContent-Length: "
        + str(len(body)).encode("ascii")
        + b"\r\n\r\n"
        + body
    )


def test_bad_content_length_is_answered_400_and_counted():
    """A non-integer or negative Content-Length used to raise ValueError in
    the connection handler and drop the connection without a response."""
    values = (b"abc", b"-5", b"+3", b"1_0", b"\xb2")

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, b"POST /v1/workload HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
            )
            for value in values
        ]
        malformed = await raw_exchange(host, port, b"HELLO\r\n\r\n")
        return replies, malformed, daemon.metrics.rejected["bad_request"]

    replies, malformed, rejected = serve_in_process(scenario)
    for reply in replies:
        assert reply.startswith(b"HTTP/1.1 400 ") and b"invalid Content-Length" in reply
    assert malformed.startswith(b"HTTP/1.1 400 ") and b"malformed request line" in malformed
    assert rejected == len(values) + 1


def test_stalled_header_lines_time_out(monkeypatch):
    """Header lines used to be read without a deadline, so a client that
    stopped mid-headers held its connection open forever."""
    from repro.serve import server

    monkeypatch.setattr(server, "READ_TIMEOUT", 0.2)

    async def scenario(daemon, host, port):
        start = time.monotonic()
        reply = await raw_exchange(host, port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        return reply, time.monotonic() - start

    reply, waited = serve_in_process(scenario)
    assert reply == b"" and waited < 5.0


def test_oversized_body_is_answered_413_before_it_is_read():
    """The body used to be buffered whatever its announced size: 1 GiB of
    headers-only request held the connection waiting for the bytes."""

    async def scenario(daemon, host, port):
        reply = await raw_exchange(
            host, port, b"POST /v1/workload HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n"
        )
        return reply, daemon.metrics.rejected["oversize"]

    reply, rejected = serve_in_process(scenario)
    assert reply.startswith(b"HTTP/1.1 413 ") and b"byte limit" in reply
    assert rejected == 1


def test_too_many_header_lines_are_answered_400():
    from repro.serve import server

    padding = b"X-Pad: 1\r\n" * (server.MAX_HEADER_LINES + 1)

    async def scenario(daemon, host, port):
        reply = await raw_exchange(
            host, port, b"GET /healthz HTTP/1.1\r\n" + padding + b"\r\n"
        )
        return reply, daemon.metrics.rejected["bad_request"]

    reply, rejected = serve_in_process(scenario)
    assert reply.startswith(b"HTTP/1.1 400 ") and b"header lines" in reply
    assert rejected == 1


def test_deeply_nested_json_body_is_answered_400():
    """``json.loads`` raised RecursionError, which ``_submit`` did not catch:
    the connection closed with no response and no rejection counted."""

    async def scenario(daemon, host, port):
        reply = await raw_exchange(host, port, post_workload(b"[" * 100_000))
        return reply, daemon.metrics.rejected["bad_request"]

    reply, rejected = serve_in_process(scenario)
    assert reply.startswith(b"HTTP/1.1 400 ") and b"not valid JSON" in reply
    assert rejected == 1


def test_over_long_request_and_header_lines_are_answered_400():
    """A line past the stream reader's 64 KiB limit made ``readline`` raise
    ValueError out of the connection handler, which dropped the connection
    without a response."""
    long_request_line = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
    long_header_line = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(host, port, data)
            for data in (long_request_line, long_header_line)
        ]
        healthy = await raw_exchange(host, port, b"GET /healthz HTTP/1.1\r\n\r\n")
        return replies, healthy, daemon.metrics.rejected["bad_request"]

    replies, healthy, rejected = serve_in_process(scenario)
    for reply in replies:
        assert reply.startswith(b"HTTP/1.1 400 ") and b"longer than the read limit" in reply
    assert healthy.startswith(b"HTTP/1.1 200 ")
    assert rejected == 2


def test_daemon_answers_non_string_names_with_400():
    """``kind``, ``strategy``, ``backend`` and ``verify`` were read with
    ``str()``: ``"strategy": ["mct"]`` or ``null`` passed validation and came
    back as 200 with a failed row."""
    base = {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 2}
    requests = [
        {**base, "strategy": ["mct"]},
        {**base, "strategy": None},
        {**base, "kind": ["synthesize"]},
        {**base, "kind": "simulate", "backend": None},
        {**base, "verify": ["smoke"]},
    ]

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, post_workload(json.dumps({"requests": [request]}).encode())
            )
            for request in requests
        ]
        return replies, daemon.metrics.rejected["bad_request"], daemon.metrics.accepted

    replies, rejected, accepted = serve_in_process(scenario)
    for request, reply in zip(requests, replies):
        assert reply.startswith(b"HTTP/1.1 400 ") and b"expected a string" in reply, request
    assert rejected == len(requests) and accepted == 0


def test_daemon_answers_non_integer_numbers_with_400():
    """Floats, booleans and numeric strings used to be coerced with ``int()``:
    ``{"d": 3.9, "k": true}`` ran as d=3, k=1 with 200 OK."""
    base = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2}
    requests = [
        {**base, "d": 3.9, "k": True},
        {**base, "d": 3.0},
        {**base, "k": "2"},
        {**base, "states": [[0, 0.7, True]]},
        {**base, "priority": 1.0},
        {**base, "priority": True},
    ]

    async def scenario(daemon, host, port):
        replies = [
            await raw_exchange(
                host, port, post_workload(json.dumps({"requests": [request]}).encode())
            )
            for request in requests
        ]
        return replies, daemon.metrics.rejected["bad_request"]

    replies, rejected = serve_in_process(scenario)
    for request, reply in zip(requests, replies):
        assert reply.startswith(b"HTTP/1.1 400 "), request
        assert b"integer" in reply or b"rows of digits" in reply, request
    assert rejected == len(requests)


def test_stalled_body_times_out(monkeypatch):
    """The body used to be read without a deadline, so a client that sent
    fewer bytes than its Content-Length held its connection open forever."""
    from repro.serve import server

    monkeypatch.setattr(server, "READ_TIMEOUT", 0.2)

    async def scenario(daemon, host, port):
        start = time.monotonic()
        reply = await raw_exchange(
            host, port, b"POST /v1/workload HTTP/1.1\r\nContent-Length: 10\r\n\r\n[{"
        )
        return reply, time.monotonic() - start

    reply, waited = serve_in_process(scenario)
    assert reply == b"" and waited < 5.0


def test_daemon_fails_the_verify_row_of_a_tampered_cache_entry(tampered_cache_dir):
    """Verify used to re-synthesize the macro circuit: a cache entry missing
    a row was served with wrong outputs under a ``verified`` row."""
    cache_dir, key = tampered_cache_dir
    request = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3,
               "states": [[0, 0, 0, 1]], "verify": "standard"}

    async def scenario(daemon, host, port):
        body = json.dumps({"requests": [request]}).encode("utf-8")
        return await raw_exchange(host, port, post_workload(body))

    reply = serve_in_process(scenario, cache_dir=str(cache_dir))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    payload = json.loads(body)
    (row,) = payload["rows"]
    assert payload["ok"] is False and row["ok"] is False
    assert row["error"].startswith("VerificationError: ") and "outputs" not in row
    assert row["verify_result"] == {"status": "failed", "key": key}


# ----------------------------------------------------------------------
# Kept-alive connections and the one read deadline
# ----------------------------------------------------------------------
KEEP_ALIVE = b"Connection: keep-alive\r\n"


def get(path: str, *headers: bytes) -> bytes:
    """A raw ``GET`` request for ``path`` carrying ``headers``."""
    return b"GET " + path.encode("ascii") + b" HTTP/1.1\r\n" + b"".join(headers) + b"\r\n"


async def read_response(reader):
    """One response off an open connection: ``(head, decoded body)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10.0)
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    body = await asyncio.wait_for(reader.readexactly(length), timeout=10.0)
    return head, json.loads(body)


def test_keep_alive_requests_share_one_connection():
    """Every response used to close its connection, so each request paid a
    connect, an accept and a close."""

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(get("/healthz", KEEP_ALIVE))
            first = await read_response(reader)
            writer.write(get("/metrics", KEEP_ALIVE))
            second = await read_response(reader)
        finally:
            writer.close()
        return first, second

    (head, health), (metrics_head, metrics) = serve_in_process(scenario)
    assert head.startswith(b"HTTP/1.1 200 ") and b"Connection: keep-alive\r\n" in head
    assert health["status"] == "ok"
    assert metrics_head.startswith(b"HTTP/1.1 200 ")
    assert metrics["connections"] == 1


def test_responses_without_keep_alive_close_the_connection():
    headers = ((), (b"Connection: close\r\n",), (b"Connection: keep-alive, close\r\n",))

    async def scenario(daemon, host, port):
        # raw_exchange reads to EOF: each reply returns only once it closes.
        replies = [await raw_exchange(host, port, get("/healthz", *extra)) for extra in headers]
        metrics = await raw_exchange(host, port, get("/metrics"))
        return replies, metrics

    replies, metrics = serve_in_process(scenario)
    for reply in replies:
        assert reply.startswith(b"HTTP/1.1 200 ") and b"Connection: close\r\n" in reply
    assert json.loads(metrics.partition(b"\r\n\r\n")[2])["connections"] == len(headers) + 1


def test_malformed_second_request_is_answered_400_and_closed():
    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(get("/healthz", KEEP_ALIVE))
            head, _ = await read_response(reader)
            writer.write(b"HELLO\r\n\r\n")
            rest = await asyncio.wait_for(reader.read(), timeout=10.0)
        finally:
            writer.close()
        return head, rest, daemon.metrics.rejected["bad_request"]

    head, rest, rejected = serve_in_process(scenario)
    assert b"Connection: keep-alive\r\n" in head
    assert rest.startswith(b"HTTP/1.1 400 ") and b"malformed request line" in rest
    assert b"Connection: close\r\n" in rest
    assert rejected == 1


def test_one_deadline_covers_the_whole_request(monkeypatch):
    """Each line used to get its own deadline, so a client sending one header
    line every 0.1 s under a 0.2 s deadline was never cut off until the
    header-line bound (101 lines)."""
    from repro.serve import server

    monkeypatch.setattr(server, "READ_TIMEOUT", 0.2)

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        closed = asyncio.ensure_future(reader.read())
        start = time.monotonic()
        try:
            writer.write(b"GET /healthz HTTP/1.1\r\n")
            while not closed.done() and time.monotonic() - start < 3.0:
                await asyncio.wait({closed}, timeout=0.1)
                writer.write(b"X-Slow: 1\r\n")
            try:
                reply = await asyncio.wait_for(closed, timeout=10.0)
            except ConnectionError:  # reset: the daemon closed with lines unread
                reply = b""
            return reply, time.monotonic() - start
        finally:
            writer.close()

    reply, waited = serve_in_process(scenario)
    assert reply == b"" and waited < 1.0


def test_drain_closes_an_idle_kept_alive_connection_at_once(daemon_factory):
    daemon = daemon_factory()
    assert daemon.client.healthz()[0] == 200
    # wait_ready, healthz and metrics all went over the one kept-alive
    # connection, which stays open, idle, into the drain.
    assert daemon.client.metrics()[1]["connections"] == 1
    start = time.monotonic()
    code, stderr = daemon.sigterm()
    assert code == 0 and "drained cleanly" in stderr
    assert time.monotonic() - start < 2.0


def test_client_retries_once_when_the_daemon_closed_its_idle_connection(monkeypatch):
    from repro.serve import server

    monkeypatch.setattr(server, "READ_TIMEOUT", 0.2)

    async def scenario(daemon, host, port):
        loop = asyncio.get_running_loop()
        # One thread, so both calls go through the same client connection.
        with ServeClient(f"http://{host}:{port}") as client, ThreadPoolExecutor(1) as thread:
            first = await loop.run_in_executor(thread, client.healthz)
            await asyncio.sleep(0.5)  # past READ_TIMEOUT: the daemon closes it
            second = await loop.run_in_executor(thread, client.healthz)
        return first[0], second[0], daemon.metrics.connections

    first, second, connections = serve_in_process(scenario)
    assert first == second == 200
    assert connections == 2  # the closed one and the retry's fresh one


def test_threads_sharing_a_client_each_keep_their_own_connection():
    threads = 8  # more than the cores, with frequent thread switches

    async def scenario(daemon, host, port):
        loop = asyncio.get_running_loop()
        all_connected = threading.Barrier(threads, timeout=10.0)

        def calls(client):
            statuses = [client.healthz()[0]]
            all_connected.wait()  # every thread is alive at once
            statuses += [client.healthz()[0] for _ in range(3)]
            return statuses

        with ServeClient(f"http://{host}:{port}") as client, ThreadPoolExecutor(threads) as pool:
            statuses = await asyncio.gather(
                *(loop.run_in_executor(pool, calls, client) for _ in range(threads))
            )
        return statuses, daemon.metrics.connections

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        statuses, connections = serve_in_process(scenario)
    finally:
        sys.setswitchinterval(interval)
    assert statuses == [[200] * 4] * threads
    assert connections == threads  # one per thread, each reused for its calls


# ----------------------------------------------------------------------
# HTTP front end over a raw socket: half-close, pipelining, split writes
# ----------------------------------------------------------------------
async def half_closed_exchange(host, port, data: bytes) -> bytes:
    """Send raw bytes, shut down the sending side, read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(data)
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()


def test_a_half_closed_client_still_gets_its_reply():
    """A client may shut down its sending side right after its request: the
    reply still comes, from the worker (a cold submit) and from the event
    loop (its warm repeat)."""
    request = {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3}
    data = post_workload(json.dumps({"requests": [request]}).encode("utf-8"))

    async def scenario(daemon, host, port):
        replies = []
        for _ in range(2):
            before = answered(daemon)
            reply = await half_closed_exchange(host, port, data)
            took = "inline" if answered(daemon)[0] > before[0] else "queued"
            replies.append((took, reply))
        return replies

    replies = serve_in_process(scenario)
    assert [took for took, _ in replies] == ["queued", "inline"]
    for _, reply in replies:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["rows"][0]["ok"] is True


def test_eof_ends_the_last_line_and_the_head():
    """A half-close ends a request cut short before its blank line, or even
    before the end of its request line; a short body is still dropped."""
    cases = [
        (b"GET /healthz HTTP/1.1", b"HTTP/1.1 200 "),
        (b"GET /healthz HTTP/1.1\r\nHost: x", b"HTTP/1.1 200 "),
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", b"HTTP/1.1 200 "),
        (b"HELLO", b"HTTP/1.1 400 "),
        (b"POST /v1/workload HTTP/1.1\r\nContent-Length: 10\r\n\r\n[{", b""),
        (b"", b""),
    ]

    async def scenario(daemon, host, port):
        return [await half_closed_exchange(host, port, data) for data, _ in cases]

    for (data, expected), reply in zip(cases, serve_in_process(scenario)):
        assert reply.startswith(expected) if expected else reply == b"", data


def test_pipelined_requests_are_answered_in_order():
    """Two kept-alive requests sent in one write: a queued submit, then a
    health check that must wait for the submit's reply."""
    cold = {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4}
    submit = post_workload(json.dumps({"requests": [cold]}).encode("utf-8"))
    submit = submit.replace(b"HTTP/1.1\r\n", b"HTTP/1.1\r\n" + KEEP_ALIVE, 1)

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(submit + get("/healthz", KEEP_ALIVE))
            first = await read_response(reader)
            second = await read_response(reader)
        finally:
            writer.close()
        return first, second, answered(daemon)

    (head, submitted), (health_head, health), (inline, queued) = serve_in_process(scenario)
    assert head.startswith(b"HTTP/1.1 200 ") and b"Connection: keep-alive\r\n" in head
    assert submitted["rows"][0]["strategy"] == "mct" and submitted["ok"]
    assert health_head.startswith(b"HTTP/1.1 200 ") and health["status"] == "ok"
    assert health["in_flight"] == 0 and (inline, queued) == (0, 1)


def test_a_request_sent_one_byte_per_write_is_answered():
    """Every line of the head and the body arrive split across writes."""
    request = {"kind": "estimate", "strategy": "mct", "d": 3, "k": 4}
    data = post_workload(json.dumps({"requests": [request]}).encode("utf-8"))

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for at in range(len(data)):
                writer.write(data[at : at + 1])
                await writer.drain()
                await asyncio.sleep(0.001)  # one segment per byte
            return await asyncio.wait_for(reader.read(), timeout=10.0)
        finally:
            writer.close()

    head, _, body = serve_in_process(scenario).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    (row,) = json.loads(body)["rows"]
    assert row["ok"] and row["k"] == 4


def test_a_long_pipeline_written_before_any_read_is_answered_whole():
    """2,000 requests written before the client reads anything: the daemon
    must stop and resume as its replies back up, answer every request in
    order, and close after the last (which does not ask to keep alive)."""
    count = 2000
    data = get("/healthz", KEEP_ALIVE) * (count - 1) + get("/healthz")

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(data)
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout=60.0)
        finally:
            writer.close()

    reply = serve_in_process(scenario)
    assert reply.count(b"HTTP/1.1 200 OK\r\n") == count
    assert reply.count(b"Connection: keep-alive\r\n") == count - 1
    last_head = reply[reply.rindex(b"HTTP/1.1 ") :].partition(b"\r\n\r\n")[0]
    assert last_head.endswith(b"\r\nConnection: close")


def test_an_unexpected_error_closes_only_its_own_connection(monkeypatch):
    def broken(self):
        raise RuntimeError("health check broke")

    monkeypatch.setattr(ServeDaemon, "_health_payload", broken)

    async def scenario(daemon, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(get("/metrics", KEEP_ALIVE))
            before = await read_response(reader)
            failed = await raw_exchange(host, port, get("/healthz", KEEP_ALIVE))
            writer.write(get("/metrics", KEEP_ALIVE))
            after = await read_response(reader)
        finally:
            writer.close()
        return before, failed, after

    (head, _), failed, (after_head, metrics) = serve_in_process(scenario)
    assert failed == b""  # closed with no reply
    assert head.startswith(b"HTTP/1.1 200 ") and after_head.startswith(b"HTTP/1.1 200 ")
    assert metrics["connections"] == 2


def test_a_served_estimate_past_the_float_range_is_a_sci_notation_string():
    """``mcu-exponential`` at d=3, k=200 needs a 61-digit two-qudit count:
    the reply carries it as a short sci-notation string, not 61 digits."""
    request = {"kind": "estimate", "strategy": "mcu-exponential", "d": 3, "k": 200}

    async def scenario(daemon, host, port):
        return await submit_one(host, port, request)

    status, payload = serve_in_process(scenario)
    assert status == b"HTTP/1.1 200 OK"
    assert payload["rows"][0]["two_qudit_gates"] == "2.410e+60"


# ----------------------------------------------------------------------
# Warm, small submits answered on the event loop
# ----------------------------------------------------------------------
#: One request of every kind and verify level of the ``serve_warm`` mix
#: (perfbench/serve_warm.py): calibrated and measured estimates, cache-hit
#: synthesizes, gather and operator simulates, and verified synthesizes.
SERVE_WARM_KINDS = [
    {"kind": "estimate", "strategy": "mct", "d": 3, "k": 1001},
    {"kind": "estimate", "strategy": "pk", "d": 3, "k": 6},
    {"kind": "synthesize", "strategy": "mct-clean-ladder", "d": 3, "k": 5},
    {"kind": "synthesize", "strategy": "pk", "d": 3, "k": 5},
    {"kind": "simulate", "strategy": "mct", "d": 4, "k": 3,
     "states": [[0, 0, 0, 1, 2], [0, 0, 0, 0, 0], [1, 2, 3, 0, 1], [0, 0, 0, 3, 3]]},
    {"kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": 3,
     "states": [[0, 0, 0, 1], [2, 0, 0, 0]]},
    {"kind": "simulate", "strategy": "unitary", "d": 3, "k": 2, "states": [[0, 1], [2, 2]]},
    {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4, "verify": "smoke"},
    {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 5, "verify": "standard"},
    {"kind": "synthesize", "strategy": "mcu-exponential", "d": 3, "k": 3, "verify": "smoke"},
    {"kind": "synthesize", "strategy": "mcu-exponential", "d": 3, "k": 3,
     "verify": "standard"},
    {"kind": "synthesize", "strategy": "unitary", "d": 3, "k": 2, "verify": "standard"},
]


async def submit_one(host, port, request):
    """``(status line, payload)`` of a one-request submit on its own connection."""
    reply = await raw_exchange(
        host, port, post_workload(json.dumps({"requests": [request]}).encode("utf-8"))
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(body)


def answered(daemon):
    return daemon.metrics.inline, daemon.metrics.queued


def test_inline_rows_equal_worker_rows_for_every_kind_of_the_mix(monkeypatch):
    """A warm submit runs on the event loop instead of going through the
    queue and the worker thread.  Its rows must be the worker's rows in
    every field but the timings: the same cache provenance, outputs,
    ``sim_path`` and verify verdict, tier and states checked."""
    from repro.serve import server

    inline_allowed = [False]
    predicate = server.warm_and_small
    monkeypatch.setattr(
        server, "warm_and_small",
        lambda requests, cache: inline_allowed[0] and predicate(requests, cache),
    )

    async def scenario(daemon, host, port):
        rows = {}
        for allowed in (False, True):
            inline_allowed[0] = allowed
            for index, request in enumerate(SERVE_WARM_KINDS):
                before = answered(daemon)
                status, payload = await submit_one(host, port, request)
                assert status == b"HTTP/1.1 200 OK" and payload["ok"], payload
                took = "inline" if answered(daemon)[0] > before[0] else "queued"
                assert took == ("inline" if allowed else "queued"), request
                rows[allowed, index] = payload["rows"][0]
        return rows, daemon.metrics

    rows, metrics = serve_in_process(scenario, warmup={"requests": SERVE_WARM_KINDS})
    timings = ("seconds", "compile_seconds")
    for index, request in enumerate(SERVE_WARM_KINDS):
        worker, inline = rows[False, index], rows[True, index]
        assert {k: v for k, v in inline.items() if k not in timings} == {
            k: v for k, v in worker.items() if k not in timings
        }, request
        assert set(timings) & set(worker) == set(timings) & set(inline)
    count = len(SERVE_WARM_KINDS)
    assert (metrics.inline, metrics.queued) == (count, count)
    # Inline rows never entered the queue, so they wait in it for nothing.
    assert metrics.queue_wait.count == count
    assert metrics.completed == 2 * count and metrics.failed == 0


def test_a_warm_submit_behind_an_in_flight_row_waits_its_turn(monkeypatch):
    """While a cold row holds the worker, warm submits are queued, not run
    beside it on the event loop, and they still run by priority: the
    estimate that arrived second overtakes the simulate that arrived first."""
    from repro.serve import server

    cold = {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 6}
    simulate = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3,
                "states": [[0, 0, 0, 1]]}
    estimate = {"kind": "estimate", "strategy": "mct", "d": 3, "k": 4}
    release = threading.Event()
    executed = []
    execute = server.execute_with_stats

    def gated(request, index, cache):
        if request.k == cold["k"]:
            assert release.wait(timeout=30.0)  # the cold row holds the worker
        executed.append(request.kind)
        return execute(request, index, cache)

    monkeypatch.setattr(server, "execute_with_stats", gated)

    async def scenario(daemon, host, port):
        async def until(condition):
            for _ in range(1000):
                if condition():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("timed out")

        executed.clear()  # the warmup's rows
        first = asyncio.ensure_future(submit_one(host, port, cold))
        await until(lambda: daemon.metrics.in_flight == 1)
        second = asyncio.ensure_future(submit_one(host, port, simulate))
        await until(lambda: daemon.queue.depth == 1)
        third = asyncio.ensure_future(submit_one(host, port, estimate))
        await until(lambda: daemon.queue.depth == 2)
        assert not (second.done() or third.done()) and daemon.metrics.inline == 0
        release.set()
        replies = await asyncio.gather(first, second, third)
        # With the worker idle, the same warm estimate is answered inline.
        again = await submit_one(host, port, estimate)
        return replies, again, answered(daemon)

    replies, again, (inline, queued) = serve_in_process(
        scenario, warmup={"requests": [simulate, estimate]}
    )
    assert all(status == b"HTTP/1.1 200 OK" and payload["ok"] for status, payload in replies)
    assert executed == ["synthesize", "estimate", "simulate", "estimate"]
    assert again[1]["rows"] == [
        {**replies[2][1]["rows"][0], "seconds": again[1]["rows"][0]["seconds"]}
    ]
    assert (inline, queued) == (1, 3)


def test_a_fork_pool_daemon_never_inlines(tmp_path):
    """With ``jobs > 1`` rows run in worker processes that hold their own
    caches, and every submit is queued, however warm."""
    requests = [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 4},
    ]

    async def scenario(daemon, host, port):
        statuses = []
        for _ in range(3):
            for request in requests:
                status, payload = await submit_one(host, port, request)
                statuses.append(status == b"HTTP/1.1 200 OK" and payload["ok"])
        return statuses, daemon.pool.mode, answered(daemon)

    statuses, mode, (inline, queued) = serve_in_process(
        scenario, jobs=2, cache_dir=str(tmp_path / "cache"),
        warmup={"requests": requests},
    )
    assert all(statuses) and mode == "fork"
    assert (inline, queued) == (0, 6)


def test_warm_submits_past_the_state_caps_are_queued():
    """Inline work is bounded by what the table holds: a permutation
    simulate within the gather cap (4,096 states) and a non-permutation one
    within the operator cap (128), and the submit's basis and simulate
    states summed within 4,096.  Past any of them the warm submit goes to
    the worker."""
    within = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 6}  # 3^7 = 2,187
    past_gather = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 7}  # 3^8
    past_operator = {"kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": 4}
    cases = [
        ([within], "inline"),
        ([within, within], "queued"),  # 2 · (2,187 + 1) > 4,096
        ([{**within, "verify": "smoke"}], "inline"),
        ([{**within, "verify": "smoke"}, within], "queued"),
        ([past_gather], "queued"),
        ([past_operator], "queued"),
        ([{**past_operator, "k": 3}], "inline"),  # 3^4 = 81
        ([{"kind": "synthesize", "strategy": "mct", "d": 3, "k": 7}], "inline"),
    ]

    async def scenario(daemon, host, port):
        paths = []
        for requests in (case for case, _ in cases):
            before = answered(daemon)
            body = json.dumps({"requests": requests}).encode("utf-8")
            reply = await raw_exchange(host, port, post_workload(body))
            assert reply.startswith(b"HTTP/1.1 200 "), reply
            paths.append("inline" if answered(daemon)[0] > before[0] else "queued")
        return paths

    paths = serve_in_process(
        scenario,
        warmup={"requests": [within, past_gather, past_operator, {**past_operator, "k": 3}]},
    )
    assert paths == [path for _, path in cases]


def test_an_inline_submit_is_refused_as_a_queued_one_would_be():
    """Answering on the event loop skips the queue, not admission: a warm
    submit larger than the queue bound still gets 429, and one past the
    batch bound 413."""
    request = {"kind": "estimate", "strategy": "mct", "d": 3, "k": 4}

    async def scenario(daemon, host, port):
        replies = []
        for count in (3, 5, 2):
            body = json.dumps({"requests": [request] * count}).encode("utf-8")
            replies.append(await raw_exchange(host, port, post_workload(body)))
        return replies, dict(daemon.metrics.rejected), answered(daemon)

    replies, rejected, (inline, queued) = serve_in_process(
        scenario, max_queued=2, max_batch=4, warmup={"requests": [request]}
    )
    assert replies[0].startswith(b"HTTP/1.1 429 ") and replies[1].startswith(b"HTTP/1.1 413 ")
    assert replies[2].startswith(b"HTTP/1.1 200 ")
    assert rejected["queue_full"] == 1 and rejected["oversize"] == 1
    assert (inline, queued) == (2, 0)
