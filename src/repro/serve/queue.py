"""Bounded priority queue for the serve daemon.

One :class:`Job` per workload request.  Ordering is ``(priority, arrival)``:
lower priority values run first, FIFO within a class, so cheap
verify/estimate traffic overtakes heavy simulates that arrived earlier but
can never starve anything already running.  The queue is *bounded*:
``put_nowait`` past ``max_queued`` raises :class:`QueueFullError` instead
of blocking — admission control turns that into a 429 so callers back off
rather than pile up inside the daemon.

Everything here runs on one asyncio event loop; the synchronous mutators
are safe because nothing awaits between check and update.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ServeError
from repro.exec.workload import WorkloadRequest

#: Priority classes (lower runs first).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2
PRIORITY_NAMES: Dict[int, str] = {
    PRIORITY_HIGH: "high",
    PRIORITY_NORMAL: "normal",
    PRIORITY_LOW: "low",
}

#: Default admission bound: how many jobs may wait in the queue.
DEFAULT_MAX_QUEUED = 256


class QueueFullError(ServeError):
    """The queue cannot take the submitted requests (back off and retry)."""

    status = 429


class DrainingError(ServeError):
    """The daemon is draining (SIGTERM received) and accepts no new work."""

    status = 503


class OversizeError(ServeError):
    """One submit is larger than the daemon takes: more requests than the
    admission policy allows, or a body over the server's byte limit."""

    status = 413


@dataclass(eq=False)
class Job:
    """One queued request: the parsed request, its workload position, and
    the result future."""

    index: int
    request: WorkloadRequest
    priority: int
    future: "asyncio.Future"
    #: ``time.monotonic()`` at enqueue, for queue-wait latency metrics.
    enqueued_at: float = field(default=0.0)


class JobQueue:
    """Heap-ordered bounded job queue with async consumers."""

    def __init__(self, max_queued: int = DEFAULT_MAX_QUEUED):
        self.max_queued = int(max_queued)
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._nonempty = asyncio.Event()
        self._closed = False

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def has_room_for(self, count: int) -> bool:
        return len(self._heap) + count <= self.max_queued

    def put_nowait(self, job: Job) -> None:
        if self._closed:
            raise DrainingError("queue is closed (daemon draining)")
        if len(self._heap) >= self.max_queued:
            raise QueueFullError(
                f"queue full: {len(self._heap)}/{self.max_queued} jobs queued"
            )
        job.enqueued_at = time.monotonic()
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))
        self._nonempty.set()

    def check_room(self, count: int) -> None:
        """Raise what :meth:`put_batch` of ``count`` jobs would raise, if anything."""
        if self._closed:
            raise DrainingError("queue is closed (daemon draining)")
        if not self.has_room_for(count):
            raise QueueFullError(
                f"queue full: {count} requests submitted, "
                f"{self.max_queued - len(self._heap)} slots free "
                f"({len(self._heap)}/{self.max_queued} queued)"
            )

    def put_batch(self, jobs: List[Job]) -> None:
        """All-or-nothing admission of one submit's jobs."""
        self.check_room(len(jobs))
        for job in jobs:
            self.put_nowait(job)

    async def get(self) -> Optional[Job]:
        """Next job by ``(priority, arrival)``; ``None`` once closed *and* empty.

        Queued work submitted before :meth:`close` is still handed out — a
        drain finishes the backlog, it does not discard it.
        """
        while True:
            if self._heap:
                _, _, job = heapq.heappop(self._heap)
                if not self._heap:
                    self._nonempty.clear()
                return job
            if self._closed:
                return None
            self._nonempty.clear()
            await self._nonempty.wait()

    def close(self) -> None:
        """Stop admitting; wake idle consumers so they can exit."""
        self._closed = True
        self._nonempty.set()
