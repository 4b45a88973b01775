"""Admission control for the serve daemon.

Every submit passes through one :class:`AdmissionController` before any
of it runs, queued or answered on the event loop alike.  Decisions are
all-or-nothing per submit (a workload either runs completely or is
rejected completely — partial admission would return reports with
silently missing rows) and map onto HTTP statuses:

* daemon draining                        → 503 :class:`DrainingError`
* more requests than ``max_batch``       → 413 :class:`OversizeError`
* queue cannot take the whole batch      → 429 :class:`QueueFullError`

Priorities: an explicit integer ``"priority"`` field on a request wins;
otherwise ``estimate`` requests and anything carrying a ``verify`` level
are high (they are cheap or latency-sensitive checks), ``synthesize`` is
normal, and ``simulate`` — the statevector-heavy kind — is low.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import ServeError
from repro.exec.workload import WorkloadRequest, json_int
from repro.serve.queue import (
    DEFAULT_MAX_QUEUED,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NAMES,
    PRIORITY_NORMAL,
    DrainingError,
    Job,
    JobQueue,
    OversizeError,
)

#: Default cap on requests per submit.
DEFAULT_MAX_BATCH = 64


def priority_for(raw: Dict[str, object]) -> int:
    """The admission priority of one raw request dict."""
    if not isinstance(raw, dict):
        return PRIORITY_LOW
    if "priority" in raw:
        try:
            value = json_int(raw["priority"])
        except TypeError:
            raise ServeError(
                f"request priority must be an integer in {sorted(PRIORITY_NAMES)}, "
                f"got {raw['priority']!r}"
            ) from None
        if value not in PRIORITY_NAMES:
            raise ServeError(
                f"request priority {value} out of range; "
                f"expected one of {sorted(PRIORITY_NAMES)}"
            )
        return value
    kind = raw.get("kind")
    if kind == "estimate" or raw.get("verify"):
        return PRIORITY_HIGH
    if kind == "synthesize":
        return PRIORITY_NORMAL
    return PRIORITY_LOW


@dataclass(frozen=True)
class AdmissionPolicy:
    """The knobs the controller enforces."""

    max_queued: int = DEFAULT_MAX_QUEUED
    max_batch: int = DEFAULT_MAX_BATCH


class AdmissionController:
    """Gate between parsed submits and the job queue."""

    def __init__(self, queue: JobQueue, policy: Optional[AdmissionPolicy] = None):
        self.queue = queue
        self.policy = policy or AdmissionPolicy(max_queued=queue.max_queued)
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse all further submits (queued/in-flight work still finishes)."""
        self._draining = True

    def check(self, count: int) -> None:
        """Raise the rejection a submit of ``count`` requests gets, if any.

        A submit answered on the event loop passes this check without being
        queued, so it is refused exactly when a queued one would be.
        """
        if self._draining:
            raise DrainingError("daemon is draining; submit rejected")
        if not count:
            raise ServeError("a submit needs at least one request")
        if count > self.policy.max_batch:
            raise OversizeError(
                f"submit carries {count} requests; the admission policy "
                f"allows at most {self.policy.max_batch} per submit"
            )
        self.queue.check_room(count)

    def admit(self, requests: List[WorkloadRequest], priorities: List[int]) -> List[Job]:
        """Queue one submit's parsed requests, or raise with an HTTP-able status.

        ``priorities`` are the classes :func:`priority_for` computed from the
        *original* request dicts (a ``"priority"`` override is not a request
        field, so it is split off before parsing).  The returned jobs carry
        the futures the submit handler awaits.
        """
        self.check(len(requests))
        loop = asyncio.get_running_loop()
        jobs = [
            Job(index=index, request=request, priority=priority, future=loop.create_future())
            for index, (request, priority) in enumerate(zip(requests, priorities))
        ]
        self.queue.put_batch(jobs)  # all-or-nothing; raises QueueFullError
        return jobs
