"""Admission control for the serve daemon.

Every submit passes through one :class:`AdmissionController` before any
work is queued.  Decisions are all-or-nothing per submit (a workload either
runs completely or is rejected completely — partial admission would return
reports with silently missing rows) and map onto HTTP statuses:

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
from repro.exec.workload import json_int
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

    def admit(
        self,
        raws: List[Dict[str, object]],
        priorities: Optional[List[int]] = None,
    ) -> List[Job]:
        """Queue one submit's requests, or raise with an HTTP-able status.

        ``priorities`` lets the server pass classes computed from the
        *original* request dicts (any ``"priority"`` override field must be
        split off before execution, since the workload parser rejects
        unknown fields); when omitted they are derived from ``raws``
        directly.  The returned jobs carry the futures the submit handler
        awaits.
        """
        if self._draining:
            raise DrainingError("daemon is draining; submit rejected")
        if not raws:
            raise ServeError("a submit needs at least one request")
        if len(raws) > self.policy.max_batch:
            raise OversizeError(
                f"submit carries {len(raws)} requests; the admission policy "
                f"allows at most {self.policy.max_batch} per submit"
            )
        if priorities is None:
            priorities = [priority_for(raw) for raw in raws]
        loop = asyncio.get_running_loop()
        jobs = [
            Job(index=index, raw=raw, priority=priority, future=loop.create_future())
            for index, (raw, priority) in enumerate(zip(raws, priorities))
        ]
        self.queue.put_batch(jobs)  # all-or-nothing; raises QueueFullError
        return jobs
