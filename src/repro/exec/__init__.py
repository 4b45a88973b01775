"""Batched execution service: compile cache + workload runner.

``repro.exec`` turns the synthesis/lowering pipeline into a *service*: the
expensive work is computed once, content-addressed, and reused —

* :mod:`repro.exec.keys` — stable cache keys over
  ``(strategy, d, k, pipeline spec, code-version salt)``;
* :mod:`repro.exec.serialize` — lossless ``GateTable`` ↔ ``.npz``
  serialization (columns + interned pools, nothing pickled);
* :mod:`repro.exec.cache` — :class:`CompileCache`, an in-process memo over
  an LRU-bounded on-disk store safe to share between worker processes;
* :mod:`repro.exec.service` — :func:`compile_lowered`, the cache-aware
  synthesize-and-lower entry point;
* :mod:`repro.exec.workload` — JSON workload specs, a planner that dedupes
  requests sharing a cache key, and the multiprocessing executor behind
  ``python -m repro batch``.
"""

from repro.exec.cache import CacheEntry, CacheStats, CompileCache
from repro.exec.keys import CODE_VERSION, cache_key, pipeline_spec
from repro.exec.serialize import (
    FORMAT_VERSION,
    arrays_to_table,
    load_table,
    save_table,
    table_to_arrays,
)
from repro.exec.service import CompileOutcome, compile_lowered, lowered_key
from repro.exec.workload import (
    STATS_FIELDS,
    WorkloadPlan,
    WorkloadReport,
    WorkloadRequest,
    WorkloadSpec,
    execute_request,
    execute_with_stats,
    merge_cache_stats,
    plan_workload,
    run_workload,
    zero_cache_stats,
)

__all__ = [
    "CODE_VERSION",
    "FORMAT_VERSION",
    "STATS_FIELDS",
    "CacheEntry",
    "CacheStats",
    "CompileCache",
    "CompileOutcome",
    "WorkloadPlan",
    "WorkloadReport",
    "WorkloadRequest",
    "WorkloadSpec",
    "arrays_to_table",
    "cache_key",
    "compile_lowered",
    "execute_request",
    "execute_with_stats",
    "load_table",
    "lowered_key",
    "merge_cache_stats",
    "pipeline_spec",
    "plan_workload",
    "run_workload",
    "save_table",
    "table_to_arrays",
    "zero_cache_stats",
]
