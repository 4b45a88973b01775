"""Run loop of the two in-process workloads (closed batch, one thread).

A run is: setup probes in fresh interpreters, input generation, a few
untimed warm-up rounds (op gather tables and lazy imports fill, outputs
checked), then the measured phase.

* ``--trace 0``: rounds run back to back until ``--seconds`` have passed.
  A job's latency is the wall time of its calls into the program; the
  benchmark's own work (output checks, counting) lies outside it.
  ``jobs_per_s`` is the jobs completed per second of those latencies
  (whole rounds only, so every shape is equally represented), the
  latencies give p50/p90, and ``g_gates``/``two_qudit_gates`` are exact
  totals over the warm-up rounds' circuits.
* ``--trace 1``: a fixed number of rounds (set by ``--seconds``) runs once
  untraced and once traced.  Per-layer counts come from the traced pass
  and are exact for a given seed and ``--seconds``; the difference of the
  two passes' job rates is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict

from common import (
    BenchError,
    Outcome,
    Tracer,
    latency_stats,
    median,
    peak_rss_mib_self,
    probe_setup,
)

#: Fresh interpreters timed per run for ``setup_s`` (their median counts).
SETUP_PROBES = 5
#: Fresh interpreters timed per traced run for ``import.s``.
IMPORT_PROBES = 3
#: ``peak_rss_mb`` is read once this many timed jobs have run.  Op gather
#: tables keep accumulating as new gates arrive, so a peak read at the end of
#: the run would grow with throughput; a fixed amount of work does not.
RSS_JOBS = 100


def _run_round(module, runner, jobs, tracer, tally, outcome, latencies=None):
    """Run one round; returns the seconds spent in the program's calls."""
    busy = 0.0
    for job in jobs:
        outcome.attempted += 1
        with tracer.span("job", job["id"]):
            t0 = time.perf_counter()
            try:
                output = runner.run(job, tracer, tally)
            except Exception as error:  # one failing job must not end the run
                outcome.fail("error", job["id"], f"{type(error).__name__}: {error}")
                continue
            t1 = time.perf_counter()
            with tracer.span("check", job["id"]):
                if not module.check(job, output):
                    outcome.fail("wrong output", job["id"], "output differs from the definition")
        busy += t1 - t0
        if latencies is not None:
            latencies.append(t1 - t0)
    return busy


def run(module, name: str, seed: int, seconds: float, trace: bool):
    """Returns ``(table_rows, metrics, outcome, tracer)``."""
    probes = probe_setup(name, seed, IMPORT_PROBES if trace else SETUP_PROBES)
    rounds = module.generate(seed)
    runner = module.Runner()
    outcome = Outcome()
    off = Tracer(False)

    warm_tally: Counter = Counter()
    warmup, rounds = rounds[: module.WARMUP_ROUNDS], rounds[module.WARMUP_ROUNDS :]
    for jobs in warmup:
        _run_round(module, runner, jobs, off, warm_tally, outcome)
    counted = sum(len(jobs) for jobs in warmup)

    if not trace:
        latencies = []
        timed = 0.0
        deadline = time.perf_counter() + seconds
        rss = None
        for count, jobs in enumerate(rounds):
            if time.perf_counter() >= deadline:
                break
            timed += _run_round(module, runner, jobs, off, None, outcome, latencies)
            if rss is None and len(latencies) >= RSS_JOBS:
                rss = peak_rss_mib_self()
        else:
            raise BenchError(f"{name}: ran out of generated rounds before {seconds} s")
        lat = latency_stats(latencies)
        rows = [
            ("setup_s", median(probes["setup"]), "s", f"median of {len(probes['setup'])} fresh interpreters"),
            ("jobs_per_s", len(latencies) / timed, "jobs/s", f"{len(latencies)} jobs in {count} rounds, {timed:.1f} s in the program"),
            ("job_p50_s", lat["p50"], "s", f"n={lat['n']}"),
            ("job_p90_s", lat["p90"], "s", f"n={lat['n']}, {lat['n'] - int(0.9 * lat['n'])} beyond"),
            ("failed_share", outcome.failed / outcome.attempted, "fraction", f"{outcome.failed}/{outcome.attempted} attempted"),
            ("peak_rss_mb", rss, "MiB", f"this process, after {RSS_JOBS} timed jobs"),
            ("g_gates", float(warm_tally["g_gates"]), "count", f"exact, {counted} warm-up circuits"),
            ("two_qudit_gates", float(warm_tally["two_qudit_gates"]), "count", f"exact, {counted} warm-up circuits"),
        ]
        return rows, {r[0]: r[1] for r in rows}, outcome, None

    count = trace_rounds(module, seconds)
    measured = rounds[:count]
    plain = sum(_run_round(module, runner, jobs, off, None, outcome) for jobs in measured)
    tracer = Tracer(True)
    tally = Counter()
    traced = sum(_run_round(module, runner, jobs, tracer, tally, outcome) for jobs in measured)
    jobs = sum(len(j) for j in measured)
    self_times = tracer.self_times()
    layer: Dict[str, float] = {
        "segment.compose_s": self_times.get("segment.compose", 0.0),
        "segment.rows_composed": tally["segment.rows_composed"],
        "segment.gather_bytes": tally["segment.gather_bytes"],
        "segment.builds": tally["segment.builds"],
        "segment.hits": tally["segment.hits"],
        "sim.index_s": self_times.get("sim.index", 0.0),
        "sim.index_row_states": tally["sim.index_row_states"],
        "sim.apply_s": self_times.get("sim.apply", 0.0),
        "sim.states": tally["sim.states"],
        "lower.calls": tally["lower.calls"],
        "lower.s": self_times.get("lower", 0.0),
        "lower.rows_out": tally["lower.rows_out"],
        "synth.calls": tally["synth.calls"],
        "synth.s": self_times.get("synth", 0.0),
        "synth.macro_ops": tally["synth.macro_ops"],
        "import.s": median(probes["import"]),
        "trace.overhead_jobs_per_s": jobs / traced - jobs / plain,
    }
    rows = [(key, float(value), "", "") for key, value in layer.items()]
    rows.append(("trace.jobs", jobs, "", f"{count} rounds, traced and untraced"))
    return rows, {k: float(v) for k, v in layer.items()}, outcome, tracer


def trace_rounds(module, seconds: float) -> int:
    """Rounds per traced pass: both passes together fill about ``seconds``."""
    return max(1, int(seconds / (2 * module.ROUND_SECONDS)))
