"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one of the reproduction experiments: it
times the synthesis with ``pytest-benchmark`` and writes the measured table
both to stdout and to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit_table(name: str, text: str) -> None:
    """Print a reproduction table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[table written to {path}]")


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS; normalising here
    keeps every result JSON comparable across the two CI platforms.  Note it
    is a high-water mark — a benchmark that wants the footprint of one phase
    must measure it in a fresh subprocess (see ``bench_streaming_sim.py``).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Persist one result JSON, stamping the shared harness block.

    Every benchmark result carries ``payload["harness"]["peak_rss_bytes"]``
    so memory regressions are visible in CI artifacts alongside the timing
    numbers the floors guard.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload["harness"] = {"peak_rss_bytes": peak_rss_bytes()}
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"[json written to {path}]")
    return path
