#!/usr/bin/env python3
"""Benchmark regression guard: compare result JSONs against committed floors.

``benchmarks/results/floors.json`` maps a result stem (the JSON filename
without extension) to either the minimum acceptable speedup ratio (a bare
number, read from the result's headline ``speedup``) or an object of
``{metric: minimum}`` pairs checked against the result's top-level fields
(e.g. the segment fusion and memory-budget benchmark guards both
``fusion_speedup`` and ``dense_over_streaming_rss``).  After the smoke
benchmarks run in CI, this
script fails the job if any produced ratio regressed below its floor::

    PYTHONPATH=src python benchmarks/bench_ir_tables.py --quick
    PYTHONPATH=src python benchmarks/bench_sim_backends.py --quick
    python benchmarks/check_floors.py

Stems whose result file is absent are skipped with a note (pass ``--strict``
to fail on them instead), so the guard works for any subset of benchmarks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FLOORS_PATH = RESULTS_DIR / "floors.json"


def extract_speedup(data: dict) -> float:
    """The headline ratio of one result JSON (multi-case files use the best)."""
    if "cases" in data:
        return max(case["speedup"] for case in data["cases"])
    return float(data["speedup"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--strict", action="store_true", help="fail when a guarded result file is missing"
    )
    args = parser.parse_args()

    floors = json.loads(FLOORS_PATH.read_text(encoding="utf-8"))
    failures = []
    for stem, floor in sorted(floors.items()):
        path = RESULTS_DIR / f"{stem}.json"
        if not path.exists():
            message = f"{stem}: no result file at {path}"
            if args.strict:
                failures.append(message)
            else:
                print(f"skip: {message}")
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(floor, dict):
            # Multi-metric guard: every named metric must be present and
            # at (or above) its committed minimum.
            for metric, minval in sorted(floor.items()):
                if metric not in data:
                    failures.append(f"{stem}: result has no {metric!r} field")
                    print(f"REGRESSION: {stem}: missing metric {metric!r}")
                    continue
                value = float(data[metric])
                status = "ok" if value >= minval else "REGRESSION"
                print(f"{status}: {stem}: {metric} {value:.1f}x (floor {minval:.1f}x)")
                if value < minval:
                    failures.append(f"{stem}: {metric} {value:.1f}x < floor {minval:.1f}x")
            continue
        speedup = extract_speedup(data)
        status = "ok" if speedup >= floor else "REGRESSION"
        print(f"{status}: {stem}: speedup {speedup:.1f}x (floor {floor:.1f}x)")
        if speedup < floor:
            failures.append(f"{stem}: {speedup:.1f}x < floor {floor:.1f}x")

    if failures:
        print("\nFAIL: benchmark speedups regressed below committed floors:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
