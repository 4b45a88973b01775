#!/usr/bin/env python3
"""Design-space exploration: batch estimation speedup.

One ``estimate_batch`` call over a large k grid vs. the same grid through
scalar ``estimate`` calls (both warm: the affine calibration is measured
once either way).  The batch path, which ``repro.dse`` sweeps run on,
amortises the per-point Python dispatch into a handful of numpy expressions
per residue class; equality is asserted row-for-row on a random sample.
Floor: ≥50x.

Usage::

    PYTHONPATH=src python benchmarks/bench_dse.py          # full
    PYTHONPATH=src python benchmarks/bench_dse.py --quick  # CI smoke

Results are printed and persisted to ``benchmarks/results/dse.json``
(``dse_quick.json`` for smoke runs); ``check_floors.py`` guards the
``batch_estimate_speedup`` field in both modes.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import emit_json, emit_table

from repro.bench import render_table
from repro.synth import registry

#: CI-guarded floor (mirrored in benchmarks/results/floors.json).
BATCH_SPEEDUP_FLOOR = 50.0

#: Equality-sample size for the batch-vs-scalar check.
SAMPLE_ROWS = 200


def bench_batch_estimate(points: int, *, seed: int) -> dict:
    """One estimate_batch call vs. a scalar-estimate loop over the same grid."""
    strategy = registry.get("mct")
    dim = 3
    ks = np.arange(1, points + 1, dtype=np.int64)

    # Warm the calibration either path would use, then time both.
    strategy.estimate(dim, int(ks[0]))
    batch = strategy.estimate_batch(dim, ks)
    start = time.perf_counter()
    batch = strategy.estimate_batch(dim, ks)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar_two_qudit = np.fromiter(
        (strategy.estimate(dim, int(k)).two_qudit_gates for k in ks),
        dtype=np.int64,
        count=points,
    )
    scalar_seconds = time.perf_counter() - start

    if not np.array_equal(batch.metrics["two_qudit_gates"], scalar_two_qudit):
        raise AssertionError("batch two_qudit_gates diverged from the scalar loop")
    rng = np.random.default_rng(seed)
    sample = rng.choice(points, size=min(SAMPLE_ROWS, points), replace=False)
    for index in sample:
        if batch.row(int(index)) != strategy.estimate(dim, int(ks[index])):
            raise AssertionError(
                f"batch row {index} (k={int(ks[index])}) diverged from scalar estimate"
            )
    return {
        "strategy": strategy.name,
        "d": dim,
        "points": points,
        "batch_seconds": batch_seconds,
        "scalar_seconds": scalar_seconds,
        "speedup": scalar_seconds / batch_seconds,
        "rows_checked": int(sample.size) + points,  # sampled full rows + one column
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small cases for CI smoke runs"
    )
    args = parser.parse_args()

    points = 20_000 if args.quick else 100_000
    batch = bench_batch_estimate(points, seed=20260808)

    batch_table = render_table(
        [
            {
                "points": batch["points"],
                "batch_s": round(batch["batch_seconds"], 4),
                "scalar_s": round(batch["scalar_seconds"], 3),
                "speedup": f"{batch['speedup']:.0f}x",
            }
        ],
        title=(
            f"Batch estimation: one estimate_batch call vs scalar loop "
            f"({batch['strategy']}, d={batch['d']})"
        ),
    )
    stem = "dse_quick" if args.quick else "dse"
    emit_table(stem, batch_table)
    emit_json(
        stem,
        {
            "quick": args.quick,
            "batch_estimate_speedup": batch["speedup"],
            "batch": batch,
            "floors": {"batch_estimate_speedup": BATCH_SPEEDUP_FLOOR},
        },
    )

    if batch["speedup"] < BATCH_SPEEDUP_FLOOR:
        print(
            f"FAIL: batch estimation speedup {batch['speedup']:.1f}x is below the "
            f"{BATCH_SPEEDUP_FLOOR:.0f}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
