#!/usr/bin/env python3
"""Columnar-IR vs object-IR wall clock on lower + optimize + count.

Benchmarks ``lower_to_g_gates`` against the reference it is checked
against, on ``synthesize_mct(3, k)``:

* ``object`` — the pass pipeline over per-op Python objects
  (``default_lowering_pipeline(max_sweeps=_MAX_PASSES).run``);
* ``table``  — ``lower_to_g_gates``: template expansion straight into the
  struct-of-arrays :class:`~repro.ir.table.GateTable` plus the columnar
  cancel/drop kernels, counting (G-gates, two-qudit gates, depth) directly
  on the columns.

Both paths must produce gate-for-gate identical circuits (same G-counts,
same depth; op-sequence equality is asserted on the smallest case).  The
full run requires a >= 5x table-vs-object speedup at k >= 64 and reports the
peak traced allocation of each path (the payload pools intern each repeated
gate form once, so the table path's footprint is dramatically smaller).

Usage::

    PYTHONPATH=src python benchmarks/bench_ir_tables.py          # full cases
    PYTHONPATH=src python benchmarks/bench_ir_tables.py --quick  # CI smoke

Results are printed as a table and persisted to
``benchmarks/results/ir_tables.json`` (``ir_tables_quick.json`` for smoke
runs, so committed full-case numbers are never overwritten by CI).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import RESULTS_DIR, emit_json, emit_table

from repro import lower_to_g_gates, synthesize_mct
from repro.bench import render_table
from repro.core.lowering import _MAX_PASSES
from repro.ir import lowering as ir_lowering
from repro.passes import default_lowering_pipeline

#: Required table-vs-object speedup at k >= SPEEDUP_K (full runs only).
SPEEDUP_FLOOR = 5.0
SPEEDUP_K = 64


LOWERINGS = {
    "object": lambda circuit: default_lowering_pipeline(max_sweeps=_MAX_PASSES).run(circuit),
    "table": lower_to_g_gates,
}


def lower_and_count(circuit, engine):
    lowered = LOWERINGS[engine](circuit)
    counts = {
        "g_gates": lowered.g_gate_count(),
        "two_qudit_gates": lowered.two_qudit_count(),
        "depth": lowered.depth(),
    }
    return lowered, counts


def timed_with_peak(fn):
    """(result, wall seconds, peak traced bytes) for one lowering run.

    Timing and allocation tracing are two separate runs: tracemalloc slows
    allocation-heavy code down by multiples, which would unfairly inflate the
    object path's wall clock.
    """
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small case for CI smoke runs (no speedup floor enforced)",
    )
    args = parser.parse_args()

    dim = 3
    ks = (8,) if args.quick else (16, 64, 128)
    rows = []
    cases = []
    failures = []
    for index, k in enumerate(ks):
        result = synthesize_mct(dim, k)
        circuit = result.circuit
        # Cold-start the table engine: forget expansion templates cached by
        # earlier cases so every measurement includes template construction.
        ir_lowering._TEMPLATE_OPS_CACHE.clear()

        (object_circuit, object_counts), object_seconds, object_peak = timed_with_peak(
            lambda: lower_and_count(circuit, "object")
        )
        (table_circuit, table_counts), table_seconds, table_peak = timed_with_peak(
            lambda: lower_and_count(circuit, "table")
        )
        speedup = object_seconds / table_seconds
        if object_counts != table_counts:
            failures.append(f"k={k}: counts diverge: {object_counts} vs {table_counts}")
        if index == 0:
            for i, (a, b) in enumerate(zip(object_circuit.ops, table_circuit.ops)):
                if (
                    type(a) is not type(b)
                    or a.target != b.target
                    or a.controls != b.controls
                    or getattr(a, "gate", None) != getattr(b, "gate", None)
                    or getattr(a, "sign", None) != getattr(b, "sign", None)
                ):
                    failures.append(f"k={k}: op sequences diverge at position {i}")
                    break
        rows.append(
            {
                "k": k,
                "g_gates": table_counts["g_gates"],
                "depth": table_counts["depth"],
                "object_s": round(object_seconds, 3),
                "table_s": round(table_seconds, 4),
                "speedup": f"{speedup:.1f}x",
                "object_peak_mb": round(object_peak / 1e6, 1),
                "table_peak_mb": round(table_peak / 1e6, 1),
                "mem_ratio": f"{object_peak / table_peak:.1f}x",
            }
        )
        cases.append(
            {
                "dim": dim,
                "k": k,
                "counts": table_counts,
                "object_seconds": object_seconds,
                "table_seconds": table_seconds,
                "speedup": speedup,
                "object_peak_bytes": object_peak,
                "table_peak_bytes": table_peak,
            }
        )

    table = render_table(
        rows,
        title=(
            f"Columnar IR: lower+optimize+count on synthesize_mct(d={dim}, k) — "
            "table engine vs object engine (identical outputs)"
        ),
    )
    stem = "ir_tables_quick" if args.quick else "ir_tables"
    emit_table(stem, table)

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "quick": args.quick,
        "cases": cases,
        "speedup_floor": None if args.quick else SPEEDUP_FLOOR,
        "speedup_floor_k": SPEEDUP_K,
    }
    emit_json(stem, payload)

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if not args.quick:
        for case in cases:
            if case["k"] >= SPEEDUP_K and case["speedup"] < SPEEDUP_FLOOR:
                print(
                    f"FAIL: k={case['k']} speedup {case['speedup']:.1f}x is below "
                    f"the {SPEEDUP_FLOOR:.0f}x floor"
                )
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
