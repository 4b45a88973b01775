#!/usr/bin/env python3
"""Sparse amplitude-map engine and batched-verification benchmark (PR-8).

Three guarded measurements on a lowered multi-controlled Toffoli embedded
in a register of ``>= 10^7`` basis states with at most a handful of live
amplitudes:

* **sparse_wall_speedup** — evolving the state through the ``sparse``
  engine (O(rows * nnz) stride arithmetic on live indices only) vs the
  ``dense`` engine's composed-gather ``apply_table``.  The dense side is
  timed *warm* — the segment gather is composed and interned before the
  timed pass — so the ratio understates the cold-start gap.  Floor: 10x.
* **dense_over_sparse_rss** — peak resident-set growth of the same
  evolution, one fresh subprocess per engine (``ru_maxrss`` is a
  process-lifetime high-water mark).  The dense engine must materialise
  the full statevector plus an output array; the sparse engine touches
  O(nnz) bytes.  The sparse denominator is clamped to 1 MiB to keep the
  ratio conservative.  Floor: 10x.
* **verify_sampled_speedup** — the sampled verification fast path: one
  batched ``GateTable.apply_to_indices`` call over all sampled basis
  states vs the pre-PR-8 per-state scalar ``apply_to_basis`` walk.
  Floor: 10x.

The sparse and dense results are additionally checked **bit-for-bit**:
on a permutation circuit both paths move amplitudes without arithmetic,
so the sparse engine's (index, amplitude) pairs must equal the dense
output's nonzero entries exactly, not merely to tolerance.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_sim.py          # full case
    PYTHONPATH=src python benchmarks/bench_sparse_sim.py --quick  # CI smoke

Results are printed as a table and persisted to
``benchmarks/results/sparse_sim[_quick].json`` with the committed floors
in ``benchmarks/results/floors.json`` enforced by ``check_floors.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import emit_json, emit_table, peak_rss_bytes

from repro import lower_to_g_gates, synthesize_mct
from repro.bench import render_table
from repro.qudit.circuit import QuditCircuit
from repro.sim import SparseState, get_backend
from repro.sim.permutation import apply_to_basis
from repro.verify import sample_basis_states
from repro.utils.indexing import indices_to_digits

SPARSE_WALL_FLOOR = 10.0
RSS_RATIO_FLOOR = 10.0
VERIFY_FLOOR = 10.0

# The sparse engine's measured growth is allocator noise (a few KB of live
# indices); clamping the denominator keeps the RSS ratio conservative.
RSS_DENOMINATOR_CLAMP = 1 << 20


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Case construction: a lowered mct embedded in a wide register
# ----------------------------------------------------------------------
def sparse_case(quick: bool) -> dict:
    # 3^13 = 1,594,323 (quick) / 3^15 = 14,348,907 basis states; the
    # circuit acts on the low wires, the embedding only widens the basis.
    return {
        "dim": 3,
        "num_controls": 2,
        "num_wires": 13 if quick else 15,
        "nnz": 8,
        "seed": 11,
    }


def build_case(case: dict):
    """Return (embedded circuit, table, initial indices, initial amplitudes)."""
    lowered = lower_to_g_gates(synthesize_mct(case["dim"], case["num_controls"]).circuit)
    circuit = QuditCircuit(case["num_wires"], case["dim"], name="sparse-probe")
    circuit.extend(lowered.ops)
    table = circuit.to_table()
    size = case["dim"] ** case["num_wires"]
    rng = np.random.default_rng(case["seed"])
    indices = np.sort(rng.choice(size, size=case["nnz"], replace=False)).astype(np.int64)
    amplitudes = rng.normal(size=case["nnz"]) + 1j * rng.normal(size=case["nnz"])
    amplitudes /= np.linalg.norm(amplitudes)
    return circuit, table, indices, amplitudes


def measure_wall(case: dict) -> dict:
    _, table, indices, amplitudes = build_case(case)
    size = case["dim"] ** case["num_wires"]
    dense = get_backend("dense")
    sparse = get_backend("sparse")

    data = np.zeros(size, dtype=complex)
    data[indices] = amplitudes
    # Cold dense pass composes (and interns) the segment gather; the warm
    # pass is what every later request pays, and is still the baseline the
    # floor is enforced against.
    _, dense_cold = timed(lambda: dense.apply_table(data.copy(), table))
    dense_out, dense_warm = timed(lambda: dense.apply_table(data.copy(), table))

    state = SparseState(case["num_wires"], case["dim"], indices, amplitudes)
    sparse.apply_table_sparse(state, table)  # warm the unique-op row cache
    evolved, sparse_seconds = timed(lambda: sparse.apply_table_sparse(state, table))

    # Bit-for-bit: a permutation circuit moves amplitudes without touching
    # their values, so sparse (index, amplitude) pairs must equal the dense
    # output's nonzero entries exactly.
    dense_live = np.nonzero(dense_out)[0]
    if not np.array_equal(dense_live, evolved.indices):
        raise SystemExit("FAIL: sparse and dense engines disagree on live indices")
    if not np.array_equal(dense_out[dense_live], evolved.amplitudes):
        raise SystemExit("FAIL: sparse amplitudes are not bit-for-bit equal to dense")

    return {
        **case,
        "basis_states": size,
        "g_gates": len(table),
        "dense_cold_seconds": dense_cold,
        "dense_warm_seconds": dense_warm,
        "sparse_seconds": sparse_seconds,
        "sparse_wall_speedup": dense_warm / sparse_seconds,
        "sparse_cold_speedup": dense_cold / sparse_seconds,
    }


# ----------------------------------------------------------------------
# Memory: dense vs sparse peak RSS growth, one subprocess per engine
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS watermark (Linux ``clear_refs``).

    ``ru_maxrss`` survives fork+exec, so a worker forked from a large
    parent starts with the *parent's* high-water mark and small workloads
    measure as zero growth.  Resetting ``VmHWM`` at the baseline point
    attributes only the worker's own allocations.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def vm_hwm_bytes() -> int:
    """Peak RSS from ``/proc/self/status`` (respects ``clear_refs`` resets)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return peak_rss_bytes()
    return peak_rss_bytes()


def run_worker(engine_name: str, case: dict) -> int:
    """Evolve the case state; print the engine's peak RSS growth (bytes).

    The table, the composed segment gathers (dense side), and the unique-op
    row cache are all warmed *before* the baseline watermark, so the
    reported growth is the engine's own working set: the full statevector
    plus output array for dense, the O(nnz) index/amplitude pairs for
    sparse.  The dense input state is allocated inside the measured region
    on purpose — never materialising it is exactly the sparse engine's
    claim.
    """
    from repro.ir.segment import segment_table

    _, table, indices, amplitudes = build_case(case)
    size = case["dim"] ** case["num_wires"]
    if engine_name == "dense":
        engine = get_backend("dense")
        for segment in segment_table(table):  # compose + intern before baseline
            if segment.kind == "perm":
                segment.index_table()
        reset_peak_rss()
        rss0 = vm_hwm_bytes()
        data = np.zeros(size, dtype=complex)
        data[indices] = amplitudes
        result = engine.apply_table(data, table)
        live = np.nonzero(result)[0]
        checksum = complex(result[live].sum())
    else:
        engine = get_backend("sparse")
        table.unique_ops()  # warm the row cache before baseline
        reset_peak_rss()
        rss0 = vm_hwm_bytes()
        state = SparseState(case["num_wires"], case["dim"], indices, amplitudes)
        evolved = engine.apply_table_sparse(state, table)
        checksum = complex(evolved.amplitudes.sum())
    growth = vm_hwm_bytes() - rss0
    print(json.dumps({"rss_growth_bytes": growth, "checksum": [checksum.real, checksum.imag]}))
    return 0


def measure_memory(case: dict) -> dict:
    growth = {}
    checksums = {}
    for engine_name in ("dense", "sparse"):
        process = subprocess.run(
            [
                sys.executable,
                str(pathlib.Path(__file__).resolve()),
                "--worker",
                engine_name,
                "--case",
                json.dumps(case),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(process.stdout.strip().splitlines()[-1])
        growth[engine_name] = payload["rss_growth_bytes"]
        checksums[engine_name] = payload["checksum"]
    if not np.allclose(checksums["dense"], checksums["sparse"], atol=1e-12):
        raise SystemExit("FAIL: dense and sparse workers disagree on the state")
    return {
        **case,
        "state_bytes": (case["dim"] ** case["num_wires"]) * 16,
        "dense_rss_growth_bytes": growth["dense"],
        "sparse_rss_growth_bytes": growth["sparse"],
        "dense_over_sparse_rss": growth["dense"]
        / max(growth["sparse"], RSS_DENOMINATOR_CLAMP),
    }


# ----------------------------------------------------------------------
# Verification: batched index propagation vs the per-state scalar walk
# ----------------------------------------------------------------------
def verify_case(quick: bool) -> dict:
    # A deeper lowering (mct with more controls) so the per-row cost
    # dominates; the sampled verifier pays it once per *batch*, the old
    # path once per *state*.
    return {
        "dim": 3,
        "num_controls": 4 if quick else 6,
        "num_wires": 13 if quick else 15,
        "samples": 400 if quick else 500,
        "seed": 7,
    }


def measure_verify(case: dict) -> dict:
    lowered = lower_to_g_gates(synthesize_mct(case["dim"], case["num_controls"]).circuit)
    circuit = QuditCircuit(case["num_wires"], case["dim"], name="verify-probe")
    circuit.extend(lowered.ops)
    table = circuit.to_table()
    states = sample_basis_states(case["dim"], case["num_wires"], case["samples"], case["seed"])
    strides = np.array(
        [case["dim"] ** e for e in range(case["num_wires"] - 1, -1, -1)], dtype=np.int64
    )
    indices = np.asarray(states, dtype=np.int64) @ strides
    table.apply_to_indices(indices[:1])  # warm the unique-op row cache

    scalar_rows, scalar_seconds = timed(
        lambda: [apply_to_basis(circuit, state) for state in states]
    )
    batched, batched_seconds = timed(lambda: table.apply_to_indices(indices))
    decoded = indices_to_digits(batched, case["dim"], case["num_wires"])
    if [tuple(row) for row in decoded.tolist()] != [tuple(row) for row in scalar_rows]:
        raise SystemExit("FAIL: batched index propagation differs from the scalar walk")

    return {
        **case,
        "g_gates": len(table),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "verify_sampled_speedup": scalar_seconds / batched_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small case for CI smoke runs")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return run_worker(args.worker, json.loads(args.case))

    wall = measure_wall(sparse_case(args.quick))
    memory = measure_memory(sparse_case(args.quick))
    verify = measure_verify(verify_case(args.quick))

    rows = [
        {
            "measurement": f"dense apply_table (warm, {wall['basis_states']:,} basis)",
            "seconds": round(wall["dense_warm_seconds"], 4),
        },
        {
            "measurement": f"sparse apply_table_sparse (nnz {wall['nnz']})",
            "seconds": round(wall["sparse_seconds"], 6),
        },
        {
            "measurement": "dense RSS growth",
            "bytes": memory["dense_rss_growth_bytes"],
        },
        {
            "measurement": "sparse RSS growth",
            "bytes": memory["sparse_rss_growth_bytes"],
        },
        {
            "measurement": f"scalar verify walk ({verify['samples']} samples)",
            "seconds": round(verify["scalar_seconds"], 4),
        },
        {
            "measurement": "batched apply_to_indices",
            "seconds": round(verify["batched_seconds"], 6),
        },
    ]
    title = (
        f"Sparse simulation: wall {wall['sparse_wall_speedup']:.0f}x, "
        f"dense/sparse RSS {memory['dense_over_sparse_rss']:.0f}x, "
        f"verify batch {verify['verify_sampled_speedup']:.1f}x"
    )
    stem = "sparse_sim_quick" if args.quick else "sparse_sim"
    emit_table(stem, render_table(rows, title=title))
    emit_json(
        stem,
        {
            "wall": wall,
            "memory": memory,
            "verify": verify,
            "sparse_wall_speedup": wall["sparse_wall_speedup"],
            "dense_over_sparse_rss": memory["dense_over_sparse_rss"],
            "verify_sampled_speedup": verify["verify_sampled_speedup"],
            "floors": {
                "sparse_wall_speedup": SPARSE_WALL_FLOOR,
                "dense_over_sparse_rss": RSS_RATIO_FLOOR,
                "verify_sampled_speedup": VERIFY_FLOOR,
            },
        },
    )

    failures = []
    if wall["sparse_wall_speedup"] < SPARSE_WALL_FLOOR:
        failures.append(
            f"sparse wall speedup {wall['sparse_wall_speedup']:.1f}x < {SPARSE_WALL_FLOOR}x"
        )
    if memory["dense_over_sparse_rss"] < RSS_RATIO_FLOOR:
        failures.append(
            f"dense/sparse RSS {memory['dense_over_sparse_rss']:.1f}x < {RSS_RATIO_FLOOR}x"
        )
    if verify["verify_sampled_speedup"] < VERIFY_FLOOR:
        failures.append(
            f"verify sampled speedup {verify['verify_sampled_speedup']:.1f}x < {VERIFY_FLOOR}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
