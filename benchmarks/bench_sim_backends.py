#!/usr/bin/env python3
"""Old-vs-new simulation engine wall-clock comparison.

Verifies a lowered multi-controlled Toffoli and times each path:

* ``legacy`` — the seed simulator reproduced verbatim below: every gate is
  applied to every one of the ``d^n`` basis states in a pure-Python loop;
* ``vectorized table`` — the composed whole-basis gather table;
* ``statevector[<backend>]`` — a uniform state through every registered
  engine (``available_backends()``: dense, sparse).

The vectorized table must equal the legacy one, every engine must produce
identical statevector amplitudes and pass the same ``verify.assert_*``
checks; the legacy-vs-vectorized speedup for the default case
(``synthesize_mct(dim=3, num_controls=6)`` lowered to G-gates) is required
to be at least 10x.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_backends.py          # full case
    PYTHONPATH=src python benchmarks/bench_sim_backends.py --quick  # CI smoke

Results are printed as a table and persisted to
``benchmarks/results/sim_backends.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import RESULTS_DIR, emit_json, emit_table

from repro import lower_to_g_gates, synthesize_mct
from repro.bench import render_table
from repro.sim import (
    Statevector,
    available_backends,
    circuit_unitary,
    multi_controlled_unitary_matrix,
    permutation_index_table,
)
from repro.verify import assert_mct_spec, assert_unitary_equiv_with_clean_ancillas
from repro.core.multi_controlled_unitary import random_unitary_gate, synthesize_mcu
from repro.utils.indexing import digits_to_index, iterate_basis

#: Required legacy-vs-vectorized speedup for the full (non --quick) case.
SPEEDUP_FLOOR = 10.0


def legacy_permutation_table(circuit):
    """The seed verifier's inner loop: push every basis state through every
    gate one Python call at a time (kept verbatim for the comparison)."""
    table = []
    for state in iterate_basis(circuit.dim, circuit.num_wires):
        working = list(state)
        for op in circuit:
            op.apply_to_basis(working, circuit.dim)
        table.append(digits_to_index(working, circuit.dim))
    return table


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small case for CI smoke runs (no speedup floor enforced)",
    )
    args = parser.parse_args()

    dim, num_controls = (3, 4) if args.quick else (3, 6)
    result = synthesize_mct(dim, num_controls)
    lowered = lower_to_g_gates(result.circuit)
    size = dim**lowered.num_wires
    print(
        f"case: synthesize_mct(dim={dim}, num_controls={num_controls}) -> "
        f"{lowered.num_ops()} G-gates on {lowered.num_wires} wires ({size} basis states)"
    )

    # ------------------------------------------------------------------
    # Whole-basis verification: legacy python loop vs vectorized tables.
    # ------------------------------------------------------------------
    legacy_table, legacy_seconds = timed(lambda: legacy_permutation_table(lowered))
    new_table, cold_seconds = timed(lambda: permutation_index_table(lowered))
    _, warm_seconds = timed(lambda: permutation_index_table(lowered))
    if legacy_table != new_table.tolist():
        print("FAIL: vectorized permutation table differs from the legacy simulator")
        return 1
    speedup = legacy_seconds / cold_seconds

    # ------------------------------------------------------------------
    # Statevector sweep through the lowered circuit on every backend.
    # ------------------------------------------------------------------
    amplitudes = {}
    backend_rows = []
    for backend in available_backends():
        state = Statevector.uniform(lowered.num_wires, dim, backend=backend)
        _, seconds = timed(lambda: state.apply_circuit(lowered))
        amplitudes[backend] = state.data
        backend_rows.append({"engine": f"statevector[{backend}]", "seconds": round(seconds, 4)})
    reference = amplitudes[available_backends()[0]]
    for backend, data in amplitudes.items():
        if not np.allclose(data, reference, atol=1e-10):
            print(f"FAIL: backend {backend!r} amplitudes diverge")
            return 1

    # ------------------------------------------------------------------
    # The verify.assert_* checks must pass identically on every backend.
    # ------------------------------------------------------------------
    assert_mct_spec(lowered, result.controls, result.target)
    gate = random_unitary_gate(3, seed=5)
    mcu = synthesize_mcu(dim=3, num_controls=2, gate=gate)
    expected = multi_controlled_unitary_matrix(3, 2, gate.matrix())
    unitaries = {}
    for backend in available_backends():
        assert_unitary_equiv_with_clean_ancillas(
            mcu.circuit,
            expected,
            list(range(3)),
            mcu.clean_wires(),
            atol=1e-7,
            backend=backend,
        )
        unitaries[backend] = circuit_unitary(mcu.circuit, backend=backend)
    names = list(unitaries)
    for backend in names[1:]:
        if not np.allclose(unitaries[backend], unitaries[names[0]], atol=1e-10):
            print(f"FAIL: circuit_unitary differs between {names[0]!r} and {backend!r}")
            return 1
    print(f"verify checks passed identically on backends: {', '.join(names)}")

    rows = [
        {"engine": "legacy (seed per-index loop)", "seconds": round(legacy_seconds, 4)},
        {"engine": "vectorized table (cold cache)", "seconds": round(cold_seconds, 4)},
        {"engine": "vectorized table (warm cache)", "seconds": round(warm_seconds, 6)},
        *backend_rows,
    ]
    table = render_table(
        rows,
        title=(
            f"Simulation engines: verify lowered MCT d={dim} k={num_controls} "
            f"(legacy/vectorized speedup: {speedup:.1f}x)"
        ),
    )
    # Quick smoke runs persist to their own files so the committed full-case
    # numbers are never overwritten by a CI-sized case.
    stem = "sim_backends_quick" if args.quick else "sim_backends"
    emit_table(stem, table)

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "case": {"dim": dim, "num_controls": num_controls, "quick": args.quick},
        "g_gates": lowered.num_ops(),
        "basis_states": size,
        "legacy_seconds": legacy_seconds,
        "vectorized_cold_seconds": cold_seconds,
        "vectorized_warm_seconds": warm_seconds,
        "statevector_seconds": {
            row["engine"].split("[")[1].rstrip("]"): row["seconds"] for row in backend_rows
        },
        "speedup": speedup,
        "speedup_floor": None if args.quick else SPEEDUP_FLOOR,
    }
    emit_json(stem, payload)

    if not args.quick and speedup < SPEEDUP_FLOOR:
        print(f"FAIL: speedup {speedup:.1f}x is below the {SPEEDUP_FLOOR:.0f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
