"""Cold gather composition: wall time and whole-process peak RSS per shape.

Each shape runs in a fresh interpreter: it synthesizes the ``mct`` gate
(lowered to G-gates, or the macro circuit), then times one cold
``GateTable.permutation_index_table()`` — the composition of every row
into one whole-basis forward gather — and reports that wall time and the
process's peak RSS (``ru_maxrss``, so it covers synthesis and lowering
too).  Every gather is checked against the k-Toffoli's definition, built
here from digit arithmetic alone: the target digit has the swap pair
exchanged when every control holds its value, and every other digit (the
controls, the target otherwise, the borrowed ancilla at even ``d``) is
fixed.  The numbers are absolute per-layer figures; no floor guards them.

    PYTHONPATH=src python benchmarks/bench_compose.py [--quick] [--repeats N]

``--quick`` (CI) runs lowered ``mct`` at 3^7 and 4^7 basis states and the
macro ``mct`` circuit at d=4, k=6 (a few hundred rows of wide star and
multi-controlled ops).  The full run covers lowered ``mct`` at 3^9, 3^11,
4^9 and 4^10.  Each shape runs ``--repeats`` fresh processes (default 1)
and reports the median; results go to ``benchmarks/results/compose.json``
or ``compose_quick.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import emit_json, emit_table, peak_rss_bytes

#: (stage, d, k): the lowered or macro ``mct`` circuit on k controls.
QUICK_SHAPES = (("lowered", 3, 6), ("lowered", 4, 5), ("macro", 4, 6))
FULL_SHAPES = (("lowered", 3, 8), ("lowered", 3, 10), ("lowered", 4, 7), ("lowered", 4, 8))


def toffoli_images(d: int, k: int, num_wires: int, controls, swap) -> np.ndarray:
    """Flat image of every basis state under the k-Toffoli on wires
    ``0..k-1`` (controls) and ``k`` (target), by digit arithmetic only."""
    basis = np.arange(d**num_wires)
    strides = d ** np.arange(num_wires - 1, -1, -1)
    fires = np.ones(basis.size, dtype=bool)
    for wire, value in enumerate(controls):
        fires &= basis // strides[wire] % d == value
    target = basis // strides[k] % d
    i, j = swap
    swapped = np.where(target == i, j, np.where(target == j, i, target))
    return basis + np.where(fires, swapped - target, 0) * strides[k]


def run_worker(stage: str, d: int, k: int) -> int:
    """Compose one shape cold in this process; print one JSON line."""
    from repro import lower_to_g_gates
    from repro.synth import registry

    controls = [(3 * wire + 1) % d for wire in range(k)]
    swap = (0, d - 1)
    result = registry.get("mct").synthesize(d, k, control_values=controls, swap=swap)
    if result.controls != tuple(range(k)) or result.target != k:
        raise SystemExit(f"FAIL: unexpected wire roles {result.controls} -> {result.target}")
    circuit = lower_to_g_gates(result.circuit) if stage == "lowered" else result.circuit
    table = circuit.to_table()
    start = time.perf_counter()
    gather = table.permutation_index_table()
    seconds = time.perf_counter() - start
    expected = toffoli_images(d, k, table.num_wires, controls, swap)
    if not np.array_equal(gather, expected):
        raise SystemExit(f"FAIL: {stage} mct d={d} k={k} composed a wrong gather")
    print(json.dumps({
        "compose_seconds": seconds,
        "peak_rss_bytes": peak_rss_bytes(),
        "rows": len(table),
        "num_wires": table.num_wires,
    }))
    return 0


def measure(stage: str, d: int, k: int, repeats: int) -> dict:
    runs = []
    for _ in range(repeats):
        process = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--worker", json.dumps([stage, d, k])],
            capture_output=True, text=True,
        )
        if process.returncode:
            raise SystemExit(process.stderr.strip() or process.stdout.strip())
        runs.append(json.loads(process.stdout.strip().splitlines()[-1]))
    num_wires = runs[0]["num_wires"]
    return {
        "stage": stage,
        "d": d,
        "k": k,
        "num_wires": num_wires,
        "basis_states": d**num_wires,
        "rows": runs[0]["rows"],
        "repeats": repeats,
        "compose_seconds": statistics.median(run["compose_seconds"] for run in runs),
        "peak_rss_mib": statistics.median(run["peak_rss_bytes"] for run in runs) / 2**20,
        "compose_seconds_runs": [run["compose_seconds"] for run in runs],
        "peak_rss_mib_runs": [run["peak_rss_bytes"] / 2**20 for run in runs],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the small CI shapes")
    parser.add_argument("--repeats", type=int, default=1, help="fresh processes per shape")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return run_worker(*json.loads(args.worker))
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    shapes = QUICK_SHAPES if args.quick else FULL_SHAPES
    cases = [measure(stage, d, k, args.repeats) for stage, d, k in shapes]
    lines = [
        "Cold gather composition, one fresh process per run "
        f"(median of {args.repeats}); every gather checked against the k-Toffoli",
        f"{'circuit':<22}{'basis':>10}{'rows':>8}{'compose s':>12}{'peak RSS MiB':>14}",
    ]
    for case in cases:
        name = f"{case['stage']} mct d={case['d']} k={case['k']}"
        lines.append(
            f"{name:<22}{case['basis_states']:>10}{case['rows']:>8}"
            f"{case['compose_seconds']:>12.4f}{case['peak_rss_mib']:>14.1f}"
        )
    name = "compose_quick" if args.quick else "compose"
    emit_table(name, "\n".join(lines))
    emit_json(name, {"quick": args.quick, "cases": cases})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
