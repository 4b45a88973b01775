"""The benchmark's own test: exact counts repeat for a fixed seed.

    python3 perfbench/check_counts.py

Runs every workload twice untraced and twice traced with the same seed and
requires these numbers to be identical across the two runs:
``g_gates`` and ``two_qudit_gates`` (end to end), ``segment.rows_composed``,
``sim.index_row_states`` and the ``cache.*`` counters (per layer).  They
are the only numbers a later change may claim on as counts; every other
metric is a timing or a memory reading and varies from run to run.
Exits non-zero on any difference or failed run.  Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mct_statevector", "reversible_functions", "serve_warm")
EXACT = {
    0: ("g_gates", "two_qudit_gates"),
    1: (
        "segment.rows_composed", "sim.index_row_states", "cache.memo_hits",
        "cache.disk_hits", "cache.misses", "cache.puts", "cache.evictions",
        "cache.hit_ratio",
    ),
}
#: The one seed every run uses.
SEED = 5
#: Seconds per run: untraced runs need 100 jobs for their p90.
SECONDS = {0: 16, 1: 6}


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS[trace]), "--trace", str(trace)],
        cwd=str(HERE.parent), capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace} failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    differences = 0
    for workload in WORKLOADS:
        for trace, names in EXACT.items():
            first = run_once(workload, SEED, trace)
            second = run_once(workload, SEED, trace)
            for name in names:
                same = first[name] == second[name]
                differences += not same
                print(f"{'ok  ' if same else 'DIFF'} {workload:<21} {name:<22} "
                      f"{first[name]!r} / {second[name]!r}", flush=True)
    print("exact counts repeat" if not differences else f"{differences} count(s) differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
