"""E12 — d-ary Grover search built from the paper's multi-controlled gates."""

from __future__ import annotations

import pytest

from repro.applications import grover_circuit, run_grover
from repro.bench import render_table
from repro.sim import DenseBackend

from _harness import emit_table

CASES = [(3, 2, (2, 1)), (3, 3, (1, 0, 2)), (5, 2, (4, 3))]


def test_table_e12_grover(benchmark):
    def build():
        rows = []
        for dim, n, marked in CASES:
            outcome = run_grover(dim, n, marked)
            circuit = grover_circuit(dim, n, marked).circuit
            row = outcome.as_row()
            row["circuit_ops"] = circuit.num_ops()
            rows.append(row)
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = render_table(
        rows,
        title="E12: d-ary Grover with the paper's MCT oracle — success probability after ⌊π/4·√N⌋ iterations",
    )
    emit_table("E12_grover", table)
    assert all(row["P(success)"] > 3 * row["P(uniform guess)"] for row in rows)


@pytest.mark.parametrize("dim,n,marked", [(3, 2, (2, 1))])
@pytest.mark.parametrize(
    "backend",
    ["dense", pytest.param(DenseBackend(memory_budget="4K"), id="dense-budgeted"), "sparse"],
)
def test_benchmark_grover_simulation(benchmark, dim, n, marked, backend):
    benchmark(lambda: run_grover(dim, n, marked, backend=backend))
