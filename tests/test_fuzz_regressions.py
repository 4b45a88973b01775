"""Pinned regression reproducers found by the differential fuzzer.

Workflow: when ``python -m repro fuzz`` reports a divergence, it prints the
failing case seed and a shrunk few-op reproducer.  Check the reproducer in
here as a dedicated test (rebuild the circuit explicitly — do not depend on
the generator's op stream, which may drift as knobs are added) so the bug
stays fixed forever even if the generators change.

Development note: fuzzing the PR-3 engines during the construction of this
subsystem (seeds 0–499 across all oracles) surfaced no divergence — the
object/table lowering engines, pass kernels, simulation backends and the
analytic estimator agree on every generated artifact.  The seeded smoke
cases below pin that state; any future divergence lands next to them as a
minimal circuit.
"""

import json

import numpy as np

from repro.fuzz import fuzz_case, fuzz_run, FuzzReport
from repro.sim import DenseBackend


def test_seeded_smoke_block_stays_clean():
    """Seeds 0–5, every oracle: the redundant engines must keep agreeing."""
    report = fuzz_run(seed=0, max_cases=6)
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)


def test_cache_oracle_seeded_block_stays_clean():
    """Seeds 0–11, cache oracle only: serialize→deserialize must stay lossless.

    Pins the PR-5 compile-cache serialization against the fuzz generator's
    full op/predicate mix (perm gates, XPlus shifts, dense unitaries, star
    macros, Value/Odd/EvenNonZero/InSet controls, >2-control overflow rows).
    """
    report = fuzz_run(seed=0, max_cases=12, oracles=["cache"])
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    assert report.oracle_runs == {"cache": 12}


def test_lowering_oracle_seeded_block_stays_clean():
    """Seeds 300-315, lowering oracle only: the object pass pipeline and the
    table lowering (template expansion, then the columnar cancel pass that
    replays the greedy sweep from a heap) must stay gate-for-gate identical
    on the generator's lowerable circuits."""
    report = fuzz_run(seed=300, max_cases=16, oracles=["lowering"])
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    assert report.oracle_runs == {"lowering": 16}


def test_single_case_replay_matches_report_contract():
    """A case replays from its seed alone (the CI reproduction recipe)."""
    report = FuzzReport(seed=17)
    divergences = fuzz_case(17, ("round-trip", "backends", "inverse"), report)
    assert divergences == []
    # backends counts twice: dense random state + sparse low-occupancy case.
    assert report.oracle_runs == {"round-trip": 1, "backends": 2, "inverse": 1}


class CountingDense(DenseBackend):
    """The dense engine, counting the tables it applies and the results it
    returns in memmap scratch."""

    def __init__(self, memory_budget):
        super().__init__(memory_budget)
        self.tables = self.memmaps = 0

    def apply_table(self, data, table):
        out = super().apply_table(data, table)
        self.tables += 1
        self.memmaps += isinstance(out, np.memmap)
        return out


def test_backends_oracle_covers_every_registered_engine():
    """The oracle's path list is registry-driven, not a hard-coded tuple.

    A custom engine registered at runtime (here: the dense engine with a
    one-row tile budget, the harshest tiling configuration) must be fuzzed
    automatically by the ``backends`` oracle on every case.
    """
    from repro.sim import register_backend, unregister_backend

    engine = register_backend(CountingDense(16), name="dense-one-row")
    try:
        report = fuzz_run(seed=0, max_cases=8, oracles=["backends"])
        assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
        assert report.oracle_runs == {"backends": 16}  # 2 runs per case since PR-8
        assert engine.tables == 8
    finally:
        unregister_backend("dense-one-row")


def test_sparse_seeded_block_stays_clean():
    """Seeds 200-209, backends oracle, which now runs TWICE per case.

    Each case fuzzes every registered engine on a dense random state (the
    pre-PR-8 check) and then the sparse engine's O(nnz) fast path on a
    dedicated low-occupancy instance (superposition over a few sampled
    basis states) — permutation circuits compared bit-for-bit against
    dense, plus the SparseState-native entry point with its sorted-unique
    index invariant.  The doubled ``oracle_runs`` count pins that both
    halves actually executed.
    """
    report = fuzz_run(seed=200, max_cases=10, oracles=["backends"])
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    assert report.oracle_runs == {"backends": 20}


def test_budgeted_dense_seeded_block_stays_clean(monkeypatch):
    """Seeds 100-107, backends oracle: beside the registered engines, every
    case runs the dense engine under the oracle's budget
    (``oracles.TILED_DENSE``), and the block's larger states spill to
    memmap scratch.

    Pins the segment-fusion + tiling kernels against the fuzz generator's
    full op mix: if tiling ever drifts from the unbudgeted engine,
    allclose(atol=1e-9) in the oracle still catches sign/permutation bugs,
    and the dedicated bit-for-bit suite in ``tests/test_memory_budget.py``
    catches rounding drift.
    """
    from repro.fuzz import oracles

    engine = CountingDense(oracles.TILED_DENSE.memory_budget)
    monkeypatch.setattr(oracles, "TILED_DENSE", engine)
    report = fuzz_run(seed=100, max_cases=8, oracles=["backends"])
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    assert report.oracle_runs == {"backends": 16}
    assert engine.tables == 8 and engine.memmaps >= 1


def test_backends_oracle_covers_the_held_operator(monkeypatch):
    """Seeds 400-439, backends oracle: every non-permutation case within
    ``OPERATOR_MAX_STATES`` compares the operator its table holds with the
    dense ``apply_op`` walk on the identity (and finds it read-only)."""
    from repro.fuzz import oracles

    held = []
    compose = oracles.held_operator

    def counted(circuit, backend=None):
        operator = compose(circuit, backend)
        held.append(operator is not None)
        return operator

    monkeypatch.setattr(oracles, "held_operator", counted)
    report = fuzz_run(seed=400, max_cases=40, oracles=["backends"])
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    assert report.oracle_runs == {"backends": 80}
    assert sum(held) >= 10


# ----------------------------------------------------------------------
# The block composition kernel against a row walk built here
# ----------------------------------------------------------------------
def row_walk(segment):
    """A segment's forward gather, built without the kernel: one
    ``map_indices(arange(d^n))`` table per distinct row, one gather per row."""
    table = segment.table
    ops, row_map = table.unique_ops()
    basis = np.arange(table.dim**table.num_wires)
    tables = {}
    gather = basis
    for u in row_map[segment.start : segment.stop].tolist():
        if u not in tables:
            tables[u] = ops[u].map_indices(basis, table.dim, table.num_wires)
        gather = tables[u][gather]
    return gather


def assert_segments_match_the_row_walk(table) -> int:
    """Every permutation segment of ``table`` composes bit for bit to the
    row walk; returns how many segments were checked."""
    from repro.ir import segment_table

    checked = 0
    for segment in segment_table(table):
        if segment.kind == "perm":
            composed = segment.index_table()
            assert composed.dtype == np.int64
            np.testing.assert_array_equal(composed, row_walk(segment), err_msg=repr(segment))
            checked += 1
    return checked


#: (strategy, d, k) whose macro and lowered tables stay within a few
#: thousand states and rows: every strategy family the kernel serves, at
#: every dimension each supports up to 6 (none supports d=2).
KERNEL_STRATEGY_CASES = [
    ("mct", 3, 5), ("mct", 4, 4), ("mct", 5, 3), ("mct", 6, 3),
    ("pk", 3, 5), ("pk", 5, 3),
    ("reversible", 3, 3), ("reversible", 4, 3), ("reversible", 5, 3),
    ("increment", 3, 4), ("increment", 4, 4), ("increment", 5, 3), ("increment", 6, 4),
    ("mct-clean-ladder", 3, 4), ("mct-clean-ladder", 4, 4),
    ("mct-clean-ladder", 5, 3), ("mct-clean-ladder", 6, 3),
]


def test_block_kernel_matches_the_row_walk_on_strategy_tables():
    """Macro and lowered tables of every permutation family at d=3-6."""
    from repro import lower_to_g_gates
    from repro.synth import registry

    for name, dim, k in KERNEL_STRATEGY_CASES:
        macro = registry.get(name).synthesize(dim, k).circuit
        for circuit in (macro, lower_to_g_gates(macro)):
            assert assert_segments_match_the_row_walk(circuit.to_table()) == 1, (name, dim, k)


def test_block_kernel_seeded_block_matches_the_row_walk():
    """Seeds 0-59: random circuits at d=2-6 with up to four controls per op
    (rows wider than the block width at d>=4), stars, every predicate kind
    and, in two of every three seeds, dense-unitary rows that cut the table
    into several permutation segments."""
    from repro.fuzz import random_circuit
    from repro.ir.segment import block_width

    from repro.ir import segment_table

    segments = wide_rows = mixed = 0
    for seed in range(60):
        dim = 2 + seed % 5
        num_wires = 3 + seed % 4
        weights = None if seed % 3 else {"transposition": 3, "xplus": 2, "perm": 2, "star": 2}
        circuit = random_circuit(
            seed, num_wires=num_wires, dim=dim, num_ops=40, op_weights=weights, max_controls=4
        )
        table = circuit.to_table()
        segments += assert_segments_match_the_row_walk(table)
        wide_rows += int((table.spans() > block_width(dim)).sum())
        mixed += any(segment.kind != "perm" for segment in segment_table(table))
    assert segments >= 150 and wide_rows >= 200 and mixed >= 30
