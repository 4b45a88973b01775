#!/usr/bin/env python3
"""Quickstart: synthesise and verify multi-controlled qudit gates.

This example walks through the paper's headline results on a laptop scale:

1. an ancilla-free 4-controlled Toffoli on qutrits (Theorem III.6);
2. a 4-controlled Toffoli on ququarts with one borrowed ancilla
   (Theorem III.2);
3. a general multi-controlled unitary with one clean ancilla (Fig. 1(b));
4. lowering to the G-gate set and counting gates;
5. picking a simulation backend and inspecting the lowering pass pipeline;
6. the synthesis registry: capability lookup, cost-driven ``auto`` dispatch,
   and analytic estimates at a scale no circuit could be materialised;
7. the columnar IR: lowering through struct-of-arrays gate tables and how
   the table path compares to the object pipeline on wall clock;
8. differential fuzzing: a seeded block of random artifacts through every
   redundant path (``python -m repro fuzz`` runs the same oracles on a
   wall-clock budget);
9. batch execution: the persistent content-addressed compile cache (warm
   compiles skip synthesis entirely) and batched simulation (B states per
   composed gather instead of one statevector at a time);
10. design-space exploration: vectorized batch estimation and Pareto
    frontier reports whose per-k winners are ``auto_select``'s picks;
11. sparse amplitude maps: truth-table extraction and sparse-state
    evolution on a 19-qutrit register (``3^19`` basis states) that no
    dense statevector could hold, verified by batched index propagation.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import time

from repro import (
    count_gates,
    draw,
    estimate,
    lower_to_g_gates,
    random_unitary_gate,
    synth,
    synthesize_mct,
    synthesize_mcu,
)
from repro.core.lowering import _MAX_PASSES
from repro.passes import default_lowering_pipeline
from repro.sim import Statevector, available_backends
from repro.verify import VerificationBudget, assert_mct_spec


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Odd d: ancilla-free k-Toffoli (Theorem III.6).
    # ------------------------------------------------------------------
    odd = synthesize_mct(dim=3, num_controls=4)
    assert_mct_spec(odd.circuit, odd.controls, odd.target)
    print("== |0^4⟩-X01 on qutrits (d = 3) ==")
    print(odd.describe())
    print(f"macro operations : {odd.circuit.num_ops()}")
    print(f"ancillas         : {odd.ancilla_count()} (ancilla-free, as Theorem III.6 promises)")
    print()

    # ------------------------------------------------------------------
    # 2. Even d: one borrowed ancilla (Theorem III.2).
    # ------------------------------------------------------------------
    even = synthesize_mct(dim=4, num_controls=4)
    assert_mct_spec(even.circuit, even.controls, even.target)
    print("== |0^4⟩-X01 on ququarts (d = 4) ==")
    print(even.describe())
    print(f"borrowed ancilla wires: {even.borrowed_wires()}")
    print()

    # ------------------------------------------------------------------
    # 3. Arbitrary payload with one clean ancilla (Fig. 1(b)).
    # ------------------------------------------------------------------
    unitary = random_unitary_gate(3, seed=42)
    mcu = synthesize_mcu(dim=3, num_controls=3, gate=unitary)
    print("== |0^3⟩-U with a Haar-random payload (d = 3) ==")
    print(mcu.describe())
    print(f"clean ancilla wires: {mcu.clean_wires()}")
    print()

    # ------------------------------------------------------------------
    # 4. Lower to G-gates and count.
    # ------------------------------------------------------------------
    report = count_gates(odd)
    print("== G-gate counts for the qutrit 4-Toffoli ==")
    for key, value in report.as_row().items():
        print(f"  {key:>16}: {value}")
    print()

    # A tiny circuit drawing (the 2-controlled Fig. 5 gadget).
    tiny = synthesize_mct(dim=3, num_controls=2)
    print("== Fig. 5 gadget (|00⟩-X01, d = 3) ==")
    print(draw(tiny.circuit, wire_labels=["x1", "x2", "t"]))
    print()
    g_level = lower_to_g_gates(tiny.circuit)
    print(f"...and after lowering to the G-gate set: {g_level.num_ops()} gates")
    print()

    # ------------------------------------------------------------------
    # 5. Simulation backends and the lowering pass pipeline.
    # ------------------------------------------------------------------
    # Every dense simulation entry point takes a ``backend=`` name; the same
    # circuit gives the same amplitudes on every registered engine.
    print(f"== Simulation backends: {', '.join(available_backends())} ==")
    for backend in available_backends():
        state = Statevector(tiny.circuit.num_wires, tiny.circuit.dim, backend=backend)
        state.apply_circuit(tiny.circuit)
        print(f"  {backend:>7}: P(0,0 -> target=1) = {state.probability((0, 0, 1)):.3f}")
    print()

    # ``lower_to_g_gates`` is checked gate for gate against this object pass
    # pipeline; running it by hand shows where gates are saved.
    pipeline = default_lowering_pipeline()
    pipeline.run(tiny.circuit)
    print("== Lowering pass pipeline ==")
    for record in pipeline.history:
        delta = record.ops_after - record.ops_before
        print(
            f"  {record.pass_name:>26}: {record.ops_before:>4} -> {record.ops_after:<4} ops"
            + (f" ({delta:+d})" if delta else "")
        )
    print()

    # ------------------------------------------------------------------
    # 6. The synthesis registry and the analytic estimator.
    # ------------------------------------------------------------------
    # Every construction is a registered strategy with capability metadata;
    # ``auto`` picks the cheapest applicable one for a scenario.
    print(f"== Synthesis registry: {', '.join(synth.names())} ==")
    tight = synth.AncillaBudget(clean=0)
    for k in (3, 20):  # Θ(2^k) wins at tiny k, the paper's O(k·d^3) beyond
        choice = synth.auto_select(3, k, budget=tight)
        print(
            f"  auto(d=3, k={k}, clean=0) -> {choice.strategy.name} "
            f"({choice.resources.two_qudit_gates} two-qudit gates)"
        )
    # The estimator counts *without building*: exact counts at sizes far
    # beyond anything materialisable (the clean-ladder family calibrates
    # from a handful of tiny circuits).
    huge = estimate("mct-clean-ladder", 3, 10**6)
    print(
        f"  estimate('mct-clean-ladder', 3, 10^6): {huge.g_gates} G-gates, "
        f"{huge.ancilla_count('clean')} clean ancillas (exact={huge.exact})"
    )
    print("  (python -m repro estimate 3 1000000 ranks the whole toffoli family)")
    print()

    # ------------------------------------------------------------------
    # 7. The columnar IR: gate tables vs per-op objects.
    # ------------------------------------------------------------------
    # ``lower_to_g_gates`` lowers through the struct-of-arrays GateTable
    # (cached expansion templates + columnar peephole kernels); the object
    # pass pipeline it is checked against is gate-for-gate identical — just
    # much slower once circuits get big.
    big = synthesize_mct(dim=3, num_controls=12)
    lowerings = {
        "object": default_lowering_pipeline(max_sweeps=_MAX_PASSES).run,
        "table": lower_to_g_gates,
    }
    timings = {}
    for engine, lower in lowerings.items():
        start = time.perf_counter()
        lowered = lower(big.circuit)
        counts = (lowered.g_gate_count(), lowered.depth())
        timings[engine] = (time.perf_counter() - start, counts)
    print("== Columnar IR: lower+optimize+count on the 12-controlled qutrit Toffoli ==")
    for engine, (seconds, (g_count, depth)) in timings.items():
        print(f"  {engine:>7}: {seconds:7.3f} s   ({g_count} G-gates, depth {depth})")
    assert timings["object"][1] == timings["table"][1]
    speedup = timings["object"][0] / timings["table"][0]
    print(f"  table-path speedup: {speedup:.1f}x (identical gate counts and depth)")
    # The table form is live on the lowered circuit: counting, inversion and
    # simulation all run on numpy columns with interned payloads.
    table = lowered.cached_table  # the loop's last iteration is the table engine
    print(
        f"  {table.num_ops()} rows share {len(table.pools.perms)} interned payloads "
        f"and {len(table.pools.preds)} predicates"
    )
    print()

    # ------------------------------------------------------------------
    # 8. Differential fuzzing: every redundant path agrees.
    # ------------------------------------------------------------------
    # The object/table lowerings, the simulation backends and the analytic
    # estimator are independent implementations of one semantics; the fuzz
    # subsystem generates seeded random circuits, synthesis instances and
    # pass pipelines and checks them against each other.  Any divergence is
    # shrunk to a few-op reproducer and reported with its case seed.
    from repro.fuzz import fuzz_run

    report = fuzz_run(seed=0, max_cases=5)
    print("== Differential fuzzing: 5 seeded cases through every oracle ==")
    for oracle, runs in sorted(report.oracle_runs.items()):
        print(f"  {oracle:>11}: {runs} runs")
    print(f"  divergences: {len(report.divergences)} (report.ok={report.ok})")
    print("  (python -m repro fuzz --time-budget 20 --json runs the CI smoke)")
    print()

    # ------------------------------------------------------------------
    # 9. Batch execution: compile cache + batched simulation.
    # ------------------------------------------------------------------
    # The compile cache content-addresses (strategy, d, k, pipeline,
    # code-version salt) and stores the lowered GateTable as .npz; a warm
    # request never synthesises or lowers.  Here the second compile of the
    # same scenario comes straight from the in-process memo.
    import tempfile

    from repro.exec import CompileCache, compile_lowered
    from repro.sim import BatchedStatevector

    print("== Batch execution: compile cache + batched simulation ==")
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = CompileCache(cache_dir)
        start = time.perf_counter()
        cold = compile_lowered("mct", 3, 10, cache=cache)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = compile_lowered("mct", 3, 10, cache=cache)
        warm_seconds = time.perf_counter() - start
        print(
            f"  compile mct(3, 10): cold {cold_seconds*1000:6.1f} ms ({cold.source}), "
            f"warm {warm_seconds*1000:6.3f} ms ({warm.source}, "
            f"{cold_seconds/max(warm_seconds, 1e-9):.0f}x)"
        )
        # Batched simulation: four basis states through one composed gather.
        circuit = warm.circuit
        rows = [
            [0] * circuit.num_wires,
            [0] * (circuit.num_wires - 1) + [1],
            [1] + [0] * (circuit.num_wires - 1),
            [0] * (circuit.num_wires - 1) + [2],
        ]
        batch = BatchedStatevector.from_basis_states(rows, 3)
        batch.apply_circuit(circuit)
        for digits, image in zip(rows, batch.most_probable()):
            print(f"  |{''.join(map(str, digits))}⟩ -> |{''.join(map(str, image))}⟩")
    print(
        "  (python -m repro batch --workload spec.json --jobs 4 --cache-dir ... "
        "runs whole request lists)"
    )
    print()

    # ------------------------------------------------------------------
    # 10. Design-space exploration: batch estimation, sweep, frontier.
    # ------------------------------------------------------------------
    # One estimate_batch call prices a whole k grid (numpy arithmetic per
    # residue class); run_sweep covers strategy × d × k, and the frontier
    # report's per-k winners are the picks auto_select makes live.
    import numpy as np

    from repro.dse import SweepSpec, frontier_report, run_sweep

    print("== Design-space exploration: batch estimation + Pareto frontier ==")
    mct = synth.get("mct")
    ks = np.arange(1, 10_001)
    mct.estimate_batch(3, ks)  # one-time calibration + small-k measurements
    start = time.perf_counter()
    batched = mct.estimate_batch(3, ks)
    batch_seconds = time.perf_counter() - start
    assert batched.row(9_999) == mct.estimate(3, 10_000)
    print(
        f"  estimate_batch(mct, d=3, {len(ks)} points, warm): "
        f"{batch_seconds*1000:.1f} ms ({batch_seconds/len(ks)*1e9:.0f} ns/point)"
    )

    store = run_sweep(SweepSpec(dims=(3,), k_stop=24))
    report = frontier_report(store)
    crossovers = report["dims"]["3"]["crossovers"]
    print(f"  swept {store.counts()['points']} points; d=3 winner crossovers:")
    for crossover in crossovers:
        print(f"    k={crossover['k']}: {crossover['from']} -> {crossover['to']}")
    choice = synth.auto_select(3, 20)
    assert choice.strategy.name == [c["to"] for c in crossovers if c["k"] <= 20][-1]
    print(
        f"  auto_select(3, 20) -> {choice.strategy.name} "
        f"(two-qudit {choice.resources.two_qudit_gates}), the swept winner at k=20"
    )
    print("  (python -m repro dse --jobs 4 --report frontier.json sweeps a grid)")
    print()

    # ------------------------------------------------------------------
    # 11. Sparse amplitude maps: truth tables beyond any statevector.
    # ------------------------------------------------------------------
    # An 18-control ternary Toffoli lives on 19 qutrits: 3^19 ≈ 1.16e9
    # basis states, an ~18.6 GB statevector no dense engine holds.  The
    # circuit is a permutation, so its truth table is extracted by batched
    # index propagation (GateTable.apply_to_indices — no state at all) and
    # superpositions evolve through the sparse engine in O(rows · nnz).
    from repro.sim import SparseState, get_backend

    print("== Sparse amplitude maps: oracle truth tables at 3^19 ==")
    huge = synth.synthesize("mct", 3, 18)
    table = huge.circuit.to_table()
    size = 3**huge.circuit.num_wires
    probes = np.array([0, 1, size // 2, size - 1], dtype=np.int64)
    start = time.perf_counter()
    images = table.apply_to_indices(probes)  # truth-table rows, no amplitudes
    probe_ms = (time.perf_counter() - start) * 1e3
    fired = ", ".join(
        f"{src}->{dst}" + (" (fired)" if src != dst else "")
        for src, dst in zip(probes.tolist(), images.tolist())
    )
    print(f"  truth-table probes ({probe_ms:.1f} ms): {fired}")

    state = SparseState.from_basis_state([0] * huge.circuit.num_wires, 3)
    evolved = get_backend("sparse").apply_table_sparse(state, table)
    print(
        f"  sparse engine: nnz {state.nnz} -> {evolved.nnz}, "
        f"{evolved.nbytes} bytes vs {16 * size / 1e9:.1f} GB dense"
    )
    assert_mct_spec(
        huge.circuit,
        huge.controls,
        huge.target,
        budget=VerificationBudget(max_basis_states=1000, samples=128),
    )
    print("  verified against the mct spec: 128 sampled states, one batched index pass")
    print("  (examples/huge_register_oracle.py runs the full tour)")


if __name__ == "__main__":
    main()
