#!/usr/bin/env python3
"""Oracle truth-table extraction on a register no statevector can hold.

An 18-control ternary Toffoli acts on 19 qutrits — a basis of
``3^19 = 1,162,261,467`` states, i.e. a ~18.6 GB complex statevector that
the ``dense`` engine cannot realistically evolve, with or without a memory
budget.
The circuit is a *permutation*, though, and its action on any particular
input touches exactly one amplitude, so three O(nnz) paths run it instantly:

* ``GateTable.apply_to_indices`` — direct stride arithmetic propagates a
  whole batch of flat basis indices through the lowered G-gate rows
  (truth-table extraction: one batched call, no state at all);
* the ``sparse`` engine — a :class:`repro.sim.SparseState` holds the
  (index, amplitude) pairs and evolves in O(rows · nnz);
* the batched sampled verifier — ``assert_mct_spec`` pushes all its sampled
  states through one ``apply_to_indices`` batch and checks each against the
  semantic spec callback, so even this register is *verified*, not trusted.

Run with ``python examples/huge_register_oracle.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lowering import lower_to_g_gates
from repro.sim import SparseState, get_backend
from repro.synth import synthesize
from repro.utils.indexing import indices_to_digits
from repro.verify import VerificationBudget, assert_mct_spec

DIM, CONTROLS = 3, 18


def main() -> None:
    result = synthesize("mct", DIM, CONTROLS)
    macro = result.circuit
    lowered = lower_to_g_gates(macro)
    size = DIM**macro.num_wires
    print(f"== |0^{CONTROLS}>-X01 on {macro.num_wires} qutrits ==")
    print(f"  basis states      : {size:,} (statevector would need {16 * size / 1e9:.1f} GB)")
    print(f"  lowered G-gates   : {lowered.num_ops():,}")

    # -- truth-table extraction: batched index propagation ------------------
    table = lowered.to_table()
    probes = np.array([0, 1, 2, size // 2, size - 1], dtype=np.int64)
    start = time.perf_counter()
    images = table.apply_to_indices(probes)
    elapsed = time.perf_counter() - start
    print(f"  truth-table batch : {probes.size} probes in {elapsed * 1e3:.1f} ms")
    for src, dst in zip(probes.tolist(), images.tolist()):
        row = "".join(map(str, indices_to_digits(np.array([dst]), DIM, macro.num_wires)[0]))
        marker = " <- fired" if src != dst else ""
        print(f"    {src:>13,} -> {row}{marker}")

    # -- the sparse engine on a superposition --------------------------------
    engine = get_backend("sparse")
    state = SparseState(
        macro.num_wires,
        DIM,
        [0, size - 1],
        np.array([1.0, 1.0j]) / np.sqrt(2),
    )
    start = time.perf_counter()
    evolved = engine.apply_table_sparse(state, table)
    elapsed = time.perf_counter() - start
    print(f"  sparse engine     : nnz {state.nnz} -> {evolved.nnz} in {elapsed * 1e3:.1f} ms "
          f"({evolved.nbytes} bytes vs {16 * size / 1e9:.1f} GB dense)")

    # -- verified against the semantic spec, not trusted ---------------------
    start = time.perf_counter()
    assert_mct_spec(
        macro,
        result.controls,
        result.target,
        budget=VerificationBudget(max_basis_states=1000, samples=256),
    )
    elapsed = time.perf_counter() - start
    print(f"  spec verification : 256 sampled states (batched) in {elapsed * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
