"""The block composition kernel of :mod:`repro.ir.segment`: its edge cases,
and the memory composition holds while it runs and after.

Every composed gather is compared bit for bit with a row walk built here
from ``map_indices`` over the whole basis, never with the kernel itself.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro import lower_to_g_gates
from repro.ir import GateTable, compose_gather, segment_table
from repro.ir import segment as segment_module
from repro.ir.segment import block_width
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Odd, Value
from repro.qudit.gates import XPerm, XPlus
from repro.qudit.operations import StarShiftOp
from repro.synth import registry


def row_walk(circuit) -> np.ndarray:
    """The circuit's forward gather: each op's ``map_indices`` of the whole
    basis, composed one row at a time."""
    basis = np.arange(circuit.dim**circuit.num_wires)
    gather = basis
    for op in circuit:
        gather = op.map_indices(basis, circuit.dim, circuit.num_wires)[gather]
    return gather


def assert_composes_like_the_walk(circuit) -> None:
    composed = circuit.to_table().permutation_index_table()
    assert composed.dtype == np.int64 and not composed.flags.writeable
    np.testing.assert_array_equal(composed, row_walk(circuit))


def cuts(circuit):
    """The kernel's greedy blocks of the circuit's rows, as wire tuples."""
    table = circuit.to_table()
    ops, row_map = table.unique_ops()
    rows = row_map.tolist()
    masks = {u: segment_module._wire_mask(ops[u], table.num_wires) for u in set(rows)}
    blocks = segment_module._cut_blocks(rows, masks, block_width(table.dim))
    return [
        (stop - start, tuple(w for w in range(table.num_wires) if mask >> w & 1))
        for start, stop, mask in blocks
    ]


def test_a_row_wider_than_the_block_is_a_block_of_its_own(monkeypatch):
    """The fuzz case ``StarShiftOp(X+⋆: ⋆@w3 -> w1 | 1@0, 4@2)`` spans four
    wires at d=5, wider than a three-wire block; a first version of the
    kernel crashed on it."""
    monkeypatch.setattr(segment_module, "BLOCK_TABLE_BYTES", 8 * 5**3)
    assert block_width(5) == 3
    star = StarShiftOp(3, 1, +1, [(0, Value(1)), (2, Value(4))])
    alone = QuditCircuit(4, 5).extend([star])
    assert cuts(alone) == [(1, (0, 1, 2, 3))]
    assert_composes_like_the_walk(alone)

    circuit = QuditCircuit(5, 5)
    circuit.add_gate(XPlus(5, 1), 0)
    circuit.add_gate(XPerm.transposition(5, 1, 4), 2, [(1, Odd())])
    circuit.append(star)
    circuit.add_gate(XPlus(5, 3), 4, [(3, Value(2))])
    circuit.append(star.inverse())
    circuit.add_gate(XPerm.transposition(5, 0, 4), 3, [(0, Value(1))])
    assert cuts(circuit) == [
        (2, (0, 1, 2)), (1, (0, 1, 2, 3)), (1, (3, 4)), (1, (0, 1, 2, 3)), (1, (0, 3)),
    ]
    assert_composes_like_the_walk(circuit)


def test_a_block_covering_the_register_is_the_gather():
    """Lowered ``mct`` at d=3, k=3: 635 rows on 4 wires, one block of every
    wire (3^4 states fit a block), composed without digit planes."""
    circuit = lower_to_g_gates(registry.get("mct").synthesize(3, 3).circuit)
    assert circuit.num_wires <= block_width(3)
    assert cuts(circuit) == [(len(circuit.to_table()), (0, 1, 2, 3))]
    assert_composes_like_the_walk(circuit)


def test_one_block_that_leaves_a_wire_idle_runs_on_planes():
    """Every row fits one block, but wire 4 is idle, so the block is not the
    register and its lookup rewrites the planes once."""
    circuit = QuditCircuit(5, 3)
    circuit.add_gate(XPlus(3, 1), 0, [(3, Value(2))])
    circuit.append(StarShiftOp(0, 2, -1, [(1, Value(0))]))
    circuit.add_gate(XPerm.transposition(3, 0, 2), 3, [(2, Odd())])
    assert cuts(circuit) == [(3, (0, 1, 2, 3))]
    assert_composes_like_the_walk(circuit)


def test_an_empty_table_composes_to_the_identity():
    table = GateTable.from_ops([], 4, 3)
    np.testing.assert_array_equal(table.permutation_index_table(), np.arange(3**4))
    np.testing.assert_array_equal(compose_gather(table, 0, 0, inverse=True), np.arange(3**4))
    assert segment_table(table) == ()


def test_blocks_on_non_contiguous_wires():
    """Three-wire blocks at d=6 on wires {1, 4}, then {0, 2, 5} and so on:
    each local index skips the wires between, and the planes outside each
    block stay untouched."""
    assert block_width(6) == 3
    circuit = QuditCircuit(6, 6)
    circuit.add_gate(XPerm.transposition(6, 0, 5), 4, [(1, Value(2))])
    circuit.append(StarShiftOp(4, 1, +1))
    circuit.add_gate(XPlus(6, 3), 1)
    for _ in range(2):  # the repeated blocks are composed once
        circuit.add_gate(XPlus(6, 1), 0, [(5, Odd())])
        circuit.add_gate(XPerm.transposition(6, 1, 2), 5, [(0, Value(3))])
        circuit.append(StarShiftOp(0, 5, -1))
        circuit.add_gate(XPlus(6, 2), 2)
        circuit.add_gate(XPerm.transposition(6, 0, 1), 3, [(2, Value(1))])
    assert cuts(circuit) == [
        (3, (1, 4)), (4, (0, 2, 5)), (1, (2, 3)), (4, (0, 2, 5)), (1, (2, 3)),
    ]
    assert_composes_like_the_walk(circuit)


def test_digit_planes_hold_every_digit_at_d_257():
    """At d=257 a digit needs more than eight bits: planes of uint8 would
    wrap 256 to 0.  Two-wire rows are wider than a one-wire block here."""
    assert block_width(257) == 1
    circuit = QuditCircuit(2, 257)
    circuit.add_gate(XPerm.transposition(257, 0, 256), 1, [(0, Value(256))])
    circuit.add_gate(XPlus(257, 200), 0)
    circuit.add_gate(XPerm.transposition(257, 255, 256), 0, [(1, Value(3))])
    circuit.add_gate(XPlus(257, 129), 1)
    circuit.add_gate(XPerm.transposition(257, 1, 256), 1)
    assert cuts(circuit) == [(1, (0, 1)), (1, (0,)), (1, (0, 1)), (2, (1,))]
    assert_composes_like_the_walk(circuit)


def test_composition_retains_nothing_and_peaks_low():
    """Lowered ``mct`` at d=3, k=8 (3^9 states, 12,245 rows).  Composition
    used to leave one 8·dⁿ-byte table per distinct op in a process-wide
    cache (about 58 gathers' worth here, 66 at its peak); now nothing but
    the gather, which goes with its table."""
    circuit = lower_to_g_gates(registry.get("mct").synthesize(3, 8).circuit)
    gather_bytes = 8 * 3**circuit.num_wires
    gc.collect()
    tracemalloc.start()
    try:
        composed = circuit.to_table().permutation_index_table()
        assert composed.nbytes == gather_bytes
        _, peak = tracemalloc.get_traced_memory()
        del composed, circuit
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < gather_bytes, retained / gather_bytes
    assert peak < 16 * gather_bytes, peak / gather_bytes


def test_a_live_composed_table_retains_about_one_gather():
    """Lowered ``mct`` at d=3, k=8 again, with the table kept alive.  The
    interned gather's key used to hold the segment's row bytes, 32 per row
    (392 KB against a 157 KB gather), as long as the gather: the table
    retained 3.5 gathers' worth here.  The key is now a digest.  The table's
    decoded-op cache (``unique_ops``, which any op walk of the table builds)
    is built first, so what is measured is what composition adds."""
    table = lower_to_g_gates(registry.get("mct").synthesize(3, 8).circuit).to_table()
    table.unique_ops()
    gc.collect()
    tracemalloc.start()
    try:
        composed = table.permutation_index_table()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert composed.nbytes == 8 * 3**table.num_wires
    assert retained < 1.5 * composed.nbytes, retained / composed.nbytes
