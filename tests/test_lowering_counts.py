"""Tests for the lowering pass and gate-count reporting."""

import pytest

from repro.core.gate_counts import count_gates
from repro.core.lowering import lower_to_g_gates
from repro.core.toffoli import synthesize_mct
from repro.exceptions import SynthesisError
from repro.qudit.ancilla import AncillaKind, SynthesisResult
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import Operation, StarShiftOp
from repro.sim import apply_to_basis
from repro.verify import assert_implements_permutation
from repro.utils.indexing import iterate_basis

import numpy as np


def lowering_preserves_behaviour(circuit):
    lowered = lower_to_g_gates(circuit)
    assert lowered.is_g_circuit()
    for state in iterate_basis(circuit.dim, circuit.num_wires):
        assert apply_to_basis(lowered, state) == apply_to_basis(circuit, state)
    return lowered


class TestLowering:
    def test_uncontrolled_permutation(self):
        circuit = QuditCircuit(1, 5)
        circuit.add_gate(XPlus(5, 2), 0)
        lowered = lowering_preserves_behaviour(circuit)
        assert lowered.num_ops() >= 2

    @pytest.mark.parametrize("predicate", [Value(0), Value(2), Odd(), EvenNonZero()])
    def test_single_controlled_shift(self, predicate):
        circuit = QuditCircuit(2, 5)
        circuit.add_gate(XPlus(5, 1), 1, [(0, predicate)])
        lowering_preserves_behaviour(circuit)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_two_controlled_odd(self, dim):
        circuit = QuditCircuit(3, dim)
        circuit.add_gate(
            XPerm.transposition(dim, 0, 2), 2, [(0, Value(1)), (1, Value(0))]
        )
        lowering_preserves_behaviour(circuit)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_two_controlled_even_borrows_idle_wire(self, dim):
        circuit = QuditCircuit(4, dim)
        circuit.add_gate(
            XPerm.transposition(dim, 0, 1), 2, [(0, Value(0)), (1, Value(0))]
        )
        lowering_preserves_behaviour(circuit)

    def test_two_controlled_even_without_idle_wire_fails(self):
        circuit = QuditCircuit(3, 4)
        circuit.add_gate(
            XPerm.transposition(4, 0, 1), 2, [(0, Value(0)), (1, Value(0))]
        )
        with pytest.raises(SynthesisError):
            lower_to_g_gates(circuit)

    def test_star_gate(self):
        circuit = QuditCircuit(3, 3)
        circuit.append(StarShiftOp(0, 2, +1, [(1, Value(0))]))
        lowering_preserves_behaviour(circuit)

    def test_star_gate_negative(self):
        circuit = QuditCircuit(3, 5)
        circuit.append(StarShiftOp(0, 2, -1, [(1, Value(0))]))
        lowering_preserves_behaviour(circuit)

    def test_identity_gate_disappears(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 0), 0)
        assert lower_to_g_gates(circuit).num_ops() == 0

    def test_three_controls_rejected(self):
        circuit = QuditCircuit(4, 3)
        circuit.add_gate(
            XPerm.transposition(3, 0, 1),
            3,
            [(0, Value(0)), (1, Value(0)), (2, Value(0))],
        )
        with pytest.raises(SynthesisError):
            lower_to_g_gates(circuit)

    def test_unitary_payload_rejected(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(SingleQuditUnitary(np.diag([1, 1j, -1])), 1, [(0, Value(0))])
        with pytest.raises(SynthesisError):
            lower_to_g_gates(circuit)

    def test_already_g_circuit_is_stable(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
        lowered = lower_to_g_gates(circuit)
        assert lowered.num_ops() == 1


class TestGateCounts:
    def test_counts_for_circuit(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
        circuit.add_gate(XPerm.transposition(3, 1, 2), 0)
        report = count_gates(circuit)
        assert report.g_gates == 2
        assert report.two_qudit_gates == 1
        assert report.single_qudit_gates == 1
        assert report.macro_ops == 2

    def test_counts_for_synthesis_result(self):
        result = synthesize_mct(3, 3)
        report = count_gates(result)
        assert report.g_gates > 0
        assert report.ancillas == {}
        row = report.as_row()
        assert row["g_gates"] == report.g_gates

    def test_ancilla_histogram(self):
        result = synthesize_mct(4, 3)
        report = count_gates(result)
        assert report.ancillas == {AncillaKind.BORROWED.value: 1}
        assert report.as_row()["ancilla_borrowed"] == 1

    def test_count_without_lowering(self):
        result = synthesize_mct(3, 4)
        report = count_gates(result, lower=False)
        assert report.macro_ops == result.circuit.num_ops()

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            count_gates(42)

    def test_depth_positive(self):
        report = count_gates(synthesize_mct(3, 3))
        assert 0 < report.depth <= report.g_gates
