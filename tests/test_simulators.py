"""Tests for the permutation, statevector and unitary simulators."""

import numpy as np
import pytest

from repro.exceptions import GateError, VerificationError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import Operation
from repro.sim import (
    Statevector,
    apply_to_basis,
    circuit_unitary,
    controlled_unitary_matrix,
    function_table,
    multi_controlled_unitary_matrix,
    permutation_parity,
    permutation_table,
)
from repro.verify import (
    assert_implements_permutation,
    assert_unitary_equiv,
    assert_wires_preserved,
)
from repro.sim.permutation import states_differing_on


def x01_controlled_circuit(dim=3):
    circuit = QuditCircuit(2, dim, name="cx01")
    circuit.add_gate(XPerm.transposition(dim, 0, 1), 1, [(0, Value(0))])
    return circuit


class TestPermutationSim:
    def test_apply_to_basis(self):
        circuit = x01_controlled_circuit()
        assert apply_to_basis(circuit, (0, 0)) == (0, 1)
        assert apply_to_basis(circuit, (2, 0)) == (2, 0)

    def test_wrong_arity_rejected(self):
        with pytest.raises(GateError):
            apply_to_basis(x01_controlled_circuit(), (0, 0, 0))

    def test_out_of_range_digit_rejected(self):
        with pytest.raises(GateError):
            apply_to_basis(x01_controlled_circuit(), (0, 7))

    def test_non_permutation_rejected(self):
        circuit = QuditCircuit(1, 3)
        circuit.add_gate(SingleQuditUnitary(np.eye(3)), 0)
        with pytest.raises(GateError):
            apply_to_basis(circuit, (0,))

    def test_permutation_table_is_permutation(self):
        table = permutation_table(x01_controlled_circuit())
        assert sorted(table) == list(range(9))

    def test_function_table(self):
        table = function_table(x01_controlled_circuit())
        assert table[(0, 1)] == (0, 0)

    def test_permutation_parity_single_transposition(self):
        # |0>-X01 on two qutrits swaps exactly 1 pair of basis states per
        # control value 0 -> parity = number of transpositions mod 2 = 1.
        assert permutation_parity(x01_controlled_circuit(3)) == 1

    def test_states_differing_on(self):
        offenders = states_differing_on(x01_controlled_circuit(), [1])
        assert ((0, 0), (0, 1)) in offenders
        assert all(state[0] == 0 for state, _ in offenders)


class TestStatevector:
    def test_basis_state_construction(self):
        state = Statevector.from_basis_state((1, 2), 3)
        assert state.probability((1, 2)) == pytest.approx(1.0)

    def test_uniform(self):
        state = Statevector.uniform(2, 3)
        assert state.norm() == pytest.approx(1.0)
        assert state.probability((0, 0)) == pytest.approx(1.0 / 9)

    def test_permutation_op_moves_amplitude(self):
        state = Statevector.from_basis_state((0, 0), 3)
        state.apply_circuit(x01_controlled_circuit())
        assert state.probability((0, 1)) == pytest.approx(1.0)

    def test_unitary_op_applies_block(self):
        dim = 3
        fourier = np.array(
            [[np.exp(2j * np.pi * r * c / dim) / np.sqrt(dim) for c in range(dim)] for r in range(dim)]
        )
        circuit = QuditCircuit(1, dim)
        circuit.add_gate(SingleQuditUnitary(fourier), 0)
        state = Statevector.from_basis_state((0,), dim)
        state.apply_circuit(circuit)
        assert np.allclose(state.data, fourier[:, 0])

    def test_controlled_unitary_only_fires_on_control(self):
        dim = 3
        phase = SingleQuditUnitary(np.diag([1, -1, 1]))
        circuit = QuditCircuit(2, dim)
        circuit.add_gate(phase, 1, [(0, Value(1))])
        state = Statevector.from_basis_state((0, 1), dim)
        state.apply_circuit(circuit)
        assert state.amplitude((0, 1)) == pytest.approx(1.0)
        state = Statevector.from_basis_state((1, 1), dim)
        state.apply_circuit(circuit)
        assert state.amplitude((1, 1)) == pytest.approx(-1.0)

    def test_fidelity_and_most_probable(self):
        a = Statevector.from_basis_state((0, 0), 3)
        b = Statevector.from_basis_state((0, 1), 3)
        assert a.fidelity(b) == pytest.approx(0.0)
        assert a.most_probable() == (0, 0)


class TestUnitaryBuilder:
    def test_permutation_circuit_matrix(self):
        matrix = circuit_unitary(x01_controlled_circuit())
        expected = controlled_unitary_matrix(3, 0, XPerm.transposition(3, 0, 1).matrix())
        assert np.allclose(matrix, expected)

    def test_multi_controlled_unitary_matrix(self):
        u = np.diag([1, -1, 1])
        matrix = multi_controlled_unitary_matrix(3, 2, u)
        assert matrix.shape == (27, 27)
        assert matrix[1, 1] == pytest.approx(-1.0)
        assert matrix[10, 10] == pytest.approx(1.0)

    def test_unitary_circuit_matrix(self):
        dim = 3
        gate = SingleQuditUnitary(np.diag([1, 1j, -1]))
        circuit = QuditCircuit(1, dim)
        circuit.add_gate(gate, 0)
        assert np.allclose(circuit_unitary(circuit), gate.matrix())


class TestVerifyHelpers:
    def test_assert_implements_permutation_passes(self):
        circuit = x01_controlled_circuit()

        def spec(state):
            out = list(state)
            if state[0] == 0:
                out[1] = {0: 1, 1: 0}.get(state[1], state[1])
            return out

        assert_implements_permutation(circuit, spec)

    def test_assert_implements_permutation_fails(self):
        circuit = x01_controlled_circuit()
        with pytest.raises(VerificationError):
            assert_implements_permutation(circuit, lambda s: s)

    def test_assert_wires_preserved(self):
        circuit = x01_controlled_circuit()
        assert_wires_preserved(circuit, [0])
        with pytest.raises(VerificationError):
            assert_wires_preserved(circuit, [1])

    def test_assert_unitary_equiv_global_phase(self):
        dim = 3
        gate = SingleQuditUnitary(np.exp(1j * 0.7) * np.eye(dim), check=False)
        circuit = QuditCircuit(1, dim)
        circuit.add_gate(gate, 0)
        with pytest.raises(VerificationError):
            assert_unitary_equiv(circuit, np.eye(dim))
        assert_unitary_equiv(circuit, np.eye(dim), up_to_global_phase=True)
