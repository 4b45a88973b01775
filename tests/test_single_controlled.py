"""Tests for singly-controlled gate lowering (Section II observations)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.single_controlled import (
    control_value_conjugation_ops,
    controlled_permutation_g_ops,
    controlled_transposition_g_ops,
    mapping_permutation,
)
from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Odd, Value
from repro.verify import assert_implements_permutation
from repro.utils import permutations as perm


def build(dim, ops, wires=2):
    circuit = QuditCircuit(wires, dim)
    circuit.extend(ops)
    return circuit


class TestMappingPermutation:
    @given(st.integers(min_value=3, max_value=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_maps_pair_to_01(self, dim, data):
        i = data.draw(st.integers(min_value=0, max_value=dim - 1))
        j = data.draw(st.integers(min_value=0, max_value=dim - 1).filter(lambda x: x != i))
        p = mapping_permutation(dim, i, j)
        assert perm.is_permutation(p)
        assert p[i] == 0 and p[j] == 1

    def test_rejects_equal_points(self):
        with pytest.raises(GateError):
            mapping_permutation(4, 2, 2)


class TestControlledTransposition:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("control_value", [0, 1, 2])
    @pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 2)])
    def test_matches_spec_and_is_g(self, dim, control_value, swap):
        ops = controlled_transposition_g_ops(dim, 0, control_value, 1, *swap)
        circuit = build(dim, ops)
        assert circuit.is_g_circuit()

        def spec(state):
            out = list(state)
            if state[0] == control_value:
                if out[1] == swap[0]:
                    out[1] = swap[1]
                elif out[1] == swap[1]:
                    out[1] = swap[0]
            return out

        assert_implements_permutation(circuit, spec)

    def test_plain_g_gate_case_is_short(self):
        ops = controlled_transposition_g_ops(3, 0, 0, 1, 0, 1)
        assert len(ops) == 1


class TestControlledPermutation:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("predicate", [Value(0), Value(2), Odd(), EvenNonZero()])
    def test_shift_gate(self, dim, predicate):
        shift = perm.cycle_plus(dim, 1)
        ops = controlled_permutation_g_ops(dim, 0, predicate, 1, shift)
        circuit = build(dim, ops)
        assert circuit.is_g_circuit()

        def spec(state):
            out = list(state)
            if predicate.satisfied_by(state[0], dim):
                out[1] = (out[1] + 1) % dim
            return out

        assert_implements_permutation(circuit, spec)

    def test_identity_permutation_produces_no_ops(self):
        assert controlled_permutation_g_ops(4, 0, Value(0), 1, (0, 1, 2, 3)) == []


class TestControlValueConjugation:
    def test_non_zero_values_get_swaps(self):
        ops = control_value_conjugation_ops(4, [0, 1, 2], [0, 3, 1])
        assert len(ops) == 2

    def test_length_mismatch(self):
        with pytest.raises(GateError):
            control_value_conjugation_ops(3, [0, 1], [0])

    def test_value_out_of_range(self):
        with pytest.raises(GateError):
            control_value_conjugation_ops(3, [0], [5])
