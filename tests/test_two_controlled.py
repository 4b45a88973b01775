"""Tests for the two-controlled gadgets (Lemmas III.1 and III.3)."""

import pytest

from repro.core.two_controlled import (
    even_two_controlled_transposition_ops,
    odd_two_controlled_x01_ops,
    two_controlled_permutation_ops,
    two_controlled_transposition_ops,
)
from repro.exceptions import DimensionError, SynthesisError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Odd, Value
from repro.verify import assert_implements_permutation, assert_wires_preserved
from repro.utils import permutations as perm


def two_controlled_spec(dim, pred1, pred2, transform):
    def spec(state):
        out = list(state)
        if pred1.satisfied_by(state[0], dim) and pred2.satisfied_by(state[1], dim):
            out[2] = transform(out[2])
        return out

    return spec


def swap_transform(i, j):
    return lambda t: j if t == i else (i if t == j else t)


class TestOddGadget:
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_fig5_matches_spec(self, dim):
        """The literal Fig. 5 circuit implements |00⟩-X01 with no ancilla."""
        circuit = QuditCircuit(3, dim, name="fig5")
        circuit.extend(odd_two_controlled_x01_ops(dim, 0, 1, 2))
        spec = two_controlled_spec(dim, Value(0), Value(0), swap_transform(0, 1))
        assert_implements_permutation(circuit, spec)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_fig5_preserves_controls(self, dim):
        circuit = QuditCircuit(3, dim)
        circuit.extend(odd_two_controlled_x01_ops(dim, 0, 1, 2))
        assert_wires_preserved(circuit, [0, 1])

    def test_fig5_has_five_gates(self):
        assert len(odd_two_controlled_x01_ops(3, 0, 1, 2)) == 5

    def test_fig5_rejects_even_dim(self):
        with pytest.raises(DimensionError):
            odd_two_controlled_x01_ops(4, 0, 1, 2)

    @pytest.mark.parametrize("v1,v2,swap", [(0, 0, (0, 2)), (1, 2, (0, 1)), (2, 1, (1, 2))])
    def test_general_values_and_swap(self, v1, v2, swap):
        dim = 5
        ops = two_controlled_transposition_ops(dim, 0, Value(v1), 1, Value(v2), 2, *swap)
        circuit = QuditCircuit(3, dim)
        circuit.extend(ops)
        spec = two_controlled_spec(dim, Value(v1), Value(v2), swap_transform(*swap))
        assert_implements_permutation(circuit, spec)

    @pytest.mark.parametrize("pred1", [Odd(), EvenNonZero()])
    def test_predicate_first_control(self, pred1):
        dim = 5
        ops = two_controlled_transposition_ops(dim, 0, pred1, 1, Value(0), 2, 0, 1)
        circuit = QuditCircuit(3, dim)
        circuit.extend(ops)
        spec = two_controlled_spec(dim, pred1, Value(0), swap_transform(0, 1))
        assert_implements_permutation(circuit, spec)


class TestEvenGadget:
    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_matches_spec_for_all_ancilla_values(self, dim):
        """Lemma III.1 replacement: works for every initial borrowed-ancilla value."""
        ops = even_two_controlled_transposition_ops(
            dim, 0, Value(0), 1, Value(0), 2, 0, 1, borrow=3
        )
        circuit = QuditCircuit(4, dim, name="even-2ctrl")
        circuit.extend(ops)
        spec = lambda s: (  # noqa: E731
            s[0],
            s[1],
            (1 if s[2] == 0 else 0 if s[2] == 1 else s[2]) if s[0] == 0 and s[1] == 0 else s[2],
            s[3],
        )
        assert_implements_permutation(circuit, spec)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_restores_borrowed_ancilla_and_controls(self, dim):
        ops = even_two_controlled_transposition_ops(
            dim, 0, Value(0), 1, Value(0), 2, 0, 1, borrow=3
        )
        circuit = QuditCircuit(4, dim)
        circuit.extend(ops)
        assert_wires_preserved(circuit, [0, 1, 3])

    def test_general_predicates(self):
        dim = 4
        ops = even_two_controlled_transposition_ops(
            dim, 0, Odd(), 1, Value(0), 2, 2, 3, borrow=3
        )
        circuit = QuditCircuit(4, dim)
        circuit.extend(ops)
        spec = two_controlled_spec(dim, Odd(), Value(0), swap_transform(2, 3))
        assert_implements_permutation(circuit, spec)

    def test_requires_distinct_wires(self):
        with pytest.raises(SynthesisError):
            even_two_controlled_transposition_ops(4, 0, Value(0), 1, Value(0), 2, 0, 1, borrow=2)

    def test_requires_even_dim_at_least_four(self):
        with pytest.raises(DimensionError):
            even_two_controlled_transposition_ops(3, 0, Value(0), 1, Value(0), 2, 0, 1, borrow=3)

    def test_dispatcher_requires_borrow_for_even(self):
        with pytest.raises(SynthesisError):
            two_controlled_transposition_ops(4, 0, Value(0), 1, Value(0), 2, 0, 1, borrow=None)


class TestTwoControlledPermutation:
    @pytest.mark.parametrize("dim,borrow", [(3, None), (5, None), (4, 3), (6, 3)])
    def test_shift_payload(self, dim, borrow):
        shift = perm.cycle_plus(dim, 1)
        ops = two_controlled_permutation_ops(dim, 0, Value(0), 1, Value(0), 2, shift, borrow)
        wires = 4 if borrow is not None else 3
        circuit = QuditCircuit(wires, dim)
        circuit.extend(ops)
        spec_transform = lambda t: (t + 1) % dim  # noqa: E731
        spec = two_controlled_spec(dim, Value(0), Value(0), spec_transform)
        assert_implements_permutation(circuit, spec)
