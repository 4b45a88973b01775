"""Tests for Theorem IV.2: implementing classical reversible functions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.reversible import (
    function_to_index_permutation,
    index_permutation_to_two_cycles,
    random_reversible_function,
    synthesize_reversible_function,
    two_cycle_ops,
)
from repro.exceptions import SynthesisError
from repro.qudit.circuit import QuditCircuit
from repro.verify import assert_permutation_equals_function, assert_wires_preserved
from repro.utils.indexing import digits_to_index, index_to_digits


def table_function(table, dim, n):
    return lambda state: index_to_digits(table[digits_to_index(state, dim)], dim, n)


class TestNormalisation:
    def test_from_callable(self):
        swap_last = lambda s: (s[0], (s[1] + 1) % 3)  # noqa: E731
        table = function_to_index_permutation(swap_last, 3, 2)
        assert sorted(table) == list(range(9))

    def test_from_dict(self):
        mapping = {(0,): (1,), (1,): (0,), (2,): (2,)}
        assert function_to_index_permutation(mapping, 3, 1) == [1, 0, 2]

    def test_from_table(self):
        assert function_to_index_permutation([2, 0, 1], 3, 1) == [2, 0, 1]

    def test_rejects_non_bijection_table(self):
        with pytest.raises(SynthesisError):
            function_to_index_permutation([0, 0, 1], 3, 1)

    def test_rejects_non_bijection_function(self):
        with pytest.raises(SynthesisError):
            function_to_index_permutation(lambda s: (0,), 3, 1)

    def test_two_cycle_decomposition_recomposes(self):
        table = [2, 0, 1, 3]
        cycles = index_permutation_to_two_cycles(table)
        rebuilt = list(range(4))
        for a, b in cycles:
            rebuilt[a], rebuilt[b] = rebuilt[b], rebuilt[a]
        # applying the swaps in circuit order to the identity labels gives the
        # permutation: rebuilt[x] tracks where x ends up
        composed = list(range(4))
        for a, b in cycles:
            composed = [
                (b if v == a else a if v == b else v) for v in composed
            ]
        assert composed == table


class TestTwoCycleCircuit:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_swaps_exactly_two_states(self, dim):
        n = 2
        state_a, state_b = (0, 1), (2, 0)
        borrow = None
        circuit = QuditCircuit(n, dim)
        circuit.extend(two_cycle_ops(dim, list(range(n)), state_a, state_b, borrow))

        def spec(state):
            if state == state_a:
                return state_b
            if state == state_b:
                return state_a
            return state

        assert_permutation_equals_function(circuit, spec, list(range(n)))

    def test_identical_states_produce_nothing(self):
        assert two_cycle_ops(3, [0, 1], (0, 1), (0, 1), None) == []

    @pytest.mark.parametrize("dim", [3, 4])
    def test_three_variable_two_cycle(self, dim):
        n = 3
        state_a, state_b = (0, 2, 1), (1, 0, 1)  # differ in two positions, same last digit
        wires = list(range(n))
        num_wires = n + (1 if dim % 2 == 0 else 0)
        borrow = n if dim % 2 == 0 else None
        circuit = QuditCircuit(num_wires, dim)
        circuit.extend(two_cycle_ops(dim, wires, state_a, state_b, borrow))

        def spec(state):
            if state == state_a:
                return state_b
            if state == state_b:
                return state_a
            return state

        assert_permutation_equals_function(circuit, spec, wires)


class TestFullSynthesis:
    @pytest.mark.parametrize("dim,n", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_random_function(self, dim, n):
        table = random_reversible_function(dim, n, seed=13 * dim + n)
        result = synthesize_reversible_function(dim, n, table)
        assert_permutation_equals_function(
            result.circuit, table_function(table, dim, n), list(range(n))
        )

    @pytest.mark.parametrize("dim,n,expected", [(3, 3, 0), (5, 2, 0), (4, 3, 1), (6, 3, 1), (4, 2, 0)])
    def test_ancilla_usage_matches_theorem(self, dim, n, expected):
        table = random_reversible_function(dim, n, seed=5)
        result = synthesize_reversible_function(dim, n, table)
        assert result.ancilla_count() == expected

    def test_borrowed_ancilla_restored_even_d(self):
        table = random_reversible_function(4, 3, seed=2)
        result = synthesize_reversible_function(4, 3, table)
        assert_wires_preserved(result.circuit, result.borrowed_wires())

    def test_identity_function_gives_empty_circuit(self):
        table = list(range(27))
        result = synthesize_reversible_function(3, 3, table)
        assert result.circuit.num_ops() == 0

    def test_single_transposition_function(self):
        table = list(range(9))
        table[0], table[8] = table[8], table[0]
        result = synthesize_reversible_function(3, 2, table)
        assert_permutation_equals_function(
            result.circuit, table_function(table, 3, 2), [0, 1]
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_property_random_permutations_d3_n2(self, seed):
        table = random_reversible_function(3, 2, seed=seed)
        result = synthesize_reversible_function(3, 2, table)
        assert_permutation_equals_function(
            result.circuit, table_function(table, 3, 2), [0, 1]
        )

    def test_gate_count_scales_with_n_dn(self):
        """The macro-op count stays within a small multiple of n·d^n (the
        paper's O(n d^n) bound)."""
        dim = 3
        for n in (2, 3):
            table = random_reversible_function(dim, n, seed=1)
            result = synthesize_reversible_function(dim, n, table)
            assert result.circuit.num_ops() <= 60 * n * dim**n
