"""Tests for Theorem IV.1 (unitary synthesis) and the two-level decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.applications.two_level import TwoLevelUnitary, reconstruct, two_level_decomposition
from repro.applications.unitary_synthesis import (
    bullock_ancilla_count,
    random_unitary,
    synthesize_unitary,
)
from repro.exceptions import GateError, SynthesisError
from repro.verify import assert_unitary_equiv, assert_unitary_equiv_with_clean_ancillas


class TestTwoLevelUnitary:
    def test_embed(self):
        block = np.array([[0, 1], [1, 0]], dtype=complex)
        gate = TwoLevelUnitary(0, 2, block)
        embedded = gate.embed(4)
        assert embedded[0, 2] == 1 and embedded[2, 0] == 1 and embedded[1, 1] == 1

    def test_rejects_bad_indices(self):
        with pytest.raises(GateError):
            TwoLevelUnitary(2, 2, np.eye(2))
        with pytest.raises(GateError):
            TwoLevelUnitary(3, 1, np.eye(2))

    def test_rejects_non_unitary_block(self):
        with pytest.raises(GateError):
            TwoLevelUnitary(0, 1, np.ones((2, 2)))

    def test_is_identity(self):
        assert TwoLevelUnitary(0, 1, np.eye(2)).is_identity()


class TestTwoLevelDecomposition:
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, size, seed):
        unitary = random_unitary(size, seed=seed)
        factors = two_level_decomposition(unitary)
        assert np.allclose(reconstruct(factors, size), unitary, atol=1e-8)
        assert len(factors) <= size * (size - 1) // 2 + size

    def test_identity_needs_no_factors(self):
        assert two_level_decomposition(np.eye(5)) == []

    def test_permutation_matrix(self):
        perm = np.zeros((3, 3))
        perm[0, 1] = perm[1, 0] = perm[2, 2] = 1
        factors = two_level_decomposition(perm)
        assert np.allclose(reconstruct(factors, 3), perm, atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(GateError):
            two_level_decomposition(np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(GateError):
            two_level_decomposition(np.ones((2, 3)))


class TestUnitarySynthesis:
    @pytest.mark.parametrize("dim,n", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    def test_small_systems_exact(self, dim, n):
        unitary = random_unitary(dim**n, seed=dim * 10 + n)
        result = synthesize_unitary(unitary, dim, n)
        assert result.ancilla_count() == 0
        assert_unitary_equiv(result.circuit, unitary, atol=1e-7)

    def test_three_qutrits_with_clean_ancilla(self):
        """n = 3 uses the single clean ancilla of Theorem IV.1; verified on a
        structured (sparse) unitary to keep the dense check affordable."""
        dim, n = 3, 3
        size = dim**n
        # A two-level unitary embedded in the full space exercises the
        # multi-controlled path without requiring thousands of factors.
        block = np.array([[0, 1j], [1j, 0]])
        unitary = TwoLevelUnitary(0, size - 1, block).embed(size)
        result = synthesize_unitary(unitary, dim, n)
        assert result.ancilla_count() == 1
        assert_unitary_equiv_with_clean_ancillas(
            result.circuit, unitary, data_wires=[0, 1, 2], clean_wires=[3], atol=1e-7
        )

    def test_wrong_shape_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(np.eye(8), 3, 2)

    def test_gate_count_order(self):
        """Two-qudit gate count stays within a constant factor of d^{2n}."""
        dim, n = 3, 2
        unitary = random_unitary(dim**n, seed=0)
        result = synthesize_unitary(unitary, dim, n)
        assert result.circuit.num_ops() <= 20 * dim ** (2 * n)

    @pytest.mark.parametrize(
        "dim,n,expected", [(3, 2, 0), (3, 3, 1), (3, 5, 3), (4, 4, 1), (5, 8, 2)]
    )
    def test_bullock_ancilla_formula(self, dim, n, expected):
        assert bullock_ancilla_count(dim, n) == expected
