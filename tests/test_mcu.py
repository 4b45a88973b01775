"""Tests for the multi-controlled unitary synthesis (Fig. 1(b))."""

import numpy as np
import pytest

from repro.core.multi_controlled_unitary import mcu_ops, random_unitary_gate, synthesize_mcu
from repro.exceptions import DimensionError, SynthesisError
from repro.qudit.ancilla import AncillaKind
from repro.qudit.circuit import QuditCircuit
from repro.qudit.gates import XPerm, XPlus
from repro.verify import (
    assert_implements_permutation,
    assert_unitary_equiv_with_clean_ancillas,
    assert_wires_preserved,
)
from repro.sim.unitary import multi_controlled_unitary_matrix


class TestPermutationPayload:
    """With a permutation payload the whole MCU circuit stays classical and
    can be verified exhaustively."""

    @pytest.mark.parametrize("dim,k", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 3)])
    def test_matches_spec(self, dim, k):
        payload = XPlus(dim, 1)
        result = synthesize_mcu(dim, k, payload)
        controls, target = result.controls, result.target

        def spec(state):
            out = list(state)
            if all(state[c] == 0 for c in controls):
                out[target] = (out[target] + 1) % dim
            return out

        assert_implements_permutation(
            result.circuit, spec, clean_wires=result.clean_wires()
        )

    @pytest.mark.parametrize("dim,k", [(3, 3), (4, 3)])
    def test_clean_ancilla_restored(self, dim, k):
        result = synthesize_mcu(dim, k, XPlus(dim, 1))
        ancilla = result.clean_wires()[0]
        assert_wires_preserved(result.circuit, result.controls + (ancilla,))

    @pytest.mark.parametrize("k,expected", [(0, 0), (1, 0), (2, 1), (5, 1)])
    def test_single_clean_ancilla(self, k, expected):
        result = synthesize_mcu(3, k, XPlus(3, 1))
        assert result.ancilla_count(AncillaKind.CLEAN) == expected
        assert result.ancilla_count(AncillaKind.BORROWED) == 0

    def test_control_values(self):
        dim, k = 3, 2
        values = [1, 2]
        result = synthesize_mcu(dim, k, XPerm.transposition(dim, 0, 2), control_values=values)

        def spec(state):
            out = list(state)
            if state[0] == 1 and state[1] == 2:
                out[2] = {0: 2, 2: 0}.get(out[2], out[2])
            return out

        assert_implements_permutation(
            result.circuit, spec, clean_wires=result.clean_wires()
        )


class TestUnitaryPayload:
    @pytest.mark.parametrize("dim,k", [(3, 2), (4, 2), (3, 3)])
    def test_matches_block_unitary(self, dim, k):
        gate = random_unitary_gate(dim, seed=11)
        result = synthesize_mcu(dim, k, gate)
        expected = multi_controlled_unitary_matrix(dim, k, gate.matrix())
        data_wires = list(range(k + 1))
        assert_unitary_equiv_with_clean_ancillas(
            result.circuit, expected, data_wires, result.clean_wires(), atol=1e-7
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mcu_ops(3, [0, 1], 2, XPlus(4, 1), 3)

    def test_requires_clean_ancilla_for_two_controls(self):
        with pytest.raises(SynthesisError):
            mcu_ops(3, [0, 1], 2, XPlus(3, 1), None)

    def test_k1_direct(self):
        ops = mcu_ops(3, [0], 1, random_unitary_gate(3, seed=2), None)
        assert len(ops) == 1
