"""Tests for the k-Toffoli synthesis (Theorems III.2 and III.6)."""

import pytest

from repro.core.gate_counts import count_gates
from repro.core.lowering import lower_to_g_gates
from repro.core.toffoli import mct_ops, synthesize_mct
from repro.core.toffoli_even import synthesize_mct_even
from repro.core.toffoli_odd import synthesize_mct_odd
from repro.exceptions import DimensionError, SynthesisError
from repro.qudit.ancilla import AncillaKind
from repro.qudit.circuit import QuditCircuit
from repro.sim import permutation_parity
from repro.verify import assert_mct_spec, assert_wires_preserved


class TestOddToffoli:
    @pytest.mark.parametrize("dim,k", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)])
    def test_matches_spec(self, dim, k):
        result = synthesize_mct_odd(dim, k)
        assert_mct_spec(result.circuit, result.controls, result.target)

    @pytest.mark.parametrize("dim,k", [(3, 3), (3, 4), (5, 3)])
    def test_controls_preserved(self, dim, k):
        result = synthesize_mct_odd(dim, k)
        assert_wires_preserved(result.circuit, result.controls)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_ancilla_free(self, k):
        result = synthesize_mct_odd(3, k)
        assert result.ancilla_count() == 0
        assert result.circuit.num_wires == k + 1

    def test_rejects_even_dimension(self):
        with pytest.raises(DimensionError):
            synthesize_mct_odd(4, 3)

    def test_custom_swap(self):
        result = synthesize_mct_odd(5, 3, swap=(2, 4))
        assert_mct_spec(result.circuit, result.controls, result.target, swap=(2, 4))


class TestEvenToffoli:
    @pytest.mark.parametrize("dim,k", [(4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (6, 2), (6, 3)])
    def test_matches_spec(self, dim, k):
        result = synthesize_mct_even(dim, k)
        assert_mct_spec(result.circuit, result.controls, result.target)

    @pytest.mark.parametrize("dim,k", [(4, 3), (4, 4), (6, 3)])
    def test_borrowed_ancilla_restored(self, dim, k):
        result = synthesize_mct_even(dim, k)
        assert_wires_preserved(result.circuit, result.controls + result.borrowed_wires())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exactly_one_borrowed_ancilla(self, k):
        result = synthesize_mct_even(4, k)
        assert result.ancilla_count(AncillaKind.BORROWED) == 1
        assert result.ancilla_count(AncillaKind.CLEAN) == 0

    def test_k1_needs_no_ancilla(self):
        assert synthesize_mct_even(4, 1).ancilla_count() == 0

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionError):
            synthesize_mct_even(5, 3)

    def test_rejects_d2(self):
        with pytest.raises(DimensionError):
            synthesize_mct_even(2, 3)

    def test_parity_argument(self):
        """The remark after Theorem III.2: for even d the k-Toffoli on k+1
        wires is an odd permutation, while every G-gate is even — so the
        borrowed ancilla is necessary."""
        dim, k = 4, 2
        # Direct spec circuit: a single macro op representing |00⟩-X01.
        from repro.qudit.controls import Value
        from repro.qudit.gates import XPerm
        from repro.qudit.operations import Operation

        spec_circuit = QuditCircuit(k + 1, dim)
        spec_circuit.append(
            Operation(XPerm.transposition(dim, 0, 1), k, [(0, Value(0)), (1, Value(0))])
        )
        assert permutation_parity(spec_circuit) == 1
        g_gate_circuit = QuditCircuit(k + 1, dim)
        g_gate_circuit.append(Operation(XPerm.transposition(dim, 0, 1), 0))
        assert permutation_parity(g_gate_circuit) == 0


class TestDispatcher:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_dispatch_matches_parity(self, dim):
        result = synthesize_mct(dim, 3)
        expected_ancillas = 0 if dim % 2 else 1
        assert result.ancilla_count() == expected_ancillas
        assert_mct_spec(result.circuit, result.controls, result.target)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_control_values(self, dim):
        values = [1, 2, 0]
        result = synthesize_mct(dim, 3, control_values=values)
        assert_mct_spec(result.circuit, result.controls, result.target, control_values=values)

    def test_control_values_and_swap(self):
        result = synthesize_mct(5, 2, control_values=[3, 1], swap=(2, 3))
        assert_mct_spec(
            result.circuit, result.controls, result.target, control_values=[3, 1], swap=(2, 3)
        )

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionError):
            mct_ops(2, [0, 1], 2)

    def test_rejects_degenerate_swap(self):
        with pytest.raises(SynthesisError):
            mct_ops(3, [0, 1], 2, swap=(1, 1))

    def test_k0_is_plain_gate(self):
        result = synthesize_mct(3, 0)
        assert result.circuit.num_ops() == 1


class TestGLevel:
    @pytest.mark.parametrize("dim,k", [(3, 2), (3, 3), (4, 2), (5, 2)])
    def test_lowered_circuit_still_correct(self, dim, k):
        result = synthesize_mct(dim, k)
        lowered = lower_to_g_gates(result.circuit)
        assert lowered.is_g_circuit()
        assert_mct_spec(lowered, result.controls, result.target)

    def test_linear_growth_in_k_odd(self):
        """Theorem III.6: the G-gate count grows linearly in k for fixed d.

        Past the initial transient the per-control increment settles into a
        period-2 pattern (odd/even k differ because of the ⌈k/2⌉ split in
        Fig. 9), so linearity shows up as (i) equal increments two steps
        apart and (ii) bounded odd/even asymmetry.
        """
        counts = [count_gates(synthesize_mct(3, k)).g_gates for k in range(8, 13)]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        # Same-parity increments agree to within 15%.
        assert abs(increments[0] - increments[2]) <= 0.15 * increments[0] + 10
        assert abs(increments[1] - increments[3]) <= 0.15 * increments[1] + 10
        # Odd/even asymmetry is a bounded constant factor, not polynomial growth.
        assert max(increments) <= 2.5 * min(increments)

    def test_linear_growth_in_k_even(self):
        counts = [count_gates(synthesize_mct(4, k)).g_gates for k in range(6, 10)]
        increments = [b - a for a, b in zip(counts, counts[1:])]
        assert max(increments) <= 2.5 * min(increments) + 200

    def test_macro_size_linear_in_k(self):
        """At the macro level the increments are exactly periodic (50/74 for
        d = 3), the cleanest signature of the O(k) bound."""
        sizes = [synthesize_mct(3, k).circuit.num_ops() for k in range(7, 16)]
        increments = [b - a for a, b in zip(sizes, sizes[1:])]
        assert increments[0::2] == [increments[0]] * len(increments[0::2])
        assert increments[1::2] == [increments[1]] * len(increments[1::2])
