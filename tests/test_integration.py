"""Cross-module integration tests tying the pieces of the paper together."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    count_gates,
    lower_to_g_gates,
    synthesize_mct,
    synthesize_mcu,
)
from repro.baselines import synthesize_mct_clean_ladder
from repro.core.pk import pk_map
from repro.core.toffoli_odd import mct_odd_ops
from repro.qudit.circuit import QuditCircuit
from repro.qudit.gates import XPlus
from repro.sim import apply_to_basis
from repro.verify import (
    assert_implements_permutation,
    assert_mct_spec,
    assert_wires_preserved,
)
from repro.utils.indexing import iterate_basis


class TestPaperHeadlineClaims:
    """Direct checks of the abstract's claims on small instances."""

    @pytest.mark.parametrize("dim", [3, 5])
    def test_odd_d_toffoli_is_ancilla_free_and_linear(self, dim):
        sizes = []
        for k in (2, 3, 4):
            result = synthesize_mct(dim, k)
            assert result.ancilla_count() == 0
            assert result.circuit.num_wires == k + 1
            sizes.append(count_gates(result, lower=False).macro_ops)
        assert sizes[2] - sizes[1] <= 3 * (sizes[1] - sizes[0]) + 10

    @pytest.mark.parametrize("dim", [4, 6])
    def test_even_d_toffoli_uses_one_borrowed_ancilla(self, dim):
        for k in (2, 3, 4):
            result = synthesize_mct(dim, k)
            assert result.ancilla_count() == 1
            assert_wires_preserved(result.circuit, result.borrowed_wires())

    def test_mcu_uses_one_clean_ancilla(self):
        result = synthesize_mcu(3, 4, XPlus(3, 1))
        assert result.clean_wires() == (5,)

    def test_ours_vs_baseline_ancillas_at_k8(self):
        ours = synthesize_mct(3, 8)
        baseline = synthesize_mct_clean_ladder(3, 8)
        assert ours.ancilla_count() == 0
        assert baseline.ancilla_count() == 6

    def test_same_functionality_ours_vs_baseline(self):
        """Both syntheses implement the same gate, on their own registers."""
        dim, k = 3, 4
        ours = synthesize_mct(dim, k)
        baseline = synthesize_mct_clean_ladder(dim, k)
        assert_mct_spec(ours.circuit, ours.controls, ours.target)
        assert_mct_spec(
            baseline.circuit,
            baseline.controls,
            baseline.target,
            clean_wires=baseline.clean_wires(),
        )


class TestComposition:
    def test_toffoli_is_self_inverse(self):
        result = synthesize_mct(3, 3)
        doubled = result.circuit.copy().compose(result.circuit)
        for state in iterate_basis(3, doubled.num_wires):
            assert apply_to_basis(doubled, state) == state

    def test_toffoli_then_inverse_is_identity(self):
        result = synthesize_mct(4, 3)
        roundtrip = result.circuit.copy().compose(result.circuit.inverse())
        for state in iterate_basis(4, roundtrip.num_wires):
            assert apply_to_basis(roundtrip, state) == state

    def test_lowered_and_macro_circuits_agree(self):
        result = synthesize_mct(3, 3)
        lowered = lower_to_g_gates(result.circuit)
        for state in iterate_basis(3, result.circuit.num_wires):
            assert apply_to_basis(lowered, state) == apply_to_basis(result.circuit, state)


class TestPkWithinToffoli:
    """Fig. 10 structure: the detectors fire according to P_k's semantics."""

    @given(st.integers(min_value=0, max_value=3 ** 5 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_states_on_k4(self, raw):
        dim, k = 3, 4
        circuit = QuditCircuit(k + 1, dim)
        circuit.extend(mct_odd_ops(dim, list(range(k)), k))
        digits = []
        value = raw
        for _ in range(k + 1):
            digits.append(value % dim)
            value //= dim
        state = tuple(digits)
        output = apply_to_basis(circuit, state)
        expected = list(state)
        if all(x == 0 for x in state[:k]):
            expected[k] = {0: 1, 1: 0}.get(state[k], state[k])
        assert output == tuple(expected)

    def test_pk_semantics_is_what_fig10_needs(self):
        """h(x) = 0 exactly when [x_k = 0 and the last non-zero control is
        odd] or [x_k = 1 and (no non-zero control or it is even)]."""
        dim = 3
        for state in iterate_basis(dim, 4):
            h = pk_map(dim, state)[-1]
            controls, xk = state[:-1], state[-1]
            nonzero = [v for v in controls if v != 0]
            last = nonzero[-1] if nonzero else None
            if last is not None and last % 2 == 1:
                assert h == xk
            else:
                assert h == (xk - 1) % dim
