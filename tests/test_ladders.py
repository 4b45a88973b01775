"""Tests for the Λ-ladders of Figs. 3 and 7 (Lemma III.4 / Theorem III.2)."""

import pytest

from repro.core.lambda_ladder import (
    ladder_even,
    ladder_odd,
    multi_controlled_payload_even_ops,
    multi_controlled_shift_ops,
    multi_controlled_star_ops,
    shift_top_builder,
)
from repro.exceptions import SynthesisError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Odd
from repro.qudit.gates import XPerm
from repro.verify import (
    assert_implements_permutation,
    assert_wires_preserved,
    mc_shift_spec,
)


class TestOddLadder:
    @pytest.mark.parametrize("dim,k", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 3)])
    def test_multi_controlled_shift(self, dim, k):
        """Lemma III.4: |0^k⟩-X+1 with k−2 borrowed ancillas."""
        controls = list(range(k))
        target = k
        borrow_pool = list(range(k + 1, k + 1 + max(k - 2, 0)))
        num_wires = k + 1 + len(borrow_pool)
        circuit = QuditCircuit(num_wires, dim, name=f"mcshift(k={k})")
        circuit.extend(multi_controlled_shift_ops(dim, controls, target, borrow_pool))
        assert_implements_permutation(circuit, mc_shift_spec(controls, target, dim, 1))
        # Borrowed ancillas (and controls) must be restored.
        assert_wires_preserved(circuit, controls + borrow_pool)

    @pytest.mark.parametrize("dim,k", [(3, 1), (3, 0)])
    def test_degenerate_small_k(self, dim, k):
        controls = list(range(k))
        circuit = QuditCircuit(k + 1, dim)
        circuit.extend(multi_controlled_shift_ops(dim, controls, k, []))
        assert_implements_permutation(circuit, mc_shift_spec(controls, k, dim, 1))

    def test_ladder_requires_enough_ancillas(self):
        with pytest.raises(SynthesisError):
            ladder_odd(3, [0, 1, 2, 3], 4, [], shift_top_builder(3, 1))

    def test_ladder_rejects_single_control(self):
        with pytest.raises(SynthesisError):
            ladder_odd(3, [0], 1, [], shift_top_builder(3, 1))

    @pytest.mark.parametrize("dim,m,sign", [(3, 1, +1), (3, 2, -1), (3, 3, +1), (5, 2, -1)])
    def test_multi_controlled_star(self, dim, m, sign):
        """|⋆⟩|0^m⟩-X±⋆ built from the ladder with a star top gate."""
        star = 0
        zero_controls = list(range(1, 1 + m))
        target = 1 + m
        borrow_pool = list(range(2 + m, 2 + m + max(m - 1, 0)))
        circuit = QuditCircuit(2 + m + len(borrow_pool), dim)
        circuit.extend(
            multi_controlled_star_ops(dim, star, zero_controls, target, sign, borrow_pool)
        )

        def spec(state):
            out = list(state)
            if all(state[c] == 0 for c in zero_controls):
                out[target] = (out[target] + sign * state[star]) % dim
            return out

        assert_implements_permutation(circuit, spec)
        assert_wires_preserved(circuit, [star] + zero_controls + borrow_pool)


class TestEvenLadder:
    @pytest.mark.parametrize("dim,k", [(4, 2), (4, 3), (4, 4), (6, 3)])
    def test_multi_controlled_xeo(self, dim, k):
        """Fig. 3: |0^k⟩-X^e_eo with borrowed wires from a pool."""
        controls = list(range(k))
        target = k
        pool = list(range(k + 1, k + 1 + max(k - 2, 0) + 1))
        circuit = QuditCircuit(k + 1 + len(pool), dim, name=f"mcxeo(k={k})")
        payload = XPerm.even_odd_swap(dim)
        circuit.extend(
            multi_controlled_payload_even_ops(dim, controls, target, payload, pool)
        )
        table = payload.permutation()

        def spec(state):
            out = list(state)
            if all(state[c] == 0 for c in controls):
                out[target] = table[out[target]]
            return out

        assert_implements_permutation(circuit, spec)
        assert_wires_preserved(circuit, controls + pool)

    def test_first_predicate_variant(self):
        """The |o⟩|0^{k-1}⟩ variant used inside Fig. 4."""
        dim, k = 4, 3
        controls = list(range(k))
        target = k
        pool = [k + 1, k + 2]
        circuit = QuditCircuit(k + 2 + len(pool) - 1, dim)
        payload = XPerm.transposition(dim, 0, 1)
        circuit.extend(
            multi_controlled_payload_even_ops(
                dim, controls, target, payload, pool, first_predicate=Odd()
            )
        )

        def spec(state):
            out = list(state)
            if state[0] % 2 == 1 and state[1] == 0 and state[2] == 0:
                out[target] = {0: 1, 1: 0}.get(out[target], out[target])
            return out

        assert_implements_permutation(circuit, spec)

    def test_even_ladder_requires_enough_ancillas(self):
        with pytest.raises(SynthesisError):
            ladder_even(4, [0, 1, 2, 3], 4, [], XPerm.transposition(4, 0, 1))
