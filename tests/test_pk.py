"""Tests for the P_k gate (Lemma III.5, Figs. 8-9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pk import pk_h, pk_ladder, pk_map, pk_one_ancilla, synthesize_pk
from repro.exceptions import DimensionError, SynthesisError, WireError
from repro.qudit.circuit import QuditCircuit
from repro.verify import assert_implements_permutation, assert_wires_preserved


class TestPkSemantics:
    def test_definition_examples(self):
        # k = 2: h(x1, x2) = x2 if x1 odd else x2 - 1 (mod d).
        assert pk_h(3, (1, 2)) == 2
        assert pk_h(3, (0, 2)) == 1
        assert pk_h(3, (2, 0)) == 2
        # the paper's example: x_{1..k-1} = 1 0^{k-2} -> i* = 1 (odd) -> h = x_k
        assert pk_h(3, (1, 0, 0, 2)) == 2
        # all-zero controls -> subtract one
        assert pk_h(5, (0, 0, 0, 0)) == 4

    def test_last_nonzero_rule(self):
        # i* is the last nonzero among the controls; here it is x_3 = 2 (even).
        assert pk_h(3, (1, 2, 0)) == 2  # wait: controls (1, 2), last nonzero = 2 (even) -> x_k - 1
        assert pk_h(3, (1, 2, 1)) == 0

    @given(st.integers(min_value=1, max_value=3).map(lambda i: 2 * i + 1),
           st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_pk_is_reversible_in_last_digit(self, dim, values):
        values = [v % dim for v in values]
        image = pk_map(dim, values)
        assert image[:-1] == tuple(values[:-1])
        # For fixed controls, the map on the last digit is a bijection.
        seen = {pk_map(dim, values[:-1] + [t])[-1] for t in range(dim)}
        assert seen == set(range(dim))

    def test_requires_input(self):
        with pytest.raises(SynthesisError):
            pk_h(3, ())


class TestPkLadder:
    @pytest.mark.parametrize("dim,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
    def test_fig8_ladder(self, dim, k):
        inputs = list(range(k))
        ancillas = list(range(k, k + max(k - 2, 0)))
        circuit = QuditCircuit(k + len(ancillas), dim, name=f"pk_ladder(k={k})")
        circuit.extend(pk_ladder(dim, inputs, ancillas))
        spec = lambda s: pk_map(dim, s[:k]) + s[k:]  # noqa: E731
        assert_implements_permutation(circuit, spec)
        if ancillas:
            assert_wires_preserved(circuit, ancillas)

    def test_p1_is_minus_one(self):
        circuit = QuditCircuit(1, 3)
        circuit.extend(pk_ladder(3, [0], []))
        assert_implements_permutation(circuit, lambda s: ((s[0] - 1) % 3,))

    def test_rejects_even_dim(self):
        with pytest.raises(DimensionError):
            pk_ladder(4, [0, 1, 2], [3])

    def test_rejects_missing_ancillas(self):
        with pytest.raises(SynthesisError):
            pk_ladder(3, [0, 1, 2, 3], [])

    def test_rejects_duplicate_wires(self):
        with pytest.raises(WireError):
            pk_ladder(3, [0, 1, 2], [2])


class TestPkOneAncilla:
    @pytest.mark.parametrize("dim,k", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 4)])
    def test_fig9(self, dim, k):
        inputs = list(range(k))
        ancilla = k
        circuit = QuditCircuit(k + 1, dim, name=f"pk_one_ancilla(k={k})")
        circuit.extend(pk_one_ancilla(dim, inputs, ancilla))
        spec = lambda s: pk_map(dim, s[:k]) + s[k:]  # noqa: E731
        assert_implements_permutation(circuit, spec)
        assert_wires_preserved(circuit, [ancilla])

    def test_ancilla_must_be_fresh(self):
        with pytest.raises(WireError):
            pk_one_ancilla(3, [0, 1, 2], 2)


class TestSynthesizePk:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_roundtrip(self, k):
        result = synthesize_pk(3, k)
        spec = lambda s: pk_map(3, s[:k]) + s[k:]  # noqa: E731
        assert_implements_permutation(result.circuit, spec)
        assert result.ancilla_count() == (0 if k <= 2 else 1)

    def test_many_ancilla_variant(self):
        result = synthesize_pk(3, 5, one_ancilla=False)
        assert result.ancilla_count() == 3
        spec = lambda s: pk_map(3, s[:5]) + s[5:]  # noqa: E731
        assert_implements_permutation(result.circuit, spec)

    def test_rejects_even_dimension(self):
        with pytest.raises(DimensionError):
            synthesize_pk(4, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(SynthesisError):
            synthesize_pk(3, 0)
