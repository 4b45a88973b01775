"""Tests for Grover, arithmetic, the lower bound and the Clifford+T model."""

import math

import numpy as np
import pytest

from repro.applications.arithmetic import (
    add_constant_ops,
    controlled_increment_ops,
    increment_reference,
    synthesize_increment,
)
from repro.applications.grover import (
    fourier_gate,
    grover_circuit,
    optimal_iterations,
    phase_flip_gate,
    run_grover,
)
from repro.applications.lower_bound import (
    distinct_g_gates,
    log2_reversible_function_count,
    reversible_lower_bound,
)
from repro.exceptions import DimensionError
from repro.qudit.circuit import QuditCircuit
from repro.resources.cliffordt import (
    CliffordTParams,
    clifford_t_cost,
    yeh_vdw_reversible_model,
    yeh_vdw_toffoli_model,
)
from repro.core.toffoli import synthesize_mct
from repro.verify import assert_permutation_equals_function


class TestArithmetic:
    @pytest.mark.parametrize("dim,n", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
    def test_increment(self, dim, n):
        result = synthesize_increment(dim, n)
        assert_permutation_equals_function(
            result.circuit,
            lambda s: increment_reference(dim, n, s),
            list(range(n)),
            clean_wires=result.clean_wires(),
        )

    def test_add_constant(self):
        dim, n, constant = 3, 2, 5
        circuit = QuditCircuit(n, dim)
        circuit.extend(add_constant_ops(dim, list(range(n)), constant, None))
        assert_permutation_equals_function(
            circuit, lambda s: increment_reference(dim, n, s, constant), list(range(n))
        )

    def test_add_constant_wraps(self):
        dim, n = 3, 2
        circuit = QuditCircuit(n, dim)
        circuit.extend(add_constant_ops(dim, list(range(n)), 9, None))
        assert circuit.num_ops() == 0 or assert_permutation_equals_function(
            circuit, lambda s: s, list(range(n))
        ) is None

    def test_controlled_increment(self):
        dim, n = 3, 2
        circuit = QuditCircuit(n + 2, dim)
        circuit.extend(controlled_increment_ops(dim, 0, 1, [1, 2], 3))

        def spec(state):
            if state[0] != 1:
                return state
            incremented = increment_reference(dim, n, state[1:])
            return (state[0],) + incremented

        assert_permutation_equals_function(circuit, spec, [0, 1, 2], clean_wires=[3])

    def test_reference_wraps(self):
        assert increment_reference(3, 2, (2, 2)) == (0, 0)


class TestGrover:
    def test_fourier_gate_is_unitary(self):
        gate = fourier_gate(5)
        assert np.allclose(gate.matrix() @ gate.matrix().conj().T, np.eye(5), atol=1e-10)

    def test_phase_flip_gate(self):
        gate = phase_flip_gate(3, 1)
        assert np.allclose(np.diag(gate.matrix()), [1, -1, 1])

    def test_optimal_iterations(self):
        assert optimal_iterations(3, 2) == max(1, int(math.floor(math.pi / 4 * 3)))

    def test_two_qutrit_search_succeeds(self):
        outcome = run_grover(3, 2, (2, 1))
        assert outcome.success_probability > 0.6
        assert outcome.success_probability > 5 * outcome.uniform_probability

    def test_three_qutrit_search_succeeds(self):
        outcome = run_grover(3, 3, (1, 2, 0))
        assert outcome.success_probability > 0.5
        assert outcome.success_probability > 5 * outcome.uniform_probability

    def test_circuit_reports_clean_ancilla(self):
        result = grover_circuit(3, 3, (0, 1, 2), iterations=1)
        assert result.ancilla_count() == 1

    def test_rejects_single_wire(self):
        with pytest.raises(Exception):
            grover_circuit(3, 1, (0,))


class TestLowerBound:
    def test_distinct_g_gates(self):
        # 3 wires, d = 3: 3·2 controlled placements + 3·3 transpositions = 15.
        assert distinct_g_gates(3, 3) == 15

    def test_log2_function_count_matches_factorial(self):
        assert log2_reversible_function_count(3, 1) == pytest.approx(math.log2(math.factorial(3)))

    def test_lower_bound_monotone_in_n(self):
        bounds = [reversible_lower_bound(3, n).min_gates for n in (1, 2, 3, 4)]
        assert bounds == sorted(bounds)

    def test_lower_bound_report_row(self):
        report = reversible_lower_bound(3, 3)
        row = report.as_row()
        assert row["d"] == 3 and row["n"] == 3
        assert report.min_gates > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reversible_lower_bound(1, 3)


class TestCliffordT:
    def test_cost_of_toffoli(self):
        result = synthesize_mct(3, 3)
        cost = clifford_t_cost(result.circuit)
        assert cost.t_count > 0
        assert cost.total() == cost.t_count + cost.clifford_count
        assert cost.g_gates == cost.controlled_gates + cost.single_qutrit_gates

    def test_rejects_non_qutrit(self):
        result = synthesize_mct(5, 2)
        with pytest.raises(DimensionError):
            clifford_t_cost(result.circuit)

    def test_custom_params_scale_linearly(self):
        result = synthesize_mct(3, 2)
        base = clifford_t_cost(result.circuit)
        doubled = clifford_t_cost(
            result.circuit,
            CliffordTParams(t_per_controlled_x01=78, clifford_per_controlled_x01=120, clifford_per_xij=2),
        )
        assert doubled.t_count == 2 * base.t_count

    def test_ours_beats_yeh_vdw_model_for_large_k(self):
        """E10: O(k) vs O(k^3.585) — the crossover is well below k = 20."""
        ours = []
        for k in (2, 4, 6):
            cost = clifford_t_cost(synthesize_mct(3, k).circuit)
            ours.append((k, cost.total()))
        # Fit a linear extrapolation for ours and compare at k = 20.
        (k1, c1), (k2, c2) = ours[0], ours[-1]
        slope = (c2 - c1) / (k2 - k1)
        ours_at_20 = c1 + slope * (20 - k1)
        assert ours_at_20 < yeh_vdw_toffoli_model(20)

    def test_reversible_model_growth(self):
        assert yeh_vdw_reversible_model(4) > yeh_vdw_reversible_model(3)
