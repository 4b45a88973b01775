"""Tests for the vectorized simulation backends and the op-layer hooks.

Every engine is checked against a brute-force reference that builds each
operation's ``dⁿ×dⁿ`` matrix one basis state at a time from the gate and
predicate definitions, so no engine is only ever compared with another
engine that shares its kernels.
"""

import random

import numpy as np
import pytest

from repro import lower_to_g_gates
from repro.exceptions import GateError, WireError
from repro.fuzz import random_circuit
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import Operation, StarShiftOp
from repro.sim import (
    DenseBackend,
    SparseBackend,
    Statevector,
    available_backends,
    circuit_unitary,
    get_backend,
    permutation_index_table,
    register_backend,
)
from repro.sim.backend import SimulationBackend
from repro.sim.permutation import apply_to_basis
from repro.utils import permutations as perm_utils
from repro.synth import registry
from repro.utils.indexing import digit_matrix, digits_to_index, iterate_basis

#: The dense engine under a budget of two basis rows of a single state:
#: every state here is tiled and held in memmap scratch.
BUDGETED = DenseBackend(memory_budget=64)
BACKENDS = ["dense", BUDGETED, "sparse"]


def reference_table(circuit):
    """Brute-force whole-basis action via the scalar simulator."""
    table = []
    for state in iterate_basis(circuit.dim, circuit.num_wires):
        table.append(digits_to_index(apply_to_basis(circuit, state), circuit.dim))
    return table


def random_mixed_circuit(rng, num_wires=3, dim=3, num_ops=10):
    circuit = QuditCircuit(num_wires, dim, name="mixed")
    for _ in range(num_ops):
        wires = rng.sample(range(num_wires), 2)
        kind = rng.randrange(4)
        if kind == 0:
            circuit.add_gate(XPlus(dim, rng.randrange(1, dim)), wires[0])
        elif kind == 1:
            predicate = rng.choice([Value(rng.randrange(dim)), Odd(), EvenNonZero()])
            circuit.add_gate(XPerm(perm_utils.random_permutation(dim, rng)), wires[1], [(wires[0], predicate)])
        elif kind == 2:
            circuit.append(StarShiftOp(wires[0], wires[1], rng.choice([+1, -1])))
        else:
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(dim)]))
            controls = [(wires[0], Value(rng.randrange(dim)))] if rng.randrange(2) else []
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[1], controls)
    return circuit


#: (strategy, d) for each registered strategy whose circuits are
#: permutations, at every d in {3, 4, 5} where it supports the test's k=3
#: (permutation-ness told by its k=1 circuit, which every strategy supports
#: and synthesizes in milliseconds; ``unitary`` takes seconds at k=3, and
#: mct-clean-ladder does not support even d at k=2).
PERMUTATION_STRATEGY_CASES = [
    (strategy.name, dim)
    for strategy in registry.all_strategies()
    for dim in (3, 4, 5)
    if strategy.supports(dim, 3) and strategy.synthesize(dim, 1).circuit.is_permutation
]


class TestOpHooks:
    @pytest.mark.parametrize("name,dim", PERMUTATION_STRATEGY_CASES)
    def test_strategy_op_tables_match_the_scalar_walk(self, name, dim):
        """Every distinct macro and lowered op of a permutation strategy: its
        table (``map_indices`` over the whole basis) is the scalar
        ``apply_to_basis`` walk of every basis state."""
        # k=3: mct-clean-ladder does not support even d at k=2.
        macro = registry.get(name).synthesize(dim, 3).circuit
        for circuit in (macro, lower_to_g_gates(macro)):
            basis = digit_matrix(dim, circuit.num_wires).tolist()
            ops, _ = circuit.to_table().unique_ops()
            for op in ops:
                expected = []
                for row in basis:
                    state = list(row)
                    op.apply_to_basis(state, dim)
                    expected.append(digits_to_index(state, dim))
                assert op.permutation_table(dim, circuit.num_wires).tolist() == expected, op

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_operation_table_matches_scalar_apply(self, dim):
        circuit = QuditCircuit(3, dim)
        circuit.add_gate(XPerm.transposition(dim, 0, 1), 2, [(0, Value(0)), (1, Odd())])
        op = circuit[0]
        table = op.permutation_table(dim, 3)
        assert table.tolist() == reference_table(circuit)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_star_table_matches_scalar_apply(self, sign):
        circuit = QuditCircuit(3, 3)
        circuit.append(StarShiftOp(0, 2, sign, [(1, Value(1))]))
        table = circuit[0].permutation_table(3, 3)
        assert table.tolist() == reference_table(circuit)

    def test_table_cached_and_readonly(self):
        op = Operation(XPlus(3, 1), 0)
        table = op.permutation_table(3, 2)
        with pytest.raises(ValueError):
            table[0] = 5

    def test_structurally_equal_ops_share_tables(self):
        first = Operation(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
        second = Operation(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
        np.testing.assert_array_equal(first.permutation_table(3, 2), second.permutation_table(3, 2))

    def test_non_permutation_table_rejected(self):
        op = Operation(SingleQuditUnitary(np.diag([1, 1j, -1])), 0)
        with pytest.raises(GateError):
            op.permutation_table(3, 1)

    def test_out_of_range_wire_rejected(self):
        op = Operation(XPlus(3, 1), 5)
        with pytest.raises(WireError):
            op.permutation_table(3, 2)

    def test_control_mask_matches_controls_fire(self):
        op = Operation(XPerm.transposition(4, 0, 1), 2, [(0, EvenNonZero()), (1, Value(3))])
        mask = op.control_mask(4, 3, flat=True)
        for index, state in enumerate(iterate_basis(4, 3)):
            assert bool(mask[index]) == op.controls_fire(state, 4)

    def test_control_mask_broadcast_shape(self):
        op = Operation(XPerm.transposition(3, 0, 1), 1, [(0, Value(2))])
        mask = op.control_mask(3, 3)
        assert mask.shape == (3, 1, 1)


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_backends_agree_on_mixed_circuits(self, seed):
        rng = random.Random(seed)
        circuit = random_mixed_circuit(rng)
        results = {}
        for backend in BACKENDS:
            state = Statevector.uniform(circuit.num_wires, circuit.dim, backend=backend)
            state.apply_circuit(circuit)
            results[backend] = state.data
        for backend in BACKENDS[1:]:
            assert np.allclose(results["dense"], results[backend], atol=1e-10), backend

    @pytest.mark.parametrize("seed", range(4))
    def test_backends_match_permutation_table(self, seed):
        rng = random.Random(50 + seed)
        circuit = random_mixed_circuit(rng, num_ops=6)
        # Keep only the permutation ops so the scalar reference applies.
        perm_circuit = QuditCircuit(circuit.num_wires, circuit.dim)
        perm_circuit.extend([op for op in circuit if op.is_permutation])
        table = permutation_index_table(perm_circuit)
        assert table.tolist() == reference_table(perm_circuit)
        for backend in BACKENDS:
            for index, image in enumerate(table.tolist()[:10]):
                state = Statevector(perm_circuit.num_wires, perm_circuit.dim, backend=backend)
                state.data[:] = 0
                state.data[index] = 1.0
                state.apply_circuit(perm_circuit)
                assert state.probability(
                    tuple(
                        (image // perm_circuit.dim ** (perm_circuit.num_wires - 1 - w))
                        % perm_circuit.dim
                        for w in range(perm_circuit.num_wires)
                    )
                ) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_object_circuit_evolves_like_an_apply_op_loop_bit_for_bit(self, seed):
        # An object circuit (no cached table) runs through its table: one
        # fused gather per permutation run, the same unitary kernel per row.
        rng = random.Random(120 + seed)
        circuit = random_mixed_circuit(rng, num_ops=12)
        fourier = np.fft.fft(np.eye(3)) / np.sqrt(3)
        circuit.add_gate(SingleQuditUnitary(fourier, label="F"), 0, [(1, Value(2))])
        circuit.extend(random_mixed_circuit(rng, num_ops=12).ops)
        assert circuit.cached_table is None
        dense = get_backend("dense")
        data = np.random.default_rng(seed).normal(size=(27, 2)).astype(complex)
        expected = data.copy()
        for op in circuit.ops:
            expected = dense.apply_op(expected, op, 3, 3)
        assert np.array_equal(dense.apply_circuit(data.copy(), circuit), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_circuit_unitary_identical_across_backends(self, seed):
        rng = random.Random(80 + seed)
        circuit = random_mixed_circuit(rng, num_wires=2, num_ops=6)
        dense = circuit_unitary(circuit, backend="dense")
        for backend in BACKENDS[1:]:
            other = circuit_unitary(circuit, backend=backend)
            assert np.allclose(dense, other, atol=1e-10), backend
        # Unitarity sanity check.
        assert np.allclose(dense @ dense.conj().T, np.eye(dense.shape[0]), atol=1e-9)


def brute_force_op_matrix(op, dim, num_wires):
    """The op's ``dⁿ×dⁿ`` matrix, built one basis state (column) at a time.

    Uses only the definitions: ``gate.permutation()`` maps the target digit,
    ``gate.matrix()[i, j]`` is the amplitude of target digit ``i`` from
    ``j``, a star shift adds ``sign * star`` to the target mod ``d``, and
    nothing happens unless every control predicate holds.
    """
    size = dim**num_wires
    matrix = np.zeros((size, size), dtype=complex)
    for digits in iterate_basis(dim, num_wires):
        column = digits_to_index(digits, dim)
        if not all(pred.satisfied_by(digits[wire], dim) for wire, pred in op.controls):
            matrix[column, column] = 1.0
            continue
        image = list(digits)
        if isinstance(op, StarShiftOp):
            image[op.target] = (digits[op.target] + op.sign * digits[op.star_wire]) % dim
            matrix[digits_to_index(image, dim), column] = 1.0
        elif op.gate.is_permutation:
            image[op.target] = op.gate.permutation()[digits[op.target]]
            matrix[digits_to_index(image, dim), column] = 1.0
        else:
            gate = op.gate.matrix()
            for value in range(dim):
                image[op.target] = value
                matrix[digits_to_index(image, dim), column] = gate[value, digits[op.target]]
    return matrix


def brute_force_unitary(circuit):
    size = circuit.dim**circuit.num_wires
    unitary = np.eye(size, dtype=complex)
    for op in circuit:
        unitary = brute_force_op_matrix(op, circuit.dim, circuit.num_wires) @ unitary
    return unitary


#: Unitary payloads and star gates weighted up so every circuit mixes
#: permutation segments, unitary rows and stars.
REFERENCE_OP_WEIGHTS = {"transposition": 2.0, "perm": 1.0, "xplus": 1.0, "unitary": 2.0, "star": 2.0}


def reference_circuit(seed):
    """1–3 wires of dimension 2–4, so the brute-force matrices stay small."""
    return random_circuit(
        400 + seed, num_wires=1 + seed % 3, dim=2 + (seed // 3) % 3, num_ops=14,
        op_weights=REFERENCE_OP_WEIGHTS,
    )


class TestBruteForceReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_path_matches_the_brute_force_matrix(self, seed):
        circuit = reference_circuit(seed)
        dim, num_wires = circuit.dim, circuit.num_wires
        expected = brute_force_unitary(circuit)
        size = dim**num_wires
        rng = np.random.default_rng(seed)
        data = rng.normal(size=size) + 1j * rng.normal(size=size)
        basis = np.zeros(size, dtype=complex)
        basis[rng.integers(size)] = 1.0
        dense = get_backend("dense")

        one_row = DenseBackend(memory_budget=16)
        per_op, tiled_per_op = data.copy(), data.copy()
        for op in circuit:
            per_op = dense.apply_op(per_op, op, dim, num_wires)
            tiled_per_op = one_row.apply_op(tiled_per_op, op, dim, num_wires)
        table = circuit.to_table()
        paths = {
            "dense per-op": (data, per_op),
            "dense per-op, one-row tiles": (data, tiled_per_op),
            "dense apply_table": (data, dense.apply_table(data.copy(), table)),
            "dense, budget above the state": (
                data, DenseBackend(memory_budget="1M").apply_table(data.copy(), table)
            ),
            "dense, one-row tiles": (data, one_row.apply_table(data.copy(), table)),
            "sparse, never densified": (
                data, SparseBackend(max_occupancy=1.0).apply_table(data.copy(), table)
            ),
            "sparse, basis state": (
                basis, get_backend("sparse").apply_table(basis.copy(), table)
            ),
        }
        for name, (start, evolved) in paths.items():
            assert np.allclose(evolved, expected @ start, atol=1e-10), name
        for backend in BACKENDS:
            assert np.allclose(
                circuit_unitary(circuit, backend=backend), expected, atol=1e-10
            ), backend

    def test_reference_circuits_cover_stars_unitaries_and_controls(self):
        ops = [op for seed in range(12) for op in reference_circuit(seed)]
        assert any(isinstance(op, StarShiftOp) and op.controls for op in ops)
        assert any(isinstance(op, Operation) and not op.gate.is_permutation and op.controls
                   for op in ops)
        assert any(isinstance(op, Operation) and op.gate.is_permutation and op.controls
                   for op in ops)


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ("dense", "sparse")

    def test_get_backend_by_name_and_instance(self):
        dense = get_backend("dense")
        assert isinstance(dense, DenseBackend)
        assert get_backend(dense) is dense

    def test_unknown_backend_rejected(self):
        with pytest.raises(GateError):
            get_backend("sparse-permutation")

    def test_none_means_the_registered_dense_engine(self):
        dense = get_backend("dense")
        assert get_backend(None) is dense and dense.memory_budget is None
        assert Statevector(1, 3).backend is dense

    def test_register_custom_backend(self):
        class Echo(DenseBackend):
            name = "echo-test"

        try:
            register_backend(Echo)
            assert get_backend("echo-test").name == "echo-test"
        finally:
            from repro.sim import backend as backend_module

            backend_module._REGISTRY.pop("echo-test", None)

    def test_register_rejects_non_backend(self):
        with pytest.raises(GateError):
            register_backend(object())


class TestStatevectorSatellites:
    def test_copy_is_independent(self):
        state = Statevector.uniform(2, 3)
        dup = state.copy()
        dup.data[0] = 0.0
        assert state.data[0] == pytest.approx(1.0 / 3.0)
        assert dup.backend is state.backend

    def test_apply_circuit_out_leaves_self_untouched(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
        source = Statevector.from_basis_state((0, 0), 3)
        out = Statevector(2, 3)
        returned = source.apply_circuit(circuit, out=out)
        assert returned is out
        assert source.probability((0, 0)) == pytest.approx(1.0)
        assert out.probability((0, 1)) == pytest.approx(1.0)

    def test_apply_circuit_out_empty_circuit_does_not_alias(self):
        circuit = QuditCircuit(2, 3)
        source = Statevector.from_basis_state((1, 1), 3)
        out = Statevector(2, 3)
        source.apply_circuit(circuit, out=out)
        assert out.data is not source.data
        out.data[0] = 123.0
        assert source.amplitude((0, 0)) != 123.0

    def test_apply_circuit_out_shape_mismatch_rejected(self):
        circuit = QuditCircuit(2, 3)
        source = Statevector(2, 3)
        with pytest.raises(WireError):
            source.apply_circuit(circuit, out=Statevector(3, 3))

    def test_apply_circuit_backend_override(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(SingleQuditUnitary(np.diag([1, -1, 1])), 1, [(0, Value(0))])
        state = Statevector.uniform(2, 3, backend="dense")
        state.apply_circuit(circuit, backend=DenseBackend(memory_budget=16))
        expected = Statevector.uniform(2, 3).apply_circuit(circuit)
        assert np.allclose(state.data, expected.data)


class TestCircuitAtomicity:
    def test_failed_extend_leaves_circuit_unchanged(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        good = Operation(XPlus(3, 1), 1)
        bad = Operation(XPlus(3, 1), 7)  # wire out of range
        with pytest.raises(WireError):
            circuit.extend([good, bad])
        assert circuit.num_ops() == 1

    def test_failed_extend_wrong_dimension(self):
        circuit = QuditCircuit(2, 3)
        with pytest.raises(Exception):
            circuit.extend([Operation(XPlus(3, 1), 0), Operation(XPlus(4, 1), 1)])
        assert circuit.num_ops() == 0

    def test_extend_accepts_generators(self):
        circuit = QuditCircuit(2, 3)
        circuit.extend(Operation(XPlus(3, 1), wire) for wire in range(2))
        assert circuit.num_ops() == 2

    def test_failed_compose_leaves_circuit_unchanged(self):
        big = QuditCircuit(3, 3)
        big.add_gate(XPlus(3, 1), 2)
        small = QuditCircuit(2, 3)
        small.add_gate(XPlus(3, 1), 0)
        ok = small.copy()
        with pytest.raises(Exception):
            ok.compose(QuditCircuit(2, 4))  # dimension mismatch
        assert ok.num_ops() == 1
