"""The sparse amplitude-map engine and the batched index-propagation layer.

The sparse contract has two halves:

* on **permutation** circuits the engine is *bit-for-bit* equal to
  ``dense`` — indices propagate by exact integer stride arithmetic and
  amplitudes are only carried, never recomputed (``np.array_equal``
  throughout, like the memory-budget suite);
* on circuits with **unitary** rows the expansion/merge/prune path is
  ``allclose`` to dense, densifies transparently past the occupancy
  threshold, and stays total (every circuit dense accepts, sparse accepts).

The batched-verification layer underneath
(:meth:`repro.ir.table.GateTable.apply_to_indices`, the sampled branches of
the ``assert_*`` helpers, :func:`assert_unitary_columns_equiv`) is what
makes registers beyond any statevector *verified* rather than trusted, so
its failure messages — seed, failing row, replay recipe — are pinned here
too.
"""

import json
import random

import numpy as np
import pytest

from repro.exceptions import GateError, VerificationError, WireError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import StarShiftOp
from repro.sim import (
    MATERIALIZE_LIMIT,
    SparseBackend,
    SparseState,
    available_backends,
    get_backend,
)
from repro.synth import synthesize
from repro.utils import permutations as perm_utils
from repro.verify import (
    VerificationBudget,
    assert_implements_permutation,
    assert_mct_spec,
    assert_unitary_columns_equiv,
    assert_wires_preserved,
    sample_basis_states,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def mixed_circuit(seed, num_wires=3, dim=3, num_ops=12, unitary=True):
    rng = random.Random(seed)
    circuit = QuditCircuit(num_wires, dim, name=f"mixed{seed}")
    for _ in range(num_ops):
        wires = rng.sample(range(num_wires), min(2, num_wires))
        kind = rng.randrange((4 if unitary else 3) if num_wires > 1 else 2)
        if kind == 0:
            circuit.add_gate(XPlus(dim, rng.randrange(1, dim)), wires[0])
        elif kind == 1:
            predicate = rng.choice([Value(rng.randrange(dim)), Odd()])
            controls = [(wires[1], predicate)] if num_wires > 1 else []
            circuit.add_gate(
                XPerm(perm_utils.random_permutation(dim, rng)), wires[0], controls
            )
        elif kind == 2:
            circuit.append(StarShiftOp(wires[0], wires[1], rng.choice([+1, -1])))
        else:
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(dim)]))
            controls = [(wires[1], Value(rng.randrange(dim)))] if rng.randrange(2) else []
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[0], controls)
    return circuit


def sparse_input(dim, num_wires, nnz, seed=0):
    size = dim**num_wires
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(size, size=min(nnz, size), replace=False)).astype(np.int64)
    amplitudes = rng.normal(size=indices.size) + 1j * rng.normal(size=indices.size)
    amplitudes /= np.linalg.norm(amplitudes)
    return indices, amplitudes


def dense_of(indices, amplitudes, size):
    data = np.zeros(size, dtype=complex)
    data[indices] = amplitudes
    return data


# ----------------------------------------------------------------------
# SparseState representation
# ----------------------------------------------------------------------
class TestSparseState:
    def test_from_basis_state_is_one_amplitude(self):
        state = SparseState.from_basis_state([1, 0, 2], 3)
        assert state.nnz == 1
        assert state.indices.tolist() == [1 * 9 + 0 * 3 + 2]
        assert state.amplitudes.tolist() == [1.0 + 0.0j]
        assert state.norm() == pytest.approx(1.0)
        assert state.digit_rows().tolist() == [[1, 0, 2]]

    def test_from_dense_round_trip(self):
        data = np.zeros(27, dtype=complex)
        data[[3, 7, 20]] = [0.5, 0.5j, -0.5]
        state = SparseState.from_dense(data, 3, 3)
        assert state.nnz == 3
        assert np.array_equal(state.to_dense(), data)

    def test_from_dense_eps_drops_dust(self):
        data = np.zeros(9, dtype=complex)
        data[[1, 4]] = [1.0, 1e-15]
        assert SparseState.from_dense(data, 3, 2, eps=1e-12).indices.tolist() == [1]

    def test_size_is_a_python_int(self):
        state = SparseState.from_basis_state([0] * 40, 3)
        assert state.size == 3**40  # would overflow int64
        assert state.occupancy == pytest.approx(1 / 3**40)

    def test_nbytes_counts_both_arrays(self):
        state = SparseState(2, 3, [1, 5], [1.0, 2.0])
        assert state.nbytes == 2 * 8 + 2 * 16

    def test_validation(self):
        with pytest.raises(GateError):
            SparseState(2, 1, [0], [1.0])  # dim < 2
        with pytest.raises(WireError):
            SparseState(0, 3, [0], [1.0])  # no wires
        with pytest.raises(GateError):
            SparseState(2, 3, [0, 1], [1.0])  # shape mismatch
        with pytest.raises(WireError):
            SparseState(2, 3, [9], [1.0])  # index out of range
        with pytest.raises(GateError):
            SparseState(2, 3, [4, 2], [1.0, 1.0])  # not sorted
        with pytest.raises(GateError):
            SparseState(2, 3, [2, 2], [1.0, 1.0])  # duplicate
        with pytest.raises(GateError):
            SparseState.from_basis_state([0, 3], 3)  # digit out of range

    def test_to_dense_refuses_huge_registers(self):
        state = SparseState.from_basis_state([0] * 40, 3)
        with pytest.raises(GateError, match="keep it sparse"):
            state.to_dense()
        assert 3**40 > MATERIALIZE_LIMIT


# ----------------------------------------------------------------------
# Equivalence matrix against dense
# ----------------------------------------------------------------------
class TestSparseVsDense:
    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_circuits_bit_for_bit(self, seed):
        circuit = mixed_circuit(seed, num_ops=14, unitary=False)
        assert circuit.is_permutation
        indices, amplitudes = sparse_input(3, 3, nnz=4, seed=seed)
        data = dense_of(indices, amplitudes, 27)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_circuits_allclose(self, seed):
        circuit = mixed_circuit(seed, num_ops=14)
        indices, amplitudes = sparse_input(3, 3, nnz=4, seed=seed)
        data = dense_of(indices, amplitudes, 27)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)

    def test_empty_circuit_is_identity(self):
        circuit = QuditCircuit(3, 3, name="empty")
        indices, amplitudes = sparse_input(3, 3, nnz=3)
        state = SparseState(3, 3, indices, amplitudes)
        out = SparseBackend().apply_table_sparse(state, circuit.to_table())
        assert np.array_equal(out.indices, indices)
        assert np.array_equal(out.amplitudes, amplitudes)

    def test_width_one_circuit(self):
        circuit = mixed_circuit(5, num_wires=1, dim=4, num_ops=6)
        data = dense_of([2], [1.0 + 0.0j], 4)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)

    def test_non_contiguous_wires_in_a_wide_register(self):
        # The circuit acts on wires 0, 3, 6 of a 7-wire register: stride
        # arithmetic must address the right digits with everything between
        # them untouched.
        circuit = QuditCircuit(7, 3, name="gappy")
        circuit.add_gate(XPlus(3, 1), 6)
        circuit.add_gate(XPerm((2, 0, 1)), 3, [(0, Value(0))])
        circuit.add_gate(XPlus(3, 2), 0, [(6, Odd())])
        indices, amplitudes = sparse_input(3, 7, nnz=5, seed=3)
        data = dense_of(indices, amplitudes, 3**7)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = SparseBackend().apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    def test_batched_and_circuit_entry_points(self):
        circuit = mixed_circuit(9, num_ops=10)
        data = np.zeros((27, 3), dtype=complex)
        data[[1, 5, 9], [0, 1, 2]] = 1.0
        expected = get_backend("dense").apply_table_batch(data.copy(), circuit.to_table())
        engine = SparseBackend()
        assert np.allclose(
            np.asarray(engine.apply_table_batch(data.copy(), circuit.to_table())),
            expected,
            atol=1e-12,
        )
        assert np.allclose(
            np.asarray(engine.apply_circuit_batch(data.copy(), circuit)),
            expected,
            atol=1e-12,
        )
        with pytest.raises(GateError):
            engine.apply_table_batch(data[:, 0], circuit.to_table())

    def test_per_op_path_matches_dense(self):
        circuit = mixed_circuit(13, num_ops=8)
        data = dense_of([4, 11], np.array([0.6, 0.8j]), 27)
        expected = data.copy()
        actual = data.copy()
        dense, engine = get_backend("dense"), SparseBackend()
        for op in circuit:
            expected = dense.apply_op(expected, op, 3, 3)
            actual = engine.apply_op(actual, op, 3, 3)
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)


# ----------------------------------------------------------------------
# Occupancy crossover, fallbacks, pruning, counters
# ----------------------------------------------------------------------
class TestOccupancyAndStats:
    def test_full_occupancy_input_falls_back_on_entry(self):
        circuit = mixed_circuit(2, num_ops=10, unitary=False)
        rng = np.random.default_rng(0)
        data = rng.normal(size=27) + 1j * rng.normal(size=27)
        engine = SparseBackend()
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        actual = engine.apply_table(data.copy(), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)  # delegated verbatim
        assert engine.cache_stats()["dense_fallbacks"] == 1

    def test_unitary_expansion_densifies_mid_run(self):
        # Hadamards on every wire of |000...0> double the occupancy per row;
        # with a low threshold the run must cross over mid-circuit and still
        # agree with dense.
        circuit = QuditCircuit(5, 2, name="spread")
        for wire in range(5):
            circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), wire)
        circuit.add_gate(XPlus(2, 1), 0)  # exercise the post-densify segment path
        data = dense_of([0], [1.0 + 0.0j], 32)
        expected = get_backend("dense").apply_table(data.copy(), circuit.to_table())
        engine = SparseBackend(max_occupancy=0.25)
        actual = engine.apply_table(data.copy(), circuit.to_table())
        assert np.allclose(np.asarray(actual), expected, atol=1e-12)
        stats = engine.cache_stats()
        assert stats["densifies"] == 1
        assert stats["unitary_expands"] >= 1

    def test_sparse_native_recompresses_after_densify(self):
        circuit = QuditCircuit(3, 2, name="spread3")
        for wire in range(3):
            circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), wire)
        engine = SparseBackend(max_occupancy=0.25)
        out = engine.apply_table_sparse(SparseState.from_basis_state([0, 0, 0], 2), circuit.to_table())
        assert isinstance(out, SparseState)
        assert out.nnz == 8  # uniform superposition
        assert np.allclose(np.abs(out.amplitudes), 1 / np.sqrt(8))

    def test_epsilon_pruning_cancels_interference(self):
        # H then H is the identity: the second expansion merges amplitudes
        # that cancel exactly, and the pruned counter records the kill.
        circuit = QuditCircuit(1, 2, name="hh")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        engine = SparseBackend(max_occupancy=1.0)  # never densify: stay on the merge path
        out = engine.apply_table_sparse(SparseState.from_basis_state([0], 2), circuit.to_table())
        assert out.indices.tolist() == [0]
        assert out.amplitudes[0] == pytest.approx(1.0)
        assert engine.cache_stats()["pruned"] >= 1

    def test_stats_reset_and_threshold_validation(self):
        engine = SparseBackend()
        engine.apply_table(dense_of([0], [1.0], 27), mixed_circuit(0, unitary=False).to_table())
        assert engine.cache_stats()["sparse_applies"] == 1
        engine.reset_stats()
        assert all(v == 0 for v in engine.cache_stats().values())
        with pytest.raises(GateError):
            SparseBackend(max_occupancy=0.0)
        with pytest.raises(GateError):
            SparseBackend(max_occupancy=1.5)

    def test_sparse_is_registered(self):
        assert "sparse" in available_backends()
        assert isinstance(get_backend("sparse"), SparseBackend)


# ----------------------------------------------------------------------
# Huge registers: beyond any statevector, still exact and still verified
# ----------------------------------------------------------------------
class TestHugeRegister:
    def test_basis_state_propagates_through_a_19_qutrit_register(self):
        result = synthesize("mct", 3, 18)
        macro = result.circuit
        assert macro.dim**macro.num_wires >= 10**9
        table = macro.to_table()
        engine = get_backend("sparse")
        # All-zero controls fire: the target swaps 0 <-> 1.
        fired = engine.apply_table_sparse(
            SparseState.from_basis_state([0] * macro.num_wires, 3), table
        )
        assert fired.nnz == 1
        expected = [0] * macro.num_wires
        expected[result.target] = 1
        assert fired.digit_rows().tolist() == [expected]
        # A non-zero control digit must leave the state untouched.
        digits = [0] * macro.num_wires
        digits[result.controls[0]] = 2
        idle = engine.apply_table_sparse(SparseState.from_basis_state(digits, 3), table)
        assert idle.digit_rows().tolist() == [digits]

    def test_huge_register_is_verified_against_the_spec(self):
        result = synthesize("mct", 3, 18)
        # The sampled branch pushes every sample through ONE batched
        # apply_to_indices pass — milliseconds where a dense statevector
        # would need ~18.6 GB.
        assert_mct_spec(
            result.circuit,
            result.controls,
            result.target,
            budget=VerificationBudget(max_basis_states=1000, samples=128),
        )


# ----------------------------------------------------------------------
# GateTable.apply_to_indices: chunking, error naming
# ----------------------------------------------------------------------
class TestApplyToIndices:
    def test_chunking_matches_one_shot(self, monkeypatch):
        from repro.ir import segment

        table = mixed_circuit(4, num_ops=11, unitary=False).to_table()
        indices = np.arange(27, dtype=np.int64)
        one_shot = table.apply_to_indices(indices)
        monkeypatch.setattr(segment, "INDEX_CHUNK", 5)
        assert np.array_equal(table.apply_to_indices(indices), one_shot)

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_permutation_segments_move_indices_as_apply_to_indices(self, seed):
        """The sparse engine's permutation segments and ``apply_to_indices``
        walk the rows alike, star rows and overflow-control rows included."""
        from repro.fuzz import random_circuit
        from repro.ir import OP_STAR

        weights = {"transposition": 2.0, "perm": 1.0, "xplus": 1.0, "star": 2.0}
        circuit = random_circuit(seed, num_wires=5, dim=3, num_ops=40, op_weights=weights,
                                 max_controls=4)
        table = circuit.to_table()
        assert (table.opcode == OP_STAR).any() and (table.extra >= 0).any()
        indices = np.sort(np.random.default_rng(seed).choice(3**5, size=40, replace=False))
        amplitudes = indices + 1.0j  # distinct, so each one's destination shows
        out = SparseBackend().apply_table_sparse(
            SparseState(5, 3, indices, amplitudes), table
        )
        images = table.apply_to_indices(indices)
        assert dict(zip(out.indices.tolist(), out.amplitudes.tolist())) == dict(
            zip(images.tolist(), amplitudes.tolist())
        )

    def test_empty_batch(self):
        table = mixed_circuit(1, num_ops=3, unitary=False).to_table()
        assert table.apply_to_indices(np.array([], dtype=np.int64)).shape == (0,)

    def test_unitary_rows_are_named_in_the_error(self):
        circuit = QuditCircuit(1, 2, name="u")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="had"), 0)
        with pytest.raises(GateError, match="had"):
            circuit.to_table().apply_to_indices(np.array([0], dtype=np.int64))

    def test_out_of_range_indices_rejected(self):
        table = mixed_circuit(1, num_ops=3, unitary=False).to_table()
        with pytest.raises(WireError):
            table.apply_to_indices(np.array([27], dtype=np.int64))
        with pytest.raises(WireError):
            table.apply_to_indices(np.array([-1], dtype=np.int64))


# ----------------------------------------------------------------------
# Batched sampled verification: recipes, rows, column sampling
# ----------------------------------------------------------------------
class TestSampledVerification:
    def test_sampled_permutation_failure_names_row_and_recipe(self):
        circuit = QuditCircuit(3, 3, name="idc")  # identity

        def expect_flip(state):
            out = list(state)
            out[2] = (out[2] + 1) % 3
            return tuple(out)

        with pytest.raises(VerificationError) as excinfo:
            assert_implements_permutation(
                circuit,
                expect_flip,
                budget=VerificationBudget(max_basis_states=1, samples=20, seed=7),
            )
        message = str(excinfo.value)
        assert "failing row 0" in message
        assert "sample_basis_states(3, 3, 20, 7)[0]" in message
        # The recipe replays the exact failing state.
        assert str(sample_basis_states(3, 3, 20, 7)[0]) in message

    def test_sampled_wires_preserved_failure_names_row(self):
        circuit = QuditCircuit(2, 3, name="mover")
        circuit.add_gate(XPlus(3, 1), 0)
        with pytest.raises(VerificationError, match="failing row"):
            assert_wires_preserved(
                circuit,
                [0],
                budget=VerificationBudget(max_basis_states=1, samples=16, seed=11),
            )

    def test_sampled_branch_agrees_with_exhaustive(self):
        circuit = mixed_circuit(6, num_ops=10, unitary=False)
        spec_table = circuit.to_table().permutation_index_table()

        def spec(state):
            flat = 0
            for digit in state:
                flat = flat * 3 + digit
            image = int(spec_table[flat])
            return tuple((image // 3 ** (2 - w)) % 3 for w in range(3))

        assert_implements_permutation(circuit, spec)  # exhaustive
        assert_implements_permutation(  # sampled
            circuit, spec, budget=VerificationBudget(max_basis_states=1, samples=64)
        )

    def test_column_sampled_unitary_check_accepts_the_truth(self):
        circuit = QuditCircuit(2, 2, name="h0")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)

        def expected_column(col):
            vector = np.zeros(4, dtype=complex)
            high, low = divmod(col, 2)
            vector[low] = HADAMARD[0, high]
            vector[2 + low] = HADAMARD[1, high]
            return vector

        assert_unitary_columns_equiv(
            circuit, expected_column, budget=VerificationBudget(sampled_columns=4)
        )

    def test_column_sampled_unitary_check_rejects_a_corrupted_circuit(self):
        circuit = QuditCircuit(2, 2, name="h0-broken")
        circuit.add_gate(SingleQuditUnitary(HADAMARD, label="H"), 0)
        circuit.add_gate(XPlus(2, 1), 1)  # corruption

        def expected_column(col):
            vector = np.zeros(4, dtype=complex)
            high, low = divmod(col, 2)
            vector[low] = HADAMARD[0, high]
            vector[2 + low] = HADAMARD[1, high]
            return vector

        with pytest.raises(VerificationError, match="sampled-column"):
            assert_unitary_columns_equiv(
                circuit, expected_column, budget=VerificationBudget(sampled_columns=4)
            )

    def test_column_sampled_check_rejects_non_global_phase(self):
        # diag(1, i) deviates per column: with up_to_global_phase=True the
        # phase aligned on one column must NOT be allowed to drift on the
        # next, else any diagonal would pass as "the identity up to phase".
        circuit = QuditCircuit(1, 2, name="diag")
        circuit.add_gate(
            SingleQuditUnitary(np.diag([1.0, 1.0j]), label="S"), 0
        )

        def expected_column(col):
            vector = np.zeros(2, dtype=complex)
            vector[col] = 1.0
            return vector

        with pytest.raises(VerificationError, match="not a global phase"):
            assert_unitary_columns_equiv(
                circuit,
                expected_column,
                required_columns=(0, 1),
                up_to_global_phase=True,
                budget=VerificationBudget(sampled_columns=1),
            )

    def test_mcu_exponential_verifies_past_the_dense_matrix_cap(self):
        # Basis 3^8 = 6561 >> the 1024-cap of the dense matrix compare: the
        # default budget decides it by sampled columns, building no matrix.
        from repro.synth.registry import get as get_strategy

        strategy = get_strategy("mcu-exponential")
        result = synthesize("mcu-exponential", 3, 7)
        assert result.circuit.dim**result.circuit.num_wires > 1024
        report = strategy.verify(result.circuit, 3, 7)
        assert report.ok and report.decided_by == "sampled-columns"


# ----------------------------------------------------------------------
# Fuzz integration
# ----------------------------------------------------------------------
class TestFuzzIntegration:
    def test_low_occupancy_generator_profile(self):
        from repro.fuzz import random_low_occupancy_case

        rng = random.Random(5)
        circuit, states = random_low_occupancy_case(rng)
        assert 1 <= len(states) <= 4
        assert all(len(state) == circuit.num_wires for state in states)

    def test_check_backends_sparse_is_clean_on_a_real_case(self):
        from repro.fuzz import check_backends_sparse, random_low_occupancy_case

        rng = random.Random(23)
        circuit, states = random_low_occupancy_case(rng)
        assert check_backends_sparse(circuit, states) is None

    def test_check_backends_sparse_flags_a_divergent_engine(self):
        from repro.fuzz import check_backends_sparse
        from repro.sim import register_backend, unregister_backend

        class LyingBackend(SparseBackend):
            def apply_table(self, data, table):
                out = np.asarray(super().apply_table(data, table))
                if out.ndim == 1 and out.size:
                    out = out.copy()
                    out[0] += 0.5
                return out

        real = get_backend("sparse")
        register_backend(LyingBackend(), name="sparse")
        try:
            circuit = mixed_circuit(2, num_ops=6, unitary=False)
            message = check_backends_sparse(circuit, [(0, 0, 0)])
            assert message is not None and "bit-for-bit" in message
        finally:
            unregister_backend("sparse")
            register_backend(real, name="sparse")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_list_prints_the_sparse_occupancy_threshold(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sparse" in out
        assert "occupancy" in out

    def test_list_json_reports_sparse_config(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backends"]["sparse"] == "available"
        assert payload["sparse"]["max_occupancy"] == pytest.approx(0.25)

    def test_simulate_accepts_the_sparse_backend(self, capsys):
        from repro.__main__ import main

        assert main(
            ["simulate", "mct", "3", "3", "--state", "0,0,0,1", "--backend", "sparse"]
        ) == 0
