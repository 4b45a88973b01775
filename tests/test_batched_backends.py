"""Batched simulation equivalence: B states at once ≡ B independent runs.

The PR-5 satellite contract: ``apply_table_batch`` over B random basis /
superposition states matches B independent ``apply_table`` calls
bit-for-bit on every engine — including empty circuits and circuits on
non-contiguous wires — and the classical index-propagation path matches
the whole-basis gather table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QuditCircuit, XPerm, lower_to_g_gates, synthesize_mct
from repro.exceptions import DimensionError, GateError, WireError
from repro.fuzz import random_circuit
from repro.qudit.controls import Value
from repro.qudit.operations import Operation
from repro.sim import (
    BatchedStatevector,
    DenseBackend,
    Statevector,
    get_backend,
)
from repro.verify import sample_basis_states
from repro.utils.indexing import digits_to_index

#: The dense engine under a budget below one batch row of every batch here
#: (one row of B states is 16·B bytes): one-row tiles, memmap scratch.
BACKENDS = (
    "dense",
    pytest.param(DenseBackend(memory_budget=64), id="dense-budgeted"),
    "sparse",
)


def _random_batch(dim, num_wires, batch, seed):
    rng = np.random.default_rng(seed)
    size = dim**num_wires
    data = rng.normal(size=(size, batch)) + 1j * rng.normal(size=(size, batch))
    return data / np.linalg.norm(data, axis=0, keepdims=True)


def _basis_batch(dim, num_wires, batch, seed):
    rows = sample_basis_states(dim, num_wires, batch, seed)
    data = np.zeros((dim**num_wires, len(rows)), dtype=complex)
    for b, digits in enumerate(rows):
        data[digits_to_index(digits, dim), b] = 1.0
    return data, rows


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(5))
def test_batch_matches_independent_runs_on_random_circuits(backend, seed):
    dim = 3 + (seed % 2)
    circuit = random_circuit(seed, num_wires=3, dim=dim, num_ops=18)
    table = circuit.to_table()
    engine = get_backend(backend)
    for maker in (_random_batch, lambda *a: _basis_batch(*a)[0]):
        data = maker(dim, 3, 6, 1000 + seed)
        batched = engine.apply_table_batch(data.copy(), table)
        for b in range(data.shape[1]):
            solo = engine.apply_table(np.ascontiguousarray(data[:, b]), table)
            assert np.array_equal(batched[:, b], solo), f"column {b} diverged"


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_on_lowered_circuit_and_cross_engine(backend):
    lowered = lower_to_g_gates(synthesize_mct(3, 3).circuit)
    data = _random_batch(3, 4, 5, 7)
    engine = get_backend(backend)
    batched = engine.apply_table_batch(data.copy(), lowered.cached_table)
    reference = get_backend("dense").apply_table_batch(data.copy(), lowered.cached_table)
    assert np.allclose(batched, reference, atol=1e-12)
    for b in range(5):
        solo = engine.apply_table(np.ascontiguousarray(data[:, b]), lowered.cached_table)
        assert np.array_equal(batched[:, b], solo)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_empty_circuit_is_identity(backend):
    circuit = QuditCircuit(3, 3)
    data = _random_batch(3, 3, 4, 11)
    evolved = get_backend(backend).apply_table_batch(data.copy(), circuit.to_table())
    assert np.array_equal(evolved, data)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_non_contiguous_wires(backend):
    # Ops on wires {0, 2, 4} only; wires 1 and 3 idle.
    circuit = QuditCircuit(5, 3)
    x01 = XPerm.transposition(3, 0, 1)
    x12 = XPerm.transposition(3, 1, 2)
    circuit.append(Operation(x01, 4, [(0, Value(1))]))
    circuit.append(Operation(x12, 0, [(2, Value(0)), (4, Value(1))]))
    circuit.append(Operation(x01, 2))
    table = circuit.to_table()
    engine = get_backend(backend)
    data = _random_batch(3, 5, 4, 13)
    batched = engine.apply_table_batch(data.copy(), table)
    for b in range(4):
        solo = engine.apply_table(np.ascontiguousarray(data[:, b]), table)
        assert np.array_equal(batched[:, b], solo)
    # And against the object-level per-op reference path.
    for b in range(4):
        reference = np.ascontiguousarray(data[:, b])
        for op in circuit.ops:
            reference = engine.apply_op(reference, op, 3, 5)
        assert np.allclose(batched[:, b], reference, atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_rejects_non_batched_shapes(backend):
    table = QuditCircuit(2, 3).to_table()
    with pytest.raises(GateError):
        get_backend(backend).apply_table_batch(np.zeros(9, dtype=complex), table)


# ----------------------------------------------------------------------
# BatchedStatevector routing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_statevector_matches_statevector_loop(backend):
    lowered = lower_to_g_gates(synthesize_mct(3, 3).circuit)
    rows = sample_basis_states(3, 4, 6, 5)
    batch = BatchedStatevector.from_basis_states(rows, 3, backend=backend)
    batch.apply_circuit(lowered)
    for b, digits in enumerate(rows):
        solo = Statevector.from_basis_state(digits, 3, backend=backend)
        solo.apply_circuit(lowered)
        assert np.array_equal(batch.state(b).data, solo.data)
    assert batch.most_probable() == [tuple(state) for state in _images(lowered, rows)]


def _images(circuit, rows):
    dim, num_wires = circuit.dim, circuit.num_wires
    from repro.utils.indexing import indices_to_digits

    indices = [digits_to_index(digits, dim) for digits in rows]
    images = circuit.to_table().apply_to_indices(indices)
    return [tuple(int(x) for x in row) for row in indices_to_digits(images, dim, num_wires)]


def test_batched_statevector_from_statevectors_and_copy():
    states = [Statevector.from_basis_state((0, 1), 3), Statevector.uniform(2, 3)]
    batch = BatchedStatevector.from_statevectors(states)
    dup = batch.copy()
    circuit = QuditCircuit(2, 3).add_gate(XPerm.transposition(3, 0, 1), 1)
    batch.apply_circuit(circuit)
    assert not np.array_equal(batch.data, dup.data)  # copy is independent
    assert np.allclose(np.linalg.norm(batch.data, axis=0), 1.0)


def test_batched_statevector_validation():
    with pytest.raises(DimensionError):
        BatchedStatevector(2, 1, 4)
    with pytest.raises(DimensionError):
        BatchedStatevector(2, 3, 0)
    with pytest.raises(DimensionError):
        BatchedStatevector(2, 3, 4, data=np.zeros((9, 3)))
    with pytest.raises(WireError):
        BatchedStatevector.from_basis_states([(0, 0), (0, 0, 0)], 3)
    batch = BatchedStatevector(2, 3, 2)
    with pytest.raises(WireError):
        batch.apply_circuit(QuditCircuit(3, 3))


# ----------------------------------------------------------------------
# Classical index propagation (the batched permutation_index_table path)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_apply_to_indices_matches_full_gather_table(seed):
    circuit = random_circuit(
        seed, num_wires=3, dim=3, num_ops=15, op_weights={"transposition": 2, "perm": 1, "xplus": 1, "star": 1}
    )
    table = circuit.to_table()
    full = table.permutation_index_table()
    indices = np.arange(0, full.size, 2)
    assert np.array_equal(table.apply_to_indices(indices), full[indices])
    # Scalar-ish and empty batches behave.
    assert np.array_equal(table.apply_to_indices([0]), full[[0]])
    assert table.apply_to_indices([]).size == 0


def test_apply_to_indices_validates():
    circuit = QuditCircuit(2, 3).add_gate(XPerm.transposition(3, 0, 1), 0)
    with pytest.raises(WireError):
        circuit.to_table().apply_to_indices([9])
    from repro.core.multi_controlled_unitary import random_unitary_gate

    unitary = QuditCircuit(2, 3).add_gate(random_unitary_gate(3, seed=1), 0)
    with pytest.raises(GateError):
        unitary.to_table().apply_to_indices([0])
