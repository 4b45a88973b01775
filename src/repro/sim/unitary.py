"""Full-unitary construction for small circuits.

Builds the ``d^n x d^n`` matrix implemented by a circuit.  For permutation
circuits the matrix is assembled in one shot from the vectorized basis
permutation table; for genuine unitary circuits all ``d^n`` identity columns
are evolved *simultaneously* through a simulation backend (the engines treat
trailing axes as batch dimensions).  Up to :data:`OPERATOR_MAX_STATES` basis
states the dense engine's matrix is composed once and held by the circuit's
table (:func:`held_operator`), so repeated simulates and checks of one
cached table read it instead of evolving their states through every row.
Used by the verification helpers for the unitary-level constructions
(controlled-U, Theorem IV.1 unitary synthesis, root-of-X baselines) and by
the tests that compare against numpy ground truth.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import BackendLike, DenseBackend, get_backend
from repro.sim.permutation import permutation_index_table

#: Largest basis (``d**n`` states) on which a non-permutation circuit's
#: dense operator is composed once and held by its table
#: (:func:`held_operator`), as the table holds a permutation circuit's
#: whole-basis gather up to :data:`~repro.sim.permutation.GATHER_MAX_STATES`.
#: Workload simulates (:mod:`repro.exec.workload`) then read their outputs
#: from its columns, and the dense, sampled-columns and clean-subspace
#: verification tiers (:mod:`repro.verify.checks`) compare against it, so
#: every repeat of a cached table reads columns of one array instead of
#: making one kernel call per row.  Only the dense engine's composition is
#: held, and only the operator: it is a simulation artefact, never a
#: verdict.
#:
#: The operator is composed by pushing all ``d**n`` identity columns
#: through the dense engine's segment-fused
#: :meth:`~repro.sim.backend.SimulationBackend.apply_table`, so its cost
#: grows about as ``d**2n`` while a simulate's grows as ``d**n``.  The cap
#: sits where that stops paying back within a few requests: at 9 to 81
#: states one composition costs 1 to 5 simulates of 4 states, at 243 to 256
#: states 20 to 25 of them, at 729 about 70.  Measured on a 2-vCPU Intel
#: Xeon VM (Python 3.11, numpy 2; median of five; gathers warm)::
#:
#:     table                    basis   rows    compose    simulate 4
#:     unitary d=3 k=2              9     75    0.33 ms     0.33 ms
#:     mcu-exponential d=3 k=2     27      4    0.06 ms     0.06 ms
#:     mcu-exponential d=3 k=3     81     10    0.68 ms     0.15 ms
#:     unitary d=3 k=3             81  6,144    28.8 ms      9.2 ms
#:     mcu-exponential d=3 k=4    243     22    12.5 ms     0.62 ms
#:     mcu-exponential d=4 k=3    256     10     8.4 ms     0.35 ms
#:     mcu-exponential d=3 k=5    729     46     231 ms      3.2 ms
#:
#: Memory is bounded in bytes: one ``complex128`` operator of at most
#: ``16 * OPERATOR_MAX_STATES**2`` bytes = 256 KiB per table, so a compile
#: cache's in-process memo (128 tables by default) holds at most 32 MiB of
#: them.  The cap equals the ``smoke`` verification preset's
#: ``max_dense_dim``, the size even the cheapest budget compares densely.
OPERATOR_MAX_STATES = 128

_DENSE = DenseBackend()


def held_operator(circuit: QuditCircuit, backend: BackendLike = None) -> Optional[np.ndarray]:
    """The dense operator the circuit's table holds, or ``None``.

    Returns the read-only ``d^n x d^n`` matrix of a non-permutation circuit
    with at most :data:`OPERATOR_MAX_STATES` basis states when ``backend``
    resolves to the dense engine, composing it on first use and holding it
    on the circuit's :class:`~repro.ir.table.GateTable`, so every
    :meth:`~repro.qudit.circuit.QuditCircuit.from_table` view of one cached
    table shares it.  Any other circuit or engine, a budgeted
    :class:`~repro.sim.backend.DenseBackend` included, gets ``None`` and
    holds nothing.
    """
    if circuit.dim**circuit.num_wires > OPERATOR_MAX_STATES:
        return None
    engine = get_backend(backend)
    if type(engine) is not DenseBackend or engine.memory_budget is not None:
        return None
    table = circuit.to_table()
    if table.is_permutation:
        return None
    operator = table._cache.get("operator")
    if operator is None:
        size = table.dim**table.num_wires
        operator = _DENSE.apply_table(np.eye(size, dtype=complex), table)
        operator.setflags(write=False)
        table._cache["operator"] = operator
    return operator


def circuit_unitary(circuit: QuditCircuit, *, backend: BackendLike = None) -> np.ndarray:
    """Return the dense unitary matrix implemented by ``circuit``.

    ``backend`` selects the simulation engine used for non-permutation
    circuits (``None`` is ``"dense"``).  Up to
    :data:`OPERATOR_MAX_STATES` basis states the dense engine's result is
    the array the circuit's table holds (:func:`held_operator`): composed
    once, shared by every caller and read-only.  Any other engine, and any
    larger register, composes a fresh writable matrix.
    """
    size = circuit.dim**circuit.num_wires
    if circuit.is_permutation:
        table = permutation_index_table(circuit)
        matrix = np.zeros((size, size), dtype=complex)
        matrix[table, np.arange(size)] = 1.0
        return matrix
    held = held_operator(circuit, backend)
    if held is not None:
        return held
    engine = get_backend(backend)
    return engine.apply_circuit(np.eye(size, dtype=complex), circuit)


def controlled_unitary_matrix(dim: int, control_value: int, unitary: np.ndarray) -> np.ndarray:
    """Matrix of the two-qudit gate ``|control_value⟩-U`` (control wire first)."""
    size = dim * dim
    matrix = np.eye(size, dtype=complex)
    block = slice(control_value * dim, (control_value + 1) * dim)
    matrix[block, block] = unitary
    return matrix


def multi_controlled_unitary_matrix(
    dim: int, num_controls: int, unitary: np.ndarray, control_values=None
) -> np.ndarray:
    """Matrix of ``|c_1 ... c_k⟩-U`` with the target as the last wire.

    ``control_values`` defaults to all zeros (the paper's ``|0^k⟩-U``).
    """
    if control_values is None:
        control_values = (0,) * num_controls
    size = dim ** (num_controls + 1)
    matrix = np.eye(size, dtype=complex)
    offset = 0
    for value in control_values:
        offset = offset * dim + value
    block = slice(offset * dim, (offset + 1) * dim)
    matrix[block, block] = unitary
    return matrix
