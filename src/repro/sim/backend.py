"""Pluggable vectorized simulation engines.

The dense simulators used to iterate over all ``d^n`` basis indices in pure
Python per gate, which made verification of lowered circuits (thousands of
G-gates) take minutes.  This module replaces that with a small registry of
*backends*, each of which applies one operation to the amplitude data with
fully vectorized numpy — no per-index Python loop anywhere:

* ``dense`` — keeps the state as a flat array; a permutation operation is a
  single gather through the precomputed index table cached on the op
  (:meth:`repro.qudit.operations.BaseOp.permutation_table`), a controlled
  unitary is one ``einsum`` over the target-axis blocks masked by the
  vectorized control predicate.
* ``streaming`` (:mod:`repro.sim.streaming`) — applies each fused segment
  tile-by-tile under an explicit ``memory_budget``, spilling scratch arrays
  to ``np.memmap`` when the statevector exceeds the budget.
* ``sparse`` (:mod:`repro.sim.sparse`) — evolves only the nonzero
  amplitudes, for registers far beyond the dense limit.

Further engines plug in through :func:`register_backend`.

Every engine accepts data whose *leading* axis is the flat basis index of
size ``dim ** num_wires``; trailing axes are batch dimensions carried through
unchanged.  The unitary builder exploits this to evolve all ``d^n`` columns of
an identity matrix simultaneously.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.operations import BaseOp, Operation


class SimulationBackend:
    """Interface shared by every simulation engine.

    Subclasses implement :meth:`_apply_permutation` and :meth:`_apply_unitary`
    on ndarrays whose leading axis enumerates the flat basis (trailing axes
    are batch dimensions); both return a new array of the same shape.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def apply_op(self, data: np.ndarray, op: BaseOp, dim: int, num_wires: int) -> np.ndarray:
        """Apply one operation to ``data`` and return the evolved array."""
        if isinstance(op, Operation) and not op.gate.is_permutation:
            return self._apply_unitary(data, op, dim, num_wires)
        if op.is_permutation:
            return self._apply_permutation(data, op, dim, num_wires)
        raise GateError(f"backend {self.name!r} cannot simulate operation {op!r}")

    def apply_circuit(self, data: np.ndarray, circuit: QuditCircuit) -> np.ndarray:
        """Apply every operation of ``circuit`` and return the evolved array.

        Goes through the circuit's columnar table (:meth:`apply_table`);
        ``to_table()`` is cached on the circuit, so a circuit built op by op
        pays its conversion once.
        """
        return self.apply_table(data, circuit.to_table())

    def apply_table(self, data: np.ndarray, table) -> np.ndarray:
        """Apply a columnar :class:`~repro.ir.table.GateTable` to ``data``.

        Segment-fused: the rows are partitioned into maximal permutation-only
        runs separated by dense-unitary rows
        (:func:`repro.ir.segment.segment_table`), and each permutation run is
        applied as ONE composed whole-basis gather — a table of thousands of
        permutation rows between two unitaries costs one scatter, not
        thousands.  Composed tables are interned on the pools, so repeated
        applications (and derived tables) reuse them.  Unitary rows go
        through the engine's own ``_apply_unitary``; both kernels carry
        trailing batch axes natively.  Integer index composition is exact,
        so fusing never changes a single bit of the result.
        """
        from repro.ir.segment import segment_table

        dim, num_wires = table.dim, table.num_wires
        for segment in segment_table(table):
            if segment.kind == "perm":
                gather = segment.index_table()
                out = np.empty_like(data)
                out[gather] = data
                data = out
            else:
                data = self._apply_unitary(data, segment.op(), dim, num_wires)
        return data

    def apply_table_batch(self, data: np.ndarray, table) -> np.ndarray:
        """Apply a table to ``(basis, B)`` data: B states evolved in one call.

        Every engine's :meth:`apply_table` carries trailing batch axes, so
        this only checks the shape.  On the dense engine a permutation
        segment moves all ``B`` states with ONE composed gather — the
        amortisation the batch executor's ≥3x floor measures.
        """
        if data.ndim != 2:
            raise GateError(
                f"apply_table_batch expects (basis, batch) data, got shape {data.shape}"
            )
        return self.apply_table(data, table)

    def apply_circuit_batch(self, data: np.ndarray, circuit: QuditCircuit) -> np.ndarray:
        """Batched :meth:`apply_circuit` over ``(basis, B)`` data."""
        if data.ndim != 2:
            raise GateError(
                f"apply_circuit_batch expects (basis, batch) data, got shape {data.shape}"
            )
        return self.apply_circuit(data, circuit)

    def _apply_permutation(self, data, op, dim, num_wires) -> np.ndarray:
        raise NotImplementedError

    def _apply_unitary(self, data, op, dim, num_wires) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class DenseBackend(SimulationBackend):
    """Flat-index engine: permutation ops are one precomputed-table gather."""

    name = "dense"

    def _apply_permutation(self, data, op, dim, num_wires):
        table = op.permutation_table(dim, num_wires)
        out = np.empty_like(data)
        out[table] = data
        return out

    def _apply_unitary(self, data, op, dim, num_wires):
        matrix = op.gate.matrix()
        pre = dim**op.target
        post = dim ** (num_wires - 1 - op.target)
        cube = data.reshape(pre, dim, post, -1)
        rotated = np.einsum("ij,ajbk->aibk", matrix, cube)
        mask = op.control_mask(dim, num_wires, flat=True).reshape(pre, dim, post, 1)
        return np.where(mask, rotated, cube).reshape(data.shape)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BackendLike = Union[str, SimulationBackend, None]

_REGISTRY: Dict[str, SimulationBackend] = {}
_DEFAULT_NAME = "dense"


def register_backend(backend, *, name: Optional[str] = None) -> SimulationBackend:
    """Register a backend instance (or class) under ``name`` and return it."""
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, SimulationBackend):
        raise GateError(f"{backend!r} is not a SimulationBackend")
    registered = name or instance.name
    _REGISTRY[registered] = instance
    return instance


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op when absent; the default survives
    as ``dense`` only if re-registered — callers removing the default must
    set a new one first)."""
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered simulation backend."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: BackendLike = None) -> SimulationBackend:
    """Resolve a backend name (or instance, or None for the default)."""
    if backend is None:
        backend = _DEFAULT_NAME
    if isinstance(backend, SimulationBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise GateError(
            f"unknown simulation backend {backend!r}; available: {available_backends()}"
        ) from None


def default_backend() -> SimulationBackend:
    """The backend used when none is requested explicitly."""
    return _REGISTRY[_DEFAULT_NAME]


def set_default_backend(backend: BackendLike) -> SimulationBackend:
    """Change the process-wide default backend; returns the new default.

    Passing an instance (re)registers it under its own ``name``, so the
    default always resolves to exactly the object that was passed.
    """
    global _DEFAULT_NAME
    if isinstance(backend, SimulationBackend):
        if _REGISTRY.get(backend.name) is not backend:
            register_backend(backend)
        instance = backend
    else:
        instance = get_backend(backend)
    _DEFAULT_NAME = instance.name
    return instance


register_backend(DenseBackend)
