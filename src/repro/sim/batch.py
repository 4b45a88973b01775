"""Batched statevector simulation: B states evolved per gate application.

A :class:`BatchedStatevector` holds ``B`` states of the same ``(num_wires,
dim)`` register as one ``(d**n, B)`` array — the basis index leading, the
batch axis trailing, exactly the layout every engine in
:mod:`repro.sim.backend` carries through its kernels.  Applying a lowered
circuit routes through :meth:`SimulationBackend.apply_circuit_batch`: on the
dense engine the whole batch moves with **one composed gather per
permutation segment**, amortising the gather tables across the batch
instead of replaying them per state.

For purely classical workloads (a permutation circuit applied to basis
states) :meth:`~repro.ir.table.GateTable.apply_to_indices` propagates just
the ``B`` flat indices through the table — O(rows · B) instead of
O(rows · d^n) amplitude traffic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionError, WireError
from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import BackendLike, get_backend
from repro.sim.statevector import Statevector
from repro.utils.indexing import digits_to_index, indices_to_digits


class BatchedStatevector:
    """``B`` dense statevectors sharing one register shape.

    ``data`` has shape ``(dim**num_wires, batch_size)``; column ``b`` is the
    ``b``-th state.  The default constructor initialises every column to
    ``|0...0⟩``.
    """

    def __init__(
        self,
        num_wires: int,
        dim: int,
        batch_size: int,
        data: Optional[np.ndarray] = None,
        *,
        backend: BackendLike = None,
        copy: bool = True,
    ):
        if dim < 2:
            raise DimensionError(f"qudit dimension must be at least 2, got {dim}")
        if batch_size < 1:
            raise DimensionError(f"batch size must be at least 1, got {batch_size}")
        self.num_wires = int(num_wires)
        self.dim = int(dim)
        self.batch_size = int(batch_size)
        self.backend = get_backend(backend)
        size = dim**num_wires
        if data is None:
            self.data = np.zeros((size, batch_size), dtype=complex)
            self.data[0, :] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != (size, batch_size):
                raise DimensionError(
                    f"batched statevector needs shape {(size, batch_size)}, got {data.shape}"
                )
            self.data = data.copy() if copy else data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_basis_states(
        cls,
        rows: Sequence[Sequence[int]],
        dim: int,
        *,
        backend: BackendLike = None,
    ) -> "BatchedStatevector":
        """One column per digit row: ``|rows[b]⟩`` in column ``b``."""
        if not rows:
            raise DimensionError("from_basis_states needs at least one basis state")
        num_wires = len(rows[0])
        batch = cls(num_wires, dim, len(rows), backend=backend)
        batch.data[0, :] = 0.0
        for b, digits in enumerate(rows):
            if len(digits) != num_wires:
                raise WireError(
                    f"basis state {b} has {len(digits)} digits, expected {num_wires}"
                )
            batch.data[digits_to_index(digits, dim), b] = 1.0
        return batch

    @classmethod
    def from_statevectors(cls, states: Iterable[Statevector]) -> "BatchedStatevector":
        """Stack independent :class:`Statevector` objects into one batch."""
        states = list(states)
        if not states:
            raise DimensionError("from_statevectors needs at least one state")
        first = states[0]
        for state in states[1:]:
            if state.num_wires != first.num_wires or state.dim != first.dim:
                raise WireError("all batched states must share one register shape")
        data = np.stack([state.data for state in states], axis=1)
        return cls(
            first.num_wires,
            first.dim,
            len(states),
            data,
            backend=first.backend,
            copy=False,
        )

    def copy(self) -> "BatchedStatevector":
        return BatchedStatevector(
            self.num_wires,
            self.dim,
            self.batch_size,
            self.data.copy(),
            backend=self.backend,
            copy=False,
        )

    @property
    def nbytes(self) -> int:
        """Amplitude bytes (``16·dⁿ·B``) — the batch's ``S`` in the backend
        memory models (README "Simulation backends")."""
        return int(self.data.nbytes)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_circuit(
        self, circuit: QuditCircuit, *, backend: BackendLike = None
    ) -> "BatchedStatevector":
        """Apply ``circuit`` to every column in place and return ``self``.

        Routes through the engine's :meth:`apply_circuit_batch`, the fused
        path over the circuit's columnar table, which carries the batch
        axis.
        """
        if circuit.num_wires != self.num_wires or circuit.dim != self.dim:
            raise WireError("circuit and batched statevector shapes do not match")
        engine = self.backend if backend is None else get_backend(backend)
        self.data = engine.apply_circuit_batch(self.data, circuit)
        return self

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def state(self, b: int) -> Statevector:
        """An independent :class:`Statevector` copy of column ``b``."""
        return Statevector(
            self.num_wires,
            self.dim,
            np.ascontiguousarray(self.data[:, b]),
            backend=self.backend,
            copy=False,
        )

    def states(self) -> List[Statevector]:
        return [self.state(b) for b in range(self.batch_size)]

    def probabilities(self) -> np.ndarray:
        """Per-column probabilities, shape ``(dim**num_wires, batch_size)``."""
        return np.abs(self.data) ** 2

    def most_probable(self) -> List[tuple]:
        """The most probable basis digits of every column."""
        flat = np.argmax(self.probabilities(), axis=0)
        digits = indices_to_digits(flat, self.dim, self.num_wires)
        return [tuple(int(x) for x in row) for row in digits]

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedStatevector(wires={self.num_wires}, dim={self.dim}, "
            f"batch={self.batch_size}, backend={self.backend.name!r})"
        )

