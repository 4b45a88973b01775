"""Dense statevector simulation of qudit circuits.

Used for the constructions that involve genuine unitaries rather than
basis-state permutations: the ``|0^k⟩-U`` gate of Fig. 1(b), the unitary
synthesis of Theorem IV.1, the d-ary Grover application, and the
root-of-``X`` baselines.  Gate application is delegated to one of the
vectorized engines in :mod:`repro.sim.backend` (``dense`` by default) —
there is no per-basis-index Python loop anywhere on the hot path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import DimensionError, WireError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.operations import BaseOp
from repro.sim.backend import BackendLike, get_backend
from repro.utils.indexing import digits_to_index, index_to_digits


class Statevector:
    """A dense statevector over ``num_wires`` qudits of dimension ``dim``.

    ``backend`` selects the simulation engine by name (``"dense"``,
    ``"sparse"``, or any name registered through
    :func:`repro.sim.backend.register_backend`), or accepts a configured
    instance directly — e.g. ``DenseBackend(memory_budget="8M")`` to evolve
    a state larger than a byte budget out-of-core; ``None`` is ``"dense"``.
    :attr:`nbytes` reports the amplitude footprint the engines' memory
    models are expressed in (see README "Simulation backends").
    """

    def __init__(
        self,
        num_wires: int,
        dim: int,
        data: Optional[np.ndarray] = None,
        *,
        backend: BackendLike = None,
        copy: bool = True,
    ):
        if dim < 2:
            raise DimensionError(f"qudit dimension must be at least 2, got {dim}")
        self.num_wires = num_wires
        self.dim = dim
        self.backend = get_backend(backend)
        size = dim**num_wires
        if data is None:
            self.data = np.zeros(size, dtype=complex)
            self.data[0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != (size,):
                raise DimensionError(f"statevector must have {size} amplitudes, got {data.shape}")
            self.data = data.copy() if copy else data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_basis_state(
        cls, digits: Sequence[int], dim: int, *, backend: BackendLike = None
    ) -> "Statevector":
        """The computational basis state ``|digits⟩``."""
        state = cls(len(digits), dim, backend=backend)
        state.data[:] = 0.0
        state.data[digits_to_index(digits, dim)] = 1.0
        return state

    @classmethod
    def uniform(cls, num_wires: int, dim: int, *, backend: BackendLike = None) -> "Statevector":
        """The uniform superposition over every basis state."""
        state = cls(num_wires, dim, backend=backend)
        size = dim**num_wires
        state.data[:] = 1.0 / np.sqrt(size)
        return state

    def copy(self) -> "Statevector":
        """An independent copy (exactly one buffer copy)."""
        return Statevector(
            self.num_wires, self.dim, self.data.copy(), backend=self.backend, copy=False
        )

    @property
    def nbytes(self) -> int:
        """Amplitude bytes (``16·dⁿ``) — the ``S`` of the backend memory
        models; compare against a dense engine's ``memory_budget`` to
        predict whether evolution stays in RAM."""
        return int(self.data.nbytes)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_circuit(
        self,
        circuit: QuditCircuit,
        *,
        out: Optional["Statevector"] = None,
        backend: BackendLike = None,
    ) -> "Statevector":
        """Apply every operation of ``circuit`` and return the evolved state.

        By default the state evolves in place and ``self`` is returned.  Pass
        ``out=`` (a statevector of the same shape) to leave ``self`` untouched
        and write the result into ``out`` instead; ``backend=`` overrides the
        engine for this call only.
        """
        if circuit.num_wires != self.num_wires or circuit.dim != self.dim:
            raise WireError("circuit and statevector shapes do not match")
        engine = self.backend if backend is None else get_backend(backend)
        target = self if out is None else out
        if target is not self:
            if not isinstance(target, Statevector):
                raise WireError(f"out= must be a Statevector, got {target!r}")
            if target.num_wires != self.num_wires or target.dim != self.dim:
                raise WireError("out= statevector shape does not match")
        data = engine.apply_circuit(self.data, circuit)
        if target is not self and data is self.data:
            data = data.copy()  # empty circuit: never alias the buffers
        target.data = data
        return target

    def apply_op(self, op: BaseOp) -> None:
        """Apply one operation in place."""
        self.data = self.backend.apply_op(self.data, op, self.dim, self.num_wires)

    # ------------------------------------------------------------------
    # Measurement-style queries
    # ------------------------------------------------------------------
    def amplitude(self, digits: Sequence[int]) -> complex:
        return complex(self.data[digits_to_index(digits, self.dim)])

    def probability(self, digits: Sequence[int]) -> float:
        return float(abs(self.amplitude(digits)) ** 2)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.data) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def fidelity(self, other: "Statevector") -> float:
        """Squared overlap ``|⟨self|other⟩|^2``."""
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def most_probable(self) -> Sequence[int]:
        """Digits of the most probable basis state."""
        return index_to_digits(int(np.argmax(self.probabilities())), self.dim, self.num_wires)
