"""Sparse amplitude-map simulation: O(nnz) work for low-occupancy states.

The circuits this repo synthesises are overwhelmingly *permutation*
circuits, and their hot inputs (basis states, truth-table probes, oracle
queries) touch a handful of amplitudes — yet every statevector engine pays
O(d^n) time and memory per application.  The ``sparse`` engine stores a
state as the pair (sorted-unique ``int64`` flat indices, complex
amplitudes) and evolves it with O(batch) index arithmetic:

* each maximal permutation segment
  (:func:`repro.ir.segment.segment_table`) pushes the *live indices only*
  through its rows with :meth:`~repro.ir.segment.Segment.propagate`, the
  row walk ``GateTable.apply_to_indices`` runs — never a composed ``d^n``
  gather table — so a basis-state input costs O(rows · nnz) regardless of
  register size (``d^n >= 10^9`` works);
* a controlled-unitary row expands only the matched indices (predicate
  evaluated on decoded digits) into ``<= d`` successors each, then merges
  duplicates by key (``np.unique`` + ``np.add.at``) and prunes amplitudes
  below ``eps``;
* a configurable occupancy threshold (``SparseBackend(max_occupancy=)``)
  hands the state to the dense engine's kernels transparently — on entry
  for dense inputs that are already too full, or mid-run when unitary
  expansion crosses the threshold — so the engine is *total*: it accepts
  every circuit the dense engine does and merely stops being
  asymptotically cheaper when the state stops being sparse.

Application counters (segments gathered, rows expanded, densify crossovers,
whole-run dense fallbacks, pruned amplitudes) are exposed
``cache_stats()``-style for tests and benchmarks.

On the permutation path the engine is **bit-for-bit** equal to ``dense``:
index propagation is exact integer arithmetic and amplitudes are only
permuted, never recomputed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import GateError, WireError
from repro.qudit.circuit import QuditCircuit
from repro.sim.backend import DenseBackend, SimulationBackend, register_backend
from repro.utils.indexing import digits_to_index, indices_to_digits, require_int64_basis

#: Largest dense register ``to_dense`` / transparent densification will
#: materialise (amplitude count; 2 GiB of complex128).  Beyond this the
#: sparse representation is the only one that exists, so crossing the
#: occupancy threshold raises instead of thrashing the machine.
MATERIALIZE_LIMIT = 1 << 27

#: The kernels a state runs on once it is too full to stay sparse.
_DENSE = DenseBackend()


class SparseState:
    """A statevector stored as (sorted-unique flat indices, amplitudes).

    ``indices`` is strictly increasing ``int64``, ``amplitudes`` the matching
    complex coefficients; every basis state not listed has amplitude zero.
    ``num_wires`` / ``dim`` fix the register, whose size ``dim ** num_wires``
    may vastly exceed what any dense array could hold — only ``nnz``
    amplitudes are ever materialised.
    """

    __slots__ = ("num_wires", "dim", "indices", "amplitudes")

    def __init__(
        self,
        num_wires: int,
        dim: int,
        indices,
        amplitudes,
        *,
        copy: bool = True,
        validate: bool = True,
    ):
        self.num_wires = int(num_wires)
        self.dim = int(dim)
        if copy:
            indices = np.array(indices, dtype=np.int64).reshape(-1)
            amplitudes = np.array(amplitudes, dtype=complex).reshape(-1)
        else:
            indices = np.asarray(indices, dtype=np.int64).reshape(-1)
            amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if validate:
            if self.dim < 2:
                raise GateError(f"qudit dimension must be >= 2, got {self.dim}")
            if self.num_wires < 1:
                raise WireError(f"need at least one wire, got {self.num_wires}")
            if indices.shape != amplitudes.shape:
                raise GateError(
                    f"indices and amplitudes must match: {indices.shape} vs {amplitudes.shape}"
                )
            if indices.size:
                if indices.min() < 0 or indices.max() >= self.size:
                    raise WireError(
                        f"basis index out of range for {self.num_wires} wires of "
                        f"dimension {self.dim}"
                    )
                if indices.size > 1 and not bool((np.diff(indices) > 0).all()):
                    raise GateError("sparse indices must be strictly increasing and unique")
        self.indices = indices
        self.amplitudes = amplitudes

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_basis_state(cls, digits: Sequence[int], dim: int) -> "SparseState":
        """The computational basis state ``|digits>`` — nnz is exactly 1."""
        digits = [int(v) for v in digits]
        if not digits:
            raise WireError("need at least one wire")
        if any(not 0 <= v < dim for v in digits):
            raise GateError(f"digits {digits} out of range for dimension {dim}")
        index = digits_to_index(digits, dim)
        return cls(len(digits), dim, [index], [1.0 + 0.0j], copy=False, validate=False)

    @classmethod
    def from_dense(
        cls, data, dim: int, num_wires: int, *, eps: float = 0.0
    ) -> "SparseState":
        """Compress a flat dense statevector, dropping |amp| <= ``eps``."""
        data = np.asarray(data, dtype=complex).reshape(-1)
        if data.size != dim**num_wires:
            raise GateError(
                f"dense state of length {data.size} does not match "
                f"{num_wires} wires of dimension {dim}"
            )
        live = np.nonzero(np.abs(data) > eps)[0]
        return cls(
            num_wires, dim, live.astype(np.int64), data[live], copy=False, validate=False
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Full basis size ``dim ** num_wires`` (a Python int — never overflows)."""
        return self.dim**self.num_wires

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) amplitudes."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index and amplitude arrays."""
        return int(self.indices.nbytes + self.amplitudes.nbytes)

    @property
    def occupancy(self) -> float:
        """Fraction of the basis carrying amplitude, ``nnz / d^n``."""
        return self.nnz / self.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(d^n,)`` complex statevector."""
        if self.size > MATERIALIZE_LIMIT:
            raise GateError(
                f"register of {self.size} basis states ({self.num_wires} wires of "
                f"dimension {self.dim}) is too large to materialise densely "
                f"(limit {MATERIALIZE_LIMIT} amplitudes); keep it sparse"
            )
        data = np.zeros(self.size, dtype=complex)
        data[self.indices] = self.amplitudes
        return data

    def digit_rows(self) -> np.ndarray:
        """The stored indices decoded to a ``(nnz, num_wires)`` digit matrix."""
        return indices_to_digits(self.indices, self.dim, self.num_wires)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseState(wires={self.num_wires}, dim={self.dim}, "
            f"nnz={self.nnz}, occupancy={self.occupancy:.3g})"
        )


def _permuted(state: SparseState, images: np.ndarray) -> SparseState:
    """``state`` with each index moved to its image under a permutation.

    Amplitudes are carried, never recomputed — the permutation path is
    bit-for-bit identical to the dense engine.  One sort restores the
    sorted-unique invariant (a permutation cannot create duplicates).
    """
    order = np.argsort(images, kind="stable")
    return SparseState(
        state.num_wires,
        state.dim,
        images[order],
        state.amplitudes[order],
        copy=False,
        validate=False,
    )


class SparseBackend(SimulationBackend):
    """Amplitude-map engine: O(nnz) per row, dense only past ``max_occupancy``.

    Dense ndarray inputs are accepted everywhere the other engines accept
    them (compressed on entry, expanded on exit) so the registry treats the
    engine as a drop-in; :class:`SparseState` inputs go through
    :meth:`apply_table_sparse` / :meth:`apply_circuit_sparse` and stay
    sparse end-to-end, which is the only way to touch registers beyond the
    dense limit.
    """

    name = "sparse"

    def __init__(self, max_occupancy: float = 0.25, eps: float = 1e-12):
        max_occupancy = float(max_occupancy)
        if not 0.0 < max_occupancy <= 1.0:
            raise GateError(
                f"max_occupancy must be in (0, 1], got {max_occupancy}"
            )
        self.max_occupancy = max_occupancy
        self.eps = float(eps)
        self._stats = {
            "sparse_applies": 0,
            "perm_segments": 0,
            "unitary_expands": 0,
            "densifies": 0,
            "dense_fallbacks": 0,
            "pruned": 0,
        }

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Application counters: segment gathers, expansions, densifications."""
        return dict(self._stats)

    def reset_stats(self) -> None:
        for key in self._stats:
            self._stats[key] = 0

    # ------------------------------------------------------------------
    # Sparse-native entry points
    # ------------------------------------------------------------------
    def apply_table_sparse(self, state: SparseState, table) -> SparseState:
        """Evolve a :class:`SparseState` through a columnar table.

        Stays sparse unless unitary expansion pushes occupancy past
        ``max_occupancy``, in which case the state densifies mid-run (the
        register must then fit :data:`MATERIALIZE_LIMIT`) and the result is
        re-compressed on exit so the return type is stable.  A register
        whose flat indices overflow ``int64`` (more than ``2^63 - 1`` basis
        states) raises :class:`~repro.exceptions.WireError`: the index
        arithmetic would wrap.
        """
        require_int64_basis(table.dim, table.num_wires, "sparse simulation")
        result = self._run(state, table)
        if isinstance(result, SparseState):
            return result
        return SparseState.from_dense(result, table.dim, table.num_wires, eps=self.eps)

    def apply_circuit_sparse(self, state: SparseState, circuit: QuditCircuit) -> SparseState:
        return self.apply_table_sparse(state, circuit.to_table())

    # ------------------------------------------------------------------
    # Registry interface (dense ndarray in, dense ndarray out)
    # ------------------------------------------------------------------
    def apply_table(self, data, table):
        if isinstance(data, SparseState):
            return self.apply_table_sparse(data, table)
        data = np.asarray(data, dtype=complex)
        if data.ndim > 1:
            flat = data.reshape(data.shape[0], -1)
            columns = [
                self.apply_table(np.ascontiguousarray(flat[:, b]), table)
                for b in range(flat.shape[1])
            ]
            return np.stack(columns, axis=1).reshape(data.shape)
        size = table.dim**table.num_wires
        nnz = int(np.count_nonzero(np.abs(data) > self.eps))
        if nnz > self.max_occupancy * size:
            self._stats["dense_fallbacks"] += 1
            return _DENSE.apply_table(data, table)
        state = SparseState.from_dense(data, table.dim, table.num_wires, eps=self.eps)
        result = self._run(state, table)
        if isinstance(result, SparseState):
            return result.to_dense()
        return result

    def apply_op(self, data, op, dim, num_wires):
        """Single-op path (``Statevector.apply_op``): one-row sparse pass."""
        data = np.asarray(data, dtype=complex)
        if data.ndim > 1:
            flat = data.reshape(data.shape[0], -1)
            columns = [
                self.apply_op(np.ascontiguousarray(flat[:, b]), op, dim, num_wires)
                for b in range(flat.shape[1])
            ]
            return np.stack(columns, axis=1).reshape(data.shape)
        size = dim**num_wires
        nnz = int(np.count_nonzero(np.abs(data) > self.eps))
        if nnz > self.max_occupancy * size:
            self._stats["dense_fallbacks"] += 1
            return _DENSE.apply_op(data, op, dim, num_wires)
        state = SparseState.from_dense(data, dim, num_wires, eps=self.eps)
        if op.is_permutation:
            state = _permuted(state, op.map_indices(state.indices, dim, num_wires))
            self._stats["perm_segments"] += 1
        else:
            state = self._expand_unitary_row(state, op)
        if state.nnz > self.max_occupancy * size:
            return self._densify(state)
        return state.to_dense()

    # ------------------------------------------------------------------
    # Core sparse evolution
    # ------------------------------------------------------------------
    def _run(self, state: SparseState, table):
        """Evolve segment by segment; returns SparseState or a dense array.

        Once densified (occupancy crossover), the remaining segments run on
        the dense array through the dense engine's kernels — the engine is
        total, it just stops being sparse.
        """
        from repro.ir.segment import segment_table

        self._stats["sparse_applies"] += 1
        dim, num_wires = table.dim, table.num_wires
        size = dim**num_wires
        threshold = self.max_occupancy * size
        data = state
        for segment in segment_table(table):
            if isinstance(data, SparseState):
                if segment.kind == "perm":
                    data = _permuted(data, segment.propagate(data.indices))
                    self._stats["perm_segments"] += 1
                else:
                    data = self._expand_unitary_row(data, segment.op())
                    if data.nnz > threshold:
                        data = self._densify(data)
            else:
                data = _DENSE.apply_segment(data, segment, dim, num_wires)
        return data

    def _expand_unitary_row(self, state: SparseState, op) -> SparseState:
        """One controlled-unitary row: expand matched indices into <= d successors."""
        dim, num_wires = state.dim, state.num_wires
        indices, amplitudes = state.indices, state.amplitudes
        if op.controls:
            fired = op.controls_fire_flat(indices, dim, num_wires)
        else:
            fired = np.ones(indices.shape, dtype=bool)
        keep_idx = indices[~fired]
        keep_amp = amplitudes[~fired]
        hit_idx = indices[fired]
        hit_amp = amplitudes[fired]
        if hit_idx.size:
            stride = dim ** (num_wires - 1 - op.target)
            tdig = (hit_idx // stride) % dim
            base = hit_idx - tdig * stride
            matrix = np.asarray(op.gate.matrix(), dtype=complex)
            successors = base[:, None] + np.arange(dim, dtype=np.int64) * stride
            successor_amps = matrix[:, tdig].T * hit_amp[:, None]
            all_idx = np.concatenate([keep_idx, successors.reshape(-1)])
            all_amp = np.concatenate([keep_amp, successor_amps.reshape(-1)])
        else:
            all_idx, all_amp = keep_idx, keep_amp
        unique, inverse = np.unique(all_idx, return_inverse=True)
        merged = np.zeros(unique.size, dtype=complex)
        np.add.at(merged, inverse, all_amp)
        live = np.abs(merged) > self.eps
        self._stats["unitary_expands"] += 1
        self._stats["pruned"] += int(unique.size - np.count_nonzero(live))
        return SparseState(
            num_wires, dim, unique[live], merged[live], copy=False, validate=False
        )

    def _densify(self, state: SparseState) -> np.ndarray:
        self._stats["densifies"] += 1
        return state.to_dense()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SparseBackend max_occupancy={self.max_occupancy}>"


register_backend(SparseBackend())

__all__ = ["MATERIALIZE_LIMIT", "SparseBackend", "SparseState"]
