"""Pluggable vectorized simulation engines.

The dense simulators used to iterate over all ``d^n`` basis indices in pure
Python per gate, which made verification of lowered circuits (thousands of
G-gates) take minutes.  This module replaces that with a small registry of
*backends*, each of which applies one operation to the amplitude data with
fully vectorized numpy — no per-index Python loop anywhere:

* ``dense`` — keeps the state as a flat array; a permutation segment is a
  single scatter through its composed index table, a controlled unitary is
  one ``einsum`` over the target-axis blocks masked by the vectorized
  control predicate.  ``DenseBackend(memory_budget=...)`` runs the same
  kernels tile by tile and spills arrays above the budget to ``np.memmap``
  scratch.
* ``sparse`` (:mod:`repro.sim.sparse`) — evolves only the nonzero
  amplitudes, for registers far beyond the dense limit.

Further engines plug in through :func:`register_backend`.

Every engine accepts data whose *leading* axis is the flat basis index of
size ``dim ** num_wires``; trailing axes are batch dimensions carried through
unchanged.  The unitary builder exploits this to evolve all ``d^n`` columns of
an identity matrix simultaneously.
"""

from __future__ import annotations

import mmap
import os
import re
import tempfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.operations import BaseOp, Operation


class SimulationBackend:
    """Interface shared by every simulation engine.

    Subclasses implement :meth:`apply_table` and the per-op kernels
    :meth:`_apply_permutation` and :meth:`_apply_unitary` on ndarrays whose
    leading axis enumerates the flat basis (trailing axes are batch
    dimensions); each returns a new array of the same shape.
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
        """Apply a columnar :class:`~repro.ir.table.GateTable` to ``data``."""
        raise NotImplementedError

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


_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}
_BUDGET_PATTERN = re.compile(r"^(\d+)\s*([kmg]?)(i?b)?$")


def parse_memory_budget(text) -> int:
    """Parse a byte count like ``"8M"``, ``"512k"``, ``"1GiB"`` or ``"4096"``.

    Suffixes are binary multiples (K=KiB, M=MiB, G=GiB), case-insensitive,
    with an optional trailing ``b``/``ib``.  Plain integers pass through; a
    ``bool`` is refused, not read as 0 or 1 bytes.
    """
    if isinstance(text, bool):
        raise GateError(f"memory budget must be a byte count or a size string, got {text!r}")
    if isinstance(text, (int, np.integer)):
        value = int(text)
    else:
        match = _BUDGET_PATTERN.match(str(text).strip().lower())
        if match is None:
            raise GateError(
                f"cannot parse memory budget {text!r} (expected e.g. 8M, 512K, 4096)"
            )
        value = int(match.group(1)) * _UNITS[match.group(2)]
    if value < 1:
        raise GateError(f"memory budget must be positive, got {text!r}")
    return value


def _scatter(data: np.ndarray, forward: np.ndarray) -> np.ndarray:
    """``out[forward] = data``: basis state ``i`` moves to ``forward[i]``."""
    out = np.empty_like(data)
    out[forward] = data
    return out


class DenseBackend(SimulationBackend):
    """Flat-index engine, optionally tiled under a byte ``memory_budget``.

    :meth:`apply_table` is segment-fused: the rows are partitioned into
    maximal permutation-only runs separated by dense-unitary rows
    (:func:`repro.ir.segment.segment_table`), and each permutation run is
    applied as ONE composed whole-basis gather — a table of thousands of
    permutation rows between two unitaries costs one scatter, not
    thousands.  Composed tables are interned on the pools, so repeated
    applications (and derived tables) reuse them.  A unitary row is one
    ``np.einsum("ij,ajbk->aibk", ...)`` over the ``(pre, d, post, B)`` cube,
    masked by its control predicate.  Integer index composition is exact,
    so fusing never changes a single bit of the result.

    With ``memory_budget=None`` (the registered ``dense`` instance) every
    kernel works on whole arrays.  With a budget (bytes, or an ``"8M"``-style
    string, see :func:`parse_memory_budget`) the same kernels run tile by
    tile, **bit-for-bit** equal to the unbudgeted engine:

    * a permutation segment is gathered through its composed *inverse*
      table, ``out[j] = data[inv[j]]``, a tile of rows at a time (integer
      gathers are exact, and gather-form writes are sequential);
    * a unitary row runs the same einsum over ``(a, b)`` blocks of the cube
      — with the default non-optimized einsum every output element is the
      same fixed-order sum over the gate index whatever the block extents;
    * an output array larger than the budget is an ``np.memmap`` over an
      unlinked scratch file; each of its pages is flushed and dropped from
      RAM (``madvise(MADV_DONTNEED)``) once the tile that completes it is
      written, and the input's pages once per sweep.

    The budget bounds the amplitude arrays these kernels allocate.  It does
    not bound composition: each permutation segment's forward and inverse
    gathers (``16·dⁿ`` bytes together, interned on the table's pools) and
    the block kernel's working set while it composes them (``n`` digit
    planes of one byte per state below d=257, plus three ``8·dⁿ``-byte
    buffers; see :mod:`repro.ir.segment`) sit outside it.  On ``mct`` d=3
    k=10 lowered (3^11 states, batch 1; a 2-vCPU Xeon VM) the whole process
    peaked at 47 MiB unbudgeted and at 51 MiB under an 8 MiB budget.
    The minimum tile is one basis row (``B`` amplitudes) for gathers and
    one ``(1, d, 1, B)`` pencil for unitaries; smaller budgets still
    simulate correctly, without the residency bound for that one tile.
    """

    name = "dense"

    def __init__(self, memory_budget=None):
        self.memory_budget = (
            None if memory_budget is None else parse_memory_budget(memory_budget)
        )

    def apply_table(self, data: np.ndarray, table) -> np.ndarray:
        """Apply a columnar :class:`~repro.ir.table.GateTable`, segment by segment."""
        from repro.ir.segment import segment_table

        for segment in segment_table(table):
            data = self.apply_segment(data, segment, table.dim, table.num_wires)
        return data

    def apply_segment(self, data: np.ndarray, segment, dim: int, num_wires: int) -> np.ndarray:
        """Apply one :class:`~repro.ir.segment.Segment` of a table.

        Without a budget a permutation segment is a scatter through its
        forward gather; only the budgeted engine composes the inverse one,
        so an unbudgeted segment takes one slot of the pools' gather cache.
        """
        if segment.kind != "perm":
            return self._apply_unitary(data, segment.op(), dim, num_wires)
        if self.memory_budget is None:
            return _scatter(data, segment.index_table())
        return self._gather_tiled(data, segment.inverse_index_table())

    def _apply_permutation(self, data, op, dim, num_wires):
        forward = op.permutation_table(dim, num_wires)
        if self.memory_budget is None:
            return _scatter(data, forward)
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(forward.size)
        return self._gather_tiled(data, inverse)

    def _apply_unitary(self, data, op, dim, num_wires):
        matrix = op.gate.matrix()
        pre = dim**op.target
        post = dim ** (num_wires - 1 - op.target)
        cube = data.reshape(pre, dim, post, -1)
        mask = op.control_mask(dim, num_wires, flat=True).reshape(pre, dim, post, 1)

        def rotate(a: slice, b: slice) -> np.ndarray:
            block = cube[a, :, b, :]
            rotated = np.einsum("ij,ajbk->aibk", matrix, block)
            return np.where(mask[a, :, b, :], rotated, block)

        a_step, b_step = pre, post
        if self.memory_budget is not None:
            # A block's working set is ~3x its size (input view, rotated,
            # where); the minimum grain is one (1, dim, 1, batch) pencil.
            cell = dim * cube.shape[3] * data.dtype.itemsize
            block_budget = max(self.memory_budget // 3, 1)
            a_step = max(1, block_budget // max(post * cell, 1))
            b_step = post if a_step > 1 else max(1, block_budget // cell)
        if a_step >= pre and b_step >= post:  # one block: no copy of the result
            return rotate(slice(None), slice(None)).reshape(data.shape)
        out = self._alloc(data.shape, data.dtype)
        cube_out = out.reshape(pre, dim, post, -1)
        slab = out.nbytes // pre  # bytes per index of the cube's first axis
        for a0 in range(0, pre, a_step):
            a1 = min(a0 + a_step, pre)
            for b0 in range(0, post, b_step):
                b = slice(b0, b0 + b_step)
                cube_out[a0:a1, :, b, :] = rotate(slice(a0, a1), b)
            self._drop_pages(out, a0 * slab, a1 * slab)
        self._drop_pages(data)
        return out

    # ------------------------------------------------------------------
    # Tiling under a budget
    # ------------------------------------------------------------------
    def _gather_tiled(self, data: np.ndarray, inverse_gather: np.ndarray) -> np.ndarray:
        """Gather form ``out[j] = data[inverse_gather[j]]``, one tile at a time.

        A tile holds as many basis rows as let one input tile and one output
        tile fit the budget.
        """
        out = self._alloc(data.shape, data.dtype)
        row_bytes = data.dtype.itemsize * (
            int(np.prod(data.shape[1:], dtype=np.int64)) if data.ndim > 1 else 1
        )
        rows = data.shape[0]
        step = max(1, min(rows, self.memory_budget // max(2 * row_bytes, 1)))
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            out[lo:hi] = data[inverse_gather[lo:hi]]
            self._drop_pages(out, lo * row_bytes, hi * row_bytes)
        self._drop_pages(data)
        return out

    def _alloc(self, shape, dtype) -> np.ndarray:
        """An output array: RAM when it fits the budget, memmap scratch else.

        The scratch file is unlinked immediately (the mapping keeps it
        alive), so nothing leaks even on a crashed run.
        """
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if nbytes <= self.memory_budget:
            return np.empty(shape, dtype=dtype)
        fd, path = tempfile.mkstemp(prefix="repro-dense-", suffix=".scratch")
        os.close(fd)
        try:
            out = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
        finally:
            os.unlink(path)
        return out

    @staticmethod
    def _drop_pages(array, start: int = 0, stop: Optional[int] = None) -> None:
        """Best-effort: flush the pages of a memmap that bytes ``[start,
        stop)`` (by default the whole mapping) complete, and evict them.

        Offsets count from the start of the mapping, where an :meth:`_alloc`
        scratch array begins.  Tiles are written in order, so a page that
        the next tile still writes into is left for that tile: each page is
        flushed (a synchronous ``msync``) once, not once per tile.
        """
        raw = getattr(array, "_mmap", None)
        if raw is None:
            return
        end = len(raw) if stop is None or stop >= len(raw) else stop - stop % mmap.PAGESIZE
        start -= start % mmap.PAGESIZE
        if end <= start:
            return
        try:
            raw.flush(start, end - start)
            raw.madvise(mmap.MADV_DONTNEED, start, end - start)
        except (AttributeError, OSError, ValueError):  # pragma: no cover - platform
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DenseBackend memory_budget={self.memory_budget}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
BackendLike = Union[str, SimulationBackend, None]

_REGISTRY: Dict[str, SimulationBackend] = {}


def register_backend(backend, *, name: Optional[str] = None) -> SimulationBackend:
    """Register a backend instance (or class) under ``name`` and return it."""
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, SimulationBackend):
        raise GateError(f"{backend!r} is not a SimulationBackend")
    registered = name or instance.name
    _REGISTRY[registered] = instance
    return instance


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op when absent)."""
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered simulation backend."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: BackendLike = None) -> SimulationBackend:
    """Resolve a backend name or instance; ``None`` is ``"dense"``."""
    if backend is None:
        backend = "dense"
    if isinstance(backend, SimulationBackend):
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise GateError(
            f"unknown simulation backend {backend!r}; available: {available_backends()}"
        ) from None


register_backend(DenseBackend)
