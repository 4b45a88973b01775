"""Memory-tiled streaming simulation: statevectors larger than the budget.

The ``streaming`` backend applies each fused segment of a circuit
tile-by-tile over the ``(d^n,)`` or ``(d^n, B)`` amplitude array under an
explicit ``memory_budget`` (bytes).  Arrays that fit the budget live in RAM;
anything larger is allocated as an ``np.memmap`` over an unlinked scratch
file, and written tiles are flushed and dropped from the page cache
(``madvise(MADV_DONTNEED)``) as the sweep advances — peak residency stays
near the budget while the statevector itself can exceed RAM.

Results are **bit-for-bit** equal to the ``dense`` engine:

* permutation segments are applied in gather form ``out[j] = in[inv[j]]``
  through the composed *inverse* segment table
  (:meth:`repro.ir.segment.Segment.inverse_index_table`) — integer
  composition and gather are exact, and gather-form writes are sequential,
  which is what makes tiling natural;
* unitary rows run the same ``np.einsum("ij,ajbk->aibk", ...)`` contraction
  as the dense engine over ``(a, b)`` blocks of the ``(pre, d, post, B)``
  cube — with the default non-optimized einsum every output element is the
  same fixed-order sum over the gate index regardless of block extents, so
  blocking does not change a single ulp.

The minimum tile is one basis row (``B`` amplitudes) for gathers and one
``(1, d, 1, B)`` pencil for unitaries; budgets smaller than that still
simulate correctly, just without the residency bound for the single tile.
"""

from __future__ import annotations

import mmap
import os
import re
import tempfile

import numpy as np

from repro.exceptions import GateError
from repro.sim.backend import SimulationBackend, register_backend

#: Default per-array budget: small enough to exercise tiling on the large
#: lowered circuits, large enough that every test-sized state stays in RAM.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}
_BUDGET_PATTERN = re.compile(r"^(\d+)\s*([kmg]?)(i?b)?$")


def parse_memory_budget(text) -> int:
    """Parse a byte count like ``"8M"``, ``"512k"``, ``"1GiB"`` or ``"4096"``.

    Suffixes are binary multiples (K=KiB, M=MiB, G=GiB), case-insensitive,
    with an optional trailing ``b``/``ib``.  Plain integers pass through.
    """
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


class StreamingBackend(SimulationBackend):
    """Tile-by-tile engine with an explicit byte budget per working array."""

    name = "streaming"

    def __init__(self, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.memory_budget = parse_memory_budget(memory_budget)

    # ------------------------------------------------------------------
    # Scratch allocation and residency control
    # ------------------------------------------------------------------
    def _alloc(self, shape, dtype) -> np.ndarray:
        """An output array: RAM when it fits the budget, memmap scratch else.

        The scratch file is unlinked immediately (the mapping keeps it
        alive), so nothing leaks even on a crashed run.
        """
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if nbytes <= self.memory_budget:
            return np.empty(shape, dtype=dtype)
        fd, path = tempfile.mkstemp(prefix="repro-streaming-", suffix=".scratch")
        os.close(fd)
        try:
            out = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
        finally:
            os.unlink(path)
        return out

    @staticmethod
    def _drop_pages(array) -> None:
        """Best-effort: flush a memmap's dirty pages and evict them from RAM."""
        raw = getattr(array, "_mmap", None)
        if raw is None:
            return
        try:
            array.flush()
            raw.madvise(mmap.MADV_DONTNEED)
        except (AttributeError, OSError, ValueError):  # pragma: no cover - platform
            pass

    def _tile_rows(self, total_rows: int, row_bytes: int) -> int:
        """Rows per tile so one input tile + one output tile fit the budget."""
        return max(1, min(total_rows, self.memory_budget // max(2 * row_bytes, 1)))

    # ------------------------------------------------------------------
    # Fused-segment kernels
    # ------------------------------------------------------------------
    def _permute_tiled(self, data: np.ndarray, inverse_gather: np.ndarray) -> np.ndarray:
        """Gather form ``out[j] = data[inverse_gather[j]]``, one tile at a time."""
        out = self._alloc(data.shape, data.dtype)
        row_bytes = data.dtype.itemsize * (
            int(np.prod(data.shape[1:], dtype=np.int64)) if data.ndim > 1 else 1
        )
        step = self._tile_rows(data.shape[0], row_bytes)
        for lo in range(0, data.shape[0], step):
            out[lo : lo + step] = data[inverse_gather[lo : lo + step]]
            self._drop_pages(out)
        self._drop_pages(data)
        return out

    def _unitary_tiled(self, data: np.ndarray, op, dim: int, num_wires: int) -> np.ndarray:
        """The dense einsum kernel over ``(a, b)`` blocks of the state cube."""
        matrix = op.gate.matrix()
        pre = dim**op.target
        post = dim ** (num_wires - 1 - op.target)
        out = self._alloc(data.shape, data.dtype)
        cube_in = data.reshape(pre, dim, post, -1)
        cube_out = out.reshape(pre, dim, post, -1)
        batch = cube_in.shape[3]
        mask = op.control_mask(dim, num_wires, flat=True).reshape(pre, dim, post, 1)
        # A block's working set is ~3x its size (input view, rotated, where);
        # the minimum grain is one (1, dim, 1, batch) pencil.
        cell = dim * batch * data.dtype.itemsize
        block_budget = max(self.memory_budget // 3, 1)
        a_step = max(1, block_budget // max(post * cell, 1))
        b_step = post if a_step > 1 else max(1, block_budget // cell)
        for a0 in range(0, pre, a_step):
            a1 = min(a0 + a_step, pre)
            for b0 in range(0, post, b_step):
                b1 = min(b0 + b_step, post)
                block = cube_in[a0:a1, :, b0:b1, :]
                rotated = np.einsum("ij,ajbk->aibk", matrix, block)
                cube_out[a0:a1, :, b0:b1, :] = np.where(
                    mask[a0:a1, :, b0:b1, :], rotated, block
                )
            self._drop_pages(out)
        self._drop_pages(data)
        return out

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------
    def apply_table(self, data: np.ndarray, table) -> np.ndarray:
        from repro.ir.segment import segment_table

        for segment in segment_table(table):
            if segment.kind == "perm":
                data = self._permute_tiled(data, segment.inverse_index_table())
            else:
                data = self._unitary_tiled(data, segment.op(), table.dim, table.num_wires)
        return data

    # Per-op path (Statevector.apply_op).
    def _apply_permutation(self, data, op, dim, num_wires):
        forward = op.permutation_table(dim, num_wires)
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(forward.size)
        return self._permute_tiled(data, inverse)

    def _apply_unitary(self, data, op, dim, num_wires):
        return self._unitary_tiled(data, op, dim, num_wires)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StreamingBackend budget={self.memory_budget}>"


register_backend(StreamingBackend())

__all__ = ["DEFAULT_MEMORY_BUDGET", "StreamingBackend", "parse_memory_budget"]
