"""Whole-circuit gather composition over maximal permutation segments.

PR 5 showed that composing a *permutation-only* table's rows into one
whole-basis index table turns thousands of per-op gathers into a single
gather.  This module generalises that to **any** table: the rows are
partitioned into maximal permutation-only runs separated by dense-unitary
rows (:func:`repro.ir.rewrite.segment_bounds`), and each permutation run is
composed into one index table.  A mixed circuit with ``u`` unitary rows then
simulates as at most ``u + 1`` fused gathers plus ``u`` einsum applications,
regardless of how many thousand permutation rows it contains.

Composed arrays are interned in the table's
:class:`~repro.ir.pools.SegmentGatherCache` keyed by the segment's row
content, so derived tables (``select``/``inverse`` twins, re-lowered
copies) and repeated simulate calls all share one composition per distinct
segment.

This is the only module that walks permutation rows, in two ways:
:meth:`Segment.index_table` composes the whole basis (one op table,
:meth:`~repro.qudit.operations.BaseOp.permutation_table`, per distinct row
and one gather per row), and :meth:`Segment.propagate` pushes a batch of
flat indices through every row by stride arithmetic
(:meth:`~repro.qudit.operations.BaseOp.map_indices`).
``GateTable.permutation_index_table``, :func:`compose_gather` and the dense
engine read the first; ``GateTable.apply_to_indices`` and the sparse engine
run the second.

Conventions (matching ``BaseOp.permutation_table``): the *forward* table
``g`` maps basis state ``i`` to its image ``g[i]``, so a statevector evolves
by scatter ``new[g] = old``.  The *inverse* table is the gather form
``new[j] = old[g_inv[j]]`` — sequential writes, which is what the dense
engine tiles over under a memory budget.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.ir.rewrite import segment_bounds
from repro.ir.table import GateTable

#: Index batches larger than this propagate through :meth:`Segment.propagate`
#: in slices, bounding the transient arrays each row's stride arithmetic
#: allocates to a few chunk-sized int64 buffers regardless of batch size.
INDEX_CHUNK = 1 << 18


def _segment_key(table: GateTable, start: int, stop: int, inverse: bool) -> tuple:
    """Content key of a row range: the raw rows plus register shape.

    Rows reference pool ids, and the cache lives on the pool set itself, so
    equal keys imply identical semantics for every table sharing the pools.
    """
    block = np.stack([column[start:stop] for column in table.columns])
    return (table.num_wires, table.dim, bool(inverse), block.tobytes())


def compose_gather(
    table: GateTable, start: int, stop: int, *, inverse: bool = False
) -> np.ndarray:
    """Compose rows ``[start, stop)`` into one whole-basis index table.

    All rows in the range must be permutations (a dense-unitary row's op
    table raises :class:`~repro.exceptions.GateError`).  The result is
    read-only and interned in ``table.pools.segments``; the inverse direction
    is derived from the (cached) forward table by one scatter, so requesting
    both costs one composition.
    """
    return Segment(table, start, stop, "perm")._gather(inverse)


class Segment:
    """One maximal run of table rows applied as a single fused unit.

    ``kind`` is ``"perm"`` (a run of permutation rows, applied as one
    composed gather) or ``"unitary"`` (a single dense-unitary row, applied
    through the engine's einsum kernel).  A ``"perm"`` segment builds its
    content keys (forward and inverse) once; the gathers themselves stay in
    the pools' bounded cache only.
    """

    __slots__ = ("table", "start", "stop", "kind", "_keys")

    def __init__(self, table: GateTable, start: int, stop: int, kind: str):
        self.table = table
        self.start = int(start)
        self.stop = int(stop)
        self.kind = kind
        self._keys = None

    def propagate(self, indices) -> np.ndarray:
        """Images of a batch of flat basis indices under the segment's rows.

        Each row is stride arithmetic on the ``B`` indices
        (:meth:`~repro.qudit.operations.BaseOp.map_indices`, which refuses a
        dense-unitary row): O(rows · B) time, never a ``d^n`` array, and
        batches above :data:`INDEX_CHUNK` run in slices.  The indices are not
        range checked.
        """
        ops, row_map = self.table.unique_ops()
        row_ops = [ops[u] for u in row_map[self.start : self.stop].tolist()]
        dim, num_wires = self.table.dim, self.table.num_wires
        flat = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = np.empty_like(flat)
        for lo in range(0, flat.size, INDEX_CHUNK):
            chunk = flat[lo : lo + INDEX_CHUNK]
            for op in row_ops:
                chunk = op.map_indices(chunk, dim, num_wires)
            out[lo : lo + INDEX_CHUNK] = chunk
        return out.reshape(np.shape(indices))

    def _compose(self) -> np.ndarray:
        """The forward gather: one op table per distinct row, one gather per row."""
        ops, row_map = self.table.unique_ops()
        rows = row_map[self.start : self.stop]
        dim, num_wires = self.table.dim, self.table.num_wires
        op_tables = {
            u: ops[u].permutation_table(dim, num_wires) for u in np.unique(rows).tolist()
        }
        out = np.arange(dim**num_wires)
        for u in rows.tolist():
            out = op_tables[u][out]
        return out

    def _gather(self, inverse: bool) -> np.ndarray:
        if self._keys is None:  # (forward, inverse), sharing the row bytes
            forward = _segment_key(self.table, self.start, self.stop, False)
            self._keys = (forward, (*forward[:2], True, forward[3]))

        def build() -> np.ndarray:
            if inverse:
                forward = self._gather(False)
                out = np.empty_like(forward)
                out[forward] = np.arange(forward.size)
            else:
                out = self._compose()
            out.setflags(write=False)
            return out

        return self.table.pools.segments.intern(self._keys[inverse], build)

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def index_table(self) -> np.ndarray:
        """Forward composed table: basis state ``i`` maps to ``table[i]``."""
        return self._gather(False)

    def inverse_index_table(self) -> np.ndarray:
        """Gather form: output amplitude ``j`` pulls from ``table[j]``."""
        return self._gather(True)

    def op(self):
        """The decoded operation of a single-row (unitary) segment."""
        if self.num_rows != 1:
            raise GateError(f"segment spans {self.num_rows} rows; op() needs exactly one")
        ops, row_map = self.table.unique_ops()
        return ops[int(row_map[self.start])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment({self.kind}, rows=[{self.start}, {self.stop}))"


def segment_table(table: GateTable) -> Tuple[Segment, ...]:
    """Partition ``table`` into maximal fused segments (cached on the table).

    A permutation-only table yields exactly one ``"perm"`` segment spanning
    every row; an empty table yields no segments.
    """
    cached = table._cache.get("segments")
    if cached is None:
        segments: List[Segment] = [
            Segment(table, start, stop, "perm" if is_perm else "unitary")
            for start, stop, is_perm in segment_bounds(table)
        ]
        cached = tuple(segments)
        table._cache["segments"] = cached
    return cached


__all__ = ["INDEX_CHUNK", "Segment", "compose_gather", "segment_table"]
