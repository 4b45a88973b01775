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

This is the only module that walks permutation rows, in two ways.

:meth:`Segment.index_table` composes the whole basis with one block kernel.
The segment's rows are cut greedily, in order, into *blocks* that touch at
most ``m`` wires, where ``m`` (:func:`block_width`) is the widest block
whose ``d**m``-entry lookup table fits :data:`BLOCK_TABLE_BYTES`; a row
wider than ``m`` is a block of its own span.  Each distinct block (keyed by
its rows, which fix its wires) is composed once on its own wires: every
row's op maps the block's sub-cube of basis states with
:meth:`~repro.qudit.operations.BaseOp.map_indices` once per distinct
(op, block wires) pair, and the block chains those ``d**m``-entry maps.
The running image of the whole basis is held as ``n`` digit planes of the
narrowest unsigned dtype that holds every digit below ``d``.  A block
encodes its wires' planes into a local index and rewrites only its
targets' planes, with one ``d**m``-entry lookup whose ``uint64`` words pack
the target digits; the flat forward gather is encoded once at the end.  A
one-block segment whose block spans every wire is its own gather, and no
planes are built.  Composition costs ``O(blocks · m · d**n)`` narrow-array
work instead of ``O(rows · d**n)`` ``int64`` gathers, and it builds no
``d**n`` table per operation.

:meth:`Segment.propagate` pushes a batch of flat indices through every row
by stride arithmetic (:meth:`~repro.qudit.operations.BaseOp.map_indices`).
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

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError, WireError
from repro.ir.rewrite import segment_bounds
from repro.ir.table import GateTable
from repro.utils.indexing import digit_matrix

#: Index batches larger than this propagate through :meth:`Segment.propagate`
#: in slices, bounding the transient arrays each row's stride arithmetic
#: allocates to a few chunk-sized int64 buffers regardless of batch size.
INDEX_CHUNK = 1 << 18

#: Byte cap on one block's lookup table, which sets the block width ``m``
#: (:func:`block_width`): a block's lookup holds one ``uint64`` word per
#: local state, ``8 * d**m`` bytes, so 4 KiB allows 2^9, 3^5, 4^4, 5^3 and
#: 6^3 local states.  Wider blocks mean fewer passes over the digit planes
#: but longer, less repetitive blocks to chain row by row.  On lowered
#: ``mct`` (3^7 to 4^10 states, 2-vCPU Xeon VM) caps of 2-4 KiB composed
#: fastest: 6 KiB (3^6, 5^4) was up to 1.9x slower on the small registers,
#: and 1 KiB (4^3, 6^2) up to 6x slower on 4^9 and 4^10.
BLOCK_TABLE_BYTES = 4 * 1024


def block_width(dim: int) -> int:
    """Widest block, in wires, whose ``8 * dim**m``-byte lookup table fits
    :data:`BLOCK_TABLE_BYTES` (at least one wire)."""
    width = 1
    while 8 * dim ** (width + 1) <= BLOCK_TABLE_BYTES:
        width += 1
    return width


def _wire_mask(op, num_wires: int) -> int:
    """Bit mask of the wires ``op`` touches, checked against the register."""
    mask = 0
    for wire in op.wires():
        if not 0 <= wire < num_wires:
            raise WireError(f"wire {wire} out of range for {num_wires} wires")
        mask |= 1 << wire
    return mask


def _cut_blocks(
    rows: Sequence[int], masks: Dict[int, int], width: int
) -> List[Tuple[int, int, int]]:
    """Greedy ``(start, stop, wire mask)`` blocks of at most ``width`` wires.

    ``rows`` holds distinct-op ids and ``masks[u]`` the wire mask of op
    ``u``.  A row that would widen the current block past ``width`` starts
    the next one; a row wider than ``width`` on its own is a block alone.
    """
    blocks: List[Tuple[int, int, int]] = []
    start, wires = 0, 0
    for i, u in enumerate(rows):
        mask = masks[u]
        grown = wires | mask
        if grown != wires and grown.bit_count() > width:
            if wires:
                blocks.append((start, i, wires))
            start, grown = i, mask
            if mask.bit_count() > width:
                blocks.append((i, i + 1, mask))
                start, grown = i + 1, 0
        wires = grown
    if start < len(rows):
        blocks.append((start, len(rows), wires))
    return blocks


def _compose_blocks(ops, rows: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
    """Forward gather of the rows ``rows`` (ids into ``ops``), composed
    block by block over digit planes (see the module docstring)."""
    size = dim**num_wires
    if not rows.size:
        return np.arange(size)
    row_list = rows.tolist()
    masks = {u: _wire_mask(ops[u], num_wires) for u in set(row_list)}
    blocks = _cut_blocks(row_list, masks, block_width(dim))
    strides = dim ** np.arange(num_wires - 1, -1, -1, dtype=np.int64)
    # (op id, block mask) -> the op's map of the block's local states.
    steps: Dict[Tuple[int, int], np.ndarray] = {}

    def local_images(start: int, stop: int, mask: int) -> Tuple[List[int], np.ndarray]:
        """The block's wires and its images of every local state, a local
        state being the block's digits with its lowest wire most
        significant."""
        wires = [wire for wire in range(num_wires) if mask >> wire & 1]
        cube = None  # the block's basis states (other digits 0), sorted
        images = np.arange(dim ** len(wires))
        for u in row_list[start:stop]:
            step = steps.get((u, mask))
            if step is None:
                if cube is None:
                    cube = digit_matrix(dim, len(wires)) @ strides[wires]
                # The op moves only the block's digits: images stay in the cube.
                step = steps[u, mask] = np.searchsorted(
                    cube, ops[u].map_indices(cube, dim, num_wires)
                )
            images = step.take(images)
        return wires, images

    if len(blocks) == 1 and blocks[0][2] == (1 << num_wires) - 1:
        return local_images(*blocks[0])[1]  # a block on every wire: the gather

    # Compose each distinct block once into a lookup: its wires, the dtype
    # its local index needs, and uint64 words packing up to ``per_word``
    # target digits per local state, with the targets each word writes.
    plane_dtype = np.min_scalar_type(dim - 1)
    per_word = 8 // plane_dtype.itemsize
    lookups: Dict[bytes, tuple] = {}
    plan = []
    for start, stop, mask in blocks:
        key = rows[start:stop].tobytes()
        lookup = lookups.get(key)
        if lookup is None:
            wires, images = local_images(start, stop, mask)
            targets = sorted({ops[u].target for u in row_list[start:stop]})
            digits = np.zeros((images.size, -(-len(targets) // per_word) * per_word), plane_dtype)
            for column, target in enumerate(targets):
                digits[:, column] = images // dim ** (len(wires) - 1 - wires.index(target)) % dim
            words = digits.view(np.uint64)
            groups = [
                (targets[lo : lo + per_word], np.ascontiguousarray(words[:, lo // per_word]))
                for lo in range(0, len(targets), per_word)
            ]
            lookup = lookups[key] = (wires, np.min_scalar_type(images.size - 1), groups)
        plan.append(lookup)
    steps.clear()  # free the per-op maps before the planes are allocated

    planes = np.empty((num_wires, size), dtype=plane_dtype)
    for wire in range(num_wires):
        planes[wire].reshape(dim**wire, dim, -1)[...] = np.arange(dim, dtype=plane_dtype)[:, None]
    word = np.empty(size, dtype=np.uint64)
    word_digits = word.view(plane_dtype).reshape(size, per_word)
    index = np.empty(size, dtype=np.intp)
    encoded: Dict[np.dtype, np.ndarray] = {}  # local-index buffer per dtype
    for wires, local_dtype, groups in plan:
        # Encode the block's digits as a local index in the narrowest dtype,
        # then widen it once for the lookups.
        local = encoded.get(local_dtype)
        if local is None:
            local = encoded[local_dtype] = np.empty(size, dtype=local_dtype)
        np.copyto(local, planes[wires[0]])
        for wire in wires[1:]:
            np.multiply(local, dim, out=local)
            np.add(local, planes[wire], out=local)
        np.copyto(index, local)
        for targets, table in groups:
            np.take(table, index, out=word, mode="wrap")  # every index is in range
            for column, target in enumerate(targets):
                np.copyto(planes[target], word_digits[:, column])
    out = planes[0].astype(np.int64)
    for wire in range(1, num_wires):
        np.multiply(out, dim, out=out)
        np.add(out, planes[wire], out=out)
    return out


def _segment_key(table: GateTable, start: int, stop: int, inverse: bool) -> tuple:
    """Content key of a row range: a digest of the raw rows plus register shape.

    Rows reference pool ids, and the cache lives on the pool set itself, so
    equal keys imply identical semantics for every table sharing the pools.
    The key lives as long as the gather it names, so it holds a SHA-256
    digest of the rows rather than the rows themselves (32 bytes per row,
    which on a lowered circuit outweigh the ``8·dⁿ``-byte gather).  SHA-256
    as the compile cache's keys: on a 2-vCPU Xeon VM with SHA extensions it
    hashed the 392 KB of rows of lowered ``mct`` d=3 k=8 in 0.28 ms, BLAKE2b
    in 0.74 ms, against about 50 ms to compose them.
    """
    block = np.stack([column[start:stop] for column in table.columns])
    return (table.num_wires, table.dim, bool(inverse), hashlib.sha256(block).digest())


def compose_gather(
    table: GateTable, start: int, stop: int, *, inverse: bool = False
) -> np.ndarray:
    """Compose rows ``[start, stop)`` into one whole-basis index table.

    All rows in the range must be permutations (a dense-unitary row's
    ``map_indices`` raises :class:`~repro.exceptions.GateError`).  The result is
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
        """The forward gather, composed block by block over digit planes."""
        ops, row_map = self.table.unique_ops()
        return _compose_blocks(
            ops, row_map[self.start : self.stop], self.table.dim, self.table.num_wires
        )

    def _gather(self, inverse: bool) -> np.ndarray:
        if self._keys is None:  # (forward, inverse), sharing the row digest
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


__all__ = [
    "BLOCK_TABLE_BYTES",
    "INDEX_CHUNK",
    "Segment",
    "block_width",
    "compose_gather",
    "segment_table",
]
