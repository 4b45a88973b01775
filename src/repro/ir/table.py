"""The columnar compiled-circuit IR: struct-of-arrays gate tables.

A :class:`GateTable` is the compact array form of a
:class:`~repro.qudit.circuit.QuditCircuit`: one int row per operation,
spread over eight numpy columns, with every Python-object payload
(permutation gates, dense unitaries, control predicates, overflow control
lists) interned once into the shared :class:`~repro.ir.pools.PoolSet`.

Row layout (``-1`` marks an absent slot everywhere)::

    opcode   OP_PERM / OP_UNITARY (controlled single-qudit gate)
             or OP_STAR (the |⋆⟩-X±⋆ macro)
    target   target wire
    wire_a   first control wire  — for OP_STAR this is the star wire
    wire_b   second control wire — for OP_STAR the first ordinary control
    pred_a   predicate pool id controlling wire_a (-1 for the star wire)
    pred_b   predicate pool id controlling wire_b
    payload  gate pool id (perm or unitary pool, selected by opcode);
             for OP_STAR the shift sign (+1 / -1)
    extra    overflow pool id for controls beyond the two inline slots

Round-tripping is lossless: ``GateTable.from_circuit(c).to_circuit()``
rebuilds operations that compare equal gate-for-gate (payload, label,
controls, order).  The counting, depth, histogram, inverse and remap
queries all run as column kernels — no per-op Python objects are touched —
which is what :class:`~repro.qudit.circuit.QuditCircuit` delegates to when
a cached table is live.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError, WireError
from repro.ir.pools import PoolSet
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.utils.indexing import require_int64_basis

#: Row opcodes.
OP_PERM = 0
OP_UNITARY = 1
OP_STAR = 2

#: Column names in storage order (one numpy array each).
COLUMNS = ("opcode", "target", "wire_a", "wire_b", "pred_a", "pred_b", "payload", "extra")

_WIRE_DTYPE = np.int32


def encode_op(op: BaseOp, pools: PoolSet) -> Tuple[int, int, int, int, int, int, int, int]:
    """Encode one operation as a row tuple, interning its payloads."""
    if isinstance(op, StarShiftOp):
        ordinary = op.controls
        wire_a, pred_a = op.star_wire, -1
        payload = op.sign
        opcode = OP_STAR
    elif isinstance(op, Operation):
        ordinary = op.controls
        if ordinary:
            wire_a = ordinary[0][0]
            pred_a = pools.preds.intern(ordinary[0][1])
        else:
            wire_a, pred_a = -1, -1
        ordinary = ordinary[1:]
        if op.gate.is_permutation:
            opcode, payload = OP_PERM, pools.perms.intern(op.gate)
        else:
            opcode, payload = OP_UNITARY, pools.unitaries.intern(op.gate)
    else:
        raise GateError(f"cannot encode unknown operation type {type(op).__name__}")

    if ordinary:
        wire_b = ordinary[0][0]
        pred_b = pools.preds.intern(ordinary[0][1])
        rest = ordinary[1:]
    else:
        wire_b, pred_b, rest = -1, -1, ()
    extra = (
        pools.extras.intern(tuple((w, pools.preds.intern(p)) for w, p in rest)) if rest else -1
    )
    return (opcode, op.target, wire_a, wire_b, pred_a, pred_b, payload, extra)


class GateTable:
    """A circuit as eight parallel numpy columns plus interned pools."""

    __slots__ = ("num_wires", "dim", "name", "columns", "pools", "_cache")

    def __init__(
        self,
        num_wires: int,
        dim: int,
        columns: Sequence[np.ndarray],
        pools: PoolSet,
        name: str = "table",
    ):
        self.num_wires = int(num_wires)
        self.dim = int(dim)
        self.name = name
        self.columns = tuple(np.ascontiguousarray(c) for c in columns)
        if len(self.columns) != len(COLUMNS):
            raise GateError(f"a gate table needs {len(COLUMNS)} columns")
        for column in self.columns:
            column.setflags(write=False)
        self.pools = pools
        self._cache: Dict[str, object] = {}

    # Named column accessors ------------------------------------------------
    @property
    def opcode(self) -> np.ndarray:
        return self.columns[0]

    @property
    def target(self) -> np.ndarray:
        return self.columns[1]

    @property
    def wire_a(self) -> np.ndarray:
        return self.columns[2]

    @property
    def wire_b(self) -> np.ndarray:
        return self.columns[3]

    @property
    def pred_a(self) -> np.ndarray:
        return self.columns[4]

    @property
    def pred_b(self) -> np.ndarray:
        return self.columns[5]

    @property
    def payload(self) -> np.ndarray:
        return self.columns[6]

    @property
    def extra(self) -> np.ndarray:
        return self.columns[7]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ops(
        cls,
        ops: Sequence[BaseOp],
        num_wires: int,
        dim: int,
        *,
        name: str = "table",
        pools: Optional[PoolSet] = None,
    ) -> "GateTable":
        pools = pools or PoolSet()
        rows = [encode_op(op, pools) for op in ops]
        if rows:
            matrix = np.asarray(rows, dtype=np.int64)
            columns = [matrix[:, i].astype(_WIRE_DTYPE) for i in range(len(COLUMNS))]
        else:
            columns = [np.zeros(0, dtype=_WIRE_DTYPE) for _ in COLUMNS]
        return cls(num_wires, dim, columns, pools, name=name)

    @classmethod
    def from_circuit(cls, circuit) -> "GateTable":
        """Build (or reuse) the table form of a circuit.

        Delegates to :meth:`~repro.qudit.circuit.QuditCircuit.to_table`, so
        the result is cached on the circuit.
        """
        return circuit.to_table()

    def select(self, keep) -> "GateTable":
        """A new table (sharing pools) with only the rows selected by ``keep``."""
        return GateTable(
            self.num_wires,
            self.dim,
            [column[keep] for column in self.columns],
            self.pools,
            name=self.name,
        )

    def replace_columns(self, **named) -> "GateTable":
        """A new table (sharing pools) with some columns swapped out."""
        columns = list(self.columns)
        for key, value in named.items():
            columns[COLUMNS.index(key)] = np.asarray(value, dtype=_WIRE_DTYPE)
        return GateTable(self.num_wires, self.dim, columns, self.pools, name=self.name)

    # ------------------------------------------------------------------
    # Row-level decoding (the boundary back to the object IR)
    # ------------------------------------------------------------------
    def _decode_row(self, row: Sequence[int]) -> BaseOp:
        opcode, target, wire_a, wire_b, pred_a, pred_b, payload, extra = (int(x) for x in row)
        preds = self.pools.preds
        controls: List[Tuple[int, object]] = []
        if opcode == OP_STAR:
            if wire_b >= 0:
                controls.append((wire_b, preds.predicate(pred_b)))
        else:
            if wire_a >= 0:
                controls.append((wire_a, preds.predicate(pred_a)))
            if wire_b >= 0:
                controls.append((wire_b, preds.predicate(pred_b)))
        if extra >= 0:
            controls.extend((w, preds.predicate(p)) for w, p in self.pools.extras.entry(extra))
        if opcode == OP_STAR:
            return StarShiftOp(wire_a, target, payload, controls)
        gate = (
            self.pools.perms.gate(payload)
            if opcode == OP_PERM
            else self.pools.unitaries.gate(payload)
        )
        return Operation(gate, target, controls)

    def distinct_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """(the distinct rows as one ``(u, 8)`` matrix, row -> distinct-index map).

        Computed once and held by the table.  A lowered table repeats a few
        dozen row forms thousands of times, so a per-row kernel that reads
        only its row's columns (decoding, the structural check) runs over
        ``u`` rows instead of all of them.
        """
        cached = self._cache.get("unique_rows")
        if cached is None:
            rows = np.stack(self.columns, axis=1) if len(self) else np.zeros((0, 8), np.int64)
            uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
            cached = (uniq, inverse.ravel())
            self._cache["unique_rows"] = cached
        return cached

    def unique_ops(self) -> Tuple[List[BaseOp], np.ndarray]:
        """(one op per distinct row, row -> distinct-index map).

        Structurally identical rows share one operation *instance*, so a row
        walk decodes each gate form once and composition looks up one op
        table per distinct row.
        """
        cached = self._cache.get("unique_ops")
        if cached is None:
            uniq, inverse = self.distinct_rows()
            cached = ([self._decode_row(row) for row in uniq], inverse)
            self._cache["unique_ops"] = cached
        return cached

    def to_ops(self) -> List[BaseOp]:
        """Materialise the row sequence as operation objects (shared instances)."""
        ops, inverse = self.unique_ops()
        return [ops[i] for i in inverse.tolist()]

    def to_circuit(self, name: Optional[str] = None):
        """A :class:`~repro.qudit.circuit.QuditCircuit` backed by this table.

        The circuit materialises operation objects only when something
        actually iterates them; counting/depth/inverse queries keep running
        on the columns.
        """
        from repro.qudit.circuit import QuditCircuit

        return QuditCircuit.from_table(self, name=name)

    # ------------------------------------------------------------------
    # Column kernels: counting and structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.columns[0].shape[0])

    def num_ops(self) -> int:
        return len(self)

    @property
    def is_permutation(self) -> bool:
        cached = self._cache.get("is_permutation")
        if cached is None:
            cached = self._cache["is_permutation"] = not bool((self.opcode == OP_UNITARY).any())
        return cached

    def spans(self) -> np.ndarray:
        """Distinct-wire count per row (wires within a row never repeat)."""
        cached = self._cache.get("spans")
        if cached is None:
            spans = 1 + (self.wire_a >= 0).astype(np.int64) + (self.wire_b >= 0).astype(np.int64)
            extra = self.extra
            if (extra >= 0).any():
                lengths = self.pools.extras.lengths()
                spans = spans + np.where(extra >= 0, lengths[np.maximum(extra, 0)], 0)
            cached = spans
            self._cache["spans"] = cached
        return cached

    def two_qudit_count(self) -> int:
        return int((self.spans() == 2).sum())

    def multi_qudit_count(self) -> int:
        return int((self.spans() >= 3).sum())

    def single_qudit_count(self) -> int:
        return int((self.spans() == 1).sum())

    def max_span(self) -> int:
        spans = self.spans()
        return int(spans.max()) if len(self) else 0

    def g_gate_mask(self) -> np.ndarray:
        """Boolean row mask: is the row literally a G-gate for this ``dim``?"""
        cached = self._cache.get("g_gate_mask")
        if cached is None:
            perms = self.pools.perms
            m_perm = self.opcode == OP_PERM
            pay = np.where(m_perm, self.payload, 0)
            transposition = m_perm & perms.is_g_payload()[pay]
            uncontrolled = self.wire_a < 0
            one_control = (self.wire_a >= 0) & (self.wire_b < 0) & (self.extra < 0)
            pa = np.where(self.pred_a >= 0, self.pred_a, 0)
            zero_controlled = one_control & self.pools.preds.is_value0()[pa] & perms.is_x01()[pay]
            cached = transposition & (uncontrolled | zero_controlled)
            self._cache["g_gate_mask"] = cached
        return cached

    def g_gate_count(self) -> int:
        return int(self.g_gate_mask().sum())

    def controlled_g_gate_count(self) -> int:
        """G-gates carrying their single ``|0⟩`` control (the ``|0⟩-X01`` form)."""
        return int((self.g_gate_mask() & (self.wire_a >= 0)).sum())

    def is_g_circuit(self) -> bool:
        return bool(self.g_gate_mask().all())

    def used_wires(self) -> Tuple[int, ...]:
        wires = set(np.unique(self.target).tolist())
        for column in (self.wire_a, self.wire_b):
            wires.update(w for w in np.unique(column).tolist() if w >= 0)
        for eid in np.unique(self.extra).tolist():
            if eid >= 0:
                wires.update(w for w, _ in self.pools.extras.entry(eid))
        return tuple(sorted(wires))

    def targeted_wires(self) -> Tuple[int, ...]:
        return tuple(sorted(np.unique(self.target).tolist()))

    def depth(self) -> int:
        """Greedy as-soon-as-possible depth over the wire columns."""
        frontier = [0] * self.num_wires
        targets = self.target.tolist()
        wires_a = self.wire_a.tolist()
        wires_b = self.wire_b.tolist()
        extras = self.extra.tolist()
        entry = self.pools.extras.entry
        for i, t in enumerate(targets):
            level = frontier[t]
            a = wires_a[i]
            if a >= 0 and frontier[a] > level:
                level = frontier[a]
            b = wires_b[i]
            if b >= 0 and frontier[b] > level:
                level = frontier[b]
            eid = extras[i]
            if eid >= 0:
                for w, _ in entry(eid):
                    if frontier[w] > level:
                        level = frontier[w]
            level += 1
            frontier[t] = level
            if a >= 0:
                frontier[a] = level
            if b >= 0:
                frontier[b] = level
            if eid >= 0:
                for w, _ in entry(eid):
                    frontier[w] = level
        return max(frontier, default=0)

    def label_histogram(self) -> Counter:
        """Histogram keyed exactly like ``QuditCircuit.label_histogram``.

        Labels depend only on (opcode, predicates, payload), so the kernel
        runs one ``np.unique`` over those columns and formats each distinct
        combination once.
        """
        histogram: Counter = Counter()
        if not len(self):
            return histogram
        sub = np.stack([self.opcode, self.pred_a, self.pred_b, self.payload, self.extra], axis=1)
        uniq, counts = np.unique(sub, axis=0, return_counts=True)
        pred_labels = self.pools.preds.labels()
        for row, count in zip(uniq.tolist(), counts.tolist()):
            opcode, pred_a, pred_b, payload, extra = row
            ordered: List[int] = []
            if opcode == OP_STAR:
                key = "X+⋆" if payload > 0 else "X-⋆"
            else:
                pool = self.pools.perms if opcode == OP_PERM else self.pools.unitaries
                key = pool.gate(payload).label
                if pred_a >= 0:
                    ordered.append(pred_a)
            if pred_b >= 0:
                ordered.append(pred_b)
            if extra >= 0:
                ordered.extend(p for _, p in self.pools.extras.entry(extra))
            prefix = "".join(f"|{pred_labels[p]}⟩" for p in ordered)
            histogram[prefix + "-" + key if prefix else key] += count
        return histogram

    # ------------------------------------------------------------------
    # Column kernels: structural transforms
    # ------------------------------------------------------------------
    def inverse(self) -> "GateTable":
        """The adjoint table: rows reversed, payloads inverted, signs flipped."""
        reversed_columns = [column[::-1].copy() for column in self.columns]
        opcode, payload = reversed_columns[0], reversed_columns[6]
        new_payload = payload.copy()
        mask_star = opcode == OP_STAR
        if mask_star.any():
            new_payload[mask_star] = -payload[mask_star]
        for code, pool in ((OP_PERM, self.pools.perms), (OP_UNITARY, self.pools.unitaries)):
            mask = opcode == code
            if mask.any():
                inverse_map = np.array(
                    [pool.inverse_id(g) for g in range(len(pool))], dtype=np.int64
                )
                new_payload[mask] = inverse_map[payload[mask]]
        reversed_columns[6] = new_payload
        return GateTable(
            self.num_wires, self.dim, reversed_columns, self.pools, name=f"{self.name}†"
        )

    def remap_wires(
        self, mapping: Dict[int, int], num_wires: Optional[int] = None
    ) -> "GateTable":
        """Relabel every wire column through ``mapping`` (vectorized gather)."""
        for wire in self.used_wires():
            if wire not in mapping:
                raise WireError(f"wire {wire} missing from remap mapping")
        target_wires = num_wires if num_wires is not None else max(mapping.values()) + 1
        lookup = np.full(self.num_wires + 1, -1, dtype=_WIRE_DTYPE)
        for source, dest in mapping.items():
            if 0 <= source < self.num_wires:
                if not 0 <= dest < target_wires:
                    raise WireError(
                        f"remap sends wire {source} to {dest}, outside {target_wires} wires"
                    )
                lookup[source] = dest
        new_target = lookup[self.target]
        new_a = lookup[self.wire_a]
        new_b = lookup[self.wire_b]
        new_extra = self.extra
        if (self.extra >= 0).any():
            remapped: Dict[int, int] = {}
            for eid in np.unique(self.extra).tolist():
                if eid < 0:
                    continue
                entry = tuple((int(lookup[w]), p) for w, p in self.pools.extras.entry(eid))
                if any(w < 0 for w, _ in entry):
                    raise WireError("remap mapping misses an overflow control wire")
                remapped[eid] = self.pools.extras.intern(entry)
            new_extra = self.extra.copy()
            for eid, new_eid in remapped.items():
                new_extra[self.extra == eid] = new_eid
        out = GateTable(
            target_wires,
            self.dim,
            [
                self.opcode,
                new_target,
                new_a,
                new_b,
                self.pred_a,
                self.pred_b,
                self.payload,
                new_extra,
            ],
            self.pools,
            name=self.name,
        )
        out._check_distinct_wires()
        return out

    def _check_distinct_wires(self) -> None:
        clash = (self.wire_a >= 0) & (
            (self.wire_a == self.target)
            | ((self.wire_b >= 0) & (self.wire_a == self.wire_b))
        )
        clash |= (self.wire_b >= 0) & (self.wire_b == self.target)
        if clash.any():
            row = int(np.nonzero(clash)[0][0])
            raise WireError(f"operation uses a wire more than once: row {row}")
        for i in np.nonzero(self.extra >= 0)[0].tolist():
            op = self._decode_row([column[i] for column in self.columns])
            wires = op.wires()
            if len(set(wires)) != len(wires):  # pragma: no cover - decode validates
                raise WireError(f"operation uses a wire more than once: {wires}")

    # ------------------------------------------------------------------
    # Simulation support
    # ------------------------------------------------------------------
    def _permutation_segment(self):
        """The table's one permutation segment, which both basis-state maps
        walk; raises :class:`~repro.exceptions.GateError` naming the first
        dense-unitary row of any other table."""
        from repro.ir.segment import Segment, segment_table

        segments = segment_table(self)  # cached: a unitary row is its own segment
        unitary = [segment.start for segment in segments if segment.kind != "perm"]
        if unitary:
            label = self.pools.unitaries.gate(int(self.payload[unitary[0]])).label
            raise GateError(
                f"table {self.name!r} row {unitary[0]} applies the dense unitary gate "
                f"{label!r}; basis states only map through permutation "
                "rows — use the statevector simulator for this circuit"
            )
        # An empty table has no segment; an empty one maps every state to itself.
        return segments[0] if segments else Segment(self, 0, 0, "perm")

    def permutation_index_table(self) -> np.ndarray:
        """The table's action on the full flat basis as one gather array.

        The forward gather of the table's one permutation segment
        (:meth:`~repro.ir.segment.Segment.index_table`), composed once and
        interned on the pools, so derived tables share it.
        """
        return self._permutation_segment().index_table()

    def apply_to_indices(self, indices) -> np.ndarray:
        """Images of a *batch* of flat basis indices under the whole table.

        The batched twin of :meth:`permutation_index_table`, and the core of
        the classical simulation path: the indices are checked once and
        pushed through the table's one permutation segment
        (:meth:`~repro.ir.segment.Segment.propagate`), each row as stride
        arithmetic on the ``B`` requested indices — O(rows · B) time and
        never a ``d^n`` table, so it works on registers far beyond any
        statevector (``d^n >= 10^9``) up to ``2^63 - 1`` states; a larger
        register, whose flat indices ``int64`` cannot hold, raises
        :class:`~repro.exceptions.WireError` instead of wrapping.
        """
        segment = self._permutation_segment()
        size = require_int64_basis(
            self.dim, self.num_wires, f"index propagation through {self.name!r}"
        )
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= size):
            raise WireError(
                f"basis index out of range for {self.num_wires} wires of dimension {self.dim}"
            )
        return segment.propagate(indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GateTable(name={self.name!r}, wires={self.num_wires}, dim={self.dim}, "
            f"rows={len(self)}, payloads={len(self.pools.perms)}+{len(self.pools.unitaries)})"
        )


class TableBuilder:
    """Accumulates rows and pre-encoded column blocks into one table.

    Used both by ``GateTable.from_ops`` style conversion (per-op rows) and by
    the template-expansion lowering, which appends whole numpy blocks of
    already-encoded rows at once.
    """

    def __init__(self, num_wires: int, dim: int, name: str = "table", pools=None):
        self.num_wires = num_wires
        self.dim = dim
        self.name = name
        self.pools = pools or PoolSet()
        self._pending: List[Tuple[int, ...]] = []
        self._blocks: List[np.ndarray] = []

    def _flush(self) -> None:
        if self._pending:
            self._blocks.append(np.asarray(self._pending, dtype=np.int64))
            self._pending = []

    def add_op(self, op: BaseOp) -> None:
        self._pending.append(encode_op(op, self.pools))

    def add_block(self, block: np.ndarray) -> None:
        """Append a pre-encoded ``(rows, 8)`` int block (already pool-resolved)."""
        if block.shape[0]:
            self._flush()
            self._blocks.append(block)

    def build(self) -> GateTable:
        self._flush()
        if self._blocks:
            matrix = np.concatenate(self._blocks, axis=0)
            columns = [matrix[:, i].astype(_WIRE_DTYPE) for i in range(len(COLUMNS))]
        else:
            columns = [np.zeros(0, dtype=_WIRE_DTYPE) for _ in COLUMNS]
        return GateTable(self.num_wires, self.dim, columns, self.pools, name=self.name)
