"""Table-native peephole rewrites (the columnar form of ``repro.passes``).

Each kernel consumes a :class:`~repro.ir.table.GateTable` and returns a new
one sharing the same pools, implementing exactly the semantics of the
object-level passes in :mod:`repro.passes.optimize` — the two paths are
gate-for-gate identical, which the test suite asserts:

* :func:`drop_identities` — one vectorized mask over the payload/predicate
  annotation flags;
* :func:`cancel_adjacent_inverses` — numpy builds row signatures and
  per-wire previous/next row links, then a heap replays the greedy sweep
  touching only the rows a cancellation affects, so its Python work scales
  with the cancellations, not with the rows;
* :func:`fuse_single_qudit` — a single linear sweep with a per-wire
  last-touch index, composing payloads through the interned pools.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

import numpy as np

from repro.ir.table import OP_PERM, OP_STAR, OP_UNITARY, GateTable


def segment_bounds(table: GateTable) -> List[tuple]:
    """``(start, stop, is_permutation)`` runs splitting the rows at unitary ops.

    One vectorized pass over the opcode column: every ``OP_UNITARY`` row is
    its own single-row run, and the maximal stretches between them (``OP_PERM``
    and ``OP_STAR`` rows — both permutations of the computational basis) are
    permutation runs.  The simulation layer composes each permutation run
    into one whole-basis gather (:mod:`repro.ir.segment`).
    """
    bounds: List[tuple] = []
    cursor = 0
    for row in np.flatnonzero(table.opcode == OP_UNITARY).tolist():
        if row > cursor:
            bounds.append((cursor, row, True))
        bounds.append((row, row + 1, False))
        cursor = row + 1
    if cursor < len(table):
        bounds.append((cursor, len(table), True))
    return bounds


def drop_identities(table: GateTable) -> GateTable:
    """Remove rows that act as the identity on every basis state.

    Mirrors ``DropIdentities``: only controlled-gate rows are candidates
    (star rows never are); a row is dropped when its payload is the identity
    or when a control predicate that can never fire precedes any predicate
    that is invalid for this ``dim`` (invalid predicates keep the row for the
    simulator to reject, exactly like the object pass's ``GateError`` branch).
    """
    n = len(table)
    if not n:
        return table
    preds = table.pools.preds
    never = preds.never_fires(table.dim)
    invalid = preds.invalid_for(table.dim)
    m_gate = table.opcode != OP_STAR

    pa = np.where(table.pred_a >= 0, table.pred_a, 0)
    pb = np.where(table.pred_b >= 0, table.pred_b, 0)
    has_a = table.wire_a >= 0
    has_b = table.wire_b >= 0
    # Position of the first never-firing / first invalid predicate, scanning
    # the controls in order (inline slot a, slot b, then the overflow list);
    # ``any(...)`` in the object pass stops at whichever comes first.
    big = np.iinfo(np.int64).max
    first_never = np.where(has_a & never[pa], 0, np.where(has_b & never[pb], 1, big))
    first_invalid = np.where(has_a & invalid[pa], 0, np.where(has_b & invalid[pb], 1, big))
    for i in np.nonzero(table.extra >= 0)[0].tolist():
        if first_never[i] != big or first_invalid[i] != big:
            continue
        for position, (_, pid) in enumerate(table.pools.extras.entry(int(table.extra[i])), 2):
            if never[pid]:
                first_never[i] = position
                break
            if invalid[pid]:
                first_invalid[i] = position
                break
    dead_controls = m_gate & (first_never < first_invalid)

    m_perm = table.opcode == OP_PERM
    m_unitary = table.opcode == OP_UNITARY
    identity_payload = (
        m_perm & table.pools.perms.is_identity()[np.where(m_perm, table.payload, 0)]
    ) | (m_unitary & table.pools.unitaries.is_identity()[np.where(m_unitary, table.payload, 0)])
    drop = dead_controls | (m_gate & identity_payload & (first_invalid == big))
    if not drop.any():
        return table
    return table.select(~drop)


def _row_wires(table: GateTable, i: int, targets, wires_a, wires_b, extras) -> List[int]:
    wires = [targets[i]]
    if wires_a[i] >= 0:
        wires.append(wires_a[i])
    if wires_b[i] >= 0:
        wires.append(wires_b[i])
    if extras[i] >= 0:
        wires.extend(w for w, _ in table.pools.extras.entry(extras[i]))
    return wires


#: Radix products at or above this renumber the partial row key densely first,
#: so packing the signature columns never overflows int64.
_PACK_LIMIT = 1 << 62


def _row_incidences(table: GateTable) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, wires)``: every row's wires, row-major, in ``_row_wires`` order.

    Row ``i`` owns incidences ``starts[i]:starts[i + 1]`` (target, control
    slot a, control slot b, then its overflow list).  Rows with equal wire
    columns therefore list the same wires in the same order.
    """
    spans = table.spans()
    starts = np.zeros(len(table) + 1, dtype=np.int64)
    np.cumsum(spans, out=starts[1:])
    wires = np.empty(int(starts[-1]), dtype=np.int64)
    head = starts[:-1]
    wires[head] = table.target
    has_a = table.wire_a >= 0
    wires[(head + 1)[has_a]] = table.wire_a[has_a]
    has_b = table.wire_b >= 0
    slot_b = head + 1 + has_a
    wires[slot_b[has_b]] = table.wire_b[has_b]
    overflow = np.flatnonzero(table.extra >= 0)
    if overflow.size:
        slot_x = slot_b + has_b
        eids = table.extra[overflow]
        for eid in np.unique(eids).tolist():
            entry = np.asarray([w for w, _ in table.pools.extras.entry(eid)], dtype=np.int64)
            rows = overflow[eids == eid]
            wires[slot_x[rows][:, None] + np.arange(entry.size)] = entry
    return starts, wires


def _row_signatures(table: GateTable) -> Tuple[np.ndarray, np.ndarray]:
    """``(sig, inv_sig)``: row ``j`` undoes row ``i`` structurally iff ``inv_sig[j] == sig[i]``.

    Both pack the opcode, wire, predicate and overflow columns into one int64
    key, then append a payload key: the structural id for permutations (the
    inverse's id in ``inv_sig``), the sign for star rows (negated in
    ``inv_sig``) and nothing for dense unitaries, whose inverse test is
    numeric and left to :meth:`~repro.ir.pools.UnitaryGatePool.cancels`.
    """
    opcode = table.opcode.astype(np.int64)
    key = opcode
    span = 3
    structure = (table.target, table.wire_a, table.wire_b, table.pred_a, table.pred_b, table.extra)
    for column in structure:
        size = int(column.max()) + 2
        if span * size >= _PACK_LIMIT:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            span = int(key.max()) + 1
        key = key * size + (column.astype(np.int64) + 1)
        span *= size

    perms = table.pools.perms
    m_perm = opcode == OP_PERM
    m_star = opcode == OP_STAR
    payload = table.payload.astype(np.int64)
    perm_ids = np.where(m_perm, payload, 0)
    forward = np.where(m_perm, perms.struct_ids()[perm_ids] + 1, np.where(m_star, payload, 0))
    # A never-interned inverse (-1) maps to 0, which no permutation's key uses.
    backward = np.where(
        m_perm, perms.inverse_struct_ids()[perm_ids] + 1, np.where(m_star, -payload, 0)
    )
    low = min(int(forward.min()), int(backward.min()))
    size = max(int(forward.max()), int(backward.max())) - low + 1
    if span * size >= _PACK_LIMIT:
        key = np.unique(key, return_inverse=True)[1].reshape(-1)
    key = key * size
    return key + (forward - low), key + (backward - low)


def cancel_adjacent_inverses(table: GateTable) -> GateTable:
    """Remove ``U, U†`` row pairs separated only by wire-disjoint rows.

    Replays the object pass's greedy left-to-right sweep, which cancels a
    row against its nearest surviving prior row sharing a wire, with Python
    work per cancellation rather than per row:

    * numpy builds the row signatures and, from a stable sort of the wire
      incidences, per-wire previous/next links (a doubly linked list of the
      surviving rows on each wire);
    * a heap is seeded with the rows whose nearest prior is their inverse;
    * rows are popped in row order; each takes its nearest surviving prior
      over all its wires from the links, and a cancelling pair is spliced
      out of every wire list. The rows right after the pair are the only
      ones whose nearest prior changed, so only they are pushed for a
      re-check.
    """
    n = len(table)
    if not n:
        return table
    sig, inv_sig = _row_signatures(table)
    starts, wires = _row_incidences(table)
    rows = np.repeat(np.arange(n, dtype=np.int64), table.spans())
    sort_key = wires.astype(np.int16) if table.num_wires <= np.iinfo(np.int16).max else wires
    order = np.argsort(sort_key, kind="stable")
    same_wire = wires[order[1:]] == wires[order[:-1]]
    earlier, later = order[:-1][same_wire], order[1:][same_wire]
    prev_link = np.full(wires.size, -1, dtype=np.int64)
    next_link = np.full(wires.size, -1, dtype=np.int64)
    prev_link[later] = earlier
    next_link[earlier] = later

    nearest = np.full(n, -1, dtype=np.int64)
    np.maximum.at(nearest, rows, np.where(prev_link >= 0, rows[prev_link], -1))
    partner = np.where(nearest >= 0, inv_sig[nearest], -1)
    heap = np.flatnonzero(partner == sig).tolist()  # sorted, hence already a heap
    if not heap:
        return table

    alive = np.ones(n, dtype=bool)
    alive_v = memoryview(alive)
    prev_v, next_v, rows_v = memoryview(prev_link), memoryview(next_link), memoryview(rows)
    starts_v, sig_v, inv_v = memoryview(starts), memoryview(sig), memoryview(inv_sig)
    opcode_v, payload_v = memoryview(table.opcode), memoryview(table.payload)
    unitaries = table.pools.unitaries
    last = -1
    while heap:
        i = heappop(heap)
        if i == last:
            continue
        last = i
        first, stop = starts_v[i], starts_v[i + 1]
        prior = -1
        for slot in range(first, stop):
            link = prev_v[slot]
            if link >= 0 and rows_v[link] > prior:
                prior = rows_v[link]
        if prior < 0 or inv_v[prior] != sig_v[i]:
            continue
        if opcode_v[i] == OP_UNITARY and not unitaries.cancels(payload_v[prior], payload_v[i]):
            continue
        # Equal signatures mean equal wire lists, so ``prior`` is the
        # previous link of row ``i`` on every one of its wires.
        alive_v[prior] = alive_v[i] = False
        offset = starts_v[prior] - first
        for slot in range(first, stop):
            before = prev_v[slot + offset]
            after = next_v[slot]
            if before >= 0:
                next_v[before] = after
            if after >= 0:
                prev_v[after] = before
                heappush(heap, rows_v[after])
    if alive.all():
        return table
    return table.select(alive)


def fuse_single_qudit(table: GateTable) -> GateTable:
    """Fuse runs of uncontrolled single-qudit rows on one wire into one row.

    Mirrors ``FuseSingleQuditGates``: a per-wire last-touch index finds the
    nearest prior row on the target wire in O(1); when that row is itself an
    uncontrolled single-qudit gate the payloads compose through the pools
    (permutation·permutation stays a permutation, anything dense becomes a
    dense unitary) and the later row is dropped.
    """
    n = len(table)
    if not n:
        return table
    opcode = table.opcode.tolist()
    targets = table.target.tolist()
    wires_a = table.wire_a.tolist()
    wires_b = table.wire_b.tolist()
    payloads = table.payload.tolist()
    extras = table.extra.tolist()

    perms = table.pools.perms
    unitaries = table.pools.unitaries

    def fusable(i: int) -> bool:
        return opcode[i] != OP_STAR and wires_a[i] < 0

    alive = [True] * n
    last = [-1] * table.num_wires
    for i in range(n):
        if fusable(i):
            j = last[targets[i]]
            if j >= 0 and fusable(j):
                # ``j`` touches only its target, which equals this row's target.
                if opcode[j] == OP_PERM and opcode[i] == OP_PERM:
                    payloads[j] = perms.fuse_id(payloads[j], payloads[i])
                else:
                    first = (
                        unitaries.intern(perms.gate(payloads[j]))
                        if opcode[j] == OP_PERM
                        else payloads[j]
                    )
                    second = (
                        unitaries.intern(perms.gate(payloads[i]))
                        if opcode[i] == OP_PERM
                        else payloads[i]
                    )
                    payloads[j] = unitaries.fuse_id(first, second)
                    opcode[j] = OP_UNITARY
                alive[i] = False
                continue
        for w in _row_wires(table, i, targets, wires_a, wires_b, extras):
            last[w] = i
    mask = np.asarray(alive, dtype=bool)
    out = table.replace_columns(opcode=opcode, payload=payloads)
    if mask.all():
        return out
    return out.select(mask)
