"""Classical basis-state simulation of permutation circuits.

Every synthesis in the paper (k-Toffoli, P_k, reversible functions) produces
a *classical reversible* circuit: each operation maps computational basis
states to computational basis states without introducing phases.  Such
circuits are verified exhaustively by running every basis state through the
circuit, which is dramatically cheaper than dense unitary simulation
(``O(d^n * size)`` instead of ``O(d^{2n} * size)``) and is exact.

The whole-basis queries are vectorized: :func:`permutation_index_table`
composes the circuit's columnar table with the block kernel of
:mod:`repro.ir.segment` (rows cut into blocks of a few wires, each block a
small lookup applied to per-wire digit planes), instead of ``m * d^n``
Python-level gate applications for ``m`` gates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError
from repro.qudit.circuit import QuditCircuit
from repro.utils.indexing import digit_matrix, indices_to_digits

BasisState = Tuple[int, ...]

#: Largest basis (``d**n`` states) on which a batch of basis states of a
#: permutation circuit is answered by one lookup into the table's composed
#: whole-basis gather (:meth:`~repro.ir.table.GateTable.permutation_index_table`)
#: instead of pushing the states through every row
#: (:meth:`~repro.ir.table.GateTable.apply_to_indices`, about ten numpy calls
#: per row).  :func:`basis_images` takes this crossover for both workload
#: simulates (:mod:`repro.exec.workload`) and the sampled permutation-spec
#: checks (:func:`repro.verify.checks.spec_sampled`).  The gather is
#: composed on first use and then held by the cached table, interned on its
#: pools, so every repeat costs O(states).  Larger registers keep index
#: propagation, which never builds a ``d**n`` array and so works far beyond
#: statevector sizes.
#:
#: The value is the largest basis at which composing a fresh table cost no
#: more than propagating one request's states through it, so a first
#: request is no slower either.  Both costs grow with the row count, so
#: their ratio depends on the basis size.  Measured on a 2-vCPU Intel Xeon
#: VM, two runs (each a median of five; propagating 4 states).  The
#: ``row walk`` column is the composition this value was derived from (one
#: ``d**n`` op table per distinct row, one gather per row, op tables cold);
#: ``blocks`` is the block kernel of :mod:`repro.ir.segment` that composes
#: today::
#:
#:     circuit            basis     row walk      blocks        propagate 4
#:     mct d=4 k=3        1,024     2.3-2.6 ms    1.7-1.9 ms    4.5-4.7 ms
#:     mct d=3 k=6        2,187     32-35 ms      9.9-12 ms     68-69 ms
#:     pk  d=5 k=4        3,125     16-20 ms      6.0-6.9 ms    29-30 ms
#:     mct d=4 k=4        4,096     13-16 ms      2.9-3.2 ms    15-16 ms
#:     mct d=3 k=7        6,561     111-123 ms    18-20 ms      104-120 ms
#:     mct d=6 k=3        7,776     16-20 ms      3.8-4.3 ms    10-11 ms
#:     mct d=4 k=5       16,384     78-95 ms      5.1-5.8 ms    20-28 ms
#:
#: With blocks, composing costs less than propagating 4 states on every
#: register measured, up to 16,384 states, so the crossover now sits above
#: this value.  It stays 4,096 until the benchmark ledger re-derives it
#: with its byte bound.  The exception is still a circuit with few rows per
#: distinct operation: the clean-ancilla ladder at d=3, k=4 (2,187 states,
#: 51 rows) composes in 0.9-1.1 ms against 0.6-0.7 ms, once per cached
#: table.
#:
#: Memory is bounded in bytes for simulates and sampled checks: one
#: ``int64`` gather of at most ``GATHER_MAX_STATES * 8`` bytes = 32 KiB per
#: cached table, so a compile cache's in-process memo (128 tables by
#: default) holds at most 4 MiB of them.  The exhaustive (dense-tier)
#: permutation check is bounded by its budget instead: it composes the
#: whole gather of the table it checks up to ``max_basis_states`` basis
#: states (200,000, 1.6 MB, under the ``standard`` budget), and the table
#: holds it like any other.  Composition itself keeps nothing else.
GATHER_MAX_STATES = 4096


def basis_images(
    circuit: QuditCircuit, indices, *, max_gather_bytes: Optional[int] = None
) -> Tuple[np.ndarray, str]:
    """Images of flat basis ``indices`` under a permutation circuit, and the
    path that produced them.

    ``"gather"``: one lookup into the table's composed whole-basis gather,
    taken up to :data:`GATHER_MAX_STATES` basis states and, when
    ``max_gather_bytes`` is given, only while the gather's ``8·d**n`` bytes
    fit it.  ``"propagate"``: the indices pushed through every row, which
    never builds a ``d**n`` array.
    """
    table = circuit.to_table()
    basis = circuit.dim**circuit.num_wires
    if basis <= GATHER_MAX_STATES and (  # the gather holds 8-byte int64s
        max_gather_bytes is None or 8 * basis <= max_gather_bytes
    ):
        return table.permutation_index_table()[indices], "gather"
    return table.apply_to_indices(indices), "propagate"


def apply_to_basis(circuit: QuditCircuit, state: Sequence[int]) -> BasisState:
    """Apply ``circuit`` to one computational basis state and return the result."""
    if len(state) != circuit.num_wires:
        raise GateError(
            f"basis state has {len(state)} digits, circuit has {circuit.num_wires} wires"
        )
    if not circuit.is_permutation:
        raise GateError("circuit contains non-permutation gates; use the statevector simulator")
    working: List[int] = list(state)
    for digit in working:
        if not 0 <= digit < circuit.dim:
            raise GateError(f"basis digit {digit} out of range for dimension {circuit.dim}")
    for op in circuit:
        op.apply_to_basis(working, circuit.dim)
    return tuple(working)


def permutation_index_table(circuit: QuditCircuit) -> np.ndarray:
    """The circuit's action on the full flat basis as one numpy index array.

    Entry ``i`` is the flat index of the image of basis state ``i``.  Composed
    from the circuit's columnar table
    (:meth:`~repro.ir.table.GateTable.permutation_index_table`) and interned
    on its pools; ``to_table()`` is cached on the circuit.  Only feasible
    for small systems (``dim ** num_wires`` entries).
    """
    return circuit.to_table().permutation_index_table()


def permutation_table(circuit: QuditCircuit) -> List[int]:
    """Return the full permutation of flat basis indices implemented by ``circuit``.

    Plain-list version of :func:`permutation_index_table`, kept for callers
    that expect Python integers.
    """
    return permutation_index_table(circuit).tolist()


def function_table(circuit: QuditCircuit) -> Dict[BasisState, BasisState]:
    """Return the circuit's action as a mapping of digit tuples."""
    table = permutation_index_table(circuit)
    sources = digit_matrix(circuit.dim, circuit.num_wires).tolist()
    images = indices_to_digits(table, circuit.dim, circuit.num_wires).tolist()
    return {tuple(source): tuple(image) for source, image in zip(sources, images)}


def permutation_parity(circuit: QuditCircuit) -> int:
    """Return the sign parity (0 even / 1 odd) of the permutation the circuit
    implements on the full computational basis.

    Used to reproduce the paper's argument that for even ``d`` the k-Toffoli
    (an odd permutation) cannot be built from G-gates (even permutations)
    without an extra wire.
    """
    table = permutation_index_table(circuit).tolist()
    visited = [False] * len(table)
    transposition_count = 0
    for start in range(len(table)):
        if visited[start]:
            continue
        length = 0
        current = start
        while not visited[current]:
            visited[current] = True
            current = table[current]
            length += 1
        transposition_count += length - 1
    return transposition_count % 2


def states_differing_on(
    circuit: QuditCircuit, wires: Iterable[int]
) -> List[Tuple[BasisState, BasisState]]:
    """Return (input, output) pairs where the circuit changed any of ``wires``.

    Handy when debugging control-preservation or borrowed-ancilla violations.
    """
    wires = list(wires)
    table = permutation_index_table(circuit)
    sources = digit_matrix(circuit.dim, circuit.num_wires)
    images = indices_to_digits(table, circuit.dim, circuit.num_wires)
    changed = (sources[:, wires] != images[:, wires]).any(axis=1)
    return [
        (tuple(sources[i].tolist()), tuple(images[i].tolist()))
        for i in np.nonzero(changed)[0]
    ]
