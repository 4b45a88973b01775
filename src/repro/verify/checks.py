"""Tier check kernels shared by the tiered verifier and the ``assert_*`` API.

Each function here is one *check kernel*: it runs a single verification
strategy to completion and raises :class:`~repro.exceptions.VerificationError`
on divergence, returning how many states it examined (and, for sampled
kernels, a replay recipe).  The :class:`~repro.verify.verifier.TieredVerifier`
sequences kernels by cost, and every entry point (the ``assert_*`` helpers
of :mod:`repro.verify.asserts`, each strategy's ``verify``) goes through it,
so they all share one set of semantics.

The permutation kernels compare whole digit matrices, never one state at a
time.  The sampled kernels take the circuit's images from
:func:`~repro.sim.permutation.basis_images`, the function workload
simulates call: its whole-basis gather (for a circuit served from the
compile cache, the array simulate reads) or, on bases above
:data:`~repro.sim.permutation.GATHER_MAX_STATES`, batched index
propagation.  The exhaustive kernels read the whole gather directly.
The expected images come from an :class:`ArraySpec`, which maps an
``(N, n)`` digit matrix in one call; :func:`mct_spec`,
:func:`mc_shift_spec` and :func:`array_function_spec` build vectorized ones,
and a user's per-state callable is wrapped row by row with
:meth:`ArraySpec.rowwise`.

The unitary kernels read one matrix per circuit: up to
:data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states on the dense
engine, the operator its table composes once and holds
(:func:`~repro.sim.unitary.held_operator`).  Only that simulation artefact
is held; every check still runs in full on every call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VerificationError, WireError
from repro.ir.table import OP_PERM, OP_STAR, OP_UNITARY
from repro.sim import permutation
from repro.sim.backend import get_backend
from repro.sim.unitary import circuit_unitary, held_operator
from repro.utils import indexing
from repro.utils.indexing import digit_matrix, indices_to_digits

BasisState = Tuple[int, ...]
Spec = Callable[[BasisState], Sequence[int]]

#: Largest flat basis index representable by the batched int64 index paths.
INT64_MAX = indexing.INT64_MAX


class ArraySpec:
    """A permutation spec that maps a whole digit matrix in one call.

    ``apply(states)`` takes an ``(N, n)`` integer array of basis digit rows
    (wire 0 first) and returns their images as an array of the same shape.
    The instance stays callable on one digit tuple, so a per-state caller
    of a spec keeps working.
    """

    __slots__ = ("apply",)

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray]):
        self.apply = apply

    def __call__(self, state: BasisState) -> BasisState:
        image = self.apply(np.asarray([state], dtype=np.int64))[0]
        return tuple(image.tolist())

    @classmethod
    def rowwise(cls, spec: Spec) -> "ArraySpec":
        """``spec`` itself if it is an :class:`ArraySpec`, else a wrapper
        that calls the per-state ``spec`` once per row."""
        if isinstance(spec, cls):
            return spec

        def apply(states: np.ndarray) -> np.ndarray:
            width = states.shape[1]
            images = []
            for state in states.tolist():
                image = tuple(spec(tuple(state)))
                if len(image) != width:
                    raise VerificationError(
                        f"spec maps {tuple(state)} to {image}: {len(image)} digits "
                        f"for {width} wires"
                    )
                images.append(image)
            return np.asarray(images, dtype=np.int64).reshape(states.shape)

        return cls(apply)


def basis_size(dim: int, num_wires: int) -> int:
    """``d^n`` as an exact Python integer (never overflows)."""
    return int(dim) ** int(num_wires)


def require_int64_basis(dim: int, num_wires: int, context: str) -> int:
    """Return ``d^n`` or raise :class:`VerificationError` when flat indices
    would overflow ``int64``.

    The verifier's face of :func:`repro.utils.indexing.require_int64_basis`:
    the batched index paths (:func:`_basis_images` above
    :data:`~repro.sim.permutation.GATHER_MAX_STATES`, the sampled-column
    kernel) encode basis states as flat ``int64`` indices and refuse a
    larger register before any check runs.
    """
    try:
        return indexing.require_int64_basis(dim, num_wires, context)
    except WireError as error:
        raise VerificationError(str(error)) from None


def sample_basis_states(
    dim: int,
    num_wires: int,
    samples: int,
    seed: int,
    *,
    clean_wires: Sequence[int] = (),
) -> List[BasisState]:
    """Deterministic sample of basis states, shared by every sampled check.

    One seeded :class:`numpy.random.Generator` drives the sampled fallbacks
    of the ``assert_*`` helpers, the test-suite samplers in ``conftest`` and
    the fuzz generators, so a failure reported with its seed reproduces the
    exact state sequence anywhere.  Wires listed in ``clean_wires`` are
    pinned to ``0`` (the clean-ancilla contract).  States are drawn one digit
    per wire, so the sampler works on registers far beyond ``int64`` flat
    indices.
    """
    states = _sample_digits(dim, num_wires, samples, seed, clean_wires)
    return [tuple(row) for row in states.tolist()]


def _sample_digits(
    dim: int, num_wires: int, samples: int, seed: int, clean_wires: Sequence[int] = ()
) -> np.ndarray:
    """:func:`sample_basis_states` as an ``(samples, num_wires)`` digit array."""
    rng = np.random.default_rng(seed)
    states = rng.integers(0, dim, size=(samples, num_wires))
    clean = list(clean_wires)
    if clean:
        states[:, clean] = 0
    return states


def _flat_indices(states: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
    strides = np.array([dim**e for e in range(num_wires - 1, -1, -1)], dtype=np.int64)
    return np.asarray(states, dtype=np.int64) @ strides


def _basis_images(circuit, states: np.ndarray) -> np.ndarray:
    """Digit images of the ``(N, n)`` basis digit rows ``states``.

    They come from :func:`~repro.sim.permutation.basis_images`, the path
    workload simulates take: a lookup into the circuit's composed
    whole-basis gather up to
    :data:`~repro.sim.permutation.GATHER_MAX_STATES` basis states (a circuit
    backed by a cached table composes it once and the table holds it), one
    batched index pass above that, which never builds a ``d^n`` array.
    """
    dim, num_wires = circuit.dim, circuit.num_wires
    require_int64_basis(dim, num_wires, "sampled index propagation")
    images, _ = permutation.basis_images(circuit, _flat_indices(states, dim, num_wires))
    return indices_to_digits(images, dim, num_wires)


def _spec_images(spec: Spec, states: np.ndarray) -> np.ndarray:
    """The spec's digit images of the ``(N, n)`` digit rows ``states``."""
    expected = np.asarray(ArraySpec.rowwise(spec).apply(states))
    if expected.shape != states.shape:
        raise VerificationError(
            f"spec mapped a {states.shape} digit matrix to shape {expected.shape}"
        )
    return expected


def _first_divergence(
    states: np.ndarray, images: np.ndarray, expected: np.ndarray
) -> Optional[Tuple[int, BasisState, BasisState, BasisState]]:
    """``(row, state, actual, expected)`` of the first row whose image is not
    the spec's, or ``None`` when every row agrees."""
    bad = np.flatnonzero((images != expected).any(axis=1))
    if not bad.size:
        return None
    row = int(bad[0])
    return (
        row,
        tuple(states[row].tolist()),
        tuple(images[row].tolist()),
        tuple(expected[row].tolist()),
    )


def sample_recipe(
    dim: int, num_wires: int, samples: int, seed: int, clean_wires: Sequence[int] = ()
) -> str:
    """The copy-pasteable recipe regenerating a sampled state sequence."""
    recipe = f"sample_basis_states({dim}, {num_wires}, {samples}, {seed}"
    clean = tuple(clean_wires)
    return recipe + (f", clean_wires={clean})" if clean else ")")


# ----------------------------------------------------------------------
# Tier 1 — structural checks on the GateTable columns
# ----------------------------------------------------------------------


def structural_check(circuit) -> Dict[str, int]:
    """Cheap sanity scan of the circuit's columnar form.

    Validates opcodes, wire ranges and distinctness, predicate/payload pool
    ids, and that every referenced control predicate is *valid* for the
    circuit dimension (a control value ``>= d`` can never fire, which turns
    the row into a silent identity).  Returns summary stats; raises
    :class:`VerificationError` naming the first offending rows otherwise.

    One combined pass over the table's distinct rows decides the clean case
    (:func:`_clean_never_fire`); only when it finds a defect are the
    offending rows listed check by check (:func:`_structural_problems`).
    """
    table = circuit.to_table()
    never_fire = _clean_never_fire(table)
    if never_fire is None:
        problems, never_fire = _structural_problems(table)
        if problems:
            shown = "; ".join(problems[:5])
            more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
            raise VerificationError(
                f"circuit {circuit.name!r} failed the structural check: {shown}{more}"
            )
    return {
        "rows": len(table),
        "never_fire_controls": never_fire,
    }


def _clean_never_fire(table) -> Optional[int]:
    """The count of distinct never-firing control predicates the table uses,
    or ``None`` when any structural check fails.

    Every row check reads its own row only, so the table's distinct rows
    (:meth:`~repro.ir.table.GateTable.distinct_rows`) decide it in one
    vectorized pass, whatever the row count.
    """
    rows = table.distinct_rows()[0]
    pools, num_wires = table.pools, table.num_wires
    num_preds = len(pools.preds)
    opcode, target, wire_a, wire_b, pred_a, pred_b, payload, extra = rows.T
    star = opcode == OP_STAR
    has_a, has_b = wire_a >= 0, wire_b >= 0
    pred_rows_a = has_a & ~star
    payload_top = np.where(
        opcode == OP_UNITARY, max(len(pools.unitaries), 1), max(len(pools.perms), 1)
    )
    bad = (
        (opcode < OP_PERM) | (opcode > OP_STAR)
        | (target < 0) | (target >= num_wires)
        | (wire_a < -1) | (wire_a >= num_wires) | (wire_b < -1) | (wire_b >= num_wires)
        | (star & ~has_a)
        # An in-range wire equal to an in-range target is a control (>= 0).
        | (wire_a == target) | (wire_b == target) | (has_a & (wire_a == wire_b))
        | (pred_rows_a & ((pred_a < 0) | (pred_a >= num_preds)))
        | (has_b & ((pred_b < 0) | (pred_b >= num_preds)))
        | np.where(
            star, (payload != 1) & (payload != -1), (payload < 0) | (payload >= payload_top)
        )
        | (extra < -1) | (extra >= len(pools.extras))
    )
    if bad.any():
        return None
    used = np.zeros(max(num_preds, 1), dtype=bool)
    used[pred_a[pred_rows_a]] = True
    used[pred_b[has_b]] = True
    eids = extra[extra >= 0]
    for eid in np.unique(eids).tolist() if eids.size else ():
        for wire, pid in pools.extras.entry(eid):
            if not (0 <= wire < num_wires and 0 <= pid < num_preds):
                return None
            used[pid] = True
    if (used & pools.preds.invalid_for(table.dim)).any():
        return None
    return int((used & pools.preds.never_fires(table.dim)).sum())


def _structural_problems(table) -> Tuple[List[str], int]:
    """Every structural defect of ``table``, check by check, naming up to three
    offending rows per check, and the never-firing predicate count."""
    num_wires = table.num_wires
    dim = table.dim
    pools = table.pools
    problems: List[str] = []

    def note(mask: np.ndarray, describe: Callable[[int], str]) -> None:
        rows = np.nonzero(mask)[0]
        for row in rows[:3]:
            problems.append(describe(int(row)))

    opcode = table.opcode
    note(
        (opcode < OP_PERM) | (opcode > OP_STAR),
        lambda r: f"row {r}: unknown opcode {int(opcode[r])}",
    )
    target = table.target
    note(
        (target < 0) | (target >= num_wires),
        lambda r: f"row {r}: target wire {int(target[r])} out of range for "
        f"{num_wires} wires",
    )
    star = opcode == OP_STAR
    for label, wires in (("wire_a", table.wire_a), ("wire_b", table.wire_b)):
        note(
            (wires < -1) | (wires >= num_wires),
            lambda r, label=label, wires=wires: f"row {r}: {label} "
            f"{int(wires[r])} out of range for {num_wires} wires",
        )
    note(star & (table.wire_a < 0), lambda r: f"row {r}: star row has no star wire")
    note(
        (table.wire_a >= 0) & (table.wire_a == target),
        lambda r: f"row {r}: control wire {int(table.wire_a[r])} duplicates the target",
    )
    note(
        (table.wire_b >= 0) & (table.wire_b == target),
        lambda r: f"row {r}: control wire {int(table.wire_b[r])} duplicates the target",
    )
    note(
        (table.wire_a >= 0) & (table.wire_a == table.wire_b),
        lambda r: f"row {r}: duplicate control wire {int(table.wire_a[r])}",
    )

    num_preds = len(pools.preds)
    for label, wires, preds in (
        ("pred_a", table.wire_a, table.pred_a),
        ("pred_b", table.wire_b, table.pred_b),
    ):
        ordinary = ~star if label == "pred_a" else np.ones(len(table), dtype=bool)
        note(
            ordinary & (wires >= 0) & ((preds < 0) | (preds >= num_preds)),
            lambda r, label=label, preds=preds: f"row {r}: {label} id "
            f"{int(preds[r])} outside the predicate pool (size {num_preds})",
        )
    payload = table.payload
    note(
        (opcode == OP_PERM) & ((payload < 0) | (payload >= max(len(pools.perms), 1))),
        lambda r: f"row {r}: permutation payload id {int(payload[r])} outside "
        f"the pool (size {len(pools.perms)})",
    )
    note(
        (opcode == OP_UNITARY)
        & ((payload < 0) | (payload >= max(len(pools.unitaries), 1))),
        lambda r: f"row {r}: unitary payload id {int(payload[r])} outside "
        f"the pool (size {len(pools.unitaries)})",
    )
    note(
        star & (payload != 1) & (payload != -1),
        lambda r: f"row {r}: star shift sign must be ±1, got {int(payload[r])}",
    )
    num_extras = len(pools.extras)
    extra = table.extra
    note(
        (extra < -1) | (extra >= num_extras),
        lambda r: f"row {r}: extra-controls id {int(extra[r])} outside the "
        f"pool (size {num_extras})",
    )

    # Predicate validity for this dimension: a referenced predicate whose
    # control value is >= d can never fire, so the row silently degenerates
    # to the identity — exactly the vacuous-verification trap.
    used = [
        table.pred_a[~star & (table.wire_a >= 0)],
        table.pred_b[table.wire_b >= 0],
    ]
    extra_used: List[int] = []
    for eid in np.unique(extra[(extra >= 0) & (extra < num_extras)]):
        for wire, pid in pools.extras.entry(int(eid)):
            if not 0 <= wire < num_wires:
                problems.append(
                    f"extra-controls entry {int(eid)}: control wire {wire} out of "
                    f"range for {num_wires} wires"
                )
            if 0 <= pid < num_preds:
                extra_used.append(int(pid))
            else:
                problems.append(
                    f"extra-controls entry {int(eid)}: predicate id {pid} outside "
                    f"the pool (size {num_preds})"
                )
    used.append(np.asarray(extra_used, dtype=np.int64))
    used_ids = np.unique(np.concatenate(used).astype(np.int64, copy=False))
    used_ids = used_ids[(used_ids >= 0) & (used_ids < num_preds)]
    never_fire = 0
    if used_ids.size:
        invalid = pools.preds.invalid_for(dim)
        for pid in used_ids[invalid[used_ids]]:
            problems.append(
                f"control predicate {pools.preds.labels()[int(pid)]!r} is invalid "
                f"for dimension d={dim} (it can never fire)"
            )
        never_fire = int(pools.preds.never_fires(dim)[used_ids].sum())

    return problems, never_fire


# ----------------------------------------------------------------------
# Tiers 2 & 4 — permutation-spec and wire-preservation kernels
# ----------------------------------------------------------------------


def spec_exhaustive(circuit, spec: Spec, clean_wires: Sequence[int] = ()) -> int:
    """Whole-basis gather-table check of ``circuit`` against ``spec``.

    The gather is :func:`~repro.sim.permutation.permutation_index_table`'s;
    for a circuit backed by a cached table it is the array simulate reads.
    States with a ``clean_wires`` digit off ``0`` are outside the circuit's
    contract and are masked out; the spec maps the rest in one
    :meth:`ArraySpec.apply` call.  Its images are encoded to flat indices
    and compared with the gather in one pass; only when that fails, or when
    an image is not an integer digit in ``[0, d)`` (whose encoding could
    alias another basis index), is the gather decoded to find the row.
    """
    dim, num_wires = circuit.dim, circuit.num_wires
    gather = permutation.permutation_index_table(circuit)
    sources = digit_matrix(dim, num_wires)
    clean = list(clean_wires)
    if clean:
        in_contract = ~sources[:, clean].any(axis=1)
        sources, gather = sources[in_contract], gather[in_contract]
    expected = _spec_images(spec, sources)
    if (
        np.issubdtype(expected.dtype, np.integer)
        and not (expected.size and (expected.min() < 0 or expected.max() >= dim))
        and np.array_equal(_flat_indices(expected, dim, num_wires), gather)
    ):
        return len(sources)
    images = indices_to_digits(gather, dim, num_wires)
    divergence = _first_divergence(sources, images, expected)
    if divergence is not None:
        _, state, actual, expected = divergence
        raise VerificationError(
            f"circuit {circuit.name!r} maps {state} to {actual}, expected {expected}"
        )
    return len(sources)


def spec_sampled(
    circuit,
    spec: Spec,
    samples: int,
    seed: int,
    clean_wires: Sequence[int] = (),
) -> Tuple[int, str]:
    """Sampled check of ``circuit`` vs ``spec`` on seeded basis states.

    The samples are :func:`sample_basis_states`'s.  Their images are looked
    up in the circuit's whole-basis gather up to
    :data:`~repro.sim.permutation.GATHER_MAX_STATES` basis states and
    propagated in one batched index pass above it, so the check works on
    registers far beyond any statevector; the spec maps them in one
    :meth:`ArraySpec.apply` call.  Returns ``(states_checked, replay)``.
    """
    clean = tuple(clean_wires)
    states = _sample_digits(circuit.dim, circuit.num_wires, samples, seed, clean)
    images = _basis_images(circuit, states)
    recipe = sample_recipe(circuit.dim, circuit.num_wires, samples, seed, clean)
    divergence = _first_divergence(states, images, _spec_images(spec, states))
    if divergence is not None:
        row, state, actual, expected = divergence
        raise VerificationError(
            f"circuit {circuit.name!r} maps {state} to {actual}, expected {expected} "
            f"(sampled check, seed={seed}, failing row {row}; rerun with {recipe}[{row}])"
        )
    return len(states), recipe


def _moved_wires(
    circuit, wires: Sequence[int], states: np.ndarray, images: np.ndarray
) -> Optional[Tuple[int, str]]:
    """``(row, message)`` for the first row whose image changed a watched
    wire, or ``None`` when every row keeps them."""
    wires = list(wires)
    bad = np.flatnonzero((images[:, wires] != states[:, wires]).any(axis=1))
    if not bad.size:
        return None
    row = int(bad[0])
    state, output = tuple(states[row].tolist()), tuple(images[row].tolist())
    mismatch = [w for w in wires if output[w] != state[w]]
    return row, f"circuit {circuit.name!r} modified wires {mismatch} on input {state}: {output}"


def wires_preserved_exhaustive(circuit, wires: Sequence[int]) -> int:
    """Whole-basis check that ``circuit`` restores the watched wires.

    Every basis state is compared with its image under the circuit's
    whole-basis gather, the one :func:`spec_exhaustive` reads: only the
    watched wires' digits are decoded, and the whole gather only to name
    the first row that moves one.
    """
    dim, num_wires = circuit.dim, circuit.num_wires
    gather = permutation.permutation_index_table(circuit)
    strides = dim ** (num_wires - 1 - np.arange(num_wires)[list(wires)])
    sources = np.arange(gather.size)[:, None]
    if np.array_equal(gather[:, None] // strides % dim, sources // strides % dim):
        return gather.size
    images = indices_to_digits(gather, dim, num_wires)
    raise VerificationError(_moved_wires(circuit, wires, digit_matrix(dim, num_wires), images)[1])


def wires_preserved_sampled(
    circuit, wires: Sequence[int], samples: int, seed: int
) -> Tuple[int, str]:
    """Sampled check that ``circuit`` restores the watched wires.

    The samples and their images are :func:`spec_sampled`'s; only the
    watched wires are compared.  Returns ``(states_checked, replay)``.
    """
    states = _sample_digits(circuit.dim, circuit.num_wires, samples, seed)
    images = _basis_images(circuit, states)
    recipe = sample_recipe(circuit.dim, circuit.num_wires, samples, seed)
    moved = _moved_wires(circuit, wires, states, images)
    if moved is not None:
        row, message = moved
        raise VerificationError(
            f"{message} (sampled check, seed={seed}, failing row {row}; "
            f"rerun with {recipe}[{row}])"
        )
    return len(states), recipe


# ----------------------------------------------------------------------
# Tiers 3 & 4 — unitary kernels
# ----------------------------------------------------------------------


def _alignment_phase(expected_value: complex, actual_value: complex, atol: float, where: str):
    """The unit-modulus alignment factor, or raise if none exists.

    A *global phase* has unit modulus by definition; accepting any complex
    ratio here would let ``actual = 0.5 * expected`` pass as "equal up to a
    phase".
    """
    phase = expected_value / actual_value
    modulus = abs(phase)
    if abs(modulus - 1.0) > max(atol, 1e-12):
        raise VerificationError(
            f"cannot align global phase{where}: alignment factor has modulus "
            f"{modulus:.6g}, not a unit phase (is the circuit a scaled copy "
            f"of the expected unitary?)"
        )
    return phase


def unitary_dense(
    circuit,
    expected: np.ndarray,
    *,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend=None,
) -> int:
    """Dense matrix compare of the circuit's unitary against ``expected``.

    The circuit's matrix is :func:`~repro.sim.unitary.circuit_unitary`'s:
    up to :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states on the
    dense engine, the operator its table holds (for a circuit served from
    the compile cache, the array simulate reads too).
    """
    actual = circuit_unitary(circuit, backend=backend)
    if actual.shape != expected.shape:
        raise VerificationError(
            f"unitary shape mismatch: circuit {actual.shape}, expected {expected.shape}"
        )
    if up_to_global_phase:
        # Align phases using the largest-magnitude entry of the expected matrix.
        index = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        if abs(actual[index]) < atol:
            raise VerificationError("cannot align global phase: mismatched support")
        actual = actual * _alignment_phase(expected[index], actual[index], atol, "")
    if not np.allclose(actual, expected, atol=atol):
        deviation = float(np.max(np.abs(actual - expected)))
        raise VerificationError(
            f"circuit {circuit.name!r} deviates from the expected unitary by {deviation:.3e}"
        )
    return expected.shape[1] if expected.ndim == 2 else 1


def unitary_columns(
    circuit,
    expected_column: Callable[[int], np.ndarray],
    *,
    samples: int = 8,
    required_columns: Sequence[int] = (),
    seed: int = 13,
    atol: float = 1e-8,
    up_to_global_phase: bool = False,
    backend=None,
) -> Tuple[int, str]:
    """Sampled-column unitary check for bases too large to build a matrix.

    The dense compare materialises two ``basis²`` matrices, which caps it
    near basis 1024.  This kernel evolves ``samples`` distinct basis columns
    as ONE ``(d^n, s)`` batch through the simulation engine — about the cost
    of a few statevector evolutions, no matrix anywhere — and compares each
    against ``expected_column(flat_index)``, which callers can usually
    compute in closed form (e.g. a multi-controlled unitary is the identity
    column everywhere outside the fired block).  Columns are drawn one digit
    per wire (never through a flat ``rng.integers(0, d^n)``, which breaks
    past ``int64``).  ``required_columns`` pins columns that must always be
    checked (the fired block), since a uniform draw over a huge basis would
    almost never hit them.  With ``up_to_global_phase`` one phase is aligned
    on the first column and must fit every other column — per-column phases
    would accept circuits that differ by a non-global diagonal.  A circuit
    whose table holds its dense operator
    (:func:`~repro.sim.unitary.held_operator`) has the columns read from it
    instead of evolved.  The columns are compared as one block; only when
    that fails are they walked one by one to name the first failing column.
    """
    size = require_int64_basis(circuit.dim, circuit.num_wires, "sampled-column check")
    rng = np.random.default_rng(seed)
    digits = rng.integers(
        0, circuit.dim, size=(max(int(samples), 1), circuit.num_wires)
    )
    drawn = _flat_indices(digits, circuit.dim, circuit.num_wires)
    pinned = np.asarray(list(required_columns), dtype=np.int64)
    columns = np.unique(np.concatenate([pinned, drawn]))
    if columns.size and (columns.min() < 0 or columns.max() >= size):
        raise VerificationError(f"required column out of range for basis {size}")
    operator = held_operator(circuit, backend)
    if operator is not None:
        evolved = operator[:, columns]
    else:
        data = np.zeros((size, columns.size), dtype=complex)
        data[columns, np.arange(columns.size)] = 1.0
        evolved = np.asarray(get_backend(backend).apply_circuit_batch(data, circuit))
    recipe = (
        f"unitary_columns(circuit, expected_column, samples={samples}, "
        f"required_columns={tuple(int(c) for c in pinned.tolist())}, seed={seed})"
    )
    block = np.empty((size, columns.size), dtype=complex)

    def raise_first_failure(stop: int) -> None:
        """Walk the first ``stop`` columns in order; raise for the first
        that fails."""
        phase = None
        for b, col in enumerate(columns[:stop].tolist()):
            expected = block[:, b]
            actual = evolved[:, b]
            if up_to_global_phase:
                index = int(np.argmax(np.abs(expected)))
                if abs(actual[index]) < atol:
                    raise VerificationError(
                        f"cannot align global phase on column {col}: mismatched support"
                    )
                column_phase = _alignment_phase(
                    expected[index], actual[index], atol, f" on column {col}"
                )
                if phase is None:
                    phase = column_phase
                elif abs(column_phase - phase) > 10 * atol:
                    raise VerificationError(
                        f"circuit {circuit.name!r} phase on column {col} disagrees with "
                        f"column {int(columns[0])} — not a global phase "
                        f"(sampled-column check, seed={seed})"
                    )
                actual = actual * phase
            if not np.allclose(actual, expected, atol=atol):
                deviation = float(np.max(np.abs(actual - expected)))
                raise VerificationError(
                    f"circuit {circuit.name!r} column {col} deviates from the expected "
                    f"unitary column by {deviation:.3e} (sampled-column check, "
                    f"seed={seed}, {columns.size} columns)"
                )

    for b, col in enumerate(columns.tolist()):
        expected = np.asarray(expected_column(int(col)), dtype=complex).reshape(-1)
        if expected.shape != (size,):
            raise_first_failure(b)  # an earlier column's failure comes first
            raise VerificationError(
                f"expected_column({col}) returned shape {expected.shape}, want ({size},)"
            )
        block[:, b] = expected
    if not _columns_agree(evolved, block, atol, up_to_global_phase):
        raise_first_failure(columns.size)
    return int(columns.size), recipe


def _columns_agree(
    evolved: np.ndarray, expected: np.ndarray, atol: float, up_to_global_phase: bool
) -> bool:
    """Whether every sampled column passes, compared as one block: under a
    global phase each column's alignment factor (at its largest expected
    entry) must exist, be a unit phase and match the first column's."""
    if up_to_global_phase:
        rows = np.argmax(np.abs(expected), axis=0)
        picks = np.arange(expected.shape[1])
        anchors = evolved[rows, picks]
        if bool((np.abs(anchors) < atol).any()):
            return False
        with np.errstate(divide="ignore", invalid="ignore"):
            phases = expected[rows, picks] / anchors
            phase = expected[rows[0], 0] / evolved[rows[0], 0]
        if bool((np.abs(np.abs(phases) - 1.0) > max(atol, 1e-12)).any()) or bool(
            (np.abs(phases - phase) > 10 * atol).any()
        ):
            return False
        evolved = evolved * phase
    return bool(np.allclose(evolved, expected, atol=atol))


def unitary_clean_subspace(
    circuit,
    expected: np.ndarray,
    data_wires: Sequence[int],
    clean_wires: Sequence[int],
    *,
    atol: float = 1e-8,
    backend=None,
) -> int:
    """Check a circuit that uses clean ancillas against a data-wire unitary.

    The circuit is only required to implement ``expected`` on the subspace
    where every clean ancilla starts in ``|0⟩`` and to return the ancillas to
    ``|0⟩`` (i.e. not leak amplitude outside that subspace).  ``expected``
    acts on the data wires only.  Wires in neither list start in ``|0⟩``;
    amplitudes below ``1e-14`` count as zero.  The circuit's matrix is
    :func:`~repro.sim.unitary.circuit_unitary`'s, the held operator up to
    :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states.
    """
    data_wires, clean_wires = list(data_wires), list(clean_wires)
    full = circuit_unitary(circuit, backend=backend)
    dim, num_wires = circuit.dim, circuit.num_wires
    size_data = dim ** len(data_wires)
    if expected.shape != (size_data, size_data):
        raise VerificationError("expected matrix shape does not match the data wires")

    # Column j of the subspace: data digits of j on the data wires, 0 elsewhere.
    strides = dim ** (num_wires - 1 - np.asarray(data_wires, dtype=np.int64))
    columns = digit_matrix(dim, len(data_wires)) @ strides
    amplitudes = full[:, columns]
    amplitudes[np.abs(amplitudes) < 1e-14] = 0
    rows = digit_matrix(dim, num_wires)
    leaks = rows[:, clean_wires].any(axis=1)
    leakage = float(np.abs(amplitudes[leaks]).max(initial=0.0))
    if leakage > atol:
        raise VerificationError(
            f"circuit {circuit.name!r} leaks amplitude {leakage:.3e} into non-zero ancilla states"
        )
    data_rows = rows[~leaks][:, data_wires] @ (dim ** np.arange(len(data_wires) - 1, -1, -1))
    block = np.zeros((size_data, size_data), dtype=complex)
    np.add.at(block, data_rows, amplitudes[~leaks])
    if not np.allclose(block, expected, atol=atol):
        deviation = float(np.max(np.abs(block - expected)))
        raise VerificationError(
            f"circuit {circuit.name!r} deviates from the expected unitary by {deviation:.3e} "
            "on the clean-ancilla subspace"
        )
    return size_data


# ----------------------------------------------------------------------
# Spec builders
# ----------------------------------------------------------------------


def _check_digit_range(label: str, digits: Sequence[int], dim: int) -> None:
    """Reject spec digits outside ``0..dim-1``.

    An out-of-range control value or swap digit can never match any basis
    digit, so the spec silently degenerates toward the identity and the
    verification passes vacuously.
    """
    bad = sorted({int(v) for v in digits if not 0 <= int(v) < dim})
    if bad:
        raise VerificationError(
            f"{label} {bad} out of range for dimension d={dim} "
            f"(digits must be in 0..{dim - 1})"
        )


def mct_spec(
    controls: Sequence[int],
    target: int,
    dim: int,
    *,
    control_values: Optional[Sequence[int]] = None,
    swap: Tuple[int, int] = (0, 1),
) -> ArraySpec:
    """Return the specification of a multi-controlled ``X_{ij}`` gate.

    The returned :class:`ArraySpec` maps each basis state (a digit row, or
    one digit tuple when called directly) to the state with the target
    digit swapped between ``swap[0]`` and ``swap[1]`` exactly when every
    control digit matches its control value (default all zeros, the paper's
    ``|0^k⟩-Xij``); every other wire, and in particular any ancilla wire, is
    left untouched.  Control values and swap digits are validated against
    ``dim`` — out-of-range digits would make the spec vacuous.
    """
    values = tuple(control_values) if control_values is not None else (0,) * len(controls)
    if len(values) != len(controls):
        raise VerificationError("control_values length must match the number of controls")
    _check_digit_range("control values", values, dim)
    i, j = swap
    _check_digit_range("swap digits", (i, j), dim)
    if i == j:
        raise VerificationError(f"swap digits must be distinct, got {tuple(swap)}")

    controls, fire_on = list(controls), np.asarray(values, dtype=np.int64)

    def apply(states: np.ndarray) -> np.ndarray:
        output = np.array(states, dtype=np.int64)
        column = output[:, target]
        fire = (output[:, controls] == fire_on).all(axis=1)
        is_i, is_j = fire & (column == i), fire & (column == j)
        column[is_i], column[is_j] = j, i
        return output

    return ArraySpec(apply)


def mc_shift_spec(
    controls: Sequence[int],
    target: int,
    dim: int,
    shift: int = 1,
    *,
    control_values: Optional[Sequence[int]] = None,
) -> ArraySpec:
    """Specification of the multi-controlled ``X+shift`` gate (``|0^k⟩-X+y``)."""
    values = tuple(control_values) if control_values is not None else (0,) * len(controls)
    if len(values) != len(controls):
        raise VerificationError("control_values length must match the number of controls")
    _check_digit_range("control values", values, dim)

    controls, fire_on = list(controls), np.asarray(values, dtype=np.int64)

    def apply(states: np.ndarray) -> np.ndarray:
        output = np.array(states, dtype=np.int64)
        fire = (output[:, controls] == fire_on).all(axis=1)
        output[fire, target] = (output[fire, target] + shift) % dim
        return output

    return ArraySpec(apply)


def array_function_spec(
    function: Callable[[np.ndarray], np.ndarray], wires: Sequence[int]
) -> ArraySpec:
    """:func:`function_spec` for a function of whole digit matrices.

    ``function`` maps the ``(N, len(wires))`` digits the states hold on
    ``wires`` to their images in one call; every other wire is left
    untouched.  The strategies' own specs (``P_k``, the increment, the
    reversible function) are built this way, so a check never calls a
    Python function per basis state.
    """
    wires = list(wires)

    def apply(states: np.ndarray) -> np.ndarray:
        output = np.array(states, dtype=np.int64)
        output[:, wires] = function(output[:, wires])
        return output

    return ArraySpec(apply)


def function_spec(
    function: Callable[[BasisState], Sequence[int]], wires: Sequence[int]
) -> Spec:
    """Specification of a map that applies ``function`` to ``wires`` only.

    ``function`` receives and returns digit tuples of length ``len(wires)``;
    every other wire is left untouched.  The checks wrap it row by row
    (:meth:`ArraySpec.rowwise`); it serves user callables such as
    :func:`~repro.verify.asserts.assert_implements_function`'s, and
    :func:`array_function_spec` is its vectorized twin.
    """
    wires = tuple(wires)

    def spec(state: BasisState) -> BasisState:
        output = list(state)
        image = tuple(function(tuple(state[w] for w in wires)))
        if len(image) != len(wires):
            raise VerificationError("reference function returned wrong arity")
        for wire, digit in zip(wires, image):
            output[wire] = digit
        return tuple(output)

    return spec
