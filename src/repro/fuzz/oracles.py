"""Differential oracles: run one artifact through every redundant path.

The repo deliberately carries redundant implementations of the same
semantics — the object pass pipeline as the reference for columnar
lowering, object vs. table pass kernels, an op-by-op reference vs. fused
and whole-basis-gather simulation on every engine, analytic estimation vs.
materialised counting, circuits vs. their ``GateTable`` twins.  Each
oracle here runs one generated artifact through two or more of those paths
and reports the first divergence as a human-readable message (``None``
means every path agreed).

Oracles
-------
``round-trip``
    ``to_table()``/``to_circuit()`` is lossless: op identity gate-for-gate,
    and every column kernel (counts, depth, histogram, wires, inverse)
    agrees with the object implementation.
``backends``
    every registered simulation engine (``available_backends()`` — dense,
    sparse, anything registered by the caller) and the dense engine under a
    4 KiB memory budget through ``apply_table`` vs. the dense engine's
    op-by-op ``apply_op`` walk;
    for permutation circuits the table's whole-basis gather vs. one
    composed op by op from each op's ``permutation_table`` and vs. the
    scalar ``apply_to_basis`` path, and for the others the dense operator
    the table holds (``held_operator``) vs. the walk on the identity.
    A second, low-occupancy instance (permutation-heavy circuit, a
    superposition of a few basis states) targets the sparse engine's O(nnz)
    fast path, which dense random states would never reach.
``inverse``
    metamorphic check: ``circuit ∘ circuit.inverse()`` is the identity.
``passes``
    a random peephole pipeline run via ``Pass.run`` vs. ``run_table`` gives
    identical ops, identical history records, and preserves semantics.
``lowering``
    the reference object pass pipeline
    (``default_lowering_pipeline(max_sweeps=_MAX_PASSES).run``) vs.
    ``lower_to_g_gates``: both accept or both reject; on acceptance the
    outputs are gate-for-gate identical G-circuits implementing the input's
    permutation.
``estimator``
    analytic ``strategy.estimate(d, k)`` (exact strategies only) vs. the
    materialised-and-lowered ``count_gates`` metrics, wires and ancillas.
``synth-spec``
    refinement check: the synthesised circuit satisfies the strategy's own
    semantic specification (``strategy.verify``).

The module also hosts the fuzz driver (:func:`fuzz_run`): seeded case
generation, oracle dispatch, failure shrinking via :mod:`repro.fuzz.shrink`
and the JSON-able :class:`FuzzReport` the CLI and CI consume.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gate_counts import count_gates
from repro.core.lowering import _MAX_PASSES, lower_to_g_gates
from repro.exceptions import EstimationError, SynthesisError, VerificationError
from repro.passes import PassPipeline, default_lowering_pipeline
from repro.qudit.circuit import QuditCircuit
from repro.qudit.operations import Operation, StarShiftOp
from repro.resources.estimator import METRIC_FIELDS
from repro.sim import DenseBackend, available_backends, get_backend
from repro.sim.permutation import apply_to_basis, permutation_index_table
from repro.sim.unitary import held_operator
from repro.verify import VerificationBudget
from repro.utils.indexing import indices_to_digits
from repro.fuzz.generators import (
    SynthesisInstance,
    enrich_for_passes,
    random_circuit,
    random_circuit_scenario,
    random_low_occupancy_case,
    random_pipeline,
    random_synthesis_instance,
    sample_basis_states,
)

#: Registry of oracle names (the CLI's ``--oracle`` accepts any subset).
ORACLE_NAMES: Tuple[str, ...] = (
    "round-trip",
    "cache",
    "backends",
    "inverse",
    "passes",
    "lowering",
    "estimator",
    "synth-spec",
)

#: Largest basis a synthesis-instance semantic check will enumerate.
#: Beyond it the check switches to batched sampled index propagation
#: (exact per state, O(rows · samples), any register size) — never skips.
_SPEC_BASIS_LIMIT = 30_000

#: Samples for the batched index-propagation verify beyond the basis limit.
_SPEC_SAMPLES = 128

#: Tighter cap for dense-unitary verifies, which build a basis² matrix.
_SPEC_UNITARY_LIMIT = 1_024

#: Up to this basis, a strategy whose ``verify`` hands the verifier a column
#: oracle (``mcu-exponential``) is checked above the dense cap by evolving a
#: few pinned+sampled basis columns as one batch — one (basis, columns)
#: array, no basis² matrix.
_SPEC_SAMPLED_UNITARY_LIMIT = 65_536

#: Columns drawn for the sampled-column unitary verify (the strategy pins
#: its fired block on top of these).
_SPEC_COLUMN_SAMPLES = 4

#: Default budget of the ``synth-spec`` oracle: the caps above expressed as
#: one :class:`repro.verify.VerificationBudget`.  ``--verify-tier`` or
#: ``--verify-budget`` swaps in another budget instead.
FUZZ_VERIFY_BUDGET = VerificationBudget(
    max_basis_states=_SPEC_BASIS_LIMIT,
    samples=_SPEC_SAMPLES,
    max_dense_dim=_SPEC_UNITARY_LIMIT,
    sampled_columns=_SPEC_COLUMN_SAMPLES,
    max_column_basis=_SPEC_SAMPLED_UNITARY_LIMIT,
)


# ----------------------------------------------------------------------
# Op-level comparison shared by several oracles
# ----------------------------------------------------------------------
def describe_op_difference(first: QuditCircuit, second: QuditCircuit) -> Optional[str]:
    """First gate-for-gate difference between two circuits, or ``None``."""
    if len(first) != len(second):
        return f"op count differs: {len(first)} vs {len(second)}"
    for i, (a, b) in enumerate(zip(first.ops, second.ops)):
        if type(a) is not type(b):
            return f"op {i}: type {type(a).__name__} vs {type(b).__name__}"
        if a.target != b.target:
            return f"op {i}: target {a.target} vs {b.target}"
        if a.controls != b.controls:
            return f"op {i}: controls {a.controls} vs {b.controls}"
        if isinstance(a, StarShiftOp):
            if (a.star_wire, a.sign) != (b.star_wire, b.sign):
                return f"op {i}: star ({a.star_wire}, {a.sign}) vs ({b.star_wire}, {b.sign})"
        elif isinstance(a, Operation):
            if a.gate != b.gate:
                return f"op {i}: gate {a.gate.label} vs {b.gate.label}"
    return None


def _plain_copy(circuit: QuditCircuit) -> QuditCircuit:
    """The same op list with no cached table — forces the object paths."""
    return QuditCircuit(circuit.num_wires, circuit.dim, name=circuit.name).extend(circuit.ops)


# ----------------------------------------------------------------------
# Circuit oracles
# ----------------------------------------------------------------------
def check_table_round_trip(circuit: QuditCircuit) -> Optional[str]:
    """``to_table().to_circuit()`` is lossless and kernels match object code."""
    plain = _plain_copy(circuit)
    table = circuit.to_table()
    back = table.to_circuit()
    difference = describe_op_difference(plain, back)
    if difference:
        return f"round-trip changed ops: {difference}"
    queries: Sequence[Tuple[str, Callable[[QuditCircuit], object]]] = (
        ("num_ops", lambda c: c.num_ops()),
        ("depth", lambda c: c.depth()),
        ("two_qudit_count", lambda c: c.two_qudit_count()),
        ("single_qudit_count", lambda c: c.single_qudit_count()),
        ("multi_qudit_count", lambda c: c.multi_qudit_count()),
        ("g_gate_count", lambda c: c.g_gate_count()),
        ("controlled_g_gate_count", lambda c: c.controlled_g_gate_count()),
        ("max_span", lambda c: c.max_span()),
        ("used_wires", lambda c: c.used_wires()),
        ("targeted_wires", lambda c: c.targeted_wires()),
        ("label_histogram", lambda c: c.label_histogram()),
        ("is_permutation", lambda c: c.is_permutation),
        ("is_g_circuit", lambda c: c.is_g_circuit()),
    )
    for name, query in queries:
        object_value = query(plain)
        table_value = query(back)
        if object_value != table_value:
            return f"column kernel {name}: object {object_value!r} vs table {table_value!r}"
    inverse_difference = describe_op_difference(
        _plain_copy(circuit).inverse(), table.inverse().to_circuit()
    )
    if inverse_difference:
        return f"inverse kernel: {inverse_difference}"
    return None


def check_cache_serialization(circuit: QuditCircuit) -> Optional[str]:
    """Compile-cache oracle: a serialized-and-reloaded table equals a fresh one.

    Mirrors what the persistent cache does (``GateTable`` → ``.npz`` bytes →
    ``GateTable``) and compares the reloaded table against the freshly built
    one: identical columns, gate-for-gate identical ops, agreeing column
    kernels and identical simulation behaviour.
    """
    import io

    from repro.exec.serialize import load_table, save_table

    fresh = _plain_copy(circuit).to_table()
    buffer = io.BytesIO()
    save_table(buffer, fresh)
    buffer.seek(0)
    reloaded = load_table(buffer)
    if (reloaded.num_wires, reloaded.dim) != (fresh.num_wires, fresh.dim):
        return (
            f"reloaded shape ({reloaded.num_wires}, {reloaded.dim}) vs "
            f"({fresh.num_wires}, {fresh.dim})"
        )
    for name, fresh_col, reloaded_col in zip(
        ("opcode", "target", "wire_a", "wire_b", "pred_a", "pred_b", "payload", "extra"),
        fresh.columns,
        reloaded.columns,
    ):
        if not np.array_equal(fresh_col, reloaded_col):
            first = int(np.nonzero(fresh_col != reloaded_col)[0][0])
            return (
                f"column {name} changed at row {first}: "
                f"{int(fresh_col[first])} -> {int(reloaded_col[first])}"
            )
    difference = describe_op_difference(fresh.to_circuit(), reloaded.to_circuit())
    if difference:
        return f"deserialized ops differ: {difference}"
    kernels: Sequence[Tuple[str, Callable[[object], object]]] = (
        ("num_ops", lambda t: t.num_ops()),
        ("depth", lambda t: t.depth()),
        ("two_qudit_count", lambda t: t.two_qudit_count()),
        ("g_gate_count", lambda t: t.g_gate_count()),
        ("label_histogram", lambda t: t.label_histogram()),
        ("used_wires", lambda t: t.used_wires()),
        ("is_permutation", lambda t: t.is_permutation),
    )
    for name, kernel in kernels:
        fresh_value = kernel(fresh)
        reloaded_value = kernel(reloaded)
        if fresh_value != reloaded_value:
            return f"kernel {name}: fresh {fresh_value!r} vs reloaded {reloaded_value!r}"
    if fresh.is_permutation:
        if not np.array_equal(
            fresh.permutation_index_table(), reloaded.permutation_index_table()
        ):
            return "deserialized table simulates differently (gather tables differ)"
    else:
        data = _random_state(circuit.dim, circuit.num_wires, 7)
        dense = get_backend("dense")
        fresh_out = dense.apply_table(data.copy(), fresh)
        reloaded_out = dense.apply_table(data.copy(), reloaded)
        if not np.allclose(fresh_out, reloaded_out, atol=1e-12):
            deviation = float(np.max(np.abs(fresh_out - reloaded_out)))
            return f"deserialized table simulates differently (deviation {deviation:.3e})"
    return None


def _random_state(dim: int, num_wires: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = dim**num_wires
    data = rng.normal(size=size) + 1j * rng.normal(size=size)
    return data / np.linalg.norm(data)


#: The budgeted engine :func:`check_backends` runs beside the registered
#: ones: a state of more than 128 amplitudes is tiled (128 basis rows per
#: gather tile, a fraction of the cube per einsum block), and one of more
#: than 256 is memmap scratch.  A one-row budget (16 bytes) makes the oracle
#: about 4x slower (30 cases: 0.73 s against 0.17 s on a 2-vCPU Xeon VM);
#: ``tests/test_memory_budget.py`` checks one-row tiles bit for bit.
TILED_DENSE = DenseBackend(memory_budget=4096)


def check_backends(circuit: QuditCircuit, state_seed: int) -> Optional[str]:
    """Every *registered* simulation path agrees on a random state.

    The oracle iterates :func:`repro.sim.backend.available_backends`, so a
    backend registered after import (a user's custom engine) is fuzzed
    automatically, and runs :data:`TILED_DENSE` beside them — each fused
    ``apply_table`` path against the object-level reference: the dense
    engine's ``apply_op`` walk over the circuit's ops.  Every engine's
    ``apply_circuit`` goes through the same table, so the walk and a gather
    composed from each op's ``permutation_table`` are the only paths here
    that never read it.
    """
    data = _random_state(circuit.dim, circuit.num_wires, state_seed)
    plain = _plain_copy(circuit)
    dense = get_backend("dense")
    reference = data.copy()
    for op in plain:
        reference = dense.apply_op(reference, op, circuit.dim, circuit.num_wires)
    table = circuit.to_table()
    engines = {name: get_backend(name) for name in available_backends()}
    engines[f"dense (memory_budget={TILED_DENSE.memory_budget})"] = TILED_DENSE
    for backend_name, engine in engines.items():
        evolved = np.asarray(engine.apply_table(data.copy(), table))
        if not np.allclose(evolved, reference, atol=1e-9):
            deviation = float(np.max(np.abs(evolved - reference)))
            return (
                f"{backend_name} apply_table deviates from dense per-op by {deviation:.3e}"
            )
    if not circuit.is_permutation:
        return _check_held_operator(circuit, plain)
    object_table = np.arange(circuit.dim**circuit.num_wires)
    for op in plain:
        object_table = op.permutation_table(circuit.dim, circuit.num_wires)[object_table]
    columnar_table = table.permutation_index_table()
    if not np.array_equal(object_table, columnar_table):
        first = int(np.nonzero(object_table != columnar_table)[0][0])
        return (
            f"permutation gather tables differ at flat index {first}: "
            f"object {int(object_table[first])} vs table {int(columnar_table[first])}"
        )
    images = indices_to_digits(object_table, circuit.dim, circuit.num_wires)
    for state in sample_basis_states(circuit.dim, circuit.num_wires, 4, state_seed):
        flat = 0
        for digit in state:
            flat = flat * circuit.dim + digit
        scalar = apply_to_basis(plain, state)
        gathered = tuple(int(x) for x in images[flat])
        if scalar != gathered:
            return (
                f"apply_to_basis maps {state} to {scalar} but the gather table "
                f"gives {gathered}"
            )
    return None


def _check_held_operator(circuit: QuditCircuit, plain: QuditCircuit) -> Optional[str]:
    """The dense operator the table holds (up to
    :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` states) is read-only and
    equals the identity pushed through the dense ``apply_op`` walk."""
    held = held_operator(circuit)
    if held is None:
        return None
    if held.flags.writeable:
        return "the held dense operator is writable"
    dense = get_backend("dense")
    walked = np.eye(held.shape[0], dtype=complex)
    for op in plain:
        walked = dense.apply_op(walked, op, circuit.dim, circuit.num_wires)
    deviation = float(np.max(np.abs(held - walked)))
    if deviation > 1e-12:
        return f"held dense operator deviates from the per-op walk by {deviation:.3e}"
    return None


def check_backends_sparse(
    circuit: QuditCircuit, states: Sequence[Tuple[int, ...]]
) -> Optional[str]:
    """The sparse engine's O(nnz) *fast path* agrees with the dense engine.

    :func:`check_backends` feeds every engine dense random states (occupancy
    1.0), which only ever exercises the sparse engine's densify fallback.
    This check builds a superposition over a handful of basis states —
    the low-occupancy instance profile — so the index-gather and
    bounded-expansion path actually runs, and additionally pushes the same
    input through the :class:`~repro.sim.sparse.SparseState`-native entry
    point, asserting its sorted-unique index invariant on the way out.
    Permutation circuits must match **bit-for-bit** (indices propagate by
    exact integer arithmetic; amplitudes are only carried).
    """
    if "sparse" not in available_backends():  # pragma: no cover - always registered
        return None
    from repro.sim.sparse import SparseState

    dim, num_wires = circuit.dim, circuit.num_wires
    size = dim**num_wires
    # Normalise sampled states to the circuit (the shrinker may have dropped
    # wires or reduced the dimension since they were drawn).
    rows = [
        [(state[w] if w < len(state) else 0) % dim for w in range(num_wires)]
        for state in states
    ] or [[0] * num_wires]
    digits = np.asarray(rows, dtype=np.int64)
    strides = np.array([dim**e for e in range(num_wires - 1, -1, -1)], dtype=np.int64)
    indices = np.unique(digits @ strides)
    amplitudes = np.arange(1, indices.size + 1, dtype=complex)
    amplitudes /= np.linalg.norm(amplitudes)
    data = np.zeros(size, dtype=complex)
    data[indices] = amplitudes

    table = circuit.to_table()
    reference = get_backend("dense").apply_table(data.copy(), table)
    engine = get_backend("sparse")
    evolved = np.asarray(engine.apply_table(data.copy(), table))
    if circuit.is_permutation:
        if not np.array_equal(evolved, reference):
            first = int(np.nonzero(evolved != reference)[0][0])
            return (
                f"sparse apply_table differs from dense on a permutation circuit "
                f"at flat index {first}: {evolved[first]} vs {reference[first]} "
                "(must be bit-for-bit)"
            )
    elif not np.allclose(evolved, reference, atol=1e-9):
        deviation = float(np.max(np.abs(evolved - reference)))
        return f"sparse apply_table deviates from dense by {deviation:.3e}"

    state = SparseState(num_wires, dim, indices, amplitudes)
    out = engine.apply_table_sparse(state, table)
    if out.nnz:
        if out.indices.min() < 0 or out.indices.max() >= size:
            return "sparse-native result holds an out-of-range basis index"
        if out.nnz > 1 and not bool((np.diff(out.indices) > 0).all()):
            return "sparse-native result broke the sorted-unique index invariant"
    dense_of_sparse = out.to_dense()
    if circuit.is_permutation:
        if not np.array_equal(dense_of_sparse, reference):
            return "SparseState-native path differs from dense on a permutation circuit"
    elif not np.allclose(dense_of_sparse, reference, atol=1e-9):
        deviation = float(np.max(np.abs(dense_of_sparse - reference)))
        return f"SparseState-native path deviates from dense by {deviation:.3e}"
    return None


def check_inverse_identity(circuit: QuditCircuit, state_seed: int) -> Optional[str]:
    """Metamorphic: applying the circuit then its inverse is the identity."""
    composed = _plain_copy(circuit).compose(circuit.inverse())
    if circuit.is_permutation:
        table = permutation_index_table(composed)
        if not np.array_equal(table, np.arange(table.size)):
            offender = int(np.nonzero(table != np.arange(table.size))[0][0])
            return (
                f"circuit∘inverse moves basis state {offender} to {int(table[offender])}"
            )
        return None
    data = _random_state(circuit.dim, circuit.num_wires, state_seed)
    evolved = get_backend("dense").apply_circuit(data.copy(), composed)
    if not np.allclose(evolved, data, atol=1e-8):
        deviation = float(np.max(np.abs(evolved - data)))
        return f"circuit∘inverse deviates from identity by {deviation:.3e}"
    return None


def check_pass_equivalence(circuit: QuditCircuit, pipeline: PassPipeline) -> Optional[str]:
    """``Pass.run`` vs ``run_table``: identical output, records, semantics."""
    plain = _plain_copy(circuit)
    expected = pipeline.run(plain)
    object_history = [(r.pass_name, r.ops_before, r.ops_after) for r in pipeline.history]
    actual_table = pipeline.run_table(circuit.to_table())
    table_history = [(r.pass_name, r.ops_before, r.ops_after) for r in pipeline.history]
    if object_history != table_history:
        return f"pipeline records differ: object {object_history} vs table {table_history}"
    difference = describe_op_difference(expected, actual_table.to_circuit())
    if difference:
        return f"object vs table pass output: {difference}"
    if expected.num_ops() > plain.num_ops():
        return (
            f"optimization passes grew the circuit: {plain.num_ops()} -> "
            f"{expected.num_ops()} ops"
        )
    if circuit.is_permutation:
        before = permutation_index_table(_plain_copy(circuit))
        after = permutation_index_table(_plain_copy(expected))
        if not np.array_equal(before, after):
            offender = int(np.nonzero(before != after)[0][0])
            return (
                f"pass pipeline changed semantics: basis state {offender} maps to "
                f"{int(before[offender])} before but {int(after[offender])} after"
            )
    return None


def check_lowering_engines(circuit: QuditCircuit) -> Optional[str]:
    """Reference vs table lowering: same acceptance, gate-for-gate same output."""
    reference = default_lowering_pipeline(max_sweeps=_MAX_PASSES).run
    outcomes = {}
    for engine, lower in (("object", reference), ("table", lower_to_g_gates)):
        try:
            outcomes[engine] = lower(_plain_copy(circuit))
        except SynthesisError as error:
            outcomes[engine] = error
    object_out, table_out = outcomes["object"], outcomes["table"]
    if isinstance(object_out, SynthesisError) != isinstance(table_out, SynthesisError):
        accepted = "table" if isinstance(object_out, SynthesisError) else "object"
        rejected_error = object_out if isinstance(object_out, SynthesisError) else table_out
        return (
            f"only the {accepted} engine lowered the circuit; the other raised: "
            f"{rejected_error}"
        )
    if isinstance(object_out, SynthesisError):
        return None  # both engines agree the circuit is not lowerable
    for engine, lowered in (("object", object_out), ("table", table_out)):
        if not lowered.is_g_circuit():
            return f"{engine} engine output is not a G-circuit"
    difference = describe_op_difference(object_out, table_out)
    if difference:
        return f"object vs table lowering: {difference}"
    before = permutation_index_table(_plain_copy(circuit))
    after = permutation_index_table(table_out)
    if not np.array_equal(before, after):
        offender = int(np.nonzero(before != after)[0][0])
        return (
            f"lowering changed semantics: basis state {offender} maps to "
            f"{int(before[offender])} before but {int(after[offender])} after lowering"
        )
    return None


# ----------------------------------------------------------------------
# Synthesis-instance oracles
# ----------------------------------------------------------------------
def check_estimator(instance: SynthesisInstance) -> Optional[str]:
    """Analytic prediction vs materialised counts (exact strategies only).

    Strategies whose estimate legitimately does not exist at an instance
    (non-affine calibration, no borrowable wire at tiny ``k``) and model
    (``exact=False``) estimates are skipped — the oracle checks the exact
    analytic path, where any mismatch is a bug by definition.
    """
    from repro.synth import registry

    strategy = registry.get(instance.strategy)
    try:
        resources = strategy.estimate(instance.dim, instance.k)
    except (EstimationError, SynthesisError):
        return None
    if not resources.exact:
        return None
    result = strategy.synthesize(instance.dim, instance.k)
    report = count_gates(result, lower=True)
    for metric in METRIC_FIELDS:
        predicted = getattr(resources, metric)
        measured = getattr(report, metric)
        if predicted != measured:
            return (
                f"{instance.describe()}: estimator predicts {metric}={predicted} "
                f"but the materialised circuit has {measured}"
            )
    if resources.num_wires != report.num_wires:
        return (
            f"{instance.describe()}: estimator predicts {resources.num_wires} wires "
            f"but the circuit has {report.num_wires}"
        )
    if dict(resources.ancillas) != dict(report.ancillas):
        return (
            f"{instance.describe()}: estimator predicts ancillas "
            f"{dict(resources.ancillas)} but the circuit has {dict(report.ancillas)}"
        )
    return None


def check_synthesis_semantics(
    instance: SynthesisInstance,
    *,
    budget=FUZZ_VERIFY_BUDGET,
    tier_hits: Optional[Dict[str, int]] = None,
) -> Optional[str]:
    """Refinement check: the synthesised circuit meets its own specification.

    Routed through the tiered verifier (:mod:`repro.verify`): the strategy's
    ``verify`` escalates structural → sampled → exhaustive under ``budget``
    (default :data:`FUZZ_VERIFY_BUDGET`, the oracle's caps — exhaustive up
    to ``_SPEC_BASIS_LIMIT`` basis states, then batched
    sampled index propagation; dense unitary compares up to
    ``_SPEC_UNITARY_LIMIT``, then sampled columns up to
    ``_SPEC_SAMPLED_UNITARY_LIMIT``).  A budget too tight to decide an
    instance counts as a skip, never a pass.  ``tier_hits`` (when given)
    accumulates one count per decided instance keyed by the deciding tier
    name, plus ``"undecided"`` for the skips — the CI fuzz report exposes
    these counters.
    """
    from repro.synth import registry

    strategy = registry.get(instance.strategy)
    try:
        result = strategy.synthesize(instance.dim, instance.k)
    except SynthesisError as error:
        return f"{instance.describe()}: supported instance failed to synthesise: {error}"
    try:
        outcome = strategy.verify(result.circuit, instance.dim, instance.k, budget=budget)
    except NotImplementedError:
        return None
    except VerificationError as error:
        return f"{instance.describe()}: {error}"
    if tier_hits is not None:
        decided = getattr(outcome, "decided_by", None) or "undecided"
        tier_hits[decided] = tier_hits.get(decided, 0) + 1
    return None


# ----------------------------------------------------------------------
# Driver: seeded cases, dispatch, shrinking, report
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """One confirmed disagreement between redundant paths."""

    oracle: str
    case_seed: int
    message: str
    circuit: Optional[QuditCircuit] = None
    instance: Optional[SynthesisInstance] = None
    original_ops: Optional[int] = None
    recheck: Optional[Callable] = None

    def to_json(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "oracle": self.oracle,
            "case_seed": self.case_seed,
            "message": self.message,
        }
        if self.circuit is not None:
            entry["reproducer"] = {
                "num_wires": self.circuit.num_wires,
                "dim": self.circuit.dim,
                "num_ops": self.circuit.num_ops(),
                "ops": [repr(op) for op in self.circuit.ops],
            }
            if self.original_ops is not None:
                entry["original_ops"] = self.original_ops
        if self.instance is not None:
            entry["instance"] = {
                "strategy": self.instance.strategy,
                "d": self.instance.dim,
                "k": self.instance.k,
            }
        return entry


@dataclass
class FuzzReport:
    """Outcome of one fuzzing session (JSON-able for the CI artifact)."""

    seed: int
    cases: int = 0
    elapsed_seconds: float = 0.0
    oracle_runs: Dict[str, int] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    #: Per-tier decision counters from the ``synth-spec`` oracle: how many
    #: instances each verification tier decided (plus ``"undecided"`` skips).
    tier_hits: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "oracle_runs": dict(self.oracle_runs),
            "tier_hits": dict(self.tier_hits),
            "ok": self.ok,
            "divergences": [d.to_json() for d in self.divergences],
        }


def _record(report: FuzzReport, oracle: str) -> None:
    report.oracle_runs[oracle] = report.oracle_runs.get(oracle, 0) + 1


def _guard(oracle: str, check: Callable[[], Optional[str]]) -> Optional[str]:
    """Run one oracle; an unexpected crash is itself a reportable finding."""
    try:
        return check()
    except Exception as error:  # noqa: BLE001 - crashes are fuzz findings
        return f"oracle crashed: {type(error).__name__}: {error}"


def fuzz_case(
    case_seed: int,
    enabled: Sequence[str],
    report: FuzzReport,
    verify_budget=FUZZ_VERIFY_BUDGET,
) -> List[Divergence]:
    """Generate one seeded case and run every enabled oracle on it."""
    rng = random.Random(case_seed)
    found: List[Divergence] = []

    def run(oracle: str, circuit: Optional[QuditCircuit], check: Callable[[], Optional[str]],
            recheck: Optional[Callable] = None, instance: Optional[SynthesisInstance] = None) -> None:
        if oracle not in enabled:
            return
        _record(report, oracle)
        message = _guard(oracle, check)
        if message is not None:
            found.append(
                Divergence(
                    oracle=oracle,
                    case_seed=case_seed,
                    message=message,
                    circuit=circuit,
                    instance=instance,
                    original_ops=circuit.num_ops() if circuit is not None else None,
                    recheck=recheck,
                )
            )

    # -- general circuit: round-trip / backends / inverse -------------------
    scenario = random_circuit_scenario(rng)
    state_seed = rng.randrange(2**32)
    general = random_circuit(rng, **scenario)
    run("round-trip", general, lambda: check_table_round_trip(general),
        recheck=check_table_round_trip)
    run("cache", general, lambda: check_cache_serialization(general),
        recheck=check_cache_serialization)
    run("backends", general, lambda: check_backends(general, state_seed),
        recheck=lambda c: check_backends(c, state_seed))

    # -- low-occupancy profile: the sparse engine's fast path ---------------
    sparse_circuit, sparse_states = random_low_occupancy_case(rng)
    run("backends", sparse_circuit,
        lambda: check_backends_sparse(sparse_circuit, sparse_states),
        recheck=lambda c: check_backends_sparse(c, sparse_states))
    run("inverse", general, lambda: check_inverse_identity(general, state_seed),
        recheck=lambda c: check_inverse_identity(c, state_seed))

    # -- enriched circuit through a random peephole pipeline ----------------
    pipeline = random_pipeline(rng)
    enriched = enrich_for_passes(rng, general)
    run("passes", enriched, lambda: check_pass_equivalence(enriched, pipeline),
        recheck=lambda c: check_pass_equivalence(c, pipeline))

    # -- lowerable circuit through both lowering engines --------------------
    lowerable_scenario = random_circuit_scenario(rng)
    lowerable_scenario["num_wires"] = max(2, int(lowerable_scenario["num_wires"]))
    lowerable = random_circuit(rng, lowerable=True, **lowerable_scenario)
    run("lowering", lowerable, lambda: check_lowering_engines(lowerable),
        recheck=check_lowering_engines)

    # -- synthesis instance: estimator + semantic spec ----------------------
    instance = random_synthesis_instance(rng)
    run("estimator", None, lambda: check_estimator(instance),
        recheck=check_estimator, instance=instance)
    run("synth-spec", None,
        lambda: check_synthesis_semantics(
            instance, budget=verify_budget, tier_hits=report.tier_hits
        ),
        recheck=lambda inst: check_synthesis_semantics(inst, budget=verify_budget),
        instance=instance)

    return found


def _shrink_divergence(divergence: Divergence) -> None:
    """Minimise the failing artifact in place (never raises)."""
    from repro.fuzz.shrink import shrink_circuit, shrink_instance

    recheck = divergence.recheck
    if recheck is None:
        return

    def fails(artifact) -> bool:
        try:
            return _guard(divergence.oracle, lambda: recheck(artifact)) is not None
        except Exception:  # pragma: no cover - _guard already catches
            return False

    try:
        if divergence.circuit is not None:
            divergence.circuit = shrink_circuit(divergence.circuit, fails)
        elif divergence.instance is not None:
            divergence.instance = shrink_instance(divergence.instance, fails)
    except Exception:  # noqa: BLE001 - shrinking must never mask the finding
        pass


def fuzz_run(
    *,
    seed: int = 0,
    time_budget: Optional[float] = None,
    max_cases: Optional[int] = None,
    oracles: Optional[Sequence[str]] = None,
    shrink: bool = True,
    stop_on_first: bool = False,
    verify_budget=FUZZ_VERIFY_BUDGET,
) -> FuzzReport:
    """Fuzz until the wall-clock budget or the case budget is exhausted.

    Case ``i`` of a session with seed ``s`` is fully reproduced by
    ``fuzz_case(s + i, ...)`` — the report records each failing case's seed
    so a CI finding replays locally with ``--seed``.

    ``verify_budget`` (a :class:`repro.verify.VerificationBudget` or preset
    name; ``None`` means ``standard``, as everywhere) bounds the
    ``synth-spec`` oracle's verification cost; it defaults to
    :data:`FUZZ_VERIFY_BUDGET`.
    """
    enabled = tuple(oracles) if oracles else ORACLE_NAMES
    unknown = [name for name in enabled if name not in ORACLE_NAMES]
    if unknown:
        raise ValueError(f"unknown oracle(s) {unknown}; known: {list(ORACLE_NAMES)}")
    if time_budget is None and max_cases is None:
        raise ValueError("fuzz_run needs a time_budget or a max_cases bound")
    report = FuzzReport(seed=seed)
    start = time.monotonic()
    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if time_budget is not None and time.monotonic() - start >= time_budget:
            break
        found = fuzz_case(seed + index, enabled, report, verify_budget=verify_budget)
        if shrink:
            for divergence in found:
                _shrink_divergence(divergence)
        report.divergences.extend(found)
        report.cases += 1
        index += 1
        if stop_on_first and report.divergences:
            break
    report.elapsed_seconds = time.monotonic() - start
    return report


__all__ = [
    "FUZZ_VERIFY_BUDGET",
    "ORACLE_NAMES",
    "Divergence",
    "FuzzReport",
    "check_backends",
    "check_cache_serialization",
    "check_estimator",
    "check_inverse_identity",
    "check_lowering_engines",
    "check_pass_equivalence",
    "check_synthesis_semantics",
    "check_table_round_trip",
    "describe_op_difference",
    "fuzz_case",
    "fuzz_run",
]
