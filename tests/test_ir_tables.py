"""Columnar IR tests: round-tripping, column kernels, table-native passes.

The contract under test is *lossless equivalence*: ``to_table().to_circuit()``
preserves op identity gate-for-gate, every column kernel agrees with the
object-level implementation it replaces, and the table lowering engine is
gate-for-gate identical to the object pipeline.
"""

import json
import random

import numpy as np
import pytest

from repro import lower_to_g_gates, synthesize_mct
from repro.core.lowering import _MAX_PASSES
from repro.exceptions import DimensionError, WireError
from repro.fuzz import generators as fuzz_generators
from repro.ir import (
    GateTable,
    cancel_adjacent_inverses,
    drop_identities,
    fuse_single_qudit,
    lower_circuit_to_table,
)
from repro.passes import (
    CancelAdjacentInverses,
    DropIdentities,
    FuseSingleQuditGates,
    PassPipeline,
    default_lowering_pipeline,
)
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import XPerm, XPlus
from repro.qudit.operations import Operation, StarShiftOp
from repro.sim import (
    DenseBackend,
    Statevector,
    available_backends,
    get_backend,
    permutation_index_table,
)
from repro.sim.permutation import GATHER_MAX_STATES
from repro.synth import registry as synth_registry


# ----------------------------------------------------------------------
# Randomized circuit generator (property-style) — one seeded code path
# shared with the fuzzing subsystem (repro.fuzz.generators).
# ----------------------------------------------------------------------
def random_circuit(seed, num_wires=5, dim=3, num_ops=40, *, allow_unitary=True):
    """Mixed XPerm/XPlus/unitary/star ops with random-predicate controls."""
    weights = dict(fuzz_generators.DEFAULT_OP_WEIGHTS)
    if not allow_unitary:
        weights["unitary"] = 0.0
    return fuzz_generators.random_circuit(
        seed,
        num_wires=num_wires,
        dim=dim,
        num_ops=num_ops,
        op_weights=weights,
        max_controls=3,
        name=f"random-{seed}",
    )


def assert_ops_identical(first, second):
    """Gate-for-gate op identity: type, wires, controls, payload, label."""
    assert len(first) == len(second)
    for i, (a, b) in enumerate(zip(first.ops, second.ops)):
        assert type(a) is type(b), f"op {i}: {type(a)} vs {type(b)}"
        assert a.target == b.target, f"op {i}"
        assert a.controls == b.controls, f"op {i}"
        if isinstance(a, StarShiftOp):
            assert (a.star_wire, a.sign) == (b.star_wire, b.sign), f"op {i}"
        else:
            assert a.gate == b.gate, f"op {i}"
            assert a.gate.label == b.gate.label, f"op {i}"


# ----------------------------------------------------------------------
# Round-tripping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_round_trip_preserves_ops_and_counts(seed):
    circuit = random_circuit(seed, num_wires=5, dim=3 + seed % 3)
    table = circuit.to_table()
    back = table.to_circuit()
    assert_ops_identical(circuit, back)
    assert back.num_ops() == circuit.num_ops()
    assert back.depth() == circuit.depth()
    assert back.two_qudit_count() == circuit.two_qudit_count()
    assert back.single_qudit_count() == circuit.single_qudit_count()
    assert back.multi_qudit_count() == circuit.multi_qudit_count()
    assert back.g_gate_count() == circuit.g_gate_count()
    assert back.label_histogram() == circuit.label_histogram()
    assert back.used_wires() == circuit.used_wires()
    assert back.targeted_wires() == circuit.targeted_wires()
    assert back.max_span() == circuit.max_span()
    assert back.is_permutation == circuit.is_permutation


@pytest.mark.parametrize("seed", range(4))
def test_round_trip_preserves_simulation_on_both_backends(seed):
    circuit = random_circuit(seed, num_wires=4, dim=3, num_ops=25)
    table_backed = circuit.to_table().to_circuit()
    rng = np.random.default_rng(seed)
    size = circuit.dim**circuit.num_wires
    data = rng.normal(size=size) + 1j * rng.normal(size=size)
    data /= np.linalg.norm(data)
    for backend in available_backends():
        expected = Statevector(circuit.num_wires, circuit.dim, data, backend=backend)
        # Per-op object path on a table-free copy of the same op list.
        plain = QuditCircuit(circuit.num_wires, circuit.dim).extend(circuit.ops)
        assert plain.cached_table is None
        expected.apply_circuit(plain)
        actual = Statevector(circuit.num_wires, circuit.dim, data, backend=backend)
        actual.apply_circuit(table_backed)
        np.testing.assert_allclose(actual.data, expected.data, atol=1e-10)


def test_permutation_circuit_index_table_matches_object_path():
    circuit = random_circuit(11, num_wires=4, dim=3, allow_unitary=False)
    assert circuit.is_permutation
    object_path = permutation_index_table(
        QuditCircuit(circuit.num_wires, circuit.dim).extend(circuit.ops)
    )
    table_path = circuit.to_table().permutation_index_table()
    np.testing.assert_array_equal(object_path, table_path)


def test_g_gate_mask_requires_xperm_class():
    # XPlus(2, 1) permutes like the transposition (0 1) but is not an XPerm,
    # so Operation.is_g_gate rejects it; the column kernel must agree.
    circuit = QuditCircuit(2, 2)
    circuit.append(Operation(XPlus(2, 1), 0))
    circuit.append(Operation(XPerm.transposition(2, 0, 1), 1))
    object_count = circuit.count(lambda op: op.is_g_gate(circuit.dim))
    table = circuit.to_table()
    assert table.g_gate_count() == object_count == 1
    assert not table.is_g_circuit()
    assert table.controlled_g_gate_count() == 0


def test_payload_interning_shares_entries():
    dim = 3
    circuit = QuditCircuit(3, dim)
    for _ in range(50):
        circuit.add_gate(XPerm.transposition(dim, 0, 1), 0)
        circuit.add_gate(XPerm.transposition(dim, 0, 1), 1, [(0, Value(0))])
    table = circuit.to_table()
    assert len(table) == 100
    assert len(table.pools.perms) == 1  # one interned payload for all 100 rows
    assert len(table.pools.preds) == 1
    ops = table.to_ops()
    assert ops[0] is ops[2]  # structurally equal rows share one instance


# ----------------------------------------------------------------------
# Column kernels vs object implementations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 7])
def test_table_inverse_matches_object_inverse(seed):
    circuit = random_circuit(seed, num_wires=4, dim=4)
    table_inverse = circuit.to_table().inverse().to_circuit()
    plain = QuditCircuit(circuit.num_wires, circuit.dim).extend(circuit.ops)
    assert_ops_identical(plain.inverse(), table_inverse)


def test_table_backed_inverse_round_trips_simulation():
    circuit = random_circuit(5, num_wires=4, dim=3, allow_unitary=False)
    lowered_style = circuit.to_table().to_circuit()
    composed = circuit.copy().compose(lowered_style.inverse())
    table = composed.to_table()
    np.testing.assert_array_equal(
        table.permutation_index_table(), np.arange(circuit.dim**circuit.num_wires)
    )


@pytest.mark.parametrize("seed", [2, 9])
def test_table_remap_matches_object_remap(seed):
    circuit = random_circuit(seed, num_wires=4, dim=3)
    mapping = {0: 2, 1: 5, 2: 0, 3: 3}
    plain = QuditCircuit(circuit.num_wires, circuit.dim).extend(circuit.ops)
    expected = plain.remap_wires(mapping, num_wires=6)
    actual = circuit.to_table().remap_wires(mapping, num_wires=6).to_circuit()
    assert actual.num_wires == expected.num_wires == 6
    assert_ops_identical(expected, actual)


def test_table_remap_missing_wire_raises():
    circuit = random_circuit(1, num_wires=4, dim=3)
    with pytest.raises(WireError):
        circuit.to_table().remap_wires({0: 0})


# ----------------------------------------------------------------------
# Table-native passes == object passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_table_passes_match_object_passes(seed):
    circuit = random_circuit(seed, num_wires=5, dim=3 + seed % 2, num_ops=60)
    # Seed some guaranteed cancellations/identities/fusions into the stream.
    rng = random.Random(1000 + seed)
    ops = circuit.ops
    for op in list(ops[: len(ops) // 2]):
        if rng.random() < 0.5:
            ops.insert(rng.randrange(len(ops)), XPerm.identity(circuit.dim))  # type: ignore[arg-type]
    ops = [
        op if not isinstance(op, XPerm) else Operation(op, rng.randrange(circuit.num_wires))
        for op in ops
    ]
    seeded = QuditCircuit(circuit.num_wires, circuit.dim).extend(ops)
    inverse_tail = seeded.inverse()
    full = seeded.copy().compose(inverse_tail)  # guarantees a cascade of cancellations

    for object_pass, kernel in [
        (DropIdentities(), drop_identities),
        (CancelAdjacentInverses(), cancel_adjacent_inverses),
        (FuseSingleQuditGates(), fuse_single_qudit),
    ]:
        expected = object_pass.run(full)
        actual = kernel(full.to_table()).to_circuit()
        assert_ops_identical(expected, actual)
        via_run_table = object_pass.run_table(full.to_table()).to_circuit()
        assert_ops_identical(expected, via_run_table)


def test_pipeline_run_table_stays_columnar():
    circuit = random_circuit(4, num_wires=4, dim=3, num_ops=30)
    pipeline = PassPipeline(
        [DropIdentities(), CancelAdjacentInverses(), FuseSingleQuditGates()], name="peephole"
    )
    expected = pipeline.run(circuit)
    records_object = list(pipeline.history)
    actual = pipeline.run_table(circuit.to_table())
    assert isinstance(actual, GateTable)
    assert [(r.pass_name, r.ops_before, r.ops_after) for r in pipeline.history] == [
        (r.pass_name, r.ops_before, r.ops_after) for r in records_object
    ]
    assert_ops_identical(expected, actual.to_circuit())


# ----------------------------------------------------------------------
# Lowering: the table engine vs the object pass pipeline (the reference)
# ----------------------------------------------------------------------
def reference_lowering(circuit):
    return default_lowering_pipeline(max_sweeps=_MAX_PASSES).run(circuit)


def assert_cancel_pass_matches(circuit, remap=None):
    """The cancel kernel against the object pass on two probes of ``circuit``.

    Followed by its inverse, every row cancels in one cascade; with each row
    doubled, only involutions cancel, so the signatures and the numeric
    dense check must say no to the rest.  ``remap`` (wire map, wire count)
    relabels both probes' tables first.
    """
    mirrored = circuit.copy().compose(circuit.inverse())
    doubled = QuditCircuit(circuit.num_wires, circuit.dim).extend(
        [op for op in circuit.ops for _ in range(2)]
    )
    for probe in (mirrored, doubled):
        table = probe.to_table()
        if remap is not None:
            table = table.remap_wires(*remap)
        assert_ops_identical(
            CancelAdjacentInverses().run(table.to_circuit()),
            cancel_adjacent_inverses(table).to_circuit(),
        )


def overflow_circuit(dim, num_wires):
    """Random ops with up to three controls, so some rows fill the overflow column."""
    circuit = fuzz_generators.random_circuit(
        7, num_wires=num_wires, dim=dim, num_ops=60, max_controls=3, name="overflow"
    )
    assert (circuit.to_table().extra >= 0).any()
    return circuit


#: (strategy, d, k) cases; ``"overflow"`` is :func:`overflow_circuit`.  The
#: k = 11 cases are the sizes the estimator calibrates on.  Circuits with
#: dense-unitary rows (mcu-exponential, the overflow table) are not lowered,
#: so only their cancel pass is compared.
LOWERING_CASES = [
    pytest.param("mct", 3, 3, id="3-3"),
    pytest.param("mct", 4, 3, id="4-3"),
    pytest.param("mct", 5, 2, id="5-2"),
    pytest.param("mct", 6, 2, id="6-2"),
    pytest.param("mct", 3, 11, id="mct-3-11"),
    pytest.param("mct", 4, 11, id="mct-4-11"),
    pytest.param("pk", 3, 11, id="pk-3-11"),
    pytest.param("mct-clean-ladder", 3, 6, id="mct-clean-ladder-3-6"),
    pytest.param("mcu-exponential", 3, 3, id="mcu-exponential-3-3"),
    pytest.param("reversible", 4, 3, id="reversible-4-3"),
    pytest.param("reversible", 5, 2, id="reversible-5-2"),
    pytest.param("overflow", 3, 5, id="overflow-3-5"),
]


@pytest.mark.parametrize("strategy,dim,k", LOWERING_CASES)
def test_lowering_engines_gate_for_gate_identical(strategy, dim, k):
    if strategy == "overflow":
        circuit = overflow_circuit(dim, k)
    else:
        # The registry seeds the reversible strategy's random function.
        circuit = synth_registry.synthesize(strategy, dim, k).circuit
    # The cancel pass alone on macro rows: star, dense-unitary and
    # overflow-control rows.
    assert_cancel_pass_matches(circuit)
    if not circuit.is_permutation:
        return  # dense payloads are not lowered to G-gates
    object_path = reference_lowering(circuit)
    table_path = lower_to_g_gates(circuit)
    assert table_path.cached_table is not None
    assert table_path.is_g_circuit()
    assert_ops_identical(object_path, table_path)
    assert object_path.g_gate_count() == table_path.g_gate_count()
    assert object_path.depth() == table_path.depth()
    if dim**circuit.num_wires <= GATHER_MAX_STATES:
        np.testing.assert_array_equal(
            permutation_index_table(object_path), permutation_index_table(table_path)
        )


def test_cancel_pass_renumbers_signature_keys_before_they_overflow(monkeypatch):
    """A tiny packing limit forces the dense renumbering that keeps the
    packed row signatures inside int64 on wide registers and large pools."""
    from repro.ir import rewrite

    circuit = overflow_circuit(4, 5)
    mirrored = circuit.copy().compose(circuit.inverse()).to_table()

    def classes():
        # Which of the rows' signatures and inverse signatures are equal.
        sig, inv_sig = rewrite._row_signatures(mirrored)
        return np.unique(np.concatenate([sig, inv_sig]), return_inverse=True)[1]

    packed = classes()
    monkeypatch.setattr(rewrite, "_PACK_LIMIT", 64)
    np.testing.assert_array_equal(classes(), packed)
    assert_cancel_pass_matches(circuit)


def test_cancel_pass_on_a_register_wider_than_int16_keys():
    """Past 32,767 wires the wire incidences sort on int64 keys; wires
    65,536 apart would share an int16 key."""
    mapping = {0: 0, 1: 65536, 2: 1, 3: 65537, 4: 2}
    assert_cancel_pass_matches(overflow_circuit(3, 5), remap=(mapping, 65538))


def test_lower_circuit_to_table_counts_without_materialising():
    result = synthesize_mct(3, 4)
    table = lower_circuit_to_table(result.circuit)
    lowered = reference_lowering(result.circuit)
    assert table.num_ops() == lowered.num_ops()
    assert table.g_gate_count() == lowered.g_gate_count()
    assert table.two_qudit_count() == lowered.two_qudit_count()
    assert table.depth() == lowered.depth()
    assert table.is_g_circuit()


# ----------------------------------------------------------------------
# Simulation fast path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend",
    ["dense", pytest.param(DenseBackend(memory_budget=1024), id="dense-budgeted"), "sparse"],
)
def test_apply_table_matches_per_op_application(backend):
    circuit = random_circuit(6, num_wires=4, dim=3, num_ops=30)
    engine = get_backend(backend)
    rng = np.random.default_rng(6)
    size = circuit.dim**circuit.num_wires
    data = rng.normal(size=size) + 1j * rng.normal(size=size)
    expected = data.copy()
    for op in circuit:
        expected = engine.apply_op(expected, op, circuit.dim, circuit.num_wires)
    actual = engine.apply_table(data.copy(), circuit.to_table())
    np.testing.assert_allclose(actual, expected, atol=1e-10)


def test_statevector_uses_table_fast_path_for_lowered_circuits():
    result = synthesize_mct(3, 3)
    lowered = lower_to_g_gates(result.circuit)
    assert lowered.cached_table is not None
    state = Statevector.uniform(lowered.num_wires, 3)
    reference = Statevector.uniform(lowered.num_wires, 3)
    state.apply_circuit(lowered)
    for op in lowered.ops:
        reference.apply_op(op)
    np.testing.assert_allclose(state.data, reference.data, atol=1e-12)


# ----------------------------------------------------------------------
# Circuit integration: laziness, invalidation, compose fast path
# ----------------------------------------------------------------------
def test_mutation_invalidates_cached_table():
    circuit = random_circuit(8, num_wires=3, dim=3, num_ops=10)
    table = circuit.to_table()
    assert circuit.cached_table is table
    circuit.add_gate(XPerm.transposition(3, 0, 2), 1)
    assert circuit.cached_table is None
    assert circuit.to_table().num_ops() == 11


def test_compose_skips_revalidation_but_checks_shape():
    small = QuditCircuit(2, 3).add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
    host = QuditCircuit(4, 3)
    host.compose(small)
    assert host.num_ops() == 1
    with pytest.raises(DimensionError):
        host.compose(QuditCircuit(2, 4).add_gate(XPerm.transposition(4, 0, 1), 0))
    with pytest.raises(WireError):
        small.compose(host)


def test_extend_still_validates_raw_ops():
    circuit = QuditCircuit(2, 3)
    good = Operation(XPerm.transposition(3, 0, 1), 0)
    bad = Operation(XPerm.transposition(3, 0, 1), 5)
    with pytest.raises(WireError):
        circuit.extend([good, bad])
    assert circuit.num_ops() == 0  # atomicity preserved


def test_table_backed_circuit_materialises_lazily():
    result = synthesize_mct(3, 3)
    lowered = lower_to_g_gates(result.circuit)
    assert lowered._ops is None  # counting queries must not materialise
    lowered.g_gate_count(), lowered.depth(), lowered.two_qudit_count()
    assert lowered._ops is None
    _ = lowered.ops  # iteration materialises on demand
    assert lowered._ops is not None


# ----------------------------------------------------------------------
# Edge cases the fuzzer is expected to reach
# ----------------------------------------------------------------------
def test_empty_circuit_table_round_trip_and_kernels():
    circuit = QuditCircuit(3, 3, name="empty")
    table = circuit.to_table()
    assert len(table) == 0
    back = table.to_circuit()
    assert back.num_ops() == 0
    assert back.depth() == 0
    assert back.two_qudit_count() == 0
    assert back.g_gate_count() == 0
    assert back.max_span() == 0
    assert back.used_wires() == ()
    assert back.label_histogram() == {}
    assert back.is_g_circuit()  # vacuously
    assert table.inverse().num_ops() == 0
    np.testing.assert_array_equal(table.permutation_index_table(), np.arange(27))
    state = Statevector(3, 3)
    state.apply_circuit(back)
    assert state.probability((0, 0, 0)) == pytest.approx(1.0)
    lowered = lower_to_g_gates(circuit)
    assert lowered.num_ops() == 0


def test_width_one_circuit_table_round_trip_and_sim():
    circuit = QuditCircuit(1, 4, name="width-1")
    circuit.add_gate(XPerm.transposition(4, 0, 3), 0)
    circuit.add_gate(XPlus(4, 2), 0)
    circuit.add_gate(XPerm.transposition(4, 1, 2), 0)
    table = circuit.to_table()
    back = table.to_circuit()
    assert_ops_identical(circuit, back)
    assert back.depth() == 3
    assert back.used_wires() == (0,)
    assert back.max_span() == 1
    np.testing.assert_array_equal(
        table.permutation_index_table(),
        permutation_index_table(QuditCircuit(1, 4).extend(circuit.ops)),
    )
    for backend in available_backends():
        state = Statevector(1, 4, backend=backend)
        state.apply_circuit(back)
        # |0> -X03-> |3> -X+2-> |1> -X12-> |2>
        assert state.probability((2,)) == pytest.approx(1.0)


def test_non_contiguous_wires_after_remap_keep_kernels_consistent():
    circuit = random_circuit(13, num_wires=3, dim=3, num_ops=20, allow_unitary=False)
    mapping = {0: 5, 1: 0, 2: 3}
    sparse = circuit.to_table().remap_wires(mapping, num_wires=7).to_circuit()
    plain = QuditCircuit(circuit.num_wires, circuit.dim).extend(circuit.ops)
    expected = plain.remap_wires(mapping, num_wires=7)
    assert_ops_identical(expected, sparse)
    assert sparse.used_wires() == expected.used_wires() == (0, 3, 5)
    assert sparse.depth() == expected.depth()
    assert sparse.two_qudit_count() == expected.two_qudit_count()
    # The remapped table still simulates identically to the object path.
    np.testing.assert_array_equal(
        sparse.to_table().permutation_index_table(),
        permutation_index_table(QuditCircuit(7, 3).extend(expected.ops)),
    )
    # Lowering a circuit on non-contiguous wires agrees across engines too.
    object_lowered = reference_lowering(expected)
    table_lowered = lower_to_g_gates(sparse)
    assert_ops_identical(object_lowered, table_lowered)


def test_mutation_after_to_table_invalidates_through_every_entry_point():
    base = random_circuit(14, num_wires=3, dim=3, num_ops=8, allow_unitary=False)
    extra = Operation(XPerm.transposition(3, 0, 2), 1)

    appended = base.copy()
    table = appended.to_table()
    appended.append(extra)
    assert appended.cached_table is None
    assert appended.num_ops() == len(table) + 1
    assert appended.to_table() is not table

    extended = base.copy()
    extended.to_table()
    extended.extend([extra, extra.inverse()])
    assert extended.cached_table is None
    assert extended.num_ops() == base.num_ops() + 2

    composed = base.copy()
    composed.to_table()
    composed.compose(QuditCircuit(2, 3).add_gate(XPerm.transposition(3, 0, 1), 0))
    assert composed.cached_table is None
    # Stale-table reads would get the old op count / permutation action.
    assert composed.num_ops() == base.num_ops() + 1
    np.testing.assert_array_equal(
        permutation_index_table(composed),
        composed.to_table().permutation_index_table(),
    )

    via_add_gate = base.copy()
    via_add_gate.to_table()
    via_add_gate.add_gate(XPerm.transposition(3, 1, 2), 2)
    assert via_add_gate.cached_table is None


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "flags", [[], ["--memory-budget", "64"], ["--backend", "sparse"]]
)
def test_cli_simulate_smoke(flags, capsys):
    from repro.__main__ import main

    assert main(["simulate", "mct", "3", "3", "--state", "0,0,0,1"] + flags) == 0
    out = capsys.readouterr().out
    assert "0001" in out and "0000" in out  # |0,0,0,1> -> |0,0,0,0>


def test_cli_simulate_budget_tiles_dense_and_is_refused_beside_sparse(capsys):
    from repro.__main__ import main

    args = ["simulate", "mcu-exponential", "3", "2", "--state", "0,0,1"]
    assert main(args + ["--memory-budget", "64", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["backend"] == "dense" and row["memory_budget"] == 64
    assert row["output"] == "000"  # the controls are 0: X01 on the target
    assert main(args + ["--backend", "sparse", "--memory-budget", "8M"]) == 1
    err = capsys.readouterr().err
    assert err == (
        'error: request 0: memory_budget applies to the "dense" backend only, got \'sparse\'\n'
    )
