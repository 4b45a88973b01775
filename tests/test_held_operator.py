"""The dense operator a small non-permutation table holds.

Up to :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states the dense
engine composes a non-permutation table's matrix once and the table holds
it; workload simulates and the unitary verification tiers read it.  These
tests pin that it equals the op-by-op reference, that every consumer reads
the one array, that it is read-only and bounded, and that no verdict rides
on it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.exec import CompileCache, compile_lowered, lowered_key
from repro.exec.serialize import save_table
from repro.exec.workload import WorkloadRequest, execute_request
from repro.fuzz.generators import random_circuit
from repro.ir.table import OP_UNITARY
from repro.qudit.circuit import QuditCircuit
from repro.sim import BatchedStatevector, DenseBackend, get_backend
from repro.sim import unitary
from repro.sim.unitary import OPERATOR_MAX_STATES, circuit_unitary, held_operator
from repro.synth import registry
from repro.verify import VerificationBudget


def apply_op_walk(circuit: QuditCircuit) -> np.ndarray:
    """The reference: the identity pushed through the dense engine one op at
    a time (no table, no segment fusion)."""
    dim, wires = circuit.dim, circuit.num_wires
    data = np.eye(dim**wires, dtype=complex)
    dense = get_backend("dense")
    for op in circuit.to_table().to_ops():
        data = dense.apply_op(data, op, dim, wires)
    return data


def random_tables():
    """Seeded non-permutation circuits up to the cap: d = 2..5, 1-4 wires,
    unitary and permutation rows mixed, controlled stars and rows with
    overflow controls."""
    cases = []
    seed = 0
    for dim in (2, 3, 4, 5):
        for wires in (1, 2, 3, 4):
            if dim**wires > OPERATOR_MAX_STATES:
                continue
            found = 0
            while found < 3:
                seed += 1
                circuit = random_circuit(
                    seed, num_wires=wires, dim=dim, num_ops=24,
                    max_controls=min(3, wires), name=f"held-{seed}",
                )
                if not circuit.is_permutation:
                    cases.append(pytest.param(circuit, id=f"d{dim}-n{wires}-s{seed}"))
                    found += 1
    return cases


def registered_non_permutation_cases():
    """Every registered strategy whose served (lowered) table at d <= 5,
    k <= 4 is non-permutation and within the cap."""
    cases = []
    for name in registry.names():
        strategy = registry.get(name)
        for dim in (2, 3, 4, 5):
            for k in (1, 2, 3, 4):
                if not strategy.supports(dim, k):
                    continue
                wires = strategy.layout(dim, k)[0]
                if dim**wires > OPERATOR_MAX_STATES:
                    continue
                try:
                    circuit = compile_lowered(name, dim, k).circuit
                except ReproError:  # e.g. an even-d lowering with no wire to borrow
                    continue
                if not circuit.is_permutation:
                    cases.append(pytest.param(name, dim, k, id=f"{name}-{dim}-{k}"))
    return cases


REGISTERED = registered_non_permutation_cases()


def test_the_registered_cases_cover_both_non_permutation_strategies():
    assert {case.values[0] for case in REGISTERED} == {"mcu-exponential", "unitary"}


@pytest.mark.parametrize("circuit", random_tables())
def test_held_operator_equals_the_apply_op_walk(circuit):
    held = held_operator(circuit)
    assert held is not None and not held.flags.writeable
    assert np.max(np.abs(held - apply_op_walk(circuit))) <= 1e-12
    # The one array, for every caller and every view of the table.
    assert circuit_unitary(circuit) is held
    view = QuditCircuit.from_table(circuit.to_table())
    assert held_operator(view) is held and circuit_unitary(view, backend="dense") is held


@pytest.mark.parametrize("name,dim,k", REGISTERED)
def test_registered_strategies_hold_their_operator(name, dim, k):
    circuit = compile_lowered(name, dim, k).circuit
    held = held_operator(circuit)
    assert held is not None
    assert np.max(np.abs(held - apply_op_walk(circuit))) <= 1e-12


@pytest.mark.parametrize("name,dim,k", REGISTERED)
def test_operator_simulate_returns_the_statevector_outputs(name, dim, k):
    circuit = compile_lowered(name, dim, k).circuit
    rng = np.random.default_rng([dim, k, len(name)])
    states = rng.integers(0, dim, size=(8, circuit.num_wires))
    states[:4, :k] = 0  # the controls of the multi-controlled gates fire
    states = tuple(tuple(row) for row in states.tolist())
    request = WorkloadRequest(kind="simulate", strategy=name, dim=dim, k=k, states=states)
    row = execute_request(request, CompileCache())
    assert row["ok"], row.get("error")
    assert row["sim_path"] == "operator"
    # The path every non-permutation simulate took before the operator.
    batch = BatchedStatevector.from_basis_states(list(states), dim).apply_circuit(circuit)
    assert row["outputs"] == ["".join(map(str, digits)) for digits in batch.most_probable()]


def test_a_budgeted_engine_holds_nothing_and_simulates_on_dense():
    """The operator is held only for the unbudgeted dense engine: a budget
    bounds the amplitude arrays, and a held matrix would sit outside it."""
    circuit = compile_lowered("unitary", 3, 2).circuit.to_table().to_circuit()
    assert held_operator(circuit, DenseBackend(memory_budget=4096)) is None
    assert "operator" not in circuit.to_table()._cache
    states = ((0, 0), (1, 2), (2, 1))
    request = WorkloadRequest(kind="simulate", strategy="unitary", dim=3, k=2, states=states)
    cache = CompileCache()
    budgeted = execute_request(dataclasses.replace(request, memory_budget=4096), cache)
    assert budgeted["ok"] and budgeted["sim_path"] == "dense"
    assert budgeted["memory_budget"] == 4096
    assert "operator" not in cache.get(lowered_key("unitary", 3, 2)).table._cache
    row = execute_request(request, cache)
    assert row["sim_path"] == "operator" and row["outputs"] == budgeted["outputs"]


def counting_compose(monkeypatch):
    """Count the compositions of a held operator."""
    calls = []
    compose = unitary._DENSE.apply_table

    def counted(data, table):
        calls.append(table)
        return compose(data, table)

    monkeypatch.setattr(unitary._DENSE, "apply_table", counted)
    return calls


def test_a_cached_table_composes_its_operator_once(monkeypatch):
    calls = counting_compose(monkeypatch)
    cache = CompileCache()
    simulate = WorkloadRequest(
        kind="simulate", strategy="mcu-exponential", dim=3, k=3, states=((0, 0, 0, 1),)
    )
    for level in (None, "standard", "smoke", "standard"):
        row = execute_request(dataclasses.replace(simulate, verify=level), cache)
        assert row["ok"] and row["outputs"] == ["0000"] and row["sim_path"] == "operator"
    assert len(calls) == 1
    table = cache.get(lowered_key("mcu-exponential", 3, 3)).table
    assert table._cache["operator"] is held_operator(table.to_circuit())


def test_held_operator_is_read_only():
    circuit = compile_lowered("unitary", 3, 2).circuit
    held = circuit_unitary(circuit)
    with pytest.raises(ValueError):
        held[0, 0] = 0.0


def test_above_the_cap_and_on_other_engines_nothing_is_held():
    big = compile_lowered("mcu-exponential", 3, 5).circuit  # 729 states
    assert held_operator(big) is None
    circuit_unitary(big)
    assert "operator" not in big.to_table()._cache
    row = execute_request(
        WorkloadRequest(kind="simulate", strategy="mcu-exponential", dim=3, k=5),
        CompileCache(),
    )
    assert row["ok"] and row["sim_path"] == "dense"

    small = compile_lowered("mcu-exponential", 3, 2).circuit.to_table().to_circuit()
    for backend in ("sparse", DenseBackend(memory_budget=4096)):
        assert held_operator(small, backend) is None
        fresh = circuit_unitary(small, backend=backend)
        assert fresh.flags.writeable
        assert "operator" not in small.to_table()._cache
    assert np.allclose(fresh, circuit_unitary(small), atol=1e-12)


def test_permutation_tables_hold_no_operator():
    circuit = compile_lowered("mct", 3, 2).circuit
    assert held_operator(circuit) is None
    circuit_unitary(circuit)
    assert "operator" not in circuit.to_table()._cache


def test_an_altered_unitary_payload_still_fails_its_verify(tmp_path):
    """The held operator is composed from the table the row is served from,
    so a cached entry whose unitary payload changed fails its check."""
    cache = CompileCache(tmp_path)
    key = compile_lowered("unitary", 3, 2, cache=cache).key
    table = cache.get(key).table
    rows = np.flatnonzero(table.opcode == OP_UNITARY)
    payload = table.payload.copy()
    # Another unitary of the pool: the structural tier still passes.
    payload[rows[0]] = next(p for p in payload[rows] if p != payload[rows[0]])
    (archive,) = tmp_path.rglob(f"{key}.npz")
    save_table(archive, table.replace_columns(payload=payload))

    request = WorkloadRequest(
        kind="simulate", strategy="unitary", dim=3, k=2, states=((0, 1),), verify="standard"
    )
    row = execute_request(request, CompileCache(tmp_path))
    assert row["cache"] == "disk"
    assert row["ok"] is False and row["error"].startswith("VerificationError: ")
    assert "outputs" not in row and row["verify_result"] == {"status": "failed", "key": key}
    # The untouched entry still verifies from a fresh directory.
    fresh = execute_request(request, CompileCache(tmp_path / "fresh"))
    assert fresh["ok"] and fresh["verify_result"]["status"] == "verified"


def test_verify_reports_are_unchanged_by_the_held_operator(monkeypatch):
    """The dense, sampled-columns and clean-subspace tiers report exactly
    what they reported when every check composed its matrix afresh."""
    cases = (("mcu-exponential", 3, 3), ("unitary", 3, 2), ("unitary", 3, 3))
    reports = {}
    for cap in (OPERATOR_MAX_STATES, 0):  # 0: nothing is held, as before
        monkeypatch.setattr(unitary, "OPERATOR_MAX_STATES", cap)
        for name, dim, k in cases:
            circuit = compile_lowered(name, dim, k).circuit
            for level in ("smoke", "standard", "audit"):
                report = registry.get(name).verify(
                    circuit, dim, k, budget=VerificationBudget.preset(level)
                )
                reports.setdefault((name, dim, k, level), []).append(report.to_json())
            assert ("operator" in circuit.to_table()._cache) == bool(cap)
    for key, (held, fresh) in reports.items():
        assert held == fresh, key
    tiers = {held["decided_by"] for held, _ in reports.values()}
    assert tiers == {"dense", "sampled-columns"}
