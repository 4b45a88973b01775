"""Deterministic-seed tests of the differential fuzzing subsystem.

Everything here is seeded: the generator-determinism properties, a fixed
block of fuzz cases expected to pass every oracle, and — the critical
guarantee — that a deliberately injected engine bug *is* caught by the
oracles and shrunk to a few-op reproducer.
"""

import json
import random

import pytest

import repro.passes.optimize as optimize
from repro.exceptions import VerificationError
from repro.fuzz import (
    ORACLE_NAMES,
    SynthesisInstance,
    check_lowering_engines,
    check_pass_equivalence,
    check_table_round_trip,
    fuzz_run,
    random_circuit,
    random_pipeline,
    random_synthesis_instance,
    sample_basis_states,
    shrink_circuit,
    shrink_instance,
    supported_instances,
)
from repro.fuzz.oracles import describe_op_difference
from repro.passes import CancelAdjacentInverses, PassPipeline
from repro.qudit.circuit import QuditCircuit
from repro.qudit.gates import XPerm
from repro.qudit.operations import Operation
from repro.verify import VerificationBudget, assert_implements_permutation


# ----------------------------------------------------------------------
# Generator determinism and constraints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_circuit_is_deterministic(seed):
    first = random_circuit(seed, num_wires=4, dim=3, num_ops=20)
    second = random_circuit(seed, num_wires=4, dim=3, num_ops=20)
    assert describe_op_difference(first, second) is None


def test_random_circuit_seeds_differ():
    first = random_circuit(0, num_wires=4, dim=3, num_ops=20)
    second = random_circuit(1, num_wires=4, dim=3, num_ops=20)
    assert describe_op_difference(first, second) is not None


@pytest.mark.parametrize("dim", [3, 4])
def test_lowerable_circuits_respect_engine_constraints(dim):
    for seed in range(5):
        circuit = random_circuit(
            seed, num_wires=4, dim=dim, num_ops=30, lowerable=True
        )
        assert circuit.is_permutation
        for op in circuit:
            assert len(op.controls) <= 2
        if dim % 2 == 0:
            # The even-d gadget must always find an idle wire to borrow.
            assert len(circuit.used_wires()) < circuit.num_wires


def test_sample_basis_states_is_seeded_and_respects_clean_wires():
    first = sample_basis_states(3, 5, 50, seed=11, clean_wires=(1, 3))
    second = sample_basis_states(3, 5, 50, seed=11, clean_wires=(1, 3))
    assert first == second
    assert all(state[1] == 0 and state[3] == 0 for state in first)
    assert sample_basis_states(3, 5, 50, seed=12) != first


def test_random_synthesis_instance_draws_supported_scenarios():
    from repro.synth import registry

    rng = random.Random(3)
    for _ in range(20):
        instance = random_synthesis_instance(rng)
        strategy = registry.get(instance.strategy)
        assert strategy.supports(instance.dim, instance.k)
    assert len(supported_instances()) > 50


def test_random_pipeline_is_runnable():
    rng = random.Random(5)
    circuit = random_circuit(5, num_wires=3, dim=3, num_ops=10)
    pipeline = random_pipeline(rng)
    assert 1 <= len(pipeline) <= 4
    pipeline.run(circuit)


# ----------------------------------------------------------------------
# The oracles agree on a deterministic block of cases
# ----------------------------------------------------------------------
def test_fuzz_block_has_zero_divergences():
    report = fuzz_run(seed=0, max_cases=8)
    assert report.cases == 8
    assert report.ok, json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    for oracle in ORACLE_NAMES:
        # The backends oracle runs twice per case since PR-8: once on a
        # dense random state, once on the sparse low-occupancy instance.
        assert report.oracle_runs[oracle] == (16 if oracle == "backends" else 8)


def test_fuzz_oracle_subset_and_validation():
    report = fuzz_run(seed=3, max_cases=3, oracles=["round-trip", "inverse"])
    assert set(report.oracle_runs) == {"round-trip", "inverse"}
    assert report.ok
    with pytest.raises(ValueError):
        fuzz_run(seed=0, max_cases=1, oracles=["warp-drive"])
    with pytest.raises(ValueError):
        fuzz_run(seed=0)  # needs a budget


# ----------------------------------------------------------------------
# Injected bugs are caught and shrunk
# ----------------------------------------------------------------------
def _broken_ops_cancel(first, second):
    """The real ``_ops_cancel`` with its controls-equality guard disabled."""
    if isinstance(first, Operation) and isinstance(second, Operation):
        return first.target == second.target and optimize._gates_are_inverse(
            first.gate, second.gate
        )
    return False


def test_injected_cancel_guard_bug_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(optimize, "_ops_cancel", _broken_ops_cancel)
    pipeline = PassPipeline([CancelAdjacentInverses()], name="broken-cancel")

    failing = None
    for seed in range(200):
        circuit = random_circuit(
            seed, num_wires=4, dim=3, num_ops=25, lowerable=True
        )
        if check_pass_equivalence(circuit, pipeline) is not None:
            failing = circuit
            break
    assert failing is not None, "no seed triggered the injected cancel bug"

    shrunk = shrink_circuit(
        failing, lambda c: check_pass_equivalence(c, pipeline) is not None
    )
    assert shrunk.num_ops() <= 10
    assert check_pass_equivalence(shrunk, pipeline) is not None
    # With the guard restored the shrunk reproducer passes again.
    monkeypatch.undo()
    assert check_pass_equivalence(shrunk, pipeline) is None


def test_injected_table_kernel_bug_is_caught_via_fuzz_run(monkeypatch):
    from repro.ir import rewrite

    # Break the columnar drop-identities kernel: it silently drops the last
    # row of every table instead of only identity rows.
    def broken_drop_identities(table):
        if len(table):
            return table.select(slice(0, len(table) - 1))
        return table

    monkeypatch.setattr(rewrite, "drop_identities", broken_drop_identities)
    report = fuzz_run(seed=0, max_cases=12, oracles=["passes"], shrink=True)
    assert not report.ok, "the broken table kernel went unnoticed"
    divergence = report.divergences[0]
    assert divergence.oracle == "passes"
    assert divergence.circuit is not None
    assert divergence.circuit.num_ops() <= 10  # shrunk to a tiny reproducer


def test_shrink_reduces_to_single_offending_op():
    dim = 3
    x02 = XPerm.transposition(dim, 0, 2)
    circuit = random_circuit(2, num_wires=4, dim=dim, num_ops=30)
    circuit.append(Operation(x02, 1))

    def fails(candidate: QuditCircuit) -> bool:
        return any(
            isinstance(op, Operation) and op.gate == x02 and not op.controls
            for op in candidate.ops
        )

    shrunk = shrink_circuit(circuit, fails)
    assert shrunk.num_ops() == 1
    assert shrunk.num_wires <= 2
    with pytest.raises(ValueError):
        shrink_circuit(QuditCircuit(1, 3), fails)  # input must fail


def test_shrink_instance_walks_k_and_d_down():
    def fails(instance: SynthesisInstance) -> bool:
        return instance.strategy == "mct" and instance.dim >= 3

    shrunk = shrink_instance(SynthesisInstance("mct", 5, 9), fails)
    assert shrunk.k == 1
    assert shrunk.dim == 3


# ----------------------------------------------------------------------
# Sampled verification failures surface their seed
# ----------------------------------------------------------------------
def test_sampled_verification_error_reports_seed():
    circuit = QuditCircuit(7, 3, name="not-identity")
    circuit.add_gate(XPerm.transposition(3, 0, 1), 0)
    with pytest.raises(VerificationError, match=r"seed=41"):
        assert_implements_permutation(
            circuit,
            lambda state: state,
            budget=VerificationBudget(max_basis_states=10, samples=50, seed=41),
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fuzz_smoke(tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fuzz.json"
    code = main(
        [
            "fuzz",
            "--seed",
            "0",
            "--max-cases",
            "4",
            "--json",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["cases"] == 4
    assert json.loads(report_path.read_text())["ok"] is True


def test_cli_fuzz_table_output(capsys):
    from repro.__main__ import main

    assert main(["fuzz", "--seed", "1", "--max-cases", "2"]) == 0
    out = capsys.readouterr().out
    assert "Differential fuzz" in out and "OK" in out
