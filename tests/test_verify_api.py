"""One verification API: :mod:`repro.verify` and the meaning of ``budget=None``.

* ``budget=None`` is the ``standard`` preset for every ``assert_*`` helper
  and every registered strategy's ``verify``: the reports are equal in
  status, deciding tier, states checked and replay recipe.
* An assertion raises when the budget decides nothing, as when it fails.
* A :class:`~repro.verify.VerificationBudget` rejects a field of the wrong
  type when it is built, so a bad ``--verify-budget`` is one CLI error line.
* :mod:`repro.sim` is the simulation layer only: none of its modules
  imports :mod:`repro.verify`.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro.sim
from repro.__main__ import main
from repro.core import random_unitary_gate, synthesize_mcu
from repro.exceptions import VerificationError
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.sim import multi_controlled_unitary_matrix
from repro.synth import registry, synthesize
from repro.verify import (
    UNBOUNDED,
    VerificationBudget,
    assert_implements_permutation,
    assert_mct_spec,
    assert_permutation_equals_function,
    assert_unitary_columns_equiv,
    assert_unitary_equiv,
    assert_unitary_equiv_with_clean_ancillas,
    assert_wires_preserved,
    mct_spec,
)


def _outcome(report):
    return report.status, report.decided_by, report.states_checked, report.replay


def _cx01():
    circuit = QuditCircuit(2, 3, name="cx01")
    circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(0))])
    return circuit


def _fourier():
    matrix = np.fft.fft(np.eye(3)) / np.sqrt(3)
    circuit = QuditCircuit(1, 3, name="fourier")
    circuit.add_gate(SingleQuditUnitary(matrix), 0)
    return circuit, matrix


def _shift():
    circuit = QuditCircuit(2, 3, name="shift")
    circuit.add_gate(XPlus(3, 1), 1)
    return circuit


def _mcu(k):
    gate = random_unitary_gate(3, seed=11)
    result = synthesize_mcu(3, k, gate)
    return result, multi_controlled_unitary_matrix(3, k, gate.matrix())


def _helper_calls():
    """One call per ``assert_*`` helper, as ``budget -> report``."""
    fourier, matrix = _fourier()
    mcu, expected = _mcu(2)
    big = synthesize("mct", 3, 11)  # 3^12 states: the sampled tier decides
    return {
        "implements_permutation": lambda budget: assert_implements_permutation(
            _cx01(), mct_spec([0], 1, 3), budget=budget
        ),
        "wires_preserved": lambda budget: assert_wires_preserved(
            _cx01(), [0], budget=budget
        ),
        "mct_spec": lambda budget: assert_mct_spec(_cx01(), [0], 1, budget=budget),
        "mct_spec_sampled": lambda budget: assert_mct_spec(
            big.circuit, big.controls, big.target, budget=budget
        ),
        "permutation_equals_function": lambda budget: assert_permutation_equals_function(
            _shift(), lambda digits: ((digits[0] + 1) % 3,), [1], budget=budget
        ),
        "unitary_equiv": lambda budget: assert_unitary_equiv(
            fourier, matrix, budget=budget
        ),
        "unitary_columns_equiv": lambda budget: assert_unitary_columns_equiv(
            fourier, lambda col: matrix[:, col], budget=budget
        ),
        "unitary_equiv_with_clean_ancillas": (
            lambda budget: assert_unitary_equiv_with_clean_ancillas(
                mcu.circuit, expected, [0, 1, 2], mcu.clean_wires(), atol=1e-7, budget=budget
            )
        ),
    }


HELPERS = (
    "implements_permutation",
    "mct_spec",
    "mct_spec_sampled",
    "permutation_equals_function",
    "unitary_columns_equiv",
    "unitary_equiv",
    "unitary_equiv_with_clean_ancillas",
    "wires_preserved",
)


# ----------------------------------------------------------------------
# budget=None is the standard preset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("helper", HELPERS)
def test_helper_default_budget_is_standard(helper):
    call = _helper_calls()[helper]
    default, standard = call(None), call("standard")
    assert default.ok
    assert _outcome(default) == _outcome(standard)


def test_helper_default_budget_samples_above_the_exhaustive_cap():
    report = _helper_calls()["mct_spec_sampled"](None)
    assert report.decided_by == "index-propagation"
    assert report.replay == "sample_basis_states(3, 12, 2000, 7)"


@pytest.mark.parametrize("strategy", [s.name for s in registry.all_strategies()])
def test_strategy_default_budget_is_standard(strategy):
    synthesizer = registry.get(strategy)
    dim = 4 if strategy == "mct-even" else 3
    circuit = synthesizer.synthesize(dim, 3).circuit
    default = synthesizer.verify(circuit, dim, 3)
    standard = synthesizer.verify(circuit, dim, 3, budget="standard")
    assert default.ok
    assert _outcome(default) == _outcome(standard)


def test_cli_verify_without_a_flag_runs_the_standard_budget(capsys):
    # 3^7 basis states: above the standard dense cap, so the sampled-column
    # tier decides and no 2187×2187 matrix is built.
    assert main(["synthesize", "mcu-exponential", "3", "6", "--verify"]) == 0
    assert "decided by the sampled-columns tier" in capsys.readouterr().out


def test_cli_fuzz_keeps_its_own_budget_without_a_flag(monkeypatch):
    import repro.fuzz

    calls = []

    def fake_fuzz_run(**kwargs):
        calls.append(kwargs)
        return repro.fuzz.FuzzReport(seed=0)

    monkeypatch.setattr(repro.fuzz, "fuzz_run", fake_fuzz_run)
    assert main(["fuzz", "--max-cases", "1"]) == 0
    assert main(["fuzz", "--max-cases", "1", "--verify-tier", "smoke"]) == 0
    assert "verify_budget" not in calls[0]
    assert calls[1]["verify_budget"] == VerificationBudget.preset("smoke")


# ----------------------------------------------------------------------
# An undecided assertion fails
# ----------------------------------------------------------------------
def test_undecided_clean_ancilla_assertion_raises():
    # 3^5 basis states exceed the smoke dense cap (128), and the subspace
    # check has no cheaper tier: nothing decides, so the wrong matrix must
    # not pass.
    mcu, _ = _mcu(3)
    with pytest.raises(VerificationError, match="undecided"):
        assert_unitary_equiv_with_clean_ancillas(
            mcu.circuit, np.eye(81), [0, 1, 2, 3], [4], budget="smoke"
        )


def test_undecided_clean_ancilla_assertion_raises_under_the_default_budget():
    mcu, expected = _mcu(5)  # 3^7 basis states > max_dense_dim=1024
    with pytest.raises(VerificationError, match="max_dense_dim=1024"):
        assert_unitary_equiv_with_clean_ancillas(
            mcu.circuit, expected, list(range(6)), mcu.clean_wires(), atol=1e-7
        )


def test_undecided_permutation_assertion_raises():
    with pytest.raises(VerificationError, match="budget draws no samples"):
        assert_mct_spec(
            _cx01(), [0], 1, budget=VerificationBudget(max_basis_states=0, samples=0)
        )


# ----------------------------------------------------------------------
# Budgets are type-checked when built
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "field,value",
    [
        ("max_basis_states", "x"),
        ("max_basis_states", -1),
        ("samples", 2.5),
        ("samples", True),
        ("max_dense_dim", None),
        ("sampled_columns", 1.0),
        ("max_column_basis", "65536"),
        ("allow_dense", "no"),
        ("allow_dense", 1),
        ("prefer_columns", None),
        ("seed", "abc"),
        ("seed", -1),
        ("seed", 7.0),
        ("atol", "1e-8"),
        ("atol", -1e-9),
        ("atol", True),
        ("atol", float("nan")),
        ("atol", float("inf")),
    ],
)
def test_budget_rejects_a_mistyped_field(field, value):
    with pytest.raises(VerificationError, match=f"budget field '{field}'"):
        VerificationBudget(**{field: value})
    with pytest.raises(VerificationError, match=f"budget field '{field}'"):
        VerificationBudget.preset("smoke").replace(**{field: value})


def test_budget_accepts_well_typed_fields():
    budget = VerificationBudget(
        max_basis_states=0,
        samples=UNBOUNDED,
        seed=0,
        atol=1,
        allow_dense=False,
        prefer_columns=True,
    )
    assert budget.replace(seed=None, atol=None).atol is None


@pytest.mark.parametrize(
    "overrides",
    [
        {"max_basis_states": "x"},
        {"samples": 2.5, "max_basis_states": 0},
        {"seed": "abc", "max_basis_states": 0},
        {"allow_dense": "no"},
    ],
)
def test_cli_rejects_a_mistyped_budget_with_one_error_line(overrides, capsys):
    argv = ["synthesize", "mct", "3", "5", "--verify", "--verify-budget", json.dumps(overrides)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: budget field") and err.count("\n") == 1


def test_fuzz_cli_blames_a_mistyped_budget_on_the_input(capsys):
    argv = [
        "fuzz", "--max-cases", "3", "--oracle", "synth-spec",
        "--verify-budget", '{"samples": "x", "max_basis_states": 0}',
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "DIVERGENCE" not in captured.out
    assert captured.err.startswith("error: budget field 'samples'")


# ----------------------------------------------------------------------
# repro.sim does not depend on repro.verify
# ----------------------------------------------------------------------
def test_no_sim_module_imports_verify():
    offenders = []
    for path in sorted(Path(repro.sim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "repro.verify" or n.startswith("repro.verify.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
