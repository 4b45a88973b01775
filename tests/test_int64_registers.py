"""Registers whose flat indices overflow ``int64`` are refused, never wrapped.

``mct`` at d=3, k=39 has 40 wires and 3^40 ≈ 1.2·10^19 basis states, more
than 2^63 - 1.  Index propagation used to compute ``index + delta`` in int64
and wrap: a simulate of 40 states whose own indices fit came back ``ok``
with every output wrong, the sparse engine scrambled a state the gate
leaves alone, and a state whose index is past 2^63 failed with an untyped
``OverflowError``.  At k=38 (3^39 < 2^63) every output is right.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.exceptions import WireError, WorkloadError
from repro.exec import CompileCache, compile_lowered
from repro.exec.workload import WorkloadRequest, WorkloadSpec, execute_request
from repro.sim import SparseBackend, SparseState
from repro.utils.indexing import INT64_MAX, basis_fits_int64, digits_to_index


def seeded_states(k: int, count: int = 40):
    """``count`` states of ``mct`` d=3 (controls on wires 0..k-1, target on
    wire k), half of them firing; wire 0 stays below 2, so every flat index
    is below 2·3^k and fits int64 at k <= 39."""
    rng = np.random.default_rng(k)
    states = rng.integers(0, 3, size=(count, k + 1))
    states[:, 0] = rng.integers(0, 2, size=count)
    states[: count // 2, :k] = 0
    return tuple(tuple(row) for row in states.tolist())


def x01_outputs(k: int, states):
    out = []
    for state in states:
        digits = list(state)
        if not any(digits[:k]) and digits[k] in (0, 1):
            digits[k] = 1 - digits[k]
        out.append("".join(map(str, digits)))
    return out


def test_the_boundary_is_exact():
    assert basis_fits_int64(3, 39) and 3**39 <= INT64_MAX
    assert not basis_fits_int64(3, 40) and 3**40 > INT64_MAX
    assert basis_fits_int64(2, 62) and not basis_fits_int64(2, 63)
    assert not basis_fits_int64(2, 10**6)  # decided without building 2^(10^6)


def test_index_propagation_refuses_a_register_past_int64():
    table = compile_lowered("mct", 3, 39).circuit.to_table()
    states = seeded_states(39)
    indices = [digits_to_index(state, 3) for state in states]
    assert max(indices) <= INT64_MAX
    with pytest.raises(WireError, match="int64"):
        table.apply_to_indices(indices)
    # A state whose own index is past 2^63 (it raised OverflowError).
    with pytest.raises(WireError, match="int64"):
        table.apply_to_indices([digits_to_index([2, 2] + [0] * 38, 3)])


def test_the_sparse_engine_refuses_a_register_past_int64():
    table = compile_lowered("mct", 3, 39).circuit.to_table()
    state = SparseState.from_basis_state([0] * 10 + [2, 1] + [0] * 28, 3)
    with pytest.raises(WireError, match="int64"):
        SparseBackend().apply_table_sparse(state, table)


def test_simulate_and_verify_past_int64_are_refused_at_parse_time():
    states = [list(state) for state in seeded_states(39)]
    refused = [
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 39, "states": states},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 39},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 39, "verify": "smoke"},
        {"kind": "simulate", "strategy": "mct-clean-ladder", "d": 3, "k": 39},
    ]
    for raw in refused:
        with pytest.raises(WorkloadError, match=r"3\^\d+ basis states exceed the int64"):
            WorkloadRequest.from_dict(raw, 0)
    # Synthesis needs no flat index; auto and unknown names go to the row.
    for raw in (
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 39},
        {"kind": "simulate", "strategy": "auto", "d": 3, "k": 39},
        {"kind": "simulate", "strategy": "nosuch", "d": 3, "k": 39},
    ):
        WorkloadRequest.from_dict(raw, 0)


def test_a_row_past_int64_fails_typed_instead_of_wrapping():
    states = seeded_states(39)
    request = WorkloadRequest(kind="simulate", strategy="mct", dim=3, k=39, states=states)
    row = execute_request(request, CompileCache())
    assert row["ok"] is False and "outputs" not in row and "traceback" not in row
    assert row["error"].startswith("WireError: index propagation through ")
    assert "basis of 3^40 states exceeds the int64 flat-index range" in row["error"]


def test_auto_rows_past_int64_fail_with_the_typed_error():
    cache = CompileCache()
    for raw in (
        {"kind": "simulate", "strategy": "auto", "d": 3, "k": 39},
        {"kind": "synthesize", "strategy": "auto", "d": 3, "k": 39, "verify": "standard"},
    ):
        row = execute_request(WorkloadRequest.from_dict(raw, 0), cache, index=0)
        assert row["ok"] is False and "traceback" not in row
        assert row["error"].startswith("WireError: ") and "int64" in row["error"]
        # The check never ran: no verdict on the circuit.
        assert "verify_result" not in row and "outputs" not in row


def test_the_k38_register_still_simulates_right():
    states = seeded_states(38)
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 38,
         "states": [list(state) for state in states]},
    ]})
    row = execute_request(spec.requests[0], CompileCache())
    assert row["ok"], row.get("error")
    assert row["sim_path"] == "propagate"
    assert row["outputs"] == x01_outputs(38, states)


def test_batch_exits_one_on_a_register_past_int64(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"requests": [
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 39},
    ]}), encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "int64" in err
