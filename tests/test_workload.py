"""The parallel workload runner and the ``batch`` / ``simulate`` CLI paths."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.exceptions import WorkloadError
from repro.exec import (
    CompileCache,
    WorkloadRequest,
    WorkloadSpec,
    execute_request,
    lowered_key,
    plan_workload,
    run_workload,
)
from repro.sim import permutation
from repro.synth import registry

SPEC = {
    "requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 4,
         "states": [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 0, 0, 0, 2]]},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 1000},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 5},
    ]
}


# ----------------------------------------------------------------------
# Spec parsing and planning
# ----------------------------------------------------------------------
def test_spec_parses_and_round_trips(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    spec = WorkloadSpec.from_json(path)
    assert len(spec.requests) == 5
    assert spec.to_dict()["requests"][2]["states"] == SPEC["requests"][2]["states"]
    # Bare-list shorthand.
    assert len(WorkloadSpec.from_dict(SPEC["requests"]).requests) == 5


@pytest.mark.parametrize(
    "raw",
    [
        {"kind": "mystery", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "synthesize", "d": 3, "k": 4},
        {"kind": "synthesize", "strategy": "mct", "d": "x", "k": 4},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 4, "states": [[0]]},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4, "bogus": 1},
        # Only JSON integers: int() ran {"d": 3.9, "k": true} as d=3, k=1
        # and the state [0, 0.7, true] as (0, 0, 1).
        {"kind": "simulate", "strategy": "mct", "d": 3.9, "k": True},
        {"kind": "simulate", "strategy": "mct", "d": 3.0, "k": 2},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": "2"},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[0, 0.7, True]]},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[0, 0, 1.0]]},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": ["001"]},
        # Only JSON strings: str() passed ["mct"] and null on as names.
        {"kind": "synthesize", "strategy": ["mct"], "d": 3, "k": 2},
        {"kind": "synthesize", "strategy": None, "d": 3, "k": 2},
        {"kind": ["synthesize"], "strategy": "mct", "d": 3, "k": 2},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "backend": None},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "backend": ["dense"]},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 2, "verify": ["smoke"]},
        # Simulate states checked at the boundary: these compiled and came
        # back as failed rows (HTTP 200 from the daemon).
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[]]},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[0, 0, 7]]},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[0, -1, 0]]},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 2, "states": [[0, 0, 0], [0, 0]]},
        {"kind": "simulate", "strategy": "mct", "d": 4, "k": 2, "states": [[0, 0, 0]]},
        {"kind": "simulate", "strategy": "auto", "d": 3, "k": 2, "states": [[0, 0, 3]]},
        {"kind": "simulate", "strategy": "auto", "d": 3, "k": 2, "states": [[0], [0, 0]]},
    ],
)
def test_spec_rejects_malformed_requests(raw):
    with pytest.raises(WorkloadError):
        WorkloadSpec.from_dict({"requests": [raw]})


UNSUPPORTED_POINTS = [
    ("mct-clean-ladder", 4, 2),  # lowering found no idle wire to borrow
    ("mct-odd", 4, 3),  # DimensionError: odd d only
]


@pytest.mark.parametrize("kind", ["synthesize", "simulate", "estimate"])
@pytest.mark.parametrize("strategy,d,k", UNSUPPORTED_POINTS)
def test_unsupported_strategy_points_are_refused_at_parse_time(kind, strategy, d, k):
    """These parsed, then failed their row when it ran."""
    raw = {"kind": kind, "strategy": strategy, "d": d, "k": k}
    with pytest.raises(WorkloadError, match=f"{strategy!r} does not support d={d}, k={k}"):
        WorkloadRequest.from_dict(raw, 0)


@pytest.mark.parametrize("strategy,d,k", UNSUPPORTED_POINTS)
def test_cli_batch_refuses_an_unsupported_point_before_it_compiles(
    strategy, d, k, tmp_path, capsys, monkeypatch
):
    """``batch`` used to compile the whole spec, fail the row and exit 1."""
    calls = []
    monkeypatch.setattr("repro.exec.workload.compile_lowered", lambda *a, **kw: calls.append(a))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "simulate", "strategy": strategy, "d": d, "k": k},
    ]}), encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not support" in err
    assert calls == []


def test_engine_is_an_unknown_field():
    """``"engine"`` used to parse with any value: ``"warp"`` failed only when
    the request ran, and ``"object"`` compiled a second copy of the circuit
    under its own cache key."""
    for engine in ("object", "warp"):
        raw = {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3, "engine": engine}
        with pytest.raises(WorkloadError, match=r"unknown field\(s\) \['engine'\]"):
            WorkloadRequest.from_dict(raw, 0)


def test_planner_dedupes_shared_cache_keys():
    spec = WorkloadSpec.from_dict(SPEC)
    plan = plan_workload(spec)
    # k=4 synthesize x2 + k=4 simulate share one key; k=5 is separate;
    # estimate needs no compile.
    assert len(plan.compiles) == 2
    assert plan.dedup_savings == 2
    assert plan.request_keys[0] == plan.request_keys[1] == plan.request_keys[2]
    assert plan.request_keys[3] is None
    assert plan.request_keys[4] not in (None, plan.request_keys[0])


# ----------------------------------------------------------------------
# Execution: serial, pooled, warm
# ----------------------------------------------------------------------
def test_run_workload_serial_and_warm(tmp_path):
    spec = WorkloadSpec.from_dict(SPEC)
    cold = run_workload(spec, jobs=1, cache_dir=tmp_path / "cache")
    assert cold.ok and cold.unique_compiles == 2 and cold.warm_hits == 0
    # |00001⟩: controls all zero -> target flips 1 -> 0; a non-zero control blocks.
    assert cold.rows[2]["outputs"] == ["00000", "10001", "00002"]
    assert cold.rows[3]["g_gates"] > 0

    warm = run_workload(spec, jobs=1, cache_dir=tmp_path / "cache")
    assert warm.ok and warm.warm_hits == 2  # every unique compile came from disk
    assert warm.cache_stats["puts"] == 0  # nothing was rebuilt
    assert [row.get("outputs") for row in warm.rows] == [
        row.get("outputs") for row in cold.rows
    ]


def test_run_workload_pooled_matches_serial(tmp_path):
    spec = WorkloadSpec.from_dict(SPEC)
    serial = run_workload(spec, jobs=1, cache_dir=tmp_path / "serial")
    pooled = run_workload(spec, jobs=2, cache_dir=tmp_path / "pooled")
    assert pooled.ok and pooled.jobs == 2
    for left, right in zip(serial.rows, pooled.rows):
        assert left.get("outputs") == right.get("outputs")
        assert left.get("gates") == right.get("gates")
        assert left.get("g_gates") == right.get("g_gates")
    # Pooled stats are reconstructed from worker provenance, not the idle
    # parent cache: the cold pooled run built (and stored) both compiles.
    assert pooled.cache_stats["puts"] == 2
    # The pooled run persisted the same artifacts; a warm serial pass over
    # its directory must hit disk for every compile.
    warm = run_workload(spec, jobs=1, cache_dir=tmp_path / "pooled")
    assert warm.warm_hits == 2 and warm.cache_stats["puts"] == 0
    warm_pooled = run_workload(spec, jobs=2, cache_dir=tmp_path / "pooled")
    assert warm_pooled.cache_stats["puts"] == 0
    assert warm_pooled.cache_stats["disk_hits"] + warm_pooled.cache_stats["memo_hits"] > 0


def test_run_workload_pool_requires_cache_dir():
    spec = WorkloadSpec.from_dict(SPEC)
    with pytest.raises(WorkloadError):
        run_workload(spec, jobs=2)


def test_failing_request_is_reported_not_raised(tmp_path):
    spec = WorkloadSpec.from_dict(
        {"requests": [
            {"kind": "synthesize", "strategy": "no-such-strategy", "d": 3, "k": 4},
            {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        ]}
    )
    report = run_workload(spec, jobs=1, cache_dir=tmp_path)
    assert not report.ok
    assert report.rows[0]["ok"] is False and "no-such-strategy" in report.rows[0]["error"]
    assert report.rows[1]["ok"] is True


def test_simulate_request_validates_states(tmp_path):
    """A registered strategy's state width and every digit are checked when
    the request is parsed; ``auto`` and unknown names fail their row."""
    base = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 4}
    with pytest.raises(WorkloadError, match="has 5 wires"):
        WorkloadSpec.from_dict({"requests": [{**base, "states": [[0, 0]]}]})
    with pytest.raises(WorkloadError, match="digit 7 out of range"):
        WorkloadSpec.from_dict({"requests": [{**base, "states": [[0, 0, 0, 0, 7]]}]})
    late = WorkloadSpec.from_dict({"requests": [
        {**base, "strategy": "auto", "states": [[0, 0]]},
        {**base, "strategy": "no-such-strategy", "states": [[0, 0]]},
    ]})
    report = run_workload(late, jobs=1, cache_dir=tmp_path)
    assert not report.ok and "digits" in report.rows[0]["error"]
    assert "no-such-strategy" in report.rows[1]["error"]


@pytest.mark.parametrize("strategy,k", [("mct", 3), ("unitary", 2)])
@pytest.mark.parametrize(
    "options,fragment",
    [
        ({"backend": "nosuch"}, "unknown backend 'nosuch'"),
        ({"backend": "streaming"}, "unknown backend 'streaming'"),
        ({"backend": "sparse", "memory_budget": "8M"}, "got 'sparse'"),
        ({"memory_budget": "eight"}, "cannot parse memory budget 'eight'"),
    ],
)
def test_simulate_options_are_validated_whichever_path_runs(strategy, k, options, fragment):
    """An unknown backend, or a budget beside an engine that takes none, used
    to pass silently on permutation circuits (``mct`` ran index propagation
    and returned ``ok: true``); both are now rejected when the request is
    parsed."""
    raw = {"kind": "simulate", "strategy": strategy, "d": 3, "k": k, **options}
    with pytest.raises(WorkloadError, match="request 4: ") as refused:
        WorkloadRequest.from_dict(raw, 4)
    assert fragment in str(refused.value)
    # Without the option the same request parses and runs.
    plain = {name: value for name, value in raw.items() if name not in options}
    row = execute_request(WorkloadRequest.from_dict(plain, 4), CompileCache(), index=4)
    assert row["ok"] and row["index"] == 4


@pytest.mark.parametrize("budget", [True, False])
def test_a_bool_memory_budget_is_refused(budget, tmp_path, capsys):
    """``true`` used to parse as a 1-byte budget (a ``bool`` is an ``int``):
    an ``mcu-exponential`` simulate ran on memmap-tiled kernels and came
    back ``ok``."""
    raw = {"kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": 2,
           "memory_budget": budget}
    with pytest.raises(WorkloadError, match="request 0: memory budget must be"):
        WorkloadRequest.from_dict(raw, 0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"requests": [raw]}), encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory budget must be" in err


def test_cli_batch_defaults_pass_the_same_checks(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"requests": [
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3, "backend": "sparse"},
        {"kind": "simulate", "strategy": "unitary", "d": 3, "k": 2, "memory_budget": 4096},
    ]}), encoding="utf-8")
    # The budget fills in the request that runs on dense and set none.
    assert main(["batch", "--workload", str(path), "--memory-budget", "8M", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["requests"]
    assert [row.get("backend", "dense") for row in rows] == ["dense", "sparse", "dense"]
    assert [row.get("memory_budget") for row in rows] == [8 * 1024**2, None, 4096]
    assert [row["sim_path"] for row in rows] == ["gather", "gather", "dense"]
    # A budget beside another engine, or an engine the registry lacks, is
    # refused with one error line.
    for flags, fragment in (
        (["--backend", "sparse", "--memory-budget", "8M"], "applies to the dense backend"),
        (["--memory-budget", "eight"], "cannot parse memory budget"),
    ):
        assert main(["batch", "--workload", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", "--workload", str(path), "--backend", "streaming"])
    assert exit_info.value.code == 2  # argparse: not one of the registered names
    path.write_text(json.dumps({"requests": [
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3, "backend": "streaming"}]}),
        encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    assert "unknown backend 'streaming'" in capsys.readouterr().err


def test_memo_only_workload_without_cache_dir():
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
    ]})
    report = run_workload(spec, jobs=1)
    assert report.ok and report.unique_compiles == 1 and report.dedup_savings == 1


def test_request_compile_key_matches_service():
    from repro.exec import lowered_key

    request = WorkloadRequest(kind="simulate", strategy="mct", dim=3, k=4)
    assert request.compile_key() == lowered_key("mct", 3, 4)
    assert WorkloadRequest(kind="estimate", strategy="mct", dim=3, k=4).compile_key() is None


def test_planner_resolves_auto_to_the_dispatched_strategy():
    from repro.synth import registry

    winner = registry.auto_select(3, 6).strategy.name
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "synthesize", "strategy": "auto", "d": 3, "k": 6},
        {"kind": "synthesize", "strategy": winner, "d": 3, "k": 6},
    ]})
    plan = plan_workload(spec)
    # "auto" and its resolved winner share one compile (and one cache key).
    assert len(plan.compiles) == 1 and plan.dedup_savings == 1
    assert plan.request_keys[0] == plan.request_keys[1]


def test_lower_cache_rejects_macro_stage_key(tmp_path):
    """The macro-stage entry of a scenario is never served as its lowered
    output: ``compile_lowered``, the one cache-aware lowering path, reads
    only the lowered-stage key."""
    from repro.exec import CompileCache, cache_key, compile_lowered

    cache = CompileCache(tmp_path)
    registry.synthesize("mct", 3, 4, cache=cache)  # stores the macro table
    macro_key = cache_key("mct", 3, 4, stage="synth", salt=cache.salt)
    assert macro_key in cache
    outcome = compile_lowered("mct", 3, 4, cache=cache)
    assert outcome.source == "built" and outcome.key != macro_key
    assert outcome.circuit.is_g_circuit()


# ----------------------------------------------------------------------
# Regressions: pooled-path index threading, poisoned requests, honest stats
# ----------------------------------------------------------------------
def test_pooled_rows_carry_their_real_request_index(tmp_path):
    """The pool used to rebuild every request as index 0."""
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 100},
        {"kind": "synthesize", "strategy": "no-such-strategy", "d": 3, "k": 4},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
    ]})
    report = run_workload(spec, jobs=2, cache_dir=tmp_path / "cache")
    assert [row["index"] for row in report.rows] == [0, 1, 2, 3]
    assert report.rows[2]["ok"] is False and "no-such-strategy" in report.rows[2]["error"]
    assert all(report.rows[i]["ok"] for i in (0, 1, 3))
    # Serial rows are indexed identically.
    serial = run_workload(spec, jobs=1, cache_dir=tmp_path / "serial")
    assert [row["index"] for row in serial.rows] == [0, 1, 2, 3]


def test_worker_execute_reports_failures_at_the_real_index():
    """A request that fails becomes an ok=False row naming the real request
    — it used to raise out of the pool task (killing the workload) with any
    error message blaming request 0.  Workers take parsed requests, so a
    parse failure names its index before any worker sees it."""
    from repro.exec.workload import _worker_execute

    with pytest.raises(WorkloadError, match="request 5: missing field"):
        WorkloadRequest.from_dict({"kind": "synthesize", "d": 3, "k": 4}, 5)
    request = WorkloadRequest.from_dict(
        {"kind": "synthesize", "strategy": "no-such-strategy", "d": 3, "k": 4}, 5
    )
    result = _worker_execute((5, request))
    row = result["row"]
    assert row["index"] == 5 and row["ok"] is False
    assert "no-such-strategy" in row["error"] and "traceback" not in row


def test_poisoned_request_does_not_kill_the_workload(tmp_path, monkeypatch):
    """Non-ReproError exceptions (bad backend objects, numpy errors) must
    become ok=False rows, not abort pool.map for every sibling row."""
    from repro.synth import registry

    def poisoned(name, dim, k):
        raise ValueError(f"poisoned estimate for {name}")

    monkeypatch.setattr(registry, "estimate", poisoned)
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 100},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
    ]})
    serial = run_workload(spec, jobs=1, cache_dir=tmp_path / "serial")
    assert not serial.ok
    assert serial.rows[1]["ok"] is False
    assert serial.rows[1]["error"].startswith("ValueError: poisoned")
    assert "ValueError" in serial.rows[1]["traceback"]  # class preserved
    assert serial.rows[0]["ok"] and serial.rows[2]["ok"]
    # The fork pool inherits the monkeypatch; before the broad catch the
    # ValueError escaped pool.map and run_workload itself raised.
    pooled = run_workload(spec, jobs=2, cache_dir=tmp_path / "pooled")
    assert not pooled.ok
    assert pooled.rows[1]["ok"] is False
    assert pooled.rows[1]["error"].startswith("ValueError: poisoned")
    assert pooled.rows[0]["ok"] and pooled.rows[2]["ok"]


def test_pooled_cache_stats_are_the_sum_of_worker_counters(tmp_path):
    """Pooled stats come from the workers' real CacheStats deltas.

    The old provenance reconstruction counted only rows that carried a
    ``"cache"`` source string: a request whose compile *failed* still did a
    real cache lookup (a miss) that never appeared, and evictions were
    hardcoded to zero."""
    spec = WorkloadSpec.from_dict(SPEC)
    serial = run_workload(spec, jobs=1, cache_dir=tmp_path / "serial")
    pooled = run_workload(spec, jobs=2, cache_dir=tmp_path / "pooled")
    # Same honest totals as a serial run over a fresh directory: the
    # memo/disk split differs per worker, the sums cannot.
    assert pooled.cache_stats["misses"] == serial.cache_stats["misses"]
    assert pooled.cache_stats["puts"] == serial.cache_stats["puts"]
    assert (
        pooled.cache_stats["memo_hits"] + pooled.cache_stats["disk_hits"]
        == serial.cache_stats["memo_hits"] + serial.cache_stats["disk_hits"]
    )
    assert pooled.cache_stats["evictions"] == serial.cache_stats["evictions"] == 0

    # A failing compile is a lookup without a put: visible only in the
    # honest counters (the provenance strings never mentioned it).
    failing = WorkloadSpec.from_dict({"requests": [
        {"kind": "synthesize", "strategy": "no-such-strategy", "d": 3, "k": 4},
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 3},
    ]})
    report = run_workload(failing, jobs=2, cache_dir=tmp_path / "failing")
    # no-such-strategy: one miss in the compile phase and one in the
    # execute phase; mct: one miss (compile) + one hit (execute).
    assert report.cache_stats["misses"] == 3
    assert report.cache_stats["puts"] == 1
    assert report.cache_stats["memo_hits"] + report.cache_stats["disk_hits"] == 1


# ----------------------------------------------------------------------
# CLI: batch subcommand
# ----------------------------------------------------------------------
def test_cli_batch_cold_then_warm(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    cache_dir = str(tmp_path / "cache")
    report_path = tmp_path / "report.json"
    assert main(["batch", "--workload", str(path), "--cache-dir", cache_dir,
                 "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "Batch workload" in out and "deduped" in out
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["ok"] and payload["unique_compiles"] == 2

    assert main(["batch", "--workload", str(path), "--cache-dir", cache_dir,
                 "--jobs", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warm_hits"] == 2
    assert all(row["cache"] in ("disk", "memo", "n/a") for row in payload["requests"])


def test_cli_batch_reports_failures_with_exit_one(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"requests": [
            {"kind": "synthesize", "strategy": "no-such", "d": 3, "k": 4}]}),
        encoding="utf-8",
    )
    assert main(["batch", "--workload", str(path)]) == 1
    assert "no-such" in capsys.readouterr().out


def test_cli_batch_rejects_bad_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI: simulate --state validation (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "state,fragment",
    [
        ("0,0,5,0", "out of range"),
        ("0,0,x,0", "not an integer"),
        ("0,0,0", "states rows have 3 digits, mct at d=3, k=3 has 4 wires"),
        ("0,0,0,0,0", "states rows have 5 digits, mct at d=3, k=3 has 4 wires"),
        ("-1,0,0,0", "out of range"),
    ],
)
def test_cli_simulate_state_validation(state, fragment, capsys):
    assert main(["simulate", "mct", "3", "3", f"--state={state}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


def test_cli_simulate_valid_state_still_works(capsys):
    assert main(["simulate", "mct", "3", "3", "--state", "0 0 0 1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["input"] == "0001" and payload["output"] == "0000"


# ----------------------------------------------------------------------
# CLI: simulate is one request through the schema, as batch runs it
# ----------------------------------------------------------------------
def _simulate_json(capsys, *args):
    assert main(["simulate", *args, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_simulate_propagates_a_register_past_any_address_space(capsys):
    """3^31 dense amplitudes are 8.8 PiB: the CLI used to die allocating
    them.  The request path pushes the one index through the rows."""
    row = _simulate_json(capsys, "mct", "3", "30")
    assert row["sim_path"] == "propagate"
    assert row["input"] == "0" * 31 and row["output"] == "0" * 30 + "1"


def test_cli_simulate_refuses_a_register_past_int64(capsys):
    """Used to die with numpy's "Maximum allowed dimension exceeded"."""
    assert main(["simulate", "mct", "3", "39", "--backend", "sparse"]) == 1
    err = _one_error_line(capsys)
    assert "3^40 basis states exceed the int64 flat-index range" in err


def test_cli_simulate_refuses_a_named_strategy_over_the_ancilla_budget(capsys):
    """Used to exit 0 on a circuit with two clean ancillas."""
    flags = ["mct-clean-ladder", "3", "4", "--max-clean", "0"]
    assert main(["synthesize", *flags]) == 1
    refusal = _one_error_line(capsys)
    assert main(["simulate", *flags]) == 1
    assert _one_error_line(capsys) == refusal
    assert "uses ancillas {'clean': 2} at d=3, k=4, which exceeds the requested budget" in refusal


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_cli_refuses_a_point_the_strategy_does_not_support(command, capsys):
    """``synthesize`` printed a 1-op, 3-wire circuit and ``simulate`` failed
    inside the even-d gadget's lowering."""
    assert main([command, "mct-clean-ladder", "4", "2"]) == 1
    err = _one_error_line(capsys)
    assert "strategy 'mct-clean-ladder' does not support d=4, k=2" in err


def test_a_bare_memory_error_names_what_ran_out(monkeypatch, capsys):
    """``MemoryError()`` has no text: the row and the CLI used to say only
    ``MemoryError: ``."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("repro.exec.workload.compile_lowered", out_of_memory)
    request = WorkloadRequest(kind="simulate", strategy="mcu-exponential", dim=3, k=3)
    row = execute_request(request, None)
    expected = "MemoryError: out of memory running simulate mcu-exponential at d=3, k=3"
    assert row["ok"] is False and row["error"] == expected
    assert "MemoryError" in row["traceback"]
    assert main(["simulate", "mcu-exponential", "3", "3"]) == 1
    assert _one_error_line(capsys) == f"error: {expected}\n"


def test_lowered_keys_of_registered_names_are_memoized_and_others_are_not():
    from repro.exec.keys import cache_key
    from repro.exec.service import _registered_key

    _registered_key.cache_clear()
    for _ in range(3):
        assert lowered_key("mct", 3, 5, salt="s") == cache_key("mct", 3, 5, salt="s")
    unknown = "x" * 10_000
    assert lowered_key(unknown, 3, 5) == cache_key(unknown, 3, 5)
    info = _registered_key.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


#: (``simulate`` arguments, the same request for ``batch``, its ``sim_path``).
CLI_BATCH_PARITY_CASES = [
    (["mct", "3", "3", "--state", "0,0,0,1"],
     {"strategy": "mct", "d": 3, "k": 3, "states": [[0, 0, 0, 1]]}, "gather"),
    (["mct", "3", "7", "--state", "0,0,0,0,0,0,0,2"],
     {"strategy": "mct", "d": 3, "k": 7, "states": [[0] * 7 + [2]]}, "propagate"),
    (["mcu-exponential", "3", "2", "--state", "0,0,1"],
     {"strategy": "mcu-exponential", "d": 3, "k": 2, "states": [[0, 0, 1]]}, "operator"),
    (["mcu-exponential", "3", "2", "--state", "0,0,1", "--memory-budget", "64"],
     {"strategy": "mcu-exponential", "d": 3, "k": 2, "states": [[0, 0, 1]],
      "memory_budget": 64}, "dense"),
    (["mcu-exponential", "3", "2", "--backend", "sparse"],
     {"strategy": "mcu-exponential", "d": 3, "k": 2, "backend": "sparse"}, "sparse"),
    (["auto", "4", "4"], {"strategy": "auto", "d": 4, "k": 4}, "dense"),
]


@pytest.mark.parametrize(
    "args,request_,sim_path",
    CLI_BATCH_PARITY_CASES,
    ids=["gather", "propagate", "operator", "budgeted-dense", "sparse", "auto"],
)
def test_cli_simulate_answers_as_batch_does(args, request_, sim_path, tmp_path, capsys):
    cli = _simulate_json(capsys, *args)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"requests": [{"kind": "simulate", **request_}]}), encoding="utf-8")
    assert main(["batch", "--workload", str(path), "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["requests"]
    assert (cli["strategy"], cli["output"]) == (row["strategy"], row["outputs"][0])
    assert cli["sim_path"] == row["sim_path"] == sim_path


# ----------------------------------------------------------------------
# Permutation simulates: cached whole-basis gather vs index propagation
# ----------------------------------------------------------------------
#: (strategy, d, k) on both sides of GATHER_MAX_STATES = 4096 basis states;
#: ``pk`` exists for odd d only.
PATH_CASES = [
    ("mct", 3, 4),                # 3^5 = 243
    ("mct", 4, 4),                # 4^6 = 4096, the crossover itself
    ("pk", 3, 6),                 # 3^7 = 2187
    ("mct-clean-ladder", 3, 4),   # 3^7 = 2187
    ("mct-clean-ladder", 4, 4),   # 4^6 = 4096
    ("mct", 3, 7),                # 3^8 = 6561
    ("mct", 4, 5),                # 4^7 = 16384
    ("pk", 3, 7),                 # 3^8 = 6561
    ("mct-clean-ladder", 3, 5),   # 3^9 = 19683
    ("mct-clean-ladder", 4, 5),   # 4^8 = 65536
]


def _expected_outputs(strategy, d, k, states):
    """Images of ``states`` from the gate's definition, not from a circuit."""
    from repro.core.pk import pk_map
    from repro.verify.checks import mct_spec

    if strategy == "pk":
        images = [pk_map(d, row[:k]) + tuple(row[k:]) for row in states]
    else:
        result = registry.get(strategy).synthesize(d, k)
        spec = mct_spec(result.controls, result.target, d)
        images = [spec(row) for row in states]
    return ["".join(map(str, image)) for image in images]


def _path_request(strategy, d, k, **options):
    """A simulate request over six states: three fire the gate (controls 0),
    every clean ancilla starts at 0."""
    result = registry.get(strategy).synthesize(d, k)
    rng = np.random.default_rng([d, k, len(strategy)])
    states = rng.integers(0, d, size=(6, result.circuit.num_wires))
    states[:3, list(result.controls)] = 0
    states[:, list(result.clean_wires())] = 0
    states = tuple(tuple(row) for row in states.tolist())
    return WorkloadRequest(
        kind="simulate", strategy=strategy, dim=d, k=k, states=states, **options
    )


@pytest.mark.parametrize("strategy,d,k", PATH_CASES)
def test_gather_and_propagation_match_the_gate_definition(strategy, d, k, monkeypatch):
    request = _path_request(strategy, d, k)
    expected = _expected_outputs(strategy, d, k, request.states)
    cache = CompileCache()
    row = execute_request(request, cache)
    assert row["ok"], row.get("error")
    basis = d ** row["num_wires"]
    assert row["sim_path"] == ("gather" if basis <= permutation.GATHER_MAX_STATES else "propagate")
    assert row["outputs"] == expected
    # Force each path on both sides of the crossover.
    for limit, path in ((0, "propagate"), (basis, "gather")):
        monkeypatch.setattr(permutation, "GATHER_MAX_STATES", limit)
        forced = execute_request(request, cache)
        assert forced["sim_path"] == path and forced["outputs"] == expected
    table = cache.get(lowered_key(strategy, d, k)).table
    indices = np.random.default_rng(basis).integers(0, basis, size=64)
    assert np.array_equal(table.permutation_index_table()[indices],
                          table.apply_to_indices(indices))


def test_one_crossover_moves_the_workload_simulate_and_the_sampled_verify_tier(monkeypatch):
    """The gather-or-propagate decision is one function, so one patch of
    ``GATHER_MAX_STATES`` moves a workload row's ``sim_path`` and the sampled
    verify tier alike; the tier's gather shows as a composition on the
    checked table's pools."""
    from repro import lower_to_g_gates
    from repro.verify import VerificationBudget

    request = _path_request("mct", 3, 4)
    strategy = registry.get("mct")
    basis = 3**5
    sampled = VerificationBudget(max_basis_states=basis - 1, samples=64)
    for limit, path in ((basis, "gather"), (basis - 1, "propagate")):
        monkeypatch.setattr(permutation, "GATHER_MAX_STATES", limit)
        assert execute_request(request, CompileCache())["sim_path"] == path
        lowered = lower_to_g_gates(strategy.synthesize(3, 4).circuit)  # fresh pools
        report = strategy.verify(lowered, 3, 4, budget=sampled)
        assert report.status == "verified" and report.decided_by == "index-propagation"
        assert lowered.to_table().pools.segments.builds == (path == "gather")


def test_repeated_simulates_compose_the_cached_gather_once():
    request = _path_request("mct", 3, 4)
    cache = CompileCache()
    spec = WorkloadSpec([request] * 6)
    report = run_workload(spec, cache=cache)
    assert report.ok
    assert {row["sim_path"] for row in report.rows} == {"gather"}
    assert all(row["outputs"] == report.rows[0]["outputs"] for row in report.rows)
    # Six requests, one compile: the table served from the memo holds the
    # gather composed by the first request.
    segments = cache.get(lowered_key("mct", 3, 4)).table.pools.segments
    assert segments.builds == 1


@pytest.mark.parametrize(
    "strategy,d,k,options,path",
    [
        ("mct", 4, 5, {}, "propagate"),  # 4^7 states: above the crossover
        # 3^5 states: the gather takes 243 * 8 = 1944 bytes.
        ("mct", 3, 4, {"memory_budget": 1943}, "propagate"),
        ("mct", 3, 4, {"memory_budget": 1944}, "gather"),
    ],
)
def test_large_registers_and_tight_budgets_stay_on_propagation(strategy, d, k, options, path):
    request = _path_request(strategy, d, k, **options)
    cache = CompileCache()
    row = execute_request(request, cache)
    assert row["ok"] and row["sim_path"] == path
    assert row["outputs"] == _expected_outputs(strategy, d, k, request.states)
    segments = cache.get(lowered_key(strategy, d, k)).table.pools.segments
    assert segments.builds == (1 if path == "gather" else 0)


def test_non_permutation_rows_name_their_backend():
    spec = WorkloadSpec.from_dict({"requests": [
        {"kind": "simulate", "strategy": "unitary", "d": 3, "k": 2},
        {"kind": "simulate", "strategy": "unitary", "d": 3, "k": 2, "memory_budget": "4K"},
    ]})
    report = run_workload(spec)
    assert report.ok
    assert [row["sim_path"] for row in report.rows] == ["operator", "dense"]
    assert report.rows[0]["outputs"] == report.rows[1]["outputs"]


# ----------------------------------------------------------------------
# Verify checks the table the row is served from
# ----------------------------------------------------------------------
#: A verified simulate of the ``mct`` d=3 k=3 gate on |0001⟩ (it fires: 0001 -> 0000).
MCT_VERIFY_REQUEST = WorkloadRequest(
    kind="simulate", strategy="mct", dim=3, k=3, states=((0, 0, 0, 1),), verify="standard"
)


def test_verify_fails_a_tampered_cache_entry(tampered_cache_dir):
    """Verify used to re-synthesize the macro circuit and check that: with one
    row dropped from the cached archive, a disk hit served wrong outputs and
    its row still read ``verified``."""
    cache_dir, key = tampered_cache_dir
    row = execute_request(MCT_VERIFY_REQUEST, CompileCache(cache_dir))
    assert row["cache"] == "disk"
    assert row["ok"] is False and row["error"].startswith("VerificationError: ")
    assert "outputs" not in row and "sim_path" not in row
    assert row["verify_result"] == {"status": "failed", "key": key}


def test_verify_passes_the_untouched_entry_and_names_its_key(tmp_path):
    cache = CompileCache(tmp_path)
    row = execute_request(MCT_VERIFY_REQUEST, cache)
    assert row["ok"] and row["outputs"] == ["0000"]
    assert row["verify_result"] == {
        "status": "verified",
        "key": lowered_key("mct", 3, 3),
        "tier": "dense",
        "states_checked": 81,
    }


#: The verify requests of the benchmark's ``serve_warm`` mix, with the tier
#: that decides each and the number of states it checks.
SERVE_WARM_VERIFY = [
    ("mct", 3, 4, "smoke", "index-propagation", 128),
    ("mct", 3, 5, "standard", "dense", 729),
    ("mct", 4, 3, "standard", "dense", 1024),
    ("mcu-exponential", 3, 3, "smoke", "sampled-columns", 7),
    ("mcu-exponential", 3, 3, "standard", "dense", 81),
    ("unitary", 3, 2, "standard", "dense", 9),
]


@pytest.mark.parametrize("strategy,d,k,level,tier,states", SERVE_WARM_VERIFY)
def test_served_verify_keeps_each_tier_and_states_checked(strategy, d, k, level, tier, states):
    request = WorkloadRequest(kind="synthesize", strategy=strategy, dim=d, k=k, verify=level)
    cache = CompileCache()
    for source in ("built", "memo"):
        row = execute_request(request, cache)
        assert row["ok"] and row["cache"] == source, row.get("error")
        assert row["verify_result"] == {
            "status": "verified",
            "key": lowered_key(strategy, d, k),
            "tier": tier,
            "states_checked": states,
        }


def test_verify_request_path_never_synthesizes(monkeypatch):
    request = WorkloadRequest(kind="synthesize", strategy="mct", dim=3, k=4, verify="standard")
    cache = CompileCache()
    assert execute_request(request, cache)["ok"]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm verify request synthesized a circuit")

    monkeypatch.setattr(type(registry.get("mct")), "synthesize", refuse)
    row = execute_request(request, cache)
    assert row["ok"] and row["verify_result"]["status"] == "verified"


def test_cli_batch_deeply_nested_workload_is_one_error_line(tmp_path, capsys):
    """``WorkloadSpec.from_json`` caught only ``ValueError``, so 100,000
    ``[`` ended the CLI in a ``RecursionError`` traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["batch", "--workload", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: workload spec is not valid JSON") and "Traceback" not in err
