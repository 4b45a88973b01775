"""Design-space exploration: batch estimation, Pareto kernel, sweeps, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.dse import (
    SweepSpec,
    frontier_report,
    pareto_mask,
    plan_sweep,
    run_sweep,
    scenario_frontiers,
)
from repro.dse.sweep import STATUS_ERROR, STATUS_OFFSCALE, STATUS_OK
from repro.exceptions import DSEError, EstimationError, SynthesisError
from repro.resources import cache_stats, clear_caches
from repro.resources.estimator import (
    CALIBRATION_CACHE_ENTRIES,
    INT64_MAX,
    MEASURED_CACHE_ENTRIES,
    METRIC_FIELDS,
)
from repro.synth import registry


# ----------------------------------------------------------------------
# Vectorized batch estimation == scalar estimation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mct", "pk", "mcu", "mct-clean-ladder"])
@pytest.mark.parametrize("dim", [3, 5])
def test_batch_estimate_matches_scalar_rows(name, dim):
    strategy = registry.get(name)
    ks = np.arange(0, 40, dtype=np.int64)
    ks = ks[strategy.supports_batch(dim, ks)]
    batch = strategy.estimate_batch(dim, ks)
    assert len(batch) == ks.size
    for index, k in enumerate(ks.tolist()):
        assert batch.row(index) == strategy.estimate(dim, int(k))


def test_batch_estimate_large_grid_spot_checked():
    strategy = registry.get("mct")
    ks = np.arange(1, 50_001, dtype=np.int64)
    batch = strategy.estimate_batch(3, ks)
    scalar = [strategy.estimate(3, int(ks[i])) for i in (0, 1, 2, 9999, 49_999)]
    for resources, index in zip(scalar, (0, 1, 2, 9999, 49_999)):
        assert batch.row(index) == resources
    assert not batch.offscale.any()


def test_exponential_batch_saturates_past_int64():
    strategy = registry.get("mcu-exponential")
    ks = np.array([0, 1, 5, 62, 63, 100], dtype=np.int64)
    batch = strategy.estimate_batch(3, ks)
    # Exact up to k = 62 (3·2^61 − 2 still fits int64)...
    assert batch.row(3) == strategy.estimate(3, 62)
    assert not batch.offscale[:4].any()
    # ...saturated and flagged beyond; saturated rows refuse scalar export.
    assert batch.offscale[4] and batch.offscale[5]
    with pytest.raises(EstimationError):
        batch.row(5)


def test_exponential_scalar_estimate_survives_numpy_k():
    # A numpy-int64 k must not silently wrap past k = 62 (3·2^62 > int64).
    strategy = registry.get("mcu-exponential")
    exact = strategy.estimate(3, 63)
    wrapped = strategy.estimate(3, np.int64(63))
    assert exact.macro_ops == 3 * 2**62 - 2
    assert wrapped.macro_ops == exact.macro_ops


def test_calibration_and_measure_memos_are_bounded():
    clear_caches()
    assert cache_stats()["measured_entries"] == 0
    registry.get("mct").estimate(3, 15)
    registry.get("mct").estimate(3, 15)
    stats = cache_stats()
    assert stats["calibration_hits"] >= 1
    assert stats["measured_entries"] <= MEASURED_CACHE_ENTRIES
    assert stats["calibration_entries"] <= CALIBRATION_CACHE_ENTRIES


# ----------------------------------------------------------------------
# Pareto kernel vs. the O(n²) definition
# ----------------------------------------------------------------------
def _pareto_brute_force(costs: np.ndarray) -> np.ndarray:
    n = len(costs)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if np.all(costs[j] <= costs[i]) and np.any(costs[j] < costs[i]):
                mask[i] = False
                break
    return mask


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pareto_mask_matches_brute_force_on_random_clouds(m, seed):
    rng = np.random.default_rng(seed)
    # Small integer range on purpose: guarantees duplicate rows and ties.
    costs = rng.integers(0, 8, size=(120, m))
    assert np.array_equal(pareto_mask(costs), _pareto_brute_force(costs))


def test_pareto_mask_degenerate_and_duplicate_cases():
    # A constant column must not break dominance (nothing is < there).
    costs = np.array([[1, 5], [1, 3], [1, 4], [1, 3]])
    assert np.array_equal(pareto_mask(costs), _pareto_brute_force(costs))
    # Duplicated frontier points all stay on the frontier.
    assert list(pareto_mask(costs)) == [False, True, False, True]
    # All-identical cloud: everything is optimal.
    assert pareto_mask(np.ones((5, 3))).all()
    # Empty cloud and bad shapes.
    assert pareto_mask(np.zeros((0, 4))).shape == (0,)
    with pytest.raises(DSEError):
        pareto_mask(np.zeros(5))
    with pytest.raises(DSEError):
        pareto_mask(np.zeros((5, 0)))


def test_pareto_mask_matches_brute_force_with_float_costs():
    rng = np.random.default_rng(7)
    costs = rng.normal(size=(80, 3)).round(1)  # rounding manufactures ties
    assert np.array_equal(pareto_mask(costs), _pareto_brute_force(costs))


# ----------------------------------------------------------------------
# Sweep → store → frontiers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def swept():
    spec = SweepSpec(dims=(3, 4), k_stop=24)
    return spec, run_sweep(spec)


def test_sweep_spec_validation_and_round_trip():
    spec = SweepSpec.from_dict(
        {
            "dims": [3, 4],
            "k_stop": 10,
            "pipelines": ["default"],
        }
    )
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(DSEError):
        SweepSpec(k_start=5, k_stop=2)
    with pytest.raises(DSEError):
        SweepSpec(dims=())
    with pytest.raises(DSEError):
        SweepSpec(pipelines=("mystery",))
    with pytest.raises(DSEError):
        SweepSpec.from_dict({"bogus_field": 1})
    # The retired ``budgets`` field is unknown now, not silently ignored.
    with pytest.raises(DSEError, match="budgets"):
        SweepSpec.from_dict({"budgets": [None]})
    # Only JSON types: int() swept d=3 for 3.9 and k <= 1 for true, and a
    # family without a dispatchable strategy swept nothing.
    for raw in (
        {"dims": [3.9]},
        {"k_stop": True},
        {"k_start": 2.5},
        {"family": 7},
        {"family": "nosuch"},
        {"strategies": "mct"},
        {"strategies": [7]},
    ):
        with pytest.raises(DSEError):
            SweepSpec.from_dict(raw)


def test_sweep_covers_grid_and_records_statuses(swept):
    spec, store = swept
    counts = store.counts()
    strategies = spec.resolve_strategies()
    expected = 0  # each (strategy, d) contributes its supported slice of ks
    for name in strategies:
        strategy = registry.get(name)
        for dim in spec.dims:
            expected += int(strategy.supports_batch(dim, spec.ks()).sum())
    assert counts["points"] == expected == len(store)
    # The even-d clean-ladder k=2 point, which no lowering can build, is
    # refused by supports_batch and never swept (it used to be an error row).
    cols = store.columns
    ladder = store.strategies.index("mct-clean-ladder")
    at = (cols["strategy_id"] == ladder) & (cols["dim"] == 4)
    assert 2 not in cols["k"][at].tolist() and 3 in cols["k"][at].tolist()
    assert counts["ok"] + counts["offscale"] + counts["error"] == counts["points"]


def test_a_failing_estimate_lands_as_an_error_row(monkeypatch):
    """One point whose estimate fails poisons its chunk's batch estimate;
    the chunk degrades to scalar estimates and records that point, and only
    it, as an error row instead of crashing the sweep."""
    ladder = registry.get("mct-clean-ladder")
    scalar = ladder.estimate

    def estimate(dim, k):
        if k == 5:
            raise EstimationError("injected failure")
        return scalar(dim, k)

    def estimate_batch(dim, ks):
        raise EstimationError("injected failure")

    monkeypatch.setattr(ladder, "estimate", estimate)
    monkeypatch.setattr(ladder, "estimate_batch", estimate_batch)
    store = run_sweep(SweepSpec(strategies=("mct-clean-ladder",), dims=(3,), k_stop=8))
    cols = store.columns
    assert cols["k"].tolist() == list(range(9))
    assert cols["k"][cols["status"] == STATUS_ERROR].tolist() == [5]
    ok = cols["status"] == STATUS_OK
    assert ok.sum() == 8
    for k, g_gates in zip(cols["k"][ok].tolist(), cols["g_gates"][ok].tolist()):
        assert g_gates == scalar(3, k).g_gates


def test_parallel_sweep_equals_serial(swept):
    spec, store = swept
    parallel_store = run_sweep(spec, jobs=2)
    # pool.imap yields chunks in submission order: equal row for row.
    assert parallel_store.strategies == store.strategies
    assert parallel_store.pipelines == store.pipelines
    assert parallel_store.columns.keys() == store.columns.keys()
    for name in store.columns:  # column_names() plus exact and status
        np.testing.assert_array_equal(
            parallel_store.columns[name], store.columns[name], err_msg=name
        )


def test_swept_rows_match_live_estimates(swept):
    """Every analytic sweep row is the scalar estimate ``auto_select`` ranks:
    an ok row carries the same metrics and wire count, and an error row is a
    point where ``estimate`` raises one of the errors ``auto_select`` skips."""
    _, store = swept
    cols = store.columns
    checked = 0
    for i in range(len(store)):
        strategy = registry.get(store.strategies[int(cols["strategy_id"][i])])
        dim, k = int(cols["dim"][i]), int(cols["k"][i])
        status = int(cols["status"][i])
        if status == STATUS_ERROR:
            with pytest.raises((EstimationError, SynthesisError)):
                strategy.estimate(dim, k)
            continue
        live = strategy.estimate(dim, k)
        if status == STATUS_OFFSCALE:  # saturated column: the live count overflows int64
            assert max(live.metrics()) > INT64_MAX
            continue
        assert status == STATUS_OK
        for name, value in zip(METRIC_FIELDS, live.metrics()):
            assert int(cols[name][i]) == value, f"{strategy.name} d={dim} k={k}: {name}"
        assert int(cols["num_wires"][i]) == live.num_wires
        assert bool(cols["exact"][i]) == live.exact
        checked += 1
    assert checked > 100


def test_scenario_frontiers_match_pareto_kernel(swept):
    _, store = swept
    frontiers = scenario_frontiers(store, 3)
    cols = store.columns
    ancilla_total = sum(cols[f"anc_{kind}"] for kind in ("clean", "borrowed", "burnable", "garbage"))
    for i, k in enumerate(frontiers["ks"].tolist()):
        rows = (cols["dim"] == 3) & (cols["k"] == k) & (cols["status"] != STATUS_ERROR)
        names = [store.strategies[int(s)] for s in cols["strategy_id"][rows]]
        costs = np.stack(
            [cols["g_gates"][rows], cols["depth"][rows], cols["two_qudit_gates"][rows], ancilla_total[rows]],
            axis=1,
        )
        brute = {name for name, keep in zip(names, _pareto_brute_force(costs)) if keep}
        kernel = {
            frontiers["strategies"][s]
            for s in range(len(frontiers["strategies"]))
            if frontiers["frontier"][s, i]
        }
        assert kernel == brute, f"frontier mismatch at d=3, k={k}"


def test_frontier_report_is_json_able_and_consistent(swept):
    _, store = swept
    report = frontier_report(store)
    json.dumps(report, default=str)
    block = report["dims"]["3"]
    assert sum(block["win_counts"].values()) == block["ks"]["count"]
    assert block["crossovers"], "d=3 winner never changes across k?"


# ----------------------------------------------------------------------
# Materialized pipeline variants
# ----------------------------------------------------------------------
def test_materialized_pipeline_variant_rows():
    spec = SweepSpec(
        strategies=("mct",), dims=(3,), k_stop=4, pipelines=("default", "expand-only")
    )
    chunks = plan_sweep(spec)
    assert {c.mode for c in chunks} == {"analytic", "materialized"}
    store = run_sweep(spec)
    cols = store.columns
    expand = cols["pipeline_id"] == store.pipelines.index("expand-only")
    default = cols["pipeline_id"] == store.pipelines.index("default")
    assert expand.sum() == default.sum() == 5
    # The expand-only variant skips cancellation/fusion, so it can only cost
    # more G-gates than the default lowering, never fewer.
    order = np.argsort(cols["k"])
    exp_rows = {int(cols["k"][i]): int(cols["g_gates"][i]) for i in order if expand[i]}
    def_rows = {int(cols["k"][i]): int(cols["g_gates"][i]) for i in order if default[i]}
    assert all(exp_rows[k] >= def_rows[k] for k in exp_rows)
    assert any(exp_rows[k] > def_rows[k] for k in exp_rows)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_dse_sweep_report(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(
        json.dumps({"dims": [3], "k_stop": 10, "strategies": ["mct", "mcu-exponential"]}),
        encoding="utf-8",
    )
    report_path = tmp_path / "frontier.json"
    assert (
        main(["dse", "--sweep", str(spec_path), "--report", str(report_path), "--json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"]["points"] == 22
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert "3" in report["dims"]


def test_cli_dse_rejects_a_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
    assert main(["dse", "--sweep", str(spec_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,fragment",
    [
        ('{"dims": [3,', "sweep spec is not valid JSON"),  # malformed JSON
        (None, "cannot read sweep spec"),  # missing file
        ('{"dims": 5}', "malformed sweep spec"),  # fields of the wrong type
        ('{"k_start": "a"}', "malformed sweep spec"),
        ('{"dims": ["x"]}', "malformed sweep spec"),
        ('{"dims": [3.9]}', "malformed sweep spec: dims"),  # used to sweep d=3
        ('{"k_stop": true}', "malformed sweep spec: k_stop"),  # used to sweep k <= 1
        ('{"k_start": 2.5}', "malformed sweep spec: k_start"),
        ('{"family": 7}', "malformed sweep spec: family"),  # used to sweep nothing
        ('{"family": "nosuch"}', "family 'nosuch' has no dispatchable strategy"),
        # Used to end in "ValueError: Maximum allowed size exceeded".
        (
            '{"dims": [3], "k_stop": 100000000000000000000}',
            "k_stop=100000000000000000000 is past int64",
        ),
        ('{"dims": [3], "k_stop": 5000000}', "k range covers 5000001 values"),
    ],
)
def test_cli_dse_bad_sweep_file_is_one_error_line(tmp_path, capsys, content, fragment):
    """``dse --sweep`` used to end in a ``JSONDecodeError``,
    ``FileNotFoundError``, ``TypeError`` or ``ValueError`` traceback instead
    of one ``error:`` line."""
    path = tmp_path / "sweep.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["dse", "--sweep", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}") and "Traceback" not in err
