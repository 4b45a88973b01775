"""Command-line front door: ``python -m repro {list,estimate,synthesize,simulate}``.

Quick scenario exploration over the synthesis registry:

* ``python -m repro list`` — registered strategies with capability metadata;
* ``python -m repro estimate 3 1000000`` — analytic resource counts for
  every applicable strategy (no circuit is built), with the ``auto`` pick
  highlighted; ``--strategy`` restricts to one, ``--json`` emits JSON;
* ``python -m repro synthesize mct 3 5 --verify --lower`` — build a circuit
  through the registry, optionally check it against its semantic
  specification and lower it to G-gates;
* ``python -m repro simulate mct 3 6 --backend sparse --state 0,0,0,0,0,0,2``
  — run a basis state through the served circuit as one ``simulate``
  request, parsed by ``WorkloadRequest.from_dict`` and run by
  ``execute_request`` as ``batch`` and the daemon run it: the same
  refusals, and the row names its ``sim_path`` (``--backend`` offers every
  registered engine; ``--memory-budget 8M`` tiles the ``dense`` engine and
  caps a permutation circuit's gather).
* ``python -m repro fuzz --time-budget 20 --seed 0 --json`` — differential
  fuzzing: seeded random circuits, synthesis instances and pass pipelines
  through every redundant path (see :mod:`repro.fuzz`); exits
  non-zero on any divergence, with failures shrunk to minimal reproducers.
* ``python -m repro batch --workload spec.json --jobs 4 --cache-dir .cache``
  — run a JSON workload (synthesize / simulate / estimate requests) through
  the persistent content-addressed compile cache: requests sharing a cache
  key are compiled once, workers share artifacts through the cache
  directory, and warm runs skip synthesis entirely (see :mod:`repro.exec`).
* ``python -m repro dse --sweep sweep.json --jobs 4 --report frontier.json``
  — design-space exploration: sweep strategy × pipeline × (d, k) through
  the vectorized batch estimator and print the Pareto frontier / winner
  report (see :mod:`repro.dse`).

``estimate --strategy``, ``synthesize`` and ``simulate`` take their ancilla
budget (``--max-clean`` / ``--max-borrowed`` / ``--max-ancillas``) through
:func:`repro.synth.registry.resolve`: ``auto`` picks under it, and a named
strategy over it is refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.bench.formatting import json_safe, render_table
from repro.core.gate_counts import count_gates
from repro.exceptions import ReproError, SynthesisError
from repro.resources.estimator import Resources
from repro.synth import AncillaBudget, auto_select
from repro.synth import registry as _registry


def _budget_from_args(args) -> Optional[AncillaBudget]:
    if args.max_clean is None and args.max_borrowed is None and args.max_ancillas is None:
        return None
    return AncillaBudget(
        clean=args.max_clean, borrowed=args.max_borrowed, total=args.max_ancillas
    )


def _verify_budget_from_args(args):
    """Build a verification budget from ``--verify-tier`` / ``--verify-budget``.

    ``--verify-tier`` names a preset (``smoke``/``standard``/``audit``);
    ``--verify-budget`` is a JSON object of field overrides applied on top
    (on ``standard`` when no tier is named), each type-checked by
    :class:`~repro.verify.VerificationBudget`.  Returns ``None`` when
    neither flag is set: ``synthesize --verify`` then passes ``None`` on,
    which means ``standard``, and ``fuzz`` keeps its own default budget.
    """
    from repro.verify import VerificationBudget

    tier = getattr(args, "verify_tier", None)
    overrides_text = getattr(args, "verify_budget", None)
    if tier is None and overrides_text is None:
        return None
    budget = VerificationBudget.preset(tier or "standard")
    if overrides_text:
        try:
            overrides = json.loads(overrides_text)
        except json.JSONDecodeError as error:
            raise SynthesisError(f"--verify-budget is not valid JSON: {error}") from None
        if not isinstance(overrides, dict):
            raise SynthesisError(
                "--verify-budget must be a JSON object of budget fields, "
                'e.g. \'{"samples": 64, "allow_dense": false}\''
            )
        budget = budget.replace(**overrides)
    return budget


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args) -> int:
    rows = []
    for strategy in _registry.all_strategies():
        caps = strategy.capabilities
        rows.append(
            {
                "name": strategy.name,
                "family": caps.family,
                "d": f"{'/'.join(sorted(caps.parities))} ≥ {caps.min_dim}",
                "min_k": caps.min_k,
                "ancillas": caps.ancillas or caps.ancilla_kind,
                "gates": caps.gates,
                "estimate": "exact" if caps.analytic else "model",
                "payload": caps.payload,
            }
        )
    from repro.sim import SparseBackend, available_backends, get_backend

    availability = {name: "available" for name in available_backends()}
    sparse_info = None
    if "sparse" in availability:
        engine = get_backend("sparse")
        if isinstance(engine, SparseBackend):
            sparse_info = {"max_occupancy": engine.max_occupancy}
    if args.json:
        payload = {"strategies": rows, "backends": availability}
        if sparse_info is not None:
            payload["sparse"] = sparse_info
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(render_table(rows, title="Registered synthesis strategies"))
        print("\nSimulation backends:")
        for name, status in availability.items():
            if name == "sparse" and sparse_info is not None:
                status = (
                    f"{status} (densifies past occupancy "
                    f"{sparse_info['max_occupancy']:g})"
                )
            print(f"  {name:<10} {status}")
        print("\nuse: python -m repro estimate <d> <k> [--strategy NAME]")
    return 0


def _resource_row(resources: Resources, seconds: float, chosen: bool) -> dict:
    row = resources.as_row()
    row["estimate_seconds"] = round(seconds, 6)
    row["auto"] = "<<<" if chosen else ""
    return row


def _cmd_estimate(args) -> int:
    budget = _budget_from_args(args)
    rows = []
    if args.strategy:
        strategy = _registry.resolve(args.strategy, args.d, args.k, budget=budget)
        strategy.estimate(args.d, args.k)  # warm the calibration cache
        start = time.perf_counter()
        resources = strategy.estimate(args.d, args.k)
        rows.append(_resource_row(resources, time.perf_counter() - start, chosen=False))
    else:
        choice = auto_select(args.d, args.k, budget=budget, family=args.family)
        for name, resources, note in choice.considered:
            if resources is None:
                rows.append({"strategy": name, "note": note})
                continue
            start = time.perf_counter()
            resources = _registry.get(name).estimate(args.d, args.k)  # warm timing
            seconds = time.perf_counter() - start
            row = _resource_row(resources, seconds, chosen=name == choice.strategy.name)
            if note:
                row["note"] = note
            rows.append(row)
    if args.json:
        print(json.dumps(json_safe(rows), indent=2, ensure_ascii=False))
    else:
        title = f"Analytic resource estimates: d={args.d}, k={args.k} (no circuits built)"
        print(render_table(rows, title=title))
    return 0


def _cmd_synthesize(args) -> int:
    verify_budget = _verify_budget_from_args(args)
    strategy = _registry.resolve(args.name, args.d, args.k, budget=_budget_from_args(args))
    if args.name == "auto":
        print(f"auto dispatch picked: {strategy.name}")
    result = strategy.synthesize(args.d, args.k)
    print(result.describe())
    report = count_gates(result, lower=args.lower)
    print(render_table([report.as_row()], title="gate counts"))
    if args.verify:
        try:
            outcome = strategy.verify(result.circuit, args.d, args.k, budget=verify_budget)
        except NotImplementedError:
            print("verify: no canonical specification for this strategy", file=sys.stderr)
            return 2
        if outcome.undecided:
            print(
                "verify: UNDECIDED — the budget ruled out every deciding tier "
                "(raise --verify-tier or --verify-budget)",
                file=sys.stderr,
            )
            return 2
        print(
            "verify: OK (matches the semantic specification; decided by the "
            f"{outcome.decided_by} tier, {outcome.states_checked} states checked)"
        )
    return 0


def _state_digits(text: str) -> List[int]:
    """Split a ``--state`` digit string; the request schema checks its
    length and range against the register."""
    digits = []
    for token in text.replace(",", " ").split():
        try:
            digits.append(int(token))
        except ValueError:
            raise SynthesisError(
                f"--state digit {token!r} is not an integer (expected e.g. 0,0,1,2)"
            ) from None
    return digits


def _check_memory_budget(args) -> None:
    """``--memory-budget`` tiles the dense engine; refuse it beside another."""
    if args.memory_budget is not None and args.backend not in (None, "dense"):
        raise SynthesisError(
            f"--memory-budget applies to the dense backend only, got --backend {args.backend}"
        )


def _cmd_simulate(args) -> int:
    """One simulate request, parsed and run as ``batch`` and the daemon run it."""
    from repro.exec import WorkloadRequest, execute_request
    from repro.sim import available_backends

    strategy = _registry.resolve(args.name, args.d, args.k, budget=_budget_from_args(args))
    raw = {
        "kind": "simulate",
        "strategy": strategy.name,
        "d": args.d,
        "k": args.k,
        "backend": args.backend,
    }
    if args.state:
        raw["states"] = [_state_digits(args.state)]
    if args.memory_budget is not None:
        raw["memory_budget"] = args.memory_budget
    request = WorkloadRequest.from_dict(raw, 0)
    result = execute_request(request, None)
    if not result["ok"]:
        print(f"error: {result['error']}", file=sys.stderr)
        return 1
    digits = request.states[0] if request.states else (0,) * result["num_wires"]
    row = {
        "strategy": result["strategy"],
        "d": args.d,
        "k": args.k,
        "backend": request.backend,
        "gates": result["gates"],
        "sim_path": result["sim_path"],
        "seconds": result["seconds"],
        "input": "".join(map(str, digits)),
        "output": result["outputs"][0],
    }
    if request.memory_budget is not None:
        row["memory_budget"] = request.memory_budget
    if args.json:
        print(json.dumps(json_safe(row), indent=2, ensure_ascii=False))
    else:
        title = (
            f"Simulate {strategy.name}: d={args.d}, k={args.k} "
            f"[backends: {'/'.join(available_backends())}]"
        )
        print(render_table([row], title=title))
    return 0


def _cmd_batch(args) -> int:
    from repro.exec import WorkloadRequest, WorkloadSpec, run_workload
    from repro.sim import parse_memory_budget

    _check_memory_budget(args)
    spec = WorkloadSpec.from_json(args.workload)
    if args.backend is not None or args.memory_budget is not None:
        # CLI-level defaults: fill in simulate requests that kept the dense
        # default and set no budget in the spec (explicit fields win).
        # Patched requests are parsed again, so they pass the same checks.
        budget = (
            parse_memory_budget(args.memory_budget)
            if args.memory_budget is not None
            else None
        )
        patched = []
        for index, request in enumerate(spec.requests):
            if (
                request.kind == "simulate"
                and request.backend == "dense"
                and request.memory_budget is None
            ):
                raw = request.to_dict()
                if args.backend is not None:
                    raw["backend"] = args.backend
                if budget is not None:
                    raw["memory_budget"] = budget
                request = WorkloadRequest.from_dict(raw, index)
            patched.append(request)
        spec = WorkloadSpec(patched)
    report = run_workload(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    payload = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(json_safe(payload), handle, indent=2, ensure_ascii=False)
    if args.json:
        print(json.dumps(json_safe(payload), indent=2, ensure_ascii=False))
    else:
        rows = []
        for index, row in enumerate(report.rows):
            rows.append(
                {
                    "#": index,
                    "kind": row.get("kind"),
                    "strategy": row.get("strategy"),
                    "d": row.get("d"),
                    "k": row.get("k"),
                    "cache": row.get("cache", ""),
                    "gates": row.get("gates", row.get("g_gates", "")),
                    "outputs": ",".join(row.get("outputs", [])) or "",
                    "seconds": row.get("seconds"),
                    "status": "ok" if row.get("ok") else row.get("error", "failed"),
                }
            )
        title = (
            f"Batch workload: {len(report.rows)} requests, jobs={report.jobs}, "
            f"{report.unique_compiles} unique compiles "
            f"({report.dedup_savings} deduped, {report.warm_hits} warm), "
            f"{report.seconds:.2f}s"
        )
        print(render_table(rows, title=title))
        if args.cache_dir:
            print(f"\ncache directory: {args.cache_dir}")
    return 0 if report.ok else 1


def _cmd_dse(args) -> int:
    from repro.dse import SweepSpec, frontier_report, run_sweep
    from repro.dse.frontier import render_report

    if args.sweep is not None:
        spec = SweepSpec.from_json(args.sweep)
    else:
        spec = SweepSpec()  # small built-in default grid
    start = time.perf_counter()
    store = run_sweep(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    sweep_seconds = time.perf_counter() - start
    report = frontier_report(store, metric=args.metric)
    report["sweep_seconds"] = round(sweep_seconds, 3)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(json_safe(report), handle, indent=2, ensure_ascii=False)
    if args.json:
        print(json.dumps(json_safe(report), indent=2, ensure_ascii=False))
    else:
        print(render_report(report))
        counts = store.counts()
        print(
            f"\nswept {counts['points']} points in {sweep_seconds:.2f}s "
            f"(jobs={args.jobs}; ok={counts['ok']}, error={counts['error']})"
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_daemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        max_queued=args.max_queued,
        max_batch=args.max_batch,
        warmup=args.warmup,
        warm_scan=not args.no_warm_scan,
    )
    return run_daemon(config)


def _cmd_fuzz(args) -> int:
    from repro.fuzz import ORACLE_NAMES, fuzz_run

    if args.time_budget is None and args.max_cases is None:
        args.time_budget = 10.0
    verify_budget = _verify_budget_from_args(args)
    options = {} if verify_budget is None else {"verify_budget": verify_budget}
    report = fuzz_run(
        seed=args.seed,
        time_budget=args.time_budget,
        max_cases=args.max_cases,
        oracles=args.oracle or None,
        shrink=args.shrink,
        **options,
    )
    payload = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
    if args.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        rows = [
            {"oracle": name, "runs": payload["oracle_runs"].get(name, 0)}
            for name in ORACLE_NAMES
            if payload["oracle_runs"].get(name)
        ]
        title = (
            f"Differential fuzz: seed={report.seed}, cases={report.cases}, "
            f"{report.elapsed_seconds:.1f}s, "
            f"{'OK' if report.ok else f'{len(report.divergences)} DIVERGENCES'}"
        )
        print(render_table(rows, title=title))
        if report.tier_hits:
            hits = ", ".join(
                f"{name}={count}" for name, count in sorted(report.tier_hits.items())
            )
            print(f"synth-spec verification tiers: {hits}")
        for divergence in report.divergences:
            print(f"\nDIVERGENCE [{divergence.oracle}] case_seed={divergence.case_seed}")
            print(f"  {divergence.message}")
            if divergence.circuit is not None:
                print(
                    f"  shrunk reproducer ({divergence.circuit.num_ops()} ops, "
                    f"{divergence.circuit.num_wires} wires, d={divergence.circuit.dim}):"
                )
                for op in divergence.circuit.ops:
                    print(f"    {op!r}")
            if divergence.instance is not None:
                print(f"  shrunk instance: {divergence.instance.describe()}")
        if not report.ok:
            print(
                "\nreproduce with: python -m repro fuzz --seed <case_seed> --max-cases 1",
                file=sys.stderr,
            )
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _add_verify_budget_flags(parser: argparse.ArgumentParser) -> None:
    from repro.verify import PRESET_NAMES

    parser.add_argument(
        "--verify-tier",
        choices=list(PRESET_NAMES),
        default=None,
        help="verification budget preset (smoke: sampled tiers only; "
        "standard: library defaults; audit: exhaustive-leaning)",
    )
    parser.add_argument(
        "--verify-budget",
        default=None,
        help="JSON object of VerificationBudget field overrides applied on "
        'top of --verify-tier, e.g. \'{"samples": 64, "allow_dense": false}\'',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registered strategies with capabilities")
    p_list.add_argument("--json", action="store_true", help="emit JSON")
    p_list.set_defaults(func=_cmd_list)

    p_est = sub.add_parser("estimate", help="analytic resource counts (no circuit built)")
    p_est.add_argument("d", type=int, help="qudit dimension")
    p_est.add_argument("k", type=int, help="size parameter (controls / digits / qudits)")
    p_est.add_argument("--strategy", help="restrict to one registered strategy")
    p_est.add_argument("--family", default="toffoli", help="family for auto ranking")
    p_est.add_argument("--json", action="store_true", help="emit JSON")
    p_est.set_defaults(func=_cmd_estimate)

    p_syn = sub.add_parser("synthesize", help="build a circuit through the registry")
    p_syn.add_argument("name", help='strategy name (or "auto")')
    p_syn.add_argument("d", type=int, help="qudit dimension")
    p_syn.add_argument("k", type=int, help="size parameter")
    p_syn.add_argument("--verify", action="store_true", help="check the semantic spec")
    p_syn.add_argument(
        "--lower", action="store_true", help="count after lowering to G-gates"
    )
    _add_verify_budget_flags(p_syn)
    p_syn.set_defaults(func=_cmd_synthesize)

    from repro.sim import available_backends

    backend_names = list(available_backends())

    p_sim = sub.add_parser("simulate", help="run a basis state as one simulate request")
    p_sim.add_argument("name", help='strategy name (or "auto")')
    p_sim.add_argument("d", type=int, help="qudit dimension")
    p_sim.add_argument("k", type=int, help="size parameter")
    p_sim.add_argument(
        "--backend",
        default="dense",
        choices=backend_names,
        help="simulation engine (from the live registry)",
    )
    p_sim.add_argument(
        "--memory-budget",
        default=None,
        help='tile the dense engine under this byte budget, e.g. "8M", "512K", 4096',
    )
    p_sim.add_argument(
        "--state", help="input basis state digits, e.g. 0,0,1,2 (default: all zeros)"
    )
    p_sim.add_argument("--json", action="store_true", help="emit JSON")
    p_sim.set_defaults(func=_cmd_simulate)

    p_batch = sub.add_parser(
        "batch", help="run a JSON workload through the compile cache in parallel"
    )
    p_batch.add_argument("--workload", required=True, help="path to the workload spec JSON")
    p_batch.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = run in-process)"
    )
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        help="persistent compile-cache directory shared by workers (and future runs)",
    )
    p_batch.add_argument(
        "--backend",
        default=None,
        choices=backend_names,
        help="backend for simulate requests that kept the dense default",
    )
    p_batch.add_argument(
        "--memory-budget",
        default=None,
        help='default byte budget (e.g. "8M") for simulate requests that run on '
        "dense and set none",
    )
    p_batch.add_argument("--report", help="also write the JSON report to this path")
    p_batch.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_batch.set_defaults(func=_cmd_batch)

    p_dse = sub.add_parser("dse", help="design-space sweep and Pareto report")
    p_dse.add_argument(
        "--sweep",
        default=None,
        help="sweep spec JSON (strategies / dims / k range / pipelines); "
        "omitted: a small built-in default grid",
    )
    p_dse.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = run in-process)"
    )
    p_dse.add_argument(
        "--cache-dir",
        default=None,
        help="compile-cache directory for materialized sweep points",
    )
    p_dse.add_argument(
        "--metric",
        default=_registry.DEFAULT_METRIC,
        help="ranking metric for the winner tables (default: %(default)s)",
    )
    p_dse.add_argument("--report", help="also write the JSON report to this path")
    p_dse.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_dse.set_defaults(func=_cmd_dse)

    p_serve = sub.add_parser(
        "serve",
        help="persistent compile/simulate daemon (JSON over HTTP; SIGTERM drains)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8752, help="TCP port (0 picks an ephemeral port)"
    )
    p_serve.add_argument(
        "--unix-socket", default=None, help="serve on this unix socket instead of TCP"
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = run in-process)"
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent compile-cache directory shared by workers "
        "(required for --jobs > 1)",
    )
    p_serve.add_argument(
        "--max-queued",
        type=int,
        default=256,
        help="admission bound: requests queued beyond this are rejected with 429",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="maximum requests accepted in one submit",
    )
    p_serve.add_argument(
        "--warmup",
        default=None,
        help="workload spec JSON replayed through the pool before serving "
        "(populates the compile cache)",
    )
    p_serve.add_argument(
        "--no-warm-scan",
        action="store_true",
        help="skip pre-loading the newest on-disk cache entries at startup",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across every redundant path"
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="base seed (case i uses seed+i)")
    p_fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (default 10 when --max-cases is unset)",
    )
    p_fuzz.add_argument(
        "--max-cases", type=int, default=None, help="stop after this many cases"
    )
    p_fuzz.add_argument(
        "--oracle",
        action="append",
        help="restrict to one oracle (repeatable); default: all oracles",
    )
    p_fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="minimise failing artifacts before reporting (--no-shrink to skip)",
    )
    p_fuzz.add_argument("--report", help="also write the JSON report to this path")
    p_fuzz.add_argument("--json", action="store_true", help="emit JSON on stdout")
    _add_verify_budget_flags(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    for p in (p_est, p_syn, p_sim):
        p.add_argument("--max-clean", type=int, default=None, help="ancilla budget: clean")
        p.add_argument(
            "--max-borrowed", type=int, default=None, help="ancilla budget: borrowed"
        )
        p.add_argument(
            "--max-ancillas", type=int, default=None, help="ancilla budget: total"
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
