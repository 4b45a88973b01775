"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload mct_statevector --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (a separate, traced run, which also
writes its spans to ``.perfbench_spans/<workload>.json``).  Human-readable
lines come first, each metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed job or wrong output makes the exit
code non-zero.  The workloads, and why each was chosen, are described in
the docstrings of ``mct_statevector.py``, ``reversible_functions.py`` and
``serve_warm.py``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SPANS_DIR,
    BenchError,
    emit_result,
    prime_bytecode,
    print_table,
    require_program,
)

WORKLOADS = ("mct_statevector", "reversible_functions", "serve_warm")


def _declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _terminate(signum, frame):
    """SIGTERM ends the run through the ``finally`` blocks that stop the
    daemons and remove the scratch directory."""
    raise SystemExit(128 + signum)


def _probe(workload: str, seed: int) -> int:
    """Setup probe: import the program, generate the inputs, say READY."""
    import time

    start = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter() - start
    module = __import__(workload)
    module.generate(seed)
    print(f"READY {imported!r}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    try:
        require_program()
        if args.probe_setup:
            return _probe(args.workload, args.seed)
        declared = _declared_metrics(bool(args.trace))
        prime_bytecode()
        if args.workload == "serve_warm":
            import serve_warm

            rows, values, outcome, tracer = serve_warm.run(args.seed, args.seconds, bool(args.trace))
        else:
            import inprocess

            module = __import__(args.workload)
            rows, values, outcome, tracer = inprocess.run(
                module, args.workload, args.seed, args.seconds, bool(args.trace)
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if args.trace:
        # A layer the benchmark neither calls into nor sees from outside (work
        # inside the daemon) reads 0; see each workload's "Layers skipped".
        idle = sorted(set(declared) - set(values))
        values.update({name: 0.0 for name in idle})
        rows.append(("layers not measured", len(idle), "", ", ".join(idle)))
    units = {name: unit for name, _, unit, _ in rows if unit}
    print_table(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        [(name, value, units.get(name) or declared.get(name, ""), note)
         for name, value, _, note in rows],
    )
    if tracer is not None:
        for line in tracer.summary_lines():
            print(line)
        spans = SPANS_DIR / f"{args.workload}.json"
        tracer.dump(spans)
        print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    if outcome.first_failure:
        print(f"  first failure: {outcome.first_failure}")
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    correct = outcome.failed == 0
    emit_result(
        correct,
        outcome.attempted,
        outcome.failed,
        {name: (values[name], unit) for name, unit in declared.items()},
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
