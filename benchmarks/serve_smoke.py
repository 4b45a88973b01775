#!/usr/bin/env python3
"""CI smoke for the ``python -m repro serve`` daemon.

Boots the daemon on an ephemeral port with a warmed compile cache, pushes
a small mixed workload through the HTTP front end via
:class:`repro.serve.ServeClient`, then scrapes ``/healthz`` and
``/metrics`` and fails loudly if anything is off:

* any endpoint answers non-2xx, or a workload row comes back ``ok=False``;
* required metrics counters are missing, or accepted != completed;
* the warm resubmit does not show up as compile-cache hits
  (``hit_rate`` must be positive after the second submit);
* a permutation simulate on either side of the gather crossover
  (``repro.sim.permutation.GATHER_MAX_STATES``) returns outputs that differ
  from the gate's definition, or a ``sim_path`` other than ``"gather"``
  (small register, sent twice) or ``"propagate"`` (3^9 states);
* a ``mcu-exponential`` simulate on either side of the held-operator cap
  (``repro.sim.unitary.OPERATOR_MAX_STATES``) returns outputs other than
  X01 on the target exactly when every control is 0, or a ``sim_path``
  other than ``"operator"`` (3^3 states, sent twice) or ``"dense"``
  (3^6 states, once without and once with a ``"memory_budget"``, which
  tiles the dense engine);
* a simulate naming ``"backend": "streaming"`` (no such engine) is not
  answered 400, or the 400 is not the only rejected request;
* a ``mcu-exponential`` d=3 k=3 synthesize with ``"verify": "standard"``
  does not read ``verified``;
* a submit is answered on the wrong path (``/metrics`` ``requests.inline``
  and ``requests.queued``, read around each submit): the first submit of a
  circuit must be answered by the worker and an identical repeat inline on
  the event loop, while an ``auto`` submit (even warm), a simulate on
  ``"backend": "sparse"`` or with a ``"memory_budget"``, and a simulate past
  the gather or operator cap must be answered by the worker;
* the sequential submits, each asking for ``Connection: keep-alive``,
  used more than two connections (``/metrics`` ``connections``);
* the daemon does not exit 0 on SIGTERM (graceful drain), or takes 5 s or
  more to do so with the client's kept-alive connection open and idle;
* after one row is dropped from the cached ``mct`` d=3 k=3 entry, a second
  daemon on the same directory answers that simulate with ``"verify":
  "standard"`` by anything but a failed row (``VerificationError``, no
  ``outputs``, ``verify_result.key`` naming the entry), or does not drain.

The scraped metrics snapshot is persisted to
``benchmarks/results/serve_smoke.json`` so the CI artifact upload
(``benchmarks/results/*.json``) keeps it for inspection.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py          # full
    PYTHONPATH=src python benchmarks/serve_smoke.py --quick  # CI smoke

``--quick`` only trims the request count; every assertion still runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _harness import emit_json

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec import load_table, lowered_key, save_table
from repro.sim.permutation import GATHER_MAX_STATES
from repro.sim.unitary import OPERATOR_MAX_STATES
from repro.serve import ServeClient

SPEC = {
    "requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 4},
        {"kind": "estimate", "strategy": "mct", "d": 3, "k": 5},
        {"kind": "simulate", "strategy": "mct", "d": 3, "k": 4,
         "states": [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1]]},
    ]
}

#: (request, expected ``sim_path``, expected answerer) per submit: ``mct``
#: at d=3 on 3^4 and 3^9 basis states, ``mcu-exponential`` (a dense-unitary
#: table) on 3^3 and 3^6 (both: k controls on wires 0..k-1, the target on
#: wire k, no ancilla).  A cold circuit is answered by the worker; a warm
#: repeat inline, unless it is past the gather or operator cap.
PATH_SUBMITS = tuple(
    ({"kind": "simulate", "strategy": strategy, "d": 3, "k": k,
      "states": [[0] * k + [1], [0] * k + [2], [1] + [0] * (k - 1) + [0]]}, path, answerer)
    for strategy, k, path, answerer in (
        ("mct", 3, "gather", "worker"), ("mct", 3, "gather", "inline"),
        ("mct", 8, "propagate", "worker"), ("mct", 8, "propagate", "worker"),
        ("mcu-exponential", 2, "operator", "worker"),
        ("mcu-exponential", 2, "operator", "inline"),
        ("mcu-exponential", 5, "dense", "worker"),
    )
) + (
    # The dense engine under a 4 KiB budget: 3^6 states (11.7 KiB) in tiles.
    ({"kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": 5,
      "states": [[0] * 5 + [1], [0] * 5 + [2], [1] + [0] * 5], "memory_budget": "4K"},
     "dense", "worker"),
    # A warm table, but on the sparse engine.
    ({"kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": 2,
      "states": [[0, 0, 1], [0, 0, 2], [1, 0, 0]], "backend": "sparse"},
     "sparse", "worker"),
)

#: ``auto`` is resolved by the worker that runs it, cold or warm.
AUTO_SUBMIT = {"kind": "synthesize", "strategy": "auto", "d": 3, "k": 4}
AUTO_SUBMITS = 2

#: A simulate on an engine the daemon does not have: answered 400.
UNKNOWN_BACKEND_SUBMIT = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3,
                          "backend": "streaming"}

#: The fast path and the cap of each strategy's simulates.
FAST_PATHS = {"mct": ("gather", GATHER_MAX_STATES),
              "mcu-exponential": ("operator", OPERATOR_MAX_STATES)}

#: A served ``mcu-exponential`` table checked by the dense tier.
VERIFY_SUBMIT = {"kind": "synthesize", "strategy": "mcu-exponential", "d": 3, "k": 3,
                 "verify": "standard"}

#: Sent to a daemon whose cached ``mct`` d=3 k=3 entry lost one row.
TAMPERED_SUBMIT = {"kind": "simulate", "strategy": "mct", "d": 3, "k": 3,
                   "states": [[0, 0, 0, 1]], "verify": "standard"}

REQUIRED_COUNTERS = (
    "requests", "queue_depth", "in_flight", "connections", "cache", "latency",
    "queue_wait",
)

#: Most connections the sequential submits of one client may open: its
#: kept-alive one, plus one if the daemon closed that while it was idle.
MAX_CONNECTIONS = 2

#: Seconds a SIGTERM drain may take with an idle kept-alive connection open.
DRAIN_SECONDS = 5.0


def boot_daemon(cache_dir: pathlib.Path, workdir: pathlib.Path) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(workdir),
    )
    line = process.stdout.readline()
    if not line.startswith("serving on "):
        stderr = process.stderr.read()
        raise SystemExit(f"daemon failed to start: {line!r}\n{stderr}")
    client = ServeClient(line.split()[-1], timeout=120.0)
    client.wait_ready()
    return process, client


def release(process, client) -> None:
    """Close the client's connections and the daemon's pipes; kill the
    daemon if it is still running."""
    client.close()
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    process.stdout.close()
    process.stderr.close()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"serve smoke FAILED: {message}")


def answered(client) -> tuple:
    """``(rows answered inline, rows answered by the worker)`` so far."""
    status, metrics = client.metrics()
    check(status == 200, f"/metrics answered {status}")
    requests = metrics["requests"]
    return requests["inline"], requests["queued"]


def submit(client, spec: dict, answerer: str) -> dict:
    """Submit ``spec``; check every row was answered by ``answerer``
    (``"inline"`` or ``"worker"``) and return the payload."""
    inline, queued = answered(client)
    status, payload = client.submit(spec)
    check(status == 200 and payload.get("ok") is True,
          f"submit {spec} answered {status}: {payload}")
    rows = len(spec["requests"])
    now = answered(client)
    want = (inline + rows, queued) if answerer == "inline" else (inline, queued + rows)
    check(now == want, f"submit {spec} was not answered {answerer}: "
          f"(inline, queued) went {(inline, queued)} -> {now}")
    return payload


def drain(process) -> int:
    """SIGTERM the daemon; check it drains cleanly within
    :data:`DRAIN_SECONDS` and return its exit code."""
    start = time.monotonic()
    process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=60)
    seconds = time.monotonic() - start
    stderr = process.stderr.read()
    check(returncode == 0, f"SIGTERM drain exited {returncode}: {stderr}")
    check("drained cleanly" in stderr, f"no drain confirmation on stderr: {stderr!r}")
    check(seconds < DRAIN_SECONDS,
          f"SIGTERM drain took {seconds:.1f} s with an idle kept-alive connection open")
    return returncode


def drop_cached_row(cache_dir: pathlib.Path, strategy: str, d: int, k: int) -> str:
    """Re-save the cached archive of ``strategy(d, k)`` without its middle
    row (it still loads); returns the entry's key."""
    key = lowered_key(strategy, d, k)
    archives = list(cache_dir.rglob(f"{key}.npz"))
    check(len(archives) == 1, f"expected one cached archive for {key}, found {archives}")
    table = load_table(archives[0])
    keep = [row != len(table) // 2 for row in range(len(table))]
    save_table(archives[0], table.select(keep))
    return key


def x01_outputs(request) -> list:
    """The ``|0^k⟩-X01`` definition: swap the target's 0 and 1 when every
    control is 0."""
    k = request["k"]
    out = []
    for digits in request["states"]:
        digits = list(digits)
        if not any(digits[:k]) and digits[k] in (0, 1):
            digits[k] = 1 - digits[k]
        out.append("".join(map(str, digits)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="single submit pass per phase (CI smoke)")
    args = parser.parse_args()
    resubmits = 1 if args.quick else 3

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        tmp_path = pathlib.Path(tmp)
        process, client = boot_daemon(tmp_path / "cache", tmp_path)
        try:
            status, health = client.healthz()
            check(status == 200, f"/healthz answered {status}")
            check(health.get("status") == "ok", f"unhealthy: {health}")

            # Cold submit compiles on the worker; identical warm resubmits
            # hit the cache and are answered inline.
            for attempt in range(1 + resubmits):
                payload = submit(client, SPEC, "worker" if attempt == 0 else "inline")
                check(len(payload["rows"]) == len(SPEC["requests"]),
                      f"submit #{attempt} returned {len(payload['rows'])} rows")

            # Simulates on both sides of the gather and operator caps.
            for request, path, answerer in PATH_SUBMITS:
                basis = request["d"] ** (request["k"] + 1)
                fast, cap = FAST_PATHS[request["strategy"]]
                if request.get("backend", "dense") == "dense":
                    check((basis <= cap) == (path == fast),
                          f"{basis} basis states no longer take the {path} path")
                payload = submit(client, {"requests": [request]}, answerer)
                row = payload["rows"][0]
                check(row.get("outputs") == x01_outputs(request),
                      f"outputs {row.get('outputs')} != {x01_outputs(request)}")
                check(row.get("sim_path") == path,
                      f"sim_path {row.get('sim_path')!r} != {path!r} on {basis} states")

            status, payload = client.submit({"requests": [UNKNOWN_BACKEND_SUBMIT]})
            check(status == 400 and "unknown backend 'streaming'" in payload.get("error", ""),
                  f"a simulate on backend 'streaming' answered {status}: {payload}")

            for _ in range(AUTO_SUBMITS):
                payload = submit(client, {"requests": [AUTO_SUBMIT]}, "worker")
                check(payload["rows"][0].get("strategy") != "auto",
                      f"auto row names no resolved strategy: {payload}")

            payload = submit(client, {"requests": [VERIFY_SUBMIT]}, "worker")
            verified = payload["rows"][0].get("verify_result") or {}
            check(verified.get("status") == "verified",
                  f"mcu-exponential verify_result {verified}")

            status, metrics = client.metrics()
            check(status == 200, f"/metrics answered {status}")
            for counter in REQUIRED_COUNTERS:
                check(counter in metrics, f"/metrics missing {counter!r}")
            requests = metrics["requests"]
            expected = (
                (1 + resubmits) * len(SPEC["requests"]) + len(PATH_SUBMITS) + AUTO_SUBMITS + 1
            )
            check(requests["accepted"] == expected,
                  f"accepted {requests['accepted']} != {expected}")
            check(requests["completed"] == expected,
                  f"completed {requests['completed']} != accepted {expected}")
            check(requests["failed"] == 0, f"failed rows: {requests}")
            check(requests["inline"] + requests["queued"] == expected,
                  f"inline + queued rows {requests} != accepted {expected}")
            check(metrics["queue_wait"]["count"] == requests["queued"],
                  f"queue_wait counts {metrics['queue_wait']['count']} rows, "
                  f"{requests['queued']} were queued")
            check(requests["rejected"]["bad_request"] == 1,
                  f"rejected requests {requests['rejected']} != the one unknown backend")
            hit_rate = metrics["cache"].get("hit_rate")
            check(hit_rate is not None and hit_rate > 0.0,
                  f"warm resubmits produced no cache hits: {metrics['cache']}")
            check(metrics["connections"] <= MAX_CONNECTIONS,
                  f"{metrics['connections']} connections for one sequential client")

            returncode = drain(process)  # the client's connection is still open
        finally:
            release(process, client)

        # A second daemon on a tampered entry: verify checks the served table.
        key = drop_cached_row(tmp_path / "cache", "mct", 3, 3)
        process, client = boot_daemon(tmp_path / "cache", tmp_path)
        try:
            status, payload = client.submit({"requests": [TAMPERED_SUBMIT]})
            check(status == 200, f"tampered submit answered {status}: {payload}")
            row = payload["rows"][0]
            check(row.get("ok") is False
                  and str(row.get("error", "")).startswith("VerificationError: "),
                  f"tampered entry was not failed by verify: {row}")
            check("outputs" not in row, f"failed verify row carries outputs: {row}")
            tampered = row.get("verify_result") or {}
            check(tampered == {"status": "failed", "key": key},
                  f"verify_result {tampered} does not name the failed entry {key}")
            tampered_returncode = drain(process)
        finally:
            release(process, client)

    payload = {
        "quick": args.quick,
        "requests": requests,
        "connections": metrics["connections"],
        "cache": metrics["cache"],
        "queue_wait_count": metrics["queue_wait"]["count"],
        "drain_returncode": returncode,
        "tampered_entry": {
            "verify_status": tampered["status"],
            "drain_returncode": tampered_returncode,
        },
    }
    stem = "serve_smoke_quick" if args.quick else "serve_smoke"
    emit_json(stem, payload)
    print(f"serve smoke OK: {expected} requests ({requests['inline']} inline, "
          f"{requests['queued']} queued), hit_rate={hit_rate:.3f}, drained cleanly; "
          "tampered entry failed verify")


if __name__ == "__main__":
    main()
