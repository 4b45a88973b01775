"""Workload ``serve_warm``: the compile/simulate daemon, warm, closed loop.

What it is.  ``python -m repro serve`` runs in thread mode (``--jobs 1``)
on a fresh cache directory.  Setup replays every distinct request of the
mix inside the daemon with ``--warmup``: the estimator's calibration memo
is per-process, and a cold estimate costs up to 0.2 s here (1.7 s for
``mct`` at d=5, which is why the mix stays at d <= 4).  Then one client
process with two connections (matching the two vCPUs the benchmark is
sized for) sends single-request submits, each connection waiting for its
reply before sending the next: a closed loop with two outstanding requests.
The daemon is pinned to one CPU and the client to another (when two are
available): the daemon's event-loop and worker threads then hand the
interpreter lock over on one core, and the client never competes with
them.  Unpinned, cross-core thread wake-ups made throughput about 30%
lower and the run-to-run spread on a 2-vCPU VM wider than the bounds.

The mix.  Every round of ten submits holds, in a seeded order: two
``estimate``, two ``synthesize`` that hit the compile cache, two small
index-propagation ``simulate`` (``mct``), one ``mcu-exponential`` and one
``unitary`` ``simulate`` on the dense-unitary path, and two ``synthesize``
with ``verify`` set to ``smoke`` or ``standard`` (deciding tiers:
index-propagation, sampled-columns and dense).  The seed draws the
estimate sizes, the cached circuits, the basis states and the order; the
kinds per round are fixed, so every seed offers the same cost mix.

Why it was chosen.  It is the only workload where HTTP parsing, JSON,
admission, the queue and compile-cache memo hits make up a large share of
each request: the traced run prints that share as ``serve.frontend_share``
(client round trip minus the row's ``seconds``, over the round trips).
The simulate requests stay small so that the daemon's single worker is not
saturated by simulation rows.

Layers stressed: ``serve`` (``repro.serve``: HTTP front end, admission,
queue, metrics), ``workload`` (``repro.exec.workload`` request execution),
``cache`` (``repro.exec.cache`` memo hits; puts and disk writes in setup),
``verify`` (``repro.verify`` tiers), ``estimate`` (``repro.resources``),
``sim`` (index propagation and the dense-unitary path, small registers).
Inside ``verify``: each verify request re-synthesizes its macro circuit in
the daemon before checking it (``repro.exec.workload._verify_macro``), and
the dense tier composes that circuit's whole-basis gather or builds its
unitary, so ``synth``, ``segment`` and ``sim`` work is included in
``verify.s``; the traced run cannot see it from outside and reports
``synth.*`` and ``segment.*`` as 0.  A change to synthesis or composition
can therefore move this workload's ``job_p90_s`` through ``verify.s``.
Layers skipped: ``lower`` (every compile after setup is a cache hit).

Predicted no-change pairing: a serve front-end change (``repro.serve``)
must read "no change" on ``mct_statevector`` and ``reversible_functions``,
which never start the daemon.

Output checks (independent of the compiler): ``mct`` simulate rows swap the
target's 0 and 1 exactly when every control is 0 (borrowed ancilla
unchanged); ``mcu-exponential`` rows apply X01 to the target under the same
condition; ``unitary`` rows return the most probable outcome of the
canonical seed-0 unitary's column.  Verify rows must read ``verified``.
A non-200 reply, an error row or a wrong output counts as failed.
"""

from __future__ import annotations

import ctypes
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    ROOT,
    BenchError,
    Outcome,
    Tracer,
    latency_stats,
    median,
    peak_rss_mib_of,
    probe_setup,
    program_env,
    run_tmpdir,
)
from mct_statevector import num_wires

#: Submit kinds of one round (shuffled per round by the seed).
ROUND = (
    "estimate", "estimate",
    "synth_hit", "synth_hit",
    "sim_index", "sim_index",
    "sim_mcu_exp", "sim_unitary",
    "verify", "verify",
)
#: Concurrent client connections.
CONNECTIONS = 2
#: Daemon boots per timed run; their median is ``setup_s``.
SETUP_BOOTS = 3
#: Rounds generated per seed; far more than a 60 s run completes.
ROUNDS = 4000
#: Typical submits per second on a 2-vCPU host; sizes the traced run.
NOMINAL_RATE = 150.0
#: Simulated basis states per simulate request (half fire the gate).
STATES = 4

_ESTIMATES = (("mct", 3), ("mct", 4), ("pk", 3), ("mct-clean-ladder", 3))
_SYNTH = (("mct", 3, 4), ("mct", 3, 5), ("mct", 4, 3), ("mct", 4, 4),
          ("pk", 3, 5), ("pk", 3, 6), ("mct-clean-ladder", 3, 5),
          ("mct-clean-ladder", 4, 4))
_SIM_INDEX = ((3, 3), (3, 4), (4, 3))
_VERIFY = (("mct", 3, 4, "smoke"), ("mct", 3, 5, "standard"),
           ("mct", 4, 3, "standard"), ("mcu-exponential", 3, 3, "smoke"),
           ("mcu-exponential", 3, 3, "standard"), ("unitary", 3, 2, "standard"))


def _firing_states(rng, d: int, k: int, wires: int) -> List[List[int]]:
    states = rng.integers(0, d, size=(STATES, wires))
    states[: STATES // 2, :k] = 0  # every control at 0: the gate fires
    rng.shuffle(states, axis=0)
    return states.tolist()


def generate(seed: int):
    """The distinct request pool (one list per kind) and the submit stream."""
    rng = np.random.default_rng([seed, 3])
    pool: Dict[str, List[dict]] = {kind: [] for kind in set(ROUND)}
    for strategy, d in _ESTIMATES:
        for parity in (0, 1):  # both calibration residue classes
            k = 1000 + 2 * int(rng.integers(0, 10)) + parity
            pool["estimate"].append({"kind": "estimate", "strategy": strategy, "d": d, "k": k})
    for index in rng.choice(len(_SYNTH), size=6, replace=False).tolist():
        strategy, d, k = _SYNTH[index]
        pool["synth_hit"].append({"kind": "synthesize", "strategy": strategy, "d": d, "k": k})
    for _ in range(2):
        for d, k in _SIM_INDEX:
            pool["sim_index"].append({
                "kind": "simulate", "strategy": "mct", "d": d, "k": k,
                "states": _firing_states(rng, d, k, num_wires(d, k)),
            })
    for k in (2, 3, 2, 3):
        pool["sim_mcu_exp"].append({
            "kind": "simulate", "strategy": "mcu-exponential", "d": 3, "k": k,
            "states": _firing_states(rng, 3, k, k + 1),
        })
    for _ in range(4):
        pool["sim_unitary"].append({
            "kind": "simulate", "strategy": "unitary", "d": 3, "k": 2,
            "states": rng.integers(0, 3, size=(STATES, 2)).tolist(),
        })
    for strategy, d, k, level in _VERIFY:
        pool["verify"].append(
            {"kind": "synthesize", "strategy": strategy, "d": d, "k": k, "verify": level}
        )
    flat = [request for kind in sorted(pool) for request in pool[kind]]
    offsets, at = {}, 0
    for kind in sorted(pool):
        offsets[kind] = at
        at += len(pool[kind])
    # Each kind cycles through its own pool entries in a seeded order.
    cycles = {kind: rng.permutation(len(pool[kind])).tolist() for kind in pool}
    used = {kind: 0 for kind in pool}
    kinds = np.asarray(ROUND)
    stream = []
    for _ in range(ROUNDS):
        for kind in rng.permutation(kinds).tolist():
            cycle = cycles[kind]
            stream.append(offsets[kind] + cycle[used[kind] % len(cycle)])
            used[kind] += 1
    return flat, stream


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Checker:
    """Expected outputs from the gates' definitions."""

    def __init__(self):
        from repro.applications.unitary_synthesis import random_unitary

        # The ``unitary`` strategy's canonical payload: the seed-0 unitary.
        self._unitary = {9: np.asarray(random_unitary(9, seed=0))}
        self.estimates: Dict[int, tuple] = {}
        self._gates: Dict[int, int] = {}

    def expected_outputs(self, request) -> List[str]:
        d, k = request["d"], request["k"]
        out = []
        for digits in request["states"]:
            digits = list(digits)
            if request["strategy"] in ("mct", "mcu-exponential"):
                if all(x == 0 for x in digits[:k]) and digits[k] in (0, 1):
                    digits[k] = 1 - digits[k]
            else:  # unitary
                column = int(np.dot(digits, d ** np.arange(len(digits) - 1, -1, -1)))
                image = int(np.argmax(np.abs(self._unitary[d**k][:, column]) ** 2))
                digits = [int(x) for x in np.base_repr(image, d).zfill(len(digits))]
            out.append("".join(str(x) for x in digits))
        return out

    def check(self, index: int, request, status, payload) -> Optional[str]:
        """``None`` when the reply is right, else the reason it is not."""
        if status != 200:
            return f"HTTP {status}: {payload}"
        rows = payload.get("rows") or []
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        if not row.get("ok"):
            return f"row failed: {row.get('error')}"
        if request["kind"] == "estimate":
            counts = (row.get("g_gates"), row.get("two_qudit_gates"))
            if not all(isinstance(c, int) and c > 0 for c in counts):
                return f"estimate counts {counts}"
            if self.estimates.setdefault(index, counts) != counts:
                return f"estimate changed: {counts} vs {self.estimates[index]}"
        elif request["kind"] == "simulate":
            if row.get("outputs") != self.expected_outputs(request):
                return f"outputs {row.get('outputs')} != {self.expected_outputs(request)}"
        elif "verify" in request:
            if (row.get("verify_result") or {}).get("status") != "verified":
                return f"verify_result {row.get('verify_result')}"
        if "gates" in row and self._gates.setdefault(index, row["gates"]) != row["gates"]:
            return f"gate count changed: {row['gates']} vs {self._gates[index]}"
        return None

    def estimate_totals(self) -> tuple:
        g = sum(c[0] for c in self.estimates.values())
        two = sum(c[1] for c in self.estimates.values())
        return g, two


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
_PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
_LIBC.prctl.restype = ctypes.c_int


def _daemon_preexec(cpus) -> None:
    """Runs in the daemon's process before exec: the kernel sends it SIGTERM
    (a clean drain) if the benchmark dies without stopping it, and it is
    pinned to ``cpus``."""
    if _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def _cpus() -> tuple:
    """(daemon CPU set, client CPU set); both ``None`` on a one-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


class Daemon:
    """One ``python -m repro serve`` process on its own cache directory."""

    def __init__(self, workdir: Path, pool: List[dict], cpus=None):
        workdir.mkdir()
        warmup = workdir / "warmup.json"
        warmup.write_text(json.dumps({"requests": pool}), encoding="utf-8")
        self._log = open(workdir / "daemon.log", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                "--cache-dir", str(workdir / "cache"), "--warmup", str(warmup),
            ],
            cwd=str(ROOT), env=program_env(),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            preexec_fn=lambda: _daemon_preexec(cpus),
        )
        try:
            self.address = self._read_address(timeout=120.0)
        except BaseException:
            self.kill()
            raise

    def _read_address(self, timeout: float) -> str:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout):
                raise BenchError(f"daemon printed no address within {timeout:g} s")
        finally:
            selector.close()
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise BenchError(f"daemon failed to start: {line!r} {self._log_text()}")
        return line[len("serving on "):]

    def _log_text(self) -> str:
        self._log.flush()
        self._log.seek(0)
        return self._log.read()

    def stop(self) -> None:
        """SIGTERM, then require exit 0 and a clean drain."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not drain within 60 s of SIGTERM")
        self.proc.stdout.close()
        log = self._log_text()
        self._log.close()
        if code != 0 or "drained cleanly" not in log:
            raise BenchError(f"daemon exit {code} without a clean drain: {log.strip()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdout, self._log):
            if not stream.closed:
                stream.close()


def _boot(tmp: Path, name: str, pool: List[dict], daemons: list, cpus):
    """Boot one daemon; returns (daemon, client, seconds to ready)."""
    from repro.serve.client import ServeClient

    start = time.perf_counter()
    daemon = Daemon(tmp / name, pool, cpus)
    daemons.append(daemon)
    client = ServeClient(daemon.address, timeout=60.0)
    client.wait_ready(deadline=30.0)
    return daemon, client, time.perf_counter() - start


# ----------------------------------------------------------------------
# Client load
# ----------------------------------------------------------------------
def _drive(address, pool, stream, positions, deadline, tracer, results):
    from repro.exceptions import ServeError
    from repro.serve.client import ServeClient

    client = ServeClient(address, timeout=60.0)
    for position in positions:
        if deadline is not None and time.perf_counter() >= deadline:
            return
        index = stream[position]
        start = time.perf_counter()
        with tracer.span("serve.request", position):
            try:
                status, payload = client.submit({"requests": [pool[index]]})
            except ServeError as error:
                status, payload = None, str(error)
        end = time.perf_counter()
        results.append((end, end - start, index, status, payload))


def _load(address, pool, stream, count, deadline, tracer):
    """Two closed-loop connections over ``stream[:count]``; returns replies."""
    results: List[tuple] = []
    threads = [
        threading.Thread(
            target=_drive,
            args=(address, pool, stream, range(c, count, CONNECTIONS), deadline, tracer, results),
            daemon=True,  # never keeps an interrupted run alive
        )
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise BenchError("client connection did not finish")
    return results


def _histogram_p50(histogram: dict) -> float:
    """Median of a cumulative ``le``-bucket histogram, linear in its bucket."""
    total = histogram["count"]
    if not total:
        return 0.0
    lower, below = 0.0, 0
    for bound, cumulative in histogram["buckets"].items():
        if bound == "+Inf":
            return lower
        upper = float(bound)
        if cumulative >= total / 2:
            inside = cumulative - below
            return lower + (upper - lower) * ((total / 2 - below) / inside)
        lower, below = upper, cumulative
    return lower


def _account(results, pool, checker, outcome) -> None:
    for _, _, index, status, payload in results:
        outcome.attempted += 1
        problem = checker.check(index, pool[index], status, payload)
        if problem is not None:
            kind = "error" if status != 200 else "wrong output"
            outcome.fail(kind, index, problem)


def run(seed: int, seconds: float, trace: bool):
    """Returns ``(table_rows, metrics, outcome, tracer)``."""
    from repro.exceptions import ServeError

    pool, stream = generate(seed)
    checker = Checker()
    outcome = Outcome()
    probes = probe_setup("serve_warm", seed, 3) if trace else None
    daemon_cpus, client_cpus = _cpus()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    daemons: List[Daemon] = []
    with run_tmpdir() as tmp:
        try:
            boots = []
            for boot in range(1 if trace else SETUP_BOOTS):
                if daemons:
                    daemons.pop().stop()
                daemon, client, seconds_to_ready = _boot(
                    tmp, f"boot{boot}", pool, daemons, daemon_cpus
                )
                boots.append(seconds_to_ready)
            off = Tracer(False)
            if trace:
                count = trace_submits(seconds)
                t0 = time.perf_counter()
                _account(_load(daemon.address, pool, stream, count, None, off), pool, checker, outcome)
                plain = time.perf_counter() - t0
                tracer = Tracer(True)
                t0 = time.perf_counter()
                results = _load(daemon.address, pool, stream, count, None, tracer)
                traced = time.perf_counter() - t0
            else:
                start = time.perf_counter()
                results = _load(daemon.address, pool, stream, len(stream), start + seconds, off)
                elapsed = time.perf_counter() - start
                rss = peak_rss_mib_of(daemon.proc.pid)
            _account(results, pool, checker, outcome)
            _, metrics = client.metrics()
            _check_idle(metrics)
            daemons.pop().stop()
        except ServeError as error:  # wait_ready / metrics transport failures
            raise BenchError(f"daemon unreachable: {error}") from None
        finally:
            for daemon in daemons:
                daemon.kill()

    if not trace:
        lat = latency_stats([r[1] for r in results])
        g, two = checker.estimate_totals()
        estimates = f"exact, estimator totals of {len(checker.estimates)} estimate requests"
        rows = [
            ("setup_s", median(boots), "s", f"median of {len(boots)} daemon boots with warmup"),
            ("jobs_per_s", len(results) / elapsed, "jobs/s", f"{len(results)} submits in {elapsed:.1f} s"),
            ("job_p50_s", lat["p50"], "s", f"n={lat['n']}"),
            ("job_p90_s", lat["p90"], "s", f"n={lat['n']}, {lat['n'] - int(0.9 * lat['n'])} beyond"),
            ("failed_share", outcome.failed / outcome.attempted, "fraction", f"{outcome.failed}/{outcome.attempted} attempted"),
            ("peak_rss_mb", rss, "MiB", "daemon VmHWM"),
            ("g_gates", float(g), "count", estimates),
            ("two_qudit_gates", float(two), "count", estimates),
        ]
        return rows, {r[0]: r[1] for r in rows}, outcome, None

    layer = _serve_layers(pool, results, metrics)
    layer["import.s"] = median(probes["import"])
    layer["trace.overhead_jobs_per_s"] = count / traced - count / plain
    rows = [(key, float(value), "", "") for key, value in layer.items()]
    round_trips = sum(r[1] for r in results if r[3] == 200)
    rows.append(("serve.frontend_share", layer["serve.frontend_s"] / round_trips, "fraction",
                 f"of {round_trips:.2f} s of client round trips"))
    rows.append(("trace.jobs", count, "", "submits, traced and untraced"))
    return rows, {k: float(v) for k, v in layer.items()}, outcome, tracer


def trace_submits(seconds: float) -> int:
    """Submits per traced pass: both passes together fill about ``seconds``."""
    return max(len(ROUND), int(seconds * NOMINAL_RATE / 2) // len(ROUND) * len(ROUND))


def _check_idle(metrics: dict) -> None:
    if metrics.get("queue_depth") or metrics.get("in_flight"):
        raise BenchError(f"daemon not idle after the load: {metrics}")


#: Verifier tiers that decide the mix's verify requests.
_TIERS = ("dense", "index-propagation", "sampled-columns")


def _serve_layers(pool, results, metrics) -> Dict[str, float]:
    """Per-layer numbers of the traced pass: rows, client timing, /metrics."""
    layer: Counter = Counter()
    for _, rtt, index, status, payload in results:
        if status != 200:
            continue
        row = payload["rows"][0]
        request = pool[index]
        seconds = float(row.get("seconds", 0.0))
        work = seconds - float(row.get("compile_seconds", 0.0))
        layer["serve.frontend_s"] += rtt - seconds
        layer["workload.row_s"] += seconds
        if request["kind"] == "estimate":
            layer["estimate.calls"] += 1
            layer["estimate.s"] += seconds
        elif request["kind"] == "simulate":
            states = len(request["states"])
            if request["strategy"] == "mct":  # permutation: index propagation
                layer["sim.index_s"] += work
                layer["sim.index_row_states"] += int(row["gates"]) * states
            else:
                layer["sim.apply_s"] += work
                layer["sim.states"] += states
        if "verify" in request:
            result = row.get("verify_result") or {}
            layer["verify.calls"] += 1
            layer["verify.s"] += work
            layer["verify.states_checked"] += int(result.get("states_checked", 0))
            layer["verify.undecided"] += result.get("status") == "undecided"
            if result.get("tier") in _TIERS:
                layer[f"verify.tier.{result['tier']}"] += 1
    cache = metrics["cache"]
    for name in ("memo_hits", "disk_hits", "misses", "puts", "evictions"):
        layer[f"cache.{name}"] = cache[name]
    layer["cache.hit_ratio"] = cache["hit_rate"] or 0.0
    layer["serve.queue_wait_p50_s"] = _histogram_p50(metrics["queue_wait"])
    layer["serve.rejected"] = sum(metrics["requests"]["rejected"].values())
    return dict(layer)
