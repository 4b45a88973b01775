"""Shared machinery of the benchmark: paths, spans, statistics, results.

Nothing here imports :mod:`repro`; the workload modules do that after
:func:`require_program` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

#: Checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (cache directories, warmup specs, daemon logs).
#: It lives inside the checkout and is removed when the run ends.
TMP_PARENT = ROOT / ".perfbench_tmp"
#: Where a traced run writes its spans, one file per workload.
SPANS_DIR = ROOT / ".perfbench_spans"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, daemon failure, ...)."""


def require_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def prime_bytecode() -> None:
    """Compile the program's modules once, as an installed package would be,
    so that setup probes time an import rather than bytecode compilation
    (the environment may set ``PYTHONDONTWRITEBYTECODE``)."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot compile the program: {proc.stdout.strip()}")


def program_env() -> Dict[str, str]:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextmanager
def run_tmpdir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    TMP_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass


class Outcome:
    """Jobs attempted and failed in one run, with the first failure."""

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.first_failure = None

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def fail(self, kind: str, job_id, detail: str) -> None:
        """``kind`` is ``"error"`` (exception, non-200) or ``"wrong output"``."""
        if kind == "error":
            self.errors += 1
        else:
            self.wrong += 1
        if self.first_failure is None:
            self.first_failure = f"job {job_id} ({kind}): {detail}"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``(name, start, end, parent, job)``.

    Disabled tracers record nothing, so the timed (untraced) runs pay one
    no-op context manager per public call.  A layer's *self* time is its
    span's duration minus the time covered by its child spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[list] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, job: object = None):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent, job]
        index = len(self.spans)
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def summary_lines(self) -> List[str]:
        totals = self.self_times()
        grand = sum(totals.values()) or 1.0
        counts: Dict[str, int] = {}
        for record in self.spans:
            counts[record[0]] = counts.get(record[0], 0) + 1
        lines = ["  span self times (largest first):"]
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"    {name:<22} {seconds:10.4f} s  {100 * seconds / grand:5.1f}%  "
                f"spans={counts[name]}"
            )
        return lines

    def dump(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "job": j}
                    for n, s, e, p, j in self.spans
                ]
            ),
            encoding="utf-8",
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p90 plus the sample count; p90 needs ten samples beyond it."""
    n = len(latencies)
    if n < 100:
        raise BenchError(
            f"only {n} jobs completed; p90 needs at least 100 (ten beyond it)"
        )
    return {"p50": percentile(latencies, 50), "p90": percentile(latencies, 90), "n": n}


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def peak_rss_mib_self() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mib_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Setup probes: fresh interpreters, timed from spawn to "ready"
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int, count: int) -> Dict[str, List[float]]:
    """Run ``count`` fresh interpreters that import the program and generate
    the workload's inputs; returns per-probe wall (``setup``) and
    ``import repro`` (``import``) seconds."""
    out: Dict[str, List[float]] = {"setup": [], "import": []}
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--probe-setup", "--workload", workload, "--seed", str(seed),
    ]
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=str(ROOT), env=program_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("setup probe did not exit within 60 s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line.startswith("READY "):
            raise BenchError(f"setup probe failed (exit {proc.returncode}): {err.strip()}")
        out["setup"].append(ready - start)
        out["import"].append(float(line.split()[1]))
    return out


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(title: str, rows: Sequence[tuple]) -> None:
    """Human-readable metric lines: (name, value, unit, note)."""
    print(title)
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {text:>14} {unit:<8} {note}")


def emit_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """The machine-readable last line: ``metrics`` maps name -> (value, unit)."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
