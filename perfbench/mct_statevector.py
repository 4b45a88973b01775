"""Workload ``mct_statevector``: the paper's ``|c⟩-X_ij`` gate, simulated.

What it is (paper result i, Theorems III.2 / III.6).  Each job is a distinct
multi-controlled transposition
``registry.get("mct").synthesize(d, k, control_values=c, swap=(i, j))``
with random control values ``c`` and swap digits ``i != j``.  The gate is
lowered with ``lower_to_g_gates`` and run on the ``dense`` backend as a
``BatchedStatevector`` of ``STATES`` seeded basis states, half of them with
every control set to its value so the gate fires.  Closed batch, one
thread: jobs run back to back in this process.

Shapes.  Every round runs the same six ``(d, k)`` shapes in a seeded order,
with registers of 2187 to 16384 basis states (``ROUND_SHAPES``).  The seed
draws the control values, swap digits, basis states and the order; it does
not draw the shapes, so every seed offers the same mix of job sizes and the
throughput and latency percentiles stay comparable across seeds.

Where p50 falls decides how steady it is on a shared host.  There a job
runs either at full speed or up to about 2x slower, so one shape's
latencies form two clusters, and a p50 inside one shape's jobs jumps from
one cluster to the other as the slowed share of a run crosses one half.
Here p50 lies between the 3^7 and the 4^7 jobs, whose costs differ by about
the host's slowdown, so a slowed cheaper job and a full-speed dearer one
take about as long and p50 moves smoothly with the slowed share.  p90 lies
inside the two slowest shapes, whose costs are close.  On a busy 2-vCPU
host, with five shapes and p50 inside the 4^7 jobs, ``job_p50_s`` spread
0.24 and 0.29 of its median over two sets of ten seeds, the widest of all
timings.  Over six seeds run alternately with that layout it spread 0.11
against 0.33; in two later sets of ten it spread 0.045 and 0.10, less than
``jobs_per_s`` (0.094 and 0.17).

Why it was chosen.  Cold gather composition is the end-to-end bottleneck the
ROADMAP names: composing the lowered table's ~1,200 to ~14,000 G-gate rows
into one whole-basis gather takes about 80% of a job, lowering about 17%.
A change to composition, or to the memory its caches hold, shows here.

Layers stressed: ``synth`` (``repro.synth`` -> ``repro.core``), ``lower``
(``repro.core.lowering`` -> ``repro.ir.lowering``), ``segment``
(``repro.ir.segment`` gather composition and the pools'
``SegmentGatherCache``), ``sim`` (``dense`` backend batched apply).
Layers skipped: ``sim`` index propagation, ``verify``, ``cache``
(``repro.exec.cache``), ``workload``, ``serve``, ``estimate``.

Predicted no-change pairing: an index-propagation change
(``GateTable.apply_to_indices`` / ``BaseOp.map_indices``) must read "no
change" here, as must a serve front-end change.

Output check (independent of the compiler): a basis state maps to itself
unless every control wire holds its control value, in which case the target
digit has ``i`` and ``j`` exchanged; the borrowed ancilla (even ``d``) is
unchanged.  Each output column must be exactly that basis vector, and the
composed whole-basis gather must be that map on every basis state (16
sampled states alone miss a corruption confined to a few entries).
"""

from __future__ import annotations

import numpy as np

#: (d, k) of one round's jobs: registers of k controls, one target and, for
#: even d, one borrowed ancilla — 4^6, 6^5, 3^7, 4^7, 5^5 and 3^8 basis
#: states, cheapest job first.
ROUND_SHAPES = ((4, 4), (6, 3), (3, 6), (4, 5), (5, 4), (3, 7))
#: Basis states simulated per job (half of them fire the gate).
STATES = 16
#: Untimed warm-up rounds; ``g_gates``/``two_qudit_gates`` total their circuits.
WARMUP_ROUNDS = 4
#: Rounds generated per seed; more than a 60 s run completes on a quiet host.
ROUNDS = 250
#: Typical wall time of one round on a 2-vCPU host; sizes the traced run.
ROUND_SECONDS = 0.55


def num_wires(d: int, k: int) -> int:
    """Register width of the ``mct`` strategy: controls, target and, for even
    ``d`` with ``k >= 2``, the borrowed ancilla."""
    return k + (2 if d % 2 == 0 and k >= 2 else 1)


def generate(seed: int):
    """Seeded job list, grouped in rounds of ``ROUND_SHAPES``."""
    rng = np.random.default_rng([seed, 1])
    seen = set()
    out = []
    job_id = 0
    for _ in range(ROUNDS):
        round_jobs = []
        for slot in rng.permutation(len(ROUND_SHAPES)).tolist():
            d, k = ROUND_SHAPES[slot]
            n = num_wires(d, k)
            while True:
                controls = tuple(int(x) for x in rng.integers(0, d, size=k))
                i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
                key = (d, k, controls, i, j)
                if key not in seen:
                    seen.add(key)
                    break
            states = rng.integers(0, d, size=(STATES, n))
            states[: STATES // 2, :k] = controls  # these fire
            rng.shuffle(states, axis=0)
            round_jobs.append(
                {"id": job_id, "d": d, "k": k, "controls": controls, "swap": (i, j),
                 "states": states}
            )
            job_id += 1
        out.append(round_jobs)
    return out


class Runner:
    """Runs jobs through the program's public functions."""

    def __init__(self):
        from repro import lower_to_g_gates
        from repro.ir.segment import segment_table
        from repro.sim import BatchedStatevector
        from repro.synth import registry

        self._mct = registry.get("mct")
        self._lower = lower_to_g_gates
        self._segment_table = segment_table
        self._batch = BatchedStatevector

    def run(self, job, tracer, tally):
        """One job; counts go to ``tally`` unless it is ``None`` (the timed
        phase, whose latencies then hold only the program's calls)."""
        d, k, jid = job["d"], job["k"], job["id"]
        with tracer.span("synth", jid):
            result = self._mct.synthesize(
                d, k, control_values=list(job["controls"]), swap=job["swap"]
            )
        with tracer.span("lower", jid):
            lowered = self._lower(result.circuit)
        table = lowered.to_table()
        segments = table.pools.segments
        builds, hits = segments.builds, segments.hits
        if tracer.enabled:
            # Compose up front so the apply below only gathers: the composed
            # tables are interned on the same pools.
            with tracer.span("segment.compose", jid):
                for segment in self._segment_table(table):
                    if segment.kind == "perm":
                        segment.index_table()
        with tracer.span("sim.apply", jid):
            batch = self._batch.from_basis_states(
                job["states"].tolist(), d, backend="dense"
            )
            batch.apply_circuit(lowered)
        if tally is not None:
            perm_rows = sum(s.num_rows for s in self._segment_table(table) if s.kind == "perm")
            tally["synth.calls"] += 1
            tally["synth.macro_ops"] += result.circuit.num_ops()
            tally["lower.calls"] += 1
            tally["lower.rows_out"] += len(table)
            tally["segment.rows_composed"] += perm_rows
            tally["segment.gather_bytes"] += perm_rows * d**table.num_wires * 8
            tally["segment.builds"] += segments.builds - builds
            tally["segment.hits"] += segments.hits - hits
            tally["sim.states"] += len(job["states"])
            tally["g_gates"] += table.g_gate_count()
            tally["two_qudit_gates"] += table.two_qudit_count()
        return batch.data, table


def images(job, digits: np.ndarray) -> np.ndarray:
    """Flat images of basis states (digit rows) under the gate's definition."""
    d, k = job["d"], job["k"]
    i, j = job["swap"]
    digits = digits.copy()
    fires = (digits[:, :k] == np.asarray(job["controls"])).all(axis=1)
    target = digits[:, k]
    swapped = np.where(target == i, j, np.where(target == j, i, target))
    digits[:, k] = np.where(fires, swapped, target)
    return digits @ (d ** np.arange(digits.shape[1] - 1, -1, -1))


def check(job, output) -> bool:
    """Every output column is exactly the expected basis vector, and the
    composed whole-basis gather the apply used (interned on the table's
    pools, so reading it recomposes nothing) is the gate's permutation."""
    data, table = output
    d, wires = job["d"], job["states"].shape[1]
    basis = np.arange(d**wires)
    every = (basis[:, None] // d ** np.arange(wires - 1, -1, -1)) % d
    columns = np.arange(data.shape[1])
    return bool(
        data.shape == (d**wires, len(job["states"]))
        and np.count_nonzero(data) == data.shape[1]
        and (data[images(job, job["states"]), columns] == 1.0).all()
        and (table.permutation_index_table() == images(job, every)).all()
    )
