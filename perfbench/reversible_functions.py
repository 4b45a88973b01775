"""Workload ``reversible_functions``: Theorem IV.2 functions, applied classically.

What it is (paper result iii).  Each job is a seeded random bijection ``f``
on ``[d]^3``, ``d`` in {4, 5}: even ``d`` uses the borrowed ancilla, odd
``d`` none.  The function is synthesized with
``registry.get("reversible").synthesize(d, 3, function=f)`` and lowered
with ``lower_to_g_gates``; then every basis state of the register (ancilla
included) is pushed through ``GateTable.apply_to_indices``, the batched
classical path that the workload runner and the verifier's index tier use.
Closed batch, one thread.  Every round runs ``d = 4, 5, 5`` in a seeded
order, so all seeds offer the same mix of job sizes, and p50 and p90 both
fall inside the slower ``d = 5`` jobs rather than between the two sizes.

Why it was chosen.  Its front half (synthesize, lower) is the one
``mct_statevector`` runs, but no ``d^n`` table is ever built: index
propagation takes about 75% of a job, lowering about 20%, synthesis about
5% and gather composition 0%.  A change to index propagation or to lowering
shows here.

Layers stressed: ``synth`` (``repro.synth`` -> ``repro.applications``),
``lower``, ``sim`` index propagation (``GateTable.apply_to_indices``).
Layers skipped: ``segment`` (composition and the ``SegmentGatherCache``),
the ``sim`` backends' statevector apply, ``verify``, ``cache``,
``workload``, ``serve``, ``estimate``.

Predicted no-change pairing: a gather-composition change (``repro.ir.segment``,
the ``SegmentGatherCache``, op gather tables) must read "no change" here, as
must a serve front-end change.

Output check (independent of the compiler): the image of every register
basis state must be ``f`` applied to its three function digits, with the
borrowed ancilla digit unchanged.
"""

from __future__ import annotations

import numpy as np

#: Function variables (the paper's n).
VARIABLES = 3
#: Dimensions of one round, in a seeded order per round.
ROUND_DIMS = (4, 5, 5)
#: Untimed warm-up rounds; ``g_gates``/``two_qudit_gates`` total their circuits.
WARMUP_ROUNDS = 8
#: Rounds generated per seed; far more than a 60 s run completes.
ROUNDS = 250
#: Typical wall time of one round on a 2-vCPU host; sizes the traced run.
ROUND_SECONDS = 0.38


def generate(seed: int):
    """Seeded job list: one random bijection (flat-index table) per job."""
    rng = np.random.default_rng([seed, 2])
    out = []
    job_id = 0
    for _ in range(ROUNDS):
        round_jobs = []
        for slot in rng.permutation(len(ROUND_DIMS)).tolist():
            d = ROUND_DIMS[slot]
            function = rng.permutation(d**VARIABLES)
            round_jobs.append({"id": job_id, "d": d, "function": function})
            job_id += 1
        out.append(round_jobs)
    return out


class Runner:
    """Runs jobs through the program's public functions."""

    def __init__(self):
        from repro import lower_to_g_gates
        from repro.synth import registry

        self._reversible = registry.get("reversible")
        self._lower = lower_to_g_gates

    def run(self, job, tracer, tally):
        """One job; counts go to ``tally`` unless it is ``None`` (the timed
        phase, whose latencies then hold only the program's calls)."""
        d, jid = job["d"], job["id"]
        with tracer.span("synth", jid):
            result = self._reversible.synthesize(
                d, VARIABLES, function=job["function"].tolist()
            )
        with tracer.span("lower", jid):
            lowered = self._lower(result.circuit)
        table = lowered.to_table()
        size = d**table.num_wires
        with tracer.span("sim.index", jid):
            images = table.apply_to_indices(np.arange(size, dtype=np.int64))
        if tally is not None:
            tally["synth.calls"] += 1
            tally["synth.macro_ops"] += result.circuit.num_ops()
            tally["lower.calls"] += 1
            tally["lower.rows_out"] += len(table)
            tally["sim.index_row_states"] += len(table) * size
            tally["segment.builds"] += table.pools.segments.builds
            tally["segment.hits"] += table.pools.segments.hits
            tally["g_gates"] += table.g_gate_count()
            tally["two_qudit_gates"] += table.two_qudit_count()
        return table.num_wires, images


def check(job, output) -> bool:
    """Every register basis state lands on ``f`` of its function digits."""
    wires, images = output
    d = job["d"]
    function = job["function"]
    ancilla = d ** (wires - VARIABLES)  # 1, or d for the borrowed wire
    states = np.arange(d**wires)
    expected = function[states // ancilla] * ancilla + states % ancilla
    return bool(images.shape == expected.shape and (images == expected).all())
