"""repro — reproduction of "Optimal Synthesis of Multi-Controlled Qudit Gates".

The package reproduces the DAC 2023 paper by Zi, Li and Sun: linear-size
synthesis of multi-controlled gates on d-level qudits using at most one
ancilla, together with its applications (unitary synthesis with one clean
ancilla, ancilla-free implementation of classical reversible functions) and
the prior-work baselines the paper compares against.

Quick start
-----------
>>> from repro import synthesize_mct, verify
>>> result = synthesize_mct(dim=3, num_controls=4)      # ancilla-free, odd d
>>> verify.assert_mct_spec(result.circuit, result.controls, result.target)  # doctest: +SKIP
>>> result.circuit.num_ops()                            # doctest: +SKIP

Every check lives in :mod:`repro.verify` and takes one ``budget=`` (``None``
means the ``standard`` preset); an ``assert_*`` helper raises unless a tier
decided the check.

Simulation backends and the pass pipeline
-----------------------------------------
The simulators are vectorized and backend-pluggable: pass
``backend="dense"`` (flat gather tables, the default), ``backend="sparse"``
(nonzero amplitudes only) or a configured engine such as
``sim.DenseBackend(memory_budget="8M")`` (the dense kernels, memory-tiled)
to :class:`sim.Statevector`, :func:`sim.circuit_unitary` and the unitary
``verify.assert_*`` helpers; ``sim.available_backends()`` lists the
registered engines.

The composable pass pipeline (:mod:`repro.passes` — ``ExpandMacros`` plus
peephole cleanups that only ever shrink gate counts) is the reference that
:func:`lower_to_g_gates` is checked against, gate for gate:

>>> from repro import lower_to_g_gates
>>> from repro.passes import default_lowering_pipeline
>>> lowered = lower_to_g_gates(result.circuit)          # same API as always
>>> state = sim.Statevector(5, 3, backend="sparse")     # pick an engine

Columnar IR (struct-of-arrays gate tables)
------------------------------------------
Materialised circuits have a compact columnar twin, :class:`GateTable`
(:mod:`repro.ir`): numpy int columns for opcode/wires/predicates plus
interned payload pools.  ``circuit.to_table()`` / ``table.to_circuit()``
round-trip losslessly; ``lower_to_g_gates`` lowers through cached expansion
templates straight into a table, so counting, peephole passes and backend
application of a lowered circuit all run as column kernels:

>>> lowered = lower_to_g_gates(result.circuit)          # table-backed
>>> lowered.g_gate_count(), lowered.depth()             # doctest: +SKIP
>>> lowered.cached_table                                # doctest: +SKIP

Synthesis registry and analytic estimator
-----------------------------------------
Every construction is registered as a strategy in :mod:`repro.synth` with
capability metadata and an exact analytic resource estimator, so scaling
studies never need to materialise circuits:

>>> from repro import synth, estimate
>>> synth.names()                                       # doctest: +SKIP
>>> estimate("mct", 3, 10**6).g_gates                   # doctest: +SKIP
>>> synth.auto_select(3, 20).strategy.name              # doctest: +SKIP

Batched execution service
-------------------------
:mod:`repro.exec` (exported here as ``batch_exec``) serves repeated and
bulk workloads: a persistent content-addressed compile cache (stable keys
over strategy/scenario/pipeline-spec/salt, lossless ``GateTable`` ↔
``.npz`` artifacts, LRU-bounded on-disk store plus an in-process memo) and
a parallel workload runner whose planner dedupes requests sharing a cache
key.  Batched simulation lives in :mod:`repro.sim`
(:class:`~repro.sim.batch.BatchedStatevector`): B states evolve per
composed gather instead of one statevector at a time:

>>> from repro.exec import CompileCache, compile_lowered
>>> cache = CompileCache(".repro-cache")                # doctest: +SKIP
>>> compile_lowered("mct", 3, 64, cache=cache).source   # doctest: +SKIP

``python -m repro list|estimate|synthesize|simulate|fuzz|batch`` exposes
the same surface on the command line.
"""

from repro.core import (
    GateCountReport,
    count_gates,
    lower_to_g_gates,
    mct_ops,
    mcu_ops,
    random_unitary_gate,
    synthesize_mct,
    synthesize_mcu,
    synthesize_pk,
)
from repro.qudit import (
    AncillaKind,
    EvenNonZero,
    Odd,
    Operation,
    QuditCircuit,
    SingleQuditUnitary,
    StarShiftOp,
    SynthesisResult,
    Value,
    XPerm,
    XPlus,
    draw,
)
from repro.passes import (
    CancelAdjacentInverses,
    DropIdentities,
    ExpandMacros,
    FuseSingleQuditGates,
    Pass,
    PassPipeline,
    default_lowering_pipeline,
)
from repro import sim
from repro import verify
from repro import synth
from repro import fuzz
from repro import exec as batch_exec
from repro.ir import GateTable
from repro.resources.estimator import Resources, estimate

__version__ = "1.3.0"

__all__ = [
    "CancelAdjacentInverses",
    "DropIdentities",
    "ExpandMacros",
    "FuseSingleQuditGates",
    "Pass",
    "PassPipeline",
    "default_lowering_pipeline",
    "GateCountReport",
    "count_gates",
    "lower_to_g_gates",
    "mct_ops",
    "mcu_ops",
    "random_unitary_gate",
    "synthesize_mct",
    "synthesize_mcu",
    "synthesize_pk",
    "AncillaKind",
    "EvenNonZero",
    "Odd",
    "Operation",
    "QuditCircuit",
    "SingleQuditUnitary",
    "StarShiftOp",
    "SynthesisResult",
    "Value",
    "XPerm",
    "XPlus",
    "draw",
    "sim",
    "verify",
    "synth",
    "fuzz",
    "batch_exec",
    "GateTable",
    "Resources",
    "estimate",
    "__version__",
]
