"""Lowering facade: expand macro operations down to the G-gate set.

Historically this module housed a monolithic fixed-point rewriter; the
machinery now lives in the columnar IR under :mod:`repro.ir`, which
expands each macro from cached templates straight into a struct-of-arrays
:class:`~repro.ir.table.GateTable` and runs the columnar cancel/drop
kernels on it.  :func:`lower_to_g_gates` is kept as a thin compatibility
wrapper so every existing caller keeps working unchanged.  The optimization
passes only remove or merge operations, so lowered G-gate counts can shrink
relative to plain expansion but never grow.

The pass pipeline over per-op Python objects
(``default_lowering_pipeline(max_sweeps=_MAX_PASSES).run(circuit)``, see
:mod:`repro.passes`) is the reference this engine is checked against: the
test suite and the fuzz ``lowering`` oracle require both to produce
gate-for-gate identical output.
"""

from __future__ import annotations

from repro.exceptions import SynthesisError
from repro.qudit.circuit import QuditCircuit

#: Safety bound on the number of rewriting sweeps (and on the per-op
#: expansion recursion depth — sweeps bound nesting depth).
_MAX_PASSES = 12


def lower_to_g_gates(circuit: QuditCircuit) -> QuditCircuit:
    """Return an equivalent circuit consisting solely of G-gates.

    The result is backed by its columnar table: counting queries run as
    column kernels and op objects materialise only if something iterates
    them.  The compile cache's way in is
    :func:`repro.exec.service.compile_lowered`.
    """
    # Imported lazily: repro.ir.lowering reaches into repro.passes, which
    # pulls in repro.core synthesis modules; a module-level import here
    # would close that cycle during package initialisation.
    from repro.ir.lowering import lower_circuit_to_table

    table = lower_circuit_to_table(circuit, max_sweeps=_MAX_PASSES)
    if not table.is_g_circuit():  # pragma: no cover - defensive
        raise SynthesisError("lowering did not converge to G-gates")
    return QuditCircuit.from_table(table, name=f"{circuit.name} [G]")
