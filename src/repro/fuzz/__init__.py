"""Differential fuzzing: generators, cross-engine oracles, failure shrinking.

The repo carries four independent implementations of the paper's circuit
semantics (the object pass pipeline as the reference for columnar
lowering, object vs. table pass kernels, an op-by-op reference vs. fused
and whole-basis-gather simulation, analytic estimation vs. materialised
counting).  This package turns that redundancy into a test
oracle: seeded random artifacts (:mod:`repro.fuzz.generators`) are pushed
through every redundant path (:mod:`repro.fuzz.oracles`), and any
divergence is minimised to a few-op reproducer
(:mod:`repro.fuzz.shrink`).

Entry points::

    python -m repro fuzz --seed 0 --time-budget 10          # CLI
    from repro.fuzz import fuzz_run
    report = fuzz_run(seed=0, max_cases=25)                  # library
    assert report.ok, report.to_json()

Failures are reported with the seed of the failing case, so any finding is
replayed exactly with ``fuzz_case(seed, ...)`` or ``--seed``.  Shrunk
reproducers should be checked in as pinned cases in
``tests/test_fuzz_regressions.py``.
"""

from repro.fuzz.generators import (
    SynthesisInstance,
    enrich_for_passes,
    random_basis_state,
    random_circuit,
    random_circuit_scenario,
    random_gate,
    random_low_occupancy_case,
    random_pipeline,
    random_predicate,
    random_synthesis_instance,
    sample_basis_states,
    supported_instances,
)
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    Divergence,
    FuzzReport,
    check_backends,
    check_backends_sparse,
    check_cache_serialization,
    check_estimator,
    check_inverse_identity,
    check_lowering_engines,
    check_pass_equivalence,
    check_synthesis_semantics,
    check_table_round_trip,
    describe_op_difference,
    fuzz_case,
    fuzz_run,
)
from repro.fuzz.shrink import shrink_circuit, shrink_instance

__all__ = [
    "ORACLE_NAMES",
    "Divergence",
    "FuzzReport",
    "SynthesisInstance",
    "check_backends",
    "check_backends_sparse",
    "check_cache_serialization",
    "check_estimator",
    "check_inverse_identity",
    "check_lowering_engines",
    "check_pass_equivalence",
    "check_synthesis_semantics",
    "check_table_round_trip",
    "describe_op_difference",
    "enrich_for_passes",
    "fuzz_case",
    "fuzz_run",
    "random_basis_state",
    "random_circuit",
    "random_circuit_scenario",
    "random_gate",
    "random_low_occupancy_case",
    "random_pipeline",
    "random_predicate",
    "random_synthesis_instance",
    "sample_basis_states",
    "shrink_circuit",
    "shrink_instance",
    "supported_instances",
]
