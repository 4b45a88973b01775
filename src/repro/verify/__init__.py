"""Verification: one budgeted API behind every semantic check.

Every verification path of the library — the ``assert_*`` helpers
(:mod:`repro.verify.asserts`), the per-strategy
:meth:`~repro.synth.strategy.Synthesizer.verify` implementations, the fuzz
``synth-spec`` oracle, the CLI and the workload runner — goes through one
:class:`TieredVerifier` that escalates cheap → expensive under a
:class:`VerificationBudget`:

>>> from repro.verify import TieredVerifier, VerificationBudget
>>> verifier = TieredVerifier(VerificationBudget.preset("smoke"))
>>> report = verifier.verify_permutation(circuit, spec)   # doctest: +SKIP
>>> report.decided_by, report.states_checked              # doctest: +SKIP
('index-propagation', 128)

Every entry point takes ``budget=``: a :class:`VerificationBudget`, a
preset name, or ``None``, which means the ``standard`` preset everywhere
(:func:`resolve_budget`).  The verifier and ``Synthesizer.verify`` return
*undecided* reports when the budget rules out every deciding tier; the
``assert_*`` helpers raise on those as on failures.  The simulators the
checks run on live in :mod:`repro.sim`.
"""

from __future__ import annotations

from repro.verify.budget import (
    PRESET_NAMES,
    PRESETS,
    TIER_COLUMNS,
    TIER_DENSE,
    TIER_INDEX,
    TIER_NAMES,
    TIER_STRUCTURAL,
    UNBOUNDED,
    VerificationBudget,
)
from repro.verify.report import TierRecord, VerificationReport
from repro.verify.verifier import TieredVerifier, resolve_budget
from repro.verify import checks
from repro.verify.checks import mc_shift_spec, mct_spec, sample_basis_states
from repro.verify.asserts import (
    assert_implements_permutation,
    assert_mct_spec,
    assert_permutation_equals_function,
    assert_unitary_columns_equiv,
    assert_unitary_equiv,
    assert_unitary_equiv_with_clean_ancillas,
    assert_wires_preserved,
)

__all__ = [
    "PRESET_NAMES",
    "PRESETS",
    "TIER_COLUMNS",
    "TIER_DENSE",
    "TIER_INDEX",
    "TIER_NAMES",
    "TIER_STRUCTURAL",
    "UNBOUNDED",
    "VerificationBudget",
    "TierRecord",
    "VerificationReport",
    "TieredVerifier",
    "resolve_budget",
    "checks",
    "mc_shift_spec",
    "mct_spec",
    "sample_basis_states",
    "assert_implements_permutation",
    "assert_mct_spec",
    "assert_permutation_equals_function",
    "assert_unitary_columns_equiv",
    "assert_unitary_equiv",
    "assert_unitary_equiv_with_clean_ancillas",
    "assert_wires_preserved",
]
