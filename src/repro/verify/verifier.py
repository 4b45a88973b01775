"""The tiered verifier: escalate cheap → expensive until a tier decides.

:class:`TieredVerifier` is the budgeted verifier every verification entry
point routes through.  For each check it runs the structural tier first
(always affordable), then picks the cheapest *deciding* tier the
:class:`~repro.verify.budget.VerificationBudget` allows:

* permutation / wire-preservation checks decide at the **dense** tier
  (exhaustive gather-table enumeration) when the basis fits
  ``max_basis_states``, else at the **index-propagation** tier (sampled
  states, looked up in the composed gather up to
  :data:`~repro.sim.permutation.GATHER_MAX_STATES` basis states and pushed
  through batched :meth:`~repro.ir.table.GateTable.apply_to_indices` above
  it);
* unitary checks decide at the **dense** tier (matrix compare) when the
  basis fits ``max_dense_dim``, else at the **sampled-columns** tier when a
  column oracle is available and the basis fits ``max_column_basis``.

When the budget rules out every deciding tier the report comes back
``undecided`` — never a silent pass.  Every run returns a
:class:`~repro.verify.report.VerificationReport` recording which tier
decided and why, the states checked, the seeds, and a replay recipe; the
verifier itself never raises on divergence.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.verify import checks
from repro.verify.budget import (
    TIER_COLUMNS,
    TIER_DENSE,
    TIER_INDEX,
    TIER_NAMES,
    TIER_STRUCTURAL,
    VerificationBudget,
)
from repro.verify.report import (
    STATUS_DECIDED,
    STATUS_FAILED,
    STATUS_PASSED,
    STATUS_SKIPPED,
    STATUS_UNDECIDED,
    STATUS_VERIFIED,
    TierRecord,
    VerificationReport,
)
from repro.exceptions import VerificationError

#: Default seeds of the sampled checks when the budget sets none (kept so
#: failure messages and replay recipes stay byte-compatible).
DEFAULT_SPEC_SEED = 7
DEFAULT_WIRES_SEED = 11
DEFAULT_COLUMNS_SEED = 13

BudgetLike = Union[VerificationBudget, str, None]


def resolve_budget(budget: BudgetLike) -> VerificationBudget:
    """Coerce a budget, a preset name or ``None`` into a :class:`VerificationBudget`.

    This is the one place ``None`` is read: it means the ``standard``
    preset, for every entry point that takes a budget.
    """
    if budget is None:
        return VerificationBudget.preset("standard")
    if isinstance(budget, str):
        return VerificationBudget.preset(budget)
    return budget


class TieredVerifier:
    """Budget-driven verifier escalating structural → sampled → exhaustive."""

    def __init__(self, budget: BudgetLike = None):
        self.budget = resolve_budget(budget)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _structural(self, circuit, report: VerificationReport) -> bool:
        """Run tier 1; on failure finalize ``report`` and return ``False``."""
        report.tier_reached = TIER_STRUCTURAL
        try:
            stats = checks.structural_check(circuit)
        except VerificationError as exc:
            report.records.append(
                TierRecord(
                    TIER_STRUCTURAL,
                    TIER_NAMES[TIER_STRUCTURAL],
                    STATUS_FAILED,
                    detail=str(exc),
                )
            )
            report.status = STATUS_FAILED
            report.decided_by = TIER_NAMES[TIER_STRUCTURAL]
            report.error = str(exc)
            return False
        detail = f"{stats['rows']} rows scanned"
        if stats["never_fire_controls"]:
            detail += f", {stats['never_fire_controls']} never-firing control(s)"
        report.records.append(
            TierRecord(
                TIER_STRUCTURAL, TIER_NAMES[TIER_STRUCTURAL], STATUS_PASSED, detail=detail
            )
        )
        return True

    def _decide(
        self,
        report: VerificationReport,
        tier: int,
        detail: str,
        kernel,
        *,
        seed: Optional[int] = None,
    ) -> VerificationReport:
        """Run the deciding ``kernel`` and finalize ``report`` from it.

        ``kernel`` returns either ``states_checked`` or ``(states_checked,
        replay_recipe)`` and raises :class:`VerificationError` on divergence.
        """
        name = TIER_NAMES[tier]
        report.tier_reached = tier
        report.decided_by = name
        try:
            outcome = kernel()
        except VerificationError as exc:
            report.records.append(
                TierRecord(tier, name, STATUS_FAILED, detail=str(exc), seed=seed)
            )
            report.status = STATUS_FAILED
            report.error = str(exc)
            return report
        if isinstance(outcome, tuple):
            checked, replay = outcome
            report.replay = replay
        else:
            checked = int(outcome)
        report.records.append(
            TierRecord(
                tier, name, STATUS_DECIDED, detail=detail, states_checked=checked, seed=seed
            )
        )
        report.status = STATUS_VERIFIED
        report.states_checked = checked
        return report

    @staticmethod
    def _skip(report: VerificationReport, tier: int, reason: str) -> None:
        report.records.append(
            TierRecord(tier, TIER_NAMES[tier], STATUS_SKIPPED, detail=reason)
        )

    # ------------------------------------------------------------------
    # Permutation-level checks
    # ------------------------------------------------------------------

    def verify_permutation(
        self,
        circuit,
        spec: checks.Spec,
        *,
        clean_wires: Sequence[int] = (),
    ) -> VerificationReport:
        """Check that ``circuit`` maps basis states exactly as ``spec`` does.

        States with a ``clean_wires`` digit off ``0`` are outside the
        circuit's contract and are never checked.
        """
        clean = tuple(clean_wires)
        return self._basis_ladder(
            circuit,
            "permutation",
            DEFAULT_SPEC_SEED,
            lambda: checks.spec_exhaustive(circuit, spec, clean),
            lambda samples, seed: checks.spec_sampled(circuit, spec, samples, seed, clean),
        )

    def verify_wires_preserved(
        self, circuit, wires: Sequence[int]
    ) -> VerificationReport:
        """Check that ``circuit`` restores ``wires`` on every basis input."""
        return self._basis_ladder(
            circuit,
            "wires-preserved",
            DEFAULT_WIRES_SEED,
            lambda: checks.wires_preserved_exhaustive(circuit, wires),
            lambda samples, seed: checks.wires_preserved_sampled(
                circuit, wires, samples, seed
            ),
        )

    def _basis_ladder(
        self,
        circuit,
        kind: str,
        default_seed: int,
        exhaustive: Callable[[], int],
        sampled: Callable[[int, int], tuple],
    ) -> VerificationReport:
        """The tier ladder shared by the basis-state checks.

        Structural first; then the whole basis (tier 4) when it fits
        ``max_basis_states``, else ``samples`` seeded states (tier 2).
        """
        budget = self.budget
        report = VerificationReport(kind=kind, circuit=circuit.name, status=STATUS_UNDECIDED)
        if not self._structural(circuit, report):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        if size <= budget.max_basis_states:
            self._skip(report, TIER_INDEX, "subsumed by exhaustive enumeration")
            return self._decide(
                report,
                TIER_DENSE,
                f"exhaustive gather-table enumeration of {size} basis states",
                exhaustive,
            )
        dense_reason = f"basis {size} exceeds max_basis_states={budget.max_basis_states}"
        if budget.samples <= 0:
            # Zero samples would "decide" without checking anything — a
            # vacuous pass.  Report undecided instead.
            self._skip(report, TIER_INDEX, "budget draws no samples")
            self._skip(report, TIER_DENSE, dense_reason)
            return report
        seed = budget.seed if budget.seed is not None else default_seed
        decided = self._decide(
            report,
            TIER_INDEX,
            f"batched index propagation of {budget.samples} sampled states",
            lambda: sampled(budget.samples, seed),
            seed=seed,
        )
        self._skip(report, TIER_DENSE, dense_reason)
        return decided

    # ------------------------------------------------------------------
    # Unitary-level checks
    # ------------------------------------------------------------------

    def verify_unitary(
        self,
        circuit,
        expected: Optional[np.ndarray] = None,
        *,
        expected_factory: Optional[Callable[[], np.ndarray]] = None,
        expected_column: Optional[Callable[[int], np.ndarray]] = None,
        required_columns: Sequence[int] = (),
        up_to_global_phase: bool = False,
        atol: float = 1e-8,
        backend=None,
    ) -> VerificationReport:
        """Check the circuit's unitary against a matrix and/or column oracle.

        ``expected_factory`` builds the matrix only if the dense tier runs;
        ``required_columns`` are always among the sampled columns.
        """
        if expected is None and expected_factory is None and expected_column is None:
            raise VerificationError(
                "verify_unitary needs an expected matrix, matrix factory, "
                "or column oracle"
            )
        budget = self.budget
        report = VerificationReport(
            kind="unitary", circuit=circuit.name, status=STATUS_UNDECIDED
        )
        if not self._structural(circuit, report):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        tolerance = budget.atol if budget.atol is not None else atol

        column_fn = expected_column
        pinned = tuple(required_columns)
        if column_fn is None and expected is not None:
            matrix = np.asarray(expected)

            def column_fn(col: int, _matrix=matrix) -> np.ndarray:
                return _matrix[:, col]

        columns_possible = (
            column_fn is not None
            and budget.sampled_columns > 0
            and size <= budget.max_column_basis
        )
        dense_possible = (
            budget.allow_dense
            and (expected is not None or expected_factory is not None)
            and size <= budget.max_dense_dim
        )

        if columns_possible and (budget.prefer_columns or not dense_possible):
            seed = budget.seed if budget.seed is not None else DEFAULT_COLUMNS_SEED
            decided = self._decide(
                report,
                TIER_COLUMNS,
                f"{budget.sampled_columns} sampled + {len(pinned)} pinned columns",
                lambda: checks.unitary_columns(
                    circuit,
                    column_fn,
                    samples=budget.sampled_columns,
                    required_columns=pinned,
                    seed=seed,
                    atol=tolerance,
                    up_to_global_phase=up_to_global_phase,
                    backend=backend,
                ),
                seed=seed,
            )
            reason = (
                "sampled columns decided first (prefer_columns)"
                if dense_possible
                else self._dense_skip_reason(budget, size, expected, expected_factory)
            )
            self._skip(report, TIER_DENSE, reason)
            return decided

        if dense_possible:
            if column_fn is None:
                self._skip(report, TIER_COLUMNS, "no column oracle available")
            else:
                self._skip(report, TIER_COLUMNS, "dense compare within budget")

            def dense_kernel():
                matrix = expected if expected is not None else expected_factory()
                return checks.unitary_dense(
                    circuit,
                    np.asarray(matrix),
                    atol=tolerance,
                    up_to_global_phase=up_to_global_phase,
                    backend=backend,
                )

            return self._decide(
                report,
                TIER_DENSE,
                f"dense compare of two {size}×{size} matrices",
                dense_kernel,
            )

        # Budget rules out every deciding tier: report undecided, never pass.
        if column_fn is None:
            self._skip(report, TIER_COLUMNS, "no column oracle available")
        elif budget.sampled_columns <= 0:
            self._skip(report, TIER_COLUMNS, "budget draws no sampled columns")
        else:
            self._skip(
                report,
                TIER_COLUMNS,
                f"basis {size} exceeds max_column_basis={budget.max_column_basis}",
            )
        self._skip(
            report,
            TIER_DENSE,
            self._dense_skip_reason(budget, size, expected, expected_factory),
        )
        report.status = STATUS_UNDECIDED
        return report

    @staticmethod
    def _dense_skip_reason(budget, size, expected, expected_factory) -> str:
        if not budget.allow_dense:
            return "dense tier disabled by budget"
        if expected is None and expected_factory is None:
            return "no expected matrix available"
        return f"basis {size} exceeds max_dense_dim={budget.max_dense_dim}"

    def verify_unitary_clean_ancillas(
        self,
        circuit,
        expected: np.ndarray,
        data_wires: Sequence[int],
        clean_wires: Sequence[int],
        *,
        atol: float = 1e-8,
        backend=None,
    ) -> VerificationReport:
        """Check ``expected`` on the clean-ancilla ``|0…0⟩`` subspace."""
        budget = self.budget
        report = VerificationReport(
            kind="unitary-clean-ancillas", circuit=circuit.name, status=STATUS_UNDECIDED
        )
        if not self._structural(circuit, report):
            return report
        size = checks.basis_size(circuit.dim, circuit.num_wires)
        tolerance = budget.atol if budget.atol is not None else atol
        if not (budget.allow_dense and size <= budget.max_dense_dim):
            # The subspace check needs the full matrix; no cheaper tier can
            # decide it, so an insufficient budget means undecided.
            self._skip(
                report,
                TIER_DENSE,
                self._dense_skip_reason(budget, size, expected, None),
            )
            return report
        return self._decide(
            report,
            TIER_DENSE,
            f"clean-ancilla subspace compare on a {size}×{size} unitary",
            lambda: checks.unitary_clean_subspace(
                circuit,
                expected,
                data_wires,
                clean_wires,
                atol=tolerance,
                backend=backend,
            ),
        )
