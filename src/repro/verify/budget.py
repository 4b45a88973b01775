"""Cost budgets for tiered verification.

A :class:`VerificationBudget` is the single dial that decides how much a
verification run is allowed to spend.  The :class:`~repro.verify.verifier.
TieredVerifier` reads it to pick the cheapest tier that can *decide* a
check:

====  ==================  ==========================================  ==========================
tier  name                cost model                                  budget knobs
====  ==================  ==========================================  ==========================
1     structural          one pass over the GateTable's distinct      always runs
                          rows
2     index-propagation   ``O(samples)`` lookups in the held gather   ``samples``
                          up to ``GATHER_MAX_STATES`` states, else
                          ``O(rows · samples)`` batched indices
3     sampled-columns     a few statevector evolutions                ``sampled_columns``,
                          (``O(rows · d^n · cols)``), or columns of   ``max_column_basis``
                          the held operator up to
                          ``OPERATOR_MAX_STATES`` states
4     dense               ``O(d^n)`` gather table (permutations) or   ``max_basis_states``,
                          ``O(d^2n)`` matrices (unitaries; the held   ``max_dense_dim``,
                          operator up to ``OPERATOR_MAX_STATES``)     ``allow_dense``
====  ==================  ==========================================  ==========================

Budgets are immutable; derive variants with :meth:`VerificationBudget.replace`
or start from a named preset (``smoke`` / ``standard`` / ``audit``) via
:meth:`VerificationBudget.preset`.  Every field is type-checked when a budget
is built, so a malformed override (``--verify-budget`` JSON, say) fails
there with :class:`~repro.exceptions.VerificationError` instead of deep
inside a tier kernel.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import VerificationError

#: Tier numbers, in escalation order.
TIER_STRUCTURAL = 1
TIER_INDEX = 2
TIER_COLUMNS = 3
TIER_DENSE = 4

#: Human-readable tier names (used in reports and tier-hit counters).
TIER_NAMES = {
    TIER_STRUCTURAL: "structural",
    TIER_INDEX: "index-propagation",
    TIER_COLUMNS: "sampled-columns",
    TIER_DENSE: "dense",
}

#: Sentinel meaning "no limit" for the basis-size knobs.  Only ever compared
#: as a Python int, so it can (and must) exceed int64 — a register can be
#: bigger than ``2^63`` states, and a tier asked to handle one should reach
#: its own overflow guard rather than be silently skipped by the budget.
UNBOUNDED = 1 << 127


@dataclass(frozen=True)
class VerificationBudget:
    """How much a verification run may spend, per tier.

    ``max_basis_states``
        Permutation checks enumerate the whole basis (tier 4) only when
        ``d^n`` is at most this; larger systems fall back to the sampled
        index-propagation tier.
    ``samples``
        Number of seeded basis states pushed through the batched
        index-propagation tier.
    ``max_dense_dim``
        Dense unitary compares (tier 4) build two ``d^n × d^n`` matrices;
        they are only attempted when ``d^n`` is at most this.
    ``sampled_columns``
        Number of random basis columns evolved by the sampled-column tier
        (on top of any caller-pinned required columns).
    ``max_column_basis``
        The sampled-column tier evolves a ``(d^n, cols)`` batch; it is only
        attempted when ``d^n`` is at most this.
    ``allow_dense``
        Master switch for tier 4.  ``False`` caps escalation at tier 3.
    ``prefer_columns``
        Take the sampled-column tier even when a dense compare would fit the
        budget (the smoke preset uses this to stay cheap).
    ``seed``
        Overrides the per-check default seeds of the sampled tiers, so a
        whole run can be replayed under one seed.
    ``atol``
        Overrides the per-check numeric tolerance when set.
    """

    max_basis_states: int = 200_000
    samples: int = 2000
    max_dense_dim: int = 1024
    sampled_columns: int = 8
    max_column_basis: int = 65_536
    allow_dense: bool = True
    prefer_columns: bool = False
    seed: Optional[int] = None
    atol: Optional[float] = None

    def __post_init__(self) -> None:
        for name in _SIZE_FIELDS:
            _require(self, name, _is_count(getattr(self, name)), "an integer >= 0")
        for name in ("allow_dense", "prefer_columns"):
            _require(self, name, isinstance(getattr(self, name), bool), "true or false")
        _require(self, "seed", self.seed is None or _is_count(self.seed), "an integer >= 0 or null")
        atol = self.atol
        finite = (
            isinstance(atol, numbers.Real)
            and not isinstance(atol, bool)
            and math.isfinite(atol)
            and atol >= 0
        )
        _require(self, "atol", atol is None or finite, "a finite number >= 0 or null")

    def replace(self, **overrides: object) -> "VerificationBudget":
        """Return a copy with ``overrides`` applied (unknown fields raise)."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise VerificationError(
                f"unknown budget field(s) {unknown}; valid fields: {sorted(known)}"
            )
        return dataclasses.replace(self, **overrides)

    @classmethod
    def preset(cls, name: str) -> "VerificationBudget":
        """Return a named preset budget (``smoke``/``standard``/``audit``)."""
        try:
            return PRESETS[name]
        except KeyError:
            raise VerificationError(
                f"unknown verification preset {name!r}; "
                f"choose from {sorted(PRESETS)}"
            ) from None

    def describe(self) -> str:
        """One-line summary used by CLI output and reports."""
        return (
            f"basis<={self.max_basis_states} samples={self.samples} "
            f"dense<={self.max_dense_dim} cols={self.sampled_columns} "
            f"col_basis<={self.max_column_basis} "
            f"dense={'on' if self.allow_dense else 'off'}"
            f"{' prefer-columns' if self.prefer_columns else ''}"
        )


_SIZE_FIELDS = (
    "max_basis_states",
    "samples",
    "max_dense_dim",
    "sampled_columns",
    "max_column_basis",
)


def _is_count(value: object) -> bool:
    """A non-negative Python int that is not a bool (``True`` is an int)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _require(budget: VerificationBudget, name: str, ok: bool, wanted: str) -> None:
    if not ok:
        raise VerificationError(
            f"budget field {name!r} must be {wanted}, got {getattr(budget, name)!r}"
        )


#: Named budget presets.  ``smoke`` decides everything it can below the dense
#: tier (CI smoke runs); ``standard`` is what ``budget=None`` means everywhere;
#: ``audit`` spends an order of magnitude more everywhere.
PRESETS = {
    "smoke": VerificationBudget(
        max_basis_states=0,
        samples=128,
        max_dense_dim=128,
        sampled_columns=4,
        max_column_basis=65_536,
        prefer_columns=True,
    ),
    "standard": VerificationBudget(),
    "audit": VerificationBudget(
        max_basis_states=1_000_000,
        samples=100_000,
        max_dense_dim=4096,
        sampled_columns=128,
        max_column_basis=262_144,
    ),
}

#: Preset names accepted by ``--verify-tier`` and workload requests.
PRESET_NAMES = tuple(sorted(PRESETS))
