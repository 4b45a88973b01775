"""Analytic gate-count models for prior work cited by the paper.

Two of the paper's comparison points — Di & Wei [20] and Yeh & van de
Wetering [24] — are full papers of their own; re-implementing them is out of
scope for this reproduction, and only their asymptotic gate
counts enter the comparison.  This module provides those counts as explicit
cost models with documented constants, alongside the models for the methods
that *are* implemented, so the benchmark tables can show every row of the
paper's comparison.

Every model returns a :class:`CostEstimate` with the two-qudit-gate count
and ancilla usage for a k-controlled Toffoli on d-level qudits.

For the *implemented* methods, prefer the exact calibrated estimators of
:mod:`repro.resources.estimator` (reachable through the strategy registry,
``repro.synth.estimate(name, d, k)``); the asymptotic models here cover only
the unimplemented literature rows of the comparison tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass
class CostEstimate:
    """Estimated resources of one synthesis method for the k-Toffoli."""

    method: str
    two_qudit_gates: float
    ancillas: int
    ancilla_kind: str
    exact: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "two_qudit_gates": (
                int(self.two_qudit_gates) if self.two_qudit_gates < 1e15 else self.two_qudit_gates
            ),
            "ancillas": self.ancillas,
            "ancilla_kind": self.ancilla_kind,
            "model": "measured" if self.exact else "analytic",
        }


def standard_clean_ancilla_model(dim: int, k: int) -> CostEstimate:
    """The standard synthesis [5, 23]: O(k) gates, ⌈(k−2)/(d−2)⌉ clean ancillas."""
    ancillas = 0 if k <= 2 else -(-(k - 2) // (dim - 2))
    gates = 2 * (k + max(ancillas - 1, 0)) + 1
    return CostEstimate("clean-ancilla ladder [5,23]", gates, ancillas, "clean", exact=False)


def moraga_exponential_model(dim: int, k: int) -> CostEstimate:
    """The ancilla-free synthesis of [25]: exponentially many two-qudit gates."""
    gates = 2.0**k
    return CostEstimate("ancilla-free exponential [25]", gates, 0, "none", exact=False)


def di_wei_model(dim: int, k: int, constant: float = 1.0) -> CostEstimate:
    """Di & Wei [20]: ancilla-free with O(k^3) two-qudit gates.

    ``constant`` scales the leading term; the default of 1 reports the bare
    asymptotic ``k^3`` so the comparison shows orders of magnitude, not exact
    constants (which [20] does not need for the paper's argument).
    """
    return CostEstimate("Di & Wei [20] (model)", constant * k**3, 0, "none", exact=False)


def yeh_vdw_model(dim: int, k: int, constant: float = 1.0) -> CostEstimate:
    """Yeh & van de Wetering [24]: ancilla-free Clifford+T with O(k^3.585) gates.

    The exponent 3.585 = log2(12) comes from their recursive construction;
    the model is meaningful for ``d = 3`` (qutrits) where [24] works.
    """
    return CostEstimate(
        "Yeh & vdW [24] (model)", constant * k**3.585, 0, "none", exact=False
    )


def this_paper_model(dim: int, k: int, constant: float = 1.0) -> CostEstimate:
    """The paper's own asymptotic claim: O(k·d^3) G-gates, ≤ 1 ancilla."""
    ancillas = 0 if dim % 2 == 1 else (1 if k >= 2 else 0)
    kind = "none" if ancillas == 0 else "borrowed"
    return CostEstimate("this paper (model)", constant * k * dim**3, ancillas, kind, exact=False)


def reversible_function_models(dim: int, n: int) -> Dict[str, float]:
    """Gate-count models for n-variable d-ary reversible functions.

    Returns the paper's O(n·d^n) bound, the Yeh & vdW O(d^n·n^3.585) bound
    (stated for d = 3 in [24]) and the information-theoretic lower bound
    Ω(n·d^n / log n) of Lemma IV.3 (with the constant from the proof).
    """
    size = float(dim) ** n
    log_n = math.log(max(n, 2))
    return {
        "this paper O(n d^n)": n * size,
        "Yeh & vdW O(d^n n^3.585)": size * n**3.585,
        "lower bound Ω(n d^n / log n)": n * size * math.log(dim) / (4.0 * math.log(dim * max(n, 2))),
        "log-n denominator": log_n,
    }


#: Registry used by the comparison benchmark to iterate over every model row.
MODEL_REGISTRY: Dict[str, Callable[[int, int], CostEstimate]] = {
    "clean-ancilla ladder [5,23]": standard_clean_ancilla_model,
    "ancilla-free exponential [25]": moraga_exponential_model,
    "Di & Wei [20]": di_wei_model,
    "Yeh & vdW [24]": yeh_vdw_model,
    "this paper": this_paper_model,
}
