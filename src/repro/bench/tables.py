"""Table builders for the reproduction experiments.

Each function measures the relevant quantity from the *actual synthesised
circuits* and returns rows that the benchmark scripts render with
:mod:`repro.bench.formatting`.  The paper states only asymptotic bounds, so
the reproduced "tables" are the measured counterparts of those bounds plus
the comparisons drawn in the introduction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.clean_ancilla_ladder import clean_ancilla_count, synthesize_mct_clean_ladder
from repro.baselines.cost_models import (
    di_wei_model,
    moraga_exponential_model,
    standard_clean_ancilla_model,
    yeh_vdw_model,
)
from repro.bench.formatting import ancilla_kind_label
from repro.core.gate_counts import count_gates
from repro.core.toffoli import synthesize_mct
from repro.core.multi_controlled_unitary import random_unitary_gate, synthesize_mcu
from repro.applications.lower_bound import reversible_lower_bound
from repro.applications.reversible import random_reversible_function, synthesize_reversible_function
from repro.applications.unitary_synthesis import (
    bullock_ancilla_count,
    random_unitary,
    synthesize_unitary,
)
from repro.resources.cliffordt import clifford_t_cost, yeh_vdw_toffoli_model


def toffoli_scaling_rows(
    dims: Sequence[int], ks: Sequence[int], *, lower: bool = True
) -> List[Dict[str, object]]:
    """E1/E2/E3: measured size of the paper's k-Toffoli vs k and d."""
    rows: List[Dict[str, object]] = []
    for dim in dims:
        for k in ks:
            result = synthesize_mct(dim, k)
            report = count_gates(result, lower=lower)
            row = report.as_row()
            row.update({"k": k, "parity": "odd" if dim % 2 else "even"})
            rows.append(row)
    return rows


def linearity_summary(rows: Iterable[Dict[str, object]], metric: str = "g_gates") -> List[Dict[str, object]]:
    """E3: per-dimension incremental cost Δmetric/Δk — flat increments mean
    the size is linear in k, which is the paper's headline claim."""
    by_dim: Dict[int, List[Dict[str, object]]] = {}
    for row in rows:
        by_dim.setdefault(int(row["d"]), []).append(row)
    summary = []
    for dim, dim_rows in sorted(by_dim.items()):
        dim_rows = sorted(dim_rows, key=lambda r: int(r["k"]))
        increments = [
            (int(b[metric]) - int(a[metric])) / max(int(b["k"]) - int(a["k"]), 1)
            for a, b in zip(dim_rows, dim_rows[1:])
        ]
        if not increments:
            continue
        summary.append(
            {
                "d": dim,
                "metric": metric,
                "min Δ/Δk": round(min(increments), 1),
                "max Δ/Δk": round(max(increments), 1),
                "mean Δ/Δk": round(sum(increments) / len(increments), 1),
                "growth": "linear" if max(increments) <= 2.5 * max(min(increments), 1) else "super-linear",
            }
        )
    return summary


def baseline_comparison_rows(dim: int, ks: Sequence[int]) -> List[Dict[str, object]]:
    """E5: ours vs the baselines, measured where implemented and modelled
    otherwise (Di & Wei, Yeh & vdW)."""
    rows: List[Dict[str, object]] = []
    for k in ks:
        ours = synthesize_mct(dim, k)
        ours_report = count_gates(ours, lower=True)
        rows.append(
            {
                "d": dim,
                "k": k,
                "method": "this paper (measured)",
                "two_qudit_gates": ours_report.g_gates,
                "ancillas": ours.ancilla_count(),
                "ancilla_kind": ancilla_kind_label(ours_report.ancillas),
            }
        )
        ladder = synthesize_mct_clean_ladder(dim, k)
        ladder_report = count_gates(ladder, lower=False)
        rows.append(
            {
                "d": dim,
                "k": k,
                "method": "clean-ancilla ladder [5,23] (measured)",
                "two_qudit_gates": ladder_report.macro_ops,
                "ancillas": clean_ancilla_count(dim, k),
                "ancilla_kind": ancilla_kind_label(ladder_report.ancillas),
            }
        )
        for model in (standard_clean_ancilla_model, di_wei_model, yeh_vdw_model, moraga_exponential_model):
            estimate = model(dim, k)
            row = {"d": dim, "k": k}
            row.update(estimate.as_row())
            rows.append(row)
    return rows


def ancilla_count_rows(dims: Sequence[int], ks: Sequence[int]) -> List[Dict[str, object]]:
    """E11: ancilla usage of ours vs the ⌈(k−2)/(d−2)⌉ clean-ancilla baseline."""
    rows = []
    for dim in dims:
        for k in ks:
            ours = synthesize_mct(dim, k)
            rows.append(
                {
                    "d": dim,
                    "k": k,
                    "ours_ancillas": ours.ancilla_count(),
                    "ours_kind": "borrowed" if ours.ancilla_count() else "none",
                    "baseline_clean_ancillas": clean_ancilla_count(dim, k),
                    "bullock_unitary_ancillas(n=k)": bullock_ancilla_count(dim, k),
                }
            )
    return rows


def mcu_rows(dims: Sequence[int], ks: Sequence[int]) -> List[Dict[str, object]]:
    """E6: the |0^k⟩-U synthesis — two-qudit gates and the single clean ancilla."""
    rows = []
    for dim in dims:
        for k in ks:
            result = synthesize_mcu(dim, k, random_unitary_gate(dim, seed=k))
            # Unitary payloads cannot be lowered to G-gates; count at the
            # two-qudit level after lowering the classical Toffoli part.
            report = count_gates(result, lower=False)
            rows.append(
                {
                    "d": dim,
                    "k": k,
                    "macro_ops": report.macro_ops,
                    "clean_ancillas": result.ancilla_count(),
                    "wires": result.circuit.num_wires,
                }
            )
    return rows


def unitary_synthesis_rows(cases: Sequence[tuple]) -> List[Dict[str, object]]:
    """E7: unitary synthesis — measured two-qudit gates vs d^{2n}, ancillas."""
    rows = []
    for dim, n, seed in cases:
        unitary = random_unitary(dim**n, seed=seed)
        result = synthesize_unitary(unitary, dim, n)
        report = count_gates(result, lower=False)
        rows.append(
            {
                "d": dim,
                "n": n,
                "macro_ops": report.macro_ops,
                "d^{2n}": dim ** (2 * n),
                "clean_ancillas_ours": result.ancilla_count(),
                "clean_ancillas_bullock": bullock_ancilla_count(dim, n),
            }
        )
    return rows


def reversible_rows(dims: Sequence[int], ns: Sequence[int], *, lower: bool = False) -> List[Dict[str, object]]:
    """E8/E9: reversible-function implementation size vs the n·d^n bound and
    the Lemma IV.3 lower bound."""
    rows = []
    for dim in dims:
        for n in ns:
            table = random_reversible_function(dim, n, seed=dim * 100 + n)
            result = synthesize_reversible_function(dim, n, table)
            report = count_gates(result, lower=lower)
            bound = reversible_lower_bound(dim, n)
            rows.append(
                {
                    "d": dim,
                    "n": n,
                    "measured_ops": report.g_gates if lower else report.macro_ops,
                    "count_level": "G-gates" if lower else "macro ops",
                    "n*d^n": n * dim**n,
                    "lower_bound": bound.min_gates,
                    "ancillas": result.ancilla_count(),
                }
            )
    return rows


def estimator_scaling_rows(
    dim: int, ks: Sequence[int], strategies: Sequence[str] = ("mct",)
) -> List[Dict[str, object]]:
    """Exact analytic resource counts at arbitrary k — no circuits built.

    Rows come from the registry's calibrated estimators
    (:mod:`repro.resources.estimator`), so ``ks`` can range to ``10^6`` and
    beyond; this is how the scaling tables escape the materialisation cap.
    """
    from repro.synth import registry  # lazy: bench is imported by scripts only

    rows: List[Dict[str, object]] = []
    for name in strategies:
        strategy = registry.get(name)
        for k in ks:
            if not strategy.supports(dim, k):
                continue
            rows.append(strategy.estimate(dim, k).as_row())
    return rows


def cliffordt_estimate_rows(ks: Sequence[int]) -> List[Dict[str, object]]:
    """E10 at estimator scale: qutrit Clifford+T cost vs the [24] model,
    computed analytically (meaningful up to k = 10^6 and beyond)."""
    from repro.resources.cliffordt import clifford_t_estimate

    rows = []
    for k in ks:
        cost = clifford_t_estimate(k)
        model = yeh_vdw_toffoli_model(k)
        rows.append(
            {
                "k": k,
                "ours_T": cost.t_count,
                "ours_total": cost.total(),
                "yeh_vdw_model_total": round(model, 0),
                "ratio_model/ours": round(model / max(cost.total(), 1), 2),
            }
        )
    return rows


def cliffordt_rows(ks: Sequence[int]) -> List[Dict[str, object]]:
    """E10: qutrit Clifford+T cost of the k-Toffoli, ours vs the [24] model."""
    rows = []
    for k in ks:
        result = synthesize_mct(3, k)
        cost = clifford_t_cost(result.circuit)
        model = yeh_vdw_toffoli_model(k)
        rows.append(
            {
                "k": k,
                "ours_T": cost.t_count,
                "ours_total": cost.total(),
                "yeh_vdw_model_total": round(model, 0),
                "ratio_model/ours": round(model / max(cost.total(), 1), 2),
            }
        )
    return rows
