"""Analytic resource estimation: exact gate counts without building circuits.

The paper's constructions are *linear recurrences*: every added control
contributes one constant-size block (a ladder layer in Figs. 3/7/8, a
detector/parity-flip pair in Fig. 10, a counting step in the clean-ancilla
baseline).  Consequently, for a fixed dimension ``d``, every cost metric of
the synthesised-and-lowered circuit — G-gates, two-qudit gates, depth, … —
is an *exactly affine* function of ``k`` on each residue class
``k mod period`` once ``k`` clears a small stabilisation threshold (the
halving constructions of Figs. 4/9 introduce a parity dependence, hence the
residue classes; the peephole optimisation passes cancel the same constant
number of gates at every block seam, so they shift the affine constants but
preserve affineness).

This module turns that observation into an estimator that is **exact by
construction**:

1. ``measure`` materialises and lowers the circuit for small parameters and
   caches the full metric vector (this is also the fallback for any ``k``
   below the stabilisation threshold);
2. ``affine_estimate`` calibrates one residue class from **three** measured
   points, *verifies* that the two finite differences agree for every metric
   (raising :class:`~repro.exceptions.EstimationError` rather than ever
   extrapolating a non-affine family), and then answers any ``k`` — a
   million controls, say — in O(1) integer arithmetic.

The calibration is validated gate-for-gate against materialised+lowered
circuits in ``tests/test_estimator.py`` (including points strictly beyond
the calibration window).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.gate_counts import GateCountReport, count_gates
from repro.exceptions import EstimationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (synth imports us)
    from repro.synth.strategy import Synthesizer

#: Metric fields tracked by the estimator, in the order used by the affine
#: calibration.  They mirror :class:`~repro.core.gate_counts.GateCountReport`.
METRIC_FIELDS: Tuple[str, ...] = (
    "macro_ops",
    "two_qudit_gates",
    "g_gates",
    "depth",
    "single_qudit_gates",
    "controlled_x01",
)


@dataclass(frozen=True)
class AffineSpec:
    """Shape of a strategy's cost family.

    ``period`` is the residue-class modulus (2 for the halving constructions,
    ``d − 2`` for the counting ladder) and ``stable_from`` the smallest ``k``
    from which the finite differences are constant; below it the estimator
    simply measures (small circuits, cached).
    """

    period: int = 2
    stable_from: int = 11


@dataclass(frozen=True)
class Resources:
    """Exact resource counts of one synthesis strategy at ``(d, k)``.

    The counting semantics match ``count_gates(result, lower=True)``:
    metrics refer to the circuit lowered to G-gates when the payload is a
    permutation, and to the macro circuit otherwise (e.g. unitary payloads).
    ``exact=False`` marks model-level estimates (payload-dependent
    strategies) that are bounds rather than gate-for-gate counts.
    """

    strategy: str
    dim: int
    k: int
    num_wires: int
    macro_ops: int
    two_qudit_gates: int
    g_gates: int
    depth: int
    single_qudit_gates: int
    controlled_x01: int
    ancillas: Mapping[str, int] = field(default_factory=dict)
    exact: bool = True

    def metrics(self) -> Tuple[int, ...]:
        """The tracked metric vector, ordered as :data:`METRIC_FIELDS`."""
        return tuple(getattr(self, name) for name in METRIC_FIELDS)

    def ancilla_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return sum(self.ancillas.values())
        return self.ancillas.get(kind, 0)

    def as_row(self) -> Dict[str, object]:
        """Flatten into a table row (same helper as ``GateCountReport``)."""
        from repro.bench.formatting import counts_row  # lazy: avoids cycle

        return counts_row(
            {
                "strategy": self.strategy,
                "d": self.dim,
                "k": self.k,
                "wires": self.num_wires,
                "macro_ops": self.macro_ops,
                "two_qudit_gates": self.two_qudit_gates,
                "g_gates": self.g_gates,
                "depth": self.depth,
                "exact": self.exact,
            },
            self.ancillas,
        )

    @classmethod
    def from_report(
        cls,
        report: GateCountReport,
        *,
        strategy: str,
        k: int,
        exact: bool = True,
    ) -> "Resources":
        return cls(
            strategy=strategy,
            dim=report.dim,
            k=k,
            num_wires=report.num_wires,
            macro_ops=report.macro_ops,
            two_qudit_gates=report.two_qudit_gates,
            g_gates=report.g_gates,
            depth=report.depth,
            single_qudit_gates=report.single_qudit_gates,
            controlled_x01=report.controlled_x01,
            ancillas=dict(report.ancillas),
            exact=exact,
        )


# ----------------------------------------------------------------------
# Measured path (small parameters) with a bounded process-wide cache
# ----------------------------------------------------------------------
class _BoundedCache:
    """A tiny LRU memo with hit/miss counters.

    The estimator's measured points and calibrations used to live in
    unbounded module dicts; at service scale (one long-lived process
    answering ``auto_select`` for arbitrary scenario streams) that is a slow
    leak, so both layers are now LRU-bounded.  The capacities are generous —
    a calibration entry is three small tuples, a measured entry one
    :class:`Resources` — so eviction only triggers under adversarial
    scenario churn, never in a normal sweep.
    """

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def lookup(self, key):
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def store(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Membership without counting a hit or miss or touching LRU order."""
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Capacity of the measured-point memo (one :class:`Resources` per entry).
MEASURED_CACHE_ENTRIES = 4096
#: Capacity of the calibration memo (three metric tuples per entry).
CALIBRATION_CACHE_ENTRIES = 1024

_MEASURED = _BoundedCache(MEASURED_CACHE_ENTRIES)
_CALIBRATION = _BoundedCache(CALIBRATION_CACHE_ENTRIES)

#: How many circuits :func:`measure` has materialised (cache misses); the
#: memoization tests assert this stays flat across repeated estimates.
_MATERIALISATIONS = [0]


def cache_stats() -> Dict[str, int]:
    """Counters of the estimator's bounded memo layers."""
    return {
        "measured_entries": len(_MEASURED),
        "measured_hits": _MEASURED.hits,
        "measured_misses": _MEASURED.misses,
        "calibration_entries": len(_CALIBRATION),
        "calibration_hits": _CALIBRATION.hits,
        "calibration_misses": _CALIBRATION.misses,
        "materialisations": _MATERIALISATIONS[0],
    }


def clear_caches() -> None:
    """Drop all measured points and calibrations (mainly for tests)."""
    _MEASURED.clear()
    _CALIBRATION.clear()
    _MATERIALISATIONS[0] = 0


def measure(strategy: "Synthesizer", dim: int, k: int) -> Resources:
    """Materialise, lower and count the strategy's circuit at ``(d, k)``.

    Exact by definition; cached per ``(strategy, d, k)``.  Also cross-checks
    the strategy's analytic :meth:`~repro.synth.strategy.Synthesizer.layout`
    against the real circuit, so every measurement doubles as a validation
    of the wire/ancilla bookkeeping used on the extrapolated path.
    """
    key = (strategy.name, dim, k)
    cached = _MEASURED.lookup(key)
    if cached is not None:
        return cached
    _MATERIALISATIONS[0] += 1
    result = strategy.synthesize(dim, k)
    report = count_gates(result, lower=True)
    resources = Resources.from_report(report, strategy=strategy.name, k=k)
    wires, ancillas = strategy.layout(dim, k)
    if wires != resources.num_wires or dict(ancillas) != dict(resources.ancillas):
        raise EstimationError(
            f"{strategy.name}.layout({dim}, {k}) predicts wires={wires}, "
            f"ancillas={dict(ancillas)} but the synthesised circuit has "
            f"wires={resources.num_wires}, ancillas={dict(resources.ancillas)}"
        )
    _MEASURED.store(key, resources)
    return resources


# ----------------------------------------------------------------------
# Affine calibration and extrapolation
# ----------------------------------------------------------------------
def affine_estimate(strategy: "Synthesizer", dim: int, k: int) -> Resources:
    """Exact counts via the calibrated affine recurrence (O(1) per query)."""
    spec = strategy.estimator_spec(dim)
    if spec is None:
        raise EstimationError(f"strategy {strategy.name!r} has no analytic estimator")
    if k < spec.stable_from:
        return measure(strategy, dim, k)
    k0, base, slope = _calibration(strategy, dim, spec, k % spec.period)
    steps = (k - k0) // spec.period
    values = tuple(b + s * steps for b, s in zip(base, slope))
    wires, ancillas = strategy.layout(dim, k)
    fields = dict(zip(METRIC_FIELDS, values))
    return Resources(
        strategy=strategy.name,
        dim=dim,
        k=k,
        num_wires=wires,
        ancillas=dict(ancillas),
        exact=True,
        **fields,
    )


def affine_answer_held(strategy: "Synthesizer", dim: int, k: int) -> bool:
    """Whether :func:`affine_estimate` at ``(d, k)`` would read memos only:
    the measured point below ``stable_from``, else the calibration of ``k``'s
    residue class.  Counts nothing and leaves both memos' LRU order alone.
    """
    spec = strategy.estimator_spec(dim)
    if spec is None:
        return False
    if k < spec.stable_from:
        return (strategy.name, dim, k) in _MEASURED
    return (strategy.name, dim, k % spec.period) in _CALIBRATION


# ----------------------------------------------------------------------
# Vectorized batch estimation
# ----------------------------------------------------------------------
#: Metric values above this saturate in batch results (int64 ceiling); the
#: matching :attr:`BatchEstimate.offscale` row is flagged.
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class BatchEstimate:
    """Exact resource counts of one strategy over a whole ``k`` array.

    The columnar sibling of :class:`Resources`: every field is a numpy array
    aligned with ``ks``, produced by one calibration plus O(1) array
    arithmetic per point (:func:`affine_estimate_batch`).  Metric values
    that do not fit an ``int64`` (the Θ(2^k) baseline beyond k ≈ 62) are
    stored saturated at :data:`INT64_MAX` with ``offscale`` set — they rank
    correctly against any representable competitor but are not exact counts.
    """

    strategy: str
    dim: int
    ks: np.ndarray
    #: ``{metric: int64 array}`` over :data:`METRIC_FIELDS`.
    metrics: Dict[str, np.ndarray]
    num_wires: np.ndarray
    #: ``{ancilla kind: int64 array}``; kinds with no usage anywhere may be absent.
    ancillas: Dict[str, np.ndarray]
    #: True where a metric saturated at the int64 ceiling.
    offscale: np.ndarray
    #: Per-point exactness (mirrors :attr:`Resources.exact`).
    exact: np.ndarray

    def __len__(self) -> int:
        return int(self.ks.shape[0])

    def row(self, index: int) -> Resources:
        """The scalar :class:`Resources` view of one batch row."""
        if self.offscale[index]:
            raise EstimationError(
                f"batch row k={int(self.ks[index])} of {self.strategy!r} is "
                f"offscale (saturated at int64); use the scalar estimator"
            )
        fields = {name: int(self.metrics[name][index]) for name in METRIC_FIELDS}
        ancillas = {
            kind: int(column[index])
            for kind, column in self.ancillas.items()
            if column[index]
        }
        return Resources(
            strategy=self.strategy,
            dim=self.dim,
            k=int(self.ks[index]),
            num_wires=int(self.num_wires[index]),
            ancillas=ancillas,
            exact=bool(self.exact[index]),
            **fields,
        )


def _empty_batch(strategy: "Synthesizer", dim: int, ks: np.ndarray) -> BatchEstimate:
    n = int(ks.shape[0])
    return BatchEstimate(
        strategy=strategy.name,
        dim=dim,
        ks=ks,
        metrics={name: np.zeros(n, dtype=np.int64) for name in METRIC_FIELDS},
        num_wires=np.zeros(n, dtype=np.int64),
        ancillas={},
        offscale=np.zeros(n, dtype=bool),
        exact=np.ones(n, dtype=bool),
    )


def _check_batch_ks(strategy: "Synthesizer", dim: int, ks) -> np.ndarray:
    ks = np.asarray(ks, dtype=np.int64)
    if ks.ndim != 1:
        raise EstimationError(f"batch estimation needs a 1-D k array, got shape {ks.shape}")
    unsupported = ks[~strategy.supports_batch(dim, ks)]
    if unsupported.size:
        raise EstimationError(
            f"strategy {strategy.name!r} does not support every point of "
            f"the batch at d={dim} (first unsupported k={int(unsupported[0])}); "
            f"filter with supports_batch first"
        )
    return ks


def affine_estimate_batch(strategy: "Synthesizer", dim: int, ks) -> BatchEstimate:
    """Exact counts for a whole ``k`` array via one calibration per residue.

    The vectorized sibling of :func:`affine_estimate`: points below the
    stabilisation threshold are measured once per distinct ``k`` (small
    circuits, memoized), every other point is numpy array arithmetic on the
    calibrated ``(base, slope)`` vectors — O(1) per point, no Python-level
    per-point work.  Residue classes whose extrapolated values could
    overflow ``int64`` fall back to exact Python integers and saturate
    (see :attr:`BatchEstimate.offscale`).
    """
    spec = strategy.estimator_spec(dim)
    if spec is None:
        raise EstimationError(f"strategy {strategy.name!r} has no analytic estimator")
    ks = _check_batch_ks(strategy, dim, ks)
    batch = _empty_batch(strategy, dim, ks)
    if not ks.size:
        return batch
    metrics, offscale = batch.metrics, batch.offscale

    small = ks < spec.stable_from
    for k in np.unique(ks[small]).tolist():
        resources = measure(strategy, dim, int(k))
        rows = ks == k
        for name, value in zip(METRIC_FIELDS, resources.metrics()):
            metrics[name][rows] = value

    residues = ks % spec.period
    for residue in range(spec.period):
        rows = ~small & (residues == residue)
        if not rows.any():
            continue
        k0, base, slope = _calibration(strategy, dim, spec, residue)
        steps = (ks[rows] - k0) // spec.period
        max_steps = int(steps.max())
        for i, name in enumerate(METRIC_FIELDS):
            if base[i] + slope[i] * max_steps <= INT64_MAX:  # Python ints: exact
                metrics[name][rows] = base[i] + slope[i] * steps
            else:
                values = [base[i] + slope[i] * int(s) for s in steps.tolist()]
                metrics[name][rows] = np.fromiter(
                    (min(v, INT64_MAX) for v in values), np.int64, len(values)
                )
                offscale[rows] |= np.fromiter(
                    (v > INT64_MAX for v in values), bool, len(values)
                )

    wires, ancillas = strategy.layout_batch(dim, ks)
    batch.num_wires = np.asarray(wires, dtype=np.int64)
    batch.ancillas = {k: np.asarray(v, dtype=np.int64) for k, v in ancillas.items()}
    return batch


def batch_from_scalar(strategy: "Synthesizer", dim: int, ks) -> BatchEstimate:
    """Batch shim over per-point scalar estimates (payload-dependent models).

    Strategies without an affine cost family (``increment``, ``reversible``,
    ``unitary``, the Θ(2^k) baseline's default path) still expose the batch
    API through this loop; it saturates non-``int64`` values the same way
    the vectorized path does, so downstream consumers see one contract.
    """
    ks = _check_batch_ks(strategy, dim, ks)
    batch = _empty_batch(strategy, dim, ks)
    for index, k in enumerate(ks.tolist()):
        resources = strategy.estimate(dim, int(k))
        batch.exact[index] = resources.exact
        batch.num_wires[index] = resources.num_wires
        for name, value in zip(METRIC_FIELDS, resources.metrics()):
            if value > INT64_MAX:
                batch.offscale[index] = True
                value = INT64_MAX
            batch.metrics[name][index] = value
        for kind, count in resources.ancillas.items():
            column = batch.ancillas.get(kind)
            if column is None:
                column = batch.ancillas[kind] = np.zeros(len(ks), dtype=np.int64)
            column[index] = count
    return batch


def _calibration(
    strategy: "Synthesizer", dim: int, spec: AffineSpec, residue: int
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """Measure three points of one residue class and verify affineness."""
    key = (strategy.name, dim, residue)
    cached = _CALIBRATION.lookup(key)
    if cached is not None:
        return cached
    k0 = spec.stable_from + ((residue - spec.stable_from) % spec.period)
    points = [measure(strategy, dim, k0 + i * spec.period).metrics() for i in range(3)]
    first = tuple(b - a for a, b in zip(points[0], points[1]))
    second = tuple(b - a for a, b in zip(points[1], points[2]))
    if first != second:
        deviating = [
            name
            for name, a, b in zip(METRIC_FIELDS, first, second)
            if a != b
        ]
        raise EstimationError(
            f"strategy {strategy.name!r} is not affine in k at d={dim} from "
            f"k={k0} (period {spec.period}): finite differences disagree for "
            f"{deviating}; raise the strategy's stable_from threshold"
        )
    calibration = (k0, points[0], first)
    _CALIBRATION.store(key, calibration)
    return calibration


def sum_estimates(strategy: "Synthesizer", dim: int, count: int) -> Tuple[int, ...]:
    """``Σ_{j=0}^{count-1}`` of the strategy's metric vectors, in O(1).

    Terms below the stabilisation threshold are measured (tiny circuits);
    each residue class above it is an arithmetic series summed in closed
    form.  Used by composite cost models (e.g. the ripple increment, which
    stacks one multi-controlled block per register digit).
    """
    spec = strategy.estimator_spec(dim)
    if spec is None:
        raise EstimationError(f"strategy {strategy.name!r} has no analytic estimator")
    total = [0] * len(METRIC_FIELDS)
    head = min(count, spec.stable_from)
    for j in range(head):
        if not strategy.supports(dim, j):
            continue
        for i, v in enumerate(measure(strategy, dim, j).metrics()):
            total[i] += v
    if count <= spec.stable_from:
        return tuple(total)
    for residue in range(spec.period):
        k0, base, slope = _calibration(strategy, dim, spec, residue)
        # Terms j ≡ residue (mod period) with stable_from <= j < count.
        start = spec.stable_from + ((residue - spec.stable_from) % spec.period)
        if start >= count:
            continue
        terms = (count - 1 - start) // spec.period + 1
        first_step = (start - k0) // spec.period
        # Σ_{m=0}^{terms-1} (base + (first_step + m)·slope)
        step_sum = terms * first_step + terms * (terms - 1) // 2
        for i in range(len(total)):
            total[i] += terms * base[i] + step_sum * slope[i]
    return tuple(total)


# ----------------------------------------------------------------------
# Convenience front door
# ----------------------------------------------------------------------
def estimate(strategy: Union[str, "Synthesizer"], dim: int, k: int) -> Resources:
    """Estimate resources for a registered strategy (by name or instance).

    >>> from repro.resources.estimator import estimate
    >>> estimate("mct", 3, 10**6).g_gates        # doctest: +SKIP
    """
    if isinstance(strategy, str):
        from repro.synth import registry  # lazy: registry imports this module

        strategy = registry.get(strategy)
    return strategy.estimate(dim, k)
