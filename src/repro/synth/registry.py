"""The strategy registry and the cost-model-driven ``auto`` dispatcher.

Strategies register themselves by name (see :mod:`repro.synth.strategies`);
callers look them up, enumerate the ones applicable to a scenario, or let
:func:`auto_select` pick the cheapest construction for a given
``(d, k, ancilla budget)`` using the analytic estimator — mirroring how
hardware synthesis flows pick a mapped implementation per target from a
library of characterised cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import EstimationError, SynthesisError
from repro.qudit.ancilla import SynthesisResult
from repro.resources.estimator import Resources
from repro.synth.strategy import AncillaBudget, Synthesizer

_REGISTRY: Dict[str, Synthesizer] = {}

#: Metric used to rank strategies: the paper's universal cost unit is the
#: two-qudit gate count, which is defined both for lowered G-circuits and
#: for macro-level circuits with unitary payloads.
DEFAULT_METRIC = "two_qudit_gates"


def register(strategy: Synthesizer, *, replace: bool = False) -> Synthesizer:
    """Add a strategy to the registry (keyed by ``strategy.name``)."""
    if not replace and strategy.name in _REGISTRY:
        raise SynthesisError(f"strategy {strategy.name!r} is already registered")
    _REGISTRY[strategy.name] = strategy
    return strategy


def get(name: str) -> Synthesizer:
    """Look up a registered strategy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SynthesisError(f"unknown strategy {name!r}; registered: {known}") from None


def names() -> List[str]:
    """Registered strategy names, in registration order."""
    return list(_REGISTRY)


def all_strategies() -> List[Synthesizer]:
    return list(_REGISTRY.values())


def available(
    dim: int,
    k: int,
    *,
    family: Optional[str] = None,
    budget: Optional[AncillaBudget] = None,
    dispatchable_only: bool = False,
) -> List[Synthesizer]:
    """Strategies applicable to ``(d, k)`` under the given constraints."""
    out = []
    for strategy in _REGISTRY.values():
        if family is not None and strategy.capabilities.family != family:
            continue
        if dispatchable_only and not strategy.capabilities.dispatchable:
            continue
        if not strategy.supports(dim, k):
            continue
        if budget is not None and not budget.permits(strategy.layout(dim, k)[1]):
            continue
        out.append(strategy)
    return out


@dataclass
class AutoChoice:
    """Outcome of :func:`auto_select`: the winner plus the full ranking."""

    strategy: Synthesizer
    resources: Resources
    #: Every considered strategy: ``(name, resources-or-None, note)``.
    considered: List[Tuple[str, Optional[Resources], str]] = field(default_factory=list)


def auto_select(
    dim: int,
    k: int,
    *,
    family: str = "toffoli",
    budget: Optional[AncillaBudget] = None,
    metric: str = DEFAULT_METRIC,
) -> AutoChoice:
    """Pick the cheapest applicable strategy for ``(d, k, budget)``.

    Costs come from the analytic estimator, so the selection itself never
    materialises a large circuit; ties break towards earlier registration
    (i.e. the paper's own constructions).
    """
    considered: List[Tuple[str, Optional[Resources], str]] = []
    best: Optional[Tuple[Synthesizer, Resources]] = None
    for strategy in _REGISTRY.values():
        if strategy.capabilities.family != family or not strategy.capabilities.dispatchable:
            continue
        if not strategy.supports(dim, k):
            considered.append((strategy.name, None, f"unsupported for d={dim}, k={k}"))
            continue
        if budget is not None and not budget.permits(strategy.layout(dim, k)[1]):
            considered.append((strategy.name, None, "over ancilla budget"))
            continue
        try:
            resources = strategy.estimate(dim, k)
        except (EstimationError, SynthesisError) as error:
            considered.append((strategy.name, None, f"no estimate: {error}"))
            continue
        note = "" if resources.exact else "model estimate"
        considered.append((strategy.name, resources, note))
        cost = getattr(resources, metric)
        if best is None or cost < getattr(best[1], metric):
            best = (strategy, resources)
    if best is None:
        raise SynthesisError(
            f"no registered {family!r} strategy is applicable to d={dim}, k={k} "
            f"within the given ancilla budget"
        )
    return AutoChoice(strategy=best[0], resources=best[1], considered=considered)


def resolve(
    name: str, dim: int, k: int, *, budget: Optional[AncillaBudget] = None
) -> Synthesizer:
    """The strategy that builds ``name`` at ``(d, k)`` within an ancilla budget.

    ``"auto"`` is :func:`auto_select`'s pick under ``budget``.  A named
    strategy is refused with :class:`SynthesisError` (or
    :class:`~repro.exceptions.DimensionError`) when it does not support
    ``(d, k)`` or when ``budget`` does not permit its
    :meth:`~repro.synth.strategy.Synthesizer.layout`; it never runs over
    the budget.
    """
    if name == "auto":
        return auto_select(dim, k, budget=budget).strategy
    strategy = get(name)
    strategy._require(dim, k)
    if budget is not None:
        _, histogram = strategy.layout(dim, k)
        if not budget.permits(histogram):
            raise SynthesisError(
                f"strategy {name!r} uses ancillas {dict(histogram)} at "
                f"d={dim}, k={k}, which exceeds the requested budget"
            )
    return strategy


def synthesize(
    name: str,
    dim: int,
    k: int,
    *,
    budget: Optional[AncillaBudget] = None,
    cache=None,
    **kwargs,
) -> SynthesisResult:
    """Synthesise the strategy :func:`resolve` picks for ``name`` under ``budget``.

    ``cache=`` (a :class:`repro.exec.cache.CompileCache`) opts into the
    persistent compile cache for the macro-level synthesis output: the
    circuit is stored as its columnar table under a content address over
    ``(strategy, d, k)`` plus the cache's code-version salt, and the wire
    roles (controls / target / ancillas) ride along in the metadata sidecar
    so the :class:`SynthesisResult` round-trips whole.  Requests carrying
    extra ``**kwargs`` (e.g. explicit unitary payloads) never touch the
    cache — their output is not determined by ``(strategy, d, k)`` alone.
    """
    strategy = resolve(name, dim, k, budget=budget)
    name = strategy.name
    if cache is None or kwargs:
        return strategy.synthesize(dim, k, **kwargs)

    from repro.exec.keys import cache_key
    from repro.qudit.ancilla import AncillaKind
    from repro.qudit.circuit import QuditCircuit

    key = cache_key(name, dim, k, stage="synth", salt=cache.salt)
    entry = cache.get(key)
    if entry is not None:
        meta = entry.meta
        target = meta.get("target")
        return SynthesisResult(
            circuit=QuditCircuit.from_table(entry.table),
            controls=tuple(meta.get("controls", ())),
            target=None if target is None else int(target),
            ancillas={
                int(w): AncillaKind(kind) for w, kind in meta.get("ancillas", {}).items()
            },
            notes=str(meta.get("notes", "")),
        )
    result = strategy.synthesize(dim, k)
    cache.put(
        key,
        result.circuit.to_table(),
        meta={
            "strategy": name,
            "d": dim,
            "k": k,
            "stage": "synth",
            "controls": list(result.controls),
            "target": result.target,
            "ancillas": {str(w): kind.value for w, kind in result.ancillas.items()},
            "notes": result.notes,
        },
    )
    return result


def estimate(name: str, dim: int, k: int) -> Resources:
    """Estimate through the registry; ``name="auto"`` dispatches by cost."""
    if name == "auto":
        return auto_select(dim, k).resources
    return get(name).estimate(dim, k)
