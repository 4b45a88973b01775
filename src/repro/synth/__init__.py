"""Unified synthesis registry: strategies, capabilities, auto dispatch.

Every construction in the repository — the paper's theorems, the prior-work
baselines, and the application-level builders — is registered here as a
:class:`~repro.synth.strategy.Synthesizer` with capability metadata and an
analytic resource estimator, so callers can look constructions up by name,
rank them by cost without building circuits, and let ``auto`` pick the
cheapest applicable one:

>>> from repro import synth
>>> synth.names()                                    # doctest: +SKIP
>>> synth.estimate("mct", 3, 10**6).g_gates          # doctest: +SKIP
>>> choice = synth.auto_select(3, 20, budget=synth.AncillaBudget(clean=0))
... # doctest: +SKIP

``python -m repro list`` renders the registry as a capability table.
"""

from repro.synth.strategy import (
    AncillaBudget,
    BOTH_PARITIES,
    Capabilities,
    Synthesizer,
)
from repro.synth.registry import (
    AutoChoice,
    all_strategies,
    auto_select,
    available,
    estimate,
    get,
    names,
    register,
    resolve,
    synthesize,
)

# Importing the concrete strategies populates the registry.
import repro.synth.strategies  # noqa: E402,F401  (side effect: registration)

__all__ = [
    "AncillaBudget",
    "AutoChoice",
    "BOTH_PARITIES",
    "Capabilities",
    "Synthesizer",
    "all_strategies",
    "auto_select",
    "available",
    "estimate",
    "get",
    "names",
    "register",
    "resolve",
    "synthesize",
]
