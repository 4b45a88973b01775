"""Seeded random generators for the differential fuzzing subsystem.

Three kinds of artifacts are generated, each fully determined by a seed:

* **circuits** (:func:`random_circuit`) — a weighted op mix over
  transpositions, general ``XPerm`` permutations, cyclic ``XPlus`` shifts,
  dense single-qudit unitaries and ``|⋆⟩``-star macros, with a configurable
  control-predicate mix (``Value`` / ``Odd`` / ``EvenNonZero`` / ``InSet``),
  wire count, dimension and depth.  ``lowerable=True`` restricts the stream
  to what the G-gate lowering engines accept (permutation payloads, at most
  two controls, one ordinary control per star gate) and enforces the
  ancilla discipline the even-``d`` gadget needs (one idle borrowable wire).
* **synthesis instances** (:func:`random_synthesis_instance`) — a
  ``(strategy, d, k)`` triple drawn from the registry, honouring each
  entry's :class:`~repro.synth.strategy.Capabilities` (parities, ``min_dim``,
  ``min_k``) with per-family size caps so instances stay materialisable.
* **pass pipelines** (:func:`random_pipeline`) — random orderings of the
  peephole passes, used to exercise ``Pass.run`` against ``run_table``.

Basis-state sampling delegates to
:func:`repro.verify.sample_basis_states`, the same seeded code path the
sampled verification tiers and the test-suite ``conftest`` helpers use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import ControlPredicate, EvenNonZero, InSet, Odd, Value
from repro.qudit.gates import Gate, XPerm, XPlus
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.passes import (
    CancelAdjacentInverses,
    DropIdentities,
    FuseSingleQuditGates,
    PassPipeline,
)
from repro.verify import sample_basis_states

RngLike = Union[int, random.Random]

#: Default weights of the op mix (relative, not normalised).
DEFAULT_OP_WEIGHTS: Dict[str, float] = {
    "transposition": 4.0,  # the paper's Xij gates
    "perm": 2.0,           # general basis permutations
    "xplus": 2.0,          # cyclic shifts X+y
    "unitary": 1.0,        # dense single-qudit payloads
    "star": 1.0,           # the |⋆⟩-X±⋆ macro
}

#: Default weights of the control-predicate mix.
DEFAULT_PREDICATE_WEIGHTS: Dict[str, float] = {
    "value": 4.0,
    "odd": 1.0,
    "even": 1.0,
    "inset": 1.0,
}

#: Permutation-heavy op mix for the low-occupancy instance profile: the mix
#: of circuits the sparse engine's fast path sees in practice (lowered
#: permutation circuits with the rare dense payload).  Unitary rows stay
#: nonzero so expansion + merge-by-key is still exercised, but rarely
#: enough that a few-basis-state input stays far below the densify
#: threshold most of the time.
LOW_OCCUPANCY_OP_WEIGHTS: Dict[str, float] = {
    "transposition": 4.0,
    "perm": 3.0,
    "xplus": 3.0,
    "unitary": 0.5,
    "star": 1.5,
}


def _as_rng(seed: RngLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _weighted_choice(rng: random.Random, weights: Dict[str, float]) -> str:
    names = [name for name, weight in weights.items() if weight > 0]
    return rng.choices(names, weights=[weights[name] for name in names], k=1)[0]


def random_predicate(
    rng: random.Random,
    dim: int,
    weights: Optional[Dict[str, float]] = None,
) -> ControlPredicate:
    """One control predicate drawn from the configured mix."""
    kind = _weighted_choice(rng, weights or DEFAULT_PREDICATE_WEIGHTS)
    if kind == "value":
        return Value(rng.randrange(dim))
    if kind == "odd":
        return Odd()
    if kind == "even":
        return EvenNonZero()
    size = rng.randrange(1, dim) if dim > 1 else 1
    return InSet(frozenset(rng.sample(range(dim), size)))


def random_gate(
    rng: random.Random,
    dim: int,
    weights: Optional[Dict[str, float]] = None,
) -> Gate:
    """One single-qudit gate payload drawn from the configured mix."""
    kind = _weighted_choice(rng, weights or DEFAULT_OP_WEIGHTS)
    if kind == "transposition":
        i, j = rng.sample(range(dim), 2)
        return XPerm.transposition(dim, i, j)
    if kind == "xplus":
        return XPlus(dim, rng.randrange(dim))
    if kind == "unitary":
        from repro.core.multi_controlled_unitary import random_unitary_gate

        return random_unitary_gate(dim, seed=rng.randrange(1_000_000))
    perm = list(range(dim))
    rng.shuffle(perm)
    return XPerm(tuple(perm))


def random_circuit(
    seed: RngLike,
    *,
    num_wires: int = 4,
    dim: int = 3,
    num_ops: int = 25,
    op_weights: Optional[Dict[str, float]] = None,
    predicate_weights: Optional[Dict[str, float]] = None,
    max_controls: int = 2,
    lowerable: bool = False,
    idle_wires: int = 0,
    name: Optional[str] = None,
) -> QuditCircuit:
    """A seeded random circuit over the configured op and predicate mix.

    ``lowerable=True`` keeps every op within what ``lower_to_g_gates``
    expands: permutation payloads only, at most two controls per op, at most
    one ordinary control per star gate — and, for even ``d``, leaves at
    least one wire idle so the Lemma III.1 gadget can borrow it.
    ``idle_wires`` reserves that many top wires untouched regardless (the
    borrowed-ancilla discipline).
    """
    rng = _as_rng(seed)
    weights = dict(op_weights or DEFAULT_OP_WEIGHTS)
    if lowerable:
        weights["unitary"] = 0.0
        max_controls = min(max_controls, 2)
        if dim % 2 == 0:
            idle_wires = max(idle_wires, 1)
    idle_wires = min(idle_wires, num_wires - 1)
    active = num_wires - idle_wires
    circuit = QuditCircuit(
        num_wires, dim, name=name or f"fuzz-{seed if isinstance(seed, int) else 'rng'}"
    )
    for _ in range(num_ops):
        kind = _weighted_choice(rng, weights)
        span = rng.randrange(1, min(max_controls + 1, active) + 1)
        if kind == "star":
            span = max(span, 2)  # a star op needs a star wire besides the target
        wires = rng.sample(range(active), min(span, active))
        target, rest = wires[0], wires[1:]
        if kind == "star" and rest:
            star, controls = rest[0], rest[1:]
            if lowerable:
                controls = controls[:1]
            circuit.append(
                StarShiftOp(
                    star,
                    target,
                    rng.choice([1, -1]),
                    [(w, random_predicate(rng, dim, predicate_weights)) for w in controls],
                )
            )
        else:
            gate_weights = {k: w for k, w in weights.items() if k != "star"}
            circuit.append(
                Operation(
                    random_gate(rng, dim, gate_weights),
                    target,
                    [(w, random_predicate(rng, dim, predicate_weights)) for w in rest],
                )
            )
    return circuit


def enrich_for_passes(rng: random.Random, circuit: QuditCircuit) -> QuditCircuit:
    """Seed guaranteed peephole opportunities into a random circuit.

    Inserts identity gates, appends the inverse of a random suffix (a
    cascade of exactly cancelling pairs) and duplicates some uncontrolled
    single-qudit ops (fusable runs) — the structures the optimization
    passes exist to remove, which pure uniform sampling rarely produces.
    """
    ops: List[BaseOp] = circuit.ops
    for _ in range(max(1, len(ops) // 4)):
        ops.insert(
            rng.randrange(len(ops) + 1),
            Operation(XPerm.identity(circuit.dim), rng.randrange(circuit.num_wires)),
        )
    for op in list(ops):
        if isinstance(op, Operation) and not op.controls and rng.random() < 0.3:
            ops.append(op)
    suffix = ops[rng.randrange(len(ops)) :]
    ops.extend(op.inverse() for op in reversed(suffix))
    return QuditCircuit(circuit.num_wires, circuit.dim, name=f"{circuit.name}+enriched").extend(
        ops
    )


def random_basis_state(rng: random.Random, dim: int, num_wires: int) -> Tuple[int, ...]:
    """One basis state through the shared seeded sampler."""
    return sample_basis_states(dim, num_wires, 1, rng.randrange(2**32))[0]


def random_circuit_scenario(rng: random.Random) -> Dict[str, object]:
    """Random circuit-shape knobs bounded for oracle feasibility.

    The cap on ``dim ** num_wires`` keeps every redundant path (every
    engine's statevectors, whole-basis gather tables) cheap per case.
    """
    dim = rng.choice([3, 3, 4, 5])
    max_wires = 1
    while dim ** (max_wires + 1) <= 4096 and max_wires < 6:
        max_wires += 1
    num_wires = rng.randrange(1, max_wires + 1)
    return {
        "num_wires": num_wires,
        "dim": dim,
        "num_ops": rng.randrange(1, 30),
        "max_controls": min(3, num_wires),
    }


def random_low_occupancy_case(
    rng: random.Random,
) -> Tuple["QuditCircuit", List[Tuple[int, ...]]]:
    """A permutation-heavy circuit plus a handful of basis-state inputs.

    The low-occupancy instance profile for the ``backends`` oracle: the
    returned inputs span at most four basis states, so a superposition built
    from them keeps the sparse engine on its O(nnz) fast path (index
    gathers and bounded unitary expansion) instead of its densify fallback,
    which dense random states would always trigger.
    """
    scenario = random_circuit_scenario(rng)
    circuit = random_circuit(
        rng,
        op_weights=LOW_OCCUPANCY_OP_WEIGHTS,
        name=f"fuzz-sparse-{rng.randrange(2**32)}",
        **scenario,
    )
    count = rng.randrange(1, 5)
    states = sample_basis_states(
        circuit.dim, circuit.num_wires, count, rng.randrange(2**32)
    )
    return circuit, states


# ----------------------------------------------------------------------
# Synthesis instances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynthesisInstance:
    """One registry scenario: ``(strategy name, d, k)``."""

    strategy: str
    dim: int
    k: int

    def describe(self) -> str:
        return f"{self.strategy}(d={self.dim}, k={self.k})"


#: Per-family caps keeping materialisation cheap: (max_dim, max_k).  ``k``
#: reaches past the estimator's affine stabilisation threshold for the
#: linear families, so estimate-vs-materialise is a genuine extrapolation
#: check, while the exponential-payload families stay tiny.
FAMILY_LIMITS: Dict[str, Tuple[int, int]] = {
    "toffoli": (6, 16),
    "pk": (6, 14),
    "mcu": (6, 10),
    "arithmetic": (5, 6),
    "reversible": (4, 2),
    "unitary": (3, 1),
}

#: Per-strategy overrides for constructions whose cost is exponential in
#: ``k`` — the family cap would make a single case take seconds.
STRATEGY_LIMITS: Dict[str, Tuple[int, int]] = {
    "mcu-exponential": (5, 9),
}


def _instance_limits(strategy) -> Tuple[int, int]:
    caps = strategy.capabilities
    return STRATEGY_LIMITS.get(strategy.name, FAMILY_LIMITS.get(caps.family, (4, 4)))


def supported_instances() -> List[SynthesisInstance]:
    """Every in-cap ``(strategy, d, k)`` the registry claims to support."""
    from repro.synth import registry

    instances: List[SynthesisInstance] = []
    for strategy in registry.all_strategies():
        caps = strategy.capabilities
        max_dim, max_k = _instance_limits(strategy)
        for dim in range(caps.min_dim, max_dim + 1):
            if not caps.supports_dim(dim):
                continue
            for k in range(max(caps.min_k, 1), max_k + 1):
                if strategy.supports(dim, k):
                    instances.append(SynthesisInstance(strategy.name, dim, k))
    return instances


def random_synthesis_instance(rng: random.Random) -> SynthesisInstance:
    """One registry scenario drawn uniformly over strategies, then (d, k)."""
    from repro.synth import registry

    strategies = registry.all_strategies()
    for _ in range(64):
        strategy = rng.choice(strategies)
        caps = strategy.capabilities
        max_dim, max_k = _instance_limits(strategy)
        dims = [d for d in range(caps.min_dim, max_dim + 1) if caps.supports_dim(d)]
        if not dims:
            continue
        dim = rng.choice(dims)
        low = max(caps.min_k, 1)
        if low > max_k:
            continue
        k = rng.randrange(low, max_k + 1)
        if strategy.supports(dim, k):
            return SynthesisInstance(strategy.name, dim, k)
    # The registry always contains mct with broad support; this is a backstop.
    return SynthesisInstance("mct", 3, 2)


# ----------------------------------------------------------------------
# Pass pipelines
# ----------------------------------------------------------------------
PEEPHOLE_PASSES = (DropIdentities, CancelAdjacentInverses, FuseSingleQuditGates)


def random_pipeline(rng: random.Random, *, min_passes: int = 1, max_passes: int = 4) -> PassPipeline:
    """A random ordering (with repetition) of the peephole passes."""
    count = rng.randrange(min_passes, max_passes + 1)
    passes = [rng.choice(PEEPHOLE_PASSES)() for _ in range(count)]
    return PassPipeline(passes, name="fuzz-peephole")


__all__ = [
    "DEFAULT_OP_WEIGHTS",
    "DEFAULT_PREDICATE_WEIGHTS",
    "FAMILY_LIMITS",
    "LOW_OCCUPANCY_OP_WEIGHTS",
    "PEEPHOLE_PASSES",
    "SynthesisInstance",
    "enrich_for_passes",
    "random_basis_state",
    "random_circuit",
    "random_low_occupancy_case",
    "random_circuit_scenario",
    "random_gate",
    "random_pipeline",
    "random_predicate",
    "random_synthesis_instance",
    "sample_basis_states",
    "supported_instances",
]
