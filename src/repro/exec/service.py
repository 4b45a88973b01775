"""Compile service: cache-aware synthesize-and-lower in one call.

:func:`compile_lowered` is what the batch runner, the benchmarks and the
CLI use: given ``(strategy, d, k)`` it produces the simulation-ready
circuit (G-lowered for permutation circuits, the macro circuit otherwise),
consulting a :class:`~repro.exec.cache.CompileCache` first and populating
it on a miss.  The cache key covers the strategy, the scenario, the
pass-pipeline spec and the code-version salt — see :mod:`repro.exec.keys`.

It is the one cache-aware path to a lowered table.  The macro-level
synthesis output has its own opt-in,
``repro.synth.registry.synthesize(..., cache=...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

from repro.core.lowering import lower_to_g_gates
from repro.exec.cache import CacheEntry, CompileCache
from repro.exec.keys import CODE_VERSION, cache_key
from repro.qudit.circuit import QuditCircuit
from repro.synth import registry


@dataclass
class CompileOutcome:
    """One compile-service answer: the circuit plus provenance."""

    key: str
    circuit: QuditCircuit
    strategy: str
    dim: int
    k: int
    #: "memo" / "disk" on a cache hit, "built" on a miss.
    source: str
    seconds: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def cache_hit(self) -> bool:
        return self.source != "built"


def lowered_key(
    strategy: str,
    dim: int,
    k: int,
    *,
    pipeline=None,
    salt: Optional[str] = None,
) -> str:
    """The content address of the lowered form of ``strategy(d, k)``.

    Keys of registered strategies under the default pipeline come from a
    memo (:func:`_registered_key`); a warm served row asks for its key twice.
    """
    if pipeline is None and strategy in registry.names():
        return _registered_key(strategy, dim, k, salt)
    return cache_key(strategy, dim, k, stage="lowered", pipeline=pipeline, salt=salt)


@lru_cache(maxsize=256)
def _registered_key(strategy: str, dim: int, k: int, salt: Optional[str]) -> str:
    """:func:`lowered_key` of a registered strategy under the default
    pipeline (canonical JSON plus SHA-256, about 7 µs), memoized.

    Only registered names reach it: any other name is a request's string,
    up to a whole 1 MiB body.  An entry holds the name (the built-in ones
    have at most 16 characters), ``d``, ``k``, a reference to the salt and
    the 64-character key: about 0.3 KiB with the memo's own links, so its
    256 entries take under 100 KiB.  ``d`` and ``k`` are JSON integers; at
    the 4,300-digit limit of Python's integer parsing each adds 1.8 KiB, so
    the memo holds 1 MiB at most.
    """
    return cache_key(strategy, dim, k, stage="lowered", salt=salt)


def compile_lowered(
    strategy: str,
    dim: int,
    k: int,
    *,
    cache: Optional[CompileCache] = None,
) -> CompileOutcome:
    """Synthesise ``strategy(d, k)`` and lower it, through the cache.

    On a hit neither synthesis nor lowering runs — the circuit is rebuilt
    straight from the cached columnar table.  Non-permutation circuits
    (unitary payloads) are cached at the macro level, since G-lowering does
    not apply to them.
    """
    if strategy == "auto":
        strategy = registry.auto_select(dim, k).strategy.name
    salt = cache.salt if cache is not None else CODE_VERSION
    key = lowered_key(strategy, dim, k, salt=salt)
    start = time.perf_counter()
    entry: Optional[CacheEntry] = cache.get(key) if cache is not None else None
    if entry is not None:
        circuit = QuditCircuit.from_table(entry.table)
        return CompileOutcome(
            key=key,
            circuit=circuit,
            strategy=strategy,
            dim=dim,
            k=k,
            source=entry.source,
            seconds=time.perf_counter() - start,
            meta=dict(entry.meta),
        )
    result = registry.get(strategy).synthesize(dim, k)
    circuit = result.circuit
    if circuit.is_permutation:
        circuit = lower_to_g_gates(circuit)
    meta: Dict[str, object] = {
        "strategy": strategy,
        "d": dim,
        "k": k,
        "stage": "lowered" if circuit.is_g_circuit() else "macro",
        "num_wires": circuit.num_wires,
        "num_ops": circuit.num_ops(),
        "controls": list(result.controls),
        "target": result.target,
        "ancillas": {str(w): kind.value for w, kind in result.ancillas.items()},
    }
    if cache is not None:
        cache.put(key, circuit.to_table(), meta=meta)
    return CompileOutcome(
        key=key,
        circuit=circuit,
        strategy=strategy,
        dim=dim,
        k=k,
        source="built",
        seconds=time.perf_counter() - start,
        meta=meta,
    )
