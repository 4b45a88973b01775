"""Parallel design-space sweeps over strategy × pipeline × (d, k).

A :class:`SweepSpec` names the grid; :func:`plan_sweep` chunks it into
independent work units; :func:`run_sweep` evaluates the chunks — on the
``repro.exec`` fork-pool pattern when ``jobs > 1``, each worker holding its
own :class:`~repro.exec.cache.CompileCache` on a shared directory — and
streams the results into a columnar :class:`PointStore` (struct-of-arrays,
the ``GateTable`` house style).

Two chunk modes:

* ``analytic`` — the default pipeline's costs come straight from the
  vectorized batch estimator
  (:meth:`~repro.synth.strategy.Synthesizer.estimate_batch`): one
  calibration per residue class, then O(1) numpy per point.  A chunk whose
  batch raises (e.g. the clean-ladder baseline at even d, k = 2, which has
  no lowered form) degrades to a per-point loop that records the failing
  points as ``status = STATUS_ERROR`` rows — the same points live
  ``auto_select`` skips with a "no estimate" note.
* ``materialized`` — non-default :data:`PIPELINE_VARIANTS` have no affine
  calibration, so their points synthesise the macro circuit (through the
  compile cache) and run the variant pipeline on its table.  These are
  bounded by ``SweepSpec.max_materialized_k``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    DimensionError,
    DSEError,
    EstimationError,
    SynthesisError,
)
from repro.resources.estimator import INT64_MAX, METRIC_FIELDS

#: Ancilla kinds stored as dedicated columns (``AncillaKind`` values).
ANCILLA_KINDS: Tuple[str, ...] = ("clean", "borrowed", "burnable", "garbage")

#: Most ``k`` values one sweep may cover (each is a row per strategy,
#: pipeline and dimension in the point store).
MAX_SWEEP_KS = 1_000_000

#: Row status: an exact (or model) estimate.
STATUS_OK = 0
#: Row status: metrics saturated at int64 (the Θ(2^k) baseline at k > 62).
STATUS_OFFSCALE = 1
#: Row status: the estimator raised — live ``auto_select`` skips the point.
STATUS_ERROR = 2


def _pipeline_expand_only():
    from repro.passes import ExpandMacros, PassPipeline

    return PassPipeline([ExpandMacros()], name="expand-only")


def _pipeline_no_fuse():
    from repro.passes import (
        CancelAdjacentInverses,
        DropIdentities,
        ExpandMacros,
        PassPipeline,
    )

    return PassPipeline(
        [DropIdentities(), ExpandMacros(), CancelAdjacentInverses(), DropIdentities()],
        name="no-fuse",
    )


#: Named pass-pipeline variants a sweep can cover.  ``"default"`` is the
#: production lowering pipeline, answered analytically by the estimator;
#: the other entries are factories materialised per point.
PIPELINE_VARIANTS = {
    "default": None,
    "expand-only": _pipeline_expand_only,
    "no-fuse": _pipeline_no_fuse,
}


@dataclass(frozen=True)
class SweepSpec:
    """One design-space sweep: which grid to cover and how.

    ``strategies=()`` means "every dispatchable strategy of ``family``".
    ``k_stop`` is inclusive, matching how scenario ranges are quoted in the
    paper.
    """

    strategies: Tuple[str, ...] = ()
    family: str = "toffoli"
    dims: Tuple[int, ...] = (3, 4)
    k_start: int = 0
    k_stop: int = 64
    k_step: int = 1
    pipelines: Tuple[str, ...] = ("default",)
    #: Non-default pipelines synthesise real circuits; cap their k range.
    max_materialized_k: int = 12
    #: Grid points per work unit handed to a pool worker.
    chunk_points: int = 4096

    def __post_init__(self):
        if self.k_start < 0 or self.k_stop < self.k_start or self.k_step < 1:
            raise DSEError(
                f"bad k range: start={self.k_start}, stop={self.k_stop}, "
                f"step={self.k_step}"
            )
        if self.k_stop > INT64_MAX:
            raise DSEError(f"k_stop={self.k_stop} is past int64 ({INT64_MAX})")
        points = (self.k_stop - self.k_start) // self.k_step + 1
        if points > MAX_SWEEP_KS:
            raise DSEError(
                f"k range covers {points} values; a sweep covers at most {MAX_SWEEP_KS}"
            )
        if not self.dims:
            raise DSEError("a sweep needs at least one dimension")
        if any(d < 3 for d in self.dims):
            raise DSEError(f"dimensions must be >= 3, got {list(self.dims)}")
        for name in self.pipelines:
            if name not in PIPELINE_VARIANTS:
                raise DSEError(
                    f"unknown pipeline variant {name!r}; "
                    f"known: {sorted(PIPELINE_VARIANTS)}"
                )
        if self.chunk_points < 1:
            raise DSEError("chunk_points must be >= 1")
        if not self.strategies and not self.resolve_strategies():
            raise DSEError(f"family {self.family!r} has no dispatchable strategy")

    def ks(self) -> np.ndarray:
        return np.arange(self.k_start, self.k_stop + 1, self.k_step, dtype=np.int64)

    def resolve_strategies(self) -> List[str]:
        """The strategy names this sweep covers, in registration order."""
        from repro.synth import registry

        if self.strategies:
            return [registry.get(name).name for name in self.strategies]
        return [
            s.name
            for s in registry.all_strategies()
            if s.capabilities.family == self.family and s.capabilities.dispatchable
        ]

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "SweepSpec":
        """Parse a JSON sweep spec: integer fields take only JSON integers,
        name fields only JSON strings and list fields only JSON lists."""
        from repro.exec.workload import json_int, json_str

        if not isinstance(raw, dict):
            raise DSEError(f"a sweep spec must be an object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DSEError(f"unknown sweep spec field(s) {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        try:
            for name, value in raw.items():
                if name in ("strategies", "pipelines", "dims"):
                    if not isinstance(value, list):
                        raise TypeError(f"expected a list, got {type(value).__name__}")
                    parse = json_int if name == "dims" else json_str
                    kwargs[name] = tuple(parse(x) for x in value)
                elif name == "family":
                    kwargs[name] = json_str(value)
                else:
                    kwargs[name] = json_int(value)
        except TypeError as error:  # a field of the wrong type
            raise DSEError(f"malformed sweep spec: {name}: {error}") from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: os.PathLike) -> "SweepSpec":
        """Parse a sweep spec file; an unreadable or malformed file raises
        :class:`DSEError`."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise DSEError(f"cannot read sweep spec: {error}") from error
        except (ValueError, RecursionError) as error:  # RecursionError: deep nesting
            raise DSEError(f"sweep spec is not valid JSON: {error}") from error
        return cls.from_dict(raw)

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategies": list(self.strategies),
            "family": self.family,
            "dims": list(self.dims),
            "k_start": self.k_start,
            "k_stop": self.k_stop,
            "k_step": self.k_step,
            "pipelines": list(self.pipelines),
            "max_materialized_k": self.max_materialized_k,
            "chunk_points": self.chunk_points,
        }


@dataclass(frozen=True)
class _Chunk:
    """One independent work unit of a sweep."""

    mode: str  # "analytic" | "materialized"
    strategy: str
    pipeline: str
    dim: int
    k_start: int
    k_stop: int  # inclusive
    k_step: int

    def ks(self) -> np.ndarray:
        return np.arange(self.k_start, self.k_stop + 1, self.k_step, dtype=np.int64)


def plan_sweep(spec: SweepSpec) -> List[_Chunk]:
    """Chunk the sweep grid into independent per-(strategy, pipeline, d) runs."""
    chunks: List[_Chunk] = []
    strategies = spec.resolve_strategies()
    for pipeline in spec.pipelines:
        materialized = PIPELINE_VARIANTS[pipeline] is not None
        for strategy in strategies:
            for dim in spec.dims:
                ks = spec.ks()
                if materialized:
                    ks = ks[ks <= spec.max_materialized_k]
                if not ks.size:
                    continue
                step = spec.k_step
                for start in range(0, ks.size, spec.chunk_points):
                    part = ks[start : start + spec.chunk_points]
                    chunks.append(
                        _Chunk(
                            mode="materialized" if materialized else "analytic",
                            strategy=strategy,
                            pipeline=pipeline,
                            dim=dim,
                            k_start=int(part[0]),
                            k_stop=int(part[-1]),
                            k_step=step,
                        )
                    )
    return chunks


# ----------------------------------------------------------------------
# Columnar point store
# ----------------------------------------------------------------------
#: Integer columns of the store beyond the metric fields.
_EXTRA_COLUMNS = ("num_wires",) + tuple(f"anc_{kind}" for kind in ANCILLA_KINDS)


@dataclass
class PointStore:
    """Struct-of-arrays accumulator for swept design points.

    One row per (strategy, pipeline, d, k); strategy and pipeline names are
    interned into id columns (``strategies[strategy_id[i]]``), metric and
    layout columns are dense int64 arrays, ``status`` encodes whether the
    row is exact, saturated (:data:`STATUS_OFFSCALE`) or a recorded
    estimator failure (:data:`STATUS_ERROR`).
    """

    strategies: List[str] = field(default_factory=list)
    pipelines: List[str] = field(default_factory=list)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns:
            self.columns = {name: np.zeros(0, dtype=np.int64) for name in self.column_names()}
            self.columns["exact"] = np.zeros(0, dtype=bool)
            self.columns["status"] = np.zeros(0, dtype=np.int8)

    @staticmethod
    def column_names() -> Tuple[str, ...]:
        return ("strategy_id", "pipeline_id", "dim", "k") + METRIC_FIELDS + _EXTRA_COLUMNS

    def __len__(self) -> int:
        return int(self.columns["k"].shape[0])

    def _intern(self, names: List[str], value: str) -> int:
        try:
            return names.index(value)
        except ValueError:
            names.append(value)
            return len(names) - 1

    def extend(self, chunk_result: Dict[str, object]) -> None:
        """Append one evaluated chunk (as produced by ``_eval_chunk``)."""
        n = int(np.asarray(chunk_result["k"]).shape[0])
        if n == 0:
            return
        sid = self._intern(self.strategies, str(chunk_result["strategy"]))
        pid = self._intern(self.pipelines, str(chunk_result["pipeline"]))
        new: Dict[str, np.ndarray] = {
            "strategy_id": np.full(n, sid, dtype=np.int64),
            "pipeline_id": np.full(n, pid, dtype=np.int64),
            "dim": np.full(n, int(chunk_result["dim"]), dtype=np.int64),
            "k": np.asarray(chunk_result["k"], dtype=np.int64),
            "exact": np.asarray(chunk_result["exact"], dtype=bool),
            "status": np.asarray(chunk_result["status"], dtype=np.int8),
        }
        for name in METRIC_FIELDS + _EXTRA_COLUMNS:
            new[name] = np.asarray(chunk_result[name], dtype=np.int64)
        for name, column in new.items():
            self.columns[name] = np.concatenate([self.columns[name], column])

    def counts(self) -> Dict[str, int]:
        status = self.columns["status"]
        return {
            "points": len(self),
            "ok": int(np.sum(status == STATUS_OK)),
            "offscale": int(np.sum(status == STATUS_OFFSCALE)),
            "error": int(np.sum(status == STATUS_ERROR)),
        }


# ----------------------------------------------------------------------
# Chunk evaluation
# ----------------------------------------------------------------------
_POINT_ERRORS = (EstimationError, SynthesisError, DimensionError)


def _blank_result(chunk: _Chunk, n: int) -> Dict[str, object]:
    out: Dict[str, object] = {
        "strategy": chunk.strategy,
        "pipeline": chunk.pipeline,
        "dim": chunk.dim,
        "k": np.zeros(n, dtype=np.int64),
        "exact": np.ones(n, dtype=bool),
        "status": np.zeros(n, dtype=np.int8),
    }
    for name in METRIC_FIELDS + _EXTRA_COLUMNS:
        out[name] = np.zeros(n, dtype=np.int64)
    return out


def _fill_layout_row(out: Dict[str, object], index: int, strategy, dim: int, k: int) -> None:
    wires, histogram = strategy.layout(dim, k)
    out["num_wires"][index] = wires
    for kind in ANCILLA_KINDS:
        out[f"anc_{kind}"][index] = histogram.get(kind, 0)


def _eval_analytic(chunk: _Chunk) -> Dict[str, object]:
    from repro.synth import registry

    strategy = registry.get(chunk.strategy)
    ks = chunk.ks()
    ks = ks[strategy.supports_batch(chunk.dim, ks)]
    out = _blank_result(chunk, ks.size)
    out["k"] = ks
    if not ks.size:
        return out
    try:
        batch = strategy.estimate_batch(chunk.dim, ks)
    except _POINT_ERRORS:
        # One failing calibration point poisons the whole batch; degrade to
        # scalar estimates and record per-point failures as STATUS_ERROR.
        for index, k in enumerate(ks.tolist()):
            _fill_layout_row(out, index, strategy, chunk.dim, int(k))
            try:
                resources = strategy.estimate(chunk.dim, int(k))
            except _POINT_ERRORS:
                out["status"][index] = STATUS_ERROR
                continue
            out["exact"][index] = resources.exact
            for name, value in zip(METRIC_FIELDS, resources.metrics()):
                if value > INT64_MAX:
                    out["status"][index] = STATUS_OFFSCALE
                    value = INT64_MAX
                out[name][index] = value
        return out
    for name in METRIC_FIELDS:
        out[name] = batch.metrics[name]
    out["exact"] = batch.exact
    out["num_wires"] = batch.num_wires
    for kind in ANCILLA_KINDS:
        column = batch.ancillas.get(kind)
        if column is not None:
            out[f"anc_{kind}"] = np.asarray(column, dtype=np.int64)
    out["status"] = np.where(batch.offscale, STATUS_OFFSCALE, STATUS_OK).astype(np.int8)
    return out


def _eval_materialized(chunk: _Chunk, cache) -> Dict[str, object]:
    from repro.synth import registry

    strategy = registry.get(chunk.strategy)
    pipeline = PIPELINE_VARIANTS[chunk.pipeline]()
    ks = chunk.ks()
    ks = ks[strategy.supports_batch(chunk.dim, ks)]
    out = _blank_result(chunk, ks.size)
    out["k"] = ks
    for index, k in enumerate(ks.tolist()):
        _fill_layout_row(out, index, strategy, chunk.dim, int(k))
        try:
            result = registry.synthesize(chunk.strategy, chunk.dim, int(k), cache=cache)
            macro = result.circuit
            table = pipeline.run_table(macro.to_table())
        except _POINT_ERRORS:
            out["status"][index] = STATUS_ERROR
            continue
        # Mirror count_gates(..., lower=True) field by field on the
        # variant-lowered table.
        out["macro_ops"][index] = macro.num_ops()
        out["two_qudit_gates"][index] = table.two_qudit_count()
        out["g_gates"][index] = table.g_gate_count()
        out["depth"][index] = table.depth()
        out["single_qudit_gates"][index] = table.single_qudit_count()
        out["controlled_x01"][index] = table.controlled_g_gate_count()
    return out


def _eval_chunk(chunk: _Chunk, cache=None) -> Dict[str, object]:
    if chunk.mode == "analytic":
        return _eval_analytic(chunk)
    return _eval_materialized(chunk, cache)


# ----------------------------------------------------------------------
# The parallel driver (fork-pool pattern of repro.exec.workload)
# ----------------------------------------------------------------------
_SWEEP_CACHE = None


def _init_sweep_worker(cache_dir: Optional[str], salt: str) -> None:
    global _SWEEP_CACHE
    from repro.exec.cache import CompileCache

    _SWEEP_CACHE = CompileCache(cache_dir, salt=salt)


def _worker_eval(chunk: _Chunk) -> Dict[str, object]:
    return _eval_chunk(chunk, cache=_SWEEP_CACHE)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
) -> PointStore:
    """Evaluate every chunk of ``spec`` and collect a :class:`PointStore`.

    ``jobs > 1`` fans chunks over a ``fork`` pool whose workers each hold a
    :class:`~repro.exec.cache.CompileCache` on ``cache_dir`` (materialized
    chunks share synthesised macro circuits through it); platforms without
    ``fork`` fall back to serial evaluation.  ``pool.imap`` yields chunk
    results in submission order, so the store is row-for-row the same as a
    serial run's.
    """
    from repro.exec.keys import CODE_VERSION

    chunks = plan_sweep(spec)
    store = PointStore()
    use_pool = jobs > 1 and len(chunks) > 1
    if use_pool:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            use_pool = False
    if not use_pool:
        from repro.exec.cache import CompileCache

        cache = CompileCache(cache_dir) if cache_dir is not None else CompileCache(None)
        for chunk in chunks:
            store.extend(_eval_chunk(chunk, cache=cache))
        return store
    with context.Pool(
        processes=min(jobs, len(chunks)),
        initializer=_init_sweep_worker,
        initargs=(str(cache_dir) if cache_dir is not None else None, CODE_VERSION),
    ) as pool:
        for result in pool.imap(_worker_eval, chunks, chunksize=1):
            store.extend(result)
    return store
