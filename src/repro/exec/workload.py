"""Parallel workload runner: plan, dedupe, execute batches of requests.

A *workload* is a JSON list of requests against the synthesis service::

    {"requests": [
        {"kind": "synthesize", "strategy": "mct", "d": 3, "k": 6},
        {"kind": "simulate",  "strategy": "mct", "d": 3, "k": 5,
         "states": [[0,0,0,0,0,1], [0,0,0,0,0,2]], "backend": "dense"},
        {"kind": "simulate",  "strategy": "mct", "d": 3, "k": 5,
         "memory_budget": "8M"},
        {"kind": "estimate",  "strategy": "mct", "d": 5, "k": 100000}
    ]}

Execution has three stages:

1. **plan** — every compile-bearing request (synthesize / simulate) is
   mapped to its content address; requests sharing a key are deduplicated
   into one compile task.
2. **warm** — the unique compile tasks run (fanned out over a
   ``multiprocessing`` pool when ``jobs > 1``), each worker writing into
   the shared on-disk :class:`~repro.exec.cache.CompileCache` directory.
3. **execute** — every request runs in order; compiles are now cache hits
   (in-process memo within a worker, the shared directory across workers
   and across whole runs).

Simulate requests are batched: all listed basis states of one request
evolve together.  A permutation circuit answers classically — one lookup
into its cached whole-basis gather up to
:data:`~repro.sim.permutation.GATHER_MAX_STATES` basis states, index
propagation through every row above that.  Any other circuit on the
``dense`` backend reads the columns of the dense operator its table holds
up to :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states, and
otherwise runs as a :class:`~repro.sim.batch.BatchedStatevector` on the
requested backend (on ``dense`` under the request's ``memory_budget``, if
it sets one).  Each simulate row names the path it took in
``"sim_path"``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError, ReproError, WorkloadError
from repro.exec.cache import CompileCache
from repro.exec.keys import CODE_VERSION
from repro.exec.service import CompileOutcome, compile_lowered, lowered_key
from repro.resources.estimator import affine_answer_held
from repro.sim.permutation import GATHER_MAX_STATES
from repro.sim.unitary import OPERATOR_MAX_STATES
from repro.synth import registry
from repro.synth.strategy import Synthesizer
from repro.utils.indexing import basis_fits_int64, require_int64_basis

_KINDS = ("synthesize", "simulate", "estimate")


def json_int(value: object) -> int:
    """``value`` itself if it is a JSON integer, else ``TypeError``.

    The integer fields of a request (``d``, ``k``, state digits, the serve
    ``priority``) take an ``int`` that is not a ``bool``: ``int()`` would
    turn ``3.9`` into 3 and ``true`` into 1, and so run a request other than
    the one sent.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def json_str(value: object) -> str:
    """``value`` itself if it is a JSON string, else ``TypeError``.

    The name fields of a request (``kind``, ``strategy``, ``backend``,
    ``verify``) take only a string: ``str()`` would turn ``["mct"]`` or
    ``null`` into a name and pass them on to fail later, or not at all.
    """
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class WorkloadRequest:
    """One request of a batch workload."""

    kind: str
    strategy: str
    dim: int
    k: int
    #: Simulation backend (simulate only; a registered engine name).
    backend: str = "dense"
    #: Basis states to simulate, as digit rows (simulate only; default |0...0⟩).
    states: Tuple[Tuple[int, ...], ...] = ()
    #: Byte budget of the ``dense`` engine (simulate on ``dense`` only;
    #: accepts ``"8M"``-style strings in the JSON, normalised to bytes
    #: here): a statevector simulate runs on
    #: ``DenseBackend(memory_budget=...)``.  On a permutation circuit it
    #: also caps the whole-basis gather at ``8 * d**n`` bytes.
    memory_budget: Optional[int] = None
    #: Verification level: a budget preset name (``smoke``/``standard``/
    #: ``audit``) — the circuit the row is served from (the cached table) is
    #: checked against the strategy's semantic spec under that budget before
    #: any simulate runs (synthesize/simulate kinds only).
    verify: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: Dict[str, object], index: int) -> "WorkloadRequest":
        if not isinstance(raw, dict):
            raise WorkloadError(f"request {index} must be an object, got {type(raw).__name__}")
        for name in ("kind", "strategy", "backend", "verify"):
            if name in raw:
                try:
                    json_str(raw[name])
                except TypeError as error:
                    raise WorkloadError(f"request {index}: {name}: {error}") from None
        kind = raw.get("kind", "")
        if kind not in _KINDS:
            raise WorkloadError(
                f"request {index}: unknown kind {kind!r}; expected one of {list(_KINDS)}"
            )
        missing = [name for name in ("strategy", "d", "k") if name not in raw]
        if missing:
            raise WorkloadError(f"request {index}: missing field(s) {missing}")
        unknown = set(raw) - {
            "kind", "strategy", "d", "k", "backend", "states", "memory_budget", "verify",
        }
        if unknown:
            raise WorkloadError(f"request {index}: unknown field(s) {sorted(unknown)}")
        verify = raw.get("verify")
        if verify is not None:
            from repro.verify import PRESET_NAMES

            if kind == "estimate":
                raise WorkloadError(
                    f"request {index}: verify does not apply to estimate requests "
                    "(no circuit is built)"
                )
            if verify not in PRESET_NAMES:
                raise WorkloadError(
                    f"request {index}: unknown verify level {verify!r}; "
                    f"expected one of {list(PRESET_NAMES)}"
                )
        try:
            dim, k = json_int(raw["d"]), json_int(raw["k"])
        except TypeError:
            raise WorkloadError(f"request {index}: d and k must be integers") from None
        strategy = raw["strategy"]
        if strategy in registry.names() and not registry.get(strategy).supports(dim, k):
            raise WorkloadError(
                f"request {index}: strategy {strategy!r} does not support d={dim}, k={k}"
            )
        states = raw.get("states", ())
        try:
            states = tuple(tuple(json_int(x) for x in row) for row in states)
        except TypeError:
            raise WorkloadError(
                f"request {index}: states must be rows of digits"
            ) from None
        if states and kind != "simulate":
            raise WorkloadError(f"request {index}: states only applies to simulate requests")
        if kind == "simulate" or verify is not None:
            # Both address basis states by int64 flat index.
            wires = _layout_wires(raw["strategy"], dim, k)
            if states:
                _check_states(states, raw["strategy"], dim, k, wires, index)
            if wires is not None and not basis_fits_int64(dim, wires):
                raise WorkloadError(
                    f"request {index}: {raw['strategy']} at d={dim}, k={k} has {wires} "
                    f"wires, and {dim}^{wires} basis states exceed the int64 flat-index "
                    "range (2^63 - 1) that simulate and verify address"
                )
        from repro.sim import available_backends, parse_memory_budget

        backend = raw.get("backend", "dense")
        if backend not in available_backends():
            raise WorkloadError(
                f"request {index}: unknown backend {backend!r}; "
                f"expected one of {list(available_backends())}"
            )
        memory_budget = raw.get("memory_budget")
        if memory_budget is not None:
            if kind != "simulate":
                raise WorkloadError(
                    f"request {index}: memory_budget only applies to simulate requests"
                )
            if backend != "dense":
                raise WorkloadError(
                    f'request {index}: memory_budget applies to the "dense" backend '
                    f"only, got {backend!r}"
                )
            try:
                memory_budget = parse_memory_budget(memory_budget)
            except GateError as error:
                raise WorkloadError(f"request {index}: {error}") from None
        return cls(
            kind=kind,
            strategy=raw["strategy"],
            dim=dim,
            k=k,
            backend=backend,
            states=states,
            memory_budget=memory_budget,
            verify=verify,
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "strategy": self.strategy,
            "d": self.dim,
            "k": self.k,
        }
        if self.backend != "dense":
            out["backend"] = self.backend
        if self.states:
            out["states"] = [list(row) for row in self.states]
        if self.memory_budget is not None:
            out["memory_budget"] = self.memory_budget
        if self.verify is not None:
            out["verify"] = self.verify
        return out

    def compile_key(self, salt: str = CODE_VERSION) -> Optional[str]:
        """The content address of the compile this request needs (or ``None``).

        ``"auto"`` is resolved through the registry first — the key must
        name the artifact that will actually be built, or the planner would
        neither dedupe an ``auto`` request against an explicit one nor
        against the key ``compile_lowered`` stores under.
        """
        if self.kind == "estimate":
            return None
        strategy = self.strategy
        if strategy == "auto":
            strategy = registry.auto_select(self.dim, self.k).strategy.name
        return lowered_key(strategy, self.dim, self.k, salt=salt)


def _layout_wires(strategy: str, dim: int, k: int) -> Optional[int]:
    """The wire count of ``strategy`` at ``(d, k)`` from its analytic
    :meth:`~repro.synth.strategy.Synthesizer.layout`, or ``None`` for
    ``"auto"`` or an unknown name (the executed row checks those against the
    circuit it builds, or fails on the name).  A named strategy's ``(d, k)``
    is supported: :meth:`WorkloadRequest.from_dict` refused it otherwise.
    """
    if strategy == "auto" or strategy not in registry.names():
        return None
    return registry.get(strategy).layout(dim, k)[0]


def _check_states(
    states: Tuple[Tuple[int, ...], ...],
    strategy: str,
    dim: int,
    k: int,
    wires: Optional[int],
    index: int,
) -> None:
    """Reject simulate states that no circuit of the request can take.

    Every digit must lie in ``[0, d)`` and every row must have one length:
    ``wires``, the layout's wire count, when :func:`_layout_wires` knows it.
    """
    for row in states:
        for digit in row:
            if not 0 <= digit < dim:
                raise WorkloadError(
                    f"request {index}: state digit {digit} out of range for d={dim}"
                )
    widths = {len(row) for row in states}
    if len(widths) > 1:
        raise WorkloadError(
            f"request {index}: states rows have unequal lengths {sorted(widths)}"
        )
    (width,) = widths
    if wires is not None and width != wires:
        raise WorkloadError(
            f"request {index}: states rows have {width} digits, "
            f"{strategy} at d={dim}, k={k} has {wires} wires"
        )


@dataclass
class WorkloadSpec:
    """A parsed workload: an ordered list of requests."""

    requests: List[WorkloadRequest] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "WorkloadSpec":
        if isinstance(raw, list):  # bare list shorthand
            raw = {"requests": raw}
        if not isinstance(raw, dict) or "requests" not in raw:
            raise WorkloadError('a workload spec needs a "requests" list')
        rows = raw["requests"]
        if not isinstance(rows, list) or not rows:
            raise WorkloadError("a workload needs at least one request")
        return cls([WorkloadRequest.from_dict(row, i) for i, row in enumerate(rows)])

    @classmethod
    def from_json(cls, path: os.PathLike) -> "WorkloadSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise WorkloadError(f"cannot read workload spec: {error}") from error
        except (ValueError, RecursionError) as error:  # RecursionError: deep nesting
            raise WorkloadError(f"workload spec is not valid JSON: {error}") from error
        return cls.from_dict(raw)

    def to_dict(self) -> Dict[str, object]:
        return {"requests": [request.to_dict() for request in self.requests]}


@dataclass
class WorkloadPlan:
    """The deduplicated compile schedule of a workload."""

    #: key -> the first request needing that compile (its parameters drive it).
    compiles: Dict[str, WorkloadRequest]
    #: Per request: the compile key it consumes (``None`` for estimate).
    request_keys: List[Optional[str]]

    @property
    def dedup_savings(self) -> int:
        """How many compiles the dedup avoided."""
        return sum(1 for key in self.request_keys if key is not None) - len(self.compiles)


def plan_workload(spec: WorkloadSpec, *, salt: str = CODE_VERSION) -> WorkloadPlan:
    """Group the workload's requests by compile key."""
    compiles: Dict[str, WorkloadRequest] = {}
    request_keys: List[Optional[str]] = []
    for request in spec.requests:
        key = request.compile_key(salt)
        request_keys.append(key)
        if key is not None and key not in compiles:
            compiles[key] = request
    return WorkloadPlan(compiles=compiles, request_keys=request_keys)


# ----------------------------------------------------------------------
# Single-request execution (shared by the serial, pooled and serve paths)
# ----------------------------------------------------------------------
def execute_request(
    request: WorkloadRequest,
    cache: Optional[CompileCache],
    *,
    index: Optional[int] = None,
) -> Dict[str, object]:
    """Run one request against (and through) the compile cache.

    Exception-total: *any* failure — a :class:`ReproError` or an unexpected
    exception from a backend / numpy — becomes an ``ok=False`` row instead
    of propagating, so one poisoned request can never abort its siblings in
    ``pool.map`` (or kill a serve-daemon worker).  ``index`` is the
    request's position in its workload and is recorded on the row so error
    reports name the right request.
    """
    start = time.perf_counter()
    row: Dict[str, object] = dict(request.to_dict())
    if index is not None:
        row["index"] = int(index)
    try:
        if request.kind == "estimate":
            resources = registry.estimate(request.strategy, request.dim, request.k)
            row.update(
                g_gates=int(resources.g_gates),
                two_qudit_gates=int(resources.two_qudit_gates),
                num_wires=int(resources.num_wires),
                cache="n/a",
            )
        else:
            outcome = compile_lowered(request.strategy, request.dim, request.k, cache=cache)
            circuit = outcome.circuit
            row.update(
                strategy=outcome.strategy,  # "auto" resolved to the winner
                gates=circuit.num_ops(),
                num_wires=circuit.num_wires,
                cache=outcome.source,
                compile_seconds=round(outcome.seconds, 6),
            )
            if request.verify is not None:
                # Before the simulate, so a row whose check fails carries
                # no outputs.
                _verify_served(request, outcome, row)
            if request.kind == "simulate":
                row["outputs"], row["sim_path"] = _simulate(request, circuit)
        row["ok"] = True
    except ReproError as error:
        row["ok"] = False
        row["error"] = _error_text(error, request)
    except Exception as error:  # noqa: BLE001 — see the docstring
        row["ok"] = False
        row["error"] = _error_text(error, request)
        row["traceback"] = traceback.format_exc()
    row["seconds"] = round(time.perf_counter() - start, 6)
    return row


def _error_text(error: Exception, request: WorkloadRequest) -> str:
    """A failed row's ``error``: the exception's type and text, or, when it
    has no text (a bare ``MemoryError``), what it was running."""
    text = str(error)
    if not text:
        what = "out of memory" if isinstance(error, MemoryError) else "failed"
        text = (
            f"{what} running {request.kind} {request.strategy} "
            f"at d={request.dim}, k={request.k}"
        )
    return f"{type(error).__name__}: {text}"


def _verify_served(
    request: WorkloadRequest, outcome: CompileOutcome, row: Dict[str, object]
) -> None:
    """Check the served circuit against its strategy's semantic spec.

    The circuit is ``outcome.circuit``, a view of the table the compile
    cache holds, so verify and simulate read the same artefact (and, for a
    permutation table, the same composed gather).  The spec follows from
    ``(d, k)`` alone.  ``row["verify_result"]`` names the checked table by
    its cache key and reads ``"failed"`` until the check returns; a failed
    check raises :class:`~repro.exceptions.VerificationError`, which the
    caller records as the request's error.
    """
    from repro.verify import VerificationBudget

    # No tier can check a register past int64, and that is no verdict on
    # the circuit: the row fails with no verify_result (from_dict refuses
    # such a request for a registered strategy).
    require_int64_basis(request.dim, outcome.circuit.num_wires, "verify")
    result = row["verify_result"] = {"status": "failed", "key": outcome.key}
    strategy = registry.get(outcome.strategy)
    try:
        report = strategy.verify(
            outcome.circuit, request.dim, request.k,
            budget=VerificationBudget.preset(request.verify),
        )
    except NotImplementedError:
        result["status"] = "unsupported"
        return
    result.update(
        status=report.status,
        tier=report.decided_by,
        states_checked=int(report.states_checked),
    )


def _simulate(request: WorkloadRequest, circuit) -> Tuple[List[str], str]:
    """Evolve the request's basis states (default ``|0...0⟩``) as one batch.

    Returns the output digit strings and the path that produced them:
    ``"gather"`` or ``"propagate"`` for a permutation circuit (see
    :data:`~repro.sim.permutation.GATHER_MAX_STATES`), ``"operator"`` for a
    non-permutation circuit whose dense operator the table holds (the
    ``dense`` backend with no ``memory_budget``, up to
    :data:`~repro.sim.unitary.OPERATOR_MAX_STATES` basis states), otherwise
    the backend's name.
    """
    from repro.sim.permutation import basis_images
    from repro.utils.indexing import digits_to_index, indices_to_digits

    rows = request.states or ((0,) * circuit.num_wires,)
    # from_dict checked every digit's range (digits_to_index checks it
    # again) and the count where the layout knows the wires: not for "auto".
    for i, digits in enumerate(rows):
        if len(digits) != circuit.num_wires:
            raise WorkloadError(
                f"simulate state {i} has {len(digits)} digits, circuit has "
                f"{circuit.num_wires} wires"
            )
    indices = [digits_to_index(digits, request.dim) for digits in rows]
    if circuit.is_permutation:
        # Classical batched path: only the B flat indices move.
        images, path = basis_images(
            circuit, indices, max_gather_bytes=request.memory_budget
        )
    else:
        from repro.sim import BatchedStatevector, DenseBackend, get_backend
        from repro.sim.unitary import held_operator

        engine = get_backend(request.backend)
        if request.memory_budget is not None:  # from_dict: the backend is dense
            engine = DenseBackend(memory_budget=request.memory_budget)
        operator = held_operator(circuit, engine)
        if operator is None:
            batch = BatchedStatevector.from_basis_states(list(rows), request.dim, backend=engine)
            batch.apply_circuit(circuit)
            return ["".join(map(str, row)) for row in batch.most_probable()], request.backend
        # Column i is |i⟩ evolved: its most probable row, as
        # BatchedStatevector.most_probable() picks it.
        images = np.argmax(np.abs(operator[:, indices]) ** 2, axis=0)
        path = "operator"
    digits = indices_to_digits(images, request.dim, circuit.num_wires)
    return ["".join(str(int(x)) for x in row) for row in digits], path


def warm_and_small(requests: Sequence[WorkloadRequest], cache: CompileCache) -> bool:
    """Whether every request runs from what is already held, in bounded work.

    The serve daemon answers such a submit on its event loop instead of
    handing it to its worker (:mod:`repro.serve.server`).  A request passes
    when it names a registered strategy (not ``"auto"``), runs on the
    unbudgeted ``dense`` engine, and needs no build: an ``estimate`` of a
    strategy that keeps the affine :meth:`~repro.synth.strategy.Synthesizer.estimate`
    whose answer the estimator's memos hold
    (:func:`~repro.resources.estimator.affine_answer_held`), any other kind
    a lowered table held in ``cache``'s memo (:meth:`CompileCache.peek`).
    A simulate or verify must also stay within what that table holds for
    it: a whole-basis gather (a permutation table of at most
    :data:`~repro.sim.permutation.GATHER_MAX_STATES` basis states) or a
    dense operator (any other table of at most
    :data:`~repro.sim.unitary.OPERATOR_MAX_STATES`).  Summed over the
    requests, the basis states of every simulate or verify plus the states
    each simulate evolves stay within ``GATHER_MAX_STATES``, so one submit
    holds the loop for about one such row.

    Side-effect free: it counts no cache or estimator hit and moves no LRU
    entry, so the rows that follow record exactly what they would have.
    """
    states = 0
    for request in requests:
        if (
            request.strategy not in registry.names()
            or request.backend != "dense"
            or request.memory_budget is not None
        ):
            return False
        strategy = registry.get(request.strategy)
        if request.kind == "estimate":
            if type(strategy).estimate is not Synthesizer.estimate or not affine_answer_held(
                strategy, request.dim, request.k
            ):
                return False
            continue
        table = cache.peek(lowered_key(request.strategy, request.dim, request.k, salt=cache.salt))
        if table is None:
            return False
        if request.kind == "simulate" or request.verify is not None:
            basis = table.dim**table.num_wires
            if basis > OPERATOR_MAX_STATES and (
                basis > GATHER_MAX_STATES or not table.is_permutation
            ):
                return False
            states += basis
            if request.kind == "simulate":
                states += len(request.states) or 1  # default: |0...0⟩
    return states <= GATHER_MAX_STATES


# ----------------------------------------------------------------------
# Cache-counter accounting (shared with the serve daemon's metrics)
# ----------------------------------------------------------------------
STATS_FIELDS = ("memo_hits", "disk_hits", "misses", "puts", "evictions")


def zero_cache_stats() -> Dict[str, int]:
    return {name: 0 for name in STATS_FIELDS}


def merge_cache_stats(into: Dict[str, int], delta: Dict[str, int]) -> Dict[str, int]:
    """Accumulate one worker's counter delta into a running total (in place)."""
    for name in STATS_FIELDS:
        into[name] = int(into.get(name, 0)) + int(delta.get(name, 0))
    return into


def _stats_delta(
    cache: Optional[CompileCache], before: Optional[Dict[str, int]]
) -> Dict[str, int]:
    if cache is None or before is None:
        return zero_cache_stats()
    after = cache.stats.as_dict()
    return {name: after[name] - before.get(name, 0) for name in STATS_FIELDS}


def execute_with_stats(
    request: WorkloadRequest,
    index: int,
    cache: Optional[CompileCache],
) -> Dict[str, object]:
    """One parsed request plus the real cache-counter delta it caused.

    The pooled runner and the serve daemon both aggregate cache statistics
    by summing these per-request deltas — the honest counters, not a
    reconstruction from ``"built"``-provenance strings (which cannot see
    evictions and conflates misses with puts).
    """
    before = cache.stats.as_dict() if cache is not None else None
    row = execute_request(request, cache, index=index)
    return {"row": row, "cache_stats": _stats_delta(cache, before)}


# ----------------------------------------------------------------------
# Multiprocessing plumbing
# ----------------------------------------------------------------------
_WORKER_CACHE: Optional[CompileCache] = None


def _init_worker(cache_dir: Optional[str], salt: str) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = CompileCache(cache_dir, salt=salt)


def _worker_compile(task: Tuple[str, int, int]) -> Dict[str, object]:
    strategy, dim, k = task
    cache = _WORKER_CACHE
    before = cache.stats.as_dict() if cache is not None else None
    try:
        outcome = compile_lowered(strategy, dim, k, cache=cache)
    except ReproError as error:  # the owning request reports the failure
        return {
            "cache": "error",
            "error": f"{type(error).__name__}: {error}",
            "cache_stats": _stats_delta(cache, before),
        }
    return {
        "key": outcome.key,
        "cache": outcome.source,
        "seconds": outcome.seconds,
        "cache_stats": _stats_delta(cache, before),
    }


def _worker_execute(task: Tuple[int, WorkloadRequest]) -> Dict[str, object]:
    index, request = task
    return execute_with_stats(request, index, _WORKER_CACHE)


@dataclass
class WorkloadReport:
    """JSON-able outcome of one workload run."""

    rows: List[Dict[str, object]]
    jobs: int
    seconds: float
    unique_compiles: int
    dedup_savings: int
    warm_hits: int
    cache_stats: Dict[str, int]

    @property
    def ok(self) -> bool:
        return all(row.get("ok") for row in self.rows)

    def to_json(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "seconds": round(self.seconds, 4),
            "unique_compiles": self.unique_compiles,
            "dedup_savings": self.dedup_savings,
            "warm_hits": self.warm_hits,
            "ok": self.ok,
            "cache_stats": dict(self.cache_stats),
            "requests": self.rows,
        }


def run_workload(
    spec: WorkloadSpec,
    *,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    cache: Optional[CompileCache] = None,
    salt: str = CODE_VERSION,
) -> WorkloadReport:
    """Plan, warm and execute a workload; returns the per-request report.

    ``jobs > 1`` fans the deduplicated compile tasks — and then the
    requests — over a ``fork`` multiprocessing pool whose workers each hold
    their own :class:`CompileCache` on the shared ``cache_dir`` (in-process
    memo per worker, artifacts shared through the directory).  Platforms
    without ``fork`` fall back to serial execution.
    """
    if cache is None:
        cache = CompileCache(cache_dir, salt=salt)
    plan = plan_workload(spec, salt=cache.salt)
    start = time.perf_counter()
    warm_hits = 0

    use_pool = jobs > 1 and len(spec.requests) > 1
    if use_pool:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            use_pool = False

    if use_pool and cache.cache_dir is None:
        raise WorkloadError("run_workload(jobs>1) needs a cache_dir to share artifacts")

    if not use_pool:
        for key, request in plan.compiles.items():
            try:
                outcome = compile_lowered(request.strategy, request.dim, request.k, cache=cache)
            except ReproError:
                continue  # the owning request reports the failure below
            if outcome.cache_hit:
                warm_hits += 1
        rows = [
            execute_request(request, cache, index=index)
            for index, request in enumerate(spec.requests)
        ]
    else:
        tasks = [
            (request.strategy, request.dim, request.k) for request in plan.compiles.values()
        ]
        # Sized for the request phase — dedup can shrink the compile phase
        # to one task, but the (possibly many) requests still fan out.
        with context.Pool(
            processes=min(jobs, len(spec.requests)),
            initializer=_init_worker,
            initargs=(str(cache.cache_dir), cache.salt),
        ) as pool:
            warm = pool.map(_worker_compile, tasks, chunksize=1)
            warm_hits = sum(1 for item in warm if item["cache"] not in ("built", "error"))
            results = pool.map(_worker_execute, list(enumerate(spec.requests)), chunksize=1)
        rows = [item["row"] for item in results]

    if use_pool:
        # The parent cache saw no traffic — every get/put happened inside
        # the workers' _WORKER_CACHE instances.  Sum the per-task counter
        # deltas the workers returned: the honest numbers, eviction counts
        # included (the old provenance reconstruction double-booked every
        # "built" as a miss *and* a put and could never see an eviction).
        cache_stats = zero_cache_stats()
        for item in warm:
            merge_cache_stats(cache_stats, item.get("cache_stats", {}))
        for item in results:
            merge_cache_stats(cache_stats, item.get("cache_stats", {}))
    else:
        cache_stats = cache.stats.as_dict()
    return WorkloadReport(
        rows=rows,
        jobs=jobs if use_pool else 1,
        seconds=time.perf_counter() - start,
        unique_compiles=len(plan.compiles),
        dedup_savings=plan.dedup_savings,
        warm_hits=warm_hits,
        cache_stats=cache_stats,
    )
