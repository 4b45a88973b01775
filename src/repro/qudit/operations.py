"""Circuit operations: gates placed on wires with (possibly several) controls.

Two operation kinds exist:

* :class:`Operation` — a single-qudit gate applied to a target wire,
  optionally controlled by any number of ``(wire, predicate)`` pairs.  The
  paper's gate set ``G = {Xij} ∪ {|0⟩-X01}`` corresponds to operations with
  zero controls and a transposition gate, or one ``Value(0)`` control and an
  ``X01`` gate (see :meth:`Operation.is_g_gate`).
* :class:`StarShiftOp` — the paper's ``|⋆⟩|0...0⟩-X±⋆`` gate (Fig. 6): when
  every ordinary control fires, the target is shifted by ``± value`` where
  ``value`` is the current state of the designated star wire.  It is a
  synthesis-internal macro that the lowering pass expands into ordinary
  controlled gates.

Both kinds know how to apply themselves to a classical basis state (what the
scalar permutation simulator needs) and additionally expose three vectorized
hooks consumed by the simulation backends in :mod:`repro.sim.backend`:

* :meth:`BaseOp.permutation_table` — the operation's action on the whole
  ``d^n`` basis as a flat numpy gather table: :meth:`BaseOp.map_indices` of
  ``arange(d^n)``, built fresh on every call (no table is cached; the
  per-op references use it, composition does not);
* :meth:`BaseOp.control_mask` — the control predicate evaluated over the whole
  basis as a boolean array broadcastable against the state reshaped to
  ``(d,) * n``;
* :meth:`BaseOp.map_indices` / :meth:`BaseOp.controls_fire_flat` — the same
  action and predicate evaluated on an *arbitrary batch* of flat basis
  indices with O(batch) stride arithmetic, never materialising a ``d^n``
  table.  The sparse simulator and the classical index path
  (:meth:`repro.ir.table.GateTable.apply_to_indices`) build on this hook;
  it is the only one that works on registers too large for a statevector.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError, WireError
from repro.qudit.controls import ControlPredicate, Value
from repro.qudit.gates import Gate, XPerm

Control = Tuple[int, ControlPredicate]

#: ``(predicate, dim) -> bool[dim]`` firing vectors for vectorized control
#: evaluation on decoded digits.  Predicates are immutable and hashable, and
#: only a handful of (predicate, dim) forms ever exist, so a small bounded
#: FIFO is plenty.
_FIRES_VECTOR_CACHE: dict = {}
_FIRES_VECTOR_CACHE_MAX = 1024


def predicate_fires_vector(predicate: ControlPredicate, dim: int) -> np.ndarray:
    """``bool[dim]`` vector with True at every digit that fires ``predicate``.

    Indexing it with a decoded-digit array evaluates the predicate over an
    arbitrary batch of basis states in one vectorized step.  Returned
    read-only and cached per ``(predicate, dim)``.
    """
    key = (predicate, dim)
    fires = _FIRES_VECTOR_CACHE.get(key)
    if fires is None:
        fires = np.zeros(dim, dtype=bool)
        for value in predicate.values(dim):
            fires[value] = True
        fires.setflags(write=False)
        while len(_FIRES_VECTOR_CACHE) >= _FIRES_VECTOR_CACHE_MAX:
            _FIRES_VECTOR_CACHE.pop(next(iter(_FIRES_VECTOR_CACHE)))
        _FIRES_VECTOR_CACHE[key] = fires
    return fires


def _normalize_controls(controls: Sequence[Control]) -> Tuple[Control, ...]:
    normalized: List[Control] = []
    for wire, predicate in controls:
        if not isinstance(predicate, ControlPredicate):
            raise GateError(f"control predicate {predicate!r} is not a ControlPredicate")
        normalized.append((int(wire), predicate))
    return tuple(normalized)


class BaseOp:
    """Common interface shared by :class:`Operation` and :class:`StarShiftOp`."""

    controls: Tuple[Control, ...]
    target: int

    def wires(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def span(self) -> int:
        """Number of distinct wires the operation touches."""
        return len(self.wires())

    def inverse(self) -> "BaseOp":
        raise NotImplementedError

    def controls_fire(self, state: Sequence[int], dim: int) -> bool:
        """Return True if every control predicate is satisfied by ``state``."""
        return all(pred.satisfied_by(state[wire], dim) for wire, pred in self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        """Apply the operation in place to a classical basis state."""
        raise NotImplementedError

    @property
    def is_permutation(self) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Vectorized hooks for the simulation backends
    # ------------------------------------------------------------------
    def control_mask(self, dim: int, num_wires: int, *, flat: bool = False) -> np.ndarray:
        """Boolean array marking the basis states on which every control fires.

        The default shape has ``dim`` on every control axis and ``1``
        elsewhere, so it broadcasts against a statevector reshaped to
        ``(dim,) * num_wires``; with ``flat=True`` the mask is materialised
        over the full ``dim ** num_wires`` flat basis.  Results are cached per
        ``(dim, num_wires, flat)`` and returned read-only.
        """
        cache = self.__dict__.setdefault("_control_mask_cache", {})
        key = (dim, num_wires, flat)
        mask = cache.get(key)
        if mask is None:
            if flat:
                shaped = self.control_mask(dim, num_wires)
                mask = np.broadcast_to(shaped, (dim,) * num_wires).reshape(-1)
            else:
                mask = np.ones((1,) * num_wires, dtype=bool)
                for wire, predicate in self.controls:
                    if not 0 <= wire < num_wires:
                        raise WireError(
                            f"control wire {wire} out of range for {num_wires} wires"
                        )
                    fires = np.zeros(dim, dtype=bool)
                    for value in predicate.values(dim):
                        fires[value] = True
                    shape = [1] * num_wires
                    shape[wire] = dim
                    mask = mask & fires.reshape(shape)
            mask.setflags(write=False)
            cache[key] = mask
        return mask

    def permutation_table(self, dim: int, num_wires: int) -> np.ndarray:
        """The operation's action on the full basis as a flat gather table.

        Entry ``i`` is the flat index of the image of basis state ``i``, so a
        statevector evolves as ``new[table] = old`` (a single scatter).  Only
        defined for permutation operations.  The table is a fresh
        :meth:`map_indices` of ``arange(d^n)``, returned read-only and not
        cached: it is the per-op reference (the dense engine's per-op walk,
        the fuzz ``backends`` oracle), while composition
        (:mod:`repro.ir.segment`) never builds a ``d^n`` table per operation.
        """
        if not self.is_permutation:
            raise GateError(f"{self!r} is not a permutation operation")
        table = self.map_indices(np.arange(dim**num_wires), dim, num_wires)
        table.setflags(write=False)
        return table

    def controls_fire_flat(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        """Vectorized :meth:`controls_fire` over a batch of flat basis indices.

        Decodes only the control digits of each index (stride arithmetic,
        O(len(indices)) per control) — never the full basis — so it works on
        registers of any size.
        """
        mask = np.ones(np.shape(indices), dtype=bool)
        for wire, predicate in self.controls:
            if not 0 <= wire < num_wires:
                raise WireError(f"control wire {wire} out of range for {num_wires} wires")
            stride = dim ** (num_wires - 1 - wire)
            fires = predicate_fires_vector(predicate, dim)
            mask &= fires[(indices // stride) % dim]
        return mask

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        """Images of a batch of flat basis indices under this operation.

        The O(batch)-time, O(batch)-memory counterpart of
        :meth:`permutation_table`: the same stride arithmetic is applied
        directly to the requested ``int64`` indices instead of to
        ``arange(d^n)``, so no ``d^n`` array is ever built and the method
        works on basis sizes far beyond any statevector (``d^n >= 10^9``).
        Only defined for permutation operations; indices are not range
        checked (callers validate the batch once).
        """
        raise NotImplementedError

    def _check_distinct_wires(self) -> None:
        wires = self.wires()
        if len(set(wires)) != len(wires):
            raise WireError(f"operation uses a wire more than once: {wires}")


class Operation(BaseOp):
    """A (multi-)controlled single-qudit gate."""

    def __init__(self, gate: Gate, target: int, controls: Sequence[Control] = ()):
        self.gate = gate
        self.target = int(target)
        self.controls = _normalize_controls(controls)
        self._check_distinct_wires()

    def wires(self) -> Tuple[int, ...]:
        return tuple(wire for wire, _ in self.controls) + (self.target,)

    @property
    def is_permutation(self) -> bool:
        return self.gate.is_permutation

    @property
    def num_controls(self) -> int:
        return len(self.controls)

    def inverse(self) -> "Operation":
        return Operation(self.gate.inverse(), self.target, self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        if not self.gate.is_permutation:
            raise GateError("cannot apply a non-permutation gate to a classical basis state")
        if self.controls_fire(state, dim):
            state[self.target] = self.gate.permutation()[state[self.target]]

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        if not self.is_permutation:
            raise GateError(f"{self!r} is not a permutation operation")
        if not 0 <= self.target < num_wires:
            raise WireError(f"wire {self.target} out of range for {num_wires} wires")
        indices = np.asarray(indices, dtype=np.int64)
        stride = dim ** (num_wires - 1 - self.target)
        digits = (indices // stride) % dim
        perm = np.asarray(self.gate.permutation(), dtype=np.int64)
        delta = (perm[digits] - digits) * stride
        if self.controls:
            delta = np.where(self.controls_fire_flat(indices, dim, num_wires), delta, 0)
        return indices + delta

    def is_g_gate(self, dim: int) -> bool:
        """Return True if the operation belongs to the paper's gate set G.

        ``G = {Xij : i != j} ∪ {|0⟩-X01}``: either an uncontrolled
        transposition, or an ``X01`` transposition with exactly one
        ``Value(0)`` control.
        """
        if not isinstance(self.gate, XPerm) or not self.gate.is_transposition():
            return False
        if self.num_controls == 0:
            return True
        if self.num_controls == 1:
            wire_pred = self.controls[0][1]
            return (
                isinstance(wire_pred, Value)
                and wire_pred.value == 0
                and self.gate.transposition_points() == (0, 1)
            )
        return False

    def is_two_qudit(self) -> bool:
        """Return True if the operation touches exactly two wires."""
        return self.span() == 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctrl = ", ".join(f"{p.label}@{w}" for w, p in self.controls)
        return f"Operation({self.gate.label} -> w{self.target}" + (f" | {ctrl})" if ctrl else ")")


class StarShiftOp(BaseOp):
    """The ``|⋆⟩|0...⟩-X±⋆`` gate of Fig. 6 (and its multi-controlled variants).

    Semantics on a basis state: if every entry of ``controls`` fires, the
    target becomes ``(target + sign * state[star_wire]) mod d``.  The star
    wire itself is never modified.
    """

    def __init__(self, star_wire: int, target: int, sign: int, controls: Sequence[Control] = ()):
        if sign not in (+1, -1):
            raise GateError(f"star-shift sign must be +1 or -1, got {sign}")
        self.star_wire = int(star_wire)
        self.target = int(target)
        self.sign = sign
        self.controls = _normalize_controls(controls)
        self._check_distinct_wires()

    def wires(self) -> Tuple[int, ...]:
        return (self.star_wire,) + tuple(wire for wire, _ in self.controls) + (self.target,)

    @property
    def is_permutation(self) -> bool:
        return True

    @property
    def num_controls(self) -> int:
        return len(self.controls) + 1  # the star wire also acts as a control

    def inverse(self) -> "StarShiftOp":
        return StarShiftOp(self.star_wire, self.target, -self.sign, self.controls)

    def apply_to_basis(self, state: List[int], dim: int) -> None:
        if self.controls_fire(state, dim):
            state[self.target] = (state[self.target] + self.sign * state[self.star_wire]) % dim

    def map_indices(self, indices: np.ndarray, dim: int, num_wires: int) -> np.ndarray:
        for wire in (self.star_wire, self.target):
            if not 0 <= wire < num_wires:
                raise WireError(f"wire {wire} out of range for {num_wires} wires")
        indices = np.asarray(indices, dtype=np.int64)
        stride_target = dim ** (num_wires - 1 - self.target)
        stride_star = dim ** (num_wires - 1 - self.star_wire)
        target = (indices // stride_target) % dim
        star = (indices // stride_star) % dim
        shifted = (target + self.sign * star) % dim
        delta = (shifted - target) * stride_target
        if self.controls:
            delta = np.where(self.controls_fire_flat(indices, dim, num_wires), delta, 0)
        return indices + delta

    def is_g_gate(self, dim: int) -> bool:
        return False

    def is_two_qudit(self) -> bool:
        return self.span() == 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = "X+⋆" if self.sign > 0 else "X-⋆"
        ctrl = ", ".join(f"{p.label}@{w}" for w, p in self.controls)
        return f"StarShiftOp({name}: ⋆@w{self.star_wire} -> w{self.target}" + (f" | {ctrl})" if ctrl else ")")
