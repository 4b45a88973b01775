"""The P_k gate of Section III-B (Figs. 8 and 9).

``P_k`` is the classical reversible operation on ``k`` qudits

    P_k |x_1, ..., x_{k-1}, x_k⟩ = |x_1, ..., x_{k-1}, h(x_1, ..., x_k)⟩

where ``h`` looks at the *last* non-zero entry ``x_{i*}`` of the control part
``x_1 ... x_{k-1}`` (``i* = ⊥`` if the controls are all zero):

* ``h = x_k``           if ``i* ≠ ⊥`` and ``x_{i*}`` is odd,
* ``h = x_k − 1 mod d`` otherwise (``i* = ⊥`` or ``x_{i*}`` even).

The odd-``d`` k-Toffoli of Fig. 10 is assembled from three ``|0⟩-X01`` gates
interleaved with ``P_k`` / ``P_k†`` and parity-class flips, so ``P_k`` is the
real workhorse of Theorem III.6.

This module provides the reference semantics (:func:`pk_map`, and
:func:`pk_h_rows` for a whole digit matrix at once), the Fig. 8
ladder (``k − 2`` borrowed ancillas) and the Fig. 9 halving construction
(one borrowed ancilla), plus a standalone :func:`synthesize_pk` entry point.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, SynthesisError, WireError
from repro.qudit.ancilla import AncillaKind, SynthesisResult
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Value
from repro.qudit.gates import XPlus
from repro.qudit.operations import BaseOp, Operation, StarShiftOp
from repro.core.lambda_ladder import (
    multi_controlled_shift_ops,
    multi_controlled_star_ops,
)


# ----------------------------------------------------------------------
# Reference semantics
# ----------------------------------------------------------------------
def pk_h(dim: int, values: Sequence[int]) -> int:
    """The function ``h(x_1, ..., x_k)`` defining ``P_k``."""
    if len(values) < 1:
        raise SynthesisError("P_k needs at least one input")
    controls = values[:-1]
    target = values[-1]
    last_nonzero: Optional[int] = None
    for index in range(len(controls) - 1, -1, -1):
        if controls[index] != 0:
            last_nonzero = index
            break
    if last_nonzero is not None and controls[last_nonzero] % 2 == 1:
        return target
    return (target - 1) % dim


def pk_h_rows(dim: int, values) -> np.ndarray:
    """:func:`pk_h` of every row of an ``(N, k)`` digit matrix in one pass.

    Sweeps the control columns left to right, keeping each row's last
    non-zero control digit (0 while there is none), so an odd one keeps the
    target and anything else steps it down by one.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.shape[1] < 1:
        raise SynthesisError("P_k needs at least one input")
    last = np.zeros(values.shape[0], dtype=np.int64)
    for column in values[:, :-1].T:
        last = np.where(column != 0, column, last)
    target = values[:, -1]
    return np.where(last % 2 == 1, target, (target - 1) % dim)


def pk_map(dim: int, values: Sequence[int]) -> Tuple[int, ...]:
    """Apply ``P_k`` to a basis tuple and return the image tuple."""
    output = list(values)
    output[-1] = pk_h(dim, values)
    return tuple(output)


# ----------------------------------------------------------------------
# Fig. 8: ladder with k − 2 borrowed ancillas
# ----------------------------------------------------------------------
def pk_ladder_garbage(
    dim: int, inputs: Sequence[int], ancillas: Sequence[int]
) -> List[BaseOp]:
    """The garbage-ancilla ladder of Fig. 8 (without the restoring tail).

    ``inputs[:-1]`` are the controls of ``P_k`` and ``inputs[-1]`` is its
    target; ``ancillas[r]`` is the target of the inner ``P_{r+2}`` layer.
    """
    if dim % 2 == 0:
        raise DimensionError("P_k is part of the odd-d construction")
    k = len(inputs)
    if k < 2:
        raise SynthesisError("the P_k ladder needs at least two inputs")
    if len(ancillas) < k - 2:
        raise SynthesisError(f"need {k - 2} ancillas for P_{k}, got {len(ancillas)}")
    wires = list(inputs) + list(ancillas[: max(k - 2, 0)])
    if len(set(wires)) != len(wires):
        raise WireError(f"P_k ladder wires must be distinct, got {wires}")

    minus_one = XPlus(dim, dim - 1)

    def layer(r: int) -> List[BaseOp]:
        """Ops implementing ``P_r`` on controls ``inputs[:r-1]`` and the
        layer target (``ancillas[r-2]`` for inner layers, ``inputs[-1]`` for
        the outermost)."""
        layer_target = inputs[-1] if r == k else ancillas[r - 2]
        control = inputs[r - 2]
        if r == 2:
            # P_2: subtract one from the target unless the control is odd.
            return [
                Operation(minus_one, layer_target, [(control, Value(0))]),
                Operation(minus_one, layer_target, [(control, EvenNonZero())]),
            ]
        inner_wire = ancillas[r - 3]
        return (
            [
                StarShiftOp(inner_wire, layer_target, -1, [(control, Value(0))]),
                Operation(minus_one, layer_target, [(control, EvenNonZero())]),
            ]
            + layer(r - 1)
            + [StarShiftOp(inner_wire, layer_target, +1, [(control, Value(0))])]
        )

    return layer(k)


def pk_ladder(dim: int, inputs: Sequence[int], ancillas: Sequence[int]) -> List[BaseOp]:
    """Fig. 8 ladder for ``P_k`` with *borrowed* ancillas.

    The garbage ladder is followed by the inverse of everything except the
    outermost three gates, which restores the ancillas.
    """
    k = len(inputs)
    if k == 1:
        # P_1: the control part is empty, so i* = ⊥ and h = x_1 − 1 always.
        return [Operation(XPlus(dim, dim - 1), inputs[0])]
    body = pk_ladder_garbage(dim, inputs, ancillas)
    if k == 2:
        return body
    # The outermost layer contributes the first two ops and the final op
    # ("the three at the bottom" in Lemma III.5); the rest is undone.
    inner = body[2:-1]
    restore = [op.inverse() for op in reversed(inner)]
    return body + restore


# ----------------------------------------------------------------------
# Fig. 9: one borrowed ancilla
# ----------------------------------------------------------------------
def pk_one_ancilla(
    dim: int, inputs: Sequence[int], ancilla: int
) -> List[BaseOp]:
    """``P_k`` using a single borrowed ancilla (Fig. 9).

    The control set is split in half: the left half is folded into the
    ancilla through ``P_{⌊k/2⌋+1}`` and transported onto the target with a
    ``|⋆⟩|0^{⌈k/2⌉−1}⟩-X∓⋆`` pair, while the right half is handled by a
    ``P_{⌈k/2⌉}`` gate (plus a compensating multi-controlled ``X+1``) acting
    directly on the target.  Each sub-gate borrows idle wires from the other
    half, so only the one explicit ancilla is needed overall.
    """
    k = len(inputs)
    if ancilla in set(inputs):
        raise WireError("the borrowed ancilla must be distinct from the P_k inputs")
    if k <= 3:
        # k − 2 <= 1: the plain ladder already needs at most one ancilla.
        return pk_ladder(dim, inputs, [ancilla])

    half = k // 2
    left = list(inputs[:half])                 # x_{1 : ⌊k/2⌋}
    right = list(inputs[half : k - 1])         # x_{⌊k/2⌋+1 : k−1}
    target = inputs[k - 1]                     # x_k

    left_pool = left                            # borrow pool for right-half gates
    right_pool = right + [target]               # borrow pool for left-half gates

    # P_{⌊k/2⌋+1} folding the left half into the ancilla (Fig. 8, borrowing
    # idle wires from the right half).
    fold = pk_ladder_with_pool(dim, left + [ancilla], right_pool)
    unfold = [op.inverse() for op in reversed(fold)]

    # |⋆⟩|0^m⟩-X∓⋆ transporting the ancilla's change onto the target.
    minus_star = multi_controlled_star_ops(dim, ancilla, right, target, -1, left_pool)
    plus_star = multi_controlled_star_ops(dim, ancilla, right, target, +1, left_pool)

    # |0^m⟩-X+1 compensation and the right-half P_{⌈k/2⌉}.
    compensate = multi_controlled_shift_ops(dim, right, target, left_pool + [ancilla], 1)
    right_pk = pk_ladder_with_pool(dim, right + [target], left_pool + [ancilla])

    return minus_star + fold + plus_star + unfold + compensate + right_pk


def pk_ladder_with_pool(
    dim: int, inputs: Sequence[int], borrow_pool: Sequence[int]
) -> List[BaseOp]:
    """Fig. 8 ladder, drawing its ``k − 2`` borrowed ancillas from a pool of
    idle wires."""
    k = len(inputs)
    needed = max(k - 2, 0)
    exclude = set(inputs)
    available = [w for w in borrow_pool if w not in exclude]
    if len(available) < needed:
        raise SynthesisError(
            f"P_{k} ladder needs {needed} borrowable wires, only {len(available)} available"
        )
    return pk_ladder(dim, inputs, available[:needed])


# ----------------------------------------------------------------------
# Standalone entry point
# ----------------------------------------------------------------------
def synthesize_pk(dim: int, k: int, *, one_ancilla: bool = True) -> SynthesisResult:
    """Synthesise ``P_k`` on a fresh register.

    Wires ``0 .. k-1`` are the ``P_k`` inputs (wire ``k-1`` is the target);
    one extra wire is appended as a borrowed ancilla when needed
    (``one_ancilla=True`` uses the Fig. 9 construction, otherwise the Fig. 8
    ladder with ``k − 2`` borrowed wires is used).

    .. note::
       Registered in :mod:`repro.synth` as the ``"pk"`` strategy, which adds
       capability metadata, canonical verification and an exact analytic
       estimator (``repro.synth.estimate("pk", d, k)``).
    """
    if dim % 2 == 0 or dim < 3:
        raise DimensionError("P_k is defined for odd d >= 3")
    if k < 1:
        raise SynthesisError("P_k needs k >= 1")
    inputs = list(range(k))
    ancillas_needed = 0 if k <= 2 else (1 if one_ancilla else k - 2)
    num_wires = k + ancillas_needed
    circuit = QuditCircuit(num_wires, dim, name=f"P_{k}(d={dim})")
    if ancillas_needed == 0:
        ops = pk_ladder(dim, inputs, [])
    elif one_ancilla:
        ops = pk_one_ancilla(dim, inputs, k)
    else:
        ops = pk_ladder(dim, inputs, list(range(k, num_wires)))
    circuit.extend(ops)
    ancillas = {w: AncillaKind.BORROWED for w in range(k, num_wires)}
    return SynthesisResult(
        circuit=circuit,
        controls=tuple(range(k - 1)),
        target=k - 1,
        ancillas=ancillas,
        notes="Lemma III.5 (Figs. 8-9)",
    )
