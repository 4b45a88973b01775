"""Qudit arithmetic operators built from multi-controlled gates.

Arithmetic circuits (ternary adders and their d-ary generalisations) are one
of the applications the paper cites for its multi-controlled gate synthesis
[22, 23].  This module provides the basic reversible arithmetic primitives
on a little-endian-free register (wire 0 is the most significant digit):

* :func:`increment_ops` — add 1 modulo ``d^n``;
* :func:`add_constant_ops` — add an arbitrary constant modulo ``d^n``;
* :func:`controlled_increment_ops` — the same, fired by an extra control
  qudit (used by the adder examples and tests).

The carry logic uses the classic ancilla-free formulation: the digit at
position ``i`` is incremented iff every less-significant digit equals
``d − 1`` — precisely a multi-controlled ``X+1`` with control value
``d − 1``, i.e. the gate family the paper synthesises.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, SynthesisError
from repro.qudit.ancilla import AncillaKind, SynthesisResult
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Value
from repro.qudit.gates import XPlus
from repro.qudit.operations import BaseOp, Operation
from repro.core.multi_controlled_unitary import mcu_ops
from repro.utils.indexing import digits_to_index, index_to_digits


def increment_ops(
    dim: int,
    wires: Sequence[int],
    clean_ancilla: Optional[int],
    *,
    extra_controls: Sequence[Tuple[int, int]] = (),
) -> List[BaseOp]:
    """Add 1 modulo ``d^n`` to the register ``wires`` (wire 0 most significant).

    ``extra_controls`` is a list of ``(wire, value)`` pairs that must all be
    satisfied for the increment to fire (used for controlled increments).
    """
    n = len(wires)
    ops: List[BaseOp] = []
    extra_wires = [w for w, _ in extra_controls]
    extra_values = [v for _, v in extra_controls]
    # Most significant digit first: digit i increments iff all digits below
    # it are d-1 (they are about to wrap around).
    for position in range(n):
        lower = list(wires[position + 1 :])
        controls = extra_wires + lower
        values = extra_values + [dim - 1] * len(lower)
        payload = XPlus(dim, 1)
        if not controls:
            ops.append(Operation(payload, wires[position]))
        else:
            ops.extend(
                mcu_ops(
                    dim,
                    controls,
                    wires[position],
                    payload,
                    clean_ancilla,
                    control_values=values,
                )
            )
    return ops


def add_constant_ops(
    dim: int,
    wires: Sequence[int],
    constant: int,
    clean_ancilla: Optional[int],
) -> List[BaseOp]:
    """Add ``constant`` modulo ``d^n`` to the register.

    Each base-``d`` digit of the constant is added at its own position with
    the appropriate carry controls; carries are handled by iterating the
    single-step increment on the prefix register once per unit of the digit
    (simple, ``O(d · n^2)`` multi-controlled gates — the point of the module
    is to exercise the multi-controlled synthesis, not to be the tightest
    adder known).
    """
    n = len(wires)
    size = dim**n
    constant %= size
    ops: List[BaseOp] = []
    digits = index_to_digits(constant, dim, n)
    for position in range(n):
        digit = digits[position]
        prefix = list(wires[: position + 1])
        for _ in range(digit):
            ops.extend(increment_ops(dim, prefix, clean_ancilla))
    return ops


def controlled_increment_ops(
    dim: int,
    control: int,
    control_value: int,
    wires: Sequence[int],
    clean_ancilla: Optional[int],
) -> List[BaseOp]:
    """Increment the register iff ``control`` holds ``control_value``."""
    return increment_ops(
        dim, wires, clean_ancilla, extra_controls=[(control, control_value)]
    )


def synthesize_increment(dim: int, n: int) -> SynthesisResult:
    """Build the +1 circuit on a fresh ``n``-qudit register.

    .. note::
       Registered in :mod:`repro.synth` as the ``"increment"`` strategy
       (``k`` = register digits), with an exact estimate for small registers
       and a stacked-MCU cost model beyond.
    """
    if dim < 3:
        raise DimensionError("the paper's constructions require d >= 3")
    if n < 1:
        raise SynthesisError("the register needs at least one digit")
    needs_ancilla = n >= 3
    num_wires = n + (1 if needs_ancilla else 0)
    ancilla = n if needs_ancilla else None
    circuit = QuditCircuit(num_wires, dim, name=f"increment(d={dim}, n={n})")
    circuit.extend(increment_ops(dim, list(range(n)), ancilla))
    ancillas = {ancilla: AncillaKind.CLEAN} if needs_ancilla else {}
    return SynthesisResult(
        circuit=circuit,
        controls=tuple(range(n)),
        target=None,
        ancillas=ancillas,
        notes="ripple increment from multi-controlled X+1 gates",
    )


def increment_reference(dim: int, n: int, state: Sequence[int], amount: int = 1) -> Tuple[int, ...]:
    """Reference semantics used by the tests: ``state + amount mod d^n``."""
    index = digits_to_index(state, dim)
    return index_to_digits((index + amount) % dim**n, dim, n)


def increment_rows(dim: int, states, amount: int = 1) -> np.ndarray:
    """:func:`increment_reference` of every row of an ``(N, n)`` digit matrix.

    A ripple add from the least significant (last) column: each column
    keeps its digit of the running sum and passes the carry on, and the
    carry out of the first column is dropped (mod ``d^n``).  The digits stay
    small, so any register width works.
    """
    out = np.array(states, dtype=np.int64)
    carry = np.full(out.shape[0], amount, dtype=np.int64)
    for wire in range(out.shape[1] - 1, -1, -1):
        total = out[:, wire] + carry
        out[:, wire] = total % dim
        carry = total // dim
    return out
