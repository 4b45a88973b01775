"""Two-controlled gate gadgets (Lemmas III.1 and III.3).

These are the base cases of every ladder in the paper:

* **odd d** (Lemma III.3, Fig. 5): an ancilla-free synthesis of
  ``|00⟩-X01`` from five singly-controlled gates,

  ``|0⟩x1-X01(t) · |0⟩x1-X+1(x2) · |e⟩x2-X01(t) · |0⟩x1-X−1(x2) · |e⟩x2-X01(t)``

  The two control qudits are restored because ``X+1 X−1 = I``; the target is
  flipped exactly once iff ``x1 = x2 = 0`` (for ``x1 = 0, x2 ≠ 0`` exactly one
  of the two ``|e⟩``-controlled gates fires — which one depends on the parity
  of ``x2`` — and cancels the first gate).  The wrap-around of ``X+1`` at
  ``x2 = d − 1`` is harmless precisely because ``d`` is odd.

* **even d** (Lemma III.1, Fig. 2): one borrowed ancilla is necessary (the
  k-Toffoli is an odd permutation while every G-gate is even when ``d`` is
  even).  The exact gate sequence of Fig. 2 is not recoverable from the
  paper text, so we implement an equivalent gadget with the same interface
  and the same mechanism described in the proof — two *detector* gates
  controlled on the borrowed ancilla surround a block that moves the ancilla
  between a set ``S`` and its complement exactly when both controls fire:

  ``D(S) · σ · D(S) · σ†`` with
  ``σ = Π_blocks [pred1]c1-P · [pred2]c2-R · [pred1]c1-P · [pred2]c2-R``

  Each block is a commutator: if only one (or neither) control fires its net
  effect on the ancilla is the identity, and if both fire the blocks compose
  to a fixed permutation ``σ*`` chosen to have only even-length cycles, so
  that it maps an explicit set ``S`` onto its complement.  The detector
  ``D(S)`` applies the payload transposition to the target when the
  ancilla's current value lies in ``S``; the payload is therefore applied an
  odd number of times (exactly once) iff both controls fire, for *every*
  initial value of the borrowed ancilla, and the ancilla is restored by the
  trailing ``σ†``.

Both gadgets accept arbitrary ``Value``/``Odd``/``EvenNonZero`` predicates on
the two controls and an arbitrary target transposition; the odd-``d`` gadget
reduces general value-controls to the ``(0, 0)`` case by conjugation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import DimensionError, GateError, SynthesisError
from repro.qudit.controls import ControlPredicate, EvenNonZero, InSet, Value
from repro.qudit.gates import XPerm, XPlus
from repro.qudit.operations import Operation
from repro.core.single_controlled import mapping_permutation, transposition_ops
from repro.utils import permutations as perm_utils


# ----------------------------------------------------------------------
# Odd d (Lemma III.3, Fig. 5)
# ----------------------------------------------------------------------
def odd_two_controlled_x01_ops(dim: int, c1: int, c2: int, target: int) -> List[Operation]:
    """The literal Fig. 5 circuit: ``|0⟩c1|0⟩c2-X01`` on ``target``, odd ``d``."""
    if dim % 2 == 0:
        raise DimensionError("Fig. 5 gadget requires odd dimension")
    if dim < 3:
        raise DimensionError("the paper's constructions require d >= 3")
    x01 = XPerm.transposition(dim, 0, 1)
    return [
        Operation(x01, target, [(c1, Value(0))]),
        Operation(XPlus(dim, 1), c2, [(c1, Value(0))]),
        Operation(x01, target, [(c2, EvenNonZero())]),
        Operation(XPlus(dim, dim - 1), c2, [(c1, Value(0))]),
        Operation(x01, target, [(c2, EvenNonZero())]),
    ]


def _odd_two_controlled_transposition_values(
    dim: int,
    c1: int,
    v1: int,
    c2: int,
    v2: int,
    target: int,
    i: int,
    j: int,
) -> List[Operation]:
    """``|v1⟩c1|v2⟩c2-Xij`` for odd ``d`` via conjugation of the Fig. 5 core."""
    pre: List[Operation] = []
    post: List[Operation] = []
    if v1 != 0:
        swap = Operation(XPerm.transposition(dim, 0, v1), c1)
        pre.append(swap)
        post.append(swap)
    if v2 != 0:
        swap = Operation(XPerm.transposition(dim, 0, v2), c2)
        pre.append(swap)
        post.append(swap)
    conjugation = mapping_permutation(dim, i, j)
    pre_target = transposition_ops(dim, target, conjugation)
    post_target = transposition_ops(dim, target, perm_utils.invert(conjugation))
    core = odd_two_controlled_x01_ops(dim, c1, c2, target)
    return pre + pre_target + core + post_target + post


# ----------------------------------------------------------------------
# Even d (Lemma III.1 replacement gadget)
# ----------------------------------------------------------------------
def _even_flip_permutation(dim: int) -> Tuple[int, ...]:
    """The target permutation ``σ*`` of the commutator block for even ``d``.

    ``σ*`` must be an *even* permutation all of whose cycles have even
    length (so that it maps a set onto its complement and is expressible as
    a product of commutators).  We use

    * ``d ≡ 0 (mod 4)``: the product of the ``d/2`` transpositions
      ``(0 1)(2 3)...(d−2 d−1)``;
    * ``d ≡ 2 (mod 4)``: one 4-cycle ``(0 1 2 3)`` followed by the
      transpositions ``(4 5)...(d−2 d−1)`` (an even permutation because the
      number of cycles is even).
    """
    if dim % 2 != 0:
        raise DimensionError("σ* is only defined for even dimensions")
    if dim < 4:
        raise DimensionError("the even-d gadget requires d >= 4")
    cycles: List[Tuple[int, ...]] = []
    start = 0
    if dim % 4 == 2:
        cycles.append((0, 1, 2, 3))
        start = 4
    for base in range(start, dim, 2):
        cycles.append((base, base + 1))
    return perm_utils.permutation_from_cycles(dim, cycles)


def _three_cycles_of(perm: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Decompose an even permutation into 3-cycles, in circuit order."""
    transpositions = perm_utils.transpositions_of(perm)
    if len(transpositions) % 2 != 0:
        raise GateError("permutation is odd; cannot decompose into 3-cycles")
    three_cycles: List[Tuple[int, int, int]] = []
    for first, second in zip(transpositions[0::2], transpositions[1::2]):
        a, b = first
        c, e = second
        shared = set(first) & set(second)
        if len(shared) == 2:
            continue  # identical transpositions cancel
        if len(shared) == 1:
            # (a b)(b c) with the shared point written second in the first pair.
            pivot = shared.pop()
            x = a if b == pivot else b
            y = c if e == pivot else e
            # apply (x pivot) then (y pivot): x -> pivot -> pivot? compute directly
            # product maps x -> pivot? No: apply (x pivot) first: x->pivot, pivot->x.
            # then (y pivot): pivot->y. So overall: x->y, y? y->pivot? (first leaves y) then ->pivot? no (y pivot): y->pivot.
            # overall: x->y... recompute: after both: x->pivot->y, y->y->pivot, pivot->x->x.
            # That is the 3-cycle (x y pivot)? x->y, y->pivot, pivot->x. Yes.
            three_cycles.append((x, y, pivot))
        else:
            # Disjoint pair (A B)(C D) = apply (A C B) then (C B D).
            three_cycles.append((a, c, b))
            three_cycles.append((c, b, e))
    return three_cycles


def _commutator_block_ops(
    dim: int,
    c1: int,
    pred1: ControlPredicate,
    c2: int,
    pred2: ControlPredicate,
    ancilla: int,
    cycle: Tuple[int, int, int],
) -> List[Operation]:
    """Four controlled transpositions whose net effect on the ancilla is:

    * the 3-cycle ``x -> y -> z -> x`` when both controls fire,
    * the identity otherwise.
    """
    x, y, z = cycle
    p_gate = XPerm.transposition(dim, x, z)
    r_gate = XPerm.transposition(dim, x, y)
    return [
        Operation(p_gate, ancilla, [(c1, pred1)]),
        Operation(r_gate, ancilla, [(c2, pred2)]),
        Operation(p_gate, ancilla, [(c1, pred1)]),
        Operation(r_gate, ancilla, [(c2, pred2)]),
    ]


def even_two_controlled_transposition_ops(
    dim: int,
    c1: int,
    pred1: ControlPredicate,
    c2: int,
    pred2: ControlPredicate,
    target: int,
    i: int,
    j: int,
    borrow: int,
) -> List[Operation]:
    """``[pred1]c1 [pred2]c2 - Xij`` for even ``d`` with one borrowed ancilla."""
    if dim % 2 != 0:
        raise DimensionError("this gadget is for even dimensions")
    if dim < 4:
        raise DimensionError("the even-d gadget requires d >= 4")
    wires = {c1, c2, target, borrow}
    if len(wires) != 4:
        raise SynthesisError("the even-d gadget needs four distinct wires")

    sigma = _even_flip_permutation(dim)
    firing_set = frozenset(perm_utils.alternating_set(sigma))
    detector = Operation(
        XPerm.transposition(dim, i, j), target, [(borrow, InSet(firing_set))]
    )

    sigma_ops: List[Operation] = []
    for cycle in _three_cycles_of(sigma):
        sigma_ops.extend(_commutator_block_ops(dim, c1, pred1, c2, pred2, borrow, cycle))
    sigma_inverse = [op.inverse() for op in reversed(sigma_ops)]

    return [detector] + sigma_ops + [detector] + sigma_inverse


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def two_controlled_transposition_ops(
    dim: int,
    c1: int,
    pred1: ControlPredicate,
    c2: int,
    pred2: ControlPredicate,
    target: int,
    i: int,
    j: int,
    borrow: int = None,
) -> List[Operation]:
    """Synthesise ``[pred1]c1 [pred2]c2 - Xij`` on ``target``.

    For odd ``d`` the synthesis is ancilla-free (Fig. 5, conjugated); for
    even ``d`` the caller must provide a ``borrow`` wire (Lemma III.1 needs
    one borrowed ancilla — this is unavoidable, see the parity argument after
    Theorem III.2).

    Non-``Value`` predicates are expanded into a product over their firing
    values; the firing values are distinct states of a single control qudit,
    so at most one factor fires for any input.
    """
    if dim < 3:
        raise DimensionError("the paper's constructions require d >= 3")
    if dim % 2 == 0:
        if borrow is None:
            raise SynthesisError(
                "a borrowed ancilla wire is required for two-controlled gates when d is even"
            )
        return even_two_controlled_transposition_ops(
            dim, c1, pred1, c2, pred2, target, i, j, borrow
        )

    ops: List[Operation] = []
    values1 = pred1.values(dim) if not isinstance(pred1, Value) else (pred1.value,)
    values2 = pred2.values(dim) if not isinstance(pred2, Value) else (pred2.value,)
    for v1 in values1:
        for v2 in values2:
            ops.extend(
                _odd_two_controlled_transposition_values(dim, c1, v1, c2, v2, target, i, j)
            )
    return ops


def two_controlled_permutation_ops(
    dim: int,
    c1: int,
    pred1: ControlPredicate,
    c2: int,
    pred2: ControlPredicate,
    target: int,
    perm: Sequence[int],
    borrow: int = None,
) -> List[Operation]:
    """Synthesise a two-controlled permutation gate by decomposing the
    permutation into transpositions (each transposition is an involution, as
    required by the even-``d`` detector construction)."""
    ops: List[Operation] = []
    for i, j in perm_utils.transpositions_of(perm):
        ops.extend(
            two_controlled_transposition_ops(dim, c1, pred1, c2, pred2, target, i, j, borrow)
        )
    return ops
