"""The structural verification tier: one pass decides, the listing names.

:func:`repro.verify.checks.structural_check` decides a clean table with one
vectorized pass over its distinct rows and lists the offending rows check
by check only when that pass finds a defect.  Each of the fourteen row
checks (and the overflow-control and predicate checks) is injected into a
clean table here and its message pinned, with the order of the messages,
the three-rows-per-check and first-five truncations, and the
never-firing-control count.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import VerificationError
from repro.fuzz.generators import random_circuit
from repro.ir.table import COLUMNS
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import EvenNonZero, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm
from repro.qudit.operations import Operation, StarShiftOp
from repro.verify import TieredVerifier, checks

PREFIX = "circuit 'base' failed the structural check: "


def base_table():
    """Five clean rows on 4 qutrits: a controlled permutation, a two-control
    unitary, a controlled star, a three-control row (overflow pool) and an
    uncontrolled permutation.  Pools: 3 predicates, 2 permutations, 1
    unitary, 1 overflow entry."""
    circuit = QuditCircuit(4, 3, name="base")
    circuit.add_gate(XPerm.transposition(3, 0, 1), 3, [(0, Value(0))])
    circuit.append(Operation(
        SingleQuditUnitary(np.diag([1, 1j, -1]), label="S"), 2, [(0, Value(1)), (1, Value(2))]
    ))
    circuit.append(StarShiftOp(0, 1, 1, [(2, Value(0))]))
    circuit.append(Operation(
        XPerm.transposition(3, 0, 1), 3, [(0, Value(0)), (1, Value(0)), (2, Value(1))]
    ))
    circuit.append(Operation(XPerm.transposition(3, 1, 2), 0))
    return circuit.to_table()


def with_entries(table, *edits):
    """``table`` with ``(row, column, value)`` edits, as a circuit."""
    columns = {name: getattr(table, name).copy() for name in COLUMNS}
    for row, name, value in edits:
        columns[name][row] = value
    return QuditCircuit.from_table(table.replace_columns(**columns), name="base")


def test_the_base_table_is_clean():
    table = base_table()
    assert checks.structural_check(table.to_circuit(name="base")) == {
        "rows": 5, "never_fire_controls": 0,
    }
    pools = table.pools
    assert (len(pools.preds), len(pools.perms), len(pools.unitaries), len(pools.extras)) == (
        3, 2, 1, 1,
    )


#: One injected defect per row check, in the order the checks run.
ROW_DEFECTS = [
    ((4, "opcode", 5), "row 4: unknown opcode 5"),
    ((0, "target", 4), "row 0: target wire 4 out of range for 4 wires"),
    ((1, "wire_a", 4), "row 1: wire_a 4 out of range for 4 wires"),
    ((1, "wire_b", -2), "row 1: wire_b -2 out of range for 4 wires"),
    ((2, "wire_a", -1), "row 2: star row has no star wire"),
    ((0, "wire_a", 3), "row 0: control wire 3 duplicates the target"),
    ((1, "wire_b", 2), "row 1: control wire 2 duplicates the target"),
    ((1, "wire_b", 0), "row 1: duplicate control wire 0"),
    ((0, "pred_a", 3), "row 0: pred_a id 3 outside the predicate pool (size 3)"),
    ((1, "pred_b", -1), "row 1: pred_b id -1 outside the predicate pool (size 3)"),
    ((4, "payload", 2), "row 4: permutation payload id 2 outside the pool (size 2)"),
    ((1, "payload", 1), "row 1: unitary payload id 1 outside the pool (size 1)"),
    ((2, "payload", 0), "row 2: star shift sign must be ±1, got 0"),
    ((0, "extra", 1), "row 0: extra-controls id 1 outside the pool (size 1)"),
]


@pytest.mark.parametrize("edit,message", ROW_DEFECTS, ids=[m for _, m in ROW_DEFECTS])
def test_each_row_defect_is_named_exactly(edit, message):
    circuit = with_entries(base_table(), edit)
    with pytest.raises(VerificationError) as caught:
        checks.structural_check(circuit)
    assert str(caught.value) == PREFIX + message
    report = TieredVerifier("standard").verify_permutation(circuit, lambda s: s)
    assert report.status == "failed" and report.decided_by == "structural"


def test_overflow_entry_defects_are_named_exactly():
    table = base_table()
    bad_wire = table.pools.extras.intern(((5, 0),))
    bad_pred = table.pools.extras.intern(((2, 7),))
    circuit = with_entries(table, (0, "extra", bad_wire), (4, "extra", bad_pred))
    with pytest.raises(VerificationError) as caught:
        checks.structural_check(circuit)
    assert str(caught.value) == PREFIX + (
        "extra-controls entry 1: control wire 5 out of range for 4 wires; "
        "extra-controls entry 2: predicate id 7 outside the pool (size 3)"
    )


def test_an_invalid_predicate_is_named_exactly():
    circuit = QuditCircuit(2, 3, name="base")
    circuit.add_gate(XPerm.transposition(3, 0, 1), 1, [(0, Value(3))])
    with pytest.raises(VerificationError) as caught:
        checks.structural_check(circuit)
    assert str(caught.value) == PREFIX + (
        "control predicate '3' is invalid for dimension d=3 (it can never fire)"
    )


def test_messages_keep_check_order_and_both_truncations():
    circuit = with_entries(
        base_table(),
        (0, "opcode", 7), (1, "opcode", -1), (3, "opcode", 3), (4, "opcode", 9),
        (0, "target", 5), (2, "payload", 4),
    )
    with pytest.raises(VerificationError) as caught:
        checks.structural_check(circuit)
    # Three rows per check, checks in order, then the first five shown.
    assert str(caught.value) == PREFIX + (
        "row 0: unknown opcode 7; row 1: unknown opcode -1; row 3: unknown opcode 3; "
        "row 0: target wire 5 out of range for 4 wires; "
        "row 2: star shift sign must be ±1, got 4"
    )
    more = with_entries(base_table(), (0, "opcode", 7), (1, "target", 9), (2, "wire_a", -1),
                        (3, "pred_a", 8), (4, "payload", 5), (1, "extra", 4))
    with pytest.raises(VerificationError, match=r"\(\+1 more\)$"):
        checks.structural_check(more)


def test_never_firing_controls_are_counted_once_per_predicate():
    # At d=2 no basis value is even and non-zero: the |e⟩-control is valid
    # but never fires.
    circuit = QuditCircuit(3, 2, name="base")
    circuit.add_gate(XPerm.transposition(2, 0, 1), 2, [(0, EvenNonZero())])
    circuit.add_gate(XPerm.transposition(2, 0, 1), 2, [(1, EvenNonZero())])
    circuit.add_gate(XPerm.transposition(2, 0, 1), 2, [(0, Value(0)), (1, EvenNonZero())])
    assert checks.structural_check(circuit) == {"rows": 3, "never_fire_controls": 1}


def random_tables(count: int):
    rng = random.Random(2024)
    for seed in range(count):
        dim = rng.choice([2, 3, 4, 5])
        wires = rng.randrange(1, 6)
        yield random_circuit(
            seed, num_wires=wires, dim=dim, num_ops=rng.randrange(1, 30),
            max_controls=min(3, wires),
        ).to_table()


def test_the_one_pass_decides_exactly_as_the_listing():
    """On clean random tables and on each one corrupted in one random entry,
    the combined pass finds a defect exactly when the listing does, and
    counts the same never-firing controls when neither does."""
    rng = np.random.default_rng(7)
    corrupted = 0
    for table in random_tables(150):
        for candidate in (table, None):
            if candidate is None:
                columns = {name: getattr(table, name).copy() for name in COLUMNS}
                name = COLUMNS[rng.integers(len(COLUMNS))]
                columns[name][rng.integers(len(table))] = rng.integers(-3, 8)
                candidate = table.replace_columns(**columns)
            problems, never_fire = checks._structural_problems(candidate)
            fast = checks._clean_never_fire(candidate)
            assert (fast is None) == bool(problems), problems
            if fast is not None:
                assert fast == never_fire
            corrupted += bool(problems)
    assert corrupted > 50  # the corruptions do reach the listing
