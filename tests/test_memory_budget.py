"""The dense engine under a memory budget, and the segment-fusion layer
underneath both of its forms.

``DenseBackend(memory_budget=b)`` must equal ``DenseBackend()`` *bit for
bit* (not just ``allclose``): permutation segments are exact integer
gathers, and the blocked unitary kernel runs the same fixed-order einsum per
output element whatever the block extents.  Every comparison below is
``np.array_equal``.
"""

import random

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.ir import OP_UNITARY, Segment, compose_gather, segment_bounds, segment_table
from repro.qudit.circuit import QuditCircuit
from repro.qudit.controls import Odd, Value
from repro.qudit.gates import SingleQuditUnitary, XPerm, XPlus
from repro.qudit.operations import StarShiftOp
from repro.sim import DenseBackend, get_backend, parse_memory_budget
from repro.utils import permutations as perm_utils


def mixed_circuit(seed, num_wires=3, dim=3, num_ops=12):
    rng = random.Random(seed)
    circuit = QuditCircuit(num_wires, dim, name=f"mixed{seed}")
    for _ in range(num_ops):
        wires = rng.sample(range(num_wires), min(2, num_wires))
        kind = rng.randrange(4 if num_wires > 1 else 2)
        if kind == 0:
            circuit.add_gate(XPlus(dim, rng.randrange(1, dim)), wires[0])
        elif kind == 1:
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(dim)]))
            controls = (
                [(wires[1], Value(rng.randrange(dim)))]
                if num_wires > 1 and rng.randrange(2)
                else []
            )
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[0], controls)
        elif kind == 2:
            predicate = rng.choice([Value(rng.randrange(dim)), Odd()])
            circuit.add_gate(
                XPerm(perm_utils.random_permutation(dim, rng)),
                wires[0],
                [(wires[1], predicate)],
            )
        else:
            circuit.append(StarShiftOp(wires[0], wires[1], rng.choice([+1, -1])))
    return circuit


def random_state(dim, num_wires, seed, batch=None):
    rng = np.random.default_rng(seed)
    shape = (dim**num_wires,) if batch is None else (dim**num_wires, batch)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return data / np.linalg.norm(data)


def dense_reference(circuit, data):
    return get_backend("dense").apply_table(np.array(data), circuit.to_table())


# ----------------------------------------------------------------------
# Segment layer
# ----------------------------------------------------------------------
class TestSegmentation:
    def test_bounds_split_exactly_at_unitary_rows(self):
        circuit = mixed_circuit(3, num_ops=20)
        table = circuit.to_table()
        bounds = segment_bounds(table)
        # The bounds tile [0, len) without gaps or overlaps.
        assert bounds[0][0] == 0 and bounds[-1][1] == len(table)
        for (_, stop, _), (start, _, _) in zip(bounds, bounds[1:]):
            assert stop == start
        for start, stop, is_perm in bounds:
            rows = table.opcode[start:stop]
            if is_perm:
                assert not np.any(rows == OP_UNITARY)
            else:
                assert stop - start == 1 and rows[0] == OP_UNITARY

    def test_whole_circuit_segment_for_permutation_circuits(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPlus(3, 2), 1, [(0, Value(2))])
        segments = segment_table(circuit.to_table())
        assert len(segments) == 1
        assert segments[0].kind == "perm"
        assert segments[0].num_rows == 2

    def test_compose_gather_matches_per_op_walk(self):
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPerm((1, 0, 2)), 1, [(0, Odd())])
        table = circuit.to_table()
        fused = compose_gather(table, 0, len(table))
        assert np.array_equal(fused, table.permutation_index_table())
        ops, row_map = table.unique_ops()
        walked = np.arange(9)
        for row in range(len(table)):
            walked = ops[row_map[row]].permutation_table(3, 2)[walked]
        assert np.array_equal(fused, walked)

    def test_compose_gather_rejects_unitary_rows(self):
        circuit = QuditCircuit(1, 2)
        circuit.add_gate(SingleQuditUnitary(np.eye(2), label="I"), 0)
        with pytest.raises(GateError):
            compose_gather(circuit.to_table(), 0, 1)

    def test_inverse_table_is_the_inverse(self):
        circuit = mixed_circuit(11, num_ops=8)
        table = circuit.to_table()
        for segment in segment_table(table):
            if segment.kind != "perm":
                continue
            forward = segment.index_table()
            inverse = segment.inverse_index_table()
            assert np.array_equal(forward[inverse], np.arange(forward.size))

    def test_segments_interned_across_identical_tables(self):
        # Two structurally identical circuits sharing a pool set intern one
        # composed gather array (same object), and the cache counts the hit.
        circuit = QuditCircuit(2, 3)
        circuit.add_gate(XPlus(3, 1), 0)
        circuit.add_gate(XPlus(3, 2), 1)
        table = circuit.to_table()
        pool = table.pools.segments
        first = compose_gather(table, 0, len(table))
        builds = pool.builds
        again = compose_gather(table, 0, len(table))
        assert again is first
        assert pool.builds == builds and pool.hits >= 1
        assert not first.flags.writeable

    def test_apply_table_builds_each_segment_key_once(self, monkeypatch):
        """``Segment.index_table`` rebuilt its content key (a stack of the
        segment's rows and ``tobytes``) on every call, even when the gather
        was already interned."""
        from repro.exec import CompileCache, compile_lowered
        from repro.ir import segment as segment_module

        cache = CompileCache(None)
        compile_lowered("unitary", 3, 2, cache=cache)
        served = compile_lowered("unitary", 3, 2, cache=cache)
        assert served.source == "memo"
        table = served.circuit.cached_table  # the table the daemon serves
        assert sum(s.kind == "perm" for s in segment_table(table)) > 1
        dense = get_backend("dense")
        data = np.eye(9, dtype=complex)
        first = dense.apply_table(data, table)
        keyed = []
        build_key = segment_module._segment_key
        monkeypatch.setattr(
            segment_module, "_segment_key", lambda *args: keyed.append(args) or build_key(*args)
        )
        again = dense.apply_table(data, table)
        assert keyed == [] and np.array_equal(again, first)

    def test_unitary_segment_exposes_its_op(self):
        circuit = QuditCircuit(1, 2)
        circuit.add_gate(SingleQuditUnitary(np.eye(2), label="I"), 0)
        (segment,) = segment_table(circuit.to_table())
        assert segment.kind == "unitary"
        assert segment.op().gate.label == "I"


# ----------------------------------------------------------------------
# parse_memory_budget
# ----------------------------------------------------------------------
class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (4096, 4096),
            ("4096", 4096),
            ("512k", 512 * 1024),
            ("512K", 512 * 1024),
            ("8M", 8 * 1024**2),
            ("8MiB", 8 * 1024**2),
            ("1g", 1024**3),
            ("1 GB", 1024**3),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("text", ["", "eight", "8T", "-4", "0", 0, -1, "1.5M", True, False])
    def test_rejected(self, text):
        with pytest.raises(GateError):
            parse_memory_budget(text)

    def test_constructor_parses_the_budget_and_defaults_to_none(self):
        assert DenseBackend().memory_budget is None
        assert get_backend("dense").memory_budget is None
        assert DenseBackend("2M").memory_budget == 2 * 1024**2
        assert DenseBackend(memory_budget=4096).memory_budget == 4096
        with pytest.raises(GateError):
            DenseBackend(memory_budget="eight")


# ----------------------------------------------------------------------
# Bit-for-bit equality with the unbudgeted engine, across tile edge cases
# ----------------------------------------------------------------------
# 1 byte forces one-row tiles; 100 is a non-divisor of every d^n used here;
# the larger budgets keep everything in RAM (pure fusion path).
EDGE_BUDGETS = [1, 100, 4096, 10**9]


class TestBudgetedBitForBit:
    @pytest.mark.parametrize("budget", EDGE_BUDGETS)
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_circuit_single_state(self, seed, budget):
        circuit = mixed_circuit(seed, num_wires=3, dim=3, num_ops=14)
        data = random_state(3, 3, seed)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=budget)
        actual = engine.apply_table(np.array(data), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("budget", EDGE_BUDGETS)
    @pytest.mark.parametrize("seed", range(2))
    def test_mixed_circuit_batched(self, seed, budget):
        circuit = mixed_circuit(20 + seed, num_wires=3, dim=3, num_ops=12)
        data = random_state(3, 3, seed, batch=5)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=budget)
        actual = engine.apply_table_batch(np.array(data), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    def test_budget_smaller_than_one_batch_row(self):
        # One (d^n, B) row is B complex entries = 80 bytes > the 16-byte
        # budget: the tiler must clamp to one-row tiles and stay exact.
        circuit = mixed_circuit(31, num_wires=2, dim=3, num_ops=10)
        data = random_state(3, 2, 31, batch=5)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=16)
        actual = engine.apply_table_batch(np.array(data), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("budget", [1, 64, 10**9])
    def test_width_one_circuit(self, budget):
        circuit = mixed_circuit(5, num_wires=1, dim=4, num_ops=6)
        data = random_state(4, 1, 5)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=budget)
        actual = engine.apply_table(np.array(data), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    def test_whole_circuit_permutation_segment(self):
        circuit = QuditCircuit(3, 3)
        for wire in range(3):
            circuit.add_gate(XPlus(3, 1 + wire % 2), wire)
        circuit.add_gate(XPerm((2, 0, 1)), 0, [(1, Value(1))])
        data = random_state(3, 3, 7)
        expected = dense_reference(circuit, data)
        actual = DenseBackend(memory_budget=100).apply_table(np.array(data), circuit.to_table())
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("budget", [16, 1000, 10**9])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_unitary_only_table(self, budget, batch):
        # Every row is a dense unitary: the blocked einsum on its own, with
        # a budget below one pencil, a few pencils, and above the state.
        rng = random.Random(77)
        circuit = QuditCircuit(3, 3)
        for _ in range(6):
            phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(3)]))
            wires = rng.sample(range(3), 2)
            controls = [(wires[1], Value(rng.randrange(3)))] if rng.randrange(2) else []
            circuit.add_gate(SingleQuditUnitary(np.diag(phases), label="D"), wires[0], controls)
        table = circuit.to_table()
        assert all(segment.kind == "unitary" for segment in segment_table(table))
        data = random_state(3, 3, 77, batch=batch)
        expected = dense_reference(circuit, data)
        actual = DenseBackend(memory_budget=budget).apply_table(np.array(data), table)
        assert np.array_equal(np.asarray(actual), expected)

    @pytest.mark.parametrize("budget", EDGE_BUDGETS)
    @pytest.mark.parametrize("batch", [None, 4])
    def test_per_op_path_matches_the_unbudgeted_walk(self, budget, batch):
        # apply_op (Statevector.apply_op, the fuzz reference walk) tiles on
        # its own, independent of segment composition.
        circuit = mixed_circuit(13, num_wires=3, dim=3, num_ops=12)
        data = random_state(3, 3, 13, batch=batch)
        dense, budgeted = get_backend("dense"), DenseBackend(memory_budget=budget)
        expected, actual = np.array(data), np.array(data)
        for op in circuit:
            expected = dense.apply_op(expected, op, circuit.dim, circuit.num_wires)
            actual = budgeted.apply_op(actual, op, circuit.dim, circuit.num_wires)
        assert np.array_equal(np.asarray(actual), expected)

    def test_statevector_larger_than_budget_goes_out_of_core(self):
        # d^n = 729 complex amplitudes = 11664 bytes >> the 256-byte budget:
        # the scratch arrays must be memmaps, and still bit-for-bit equal.
        circuit = mixed_circuit(42, num_wires=6, dim=3, num_ops=10)
        data = random_state(3, 6, 42)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=256)
        actual = engine.apply_table(np.array(data), circuit.to_table())
        assert isinstance(actual, np.memmap)
        assert np.array_equal(np.asarray(actual), expected)

    def test_tiles_flush_and_drop_only_the_bytes_they_wrote(self, monkeypatch):
        """Every tile used to flush and drop the whole output mapping, so a
        one-row budget cost tiles x mapping size per sweep."""
        drops = []
        drop_pages = DenseBackend._drop_pages

        def record(array, *span):
            if isinstance(array, np.memmap):  # the output; the input is in RAM
                drops.append(span or (0, array.nbytes))
            drop_pages(array, *span)

        monkeypatch.setattr(DenseBackend, "_drop_pages", staticmethod(record))
        engine = DenseBackend(memory_budget=16)  # one complex128 amplitude
        data = random_state(3, 3, 5)
        permutation = QuditCircuit(3, 3)
        permutation.add_gate(XPlus(3, 1), 1, [(0, Value(2))])
        fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
        unitary = QuditCircuit(3, 3)
        unitary.add_gate(SingleQuditUnitary(fourier, label="F"), 1)
        for circuit, tiles in ((permutation, 27), (unitary, 3)):
            drops.clear()
            out = engine.apply_table(np.array(data), circuit.to_table())
            assert isinstance(out, np.memmap) and len(drops) == tiles
            assert sum(stop - start for start, stop in drops) == out.nbytes
            assert np.array_equal(np.asarray(out), dense_reference(circuit, data))

    def test_apply_circuit_and_per_op_paths(self):
        circuit = mixed_circuit(9, num_wires=3, dim=3, num_ops=9)
        data = random_state(3, 3, 9)
        expected = dense_reference(circuit, data)
        engine = DenseBackend(memory_budget=128)
        via_circuit = engine.apply_circuit(np.array(data), circuit)
        assert np.array_equal(np.asarray(via_circuit), expected)
        per_op = np.array(data)
        for op in circuit:
            per_op = engine.apply_op(per_op, op, circuit.dim, circuit.num_wires)
        assert np.allclose(np.asarray(per_op), expected, atol=1e-12)

    def test_batch_requires_two_dims(self):
        circuit = mixed_circuit(1, num_wires=2, dim=2, num_ops=3)
        with pytest.raises(GateError):
            DenseBackend(memory_budget=4096).apply_table_batch(
                np.zeros(4, dtype=complex), circuit.to_table()
            )

