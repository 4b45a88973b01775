"""The persistent compile cache: keys, serialization, store, wiring.

Covers the PR-5 satellite contract property-style:

* ``GateTable`` → ``.npz`` → ``GateTable`` round-trips preserve ops, labels,
  counts, depth and simulation results over randomized fuzz circuits;
* cache keys are stable across processes, but change when the pipeline
  spec or the code-version salt changes;
* the on-disk store is LRU-bounded, atomic, and corruption-safe;
* the ``cache=`` opt-ins on ``synthesize`` / ``lower_to_g_gates`` skip
  recompilation and reproduce identical circuits.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import QuditCircuit, lower_to_g_gates, synthesize_mct
from repro.exceptions import CacheError
from repro.exec import (
    CODE_VERSION,
    CompileCache,
    cache_key,
    compile_lowered,
    load_table,
    lowered_key,
    pipeline_spec,
    save_table,
)
from repro.fuzz import describe_op_difference, random_circuit
from repro.passes import (
    CancelAdjacentInverses,
    DropIdentities,
    ExpandMacros,
    PassPipeline,
    default_lowering_pipeline,
)
from repro.sim.permutation import permutation_index_table
from repro.synth import registry


# ----------------------------------------------------------------------
# Serialization round trips (property-style over fuzz circuits)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [3, 4])
def test_npz_round_trip_preserves_everything(tmp_path, seed, dim):
    circuit = random_circuit(seed, num_wires=4, dim=dim, num_ops=24, max_controls=3)
    table = circuit.to_table()
    path = tmp_path / "table.npz"
    save_table(path, table)
    reloaded = load_table(path)

    assert (reloaded.num_wires, reloaded.dim, reloaded.name) == (
        table.num_wires,
        table.dim,
        table.name,
    )
    for original, restored in zip(table.columns, reloaded.columns):
        assert np.array_equal(original, restored)
    assert describe_op_difference(circuit, reloaded.to_circuit()) is None
    assert reloaded.label_histogram() == circuit.label_histogram()
    assert reloaded.depth() == circuit.depth()
    assert reloaded.two_qudit_count() == circuit.two_qudit_count()
    assert reloaded.g_gate_count() == circuit.g_gate_count()
    if table.is_permutation:
        assert np.array_equal(
            reloaded.permutation_index_table(), table.permutation_index_table()
        )


def test_round_trip_preserves_simulation_of_lowered_circuit(tmp_path):
    lowered = lower_to_g_gates(synthesize_mct(3, 4).circuit)
    path = tmp_path / "lowered.npz"
    save_table(path, lowered.to_table())
    reloaded = load_table(path)
    assert np.array_equal(
        reloaded.permutation_index_table(), permutation_index_table(lowered)
    )


def test_load_rejects_garbage_and_wrong_version(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an archive at all")
    with pytest.raises(CacheError):
        load_table(bad)
    # A valid archive with a future format version must be refused, not guessed.
    from repro.exec.serialize import table_to_arrays

    arrays = table_to_arrays(synthesize_mct(3, 2).circuit.to_table())
    arrays["format_version"] = np.int64(999)
    versioned = tmp_path / "versioned.npz"
    np.savez_compressed(versioned, **arrays)
    with pytest.raises(CacheError):
        load_table(versioned)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_cache_key_is_stable_across_processes():
    here = cache_key("mct", 3, 6, pipeline=default_lowering_pipeline())
    script = (
        "from repro.exec import cache_key\n"
        "from repro.passes import default_lowering_pipeline\n"
        "print(cache_key('mct', 3, 6, pipeline=default_lowering_pipeline()))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
    )
    assert out.stdout.strip() == here
    assert len(here) == 64 and set(here) <= set("0123456789abcdef")


def test_cache_key_changes_with_every_component():
    base = cache_key("mct", 3, 6)
    assert cache_key("mct", 3, 7) != base
    assert cache_key("mct", 4, 6) != base
    assert cache_key("mct-odd", 3, 6) != base
    assert cache_key("mct", 3, 6, stage="synth") != base
    assert cache_key("mct", 3, 6, salt="some-other-code-version") != base
    assert cache_key("mct", 3, 6, salt=CODE_VERSION) == base


def test_cache_key_sensitive_to_pipeline_spec():
    plain = cache_key("mct", 3, 6, pipeline=None)
    default = cache_key("mct", 3, 6, pipeline=default_lowering_pipeline())
    other_sweeps = cache_key(
        "mct",
        3,
        6,
        pipeline=PassPipeline(
            [
                DropIdentities(),
                ExpandMacros(max_sweeps=7),
                CancelAdjacentInverses(),
            ],
            name="lower-to-g",
        ),
    )
    reordered = cache_key(
        "mct",
        3,
        6,
        pipeline=PassPipeline(
            [
                CancelAdjacentInverses(),
                ExpandMacros(max_sweeps=7),
                DropIdentities(),
            ],
            name="lower-to-g",
        ),
    )
    assert len({plain, default, other_sweeps, reordered}) == 4
    # Same pipeline built twice -> same spec -> same key.
    assert cache_key("mct", 3, 6, pipeline=default_lowering_pipeline()) == default
    spec = pipeline_spec(default_lowering_pipeline())
    assert spec == json.loads(json.dumps(spec))  # JSON-able and self-equal


# ----------------------------------------------------------------------
# The store: memo + disk + LRU + corruption
# ----------------------------------------------------------------------
def test_cache_get_put_layers(tmp_path):
    cache = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 3)
    assert cache.get(key) is None
    table = lower_to_g_gates(synthesize_mct(3, 3).circuit).to_table()
    cache.put(key, table, meta={"d": 3, "k": 3})
    assert key in cache
    assert cache.get(key).source == "memo"
    cache.clear_memo()
    entry = cache.get(key)
    assert entry.source == "disk"
    assert entry.meta == {"d": 3, "k": 3}
    assert cache.get(key).source == "memo"  # promoted back
    stats = cache.stats
    assert (stats.misses, stats.puts, stats.disk_hits, stats.memo_hits) == (1, 1, 1, 2)


def test_cache_rejects_malformed_keys(tmp_path):
    cache = CompileCache(tmp_path)
    with pytest.raises(CacheError):
        cache.get("../../etc/passwd")
    with pytest.raises(CacheError):
        cache.put("UPPER", synthesize_mct(3, 2).circuit.to_table())


@pytest.mark.parametrize(
    "key",
    ["", "ABCDEF", "abcdeF", "abcg", "ab cd", "ab\n", "0x1f", "../ab", "ab/cd", "a.b", "éa", None],
)
def test_every_key_check_refuses_a_malformed_key(tmp_path, key):
    """``get``, ``put`` and ``in`` accept lower-case hex digits only: empty,
    upper-case, non-hex and path-like keys (and non-strings) raise
    :class:`CacheError` before any path is built from them."""
    cache = CompileCache(tmp_path)
    table = synthesize_mct(3, 2).circuit.to_table()
    with pytest.raises(CacheError, match="malformed cache key"):
        cache.get(key)
    with pytest.raises(CacheError, match="malformed cache key"):
        cache.put(key, table)
    with pytest.raises(CacheError, match="malformed cache key"):
        key in cache
    assert cache.stats.as_dict() == CompileCache().stats.as_dict()  # nothing counted
    assert cache.keys() == []


def test_a_hex_key_of_any_length_is_accepted(tmp_path):
    cache = CompileCache(tmp_path)
    table = synthesize_mct(3, 2).circuit.to_table()
    for key in ("0", "ab", lowered_key("mct", 3, 2)):
        assert key not in cache and cache.get(key) is None
        cache.put(key, table)
        assert key in cache and cache.peek(key) is table


def test_peek_counts_nothing_and_keeps_lru_order(tmp_path):
    cache = CompileCache(tmp_path, max_memo_entries=2)
    table = synthesize_mct(3, 2).circuit.to_table()
    first, second, third = (lowered_key("mct", 3, k) for k in (2, 3, 4))
    cache.put(first, table)
    cache.put(second, table)
    before = cache.stats.as_dict()
    assert cache.peek(first) is table and cache.peek(third) is None
    assert cache.stats.as_dict() == before
    cache.put(third, table)  # evicts the least recently used: still ``first``
    assert cache.peek(first) is None and cache.peek(second) is table
    cache.clear_memo()
    assert cache.peek(second) is None  # never reads the disk
    assert cache.stats.as_dict() == {**before, "puts": before["puts"] + 1}


def test_corrupt_disk_entry_is_a_miss_and_gets_dropped(tmp_path):
    cache = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 2)
    cache.put(key, lower_to_g_gates(synthesize_mct(3, 2).circuit).to_table())
    cache.clear_memo()
    npz_path = cache._paths(key)[0]
    npz_path.write_bytes(b"\x00corrupted")
    assert cache.get(key) is None
    assert not npz_path.exists()


def test_missing_meta_sidecar_is_a_miss_never_empty_roles(tmp_path):
    # The sidecar is written before the npz; an npz without one is a
    # corrupted entry and must be dropped, not served with empty metadata.
    cache = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 2)
    cache.put(key, synthesize_mct(3, 2).circuit.to_table(), meta={"controls": [0, 1]})
    cache.clear_memo()
    cache._paths(key)[1].unlink()
    assert cache.get(key) is None
    assert not cache._paths(key)[0].exists()


def test_orphan_meta_sidecar_is_cleaned_on_get(tmp_path):
    # A crash between the sidecar write and the npz write leaves an orphan
    # json; the next lookup treats it as a miss and removes it.
    cache = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 2)
    sidecar = cache._paths(key)[1]
    sidecar.parent.mkdir()
    sidecar.write_text("{}", encoding="utf-8")
    assert cache.get(key) is None
    assert not sidecar.exists()


def test_disk_lru_eviction_bounded_and_touch_on_get(tmp_path):
    small = lower_to_g_gates(synthesize_mct(3, 2).circuit).to_table()
    probe = CompileCache(tmp_path / "probe")
    probe.put("aa", small)
    entry_bytes = probe.disk_bytes()
    # Budget for ~3 entries; insert 6 and keep touching the first.
    cache = CompileCache(tmp_path / "lru", max_disk_bytes=int(entry_bytes * 3.5))
    keys = [f"{i:02x}" for i in range(6)]
    import os
    import time as time_module

    for i, key in enumerate(keys):
        cache.put(key, small)
        # mtime resolution can swallow sub-ms ordering; space the clock out.
        past = time_module.time() - (len(keys) - i) * 10
        os.utime(cache._paths(key)[0], (past, past))
        cache.get(keys[0])  # refresh the first entry's mtime on every round
        now = time_module.time()
        os.utime(cache._paths(keys[0])[0], (now, now))
        cache._evict_over_budget()
    on_disk = {path.stem for path in (tmp_path / "lru").glob("**/*.npz")}
    assert keys[0] in on_disk  # the hot entry survived
    assert len(on_disk) <= 4
    assert cache.stats.evictions >= 2
    assert cache.disk_bytes() <= int(entry_bytes * 3.5)


def test_disk_store_is_sharded_by_key_prefix(tmp_path):
    cache = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 2)
    cache.put(key, synthesize_mct(3, 2).circuit.to_table(), meta={"d": 3})
    shard = tmp_path / key[:2]
    assert (shard / f"{key}.npz").exists()
    assert (shard / f"{key}.json").exists()
    assert not (tmp_path / f"{key}.npz").exists()
    cache.clear_memo()
    assert cache.get(key).source == "disk"
    assert key in cache.keys()


def test_flat_legacy_entries_count_and_evict_but_never_hit(tmp_path):
    # A store written before sharding keeps its flat <key>.npz entries.  No
    # key names them any more, so they are neither read nor warmed, but
    # they count against the disk budget and eviction removes them.
    writer = CompileCache(tmp_path)
    key = lowered_key("mct", 3, 3)
    table = lower_to_g_gates(synthesize_mct(3, 3).circuit).to_table()
    writer.put(key, table, meta={"k": 3})
    # Demote the entry to the legacy flat layout by hand.
    sharded_npz, sharded_meta = writer._paths(key)
    import shutil

    shutil.move(sharded_npz, tmp_path / f"{key}.npz")
    shutil.move(sharded_meta, tmp_path / f"{key}.json")

    reader = CompileCache(tmp_path, max_disk_bytes=0)
    assert key not in reader and key not in reader.keys()
    assert reader.warm_scan() == {"scanned": 1, "warmed": 0, "dropped": 1, "bytes": 0}
    assert reader.get(key) is None
    assert reader.disk_bytes() > 0
    reader._evict_over_budget()
    assert reader.stats.evictions == 1 and reader.disk_bytes() == 0
    assert not (tmp_path / f"{key}.npz").exists()
    assert not (tmp_path / f"{key}.json").exists()


def test_eviction_spans_both_store_layouts(tmp_path):
    small = lower_to_g_gates(synthesize_mct(3, 2).circuit).to_table()
    probe = CompileCache(tmp_path / "probe")
    probe.put("aa", small)
    entry_bytes = probe.disk_bytes()
    cache = CompileCache(tmp_path / "mix", max_disk_bytes=int(entry_bytes * 2.5))
    import os
    import time as time_module

    # One legacy flat entry (oldest), then sharded entries over budget.
    flat_key = "0f" * 8
    cache.put(flat_key, small)
    flat_npz, flat_meta = cache._paths(flat_key)
    os.replace(flat_npz, tmp_path / "mix" / f"{flat_key}.npz")
    os.replace(flat_meta, tmp_path / "mix" / f"{flat_key}.json")
    past = time_module.time() - 1000
    os.utime(tmp_path / "mix" / f"{flat_key}.npz", (past, past))
    for i in range(3):
        cache.put(f"{i:02x}" * 8, small)
    cache._evict_over_budget()
    assert not (tmp_path / "mix" / f"{flat_key}.npz").exists()  # LRU casualty
    assert cache.disk_bytes() <= int(entry_bytes * 2.5)


def test_memo_only_cache_without_directory():
    cache = CompileCache(None)
    key = lowered_key("mct", 3, 2)
    assert cache.get(key) is None
    cache.put(key, synthesize_mct(3, 2).circuit.to_table())
    assert cache.get(key).source == "memo"
    cache.clear_memo()
    assert cache.get(key) is None  # nothing persisted


# ----------------------------------------------------------------------
# Startup warming: warm_scan
# ----------------------------------------------------------------------
def test_warm_scan_promotes_disk_entries_into_memo(tmp_path):
    writer = CompileCache(tmp_path)
    keys = [lowered_key("mct", 3, k) for k in (2, 3, 4)]
    for k, key in zip((2, 3, 4), keys):
        writer.put(key, lower_to_g_gates(synthesize_mct(3, k).circuit).to_table())

    cache = CompileCache(tmp_path)  # fresh process boundary: memo is cold
    summary = cache.warm_scan()
    assert summary["scanned"] == 3
    assert summary["warmed"] == 3
    assert summary["dropped"] == 0
    assert summary["bytes"] > 0
    assert cache.stats.disk_hits == 3
    for key in keys:
        assert cache.get(key).source == "memo"  # no further disk traffic
    assert cache.stats.memo_hits == 3


def test_warm_scan_respects_limit_and_prefers_newest(tmp_path):
    import os
    import time as time_module

    small = lower_to_g_gates(synthesize_mct(3, 2).circuit).to_table()
    writer = CompileCache(tmp_path)
    now = time_module.time()
    for i, key in enumerate(["aa" * 8, "bb" * 8, "cc" * 8]):
        writer.put(key, small)
        npz_path, _ = writer._paths(key)
        os.utime(npz_path, (now - 100 + i, now - 100 + i))  # cc newest

    cache = CompileCache(tmp_path)
    summary = cache.warm_scan(limit=1)
    assert summary == {
        "scanned": 1,
        "warmed": 1,
        "dropped": 0,
        "bytes": summary["bytes"],
    }
    assert cache.get("cc" * 8).source == "memo"
    assert cache.get("aa" * 8).source == "disk"  # untouched by the scan


def test_warm_scan_drops_corrupt_and_foreign_entries(tmp_path):
    writer = CompileCache(tmp_path)
    good = lowered_key("mct", 3, 2)
    writer.put(good, lower_to_g_gates(synthesize_mct(3, 2).circuit).to_table())
    bad = "dd" * 8
    writer.put(bad, lower_to_g_gates(synthesize_mct(3, 3).circuit).to_table())
    bad_npz, _ = writer._paths(bad)
    bad_npz.write_bytes(b"not an npz archive")
    # A foreign (non-hex-key) file dumped into the store directory.
    (tmp_path / "README.npz").write_bytes(b"hello")

    cache = CompileCache(tmp_path)
    summary = cache.warm_scan()
    assert summary["scanned"] == 3
    assert summary["warmed"] == 1
    assert summary["dropped"] == 2
    assert cache.get(good).source == "memo"
    assert cache.get(bad) is None  # corrupt archive was purged


def test_warm_scan_is_a_no_op_without_a_directory():
    cache = CompileCache(None)
    assert cache.warm_scan() == {"scanned": 0, "warmed": 0, "dropped": 0, "bytes": 0}


# ----------------------------------------------------------------------
# Wiring: synthesize / lower_to_g_gates / compile_lowered
# ----------------------------------------------------------------------
def test_registry_synthesize_cache_round_trips_result(tmp_path):
    cache = CompileCache(tmp_path)
    first = registry.synthesize("mct", 4, 3, cache=cache)
    assert cache.stats.puts == 1
    cache.clear_memo()
    second = registry.synthesize("mct", 4, 3, cache=cache)
    assert cache.stats.disk_hits == 1
    assert describe_op_difference(first.circuit, second.circuit) is None
    assert second.controls == first.controls
    assert second.target == first.target
    assert second.ancillas == first.ancillas
    third = registry.synthesize("mct", 4, 3, cache=cache)
    assert cache.stats.memo_hits >= 1
    assert describe_op_difference(first.circuit, third.circuit) is None


def test_compile_lowered_hits_skip_synthesis(tmp_path, monkeypatch):
    cache = CompileCache(tmp_path)
    cold = compile_lowered("mct", 3, 5, cache=cache)
    assert cold.source == "built" and not cold.cache_hit
    # Any further synthesis attempt is an error: warm paths must not build.
    strategy = registry.get("mct")
    def exploding(*args, **kwargs):
        raise AssertionError("warm cache hit must not re-synthesize")
    monkeypatch.setattr(strategy, "synthesize", exploding)
    warm = compile_lowered("mct", 3, 5, cache=cache)
    assert warm.source == "memo" and warm.cache_hit
    cache.clear_memo()
    disk = compile_lowered("mct", 3, 5, cache=cache)
    assert disk.source == "disk"
    assert describe_op_difference(cold.circuit, disk.circuit) is None
    assert np.array_equal(
        permutation_index_table(cold.circuit), permutation_index_table(disk.circuit)
    )


def test_compile_lowered_salt_partitions_artifacts(tmp_path):
    cold = compile_lowered("mct", 3, 3, cache=CompileCache(tmp_path, salt="salt-a"))
    other = compile_lowered("mct", 3, 3, cache=CompileCache(tmp_path, salt="salt-b"))
    assert cold.source == other.source == "built"
    assert cold.key != other.key
    warm = compile_lowered("mct", 3, 3, cache=CompileCache(tmp_path, salt="salt-a"))
    assert warm.source == "disk" and warm.key == cold.key


def test_compile_lowered_handles_unitary_payload_strategies(tmp_path):
    cache = CompileCache(tmp_path)
    cold = compile_lowered("mcu-exponential", 3, 2, cache=cache)
    assert not cold.circuit.is_permutation  # cached at the macro level
    cache.clear_memo()
    warm = compile_lowered("mcu-exponential", 3, 2, cache=cache)
    assert warm.source == "disk"
    assert describe_op_difference(cold.circuit, warm.circuit) is None


def test_cached_circuit_is_table_backed():
    cache = CompileCache(None)
    compile_lowered("mct", 3, 3, cache=cache)
    warm = compile_lowered("mct", 3, 3, cache=cache)
    assert isinstance(warm.circuit, QuditCircuit)
    assert warm.circuit.cached_table is not None  # column kernels stay live


# ----------------------------------------------------------------------
# Zero-copy mmap loading (PR-6)
# ----------------------------------------------------------------------
def _sample_table(seed=3, dim=3):
    return random_circuit(seed, num_wires=3, dim=dim, num_ops=18, max_controls=3).to_table()


def test_mmap_load_is_zero_copy_and_equal(tmp_path):
    table = _sample_table()
    path = tmp_path / "t.npz"
    save_table(path, table)
    mapped = load_table(path, mmap_mode="r")
    copied = load_table(path)
    for via_map, via_copy in zip(mapped.columns, copied.columns):
        assert np.array_equal(via_map, via_copy)
        # Mapped columns are read-only views into the archive mapping, not
        # heap copies: a base chain exists and ends at the shared buffer.
        assert not via_map.flags.writeable
        assert via_map.base is not None
    state = np.zeros(table.dim**table.num_wires, dtype=complex)
    state[1] = 1.0
    from repro.sim import get_backend

    dense = get_backend("dense")
    assert np.array_equal(
        dense.apply_table(state.copy(), mapped), dense.apply_table(state.copy(), table)
    )


def test_cache_get_maps_by_default_and_copies_when_disabled(tmp_path):
    table = _sample_table(seed=4)
    key = "ee" * 8
    mapped_cache = CompileCache(tmp_path)
    mapped_cache.put(key, table, {"k": 1})
    mapped_cache.clear_memo()
    hit = mapped_cache.get(key)
    assert hit is not None and hit.source == "disk"
    assert not hit.table.columns[0].flags.writeable
    assert hit.table.columns[0].base is not None

    plain_cache = CompileCache(tmp_path, mmap_mode=None)
    plain_cache.clear_memo()
    plain_hit = plain_cache.get(key)
    assert plain_hit is not None
    for a, b in zip(hit.table.columns, plain_hit.table.columns):
        assert np.array_equal(a, b)


def test_truncated_archive_is_a_miss_under_mmap(tmp_path):
    table = _sample_table(seed=5)
    key = "ab" * 8
    cache = CompileCache(tmp_path)  # mmap_mode="r" default
    cache.put(key, table, {"k": 1})
    cache.clear_memo()
    npz_path = cache._paths(key)[0]
    payload = npz_path.read_bytes()
    # Truncate mid-member: the zip directory (at the tail) is gone and some
    # member payloads are cut short — every failure mode must be a miss.
    for keep in (len(payload) // 2, len(payload) - 10, 40):
        cache.put(key, table, {"k": 1})
        npz_path.write_bytes(payload[:keep])
        cache.clear_memo()
        assert cache.get(key) is None
        assert not npz_path.exists()  # dropped for a clean rebuild


def test_mmap_loader_reads_legacy_compressed_archives(tmp_path):
    # Archives written by the PR-5 savez_compressed layout predate the
    # mmap path; their members are DEFLATEd and must copy-load cleanly.
    table = _sample_table(seed=6)
    path = tmp_path / "legacy.npz"
    from repro.exec.serialize import table_to_arrays

    np.savez_compressed(path, **table_to_arrays(table))
    mapped = load_table(path, mmap_mode="r")
    for a, b in zip(mapped.columns, table.columns):
        assert np.array_equal(a, b)


def test_mmap_mode_requires_read_only(tmp_path):
    table = _sample_table(seed=7)
    path = tmp_path / "t.npz"
    save_table(path, table)
    with pytest.raises(CacheError):
        load_table(path, mmap_mode="r+")
