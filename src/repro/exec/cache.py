"""The persistent content-addressed compile cache.

Two layers in front of the compilers:

* an **in-process memo** — an LRU dict from cache key to the live
  :class:`~repro.ir.table.GateTable` (tables are immutable, so sharing one
  instance across callers is safe and also shares its gather caches);
* an **on-disk store** — one ``<key>.npz`` table archive plus a ``<key>.json``
  metadata sidecar per entry under ``cache_dir``, written atomically
  (temp file + ``os.replace``) so concurrent workers of the batch runner
  can share one directory without locks.  The store is LRU-bounded by
  total byte size: every hit touches the entry's mtime and :meth:`put`
  evicts oldest-touched entries until the budget holds.

Keys come from :func:`repro.exec.keys.cache_key`; a cache never interprets
them.  Corrupted or format-incompatible archives are treated as misses (and
deleted) rather than errors — a cache must never be able to break a build.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import CacheError
from repro.exec.keys import CODE_VERSION
from repro.exec.serialize import load_table, save_table
from repro.ir.table import GateTable

#: Default on-disk budget (bytes); lowered-circuit archives are ~10-100 KB.
DEFAULT_MAX_DISK_BYTES = 256 * 1024 * 1024

#: Default number of live tables kept in the in-process memo.
DEFAULT_MAX_MEMO_ENTRIES = 128

#: Where entries live: ``<key[:2]>/<key>.npz`` under the cache directory.
_SHARDED = "[0-9a-f][0-9a-f]/*.npz"

#: A well-formed key: lower-case hex digits, at least one.
_KEY = re.compile("[0-9a-f]+")


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem; concurrent writers of the same path leave
    whichever replacement lands last, never a torn file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


@dataclass
class CacheStats:
    """Counters for one cache instance (reset with :meth:`CompileCache.reset_stats`)."""

    memo_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memo_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


@dataclass
class CacheEntry:
    """One cache hit: the table plus its JSON metadata sidecar."""

    key: str
    table: GateTable
    meta: Dict[str, object] = field(default_factory=dict)
    source: str = "memo"  # "memo" | "disk"


class CompileCache:
    """Content-addressed store for compiled :class:`GateTable` artifacts.

    ``cache_dir=None`` gives a memo-only cache (useful in tests and as the
    per-worker layer of the batch runner when no directory is configured).
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        *,
        max_disk_bytes: int = DEFAULT_MAX_DISK_BYTES,
        max_memo_entries: int = DEFAULT_MAX_MEMO_ENTRIES,
        salt: str = CODE_VERSION,
        mmap_mode: Optional[str] = "r",
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = int(max_disk_bytes)
        self.max_memo_entries = int(max_memo_entries)
        self.salt = salt
        #: ``"r"`` maps warm ``.npz`` hits read-only (zero-copy columns whose
        #: pages are shared across fork-pool workers); ``None`` copy-loads.
        self.mmap_mode = mmap_mode
        self.stats = CacheStats()
        self._memo: "OrderedDict[str, CacheEntry]" = OrderedDict()
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _check_key(self, key: str) -> str:
        if not isinstance(key, str) or _KEY.fullmatch(key) is None:
            raise CacheError(f"malformed cache key {key!r} (expected a hex digest)")
        return key

    def _paths(self, key: str) -> Tuple[Path, Path]:
        """Canonical (sharded) location of an entry: ``<dir>/<key[:2]>/<key>.*``.

        Sharding by the first two hex characters of the content address
        spreads entries over 256 subdirectories, so many pool workers (or
        nodes sharing a network store) stop contending on one huge flat
        directory's lock/readdir path.
        """
        assert self.cache_dir is not None
        shard = self.cache_dir / key[:2]
        return shard / f"{key}.npz", shard / f"{key}.json"

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """The cached entry for ``key``, or ``None`` on a miss.

        Memo first, then disk; a disk hit is promoted into the memo and its
        mtime touched (the LRU clock of the on-disk store).
        """
        key = self._check_key(key)
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            self.stats.memo_hits += 1
            return CacheEntry(key=entry.key, table=entry.table, meta=entry.meta, source="memo")
        if self.cache_dir is None:
            self.stats.misses += 1
            return None
        npz_path, meta_path = self._paths(key)
        if not npz_path.exists():
            # Clean up a sidecar orphaned by a crash between the two writes.
            if meta_path.exists():
                self._remove(key)
            self.stats.misses += 1
            return None
        try:
            table = load_table(npz_path, mmap_mode=self.mmap_mode)
            # The sidecar is written before the npz, so a hit without one
            # means a corrupted entry — never serve a table with silently
            # empty metadata (wire roles would be wrong downstream).
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            os.utime(npz_path)
        except (CacheError, OSError, ValueError):
            # A corrupt (or concurrently evicted) artifact is a miss; drop
            # whatever is left of it so it is rebuilt cleanly.
            self._remove(key)
            self.stats.misses += 1
            return None
        entry = CacheEntry(key=key, table=table, meta=meta, source="disk")
        self._memoize(entry)
        self.stats.disk_hits += 1
        return entry

    def peek(self, key: str) -> Optional[GateTable]:
        """The memo's table for ``key``, or ``None``.

        Unlike :meth:`get` it never reads the disk, counts nothing in
        :attr:`stats` and leaves the LRU order alone, so asking whether a
        request is warm does not change what the request then records.
        """
        entry = self._memo.get(key)
        return None if entry is None else entry.table

    def __contains__(self, key: str) -> bool:
        if key in self._memo:
            return True
        return self.cache_dir is not None and self._paths(self._check_key(key))[0].exists()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, key: str, table: GateTable, meta: Optional[Dict[str, object]] = None) -> CacheEntry:
        """Store ``table`` under ``key`` (memo + atomic disk write), evicting LRU."""
        key = self._check_key(key)
        entry = CacheEntry(key=key, table=table, meta=dict(meta or {}), source="memo")
        self._memoize(entry)
        self.stats.puts += 1
        if self.cache_dir is None:
            return entry
        npz_path, meta_path = self._paths(key)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        # Sidecar first, table second, both atomic: an entry is visible
        # (npz present) only once its metadata is complete, and a crash
        # between the two leaves an orphan sidecar that get() cleans up.
        atomic_write_bytes(
            meta_path,
            json.dumps(entry.meta, indent=2, sort_keys=True, ensure_ascii=False).encode(
                "utf-8"
            )
            + b"\n",
        )
        fd, tmp_name = tempfile.mkstemp(dir=npz_path.parent, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                save_table(handle, table)
            os.replace(tmp_name, npz_path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self._evict_over_budget(protect=key)
        return entry

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _memoize(self, entry: CacheEntry) -> None:
        self._memo[entry.key] = entry
        self._memo.move_to_end(entry.key)
        while len(self._memo) > self.max_memo_entries:
            self._memo.popitem(last=False)

    def _remove(self, key: str, npz_path: Optional[Path] = None) -> None:
        """Forget ``key`` and delete its archive (``npz_path``, by default
        the sharded location) and sidecar."""
        self._memo.pop(key, None)
        if self.cache_dir is None:
            return
        npz_path = npz_path or self._paths(key)[0]
        for path in (npz_path, npz_path.with_suffix(".json")):
            try:
                path.unlink()
            except OSError:
                pass

    def _disk_entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, bytes, archive) for every table archive on disk, oldest first.

        Top-level ``<key>.npz`` files, left by stores written before entries
        were sharded, are listed too: no key names them any more, but they
        count against ``max_disk_bytes`` until evicted.
        """
        assert self.cache_dir is not None
        entries = []
        for npz_path in [*self.cache_dir.glob("*.npz"), *self.cache_dir.glob(_SHARDED)]:
            try:
                stat = npz_path.stat()
            except OSError:  # racing eviction from another worker
                continue
            entries.append((stat.st_mtime, stat.st_size, npz_path))
        entries.sort()
        return entries

    def _evict_over_budget(self, protect: Optional[str] = None) -> None:
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        for _, size, npz_path in entries:
            if total <= self.max_disk_bytes:
                break
            if npz_path.stem == protect:
                continue
            self._remove(npz_path.stem, npz_path)
            self.stats.evictions += 1
            total -= size

    # ------------------------------------------------------------------
    # Startup warming
    # ------------------------------------------------------------------
    def warm_scan(self, limit: Optional[int] = None) -> Dict[str, int]:
        """Promote the newest on-disk entries into the in-process memo.

        Startup warming for long-running services: each entry goes through
        the normal :meth:`get` path, so its ``.npz`` is mmap'd (faulting
        its pages into the OS page cache, which fork-pool workers then
        share) and corrupt archives are dropped rather than served later.
        At most ``limit`` entries are loaded (default: the memo capacity),
        newest-mtime first so the memo LRU ends with the hottest entries
        freshest.  Counts as ordinary cache traffic in :attr:`stats`.

        Returns ``{"scanned", "warmed", "dropped", "bytes"}``.
        """
        summary = {"scanned": 0, "warmed": 0, "dropped": 0, "bytes": 0}
        if self.cache_dir is None:
            return summary
        if limit is None:
            limit = self.max_memo_entries
        entries = self._disk_entries()  # oldest first
        chosen = entries[-limit:] if limit >= 0 else entries
        for _, size, npz_path in chosen:  # oldest → newest keeps LRU order right
            key = npz_path.stem
            summary["scanned"] += 1
            try:
                self._check_key(key)
            except CacheError:  # a foreign file in the directory, not ours
                summary["dropped"] += 1
                continue
            if self.get(key) is None:
                summary["dropped"] += 1
            else:
                summary["warmed"] += 1
                summary["bytes"] += size
        return summary

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every key currently retrievable (memo ∪ disk), unordered."""
        out = set(self._memo)
        if self.cache_dir is not None:
            out.update(path.stem for path in self.cache_dir.glob(_SHARDED))
        return sorted(out)

    def disk_bytes(self) -> int:
        if self.cache_dir is None:
            return 0
        return sum(size for _, size, _ in self._disk_entries())

    def clear_memo(self) -> None:
        """Drop the in-process layer (disk entries survive)."""
        self._memo.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.cache_dir) if self.cache_dir is not None else "memo-only"
        return f"CompileCache({where}, entries={len(self.keys())}, {self.stats.as_dict()})"
