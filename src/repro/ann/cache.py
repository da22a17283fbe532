"""Cross-level ANN index reuse for the merge hierarchy.

Hierarchical merging (Algorithm 2) and incremental matching rebuild a fresh
ANN index over the carried-forward side of every two-table merge even when
most of its vectors are unchanged. :class:`IndexCache` removes that rebuild
in the two cases where reuse is *exactly* equivalent to building from
scratch:

* **exact hit** — the requested vector matrix is byte-identical to one a
  cached index was built over (e.g. an odd leftover table carried to the next
  hierarchy level, or an integrated table that absorbed no new pairs): the
  cached index is returned as-is.
* **prefix hit** — a cached index's matrix is a byte-identical *prefix* of
  the requested matrix and the backend supports incremental insertion
  (``extend`` + ``clone``, currently HNSW and brute force): the cached index
  is cloned and only the tail rows are inserted. Because
  ``build(v).extend(w)`` is byte-identical to ``build([v; w])`` (the level
  RNG stream continues across the two calls), the result matches a fresh
  build bit for bit. This is the common shape after a merge that matched no
  (or only right-side) items: the output table is ``[left rows; new rows]``.

Entries are keyed by a *params key* (resolved backend + metric + index
hyper-parameters — indexes built with different knobs are never shared) plus
a content fingerprint (BLAKE2b over the raw vector bytes). Matrices that
merely overlap (rows dropped or replaced mid-table) are rebuilt from scratch:
an approximate-reuse path would change mutual-pair output, which the
reproduction treats as non-negotiable.

The cache is safe to share across the worker threads of
``MultiEM(parallel)``: bookkeeping happens under a lock, while index builds
and clone-extends run outside it (a racing duplicate build is benign — last
writer wins).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from ..exceptions import ConfigurationError
from .base import NearestNeighborIndex


def index_params_key(backend: str, metric: str, kwargs: dict) -> tuple:
    """Canonical cache params key for an index build: ``(backend, metric, sorted kwargs)``."""
    return (backend, metric, tuple(sorted(kwargs.items())))


def fingerprint_vectors(vectors: np.ndarray) -> str:
    """Cheap content fingerprint of a vector matrix (shape + BLAKE2b of bytes)."""
    vectors = np.ascontiguousarray(vectors)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(vectors.shape).encode())
    digest.update(str(vectors.dtype).encode())
    digest.update(vectors.tobytes())
    return digest.hexdigest()


@dataclass
class _CacheEntry:
    params_key: Hashable
    fingerprint: str
    vectors: np.ndarray
    index: NearestNeighborIndex


@dataclass
class IndexCacheStats:
    """Reuse counters (``saved_rows`` = rows whose insertion was skipped)."""

    exact_hits: int = 0
    prefix_hits: int = 0
    misses: int = 0
    saved_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "exact_hits": self.exact_hits,
            "prefix_hits": self.prefix_hits,
            "misses": self.misses,
            "saved_rows": self.saved_rows,
        }


@dataclass
class IndexCache:
    """LRU cache of built ANN indexes with exact and prefix-extend reuse."""

    max_entries: int = 8
    stats: IndexCacheStats = field(default_factory=IndexCacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self._entries: OrderedDict[tuple[Hashable, str], _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        vectors: np.ndarray,
        build: Callable[[], NearestNeighborIndex],
        *,
        params_key: Hashable = (),
    ) -> NearestNeighborIndex:
        """Return an index over ``vectors``, reusing cached work when exact.

        The returned index must be treated as **read-only**: an exact hit
        hands back the cached object itself (possibly shared with other
        callers), so mutating it — e.g. calling ``extend`` directly — would
        corrupt the cache's fingerprint-to-index mapping. To grow a cached
        index, call ``get_or_build`` with the grown matrix and let the cache
        take the clone-and-extend path.

        Args:
            vectors: the matrix the index must cover, row-aligned.
            build: zero-argument builder invoked on a cache miss.
            params_key: hashable description of everything that shapes the
                index besides its vectors (backend, metric, hyper-parameters).
        """
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float32))
        digest = fingerprint_vectors(vectors)
        key = (params_key, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.exact_hits += 1
                self.stats.saved_rows += int(vectors.shape[0])
                return entry.index
            prefix_entry = self._find_prefix_entry(params_key, vectors)
        if prefix_entry is not None:
            extended = prefix_entry.index.clone().extend(  # type: ignore[attr-defined]
                vectors[prefix_entry.vectors.shape[0] :]
            )
            with self._lock:
                self.stats.prefix_hits += 1
                self.stats.saved_rows += int(prefix_entry.vectors.shape[0])
            self._put(params_key, digest, vectors, extended)
            return extended
        index = build()
        with self._lock:
            self.stats.misses += 1
        self._put(params_key, digest, vectors, index)
        return index

    def _find_prefix_entry(self, params_key: Hashable, vectors: np.ndarray) -> _CacheEntry | None:
        """Longest cached entry whose matrix is a byte-identical prefix of ``vectors``.

        Caller must hold the lock; the returned entry's arrays are never
        mutated in place, so they remain valid after release.
        """
        best: _CacheEntry | None = None
        for entry in self._entries.values():
            if entry.params_key != params_key:
                continue
            cached = entry.vectors
            rows = cached.shape[0]
            if (
                not hasattr(entry.index, "extend")
                or not hasattr(entry.index, "clone")
                or cached.ndim != vectors.ndim
                or cached.shape[1:] != vectors.shape[1:]
                or rows == 0
                or rows >= vectors.shape[0]
                or (best is not None and rows <= best.vectors.shape[0])
            ):
                continue
            # Cheap first/last row screen before the full byte comparison.
            if not np.array_equal(cached[0], vectors[0]) or not np.array_equal(
                cached[rows - 1], vectors[rows - 1]
            ):
                continue
            if np.array_equal(cached, vectors[:rows]):
                best = entry
        return best

    def _put(
        self,
        params_key: Hashable,
        digest: str,
        vectors: np.ndarray,
        index: NearestNeighborIndex,
    ) -> None:
        with self._lock:
            key = (params_key, digest)
            self._entries[key] = _CacheEntry(
                params_key=params_key, fingerprint=digest, vectors=vectors, index=index
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def snapshot(self) -> list[tuple[Hashable, np.ndarray, NearestNeighborIndex]]:
        """Picklable ``(params_key, vectors, index)`` entries, LRU order.

        Used to seed the worker-local caches of a persistent process pool
        (:mod:`repro.core.parallel`): entries ship once at pool start-up, and
        because cache reuse is exact, a seeded worker produces byte-identical
        results — it just skips rebuilding indexes the parent already has.
        The returned arrays and indexes are the live (read-only by contract)
        cached objects; pickling copies them on the way to the workers.

        The same entries also persist to disk: ``repro.store.codecs``
        serializes them (``index_cache_state`` / ``index_cache_from_state``)
        into the mmap-able snapshot format, and a cache restored from a
        snapshot keeps exact content-hit and prefix-extend reuse — in this
        process or any other (pinned by
        ``tests/store/test_cache_store_roundtrip.py``).
        """
        with self._lock:
            return [
                (entry.params_key, entry.vectors, entry.index)
                for entry in self._entries.values()
            ]

    def seed(self, entries: "list[tuple[Hashable, np.ndarray, NearestNeighborIndex]]") -> None:
        """Install :meth:`snapshot` entries (oldest first, normal LRU rules)."""
        for params_key, vectors, index in entries:
            self._put(params_key, fingerprint_vectors(vectors), vectors, index)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = IndexCacheStats()
