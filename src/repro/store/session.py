"""Load-and-serve matching: snapshot a fitted pipeline, restore, keep matching.

:func:`save_session` writes the complete fitted state of an
:class:`~repro.core.incremental.IncrementalMultiEM` — pipeline config, the
fitted encoder (IDF vocabulary / SVD basis), the integrated
:class:`~repro.core.merging.ItemTable`, the
:class:`~repro.core.representation.EmbeddingStore`, and the live
:class:`~repro.ann.cache.IndexCache` — into one snapshot file.
:class:`MatchSession` (or :func:`load_matcher`) restores it without
re-running any pipeline stage: with ``mmap=True`` every vector plane is a
zero-copy view over the mapped file, so a cold process starts answering
``match_new_table`` / ``query`` calls in the time it takes to parse the
manifest.

Restores are exact: the snapshot records content digests of the integrated
table and the embedding store at save time, ``load`` re-derives and verifies
them (``verify=False`` to skip), and a restored matcher's ``add_table``
produces byte-for-byte the tuples the in-memory matcher would have — pinned
by ``tests/store/test_session.py``.

Sessions also persist **incrementally**: after a full save (or load), the
matcher remembers its on-disk base, and :func:`save_session_delta` writes
only what changed since — a chain segment next to the base (see
:mod:`repro.store.format` for the chain layout and :mod:`repro.store.delta`
for the diff ops). ``load_matcher`` / :meth:`MatchSession.load` accept a
chain tip transparently: the chain is resolved, link digests verified, and
the reconstructed state is byte-identical to a single full snapshot of the
same matcher — which :func:`compact_session` can then write out, collapsing
any chain back into one self-contained, buffer-aliased base file.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from ..core.incremental import IncrementalMultiEM
from ..core.merging import merge_index_kwargs
from ..data.table import Table
from ..exceptions import StoreError
from . import codecs
from .delta import diff_bundle, resolve_chain_arrays, snapshot_arrays
from .format import DeltaWriter, Snapshot, SnapshotChain, SnapshotWriter
from .fsck import deepest_intact, sweep_partials, write_retirement_marker
from .lock import StoreLock

logger = logging.getLogger("repro.store")

#: Snapshot meta ``"type"`` marker for session snapshots.
SESSION_TYPE = "multiem_session"


def _store_dir(path) -> str:
    return os.path.dirname(os.path.abspath(os.fspath(path))) or "."


def session_state_bundle(state) -> "tuple[dict, dict[str, np.ndarray]]":
    """Flatten a matcher's ``snapshot_state`` into ``(bundle_metas, arrays)``.

    ``arrays`` is the ordered flat logical-array mapping every save path
    (full, delta, compacted) works over — ``table/…``, ``store/…``,
    ``encoder/…``, ``cache/…`` — and ``bundle_metas`` holds the four bundle
    meta trees (``cache`` is ``None`` when the matcher runs cacheless), each
    carrying its ``__arrays__`` name list.
    """
    parts = [
        ("table", "table/", codecs.item_table_state(state["table"])),
        ("store", "store/", codecs.embedding_store_state(state["store"])),
        ("encoder", "encoder/", codecs.encoder_state(state["encoder"])),
    ]
    if state["index_cache"] is not None:
        parts.append(("cache", "cache/", codecs.index_cache_state(state["index_cache"])))
    if state.get("item_owners") is not None:
        merging = state["config"].merging
        parts.append(
            (
                "shard",
                "shard/",
                codecs.shard_plan_state(
                    state["item_owners"], merging.shards, merging.shard_key
                ),
            )
        )
    metas: dict = {"cache": None, "shard": None}
    arrays: dict = {}
    for key, prefix, (meta, bundle) in parts:
        meta = dict(meta)
        meta["__arrays__"] = list(bundle)
        metas[key] = meta
        for name, array in bundle.items():
            arrays[prefix + name] = array
    return metas, arrays


def _session_meta(state, metas: dict, digests: dict) -> dict:
    # Key order is part of the byte-pinned manifest; do not reorder. The
    # "shard" key is appended last and only for sharded fits, so unsharded
    # snapshot bytes are unchanged by the sharding feature.
    meta = {
        "type": SESSION_TYPE,
        "config": codecs.config_to_meta(state["config"]),
        "attributes": list(state["attributes"]),
        "schema": list(state["schema"]),
        "known_sources": list(state["known_sources"]),
        "digests": digests,
        "table": metas["table"],
        "store": metas["store"],
        "encoder": metas["encoder"],
        "cache": metas["cache"],
    }
    if metas.get("shard") is not None:
        meta["shard"] = metas["shard"]
    return meta


def _state_digests(state) -> dict:
    return {
        "item_table": codecs.item_table_digest(state["table"]),
        "embedding_store": codecs.embedding_store_digest(state["store"]),
    }


def _record_base(matcher: IncrementalMultiEM, path, meta: dict, arrays: dict, depth: int) -> None:
    """Remember the matcher's on-disk base so the next save can emit a delta.

    Captured by reference, not by re-reading the file: the pipeline never
    mutates published arrays (stores append blocks, caches clone before
    extending, merges build fresh arrays), so the captured objects stay the
    exact bytes the snapshot holds. Snapshots without a recorded payload
    digest (pre-chain files) cannot anchor a chain, so no base is recorded.
    """
    payload = (meta.get("digests") or {}).get("payload")
    matcher._base = (
        None
        if payload is None
        else {
            "path": os.path.abspath(os.fspath(path)),
            "payload": payload,
            "depth": int(depth),
            "meta": meta,
            "arrays": dict(arrays),
        }
    )


def save_session(matcher: IncrementalMultiEM, path) -> dict:
    """Write a fitted matcher's full state to ``path``; returns the digest record."""
    state = matcher.snapshot_state()
    metas, arrays = session_state_bundle(state)
    writer = SnapshotWriter(segment_digests=True)
    for name, array in arrays.items():
        writer.add_array(name, array)
    digests = _state_digests(state)
    # Whole-payload digest: every segment of every embedded object
    # (encoder, index cache, config arrays included), so load-time
    # verification covers the entire snapshot, not just the two core
    # structures whose object-level digests are reported above.
    digests["payload"] = writer.payload_digest()
    meta = _session_meta(state, metas, digests)
    writer.set_meta(meta)
    with StoreLock(_store_dir(path)):
        writer.save(path)
    _record_base(matcher, path, meta, arrays, depth=0)
    return digests


def save_session_delta(matcher: IncrementalMultiEM, path) -> dict:
    """Write only what changed since the matcher's recorded base snapshot.

    Produces a chain segment next to the base (parents resolve by basename):
    unchanged arrays become zero-byte refs, the integrated table's vector
    plane row-patches, carried-over index-cache entries ref their old
    segments even after LRU reordering. The manifest still carries the
    *complete* session meta plus the reconstructed-state digests, so a chain
    tip describes the whole logical state. Returns the digest record.
    """
    base = getattr(matcher, "_base", None)
    if base is None:
        raise StoreError("matcher has no base snapshot; save a full session first")
    path_abs = os.path.abspath(os.fspath(path))
    if path_abs == base["path"]:
        raise StoreError("a delta cannot overwrite its own base; use a sibling path")
    if os.path.dirname(path_abs) != os.path.dirname(base["path"]):
        raise StoreError(
            "a delta must be written next to its base "
            f"(base lives at {base['path']!r}); parents resolve by basename"
        )
    state = matcher.snapshot_state()
    metas, arrays = session_state_bundle(state)
    pairing: dict = {}
    if metas["cache"] is not None and base["meta"].get("cache") is not None:
        new_cache = {n[len("cache/"):]: a for n, a in arrays.items() if n.startswith("cache/")}
        base_cache = {
            n[len("cache/"):]: a for n, a in base["arrays"].items() if n.startswith("cache/")
        }
        entry_pairing = codecs.index_cache_pairing(
            (metas["cache"], new_cache), (base["meta"]["cache"], base_cache)
        )
        pairing = {"cache/" + new: "cache/" + old for new, old in entry_pairing.items()}
    spec, segments = diff_bundle(arrays, base["arrays"], pairing=pairing)
    writer = DeltaWriter(
        base["path"], base["payload"], base["depth"] + 1, segment_digests=True
    )
    for name, segment in segments.items():
        writer.add_array(name, segment)
    writer.set_delta(spec)
    digests = _state_digests(state)
    # Over this file's own segments only; parent payloads are covered by the
    # chain links (each child records the payload digest it was diffed
    # against, re-checked by SnapshotChain.verify_links).
    digests["payload"] = writer.payload_digest()
    meta = _session_meta(state, metas, digests)
    writer.set_meta(meta)
    with StoreLock(_store_dir(path)):
        writer.save(path)
    _record_base(matcher, path, meta, arrays, depth=base["depth"] + 1)
    return digests


def _restore_state(
    meta, arrays, *, verify: bool, payload_digest
) -> IncrementalMultiEM:
    """Rehydrate a matcher from a session meta tree plus flat logical arrays.

    ``payload_digest`` is a zero-arg callable deriving the digest to check
    against the recorded one (only invoked when ``verify`` needs it).
    """
    if not isinstance(meta, dict) or meta.get("type") != SESSION_TYPE:
        raise StoreError("snapshot does not hold a MultiEM session")
    table = codecs.item_table_from_state(
        meta["table"], codecs.unpack_arrays(arrays, "table/", meta["table"])
    )
    store = codecs.embedding_store_from_state(
        meta["store"], codecs.unpack_arrays(arrays, "store/", meta["store"])
    )
    if verify:
        recorded = meta["digests"]
        derived = {
            "item_table": codecs.item_table_digest(table),
            "embedding_store": codecs.embedding_store_digest(store),
        }
        if "payload" in recorded:
            derived["payload"] = payload_digest()
        if derived != recorded:
            raise StoreError(
                f"snapshot digests do not match its contents: recorded {recorded}, "
                f"derived {derived} (corrupted or truncated file)"
            )
    encoder = codecs.encoder_from_state(
        meta["encoder"], codecs.unpack_arrays(arrays, "encoder/", meta["encoder"])
    )
    cache = None
    if meta.get("cache") is not None:
        cache = codecs.index_cache_from_state(
            meta["cache"], codecs.unpack_arrays(arrays, "cache/", meta["cache"])
        )
    item_owners = None
    if meta.get("shard") is not None:
        item_owners = codecs.shard_plan_from_state(
            meta["shard"], codecs.unpack_arrays(arrays, "shard/", meta["shard"])
        )
    return IncrementalMultiEM.from_snapshot_state(
        config=codecs.config_from_meta(meta["config"]),
        encoder=encoder,
        attributes=tuple(meta["attributes"]),
        schema=tuple(meta["schema"]),
        table=table,
        store=store,
        known_sources=meta["known_sources"],
        index_cache=cache,
        item_owners=item_owners,
    )


def _restore(snapshot: Snapshot, *, verify: bool) -> IncrementalMultiEM:
    if snapshot.chain is not None:
        raise StoreError(
            "this snapshot is a chain delta; open it through MatchSession.load / "
            "load_matcher (or SnapshotChain) so its ancestry is resolved"
        )
    return _restore_state(
        snapshot.meta,
        snapshot_arrays(snapshot),
        verify=verify,
        payload_digest=snapshot.payload_digest,
    )


def _open_chain_once(path, *, mmap: bool, verify: bool):
    chain = SnapshotChain.open(path, mmap=mmap)
    try:
        if verify and chain.depth > 0:
            chain.verify_links()
        arrays = resolve_chain_arrays(chain)
        meta = chain.meta
        matcher = _restore_state(
            meta, arrays, verify=verify, payload_digest=chain.tip.payload_digest
        )
        _record_base(matcher, chain.paths[-1], meta, arrays, depth=chain.depth)
        return matcher, meta
    finally:
        if not mmap:
            chain.close()


def _open_chain_session(path, *, mmap: bool, verify: bool, allow_rollback: bool = False):
    """Open a snapshot (or chain tip), restore the matcher; ``(matcher, meta)``.

    Opening first sweeps partial files left by provably-dead writers (a live
    writer's in-flight temp is never touched). With ``allow_rollback=True``,
    a tip that fails to open or verify falls back to its deepest intact
    ancestor (:func:`repro.store.fsck.deepest_intact`) — an explicit opt-in,
    because it silently serves older state.
    """
    sweep_partials(_store_dir(path))
    try:
        return _open_chain_once(path, mmap=mmap, verify=verify)
    except StoreError:
        if not allow_rollback:
            raise
        fallback = deepest_intact(path)
        if fallback is None or os.path.abspath(fallback) == os.path.abspath(
            os.fspath(path)
        ):
            raise
        logger.warning(
            "snapshot %s failed to load; rolling back to deepest intact ancestor %s",
            os.fspath(path),
            fallback,
        )
        return _open_chain_once(fallback, mmap=mmap, verify=verify)


def load_matcher(
    path, *, mmap: bool = True, verify: bool = True, allow_rollback: bool = False
) -> IncrementalMultiEM:
    """Restore a fitted :class:`IncrementalMultiEM` from a session snapshot.

    ``path`` may be a base snapshot or any chain delta: the whole ancestry
    is resolved and folded, and the restored state is byte-identical to a
    single full snapshot of the same matcher. With ``mmap=True`` the
    matcher's arrays stay backed by the mapped file(s) (zero copies,
    read-only); the mappings live as long as the arrays do. ``verify=True``
    re-derives and checks the recorded content digests — chain link digests
    included. ``allow_rollback=True`` falls back to the deepest intact
    ancestor when the tip is damaged (explicit opt-in: it serves older
    state).
    """
    matcher, _ = _open_chain_session(
        path, mmap=mmap, verify=verify, allow_rollback=allow_rollback
    )
    return matcher


def compact_session(
    path, out_path, *, mmap: bool = True, verify: bool = True, retire: bool = False
) -> dict:
    """Collapse the chain ending at ``path`` into one base file at ``out_path``.

    The output is a self-contained session snapshot, byte-identical to the
    full snapshot the tip matcher would have saved directly — buffer
    aliasing included, because chain reconstruction binds aliased segments
    back to single objects. The source chain is left untouched; with
    ``retire=True`` (chain and output in the same directory) a retirement
    marker is written next to the output naming the superseded chain files,
    which authorizes a later ``gc_store`` pass to delete them once the
    compacted file re-verifies. Returns the digest record of the compacted
    snapshot.
    """
    out_abs = os.path.abspath(os.fspath(out_path))
    with StoreLock(_store_dir(out_path)):
        chain = SnapshotChain.open(path, mmap=mmap)
        try:
            if any(os.path.abspath(p) == out_abs for p in chain.paths):
                raise StoreError(
                    "refusing to compact onto a live chain member; write to a fresh "
                    "path, then retire the old chain"
                )
            superseded: dict[str, str] = {}
            if retire:
                chain_dir = os.path.dirname(os.path.abspath(chain.paths[0])) or "."
                if chain_dir != _store_dir(out_path):
                    raise StoreError(
                        "retire=True requires the compacted output to live in the "
                        f"chain's own directory ({chain_dir!r}); markers and gc are "
                        "per-directory"
                    )
                superseded = {
                    os.path.basename(p): snapshot.payload_digest()
                    for p, snapshot in zip(chain.paths, chain.snapshots)
                }
            if verify and chain.depth > 0:
                chain.verify_links()
            matcher = _restore_state(
                chain.meta,
                resolve_chain_arrays(chain),
                verify=verify,
                payload_digest=chain.tip.payload_digest,
            )
        finally:
            if not mmap:
                chain.close()
        try:
            digests = save_session(matcher, out_path)
        finally:
            matcher.close()
        if retire:
            write_retirement_marker(out_abs, digests["payload"], superseded)
        return digests


class _QueryContext:
    """Per-session query plumbing, resolved once instead of per request.

    ``MatchSession.query`` used to rebuild the merging config's
    ``index_kwargs`` dict, re-import the backend registry, and re-resolve the
    backend + cache params key on **every** call — pure Python dispatch that
    dwarfs the actual native re-rank once a coalescer drives thousands of
    requests through the session. This object hoists all of it: the encoder
    handle, the kwargs dict, the default distance cutoff, and a per-table-size
    memo of the resolved backend's cache params key (backend resolution is a
    function of the row count alone, which only changes on ``add_table``).
    """

    __slots__ = (
        "representer",
        "merging",
        "cache",
        "index_kwargs",
        "default_max_distance",
        "_resolved",
    )

    def __init__(self, matcher: IncrementalMultiEM) -> None:
        assert matcher._representer is not None
        self.representer = matcher._representer
        merging = matcher.config.merging
        self.merging = merging
        self.cache = matcher._index_cache
        self.default_max_distance = merging.m
        self.index_kwargs = merge_index_kwargs(merging)
        self._resolved: dict[int, str] = {}

    def index_for(self, table):
        """The query index over ``table.vectors`` (cache-hit when possible)."""
        from ..ann.cache import index_params_key
        from ..ann.mutual import create_index, resolve_backend

        merging = self.merging
        size = int(table.vectors.shape[0])

        def build():
            return create_index(
                merging.index,
                merging.metric,
                size_hint=size,
                brute_force_limit=merging.brute_force_limit,
                **self.index_kwargs,
            ).build(table.vectors)

        if self.cache is None:
            return build()
        # Same params key the merge stage uses, so a query content-hits the
        # index a previous merge (or query) already built. Resolution is
        # memoized by row count — the only input that varies per session.
        params_key = self._resolved.get(size)
        if params_key is None:
            resolved = resolve_backend(merging.index, size, merging.brute_force_limit)
            params_key = index_params_key(resolved, merging.metric, self.index_kwargs)
            self._resolved[size] = params_key
        return self.cache.get_or_build(table.vectors, build, params_key=params_key)


class MatchSession:
    """A restored pipeline serving match and nearest-tuple queries.

    Wraps the rehydrated :class:`IncrementalMultiEM` with the two serving
    calls a snapshot exists for; the underlying matcher stays available as
    :attr:`matcher` for anything else (evaluation, further snapshots).
    """

    def __init__(self, matcher: IncrementalMultiEM, digests: dict | None = None) -> None:
        self.matcher = matcher
        self.digests = dict(digests or {})
        self._query_context: _QueryContext | None = None

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot, *, verify: bool = True) -> "MatchSession":
        """Build a session over an already-open :class:`Snapshot`.

        Lets a caller that needs the raw manifest (array names, payload
        size) open the file once and reuse the same mapping for the restore
        instead of parsing it twice.
        """
        matcher = _restore(snapshot, verify=verify)
        meta = snapshot.meta
        return cls(matcher, meta.get("digests") if isinstance(meta, dict) else None)

    @classmethod
    def load(
        cls,
        path,
        *,
        mmap: bool = True,
        verify: bool = True,
        allow_rollback: bool = False,
    ) -> "MatchSession":
        """Open a session snapshot or chain tip (see :func:`load_matcher`)."""
        matcher, meta = _open_chain_session(
            path, mmap=mmap, verify=verify, allow_rollback=allow_rollback
        )
        return cls(matcher, meta.get("digests") if isinstance(meta, dict) else None)

    # ------------------------------------------------------------- serving
    def match_new_table(self, table: Table):
        """Fold one new source table into the restored state (no refit).

        Exactly :meth:`IncrementalMultiEM.add_table` — one two-table merge
        against the integrated table plus a pruning pass — and byte-for-byte
        the result the never-snapshotted matcher would return.
        """
        return self.matcher.add_table(table)

    def query(self, texts, k: int = 1, max_distance: float | None = None):
        """Nearest integrated tuples for raw serialized texts.

        Encodes ``texts`` with the restored encoder and searches the
        integrated table with the configured ANN backend (through the
        restored index cache, so repeated queries — and a cache warmed by a
        previous ``add_table`` — never rebuild the index). Returns one list
        per text of ``(members, distance)`` pairs, nearest first; pairs
        beyond ``max_distance`` (default: the merging threshold ``m``) are
        dropped. A thin alias of :meth:`query_many`.
        """
        return self.query_many(texts, k=k, max_distance=max_distance)

    def query_many(self, texts, k: int = 1, max_distance: float | None = None):
        """Batched nearest-tuple lookup; per-text answers are batch-invariant.

        The serving plane's hot path: all per-session config plumbing lives
        in a prepared :class:`_QueryContext` built on first use, and the
        index query goes through :func:`repro.ann.engine.query_rows`, whose
        contract is that each text's answer is bit-identical however the
        batch is composed. That is what lets the request coalescer fold
        concurrent requests into one ``encode_texts`` + one index query and
        slice per-request results back out byte-identically (pinned by
        ``tests/serve/test_coalescer.py``).
        """
        table = self.matcher.integrated_table
        if len(table) == 0:
            return [[] for _ in texts]
        context = self._query_context
        if context is None:
            context = self._query_context = _QueryContext(self.matcher)
        if max_distance is None:
            max_distance = context.default_max_distance
        vectors = context.representer.encode_texts(list(texts))
        index = context.index_for(table)
        from ..ann.engine import query_rows

        indices, distances = query_rows(index, vectors, k)
        from ..data.entity import EntityRef

        def members_of(item: int) -> tuple:
            start, stop = int(table.member_offsets[item]), int(table.member_offsets[item + 1])
            return tuple(
                EntityRef(table.sources[int(sid)], int(idx))
                for sid, idx in zip(
                    table.member_sources[start:stop], table.member_indices[start:stop]
                )
            )

        results = []
        for row in range(indices.shape[0]):
            hits = []
            for slot in range(indices.shape[1]):
                item = int(indices[row, slot])
                dist = float(distances[row, slot])
                if item < 0 or not np.isfinite(dist) or dist > max_distance:
                    continue
                hits.append((members_of(item), dist))
            results.append(hits)
        return results

    # ------------------------------------------------------------ plumbing
    @property
    def known_sources(self) -> tuple[str, ...]:
        return self.matcher.known_sources

    def close(self) -> None:
        """Release the matcher's worker pools (the mapping follows its arrays)."""
        self.matcher.close()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
