"""State codecs: flat-array core objects ↔ snapshot (meta, arrays) bundles.

Every codec is a pure pair of functions::

    *_state(obj)            -> (meta, {relative_name: ndarray})
    *_from_state(meta, arrays)

where ``meta`` is a JSON-serializable tree and the arrays dict holds raw
numpy buffers. :func:`pack` / :func:`unpack` shuttle a bundle into / out of a
:class:`~repro.store.format.SnapshotWriter` / ``Snapshot`` under a name
prefix (the array-name list rides in the meta under ``"__arrays__"``), so
bundles nest — an :class:`~repro.ann.cache.IndexCache` entry embeds a whole
index bundle under an ``e{i}/index/`` prefix.

Restored arrays are adopted **verbatim** (zero-copy when the snapshot is
memory-mapped): a loaded object computes the exact bytes the saved one did —
CSR bucket tables, adjacency, and RNG states all round-trip as raw state.
The one exception is the prepared distance row statistics (normalized rows /
squared norms), which are a deterministic per-row function of the stored
vectors and are recomputed byte-identically on restore instead of being
persisted — they were the largest derived plane in every snapshot.

Alongside its full state, every core type also has a **delta state** — the
same bundle diffed against a base bundle through :mod:`repro.store.delta`
(``*_delta_state(obj, base_obj) -> (meta, delta_spec, segments)``), which is
what the append-only snapshot chain stores per
:meth:`~repro.core.incremental.IncrementalMultiEM.save`:

* :func:`item_table_delta_state` — the merge keeps untouched items at their
  positions with identical bytes, so the dominant ``(n, d)`` vector plane
  row-patches (changed representatives + appended tail) while the small CSR
  member columns fall back to full storage automatically;
* :func:`embedding_store_delta_state` — strictly append-only: new source
  blocks store outright, existing blocks become zero-byte refs;
* :func:`index_cache_delta_state` — entries are aligned to the base by
  params key and content (:func:`index_cache_pairing`), so a carried-over
  entry refs its old segments even after LRU reordering and a
  prefix-extended HNSW index stores only its adjacency-CSR extension (the
  rewired rows + appended rows per layer) with the advanced PCG64 RNG state
  riding in the entry meta;
* :func:`encoder_delta_state` — fitted encoders never change after ``fit``,
  so their arrays all collapse to refs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Mapping

import numpy as np

from ..ann.brute_force import BruteForceIndex
from ..ann.cache import IndexCache
from ..ann.hnsw import HNSWIndex
from ..ann.lsh import LSHIndex
from ..config import (
    MergingConfig,
    MultiEMConfig,
    ParallelConfig,
    PruningConfig,
    RepresentationConfig,
)
from ..core.merging import ItemTable
from ..core.representation import EmbeddingStore
from ..exceptions import StoreError
from .delta import apply_bundle, bytes_equal, diff_bundle
from .format import (
    Snapshot,
    SnapshotWriter,
    string_table_arrays,
    strings_from_arrays,
    tag_tuples,
    untag_tuples,
)


# ------------------------------------------------------------------- plumbing
def pack(writer: SnapshotWriter, prefix: str, state) -> dict:
    """Write a ``(meta, arrays)`` bundle under ``prefix``; returns the meta."""
    meta, arrays = state
    meta = dict(meta)
    meta["__arrays__"] = list(arrays)
    for name, array in arrays.items():
        writer.add_array(prefix + name, array)
    return meta


def unpack(snapshot: Snapshot, prefix: str, meta: dict) -> "dict[str, np.ndarray]":
    """Read back the arrays of a bundle written by :func:`pack`."""
    return {name: snapshot.array(prefix + name) for name in meta["__arrays__"]}


def unpack_arrays(
    arrays: "Mapping[str, np.ndarray]", prefix: str, meta: dict
) -> "dict[str, np.ndarray]":
    """:func:`unpack` against a flat logical-array mapping (chain restores)."""
    return {name: arrays[prefix + name] for name in meta["__arrays__"]}


def _prefixed(prefix: str, arrays: "Mapping[str, np.ndarray]") -> "dict[str, np.ndarray]":
    return {prefix + name: array for name, array in arrays.items()}


# ------------------------------------------------------------------ ItemTable
def item_table_state(table: ItemTable):
    """State bundle of a flat merge-item table."""
    return (
        {"type": "item_table", "sources": list(table.sources)},
        {
            "vectors": table.vectors,
            "member_sources": table.member_sources,
            "member_indices": table.member_indices,
            "member_offsets": table.member_offsets,
        },
    )


def item_table_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> ItemTable:
    return ItemTable(
        arrays["vectors"],
        arrays["member_sources"],
        arrays["member_indices"],
        arrays["member_offsets"],
        tuple(meta["sources"]),
    )


# ------------------------------------------------------------------ ShardPlan
def shard_plan_state(item_owners: np.ndarray, num_shards: int, shard_key: str):
    """State bundle of a sharded fit's owner assignment over the integrated table.

    One ``int32`` owner id per integrated item (``0..num_shards-1`` cores,
    ``num_shards`` spill); the key family and shard count ride in the meta so
    a restored matcher can sanity-check them against its config.
    """
    return (
        {"type": "shard_plan", "num_shards": int(num_shards), "shard_key": shard_key},
        {"item_owners": np.ascontiguousarray(item_owners, dtype=np.int32)},
    )


def shard_plan_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> np.ndarray:
    if meta.get("type") != "shard_plan":
        raise StoreError(f"expected a shard_plan bundle, got {meta.get('type')!r}")
    return arrays["item_owners"]


# ------------------------------------------------------------- EmbeddingStore
def embedding_store_state(store: EmbeddingStore):
    """State bundle of the flat embedding column store (one block per source)."""
    blocks = store.blocks()
    arrays = {f"block{i}": matrix for i, matrix in enumerate(blocks.values())}
    return {"type": "embedding_store", "tables": list(blocks)}, arrays


def embedding_store_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> EmbeddingStore:
    return EmbeddingStore.from_blocks(
        {name: arrays[f"block{i}"] for i, name in enumerate(meta["tables"])}
    )


# -------------------------------------------------------------------- indexes
_INDEX_TYPES = {"hnsw": HNSWIndex, "lsh": LSHIndex, "brute-force": BruteForceIndex}


def index_state(index):
    """State bundle of any snapshot-capable ANN index."""
    snapshot_state = getattr(index, "snapshot_state", None)
    if snapshot_state is None:
        raise StoreError(f"index type {type(index).__name__} does not support snapshots")
    return snapshot_state()


def index_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]"):
    cls = _INDEX_TYPES.get(meta.get("backend"))
    if cls is None:
        raise StoreError(f"unknown index backend {meta.get('backend')!r} in snapshot")
    _refuse_quantized_scan(meta, "index")
    return cls.from_snapshot_state(meta, dict(arrays))


# ------------------------------------------------- retired snapshot fields
#: Config fields older snapshots carry for options that no longer exist.
#: ``kernel_threads`` and ``reuse_pool`` only ever changed wall-clock time,
#: so they are dropped; ``quantized_scan`` is accepted only when off.
_RETIRED_CONFIG_FIELDS = {
    "merging": ("kernel_threads", "quantized_scan"),
    "parallel": ("kernel_threads", "reuse_pool"),
}
_RETIRED_PARAMS_ITEM = ("quantized_scan", False)


def _refuse_quantized_scan(meta: dict, where: str) -> None:
    """Fail loudly on a snapshot fitted with the removed int8 quantized scan."""
    if meta.get("quantized_scan", False):
        raise StoreError(
            f"snapshot {where} sets quantized_scan=true; the int8 quantized scan "
            "no longer exists — refit without it"
        )


def _current_params_key(params_key):
    """Strip the retired ``("quantized_scan", False)`` item from an old cache key.

    Older merges keyed their cache entries with it; without it a restored
    entry would never content-hit, and a delta would not pair its entries
    with the base's.
    """
    if isinstance(params_key, tuple) and len(params_key) == 3 and isinstance(params_key[2], tuple):
        backend, metric, items = params_key
        return (backend, metric, tuple(item for item in items if item != _RETIRED_PARAMS_ITEM))
    return params_key


# ----------------------------------------------------------------- IndexCache
def index_cache_state(cache: IndexCache):
    """State bundle of an index cache — entries in LRU order (oldest first).

    ``params_key`` tuples are JSON-tagged so they restore as *tuples* and
    hash-compare equal to the keys future lookups construct at runtime.
    """
    entries_meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, (params_key, vectors, index) in enumerate(cache.snapshot()):
        index_meta, index_arrays = index_state(index)
        index_meta = dict(index_meta)
        index_meta["__arrays__"] = list(index_arrays)
        arrays[f"e{i}/vectors"] = vectors
        arrays.update(_prefixed(f"e{i}/index/", index_arrays))
        entries_meta.append({"params_key": tag_tuples(params_key), "index": index_meta})
    return (
        {"type": "index_cache", "max_entries": cache.max_entries, "entries": entries_meta},
        arrays,
    )


def index_cache_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> IndexCache:
    cache = IndexCache(max_entries=meta["max_entries"])
    entries = []
    for i, entry_meta in enumerate(meta["entries"]):
        index_meta = entry_meta["index"]
        index_arrays = {
            name: arrays[f"e{i}/index/{name}"] for name in index_meta["__arrays__"]
        }
        entries.append(
            (
                _current_params_key(untag_tuples(entry_meta["params_key"])),
                arrays[f"e{i}/vectors"],
                index_from_state(index_meta, index_arrays),
            )
        )
    cache.seed(entries)
    return cache


# ------------------------------------------------------------------- encoders
def encoder_state(encoder):
    """State bundle of a fitted sentence encoder.

    Accepts the pipeline's :class:`~repro.embedding.cache.CachingEncoder`
    wrapper (unwrapped transparently — the exact-text cache is a rebuildable
    optimization, not state) around either from-scratch encoder.
    """
    from ..embedding import CachingEncoder, HashedNGramEncoder
    from ..embedding.svd import TfidfSvdEncoder

    if isinstance(encoder, CachingEncoder):
        encoder = encoder.inner
    if isinstance(encoder, HashedNGramEncoder):
        meta = {
            "type": "encoder",
            "kind": "hashed-ngram",
            "dimension": encoder.dimension,
            "ngram_range": list(encoder.ngram_range),
            "max_tokens": encoder.max_tokens,
            "token_weight": encoder.token_weight,
            "use_idf": encoder.use_idf,
            "numeric_weight_floor": encoder.numeric_weight_floor,
            "seed": encoder.seed,
            "vocabulary": None,
        }
        arrays: dict[str, np.ndarray] = {}
        vocabulary = encoder._vocabulary
        if vocabulary is not None:
            tokens = sorted(vocabulary.token_to_index, key=vocabulary.token_to_index.get)
            meta["vocabulary"] = {"num_documents": vocabulary.num_documents}
            arrays.update(_prefixed("vocab/tokens", string_table_arrays(tokens)))
            arrays["vocab/df"] = np.fromiter(
                (vocabulary.document_frequency[token] for token in tokens),
                dtype=np.int64,
                count=len(tokens),
            )
        return meta, arrays
    if isinstance(encoder, TfidfSvdEncoder):
        vectorizer = encoder._vectorizer
        if encoder._basis is None and encoder._projection is None:
            raise StoreError("cannot snapshot an unfitted TfidfSvdEncoder")
        terms = sorted(vectorizer.vocabulary_, key=vectorizer.vocabulary_.get)
        meta = {
            "type": "encoder",
            "kind": "tfidf-svd",
            "dimension": encoder.dimension,
            "seed": encoder.seed,
            "analyzer": vectorizer.analyzer,
            "min_df": vectorizer.min_df,
            "ngram_range": list(vectorizer.ngram_range),
            "projection_features": (
                None if encoder._projection is None else encoder._projection._input_dim
            ),
        }
        arrays = dict(_prefixed("terms", string_table_arrays(terms)))
        arrays["idf"] = vectorizer.idf_
        if encoder._basis is not None:
            arrays["basis"] = encoder._basis
        return meta, arrays
    raise StoreError(f"encoder type {type(encoder).__name__} does not support snapshots")


def encoder_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]"):
    from ..embedding import HashedNGramEncoder
    from ..embedding.svd import TfidfSvdEncoder

    if meta["kind"] == "hashed-ngram":
        encoder = HashedNGramEncoder(
            dimension=meta["dimension"],
            ngram_range=tuple(meta["ngram_range"]),
            max_tokens=meta["max_tokens"],
            token_weight=meta["token_weight"],
            use_idf=meta["use_idf"],
            numeric_weight_floor=meta["numeric_weight_floor"],
            seed=meta["seed"],
        )
        if meta["vocabulary"] is not None:
            from collections import Counter

            from ..text.vocab import Vocabulary

            tokens = strings_from_arrays(arrays, "vocab/tokens")
            df = arrays["vocab/df"].tolist()
            encoder._vocabulary = Vocabulary(
                token_to_index={token: i for i, token in enumerate(tokens)},
                document_frequency=Counter(dict(zip(tokens, df))),
                num_documents=meta["vocabulary"]["num_documents"],
            )
        return encoder
    if meta["kind"] == "tfidf-svd":
        encoder = TfidfSvdEncoder(
            dimension=meta["dimension"],
            analyzer=meta["analyzer"],
            ngram_range=tuple(meta["ngram_range"]),
            min_df=meta["min_df"],
            seed=meta["seed"],
        )
        terms = strings_from_arrays(arrays, "terms")
        encoder._vectorizer.vocabulary_ = {term: i for i, term in enumerate(terms)}
        encoder._vectorizer.idf_ = arrays["idf"]
        if meta["projection_features"] is not None:
            from ..embedding.random_projection import GaussianRandomProjection

            encoder._projection = GaussianRandomProjection(meta["dimension"], seed=meta["seed"])
            encoder._projection.fit(meta["projection_features"])
            encoder._basis = None
        else:
            encoder._basis = arrays["basis"]
            encoder._projection = None
        return encoder
    raise StoreError(f"unknown encoder kind {meta['kind']!r} in snapshot")


# --------------------------------------------------------------- delta states
def _bundle_delta(new_state, base_state, pairing: "dict[str, str] | None" = None):
    """Shared ``(meta, delta_spec, segments)`` shape of every delta codec."""
    meta, arrays = new_state
    _, base_arrays = base_state
    spec, segments = diff_bundle(arrays, base_arrays, pairing=pairing)
    meta = dict(meta)
    meta["__arrays__"] = list(arrays)
    return meta, spec, segments


def _bundle_from_delta(meta: dict, spec: dict, segments, base_state):
    _, base_arrays = base_state
    return apply_bundle(spec, base_arrays, lambda name: segments[name])


def item_table_delta_state(table: ItemTable, base_table: ItemTable):
    """Delta bundle of an item table against a base table (row patches)."""
    return _bundle_delta(item_table_state(table), item_table_state(base_table))


def item_table_from_delta(
    meta: dict, spec: dict, segments, base_table: ItemTable
) -> ItemTable:
    arrays = _bundle_from_delta(meta, spec, segments, item_table_state(base_table))
    return item_table_from_state(meta, arrays)


def embedding_store_delta_state(store: EmbeddingStore, base_store: EmbeddingStore):
    """Delta bundle of an embedding store (new blocks only; old blocks ref)."""
    return _bundle_delta(embedding_store_state(store), embedding_store_state(base_store))


def embedding_store_from_delta(
    meta: dict, spec: dict, segments, base_store: EmbeddingStore
) -> EmbeddingStore:
    arrays = _bundle_from_delta(meta, spec, segments, embedding_store_state(base_store))
    return embedding_store_from_state(meta, arrays)


def encoder_delta_state(encoder, base_encoder):
    """Delta bundle of a fitted encoder (all refs — encoders are fit-frozen)."""
    return _bundle_delta(encoder_state(encoder), encoder_state(base_encoder))


def index_cache_pairing(new_state, base_state) -> "dict[str, str]":
    """Align cache entries of a new state onto a base state's segments.

    Returns a ``{new_name: base_name}`` pairing (bundle-relative ``e{j}/…``
    names) mapping each new entry onto the base entry it evolved from: the
    first byte-identical twin with the same params key, else the longest
    plausible prefix (same params key, fewer rows, matching first/last
    prefix rows — a cheap screen; the byte-exact row diff downstream decides
    what actually changed, so a miscast pairing can only cost bytes, never
    correctness). Unpaired entries diff against nothing and store outright.
    """
    new_meta, new_arrays = new_state
    base_meta, base_arrays = base_state
    pairing: dict[str, str] = {}
    used: set[int] = set()
    for j, entry in enumerate(new_meta["entries"]):
        new_vectors = new_arrays[f"e{j}/vectors"]
        exact = None
        best = None
        best_rows = 0
        for i, base_entry in enumerate(base_meta["entries"]):
            if i in used or base_entry["params_key"] != entry["params_key"]:
                continue
            base_vectors = base_arrays.get(f"e{i}/vectors")
            if (
                base_vectors is None
                or base_vectors.dtype != new_vectors.dtype
                or base_vectors.shape[1:] != new_vectors.shape[1:]
            ):
                continue
            if bytes_equal(base_vectors, new_vectors):
                exact = i
                break
            rows = base_vectors.shape[0]
            if (
                0 < rows < new_vectors.shape[0]
                and rows > best_rows
                and bytes_equal(base_vectors[:1], new_vectors[:1])
                and bytes_equal(base_vectors[rows - 1 : rows], new_vectors[rows - 1 : rows])
            ):
                best, best_rows = i, rows
        pick = exact if exact is not None else best
        if pick is None:
            continue
        used.add(pick)
        pairing[f"e{j}/vectors"] = f"e{pick}/vectors"
        for name in entry["index"]["__arrays__"]:
            pairing[f"e{j}/index/{name}"] = f"e{pick}/index/{name}"
    return pairing


def index_cache_delta_state(cache: IndexCache, base_cache: IndexCache):
    """Delta bundle of an index cache (entries aligned, extensions patched)."""
    new_state = index_cache_state(cache)
    base_state = index_cache_state(base_cache)
    return _bundle_delta(new_state, base_state, index_cache_pairing(new_state, base_state))


def index_cache_from_delta(
    meta: dict, spec: dict, segments, base_cache: IndexCache
) -> IndexCache:
    arrays = _bundle_from_delta(meta, spec, segments, index_cache_state(base_cache))
    return index_cache_from_state(meta, arrays)


# --------------------------------------------------------------------- config
def config_to_meta(config: MultiEMConfig) -> dict:
    """JSON tree of a pipeline config (tuples are only in per-field defaults)."""
    return asdict(config)


def config_from_meta(meta: dict) -> MultiEMConfig:
    _refuse_quantized_scan(meta["merging"], "merging config")
    sections = {
        name: {key: value for key, value in meta[name].items()
               if key not in _RETIRED_CONFIG_FIELDS.get(name, ())}
        for name in ("representation", "merging", "pruning", "parallel")
    }
    config = MultiEMConfig(
        representation=RepresentationConfig(**sections["representation"]),
        merging=MergingConfig(**sections["merging"]),
        pruning=PruningConfig(**sections["pruning"]),
        parallel=ParallelConfig(**sections["parallel"]),
    )
    config.validate()
    return config


# -------------------------------------------------------------------- digests
def arrays_digest(arrays: "Mapping[str, np.ndarray]", *labels: str) -> str:
    """BLAKE2b content digest over named arrays (shape + dtype + raw bytes)."""
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for label in labels:
        digest.update(label.encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def item_table_digest(table: ItemTable) -> str:
    """Content digest of a flat item table (vectors + members + sources)."""
    meta, arrays = item_table_state(table)
    return arrays_digest(arrays, *meta["sources"])


def embedding_store_digest(store: EmbeddingStore) -> str:
    """Content digest of an embedding store (per-source blocks, in order)."""
    meta, arrays = embedding_store_state(store)
    return arrays_digest(arrays, *meta["tables"])


def tuples_digest(tuples) -> str:
    """Order-independent digest of predicted match tuples."""
    import hashlib

    canonical = sorted(
        ",".join(f"{ref.source}:{ref.index}" for ref in sorted(group)) for group in tuples
    )
    return hashlib.blake2b("|".join(canonical).encode(), digest_size=16).hexdigest()
