"""Table-wise hierarchical merging (Algorithms 2 and 3) on flat array storage.

The merging stage treats every table as a collection of merge items
(initially one item per record). Two tables are merged by

1. finding mutual top-K neighbour pairs under a distance cap ``m`` with an
   ANN index (Eq. 1, Algorithm 3 lines 3-5),
2. unioning the paired items by transitivity (lines 6-8), and
3. carrying every unmatched item forward unchanged (lines 9-10).

Algorithm 2 then repeats the two-table merge hierarchically — random pairs of
tables, level by level — until a single integrated table remains. The merged
item's representative vector is the member-count-weighted mean of its parts
(a medoid representative is available for the design ablation).

Flat-table layout and byte-identity contract
--------------------------------------------

Internally a table of items is an :class:`ItemTable` *column store*: one
``(n, d)`` float32 vector matrix plus CSR-style member lists (``int32``
source ids into a sorted source-name tuple, ``int64`` row indices, and an
``(n + 1,)`` offset array). A two-table merge then runs as

* an integer union-find over ``np.arange(n_left + n_right)`` seeded by the
  mutual pairs,
* a single stable relabeling pass that orders output groups by the first
  occurrence of any of their members (the same order the historical
  dict-of-tuples implementation produced), and
* grouped weighted-mean representatives computed in one vectorized pass per
  distinct group size (gather → ``(t, s, d)`` → weighted sum over axis 1).

Every step is required to reproduce the historical per-item implementation
**bit for bit**: group composition, output order, member tuples and the raw
bytes of every representative vector. The per-group-size batching exists
because numpy's pairwise summation makes ``np.add.reduceat`` (sequential)
diverge from ``ndarray.sum(axis=0)`` for three or more rows, while a
``(t, s, d).sum(axis=1)`` is bit-equal to each slice's ``(s, d).sum(axis=0)``
on this platform (pinned by ``tests/core/test_flat_equivalence.py``). The
public list-of-:class:`MergeItem` API is preserved as a thin view over the
flat tables, so callers and :class:`~repro.ann.cache.IndexCache` reuse are
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ann.cache import IndexCache
from ..ann.mutual import mutual_top_k
from ..arrays import csr_positions
from ..config import MergingConfig
from ..data.entity import EntityRef
from ..embedding.base import normalize_rows
from ..embedding.pooling import medoid_pool
from .parallel import ParallelExecutor
from .representation import TableEmbeddings


@dataclass
class MergeItem:
    """A (possibly merged) item: a group of entity refs plus a representative vector."""

    members: tuple[EntityRef, ...]
    vector: np.ndarray

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class MergeStats:
    """Diagnostics collected across the hierarchy (useful for tests and docs)."""

    levels: int = 0
    pair_merges: int = 0
    matched_pairs_per_level: list[int] = field(default_factory=list)


def items_from_embeddings(embeddings: TableEmbeddings) -> list[MergeItem]:
    """Wrap each record of a table as a singleton merge item."""
    return [
        MergeItem(members=(ref,), vector=vector)
        for ref, vector in zip(embeddings.refs, embeddings.vectors)
    ]


def weighted_mean_vector(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Member-count-weighted, L2-normalized mean of representative vectors.

    This is *the* representative form of the merging stage; the pruning stage
    reuses it (with unit weights, one per surviving entity) so that pruned
    items stay consistent with the representatives later merges consume.
    """
    weights = np.asarray(weights, dtype=np.float32)
    pooled = (weights[:, None] * vectors).sum(axis=0) / float(weights.sum())
    return normalize_rows(pooled[None, :])[0]


class ItemTable:
    """Column-store view of a merge-item table.

    Attributes:
        vectors: ``(n, d)`` float32 representative matrix, row ``i`` for item ``i``.
        member_sources: ``(M,)`` int32 ids into :attr:`sources` for every member.
        member_indices: ``(M,)`` int64 source-row indices for every member.
        member_offsets: ``(n + 1,)`` int64 CSR offsets; item ``i`` owns members
            ``member_offsets[i]:member_offsets[i + 1]``.
        sources: source names, **sorted ascending** — the invariant that makes
            sorting members by ``(source_id, index)`` equal to sorting
            :class:`EntityRef` objects by ``(source, index)``.
    """

    __slots__ = ("vectors", "member_sources", "member_indices", "member_offsets", "sources")

    def __init__(
        self,
        vectors: np.ndarray,
        member_sources: np.ndarray,
        member_indices: np.ndarray,
        member_offsets: np.ndarray,
        sources: tuple[str, ...],
    ) -> None:
        self.vectors = vectors
        self.member_sources = member_sources
        self.member_indices = member_indices
        self.member_offsets = member_offsets
        self.sources = sources

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """Member count per item (the merge weights), as int64."""
        return np.diff(self.member_offsets)

    # --------------------------------------------------------- constructors
    @classmethod
    def empty(cls, dimension: int = 0) -> "ItemTable":
        return cls(
            np.zeros((0, dimension), dtype=np.float32),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            (),
        )

    @classmethod
    def from_items(cls, items: Sequence[MergeItem]) -> "ItemTable":
        """Pack a list of merge items into flat columns (vectors are stacked).

        Item vectors must be float32 — the encoder contract every pipeline
        producer honors; other dtypes are cast here (the flat layout stores
        one homogeneous matrix, so the historical accident of per-item mixed
        dtypes surviving a merge is not supported).
        """
        n = len(items)
        if n == 0:
            return cls.empty()
        vectors = np.stack([item.vector for item in items]).astype(np.float32, copy=False)
        sources = sorted({ref.source for item in items for ref in item.members})
        source_id = {name: i for i, name in enumerate(sources)}
        counts = np.fromiter((len(item.members) for item in items), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        member_sources = np.fromiter(
            (source_id[ref.source] for item in items for ref in item.members),
            dtype=np.int32,
            count=total,
        )
        member_indices = np.fromiter(
            (ref.index for item in items for ref in item.members), dtype=np.int64, count=total
        )
        return cls(vectors, member_sources, member_indices, offsets, tuple(sources))

    @classmethod
    def from_embeddings(cls, embeddings: TableEmbeddings) -> "ItemTable":
        """Singleton item per record, sharing the embedding matrix (no copy)."""
        n = len(embeddings.refs)
        if n == 0:
            return cls.empty()
        vectors = np.ascontiguousarray(np.asarray(embeddings.vectors, dtype=np.float32))
        sources = sorted({ref.source for ref in embeddings.refs})
        source_id = {name: i for i, name in enumerate(sources)}
        member_sources = np.fromiter(
            (source_id[ref.source] for ref in embeddings.refs), dtype=np.int32, count=n
        )
        member_indices = np.fromiter(
            (ref.index for ref in embeddings.refs), dtype=np.int64, count=n
        )
        return cls(vectors, member_sources, member_indices, np.arange(n + 1, dtype=np.int64), tuple(sources))

    # --------------------------------------------------------------- views
    def member_refs(self) -> list[EntityRef]:
        """All member refs in storage order (flat, CSR-aligned)."""
        sources = self.sources
        return [
            EntityRef(sources[sid], int(idx))
            for sid, idx in zip(self.member_sources.tolist(), self.member_indices.tolist())
        ]

    def to_items(self) -> list[MergeItem]:
        """Materialize the thin :class:`MergeItem` list view (vectors are row views)."""
        refs = self.member_refs()
        offsets = self.member_offsets.tolist()
        return [
            MergeItem(members=tuple(refs[offsets[i] : offsets[i + 1]]), vector=self.vectors[i])
            for i in range(len(self))
        ]

    def filter(self, mask: np.ndarray) -> "ItemTable":
        """Row-subset of the table (items where ``mask`` is True, order kept)."""
        mask = np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(mask)
        counts = self.sizes[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pos = csr_positions(self.member_offsets[rows], counts)
        return ItemTable(
            self.vectors[rows],
            self.member_sources[pos],
            self.member_indices[pos],
            offsets,
            self.sources,
        )


def as_item_table(table: "ItemTable | Sequence[MergeItem]") -> ItemTable:
    """Coerce either representation to a flat :class:`ItemTable`."""
    if isinstance(table, ItemTable):
        return table
    return ItemTable.from_items(table)


def _union_sources(left: ItemTable, right: ItemTable) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Merged sorted source table plus per-side id remap arrays."""
    union = sorted(set(left.sources) | set(right.sources))
    index = {name: i for i, name in enumerate(union)}
    left_map = np.fromiter((index[s] for s in left.sources), dtype=np.int32, count=len(left.sources))
    right_map = np.fromiter((index[s] for s in right.sources), dtype=np.int32, count=len(right.sources))
    return tuple(union), left_map, right_map


def bucketed_weighted_mean(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalized weighted means of one same-size bucket — the bit-critical op.

    ``stacked`` is ``(t, s, d)`` (``t`` groups of ``s`` rows), ``weights`` is
    ``(t, s)`` float32. Each output row is bit-identical to
    :func:`weighted_mean_vector` on that group's ``(s, d)`` slice: an axis-1
    reduction of a 3-d gather equals each slice's axis-0 reduction on this
    platform, while e.g. ``np.add.reduceat`` (sequential) does **not** for
    three or more rows (see the module docstring's byte-identity notes). Both
    the merging and the pruning engines funnel through this single helper so
    the equality is maintained — and pinned by the property tests — in one
    place.
    """
    pooled = (weights[:, :, None] * stacked).sum(axis=1)
    pooled = pooled / weights.sum(axis=1)[:, None]
    return normalize_rows(pooled)


def _grouped_mean_vectors(
    out_vectors: np.ndarray,
    vectors: np.ndarray,
    weights: np.ndarray,
    group_of_node: np.ndarray,
    nodes_in_group_order: np.ndarray,
    group_node_counts: np.ndarray,
) -> None:
    """Weighted-mean representatives for every multi-node group, vectorized.

    Buckets groups by node count; each bucket reduces through
    :func:`bucketed_weighted_mean`, bit-identical to the per-group
    ``(weights[:, None] * stacked).sum(axis=0)`` the historical implementation
    computed.
    """
    groups_sorted = group_of_node[nodes_in_group_order]
    node_sizes = group_node_counts[groups_sorted]
    for s in np.unique(node_sizes):
        in_bucket = node_sizes == s
        nodes_s = nodes_in_group_order[in_bucket]
        t = nodes_s.shape[0] // int(s)
        stacked = vectors[nodes_s].reshape(t, int(s), vectors.shape[1])
        bucket_weights = weights[nodes_s].reshape(t, int(s))
        out_vectors[groups_sorted[in_bucket][:: int(s)]] = bucketed_weighted_mean(
            stacked, bucket_weights
        )


def merge_index_kwargs(config: MergingConfig) -> dict:
    """The per-merge ANN index kwargs a :class:`MergingConfig` implies.

    Every caller that builds (or cache-keys) a merge index must pass exactly
    this dict — :func:`merge_item_tables` and the sharded boundary pass in
    :mod:`repro.shard.boundary` both funnel through it, so their cache
    ``params_key`` values and index builds agree bit for bit.
    """
    return {
        "hnsw_max_degree": config.hnsw_max_degree,
        "hnsw_ef_construction": config.hnsw_ef_construction,
        "hnsw_ef_search": config.hnsw_ef_search,
        "lsh_num_tables": config.lsh_num_tables,
        "lsh_num_bits": config.lsh_num_bits,
        "lsh_probe_neighbors": config.lsh_probe_neighbors,
        "seed": config.seed,
    }


def merge_item_tables(
    left: ItemTable,
    right: ItemTable,
    config: MergingConfig,
    *,
    representative: str = "mean",
    cache: IndexCache | None = None,
) -> tuple[ItemTable, int]:
    """Algorithm 3 on flat tables: merge two item tables into one.

    ``cache`` (an :class:`~repro.ann.cache.IndexCache`) lets the mutual top-K
    step reuse an ANN index built for the same item table at an earlier
    hierarchy level instead of rebuilding it; reuse is exact, so the merged
    output is unchanged.

    Returns:
        ``(merged_table, num_matched_pairs)`` — the merged table and how many
        mutual pairs were accepted (diagnostic).
    """
    if len(left) == 0:
        return right, 0
    if len(right) == 0:
        return left, 0
    pairs = mutual_top_k(
        left.vectors,
        right.vectors,
        k=config.k,
        max_distance=config.m,
        metric=config.metric,
        backend=config.index,
        brute_force_limit=config.brute_force_limit,
        index_kwargs=merge_index_kwargs(config),
        cache=cache,
    )
    merged, _ = merge_tables_with_pairs(left, right, pairs, representative=representative)
    return merged, len(pairs)


def merge_tables_with_pairs(
    left: ItemTable,
    right: ItemTable,
    pairs: "Sequence",
    *,
    representative: str = "mean",
) -> tuple[ItemTable, np.ndarray]:
    """Union, relabel and materialize a two-table merge from given mutual pairs.

    The post-pair half of :func:`merge_item_tables`, split out so the sharded
    merge plane (:mod:`repro.shard`) can stitch its boundary-resolved pair
    list through the exact same vectorized union-find. ``pairs`` must be the
    :class:`~repro.ann.mutual.MutualPair` list in its canonical
    ``(distance, left, right)`` lexsort order — pair order drives the unions.

    Returns:
        ``(merged_table, node_of_group)`` where ``node_of_group[g]`` is the
        first concatenated node (left rows first, then right rows) of output
        group ``g`` — callers propagating per-row side data (e.g. shard
        owners) map it through this array.
    """
    n_left, n_right = len(left), len(right)
    n = n_left + n_right

    # Integer union-find over np.arange(n): left items are nodes [0, n_left),
    # right items are nodes [n_left, n). Unions follow pair order (matched
    # right root attached under the left root), exactly like the historical
    # dict-of-tuples implementation — component membership and the
    # first-occurrence output order below are what byte-identity relies on.
    parent = list(range(n))
    for pair in pairs:
        a = pair.left
        while parent[a] != a:
            parent[a], a = parent[parent[a]], parent[a]
        b = n_left + pair.right
        while parent[b] != b:
            parent[b], b = parent[parent[b]], parent[b]
        if a != b:
            parent[b] = a
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            break
        roots = hopped

    # Relabel components in order of first occurrence (scan order: all left
    # items by position, then all right items) — the dict insertion order of
    # the historical implementation.
    unique_roots, first_seen, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty(len(unique_roots), dtype=np.int64)
    rank[np.argsort(first_seen, kind="stable")] = np.arange(len(unique_roots))
    group = rank[inverse]
    num_groups = len(unique_roots)
    group_node_counts = np.bincount(group, minlength=num_groups)

    sources, left_map, right_map = _union_sources(left, right)
    vectors = np.concatenate([left.vectors, right.vectors])
    node_member_counts = np.concatenate([left.sizes, right.sizes])
    node_weights = node_member_counts.astype(np.float32)
    node_member_starts = np.concatenate(
        [left.member_offsets[:-1], right.member_offsets[:-1] + left.member_sources.shape[0]]
    )
    member_sources_cat = np.concatenate(
        [left_map[left.member_sources], right_map[right.member_sources]]
    )
    member_indices_cat = np.concatenate([left.member_indices, right.member_indices])

    node_of_group = np.empty(num_groups, dtype=np.int64)
    node_of_group[group[::-1]] = np.arange(n - 1, -1, -1)  # first node of each group
    singles = np.flatnonzero(group_node_counts == 1)
    multis = np.flatnonzero(group_node_counts > 1)

    # ------------------------------------------------- representative vectors
    out_vectors = np.empty((num_groups, vectors.shape[1]), dtype=np.float32)
    out_vectors[singles] = vectors[node_of_group[singles]]
    if multis.size:
        node_order = np.argsort(group, kind="stable")
        multi_nodes = node_order[group_node_counts[group[node_order]] > 1]
        if representative == "medoid":
            bounds = np.concatenate(
                [[0], np.flatnonzero(np.diff(group[multi_nodes])) + 1, [multi_nodes.shape[0]]]
            )
            for start, stop in zip(bounds[:-1], bounds[1:]):
                nodes = multi_nodes[start:stop]
                pooled = medoid_pool(vectors[nodes])
                out_vectors[group[nodes[0]]] = normalize_rows(pooled[None, :])[0]
        else:
            _grouped_mean_vectors(
                out_vectors, vectors, node_weights, group, multi_nodes, group_node_counts
            )

    # --------------------------------------------------------- member lists
    if multis.size:
        multi_counts = node_member_counts[multi_nodes]
        src_pos = csr_positions(node_member_starts[multi_nodes], multi_counts)
        stream_group = np.repeat(group[multi_nodes], multi_counts)
        stream_sid = member_sources_cat[src_pos]
        stream_idx = member_indices_cat[src_pos]
        order = np.lexsort((stream_idx, stream_sid, stream_group))
        stream_group = stream_group[order]
        stream_sid = stream_sid[order]
        stream_idx = stream_idx[order]
        keep = np.ones(order.shape[0], dtype=bool)
        keep[1:] = (
            (stream_group[1:] != stream_group[:-1])
            | (stream_sid[1:] != stream_sid[:-1])
            | (stream_idx[1:] != stream_idx[:-1])
        )
        stream_group = stream_group[keep]
        stream_sid = stream_sid[keep]
        stream_idx = stream_idx[keep]
        multi_member_counts = np.bincount(stream_group, minlength=num_groups)
    else:
        stream_sid = np.zeros(0, dtype=np.int32)
        stream_idx = np.zeros(0, dtype=np.int64)
        multi_member_counts = np.zeros(num_groups, dtype=np.int64)

    out_counts = np.where(
        group_node_counts == 1, node_member_counts[node_of_group], multi_member_counts
    )
    out_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    out_member_sources = np.empty(int(out_offsets[-1]), dtype=np.int32)
    out_member_indices = np.empty(int(out_offsets[-1]), dtype=np.int64)

    single_nodes = node_of_group[singles]
    single_src = csr_positions(node_member_starts[single_nodes], node_member_counts[single_nodes])
    single_dst = csr_positions(out_offsets[singles], node_member_counts[single_nodes])
    out_member_sources[single_dst] = member_sources_cat[single_src]
    out_member_indices[single_dst] = member_indices_cat[single_src]
    if multis.size:
        multi_dst = csr_positions(out_offsets[multis], multi_member_counts[multis])
        out_member_sources[multi_dst] = stream_sid
        out_member_indices[multi_dst] = stream_idx

    merged = ItemTable(out_vectors, out_member_sources, out_member_indices, out_offsets, sources)
    return merged, node_of_group


def _merge_pair_task(task: tuple) -> tuple[ItemTable, int]:
    """Merge one table pair inside a process-pool worker.

    Module-level (hence picklable) counterpart of the thread path's closure.
    The worker consults its own persistent :class:`~repro.ann.cache.IndexCache`
    (installed by the pool initializer, seeded from the parent's snapshot and
    extended across tasks), which restores cross-level index reuse for the
    process backend; cache reuse is exact, so the merged output is identical
    to the serial and thread paths bit for bit.
    """
    from .parallel import worker_index_cache

    left, right, config, representative = task
    return merge_item_tables(
        left, right, config, representative=representative, cache=worker_index_cache()
    )


def _merge_pair_shm_task(task: tuple) -> tuple:
    """Merge one table pair whose arrays live in a shared-memory plane.

    The worker receives only ``(plane_name, task_index, config,
    representative)``: it attaches the parent's request plane, reconstructs
    both :class:`ItemTable` sides as zero-copy views over the mapped
    segment, merges exactly like :func:`_merge_pair_task` (same worker-local
    index cache), and ships the merged table back through a response segment
    instead of the pool's pickle pipe. Identical bytes in, identical
    arithmetic, identical bytes out.
    """
    from ..store import codecs as store_codecs
    from ..store import plane as plane_mod
    from .parallel import worker_index_cache

    plane_name, index, response_name, config, representative = task
    plane = plane_mod.worker_plane(plane_name)
    task_meta = plane.meta["tasks"][index]

    def read_side(side: str) -> ItemTable:
        meta = task_meta[side]
        arrays = {
            name: plane.array(f"t{index}/{side}/{name}") for name in meta["__arrays__"]
        }
        return store_codecs.item_table_from_state(meta, arrays)

    left, right = read_side("left"), read_side("right")
    merged, matched = merge_item_tables(
        left, right, config, representative=representative, cache=worker_index_cache()
    )
    meta, arrays = store_codecs.item_table_state(merged)
    return plane_mod.export_response(
        arrays, {"table": meta, "matched": matched}, segment_name=response_name
    )


def _merge_pairs_via_plane(
    executor: ParallelExecutor,
    pairs: "list[tuple[ItemTable, ItemTable]]",
    config: MergingConfig,
    representative: str,
) -> list[tuple[ItemTable, int]]:
    """Dispatch one level's pair merges through a shared-memory plane.

    All pair tables are packed into one request segment (left sides under
    ``t{i}/``, right sides under ``t{i}/right/``); workers get integer
    descriptors plus a pre-assigned response-segment name each, and their
    merged tables are copied out and unlinked here. Knowing every response
    name up front makes the cleanup unconditional: the request plane is
    unlinked as soon as the ``map`` barrier returns, and every response
    segment — including those of tasks that finished before a sibling
    crashed the ``map`` — is reclaimed on both the success and error paths.
    """
    import uuid

    from ..store import codecs as store_codecs
    from ..store import plane as plane_mod

    tasks = []
    metas = []
    for pair in pairs:
        arrays: dict = {}
        meta: dict = {}
        for side, table in zip(("left", "right"), pair):
            side_meta, side_arrays = store_codecs.item_table_state(table)
            side_meta = dict(side_meta)
            side_meta["__arrays__"] = list(side_arrays)
            meta[side] = side_meta
            arrays.update({f"{side}/{name}": array for name, array in side_arrays.items()})
        tasks.append(arrays)
        metas.append(meta)
    response_names = plane_mod.response_names(uuid.uuid4().hex[:12], len(pairs))
    plane = plane_mod.TaskPlane(tasks, metas)
    consumed = 0
    try:
        descriptors = executor.map(
            _merge_pair_shm_task,
            [
                (plane.name, i, response_names[i], config, representative)
                for i in range(len(pairs))
            ],
        )
        results: list[tuple[ItemTable, int]] = []
        for consumed, descriptor in enumerate(descriptors, start=1):
            response = plane_mod.read_response(descriptor)
            merged = store_codecs.item_table_from_state(
                response.meta["table"], {name: response.array(name) for name in response.names()}
            )
            results.append((merged, int(response.meta["matched"])))
        return results
    except BaseException:
        # A crashed worker (or an unreadable response) must not strand the
        # finished siblings' output segments in /dev/shm until reboot.
        for name in response_names[consumed:]:
            plane_mod.discard_response(name)
        raise
    finally:
        plane.close()


def merge_two_tables(
    left: list[MergeItem],
    right: list[MergeItem],
    config: MergingConfig,
    *,
    representative: str = "mean",
    cache: IndexCache | None = None,
) -> tuple[list[MergeItem], int]:
    """Algorithm 3: merge two item tables into one (list-of-items API).

    Thin wrapper over :func:`merge_item_tables`; output items, their order and
    their vector bytes are identical to the historical per-item
    implementation.

    Returns:
        ``(merged_items, num_matched_pairs)`` — the merged table and how many
        mutual pairs were accepted (diagnostic).
    """
    if not left:
        return list(right), 0
    if not right:
        return list(left), 0
    merged, matched = merge_item_tables(
        as_item_table(left), as_item_table(right), config, representative=representative, cache=cache
    )
    return merged.to_items(), matched


def hierarchical_merge_tables(
    tables: "list[ItemTable | list[MergeItem]]",
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache: IndexCache | None = None,
    owners: "Sequence[np.ndarray] | None" = None,
) -> tuple[ItemTable, MergeStats]:
    """Algorithm 2 on flat tables: merge all tables hierarchically until one remains.

    Tables are randomly paired at every level (seeded by ``config.seed``);
    with an odd number of tables the leftover table passes to the next level
    untouched. Pair merges within a level are independent and are dispatched
    through ``executor`` when one is provided.

    When ``config.index_cache`` is set (the default), per-merge ANN indexes
    are kept in an :class:`~repro.ann.cache.IndexCache` shared across the
    whole hierarchy, so a table carried forward unchanged (odd leftovers, or
    merges that matched nothing) is never re-indexed from scratch. Pass an
    explicit ``cache`` to share reuse across several hierarchies.

    With ``config.shards > 1`` the level loop is delegated to the sharded
    merge plane (:mod:`repro.shard`): per-table owner arrays (``owners``, or
    a plan built here from the item vectors for the ``"lsh"`` shard key)
    decompose every merge's query workload by shard, and the boundary pass
    stitches the result back byte-identical to the unsharded merge.
    """
    if config.shards > 1:
        from ..shard.executor import sharded_hierarchical_merge
        from ..shard.plan import build_shard_plan

        flat = [as_item_table(table) for table in tables]
        if owners is None:
            owners = build_shard_plan(config, item_tables=flat).owners
        merged, stats, _ = sharded_hierarchical_merge(
            flat,
            list(owners),
            config,
            executor=executor,
            representative=representative,
            cache=cache,
        )
        return merged, stats
    executor = executor or ParallelExecutor()
    if cache is None and config.index_cache:
        cache = IndexCache(max_entries=config.index_cache_entries)
    if executor.uses_processes:
        # Seed the process workers' local caches from whatever the attached
        # cache already holds (snapshot taken at lazy pool creation, i.e.
        # at the first parallel map below).
        executor.attach_index_cache(cache)
    stats = MergeStats()
    rng = np.random.default_rng(config.seed)
    current: list[ItemTable] = [as_item_table(table) for table in tables]
    if not current:
        return ItemTable.empty(), stats
    while len(current) > 1:
        stats.levels += 1
        order = rng.permutation(len(current))
        pairs: list[tuple[ItemTable, ItemTable]] = []
        leftover: list[ItemTable] = []
        for i in range(0, len(order) - 1, 2):
            pairs.append((current[order[i]], current[order[i + 1]]))
        if len(order) % 2 == 1:
            leftover.append(current[order[-1]])

        if executor.uses_processes and len(pairs) > 1:
            # Process pools dispatch the module-level task (workers use their
            # own persistent index caches). Levels with a single pair run
            # serially in the parent (executor.map's small-input fast path),
            # so they take the closure branch below and keep using the
            # parent's cache. In shared-memory mode the pair tables travel
            # through one TaskPlane segment per level instead of the pickle
            # pipe — same bytes, same arithmetic, identical output.
            if executor.uses_shared_memory:
                merge_results = _merge_pairs_via_plane(executor, pairs, config, representative)
            else:
                merge_results = executor.map(
                    _merge_pair_task,
                    [(left, right, config, representative) for left, right in pairs],
                )
        else:
            merge_results = executor.map(
                lambda pair: merge_item_tables(
                    pair[0], pair[1], config, representative=representative, cache=cache
                ),
                pairs,
            )
        matched_this_level = 0
        next_level: list[ItemTable] = []
        for merged, matched in merge_results:
            next_level.append(merged)
            matched_this_level += matched
        stats.pair_merges += len(pairs)
        stats.matched_pairs_per_level.append(matched_this_level)
        next_level.extend(leftover)
        current = next_level
    return current[0], stats


def hierarchical_merge(
    tables: "list[list[MergeItem] | ItemTable]",
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache: IndexCache | None = None,
) -> tuple[list[MergeItem], MergeStats]:
    """Algorithm 2: merge all tables hierarchically until one remains.

    List-of-items wrapper over :func:`hierarchical_merge_tables`; see there
    for the pairing, parallelism and index-cache behaviour.
    """
    if not tables:
        return [], MergeStats()
    if len(tables) == 1:
        only = tables[0]
        stats = MergeStats()
        if isinstance(only, ItemTable):
            return only.to_items(), stats
        return list(only), stats
    integrated, stats = hierarchical_merge_tables(
        tables, config, executor=executor, representative=representative, cache=cache
    )
    return integrated.to_items(), stats


def candidate_tuples(items: "list[MergeItem] | ItemTable") -> list[MergeItem]:
    """Items with at least two members — the merging stage's candidate tuples."""
    if isinstance(items, ItemTable):
        return items.filter(items.sizes >= 2).to_items()
    return [item for item in items if item.size >= 2]
