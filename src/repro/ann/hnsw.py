"""Hierarchical Navigable Small World (HNSW) index, implemented from scratch.

The paper merges tables with mutual top-K searches over an HNSW index
(hnswlib). hnswlib is unavailable offline, so this module reimplements the
algorithm of Malkov & Yashunin (TPAMI 2020): a multi-layer proximity graph
where upper layers are sparse "express lanes" and layer 0 holds every point.

Insertion:
    1. sample a level for the new point from a geometric distribution,
    2. greedily descend from the entry point through layers above that level,
    3. at each layer at or below it, run an ef-bounded best-first search,
       connect to the closest ``M`` neighbours, and prune neighbour lists.

Search: greedy descent to layer 1, then an ef-bounded best-first search on
layer 0, returning the best ``k`` candidates found.

Storage is array-backed: each layer keeps flat numpy neighbour/distance
tables (one fixed-capacity row per node, CSR-style) instead of per-node
dicts, and all distance evaluations run through a
:class:`~repro.ann.distances.PreparedVectors` kernel whose index-side row
statistics are computed once at build time. Both choices are bit-for-bit
compatible with the original dict-backed implementation (see
``tests/ann/test_hnsw_regression.py``) while an expansion step costs one
``(1, d) @ (d, batch)`` kernel call instead of a full
:func:`~repro.ann.distances.distance_matrix` evaluation.

When a C toolchain is available, the insert/search loops run through the
runtime-compiled kernel in :mod:`repro.ann.native` instead of the Python
loops below. The kernel executes the identical algorithm and calls the same
OpenBLAS routines numpy dispatches to, so graphs and query results are
byte-identical (enforced by a load-time self-test plus the regression
suite); without a toolchain everything transparently falls back to the
Python path. Set ``REPRO_NATIVE=0`` to force the fallback.

The index also supports :meth:`extend` — appending vectors continues the
level-sampling RNG stream, so ``build(v).extend(w)`` produces byte-identical
graphs to ``build(concatenate([v, w]))``. :class:`~repro.ann.cache.IndexCache`
relies on this for cross-level index reuse in the merge hierarchy.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..exceptions import IndexError_
from . import engine, native
from .base import NearestNeighborIndex
from .distances import PreparedVectors


class HNSWIndex(NearestNeighborIndex):
    """Approximate top-K search with a navigable small-world graph.

    Queries are answered row by row (graph traversal per query vector), so
    batched answers are independent of batch composition — pinned by
    ``tests/serve/test_coalescer.py``.

    Args:
        metric: ``"cosine"`` or ``"euclidean"``.
        max_degree: ``M`` — max neighbours per node on upper layers (layer 0
            allows ``2 * M``).
        ef_construction: candidate-list size during insertion.
        ef_search: candidate-list size during queries (raised to ``k`` when a
            query asks for more than ``ef_search`` neighbours).
        seed: level-sampling seed, making index construction deterministic.
    """

    batch_invariant = True

    def __init__(
        self,
        metric: str = "cosine",
        max_degree: int = 16,
        ef_construction: int = 100,
        ef_search: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if max_degree < 2:
            raise IndexError_("max_degree must be >= 2")
        if ef_construction < 1 or ef_search < 1:
            raise IndexError_("ef parameters must be >= 1")
        self.max_degree = max_degree
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self._level_mult = 1.0 / math.log(max_degree)
        # Per-layer flat adjacency: neighbours / distances are (num_nodes, cap)
        # arrays (cap = max degree + 1 slack for the pre-prune overflow slot).
        # Degrees are int64 arrays so the native kernel reads/writes them in
        # place — no per-call list/array conversion on the query hot path.
        # (The numpy scalar-boxing cost this adds to the pure-Python fallback
        # measured within wall-clock noise — 4.29s vs 4.21s on the 3k-node
        # build+query probe — so the fallback keeps PR-1 performance.)
        self._layer_neighbors: list[np.ndarray] = []
        self._layer_dists: list[np.ndarray] = []
        self._layer_degrees: list[np.ndarray] = []
        self._prepared: PreparedVectors | None = None
        self._rng: np.random.Generator | None = None
        self._node_levels: list[int] = []
        self._entry_point: int | None = None
        self._max_level: int = -1
        # Visit-epoch buffer for the (single-threaded) build path; query()
        # uses a private buffer per call so concurrent reads stay safe.
        self._build_stamps: np.ndarray = np.zeros(0, dtype=np.int64)
        self._build_epoch: int = 0
        # None = use the native kernel when available; False/True force a path
        # (the native self-test uses the forced modes to compare both).
        self._use_native: bool | None = None

    def _layer_capacity(self, layer: int) -> int:
        m = self.max_degree * 2 if layer == 0 else self.max_degree
        return m + 1

    # ----------------------------------------------------------- layer search
    def _search_layer(
        self,
        prepared_query: np.ndarray,
        entry_points: list[tuple[float, int]],
        ef: int,
        layer: int,
        stamps: np.ndarray,
        epoch: int,
    ) -> list[tuple[float, int]]:
        """ef-bounded best-first search on one layer.

        Args:
            prepared_query: query vector preprocessed by
                ``PreparedVectors.prepare_queries``.
            entry_points: initial ``(distance, node)`` candidates.
            ef: size of the dynamic candidate list.
            layer: which graph layer to traverse.
            stamps: per-node visit-epoch buffer (``stamps[n] == epoch`` means
                visited). Epoch stamping avoids zeroing an O(num_nodes)
                array per search, which would add a quadratic term to build.
            epoch: the stamp value marking this search's visits; the caller
                must use a fresh value per search.

        Returns:
            Up to ``ef`` best ``(distance, node)`` pairs, unsorted.
        """
        neighbors_table = self._layer_neighbors[layer]
        degrees = self._layer_degrees[layer]
        prepared = self._prepared
        assert prepared is not None
        row_distances = prepared.row_distances
        for _, node in entry_points:
            stamps[node] = epoch
        candidates = list(entry_points)  # min-heap on distance
        heapq.heapify(candidates)
        # max-heap (negated distances) of the current best ef results
        results = [(-dist, node) for dist, node in entry_points]
        heapq.heapify(results)
        heappush, heappop = heapq.heappush, heapq.heappop
        while candidates:
            dist, node = heappop(candidates)
            worst = -results[0][0] if results else math.inf
            if dist > worst and len(results) >= ef:
                break
            degree = degrees[node]
            if not degree:
                continue
            neighbors = neighbors_table[node, :degree]
            fresh = neighbors[stamps[neighbors] != epoch]
            if not fresh.size:
                continue
            stamps[fresh] = epoch
            fresh_dists = row_distances(prepared_query, fresh)
            if len(results) >= ef:
                # With the result heap at capacity, ``worst`` only decreases
                # while this batch is processed, so anything at or beyond the
                # current worst can never be accepted — reject it vectorized
                # instead of in the per-neighbour loop below.
                fresh_keep = fresh_dists < -results[0][0]
                fresh = fresh[fresh_keep]
                if not fresh.size:
                    continue
                fresh_dists = fresh_dists[fresh_keep]
            for neighbor, neighbor_dist in zip(fresh.tolist(), fresh_dists.tolist()):
                worst = -results[0][0] if results else math.inf
                if len(results) < ef or neighbor_dist < worst:
                    heappush(candidates, (neighbor_dist, neighbor))
                    heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > ef:
                        heappop(results)
        return [(-negated, node) for negated, node in results]

    # ----------------------------------------------------- neighbour selection
    def _select_neighbors(self, candidates: list[tuple[float, int]], m: int) -> list[tuple[float, int]]:
        """Simple neighbour selection: keep the ``m`` closest candidates."""
        return sorted(candidates)[:m]

    def _connect(self, node: int, neighbors: list[tuple[float, int]], layer: int, m: int) -> None:
        """Bidirectionally connect ``node`` and prune overfull neighbour lists."""
        neighbors_table = self._layer_neighbors[layer]
        dists_table = self._layer_dists[layer]
        degrees = self._layer_degrees[layer]
        count = len(neighbors)
        for slot, (dist, neighbor) in enumerate(neighbors):
            neighbors_table[node, slot] = neighbor
            dists_table[node, slot] = dist
        degrees[node] = count
        for dist, neighbor in neighbors:
            neighbor = int(neighbor)
            degree = degrees[neighbor]
            neighbors_table[neighbor, degree] = node
            dists_table[neighbor, degree] = dist
            degree += 1
            if degree > m:
                # Keep the m closest links; the stable sort mirrors the
                # insertion-order tie-breaking of Python's ``sorted``.
                keep = np.argsort(dists_table[neighbor, :degree], kind="stable")[:m]
                neighbors_table[neighbor, :m] = neighbors_table[neighbor, keep]
                dists_table[neighbor, :m] = dists_table[neighbor, keep]
                degree = m
            degrees[neighbor] = degree

    # ------------------------------------------------------------------ build
    def build(self, vectors: np.ndarray) -> "HNSWIndex":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise IndexError_("expected a 2-d array of vectors")
        self._vectors = vectors
        self._prepared = PreparedVectors(vectors, self.metric)
        self._layer_neighbors = []
        self._layer_dists = []
        self._layer_degrees = []
        self._node_levels = []
        self._entry_point = None
        self._max_level = -1
        self._build_stamps = np.zeros(vectors.shape[0], dtype=np.int64)
        self._build_epoch = 0
        self._rng = np.random.default_rng(self.seed)
        self._insert_range(0, vectors)
        return self

    def extend(self, vectors: np.ndarray) -> "HNSWIndex":
        """Append ``vectors`` to an already-built index (incremental insert).

        Insertion continues the level-sampling RNG stream of :meth:`build`, so
        ``build(v).extend(w)`` is byte-identical to ``build([v; w])``.
        """
        if self._vectors is None:
            return self.build(vectors)
        vectors = self._validate_extension(vectors)
        assert self._prepared is not None
        start = self._vectors.shape[0]
        self._prepared.append(vectors)
        self._vectors = self._prepared.vectors
        self._insert_range(start, vectors)
        return self

    # ----------------------------------------------------------- native path
    def _native_kernel(self) -> "native.NativeKernel | None":
        if self._use_native is False:
            return None
        return native.get_kernel()

    def _insert_range(self, start: int, new_vectors: np.ndarray) -> None:
        """Insert nodes ``start..start + len(new_vectors)`` (native or Python).

        Levels are drawn for the whole batch up front — ``Generator.random(n)``
        consumes the PCG64 stream exactly like ``n`` scalar draws, so the level
        sequence (and therefore the graph) is unchanged from per-node drawing.
        """
        assert self._rng is not None
        count = int(new_vectors.shape[0])
        if count == 0:
            return
        draws = self._rng.random(count)
        levels = [
            int(-math.log(max(float(u), 1e-12)) * self._level_mult) for u in draws
        ]
        kernel = self._native_kernel()
        if kernel is not None and self._insert_range_native(kernel, start, new_vectors, levels):
            return
        for offset, level in enumerate(levels):
            self._insert(start + offset, level)

    def _native_base(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Index-side matrices the kernel reads (normed rows / raw + sq norms)."""
        prepared = self._prepared
        assert prepared is not None
        base, norms = prepared.native_views()
        if self.metric != "cosine":
            self._vectors = prepared.vectors  # stay aliased after canonicalization
        return base, norms

    def _native_query_sqs(self, prepared_queries: np.ndarray) -> np.ndarray:
        """Per-query ``(q * q).sum()`` exactly as ``row_distances`` computes it."""
        assert self._prepared is not None
        return engine.query_squared_norms(self._prepared, prepared_queries)

    def _insert_range_native(
        self, kernel: "native.NativeKernel", start: int, new_vectors: np.ndarray, levels: list[int]
    ) -> bool:
        """Insert via the C kernel; returns False (state rolled back) on OOM.

        On a kernel allocation failure the appended levels are removed so the
        caller can rerun the identical inserts through the Python path —
        graph rows were not touched, and the level sequence is replayed, so
        the result is byte-identical either way.
        """
        self._node_levels.extend(levels)
        n_total = start + len(levels)
        target_level = max(self._max_level, max(levels), 0)
        self._ensure_capacity(target_level, n_total)
        num_layers = len(self._layer_neighbors)
        caps = np.array([self._layer_capacity(l) for l in range(num_layers)], dtype=np.int64)
        base, sq_norms = self._native_base()
        prepared = self._prepared
        assert prepared is not None
        prepared_queries = np.ascontiguousarray(prepared.prepare_queries(new_vectors))
        query_sqs = self._native_query_sqs(prepared_queries)
        levels_arr = np.asarray(self._node_levels, dtype=np.int64)
        entry_io = np.array(
            [-1 if self._entry_point is None else self._entry_point], dtype=np.int64
        )
        max_level_io = np.array([self._max_level], dtype=np.int64)
        status = kernel.build(
            base.ctypes.data,
            None if sq_norms is None else sq_norms.ctypes.data,
            int(base.shape[1]),
            0 if self.metric == "cosine" else 1,
            num_layers,
            kernel.pointer_array(self._layer_neighbors),
            kernel.pointer_array(self._layer_dists),
            kernel.pointer_array(self._layer_degrees),
            caps.ctypes.data,
            self.max_degree,
            self.ef_construction,
            levels_arr.ctypes.data,
            start,
            n_total,
            prepared_queries.ctypes.data,
            query_sqs.ctypes.data,
            entry_io.ctypes.data,
            max_level_io.ctypes.data,
        )
        if status != 0:  # pragma: no cover - allocation failure
            del self._node_levels[start:]
            return False
        self._entry_point = int(entry_io[0])
        self._max_level = int(max_level_io[0])
        # Reset the Python-path visit buffers to a consistent (fresh) state.
        self._build_stamps = np.zeros(n_total, dtype=np.int64)
        self._build_epoch = 0
        return True

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """State bundle for :mod:`repro.store`: JSON-able meta + named arrays.

        Adjacency tables are trimmed to the ``n`` inserted nodes (spare
        capacity rows are an allocation detail, not state). The prepared
        distance arrays are *not* stored — they are a deterministic per-row
        function of the vectors, recomputed byte-identically on restore.
        The level-sampling RNG state rides in the meta, which is what lets
        ``extend`` continue the stream after a save → load round trip
        exactly as it would have in memory.
        """
        if self._vectors is None or self._rng is None:
            raise IndexError_("cannot snapshot an unbuilt index")
        n = len(self._node_levels)
        assert self._prepared is not None
        arrays: dict[str, np.ndarray] = {
            "vectors": self._prepared.vectors,
            "node_levels": np.asarray(self._node_levels, dtype=np.int64),
        }
        for layer in range(len(self._layer_neighbors)):
            arrays[f"layer{layer}/neighbors"] = self._layer_neighbors[layer][:n]
            arrays[f"layer{layer}/dists"] = self._layer_dists[layer][:n]
            arrays[f"layer{layer}/degrees"] = self._layer_degrees[layer][:n]
        meta = {
            "backend": "hnsw",
            "metric": self.metric,
            "max_degree": self.max_degree,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "seed": self.seed,
            "entry_point": self._entry_point,
            "max_level": self._max_level,
            "num_layers": len(self._layer_neighbors),
            "rng_state": self._rng.bit_generator.state,
        }
        return meta, arrays

    @classmethod
    def from_snapshot_state(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "HNSWIndex":
        """Rebuild an index from :meth:`snapshot_state` output.

        Arrays are adopted as-is (possibly read-only, memory-mapped views);
        the first ``extend`` reallocates the adjacency tables through
        ``_ensure_capacity`` before any in-place write, so mapped snapshots
        are never mutated.
        """
        index = cls(
            metric=meta["metric"],
            max_degree=meta["max_degree"],
            ef_construction=meta["ef_construction"],
            ef_search=meta["ef_search"],
            seed=meta["seed"],
        )
        index._prepared = PreparedVectors.from_state(
            arrays["vectors"],
            meta["metric"],
            normed=arrays.get("normed"),
            squared_norms=arrays.get("squared_norms"),
        )
        index._vectors = index._prepared.vectors
        index._node_levels = arrays["node_levels"].tolist()
        index._layer_neighbors = [
            arrays[f"layer{layer}/neighbors"] for layer in range(meta["num_layers"])
        ]
        index._layer_dists = [arrays[f"layer{layer}/dists"] for layer in range(meta["num_layers"])]
        index._layer_degrees = [
            arrays[f"layer{layer}/degrees"] for layer in range(meta["num_layers"])
        ]
        index._entry_point = None if meta["entry_point"] is None else int(meta["entry_point"])
        index._max_level = int(meta["max_level"])
        index._build_stamps = np.zeros(len(index._node_levels), dtype=np.int64)
        index._build_epoch = 0
        index._rng = np.random.default_rng()
        index._rng.bit_generator.state = meta["rng_state"]
        return index

    def clone(self) -> "HNSWIndex":
        """Independent copy; extending the clone leaves the original untouched."""
        dup = HNSWIndex(
            metric=self.metric,
            max_degree=self.max_degree,
            ef_construction=self.ef_construction,
            ef_search=self.ef_search,
            seed=self.seed,
        )
        dup._vectors = self._vectors
        dup._prepared = None if self._prepared is None else self._prepared.copy()
        dup._layer_neighbors = [table.copy() for table in self._layer_neighbors]
        dup._layer_dists = [table.copy() for table in self._layer_dists]
        dup._layer_degrees = [table.copy() for table in self._layer_degrees]
        dup._node_levels = list(self._node_levels)
        dup._entry_point = self._entry_point
        dup._max_level = self._max_level
        dup._build_stamps = self._build_stamps.copy()
        dup._build_epoch = self._build_epoch
        dup._use_native = self._use_native
        if self._rng is not None:
            dup._rng = np.random.default_rng()
            dup._rng.bit_generator.state = self._rng.bit_generator.state
        return dup

    def _ensure_capacity(self, level: int, num_nodes: int) -> None:
        """Grow the flat adjacency tables to ``level`` layers × ``num_nodes`` rows."""
        while len(self._layer_neighbors) <= level:
            layer = len(self._layer_neighbors)
            capacity = self._layer_capacity(layer)
            rows = max(num_nodes, 1)
            self._layer_neighbors.append(np.full((rows, capacity), -1, dtype=np.int64))
            self._layer_dists.append(np.zeros((rows, capacity), dtype=np.float32))
            self._layer_degrees.append(np.zeros(rows, dtype=np.int64))
        if self._build_stamps.shape[0] < num_nodes:
            grown = np.zeros(max(num_nodes, self._build_stamps.shape[0] * 2), dtype=np.int64)
            grown[: self._build_stamps.shape[0]] = self._build_stamps
            self._build_stamps = grown
        for layer in range(len(self._layer_neighbors)):
            degrees = self._layer_degrees[layer]
            if degrees.shape[0] < num_nodes:
                grown_degrees = np.zeros(num_nodes, dtype=np.int64)
                grown_degrees[: degrees.shape[0]] = degrees
                self._layer_degrees[layer] = grown_degrees
            rows = self._layer_neighbors[layer].shape[0]
            if rows < num_nodes:
                grown = max(num_nodes, rows * 2)
                capacity = self._layer_capacity(layer)
                neighbors = np.full((grown, capacity), -1, dtype=np.int64)
                neighbors[:rows] = self._layer_neighbors[layer]
                dists = np.zeros((grown, capacity), dtype=np.float32)
                dists[:rows] = self._layer_dists[layer]
                self._layer_neighbors[layer] = neighbors
                self._layer_dists[layer] = dists

    def _greedy_descent(
        self, prepared_query: np.ndarray, entry: int, entry_dist: float, top: int, bottom: int
    ) -> tuple[int, float]:
        """Greedy search from layer ``top`` down to (excluding) layer ``bottom``."""
        prepared = self._prepared
        assert prepared is not None
        for layer in range(top, bottom, -1):
            neighbors_table = self._layer_neighbors[layer]
            degrees = self._layer_degrees[layer]
            changed = True
            while changed:
                changed = False
                degree = degrees[entry]
                if not degree:
                    break
                neighbors = neighbors_table[entry, :degree]
                dists = prepared.row_distances(prepared_query, neighbors)
                best = int(np.argmin(dists))
                if float(dists[best]) < entry_dist:
                    entry, entry_dist = int(neighbors[best]), float(dists[best])
                    changed = True
        return entry, entry_dist

    def _insert(self, node: int, level: int) -> None:
        assert self._prepared is not None
        self._node_levels.append(level)
        self._ensure_capacity(level, len(self._node_levels))

        if self._entry_point is None:
            self._entry_point = node
            self._max_level = level
            return

        prepared_query = self._prepared.prepare_queries(self._vectors[node][None, :])[0]
        entry = self._entry_point
        entry_dist = float(
            self._prepared.row_distances(prepared_query, np.asarray([entry], dtype=np.int64))[0]
        )
        # Greedy descent through layers above the new node's level.
        entry, entry_dist = self._greedy_descent(
            prepared_query, entry, entry_dist, self._max_level, level
        )
        # Insert on every layer at or below the node's level.
        entry_points = [(entry_dist, entry)]
        for layer in range(min(level, self._max_level), -1, -1):
            self._build_epoch += 1
            candidates = self._search_layer(
                prepared_query,
                entry_points,
                self.ef_construction,
                layer,
                self._build_stamps,
                self._build_epoch,
            )
            m = self.max_degree * 2 if layer == 0 else self.max_degree
            neighbors = self._select_neighbors(candidates, m)
            self._connect(node, neighbors, layer, m)
            entry_points = candidates
        if level > self._max_level:
            self._max_level = level
            self._entry_point = node

    # ------------------------------------------------------------------ query
    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k < 1:
            raise IndexError_("k must be >= 1")
        queries = np.asarray(queries, dtype=np.float32)
        num_queries = queries.shape[0]
        indices, distances = engine.alloc_topk(num_queries, k)
        if self._entry_point is None:
            return indices, distances
        prepared = self._prepared
        assert prepared is not None
        ef = max(self.ef_search, k)
        # The query block is prepared in one batched kernel call; the
        # best-first traversals below then gather (1, d) @ (d, batch) blocks.
        # Every distance a traversal sees, the entry point's included, comes
        # from its own row's kernel call, so a row's answer never depends on
        # the batch around it (a batched GEMM over all rows would).
        prepared_queries = prepared.prepare_queries(queries)
        kernel = self._native_kernel()
        if kernel is not None and self._query_native(
            kernel, prepared_queries, ef, k, indices, distances
        ):
            return indices, distances
        # One stamp buffer for the whole batch (private to this call, so
        # concurrent query() calls on a shared index never collide).
        stamps = np.zeros(len(self._node_levels), dtype=np.int64)
        entry_rows = np.asarray([self._entry_point], dtype=np.int64)
        for row in range(num_queries):
            prepared_query = prepared_queries[row]
            entry_dist = float(prepared.row_distances(prepared_query, entry_rows)[0])
            entry, entry_dist = self._greedy_descent(
                prepared_query, self._entry_point, entry_dist, self._max_level, 0
            )
            found = self._search_layer(prepared_query, [(entry_dist, entry)], ef, 0, stamps, row + 1)
            found.sort()
            idx, dist = self._pad([n for _, n in found], [d for d, _ in found], k)
            indices[row] = idx
            distances[row] = dist
        return indices, distances

    def _query_native(
        self,
        kernel: "native.NativeKernel",
        prepared_queries: np.ndarray,
        ef: int,
        k: int,
        indices: np.ndarray,
        distances: np.ndarray,
    ) -> bool:
        """Query via the C kernel; returns False (outputs untouched beyond the
        -1/inf initialization) on allocation failure so the caller can run the
        byte-identical Python search instead."""
        num_layers = len(self._layer_neighbors)
        caps = np.array([self._layer_capacity(l) for l in range(num_layers)], dtype=np.int64)
        base, sq_norms = self._native_base()
        prepared_queries = np.ascontiguousarray(prepared_queries)
        query_sqs = self._native_query_sqs(prepared_queries)
        status = kernel.query(
            base.ctypes.data,
            None if sq_norms is None else sq_norms.ctypes.data,
            int(base.shape[1]),
            0 if self.metric == "cosine" else 1,
            num_layers,
            kernel.pointer_array(self._layer_neighbors),
            kernel.pointer_array(self._layer_dists),
            kernel.pointer_array(self._layer_degrees),
            caps.ctypes.data,
            self.max_degree,
            len(self._node_levels),
            prepared_queries.ctypes.data,
            query_sqs.ctypes.data,
            int(prepared_queries.shape[0]),
            ef,
            k,
            int(self._entry_point if self._entry_point is not None else -1),
            self._max_level,
            indices.ctypes.data,
            distances.ctypes.data,
        )
        return status == 0  # False → pre-loop allocation failed, outputs untouched
