"""Shared candidate-generation → exact-re-rank query engine.

Every ANN backend answers a batched top-K query in two steps: *generate* a
candidate set per query (graph traversal for HNSW, bucket probing for LSH,
"all rows" for brute force), then *re-rank* those candidates exactly under
the prepared distance kernel and emit the best ``k`` per query. This module
is the single implementation of the re-rank half of that contract:

* :func:`alloc_topk` — the ``(indices, distances)`` output pair every
  backend fills (``-1`` / ``inf`` padding for missing slots).
* :func:`rerank_csr` — exact re-rank of a flat CSR (query → candidates)
  stream: one int64 candidate array plus ``(num_queries + 1,)`` offsets.
  This is the LSH hot path; it runs through the native kernel
  (:mod:`repro.ann.native`) when available and through a bucketed batched
  numpy path otherwise.
* :func:`exact_topk_blocked` — the dense exact path (brute force): blocked
  full distance rows with ``argpartition`` selection, preserving
  :class:`~repro.ann.brute_force.BruteForceIndex`'s historical op order
  exactly.

Byte-identity contract
----------------------

``rerank_csr`` orders each query's survivors by ascending
``(distance, segment position)`` — candidates arrive sorted ascending (the
``np.unique`` order of the probe stream), so the tie-break is by candidate
id. On tie-free data this is exactly the historical per-row
``np.argsort(dists)[:k]``; on exact distance ties (duplicate vectors) the
order is now *deterministically* stable instead of quicksort-dependent, and
the native and Python paths agree bit for bit (the load-time self-test and
``tests/ann/test_lsh_native.py`` pin this).

Distance values are bit-identical to
:meth:`~repro.ann.distances.PreparedVectors.row_distances` on every path:
the native kernel calls the same ``cblas_sgemv`` / ``cblas_sdot`` routines
numpy dispatches to, and the numpy fallback buckets segments by size and
evaluates each bucket with one ``(t, s, d) @ (t, d, 1)`` stacked matmul —
empirically bit-equal to the per-row matvec on this BLAS (each slice takes
the same GEMV-shaped path; pinned by
``tests/ann/test_lsh_native.py::test_batched_matmul_matches_row_matvec``),
followed by the identical clip / sqrt ufunc chain.
"""

from __future__ import annotations

import numpy as np

from . import native
from .distances import PreparedVectors, _clip_ufunc

#: Cap on elements of one ``(t, s, d)`` re-rank gather block (32M float32
#: elements = 128 MB); blocking is per-query, so values are unchanged.
_RERANK_BLOCK_ELEMENTS = 32_000_000


def alloc_topk(num_queries: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded top-K output pair: int64 ``-1`` indices, float64 ``inf`` distances."""
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    distances = np.full((num_queries, k), np.inf, dtype=np.float64)
    return indices, distances


def query_squared_norms(prepared: PreparedVectors, prepared_queries: np.ndarray) -> np.ndarray:
    """Per-query ``(q * q).sum()`` exactly as ``row_distances`` computes it.

    The row-wise ``sum(axis=1)`` over the contiguous axis reduces in the same
    pairwise order as each row's scalar ``.sum()`` (the equality the native
    HNSW kernel already relies on). Cosine queries carry no squared norm.
    """
    if prepared.metric == "cosine":
        return np.zeros(prepared_queries.shape[0], dtype=np.float32)
    return np.ascontiguousarray((prepared_queries * prepared_queries).sum(axis=1))


#: One-shot calibration verdict: is the native radix dedup faster than
#: numpy's in-place sort on this machine? None = not yet measured.
_dedup_native_preferred: bool | None = None
#: Streams below this size always take the numpy path in auto mode — the
#: dedup is microseconds either way and not worth a ctypes round trip.
_DEDUP_AUTO_THRESHOLD = 65_536
_DEDUP_CALIBRATION_KEYS = 1_000_000


def _numpy_sorted_dedup(keys: np.ndarray) -> np.ndarray:
    keys.sort()
    fresh = np.ones(keys.shape[0], dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _calibrate_dedup(kernel: "native.NativeKernel") -> bool:
    """Time both dedup paths once on an LSH-shaped stream; prefer the winner.

    numpy's int64 ``sort`` dispatches to a vectorized introsort on modern
    x86 builds and can beat a scalar radix outright (it does on the original
    bench box); on builds without the SIMD sort the radix kernel wins. The
    verdict is a pure performance choice — both paths return the identical
    array — so measuring once per process is safe and keeps auto mode
    optimal everywhere.
    """
    import time

    rng = np.random.default_rng(0)
    sample = rng.integers(0, np.int64(1) << 34, size=_DEDUP_CALIBRATION_KEYS, dtype=np.int64)
    started = time.perf_counter()
    _numpy_sorted_dedup(sample.copy())
    numpy_seconds = time.perf_counter() - started
    trial = sample.copy()
    started = time.perf_counter()
    count = kernel.dedup(trial.ctypes.data, trial.shape[0])
    native_seconds = time.perf_counter() - started
    return count >= 0 and native_seconds < numpy_seconds


def dedup_native_preferred() -> bool:
    """Whether auto-mode dedup picks the radix kernel on this machine."""
    global _dedup_native_preferred
    if _dedup_native_preferred is None:
        kernel = native.get_kernel()
        _dedup_native_preferred = kernel is not None and _calibrate_dedup(kernel)
    return _dedup_native_preferred


def set_dedup_native_preferred(verdict: bool | None) -> None:
    """Install (or ``None``-clear) the dedup calibration verdict directly.

    Process-pool workers receive the parent's measured verdict through the
    worker initializer instead of each re-running the ~1M-key calibration at
    warmup — the verdict is a pure performance choice (both paths return
    identical arrays), so shipping it is always safe.
    """
    global _dedup_native_preferred
    _dedup_native_preferred = None if verdict is None else bool(verdict)


def dedup_sorted_keys(keys: np.ndarray, *, use_native: bool | None = None) -> np.ndarray:
    """Sorted unique of a **non-negative** int64 key stream, destructively.

    The LSH candidate dedup: ``keys`` (scrambled in place — pass a fresh
    array) comes back as its ascending unique prefix. Two implementations,
    byte-identical by construction (the sorted unique set is
    algorithm-independent): the native kernel's LSD radix sort (16-bit
    counting passes, constant-digit passes skipped, in-place dedup scan) and
    one in-place numpy ``sort`` plus a neighbour mask. Both deliberately
    avoid numpy >= 2.4's hash-table ``np.unique`` path, which is ~25x slower
    at the ~1M-key streams an LSH query batch produces. Radix order equals
    signed order only because the keys are non-negative
    (``query * num_nodes + node`` by construction).

    ``use_native``: ``False`` forces the numpy path, ``True`` forces the
    kernel whenever it loaded (the byte-identity self-test uses the forced
    modes). ``None`` — the production default — picks per machine: large
    streams go to whichever path a one-shot calibration measured faster
    (numpy's SIMD introsort wins on some builds, the radix kernel on
    others), small streams always take numpy.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys
    if use_native is None:
        use_kernel = keys.size >= _DEDUP_AUTO_THRESHOLD and dedup_native_preferred()
    else:
        use_kernel = use_native
    if use_kernel:
        kernel = native.get_kernel()
        if kernel is not None:
            count = kernel.dedup(keys.ctypes.data, keys.shape[0])
            if count >= 0:  # negative = allocation failure; fall through
                return keys[:count]
    return _numpy_sorted_dedup(keys)


def rerank_csr(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
    *,
    use_native: bool | None = None,
) -> None:
    """Exact re-rank of a flat CSR candidate stream into ``(indices, distances)``.

    Args:
        prepared: index-side distance kernel (built at index ``build`` time).
        prepared_queries: output of ``prepared.prepare_queries`` for the batch.
        candidates: flat int64 candidate rows, all query segments concatenated;
            each segment must be sorted ascending (``np.unique`` order).
        offsets: ``(num_queries + 1,)`` int64 CSR offsets into ``candidates``.
        k: neighbours to keep per query.
        indices / distances: pre-allocated :func:`alloc_topk` outputs; rows
            with empty segments keep their ``-1`` / ``inf`` padding.
        use_native: tri-state kernel override (``None`` = auto, the
            ``REPRO_NATIVE``-governed default; ``False`` forces the numpy
            path; ``True`` uses the kernel whenever it loaded).
    """
    num_queries = int(offsets.shape[0]) - 1
    if num_queries <= 0 or candidates.size == 0:
        return
    kernel = None if use_native is False else native.get_kernel()
    if kernel is not None and _rerank_native(
        kernel, prepared, prepared_queries, candidates, offsets, k, indices, distances
    ):
        return
    _rerank_python(prepared, prepared_queries, candidates, offsets, k, indices, distances)


def _rerank_native(
    kernel: "native.NativeKernel",
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
) -> bool:
    """Run the C re-rank; False (outputs untouched) on allocation failure."""
    base, sq_norms = prepared.native_views()
    prepared_queries = np.ascontiguousarray(prepared_queries)
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    query_sqs = query_squared_norms(prepared, prepared_queries)
    status = kernel.rerank(
        base.ctypes.data,
        None if sq_norms is None else sq_norms.ctypes.data,
        int(base.shape[1]),
        0 if prepared.metric == "cosine" else 1,
        candidates.ctypes.data,
        offsets.ctypes.data,
        int(offsets.shape[0]) - 1,
        prepared_queries.ctypes.data,
        query_sqs.ctypes.data,
        k,
        indices.ctypes.data,
        distances.ctypes.data,
    )
    return status == 0


def _rerank_python(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
) -> None:
    """Bucketed numpy re-rank (the ``REPRO_NATIVE=0`` / no-toolchain path).

    Queries are grouped by segment size ``s``; each bucket gathers its
    candidate rows into one ``(t, s, d)`` block and evaluates all distances
    with a stacked matmul against ``(t, d, 1)`` query columns — bit-equal to
    the per-row matvec (see the module docstring) — then selects top-k per
    row with a stable argsort.
    """
    counts = np.diff(offsets)
    if prepared.metric == "euclidean":
        query_sqs = query_squared_norms(prepared, prepared_queries)
    dim = int(prepared_queries.shape[1])
    for size in np.unique(counts):
        size = int(size)
        if size == 0:
            continue
        bucket_rows = np.flatnonzero(counts == size)
        block = max(1, _RERANK_BLOCK_ELEMENTS // (size * dim))
        for start in range(0, len(bucket_rows), block):
            rows = bucket_rows[start : start + block]
            gather = offsets[rows][:, None] + np.arange(size, dtype=np.int64)
            segment = candidates[gather]  # (t, s)
            if prepared.metric == "cosine":
                dists = np.matmul(prepared._normed[segment], prepared_queries[rows][:, :, None])[
                    :, :, 0
                ]
                np.subtract(1.0, dists, out=dists)
                if _clip_ufunc is not None:
                    _clip_ufunc(dists, 0.0, 2.0, out=dists)
                else:  # pragma: no cover - depends on numpy version
                    np.maximum(dists, 0.0, out=dists)
                    np.minimum(dists, 2.0, out=dists)
            else:
                products = np.matmul(
                    prepared.vectors[segment], prepared_queries[rows][:, :, None]
                )[:, :, 0]
                dists = (
                    query_sqs[rows][:, None] + prepared._squared_norms[segment]
                ) - 2.0 * products
                np.maximum(dists, 0.0, out=dists)
                np.sqrt(dists, out=dists)
            count = min(k, size)
            order = np.argsort(dists, axis=1, kind="stable")[:, :count]
            row_index = np.arange(len(rows))[:, None]
            indices[rows, :count] = segment[row_index, order]
            distances[rows, :count] = dists[row_index, order]


def exact_topk_blocked(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    k: int,
    batch_size: int,
    indices: np.ndarray,
    distances: np.ndarray,
) -> None:
    """Dense exact top-k over every indexed row, blocked by query batch.

    The brute-force backend's re-rank: candidate generation is "all rows", so
    each block evaluates one full ``block_distances`` slab and selects with
    ``argpartition`` + ``argsort`` — op-for-op the historical
    ``BruteForceIndex.query`` body, preserving its selection (and tie)
    behaviour exactly.
    """
    num_rows = prepared.size
    num_queries = prepared_queries.shape[0]
    effective_k = min(k, num_rows)
    for start in range(0, num_queries, batch_size):
        stop = min(start + batch_size, num_queries)
        block = prepared.block_distances(prepared_queries[start:stop])
        if effective_k < num_rows:
            top = np.argpartition(block, effective_k - 1, axis=1)[:, :effective_k]
        else:
            top = np.tile(np.arange(num_rows), (stop - start, 1))
        row_index = np.arange(stop - start)[:, None]
        top_distances = block[row_index, top]
        order = np.argsort(top_distances, axis=1)
        indices[start:stop, :effective_k] = top[row_index, order]
        distances[start:stop, :effective_k] = top_distances[row_index, order]


def query_rows(index, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched top-K whose per-row answers never depend on batch composition.

    The serving plane's entry point: row ``i`` of the result is bit-identical
    to ``index.query(queries[i:i+1], k)``, whatever else rides in the batch —
    the property that lets the request coalescer fold concurrent requests
    into one call and slice per-request answers back out byte-identically.

    Backends that declare ``batch_invariant`` (HNSW's per-row graph
    traversal, LSH's per-segment re-rank) answer the whole batch in one
    call, which is where the amortization lives; the dense brute-force scan
    changes BLAS dispatch with the batch shape (an ``m=1`` GEMM takes the
    GEMV path and can differ in the last float32 ulp), so it is evaluated
    row by row here. At brute-force scale (``auto`` routes tables past
    ``brute_force_limit`` to HNSW) each row is one prepared GEMV — the loop
    costs microseconds and buys exactness of the coalescing contract.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if getattr(index, "batch_invariant", False) or queries.shape[0] <= 1:
        return index.query(queries, k)
    indices, distances = alloc_topk(queries.shape[0], k)
    for row in range(queries.shape[0]):
        row_indices, row_distances = index.query(queries[row : row + 1], k)
        indices[row] = row_indices[0]
        distances[row] = row_distances[0]
    return indices, distances
