"""Approximate nearest-neighbour substrate: brute force, HNSW, LSH, mutual top-K.

Backend selection
-----------------
Every backend implements :class:`NearestNeighborIndex` (``build`` then batched
``query``) and funnels through the shared candidate-generation →
exact-re-rank engine (:mod:`repro.ann.engine`), so the merging stage swaps
them via ``MergingConfig.index``:

* ``"auto"`` (default) — exact :class:`BruteForceIndex` when the indexed side
  has at most ``brute_force_limit`` rows (default 4096, where one blocked
  distance-matrix pass beats graph construction), :class:`HNSWIndex` above it.
* ``"brute-force"`` — always exact; the reference the HNSW recall tests
  compare against. Queries take the engine's blocked dense top-k path.
* ``"hnsw"`` — array-backed navigable-small-world graph (flat CSR-style
  neighbour tables, batched distance kernels, incremental ``extend``).
  Tuned by ``hnsw_max_degree`` / ``hnsw_ef_construction`` / ``hnsw_ef_search``.
* ``"lsh"`` — sign-random-projection hashing with CSR bucket tables and exact
  re-ranking; the cheap-and-cheerful option for the design ablation. Tuned by
  ``lsh_num_tables`` / ``lsh_num_bits`` / ``lsh_probe_neighbors``. The probe
  stream re-ranks as one flat CSR (query → candidates) segment-top-k.

Native kernel
-------------
With a C toolchain present *and* a wheel-bundled ILP64 OpenBLAS (the
``scipy-openblas64`` builds standard numpy/scipy wheels ship — MKL- or
distro-linked numpy is not recognized), the hot loops of **both** ANN
backends — HNSW's insert/search traversals and the LSH probe re-rank — run
through the runtime-compiled shared kernel (:mod:`repro.ann.native`,
``repro/ann/_ann_kernel.c``): same algorithms, same OpenBLAS calls,
byte-identical graphs and results, gated by one load-time self-test
covering both backends. Otherwise the pure-Python/numpy paths run, with the
reason recorded in ``repro.ann.native.disabled_reason``. ``REPRO_NATIVE=0``
forces the fallback for everything the kernel governs;
``REPRO_NATIVE=require`` makes unavailability a hard error (used by the
benchmark smoke leg). Persistent process pools
(:mod:`repro.core.parallel`) warm the kernel once per worker at pool
start-up and inherit the parent's calibration verdict, so the
dedup-strategy probe runs once per process tree instead of once per worker.

Kernel tiers
------------
The distance hot path escalates through three tiers, every one producing
byte-identical results (each native tier must pass the load-time self-test
against the numpy reference before it serves):

1. **numpy fallback** — always available; forced with ``REPRO_NATIVE=0``.
2. **native scalar** — the C kernel compiled portably (``-O2``), calling
   the wheel-bundled OpenBLAS for GEMV/GEMM exactly as numpy does.
3. **native AVX2** — the same source compiled a second time with
   ``-mavx2 -mfma -ffp-contract=off``, replacing the BLAS dot/GEMV calls
   with hand-scheduled micro-kernels that reproduce OpenBLAS's SkylakeX
   reduction order bit for bit. Selected automatically when the CPU
   supports AVX2 *and* the compiled variant passes the identity self-test;
   otherwise the scalar variant serves. ``REPRO_NATIVE_VARIANT`` ∈
   ``auto`` (default) | ``scalar`` | ``avx2`` pins the choice. Compiled
   variants are cached keyed on (source digest, flags, CPU features).

Every tier builds HNSW graphs sequentially, one insert at a time, and
answers each HNSW query row with its own traversal — the entry-point
distance included — so a row's answer is the same alone or at any position
in any batch (``HNSWIndex.batch_invariant``).

Index reuse
-----------
:class:`IndexCache` (``MergingConfig.index_cache`` /
``index_cache_entries``) caches built indexes across the merge hierarchy and
across ``IncrementalMultiEM.add_table`` calls. Reuse happens only when it is
byte-identical to a fresh build — an exact content match, or a cached matrix
that is a prefix of the requested one extended incrementally — so enabling
the cache never changes pair output. Process-pool workers hold their own
persistent caches, seeded from the parent's snapshot at pool creation
(:meth:`IndexCache.snapshot`).

All distance kernels live in :mod:`repro.ann.distances`;
:class:`~repro.ann.distances.PreparedVectors` hoists per-row statistics
(norms / squared norms) out of the per-query hot path while staying
bit-for-bit compatible with :func:`~repro.ann.distances.distance_matrix`.
"""

from .base import NearestNeighborIndex
from .brute_force import BruteForceIndex
from .cache import IndexCache, IndexCacheStats, fingerprint_vectors
from .distances import (
    METRICS,
    PreparedVectors,
    batched_pairwise_distances,
    cosine_distance_matrix,
    distance_matrix,
    euclidean_distance_matrix,
    paired_distances,
    pairwise_distances,
    point_distances,
)
from .hnsw import HNSWIndex
from .lsh import LSHIndex
from .mutual import MutualPair, create_index, mutual_top_k, resolve_backend, top_k_pairs

__all__ = [
    "NearestNeighborIndex",
    "BruteForceIndex",
    "HNSWIndex",
    "LSHIndex",
    "IndexCache",
    "IndexCacheStats",
    "fingerprint_vectors",
    "MutualPair",
    "create_index",
    "resolve_backend",
    "mutual_top_k",
    "top_k_pairs",
    "METRICS",
    "PreparedVectors",
    "distance_matrix",
    "cosine_distance_matrix",
    "euclidean_distance_matrix",
    "paired_distances",
    "pairwise_distances",
    "batched_pairwise_distances",
    "point_distances",
]
