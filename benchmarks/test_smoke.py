"""Benchmark smoke checks: the ANN merging path at tiny scale.

These run inside tier-1 (the filename matches the default ``test_*`` pattern,
unlike the heavyweight ``bench_*`` modules) so an accidental performance
cliff in the ANN layer — e.g. falling back to per-call re-normalization or a
quadratic candidate scan — fails loudly instead of only showing up when
someone reruns the full benchmarks. Select them alone with
``python -m pytest benchmarks -q -m smoke``.
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, IndexCache, mutual_top_k

# Generous ceilings: the operations below take well under a second on any
# recent machine, so tripping these means an order-of-magnitude regression
# (or a hang), not noise.
MERGE_CEILING_SECONDS = 20.0
EXTEND_CEILING_SECONDS = 5.0


@pytest.fixture(scope="module")
def smoke_vectors() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(600, 64)).astype(np.float32)
    b = a[rng.permutation(600)] + rng.normal(scale=0.01, size=(600, 64)).astype(np.float32)
    return a, b


@pytest.mark.smoke
def test_smoke_hnsw_merge_agrees_with_exact_and_is_fast(smoke_vectors):
    a, b = smoke_vectors
    started = time.perf_counter()
    approx = mutual_top_k(a, b, k=1, max_distance=0.3, backend="hnsw")
    elapsed = time.perf_counter() - started
    exact = mutual_top_k(a, b, k=1, max_distance=0.3, backend="brute-force")
    exact_pairs = {(p.left, p.right) for p in exact}
    approx_pairs = {(p.left, p.right) for p in approx}
    overlap = len(exact_pairs & approx_pairs) / max(len(exact_pairs), 1)
    assert overlap >= 0.95, f"HNSW recall collapsed: {overlap:.2%}"
    assert elapsed < MERGE_CEILING_SECONDS, f"HNSW merge path took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_index_cache_extend_beats_rebuild(smoke_vectors):
    a, _ = smoke_vectors
    cache = IndexCache(max_entries=2)
    cache.get_or_build(a, lambda: HNSWIndex(seed=0).build(a))
    tail = np.ascontiguousarray(a[:32] + np.float32(0.5))
    grown = np.concatenate([a, tail])
    started = time.perf_counter()
    extended = cache.get_or_build(grown, lambda: HNSWIndex(seed=0).build(grown))
    elapsed = time.perf_counter() - started
    assert cache.stats.prefix_hits == 1, "prefix reuse did not trigger"
    assert extended.size == len(grown)
    assert elapsed < EXTEND_CEILING_SECONDS, f"prefix extend took {elapsed:.1f}s"
    # Reuse must be exact: same results as a fresh build.
    reference = HNSWIndex(seed=0).build(grown)
    got, _ = extended.query(grown[:32], 3)
    want, _ = reference.query(grown[:32], 3)
    assert np.array_equal(got, want)


@pytest.mark.smoke
def test_smoke_pipeline_module_times():
    """Tiny end-to-end pipeline run; appends its timings to BENCH_pipeline.json.

    Keeps the per-module benchmark harness (bench_pipeline.py) exercised by
    tier-1 and catches order-of-magnitude pipeline regressions early.
    """
    from bench_pipeline import _format_record, run_pipeline_bench, write_bench_record

    started = time.perf_counter()
    record = run_pipeline_bench("music-20", "tiny")
    elapsed = time.perf_counter() - started
    write_bench_record(record)
    print("\n  " + _format_record(record))
    assert record["num_tuples"] > 0
    assert all(value >= 0 for value in record["stages"].values())
    assert elapsed < MERGE_CEILING_SECONDS, f"tiny pipeline took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_encoder_batch_fast_path_is_exercised():
    """A real pipeline run must flow through the columnar encoder fast path.

    Injects the encoder into MultiEM and checks its batch counters after the
    run: every encode (attribute selection *and* representation) must take
    the CSR token-table path — a silent fallback to per-text encoding would
    be an order-of-magnitude front-end regression at bench scale.
    """
    from repro.config import paper_default_config
    from repro.core import MultiEM
    from repro.data.generators import load_benchmark
    from repro.embedding import HashedNGramEncoder

    dataset = load_benchmark("music-20", profile="tiny")
    encoder = HashedNGramEncoder()
    config = paper_default_config("music-20").with_overrides(merging={"index": "hnsw"})
    started = time.perf_counter()
    result = MultiEM(config, encoder=encoder).match(dataset)
    elapsed = time.perf_counter() - started
    assert result.tuples, "pipeline produced no tuples"
    assert encoder.batch_encodes > 0, "columnar batch encode path never ran"
    assert encoder.tokens_pooled > 0, "CSR pooling kernel pooled no tokens"
    # Attribute selection must splice off the shared column token index: the
    # fast path encodes base + p shuffles without serializing texts, so the
    # batch counter covers at least (schema size + 1) selection passes plus
    # one representation pass per source table.
    expected_passes = len(dataset.schema) + 1 + len(dataset.table_list())
    assert encoder.batch_encodes >= expected_passes, (
        f"expected >= {expected_passes} batch passes, saw {encoder.batch_encodes}"
    )
    assert elapsed < MERGE_CEILING_SECONDS, f"tiny pipeline took {elapsed:.1f}s"


_REQUIRE_SNIPPET = """\
import numpy as np
from repro.ann import HNSWIndex, LSHIndex, mutual_top_k
from repro.ann import native

assert native.get_kernel() is not None  # require-mode would have raised already
rng = np.random.default_rng(0)
vectors = rng.normal(size=(300, 32)).astype(np.float32)
queries = vectors[:40] + rng.normal(scale=0.01, size=(40, 32)).astype(np.float32)
hnsw_idx, _ = HNSWIndex(seed=0).build(vectors).query(queries, 3)
lsh_idx, _ = LSHIndex(seed=0).build(vectors).query(queries, 3)
assert (hnsw_idx[:, 0] >= 0).all() and (lsh_idx >= 0).any()
pairs = mutual_top_k(vectors[:150], vectors[150:], k=1, max_distance=0.5, backend="lsh")
print("REQUIRE-OK", len(pairs))
"""


@pytest.mark.smoke
def test_smoke_native_require_leg():
    """``REPRO_NATIVE=require`` end-to-end: the kernel must engage for both backends.

    Runs a subprocess so the strict mode is exercised from a cold import:
    any compile, BLAS-resolution, or byte-identity regression fails loudly
    there instead of silently costing the native speedup. Skips — with the
    concrete reason — only for genuine environment limitations (no C
    compiler, no resolvable wheel-bundled ILP64 OpenBLAS, or an explicit
    ``REPRO_NATIVE`` opt-out in the outer environment).
    """
    if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false"):
        pytest.skip("native kernel explicitly disabled via REPRO_NATIVE")
    if shutil.which(os.environ.get("CC", "gcc")) is None:
        pytest.skip("REPRO_NATIVE=require needs a C compiler; none on this machine")
    from repro.ann import native

    if native.get_kernel() is None:
        pytest.skip(f"environment limitation: {native.disabled_reason}")
    src_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "REPRO_NATIVE": "require"}
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _REQUIRE_SNIPPET], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, (
        f"REPRO_NATIVE=require leg failed:\n{completed.stderr[-2000:]}"
    )
    assert "REQUIRE-OK" in completed.stdout


@pytest.mark.smoke
def test_smoke_process_pool_backend_roundtrip():
    """The process backend must work end to end (it used to crash on pickling).

    A tiny two-level merge through a persistent process pool, checked
    bit-identical against the serial run.
    """
    from repro.config import MergingConfig, ParallelConfig
    from repro.core.merging import ItemTable, hierarchical_merge_tables
    from repro.core.parallel import ParallelExecutor

    tables = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(60, 16)).astype(np.float32)
        tables.append(
            ItemTable(
                vectors,
                np.zeros(60, dtype=np.int32),
                np.arange(60, dtype=np.int64),
                np.arange(61, dtype=np.int64),
                (f"s{seed}",),
            )
        )
    config = MergingConfig(index="brute-force", m=0.8)
    serial, _ = hierarchical_merge_tables([t for t in tables], config)
    started = time.perf_counter()
    with ParallelExecutor(ParallelConfig(enabled=True, backend="process", max_workers=2)) as ex:
        merged, _ = hierarchical_merge_tables([t for t in tables], config, executor=ex)
    elapsed = time.perf_counter() - started
    assert np.array_equal(merged.vectors, serial.vectors)
    assert np.array_equal(merged.member_offsets, serial.member_offsets)
    assert elapsed < MERGE_CEILING_SECONDS, f"process-pool merge took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_shared_memory_pool_roundtrip():
    """Merge+prune through the shared-memory process pool, bit-equal to serial.

    The shared-memory dispatch ships task arrays as zero-copy views over
    TaskPlane segments instead of pickling them; this tier-1 leg pins that
    the transport swap changes nothing — merged vectors, member lists, and
    pruned survivor tuples are byte-identical to the serial run — and that
    no segment outlives the run.
    """
    from repro.config import MergingConfig, ParallelConfig, PruningConfig
    from repro.core.merging import ItemTable, hierarchical_merge_tables
    from repro.core.parallel import ParallelExecutor
    from repro.core.pruning import prune_item_table
    from repro.core.representation import EmbeddingStore, TableEmbeddings
    from repro.data.entity import EntityRef
    from repro.store import plane

    if not plane.available():
        pytest.skip("POSIX shared memory unavailable on this platform")
    base = np.random.default_rng(0).normal(size=(60, 16)).astype(np.float32)
    tables, store = [], EmbeddingStore()
    for seed in range(4):
        rng = np.random.default_rng(seed + 1)
        vectors = (base + rng.normal(scale=0.01, size=(60, 16))).astype(np.float32)
        name = f"s{seed}"
        tables.append(
            ItemTable(
                vectors,
                np.zeros(60, dtype=np.int32),
                np.arange(60, dtype=np.int64),
                np.arange(61, dtype=np.int64),
                (name,),
            )
        )
        store.add_table(TableEmbeddings(name, [EntityRef(name, i) for i in range(60)], vectors))
    merging = MergingConfig(index="brute-force", m=0.5)
    pruning = PruningConfig(epsilon=1.0)
    serial_merged, _ = hierarchical_merge_tables([t for t in tables], merging)
    serial_pruned = prune_item_table(serial_merged, store, pruning)
    started = time.perf_counter()
    with ParallelExecutor(
        ParallelConfig(enabled=True, backend="process", max_workers=2, shared_memory=True)
    ) as ex:
        assert ex.uses_shared_memory
        merged, _ = hierarchical_merge_tables([t for t in tables], merging, executor=ex)
        pruned = prune_item_table(merged, store, pruning, executor=ex)
    elapsed = time.perf_counter() - started
    assert np.array_equal(merged.vectors, serial_merged.vectors)
    assert np.array_equal(merged.member_offsets, serial_merged.member_offsets)
    assert np.array_equal(merged.member_sources, serial_merged.member_sources)
    assert np.array_equal(merged.member_indices, serial_merged.member_indices)
    assert [item.members for item in pruned] == [item.members for item in serial_pruned]
    assert all(
        a.vector.tobytes() == b.vector.tobytes() for a, b in zip(pruned, serial_pruned)
    )
    assert elapsed < MERGE_CEILING_SECONDS, f"shared-memory merge+prune took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_snapshot_chain_roundtrip(tmp_path):
    """save → append → compact → load: every path lands on the same digests.

    The tier-1 guarantee for the delta-chain store: a rolling-ingest delta
    and its compaction both reconstruct exactly the state the live matcher
    held, and the delta genuinely writes less than the base it extends.
    """
    from repro.config import paper_default_config
    from repro.core.incremental import IncrementalMultiEM
    from repro.data.generators import load_benchmark
    from repro.store import compact_session, load_matcher
    from repro.store.codecs import embedding_store_digest, item_table_digest

    dataset = load_benchmark("music-20", profile="tiny")
    names = sorted(dataset.tables)
    matcher = IncrementalMultiEM(paper_default_config("music-20"))
    started = time.perf_counter()
    matcher.fit(dataset.subset(names[:-1], name=dataset.name))
    base = tmp_path / "s.snap"
    matcher.save(base)
    matcher.add_table(dataset.tables[names[-1]])
    delta = tmp_path / "s.snap.d1"
    matcher.save(delta)  # auto mode: a base exists, so this is a chain delta
    want_table = item_table_digest(matcher.integrated_table)
    want_store = embedding_store_digest(matcher._store)
    matcher.close()
    compacted = tmp_path / "compacted.snap"
    compact_session(delta, compacted)
    assert delta.stat().st_size < base.stat().st_size, "delta did not save bytes"
    for path in (delta, compacted):
        loaded = load_matcher(path)
        assert item_table_digest(loaded.integrated_table) == want_table
        assert embedding_store_digest(loaded._store) == want_store
        loaded.close()
    elapsed = time.perf_counter() - started
    assert elapsed < MERGE_CEILING_SECONDS, f"chain round trip took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_brute_force_batched_query(smoke_vectors):
    a, b = smoke_vectors
    index = BruteForceIndex(batch_size=128).build(a)
    started = time.perf_counter()
    indices, distances = index.query(b, 5)
    elapsed = time.perf_counter() - started
    assert indices.shape == (len(b), 5)
    assert np.isfinite(distances[:, 0]).all()
    assert elapsed < EXTEND_CEILING_SECONDS, f"brute-force batch query took {elapsed:.1f}s"


_MATRIX_SNIPPET = """\
import hashlib
import numpy as np
from repro.ann import HNSWIndex
from repro.ann import native

rng = np.random.default_rng(7)
vectors = rng.standard_normal((250, 36)).astype(np.float32)
queries = rng.standard_normal((25, 36)).astype(np.float32)
index = HNSWIndex(seed=4).build(vectors[:180])
index.extend(vectors[180:])
# Queries near the entry point keep their entry distance through the
# descent, so a batch-dependent entry distance would surface in the answers.
near = vectors[index._entry_point] + 0.3 * rng.standard_normal((24, 36)).astype(np.float32)
queries = np.concatenate([queries, near])
idx, dist = index.query(queries, 4)
singles = [index.query(queries[row : row + 1], 4) for row in range(len(queries))]
single_idx = np.concatenate([pair[0] for pair in singles])
single_dist = np.concatenate([pair[1] for pair in singles])
digest = hashlib.blake2b(digest_size=16)
for layer in range(len(index._layer_neighbors)):
    digest.update(index._layer_neighbors[layer][:250].tobytes())
    digest.update(index._layer_dists[layer][:250].tobytes())
digest.update(idx.tobytes())
digest.update(dist.tobytes())
digest.update(single_idx.tobytes())
digest.update(single_dist.tobytes())
print("VARIANT", native.kernel_variant())
print("BATCH_INVARIANT", single_idx.tobytes() == idx.tobytes() and single_dist.tobytes() == dist.tobytes())
print("DIGEST", digest.hexdigest())
"""


@pytest.mark.smoke
def test_smoke_kernel_compile_matrix():
    """One graph digest across every kernel tier: off / scalar / AVX2.

    Each leg runs in a subprocess with its own ``REPRO_NATIVE`` /
    ``REPRO_NATIVE_VARIANT`` environment, builds + extends + queries the same
    HNSW index, and prints a digest over the full graph, the batched query
    output and the same rows queried one at a time. Within a leg every
    single-row answer must equal its row of the batch (HNSW queries are
    batch-invariant); across legs the digests must agree byte-for-byte — the
    kernel tiers are alternative *implementations*, never alternative
    *results*. Legs the environment can't provide (no compiler, no AVX2 CPU)
    are skipped with the reason.
    """
    src_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base_env = {**os.environ}
    base_env["PYTHONPATH"] = src_root + os.pathsep + base_env.get("PYTHONPATH", "")
    base_env.pop("REPRO_NATIVE", None)
    base_env.pop("REPRO_NATIVE_VARIANT", None)

    legs = [("python-fallback", {"REPRO_NATIVE": "0"})]
    have_compiler = shutil.which(os.environ.get("CC", "gcc")) is not None
    native_disabled = os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false")
    if have_compiler and not native_disabled:
        legs.append(("native-scalar", {"REPRO_NATIVE_VARIANT": "scalar"}))
        from repro.ann.native import _cpu_supports_avx2

        if _cpu_supports_avx2():
            legs.append(("native-avx2", {"REPRO_NATIVE_VARIANT": "avx2"}))
        else:
            print("\n  skipping native-avx2 leg: CPU lacks AVX2+FMA3")
    else:
        reason = "native kernel disabled via REPRO_NATIVE" if native_disabled else "no C compiler"
        pytest.skip(f"only the python-fallback leg is runnable here: {reason}")

    digests: dict[str, str] = {}
    for name, extra_env in legs:
        env = {**base_env, **extra_env}
        completed = subprocess.run(
            [sys.executable, "-c", _MATRIX_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, f"{name} leg failed:\n{completed.stderr[-2000:]}"
        assert "BATCH_INVARIANT True" in completed.stdout, f"{name} leg is batch-variant"
        digests[name] = completed.stdout.strip().splitlines()[-1]
        if name == "native-scalar":
            assert "VARIANT scalar" in completed.stdout
        if name == "native-avx2":
            assert "VARIANT avx2" in completed.stdout
        if name == "python-fallback":
            assert "VARIANT None" in completed.stdout
    reference = digests["python-fallback"]
    for name, digest in digests.items():
        assert digest == reference, f"{name} leg diverged from the python fallback"
