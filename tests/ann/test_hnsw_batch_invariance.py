"""HNSW query answers do not depend on the batch around a row.

The serve coalescer folds concurrent requests into one batched query and
slices each request's rows back out, which is only exact if every row's
answer is the same alone as at any position in any batch
(``HNSWIndex.batch_invariant``). The entry-point distance is the easiest
place to break this: one GEMM over the whole batch can round a row's dot
product differently from the per-row kernel call the traversal uses.
"""

import numpy as np
import pytest

from repro.ann import HNSWIndex, native

BATCH_SIZES = (2, 3, 7, 16, 33, 72)


@pytest.fixture(scope="module", params=["cosine", "euclidean"])
def index_and_queries(request):
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((600, 96)).astype(np.float32)
    index = HNSWIndex(request.param, max_degree=8, ef_construction=40, ef_search=24, seed=1)
    index.build(vectors)
    # Half the queries sit near the entry point: their descent never leaves
    # it, so its entry distance is what the answer reports.
    near = vectors[index._entry_point] + 0.3 * rng.standard_normal((36, 96)).astype(np.float32)
    far = rng.standard_normal((36, 96)).astype(np.float32)
    return index, np.concatenate([near, far])


@pytest.mark.parametrize("use_native", [False, True], ids=["numpy", "native"])
def test_single_row_answers_match_every_batch_position(index_and_queries, use_native):
    index, queries = index_and_queries
    if use_native and native.get_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.disabled_reason}")
    index._use_native = use_native
    try:
        singles = [index.query(queries[row : row + 1], 5) for row in range(len(queries))]
        rng = np.random.default_rng(0)
        for size in BATCH_SIZES:
            order = rng.permutation(len(queries))
            for start in range(0, len(order), size):
                rows = order[start : start + size]
                indices, distances = index.query(queries[rows], 5)
                for position, row in enumerate(rows):
                    want_indices, want_distances = singles[row]
                    assert indices[position].tobytes() == want_indices[0].tobytes(), (
                        f"row {row} at position {position} of a {len(rows)}-row batch"
                    )
                    assert distances[position].tobytes() == want_distances[0].tobytes(), (
                        f"row {row} at position {position} of a {len(rows)}-row batch"
                    )
    finally:
        index._use_native = None

