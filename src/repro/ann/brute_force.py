"""Exact nearest-neighbour search by full distance-matrix computation.

Used as the reference implementation for HNSW recall tests and as the default
backend for tables small enough that an exact search is faster than building
a graph index.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import IndexError_
from . import engine
from .base import NearestNeighborIndex
from .distances import PreparedVectors


class BruteForceIndex(NearestNeighborIndex):
    """Exact top-K search; O(n·q) distance evaluations per query batch.

    The index-side row statistics (norms for cosine, squared norms for
    euclidean) are prepared once at :meth:`build`, so repeated query batches
    against the same index skip the per-call re-normalization that
    :func:`~repro.ann.distances.distance_matrix` would redo. Queries run
    through the shared engine's dense path
    (:func:`repro.ann.engine.exact_topk_blocked` — candidate generation is
    "all rows"); results are bit-identical to the unprepared kernel.
    """

    def __init__(self, metric: str = "cosine", batch_size: int = 2048) -> None:
        super().__init__(metric)
        if batch_size < 1:
            raise IndexError_("batch_size must be >= 1")
        self.batch_size = batch_size
        self._prepared: PreparedVectors | None = None

    def build(self, vectors: np.ndarray) -> "BruteForceIndex":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise IndexError_("expected a 2-d array of vectors")
        self._vectors = vectors
        self._prepared = PreparedVectors(vectors, self.metric)
        return self

    def extend(self, vectors: np.ndarray) -> "BruteForceIndex":
        """Append vectors; identical to rebuilding over the concatenation."""
        if self._vectors is None:
            return self.build(vectors)
        vectors = self._validate_extension(vectors)
        assert self._prepared is not None
        self._prepared.append(vectors)
        self._vectors = self._prepared.vectors
        return self

    def clone(self) -> "BruteForceIndex":
        """Independent copy; extending the clone leaves the original untouched."""
        dup = BruteForceIndex(metric=self.metric, batch_size=self.batch_size)
        dup._vectors = self._vectors
        dup._prepared = None if self._prepared is None else self._prepared.copy()
        return dup

    # --------------------------------------------------------------- snapshot
    def snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """State bundle for :mod:`repro.store`: JSON-able meta + named arrays.

        The prepared row statistics are not stored: they are a deterministic
        per-row function of the vectors, recomputed byte-identically by
        :meth:`~repro.ann.distances.PreparedVectors.from_state` on restore.
        """
        if self._vectors is None:
            raise IndexError_("cannot snapshot an unbuilt index")
        assert self._prepared is not None
        arrays: dict[str, np.ndarray] = {"vectors": self._prepared.vectors}
        meta = {
            "backend": "brute-force",
            "metric": self.metric,
            "batch_size": self.batch_size,
        }
        return meta, arrays

    @classmethod
    def from_snapshot_state(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "BruteForceIndex":
        """Rebuild an index from :meth:`snapshot_state` output (arrays adopted as-is)."""
        index = cls(metric=meta["metric"], batch_size=meta["batch_size"])
        index._prepared = PreparedVectors.from_state(
            arrays["vectors"],
            meta["metric"],
            normed=arrays.get("normed"),
            squared_norms=arrays.get("squared_norms"),
        )
        index._vectors = index._prepared.vectors
        return index

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        queries = np.asarray(queries, dtype=np.float32)
        if k < 1:
            raise IndexError_("k must be >= 1")
        assert self._prepared is not None
        indices, distances = engine.alloc_topk(queries.shape[0], k)
        prepared_queries = self._prepared.prepare_queries(queries)
        engine.exact_topk_blocked(
            self._prepared, prepared_queries, k, self.batch_size, indices, distances
        )
        return indices, distances
