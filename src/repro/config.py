"""Configuration objects for the MultiEM pipeline.

The defaults mirror the paper's implementation details (Section IV-A):
``k = 1``, ``MinPts = 2``, sampling ratio ``r = 0.2`` (``0.05`` for very large
datasets), ``epsilon`` from ``{0.8, 1.0}``, ``m`` from
``{0.05, 0.2, 0.35, 0.5}``, ``gamma`` from ``{0.8, 0.9}``, cosine distance for
merging and euclidean distance for pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .exceptions import ConfigurationError

#: Hyper-parameter grids used by the paper's grid search (Section IV-A).
PAPER_M_GRID = (0.05, 0.2, 0.35, 0.5)
PAPER_EPSILON_GRID = (0.8, 1.0)
PAPER_GAMMA_GRID = (0.8, 0.9)

#: Re-calibrated grids for the hashed-n-gram encoder used in this repo.
#: Sentence-BERT places textual variants of one entity at cosine distance
#: ~0.05-0.2; the from-scratch encoder places them at ~0.2-0.6, so the same
#: sweep shape is explored at a shifted scale (see EXPERIMENTS.md).
REPRO_M_GRID = (0.35, 0.5, 0.65, 0.8)
REPRO_EPSILON_GRID = (0.8, 1.0, 1.2, 1.4)
REPRO_GAMMA_GRID = (0.8, 0.85, 0.9, 0.95)


@dataclass(frozen=True)
class RepresentationConfig:
    """Settings for the enhanced entity representation stage.

    Attributes:
        encoder: which sentence encoder to use (``"hashed-ngram"`` or
            ``"tfidf-svd"``); both are Sentence-BERT substitutes.
        dimension: embedding dimensionality (the paper's MiniLM is 384-d).
        max_sequence_length: maximum number of tokens kept per serialized
            entity (paper: 64).
        attribute_selection: whether to run Algorithm 1 (the EER module);
            turning this off gives the "w/o EER" ablation.
        gamma: significance threshold γ for attribute selection.
        sample_ratio: row sampling ratio r used when scoring attributes.
        seed: RNG seed for sampling and shuffling inside Algorithm 1.
    """

    encoder: str = "hashed-ngram"
    dimension: int = 384
    max_sequence_length: int = 64
    attribute_selection: bool = True
    gamma: float = 0.9
    sample_ratio: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.dimension <= 0:
            raise ConfigurationError("embedding dimension must be positive")
        if not 0 < self.sample_ratio <= 1:
            raise ConfigurationError("sample_ratio must be in (0, 1]")
        if self.max_sequence_length <= 0:
            raise ConfigurationError("max_sequence_length must be positive")
        if self.encoder not in ("hashed-ngram", "tfidf-svd"):
            raise ConfigurationError(f"unknown encoder {self.encoder!r}")
        if not 0 <= self.gamma <= 1:
            raise ConfigurationError("gamma must be in [0, 1]")


@dataclass(frozen=True)
class MergingConfig:
    """Settings for table-wise hierarchical merging (Algorithms 2-3).

    Attributes:
        k: mutual top-K neighbourhood size (paper: 1).
        m: distance threshold for accepting a neighbour pair.
        metric: distance used during merging (paper: cosine).
        index: ANN backend — ``"auto"`` picks brute force below
            ``brute_force_limit`` rows and HNSW above, ``"hnsw"``,
            ``"brute-force"`` or ``"lsh"`` force a backend.
        brute_force_limit: table size under which exact search is used in
            ``"auto"`` mode.
        hnsw_ef_construction / hnsw_ef_search / hnsw_max_degree: HNSW knobs.
        lsh_num_tables / lsh_num_bits / lsh_probe_neighbors: LSH knobs (hash
            tables, signature bits, Hamming-1 neighbour probing) for the
            backend-ablation benchmark.
        index_cache: consult an :class:`repro.ann.cache.IndexCache` before
            building per-merge ANN indexes, reusing carried-forward indexes
            across hierarchy levels (and across ``add_table`` calls in the
            incremental matcher). Reuse is exact, so results are unchanged.
        index_cache_entries: LRU capacity of that cache.
        seed: seed controlling the random pairing of tables at each hierarchy
            level (Figure 6(b) studies sensitivity to this order).
        shards: number of merge shards (``1`` = the classic unsharded pass).
            With ``shards > 1`` the merge plane routes every mutual top-K
            query workload through the :mod:`repro.shard` subsystem: rows are
            partitioned by blocking key, each shard's queries run
            independently, and a boundary pass stitches cross-shard pairs
            back together. Output is byte-identical to the unsharded merge at
            any shard count.
        shard_key: partitioning key family — ``"lsh"`` hashes representative
            vectors through :func:`repro.ann.lsh.bucket_keys`, ``"token"``
            reuses the token-blocking keys of the raw records (only available
            to entry points that still hold the raw tables).
    """

    k: int = 1
    m: float = 0.5
    metric: str = "cosine"
    index: str = "auto"
    brute_force_limit: int = 4096
    hnsw_ef_construction: int = 100
    hnsw_ef_search: int = 64
    hnsw_max_degree: int = 16
    lsh_num_tables: int = 8
    lsh_num_bits: int = 12
    lsh_probe_neighbors: bool = True
    index_cache: bool = True
    index_cache_entries: int = 8
    seed: int = 0
    shards: int = 1
    shard_key: str = "lsh"

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.m < 0:
            raise ConfigurationError("m must be non-negative")
        if self.metric not in ("cosine", "euclidean"):
            raise ConfigurationError(f"unknown merging metric {self.metric!r}")
        if self.index not in ("auto", "hnsw", "brute-force", "lsh"):
            raise ConfigurationError(f"unknown index backend {self.index!r}")
        if self.brute_force_limit < 1:
            raise ConfigurationError("brute_force_limit must be >= 1")
        if self.lsh_num_tables < 1 or self.lsh_num_bits < 1:
            raise ConfigurationError("lsh_num_tables and lsh_num_bits must be >= 1")
        if self.index_cache_entries < 1:
            raise ConfigurationError("index_cache_entries must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.shard_key not in ("lsh", "token"):
            raise ConfigurationError(f"unknown shard key {self.shard_key!r}")


@dataclass(frozen=True)
class PruningConfig:
    """Settings for density-based pruning (Algorithm 4).

    Attributes:
        enabled: turning this off gives the "w/o DP" ablation.
        epsilon: neighbourhood radius ε (euclidean, paper grid {0.8, 1.0}).
        min_pts: MinPts, the neighbour count needed to be a core entity.
        metric: distance used during pruning (paper: euclidean).
        batch_rows: per-block cap for the vectorized classifier — at most
            this many member rows are gathered into one batched distance
            block (a single tuple always classifies whole, even beyond the
            cap). Any value yields byte-identical output (blocking never
            changes a tuple's arithmetic); it only trades peak block memory
            for call count.
    """

    enabled: bool = True
    epsilon: float = 1.0
    min_pts: int = 2
    metric: str = "euclidean"
    batch_rows: int = 8192

    def validate(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.min_pts < 1:
            raise ConfigurationError("min_pts must be >= 1")
        if self.metric not in ("cosine", "euclidean"):
            raise ConfigurationError(f"unknown pruning metric {self.metric!r}")
        if self.batch_rows < 1:
            raise ConfigurationError("batch_rows must be >= 1")


@dataclass(frozen=True)
class ParallelConfig:
    """Settings for the parallel variant MultiEM(parallel).

    Attributes:
        enabled: run merging and pruning through a worker pool.
        backend: ``"thread"`` or ``"process"``; threads are the default since
            the heavy lifting is released-GIL numpy work.
        max_workers: pool size (``None`` lets the executor decide). Each
            :class:`~repro.core.parallel.ParallelExecutor` keeps one
            persistent pool for its lifetime.
        shared_memory: with the process backend, ship merge/prune task
            arrays through a shared-memory plane
            (:mod:`repro.store.plane`) instead of pickling them through the
            pool's pipes — workers receive integer descriptors and attach
            zero-copy views. Bit-identical to the pickle dispatch; ignored
            by the serial and thread backends (and on platforms without
            POSIX shared memory).
        self_heal: recover from pool failures instead of raising — a killed
            worker (``BrokenProcessPool``) or a task exceeding
            ``task_timeout`` restarts the pool, re-dispatches the missing
            tasks with exponential backoff (``max_retries`` rounds), and
            finally degrades to in-parent serial execution of whatever is
            still missing. Tasks are pure, so healing changes wall-clock and
            metrics only, never result bytes. Genuine task exceptions still
            propagate un-retried.
        task_timeout: seconds to wait for any single task before declaring
            the pool wedged (``None`` waits forever — hung workers are then
            only caught by the caller).
        max_retries: pool-restart rounds before serial degradation.
        retry_backoff: base sleep (seconds) between rounds, doubled each
            round.
    """

    enabled: bool = False
    backend: str = "thread"
    max_workers: int | None = None
    shared_memory: bool = False
    self_heal: bool = True
    task_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.1

    def validate(self) -> None:
        if self.backend not in ("thread", "process", "serial"):
            raise ConfigurationError(f"unknown parallel backend {self.backend!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError("task_timeout must be > 0 when given")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")


@dataclass(frozen=True)
class MultiEMConfig:
    """Complete configuration for a :class:`repro.core.pipeline.MultiEM` run."""

    representation: RepresentationConfig = field(default_factory=RepresentationConfig)
    merging: MergingConfig = field(default_factory=MergingConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    def validate(self) -> None:
        self.representation.validate()
        self.merging.validate()
        self.pruning.validate()
        self.parallel.validate()

    def with_overrides(self, **overrides: Mapping[str, Any]) -> "MultiEMConfig":
        """Return a copy with per-section overrides.

        Example:
            >>> cfg = MultiEMConfig().with_overrides(merging={"m": 0.2})
            >>> cfg.merging.m
            0.2
        """
        sections: dict[str, Any] = {}
        for name, value in overrides.items():
            current = getattr(self, name, None)
            if current is None:
                raise ConfigurationError(f"unknown config section {name!r}")
            if isinstance(value, dict):
                sections[name] = replace(current, **value)
            else:
                sections[name] = value
        return replace(self, **sections)


def paper_default_config(dataset_name: str | None = None, *, parallel: bool = False) -> MultiEMConfig:
    """Return the configuration the paper reports for a given dataset.

    The paper tunes ``m``, ``epsilon`` and ``gamma`` by grid search per
    dataset; this helper returns sensible per-dataset picks used by the
    experiment harness. Unknown dataset names get the global defaults.
    """
    per_dataset: dict[str, dict[str, float]] = {
        "geo": {"m": 0.5, "epsilon": 1.0, "gamma": 0.9, "sample_ratio": 0.2},
        "music-20": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "music-200": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "music-2000": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "person": {"m": 0.65, "epsilon": 1.2, "gamma": 0.8, "sample_ratio": 0.05},
        "shopee": {"m": 0.35, "epsilon": 0.8, "gamma": 0.9, "sample_ratio": 0.2},
        "product": {"m": 0.5, "epsilon": 1.0, "gamma": 0.9, "sample_ratio": 0.2},
    }
    params = per_dataset.get(dataset_name or "", {})
    config = MultiEMConfig(
        representation=RepresentationConfig(
            gamma=float(params.get("gamma", 0.9)),
            sample_ratio=float(params.get("sample_ratio", 0.2)),
        ),
        merging=MergingConfig(m=float(params.get("m", 0.5))),
        pruning=PruningConfig(epsilon=float(params.get("epsilon", 1.0))),
        parallel=ParallelConfig(enabled=parallel),
    )
    config.validate()
    return config
