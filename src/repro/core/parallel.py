"""Parallel execution backend for MultiEM(parallel), with persistent pools.

The paper parallelizes two embarrassingly parallel loops (Section III-E):
per-table-pair merging within one hierarchy level, and per-tuple pruning.
This module wraps the choice of serial / thread-pool / process-pool execution
behind one ``map``-like call so the pipeline code stays identical in all
modes. Thread pools are the default because the heavy work (numpy distance
kernels) releases the GIL.

Persistent pools
----------------

Worker pools are created **once per executor lifetime** (lazily, at the
first parallel ``map``) and reused by every subsequent call; a pool is only
replaced when self-healing discards a broken or wedged one. Persistence is
what makes the process backend viable: workers survive across the merge
hierarchy's levels and across ``map`` calls, so per-call pool start-up
disappears and each worker's warmed state is amortized over the whole run.
Call :meth:`ParallelExecutor.close` (or use the executor as a context
manager) to release the pools; a closed executor lazily re-creates them if
it is used again.

Process workers are started with an initializer that

* **warms the native ANN kernel** (:func:`repro.ann.native.get_kernel`):
  the compile/self-test cost is paid once per worker instead of once per
  dispatched task burst, and under ``fork`` the parent's already-loaded
  kernel is inherited outright;
* **seeds a worker-local** :class:`~repro.ann.cache.IndexCache` from the
  snapshot of the cache attached via :meth:`ParallelExecutor.attach_index_cache`
  (pickle-shipped through the pool's ``initargs``; under ``fork`` the entry
  arrays arrive copy-on-write). Workers keep extending their local caches
  across tasks, which restores cross-level ANN index reuse for the process
  backend. Cache reuse is exact, so results are byte-identical with or
  without it;
* **adopts the parent's dedup calibration verdict**
  (:func:`repro.ann.engine.set_dedup_native_preferred`): the parent times
  the two dedup paths once and ships the boolean through ``initargs``, so
  workers never repeat the ~1M-key calibration sort.

Because a process pool ships tasks by pickle, callers dispatch module-level
task functions to it (see :mod:`repro.core.merging` /
:mod:`repro.core.pruning`); the thread and serial paths accept arbitrary
callables as before.
"""

from __future__ import annotations

import contextlib
import logging
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .. import faults as _faults
from ..config import ParallelConfig
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ann.cache import IndexCache

logger = logging.getLogger("repro.parallel")

T = TypeVar("T")
R = TypeVar("R")

#: Per-process state of pool workers, populated by :func:`_process_worker_init`.
_WORKER_STATE: dict = {}


def _process_worker_init(
    cache_entries: int, cache_payload: tuple, dedup_native: bool | None = None
) -> None:
    """Initializer run once in every process-pool worker.

    Warms the runtime-compiled ANN kernel (the ``.so`` is disk-cached, so
    this is a load + byte-identity self-test, not a recompile), installs the
    worker-local index cache, optionally seeded from the parent's snapshot,
    and adopts the parent's dedup calibration verdict so workers skip the
    ~1M-key timing run at warmup (the verdict is a pure performance choice —
    both dedup paths return identical arrays — so inheriting it is safe).
    """
    from ..ann import engine, native

    native.get_kernel()  # None (with a recorded reason) is a valid outcome
    engine.set_dedup_native_preferred(dedup_native)
    cache = None
    if cache_entries > 0:
        from ..ann.cache import IndexCache

        cache = IndexCache(max_entries=cache_entries)
        if cache_payload:
            cache.seed(list(cache_payload))
    _WORKER_STATE["index_cache"] = cache


def worker_index_cache() -> "IndexCache | None":
    """The calling process-pool worker's local index cache (None elsewhere)."""
    return _WORKER_STATE.get("index_cache")


def _run_task(function: Callable[[T], R], item: T, fault_spec: "dict | None") -> R:
    """Pool-side task shim: executes a claimed injected fault, then the task.

    ``fault_spec`` is non-``None`` only under an active fault plan
    (:func:`repro.faults.claim_worker_fault`); production dispatch pays one
    ``is None`` check.
    """
    if fault_spec is not None:
        _faults.execute_worker_fault(fault_spec)
    return function(item)


class ParallelExecutor:
    """Map a function over items serially or via a persistent worker pool."""

    def __init__(self, config: ParallelConfig | None = None) -> None:
        self.config = config or ParallelConfig()
        self.config.validate()
        self._pool: Executor | None = None  # persistent; backend is fixed per executor
        self._attached_cache: "IndexCache | None" = None
        #: Healing counters, cumulative over the executor's lifetime:
        #: ``pool_restarts`` (pools discarded after a break/timeout),
        #: ``retries`` (re-dispatch rounds), ``timeouts`` (tasks that
        #: exceeded ``task_timeout``), ``serial_fallbacks`` (maps that
        #: finished degraded, in-parent).
        self.metrics: dict[str, int] = {
            "pool_restarts": 0,
            "retries": 0,
            "timeouts": 0,
            "serial_fallbacks": 0,
        }

    @property
    def is_parallel(self) -> bool:
        """Whether calls will actually fan out to a worker pool."""
        return self.config.enabled and self.config.backend != "serial"

    @property
    def uses_processes(self) -> bool:
        """Whether parallel calls cross a process boundary (tasks must pickle)."""
        return self.is_parallel and self.config.backend == "process"

    @property
    def uses_shared_memory(self) -> bool:
        """Whether process dispatch should ship arrays via shared-memory planes.

        True only for the process backend with
        ``ParallelConfig.shared_memory`` set on a platform that has POSIX
        shared memory; callers then pack task arrays into a
        :class:`repro.store.plane.TaskPlane` and dispatch descriptors. The
        dispatch is bit-identical to the pickle path either way.
        """
        if not (self.uses_processes and self.config.shared_memory):
            return False
        from ..store import plane

        return plane.available()

    @contextlib.contextmanager
    def plane_session(self, tasks: "list[dict]", metas: "list | None" = None):
        """One shared-memory plane kept alive across several ``map`` calls.

        The sharded merge plane dispatches multiple owner-group ``map``
        rounds (forward queries, then backward queries) against the *same*
        pair of vector matrices; packing them into one
        :class:`repro.store.plane.TaskPlane` per merge — instead of one per
        ``map`` — amortizes the segment create/copy/unlink over every round.
        Yields the plane (unlinked on exit, even on error), or ``None`` when
        the executor does not ship arrays through shared memory, in which
        case callers fall back to their pickle/in-parent path.
        """
        if not self.uses_shared_memory:
            yield None
            return
        from ..store import plane as plane_mod

        plane = plane_mod.TaskPlane(tasks, metas)
        try:
            yield plane
        finally:
            plane.close()

    def attach_index_cache(self, cache: "IndexCache | None") -> None:
        """Register the cache whose snapshot seeds process workers.

        The snapshot is taken when the process pool is (lazily) created, so
        attach before the first parallel ``map``. Thread and serial backends
        share the cache object directly and ignore this.
        """
        self._attached_cache = cache

    # ------------------------------------------------------------- pools
    def _process_initargs(self) -> tuple[int, tuple, bool]:
        # Calibrate dedup in the parent (once per process, cached) so every
        # worker inherits the verdict instead of re-timing a ~1M-key sort.
        from ..ann import engine

        dedup_native = engine.dedup_native_preferred()
        cache = self._attached_cache
        if cache is None:
            return 0, (), dedup_native
        return cache.max_entries, tuple(cache.snapshot()), dedup_native

    def _make_pool(self) -> Executor:
        if self.config.backend == "thread":
            return ThreadPoolExecutor(max_workers=self.config.max_workers)
        if self.config.backend == "process":
            return ProcessPoolExecutor(
                max_workers=self.config.max_workers,
                initializer=_process_worker_init,
                initargs=self._process_initargs(),
            )
        raise ConfigurationError(f"unknown parallel backend {self.config.backend!r}")

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (idempotent; lazily re-created on reuse)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except Exception:
            pass

    def _discard_pool(self, pool: Executor) -> None:
        """Drop a broken or wedged pool without waiting on it.

        A hung process worker would block ``shutdown(wait=True)`` forever, so
        process workers are terminated outright first. Hung *threads* cannot
        be killed; they are leaked (non-daemon, so they finish eventually)
        and the executor simply stops routing work to that pool.
        """
        if self._pool is pool:
            self._pool = None
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # racing its own exit
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    # --------------------------------------------------------------- map
    def map(self, function: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``function`` to every item, preserving input order.

        Falls back to serial execution for empty or single-item input, where a
        pool would only add overhead (the paper observes the same effect on
        the small Geo dataset). With ``backend="process"``, ``function`` and
        every item must be picklable — use module-level task functions.

        With ``ParallelConfig.self_heal`` (the default), pool failures are
        recovered instead of raised — see :meth:`_map_healing`. Because every
        dispatched task is pure (module-level functions over immutable
        arrays), re-running one in a fresh pool or in the parent produces the
        same bytes; a killed worker changes wall-clock, never results.
        """
        if not self.is_parallel or len(items) <= 1:
            return [function(item) for item in items]
        if self.config.backend not in ("thread", "process"):
            raise ConfigurationError(f"unknown parallel backend {self.config.backend!r}")
        if self.config.self_heal:
            return self._map_healing(function, items)
        pool = self._ensure_pool()
        try:
            return list(pool.map(function, items))
        except BrokenProcessPool:
            # Drop the broken pool so a later call starts fresh, then surface
            # the failure — silently retrying could mask a crashing task.
            self._pool = None
            raise

    def _map_healing(self, function: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Dispatch with per-task timeouts, pool restarts, and serial fallback.

        Rounds: submit every still-missing task, collect results in order;
        on ``BrokenProcessPool`` or a task timeout, harvest whatever finished,
        discard the pool (terminating hung process workers), back off, and
        re-dispatch the remainder in a fresh pool — up to
        ``max_retries`` rounds, after which the remainder runs serially in
        the parent. Genuine task exceptions propagate immediately,
        un-retried: retrying a deterministic failure would just fail again,
        and silently swallowing it could mask a real bug.
        """
        config = self.config
        inject_faults = config.backend == "process" and _faults.active() is not None
        results: dict[int, R] = {}
        pending = list(range(len(items)))
        rounds = 0
        while pending:
            pool = self._ensure_pool()
            failure: BaseException | None = None
            try:
                futures = {}
                for index in pending:
                    spec = _faults.claim_worker_fault(index) if inject_faults else None
                    futures[index] = pool.submit(_run_task, function, items[index], spec)
                for index in pending:
                    if failure is None:
                        try:
                            results[index] = futures[index].result(
                                timeout=config.task_timeout
                            )
                            continue
                        except BrokenProcessPool as exc:
                            failure = exc
                        except FutureTimeoutError as exc:
                            self.metrics["timeouts"] += 1
                            failure = exc
                    # Past the first failure: harvest tasks that did finish
                    # so only genuinely-missing ones are re-dispatched.
                    future = futures[index]
                    if future.done() and not future.cancelled():
                        if future.exception() is None:
                            results[index] = future.result()
                        elif not isinstance(future.exception(), BrokenProcessPool):
                            raise future.exception()
            finally:
                if failure is not None:
                    self.metrics["pool_restarts"] += 1
                    self._discard_pool(pool)
            pending = [index for index in pending if index not in results]
            if not pending:
                break
            if rounds >= config.max_retries:
                self.metrics["serial_fallbacks"] += 1
                logger.warning(
                    "worker pool failed %d time(s) (%s); degrading %d task(s) to "
                    "serial in-parent execution (results are unaffected)",
                    rounds + 1,
                    failure,
                    len(pending),
                )
                for index in pending:
                    results[index] = function(items[index])
                break
            rounds += 1
            self.metrics["retries"] += 1
            backoff = config.retry_backoff * (2 ** (rounds - 1))
            logger.warning(
                "worker pool failure (%s: %s); restarting pool and retrying "
                "%d task(s) after %.2fs (round %d/%d)",
                type(failure).__name__,
                failure,
                len(pending),
                backoff,
                rounds,
                config.max_retries,
            )
            if backoff > 0:
                time.sleep(backoff)
        return [results[index] for index in range(len(items))]

    def starmap(self, function: Callable[..., R], items: Iterable[tuple]) -> list[R]:
        """Like :meth:`map` but unpacking argument tuples (thread/serial only)."""
        materialized = list(items)
        return self.map(lambda args: function(*args), materialized)


def partition(items: Sequence[T], num_parts: int) -> list[list[T]]:
    """Split items into at most ``num_parts`` contiguous, balanced chunks.

    Used to batch per-tuple pruning work so each worker gets a meaningful
    chunk instead of one tiny task.
    """
    if num_parts < 1:
        raise ConfigurationError("num_parts must be >= 1")
    items = list(items)
    if not items:
        return []
    num_parts = min(num_parts, len(items))
    size, remainder = divmod(len(items), num_parts)
    chunks: list[list[T]] = []
    start = 0
    for part in range(num_parts):
        stop = start + size + (1 if part < remainder else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks
