"""Self-healing executor: killed/hung workers change wall-clock, never bytes.

The contract under test: with ``ParallelConfig.self_heal`` (the default), a
worker that dies mid-``map`` (``BrokenProcessPool``) or hangs past
``task_timeout`` triggers pool restart + bounded re-dispatch, and — once
retries are exhausted — serial in-parent execution of whatever is missing.
Results are bit-equal to the serial path in every case, because every
dispatched task is pure; the degradation is surfaced through
``ParallelExecutor.metrics`` and the ``repro.parallel`` logger. Genuine task
exceptions still propagate un-retried.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import faults
from repro.config import ParallelConfig, paper_default_config
from repro.core.parallel import ParallelExecutor

pytestmark = pytest.mark.faults


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError("task 3 is genuinely broken")
    return x


def _heal_config(**overrides) -> ParallelConfig:
    defaults = dict(
        enabled=True,
        backend="process",
        max_workers=2,
        task_timeout=60.0,
        max_retries=2,
        retry_backoff=0.01,
    )
    defaults.update(overrides)
    return ParallelConfig(**defaults)


class TestHealingUnit:
    def test_killed_worker_map_completes_bit_equal(self, caplog):
        items = list(range(8))
        with faults.inject(faults.FaultPlan(worker_fault="kill", worker_fault_task=3)):
            with ParallelExecutor(_heal_config()) as ex:
                with caplog.at_level(logging.WARNING, logger="repro.parallel"):
                    assert ex.map(_square, items) == [x * x for x in items]
                assert ex.metrics["pool_restarts"] >= 1
                assert ex.metrics["retries"] >= 1
                assert ex.metrics["serial_fallbacks"] == 0
        assert any("restarting pool" in r.message for r in caplog.records)

    def test_hung_worker_times_out_and_heals(self):
        items = list(range(4))
        plan = faults.FaultPlan(
            worker_fault="hang", worker_fault_task=1, worker_hang_seconds=120.0
        )
        with faults.inject(plan):
            with ParallelExecutor(_heal_config(task_timeout=1.0)) as ex:
                assert ex.map(_square, items) == [x * x for x in items]
                assert ex.metrics["timeouts"] >= 1
                assert ex.metrics["pool_restarts"] >= 1

    def test_repeated_kills_degrade_to_serial(self, caplog):
        items = list(range(6))
        plan = faults.FaultPlan(
            worker_fault="kill", worker_fault_task=2, worker_fault_repeat=True
        )
        with faults.inject(plan):
            with ParallelExecutor(_heal_config(max_retries=1)) as ex:
                with caplog.at_level(logging.WARNING, logger="repro.parallel"):
                    assert ex.map(_square, items) == [x * x for x in items]
                assert ex.metrics["serial_fallbacks"] == 1
                assert ex.metrics["retries"] == 1
        assert any("degrading" in r.message for r in caplog.records)

    def test_genuine_task_exception_propagates_unretried(self):
        with ParallelExecutor(_heal_config()) as ex:
            with pytest.raises(ValueError, match="genuinely broken"):
                ex.map(_boom, list(range(6)))
            assert ex.metrics["retries"] == 0
            assert ex.metrics["serial_fallbacks"] == 0
            # The executor stays usable after the failure.
            assert ex.map(_square, [2, 3]) == [4, 9]

    def test_self_heal_off_preserves_failfast_behaviour(self):
        from concurrent.futures.process import BrokenProcessPool

        plan = faults.FaultPlan(worker_fault="kill", worker_fault_task=0)
        config = _heal_config(self_heal=False)
        with faults.inject(plan):
            with ParallelExecutor(config) as ex:
                # self_heal=False never consults the fault switchboard, so
                # simulate the kill directly: a task that nukes its worker.
                with pytest.raises(BrokenProcessPool):
                    ex.map(_worker_suicide, list(range(4)))
                assert ex._pool is None, "broken pool must be dropped"

    def test_thread_backend_timeout_heals_serially(self):
        # Threads cannot be killed: the wedged pool is abandoned and the
        # missing tasks run in the parent.
        config = _heal_config(backend="thread", task_timeout=0.5, max_retries=0)
        with ParallelExecutor(config) as ex:
            assert ex.map(_sleepy, [0.0, 5.0, 0.0]) == [0.0, 5.0, 0.0]
            assert ex.metrics["timeouts"] >= 1
            assert ex.metrics["serial_fallbacks"] == 1


def _worker_suicide(x):
    import os

    if x == 0:
        os._exit(86)
    return x


def _sleepy(seconds):
    # Sleeps only inside a pool worker thread; the serial fallback re-runs it
    # in the parent, where sleeping the full 5s would slow the suite, so the
    # parent path returns immediately.
    import threading
    import time

    if threading.current_thread() is not threading.main_thread() and seconds:
        time.sleep(seconds)
    return seconds


class TestHealingEndToEnd:
    @pytest.mark.parametrize("shared_memory", [False, True])
    def test_killed_worker_mid_merge_is_bit_equal_to_serial(self, shared_memory):
        """A worker killed mid hierarchical merge never changes predictions."""
        from repro.core import MultiEM
        from repro.data.generators import load_benchmark

        if shared_memory:
            from repro.store import plane

            if not plane.available():
                pytest.skip("no POSIX shared memory on this platform")
        dataset = load_benchmark("music-20", profile="tiny")
        config = paper_default_config("music-20")
        serial = MultiEM(config).match(dataset)
        assert serial.tuples
        parallel_config = config.with_overrides(
            parallel={
                "enabled": True,
                "backend": "process",
                "max_workers": 2,
                "shared_memory": shared_memory,
                "task_timeout": 120.0,
                "retry_backoff": 0.01,
            }
        )
        with faults.inject(faults.FaultPlan(worker_fault="kill", worker_fault_task=0)):
            result = MultiEM(parallel_config).match(dataset)
        assert result.tuples == serial.tuples, "healing changed predictions"

    def test_fit_with_repeating_kills_degrades_but_matches(self):
        """Even full serial degradation mid-fit reproduces the exact tuples."""
        from repro.core import IncrementalMultiEM
        from repro.data.generators import load_benchmark

        dataset = load_benchmark("geo", profile="tiny")
        config = paper_default_config("geo")
        with IncrementalMultiEM(config) as serial_matcher:
            serial = serial_matcher.fit(dataset)
        parallel_config = config.with_overrides(
            parallel={
                "enabled": True,
                "backend": "process",
                "max_workers": 2,
                "task_timeout": 60.0,
                "max_retries": 1,
                "retry_backoff": 0.01,
            }
        )
        plan = faults.FaultPlan(
            worker_fault="kill", worker_fault_task=0, worker_fault_repeat=True
        )
        with faults.inject(plan):
            with IncrementalMultiEM(parallel_config) as matcher:
                result = matcher.fit(dataset)
        assert result.tuples == serial.tuples


def test_config_validation_of_healing_knobs():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        ParallelConfig(task_timeout=0.0).validate()
    with pytest.raises(ConfigurationError):
        ParallelConfig(max_retries=-1).validate()
    with pytest.raises(ConfigurationError):
        ParallelConfig(retry_backoff=-0.5).validate()
    ParallelConfig(task_timeout=1.0, max_retries=0, retry_backoff=0.0).validate()
