"""Helpers every workload shares: statistics, result checks, set-up probes."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh processes timed per run for the match workloads' ``setup_s``.
SETUP_PROBES = 5


class Outcome:
    """Operations attempted/failed plus the problems behind the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples no
    percentile has ten beyond it, and the maximum is the highest the sample
    supports.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def tuple_digest(tuples) -> str:
    """Order-independent digest of a set of predicted tuples."""
    lines = sorted(
        ";".join(sorted(f"{ref.source}:{ref.index}" for ref in members)) for members in tuples
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def tuple_problems(tuples, dataset) -> list[str]:
    """Structural checks every MultiEM result must pass.

    Each tuple has at least two members, every member is a real row, no row
    sits in two tuples, and a tuple holds at most one row per source table.
    """
    sizes = {name: len(table) for name, table in dataset.tables.items()}
    seen: set = set()
    problems = []
    for members in tuples:
        if len(members) < 2:
            problems.append(f"tuple with {len(members)} member(s)")
        sources = [ref.source for ref in members]
        if len(set(sources)) != len(sources):
            problems.append(f"tuple with two rows of one source: {sorted(sources)}")
        for ref in members:
            if not 0 <= ref.index < sizes.get(ref.source, 0):
                problems.append(f"unknown row {ref}")
            if ref in seen:
                problems.append(f"row {ref} in two tuples")
            seen.add(ref)
        if len(problems) >= 5:
            break
    return problems


def generate(name: str, seed: int, profile: str, bench_entities: int | None = None):
    """The named benchmark dataset at ``profile``; at ``bench``, optionally
    with its entity pool resized to ``bench_entities``."""
    import dataclasses

    from repro.data.generators.registry import dataset_spec

    spec = dataset_spec(name)
    if profile == "bench" and bench_entities is not None:
        spec = dataclasses.replace(spec, entities_by_profile={"bench": bench_entities})
    return spec.build(profile, seed=seed)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probes(src: str, count: int = SETUP_PROBES) -> tuple[list[float], list[dict]]:
    """Time ``count`` fresh processes from launch until ``fingerprint.ready()``."""
    seconds, reports = [], []
    for _ in range(count):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdout=subprocess.PIPE,
            env=child_env(src),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            seconds.append(time.perf_counter() - started)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        reports.append(json.loads(line))
    return seconds, reports


def median(values) -> float:
    """The median, or NaN (which the run reports as a failure) for no values."""
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")
