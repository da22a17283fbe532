"""Tiny-scale checks of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``. Each workload runs
at the ``tiny`` profile for a few seconds; the checks are that every named
metric is reported finite with its unit, that the layer wrappers are gone
after a traced run, and that a corrupted serve answer counts as failed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import matchload
import run
import serveload
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _options(tmp_path, trace: bool) -> dict:
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return dict(seed=0, seconds=0.5, trace=trace, work_dir=str(work),
                trace_path=str(tmp_path / "trace.json"), src=SRC, profile="tiny")


def _assert_metrics(metrics: dict, names) -> None:
    assert sorted(metrics) == sorted(names)
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"], name


def test_benchmark_json_names_every_metric_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()
    }


def test_match_workload_reports_every_metric_and_removes_wrappers(tmp_path):
    untraced = matchload.run("match-music200", probes=1, **_options(tmp_path, False))
    assert untraced["outcome"].failed == 0
    _assert_metrics(
        {name: {"value": value, "unit": unit} for name, (value, unit) in untraced["values"].items()},
        run.END_TO_END,
    )

    traced = matchload.run("match-music200", probes=1, **_options(tmp_path, True))
    assert traced["outcome"].failed == 0
    assert spans.Tracer.leftover_wrappers() == []
    assert traced["layer_values"]["merge.s"] > 0  # the wrappers did record spans
    _assert_metrics(spans.layer_result(traced["layer_values"]), spans.LAYER_METRICS)
    with open(tmp_path / "trace.json", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {event["name"] for event in events} >= {"match", "merge", "prune"}


def test_serve_fold_counts_a_corrupted_answer_as_failed(tmp_path):
    def corrupt(sequence: int, body: bytes) -> bytes:
        return body.replace(b"source_", b"sourceX", 1) if sequence == 3 else body

    result = serveload.run(cycles=1, corrupt=corrupt, **_options(tmp_path, False))
    outcome = result["outcome"]
    assert outcome.failed == 1, outcome.problems
    assert outcome.attempted > 10
    _assert_metrics(
        {name: {"value": value, "unit": unit} for name, (value, unit) in result["values"].items()},
        run.END_TO_END,
    )


def test_a_distance_one_ulp_off_is_a_wrong_answer():
    from repro.serve.protocol import canonical_json

    def body(distance: float) -> bytes:
        return canonical_json({"rows": [[[[["source_A", 7], ["source_B", 9]], distance]]]})

    expected = float(np.float32(0.25))
    nudged = float(np.nextafter(np.float32(0.25), np.float32(1.0)))
    inputs = {"pre": [b'{"rows":[[]]}'], "post": [body(expected)]}
    assert serveload.classify(inputs, 0, 200, body(expected)) == "post"
    assert serveload.classify(inputs, 0, 200, body(nudged)) is None
    assert "post-fold tuples" in serveload.mismatch(inputs, 0, 200, body(nudged))
    assert "(1 float32 ulp)" in serveload.mismatch(inputs, 0, 200, body(nudged))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match-music200", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
