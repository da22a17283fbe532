"""The ``match-*`` workloads: ``MultiEM.match`` on a generated benchmark.

Config is ``paper_default_config(name)`` — ``index="auto"``, serial.
``DATASETS`` fixes each workload's entity pool so that ``auto`` picks the
same backend at every seed. At the ``bench`` profile's 4,000 entities,
music-200's last merge puts 4,024–4,181 rows on one side over seeds 0–9, so
seeds 2, 4 and 6 cross the 4,096-row limit into HNSW. With 3,700 entities
(~10.2k rows) that side stays at 3,729–3,853 rows: exact search at every
seed. Person keeps the ``bench`` pool; its sides exceed 4,096 at every seed.

An untimed tiny-profile match finishes lazy set-up and an untimed
full-size match warms the process; the timed matches then repeat until
``--seconds`` have passed (at least ``MIN_REPS``), every one must give the
warm-up's tuple digest, and every metric is a median over them. Each
match's predicted tuples are published the way ``repro.cli match --output``
does (JSON of the tuples).

The serving-named end-to-end metrics measure this workload's nearest
equivalent. A match call is the request, so ``query_p50_ms`` is its median
and ``query_tail_ms`` the slowest one (a run has too few calls for a
percentile with ten samples beyond it). ``publish_s`` runs from the call
until its predictions file is written (compute and persist a new state, as
serve-fold's publish does); ``fresh_s`` runs on until a reader has loaded
that file back and found it equal to the result.
"""

from __future__ import annotations

import json
import os
import resource
import time

import common
import spans

#: workload -> (dataset, bench entity pool; None keeps the profile's own).
DATASETS = {"match-music200": ("music-200", 3700), "match-person": ("person", None)}
MIN_REPS = 3
MIN_TRACED_PAIRS = 2


def run(workload: str, *, seed: int, seconds: float, trace: bool, work_dir: str,
        trace_path: str, src: str, profile: str = "bench",
        probes: int = common.SETUP_PROBES) -> dict:
    setup, probe_reports = common.setup_probes(src, probes)

    import fingerprint
    from repro import MultiEM, evaluate, paper_default_config
    from repro.data.io import refs_to_json

    runtime = fingerprint.ready()
    name, entities = DATASETS[workload]
    dataset = common.generate(name, seed, profile, entities)
    config = paper_default_config(name)
    outcome = common.Outcome()
    predictions = os.path.join(work_dir, "predictions.json")

    def match():
        """One match, its published predictions, and a reader's check of
        them; returns the result and the three instants after the start."""
        started = time.perf_counter()
        result = MultiEM(config).match(dataset)
        matched = time.perf_counter()
        groups = refs_to_json(result.tuples)
        with open(predictions, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(groups, indent=2))
        published = time.perf_counter()
        with open(predictions, encoding="utf-8") as handle:
            read_back = json.load(handle)
        fresh = time.perf_counter()
        outcome.record(read_back == groups, "published predictions do not read back")
        return result, (matched - started, published - started, fresh - started)

    def checked_match():
        result, times = match()
        digest = common.tuple_digest(result.tuples)
        outcome.record(digest == reference, f"digest {digest} != first match's {reference}")
        return times

    # A tiny-profile match runs the code paths' lazy set-up untimed. The
    # first full-size match is untimed too (its exact-search stage runs about
    # twice as slow as later ones while the process's memory grows); it fixes
    # the digest every later match must repeat.
    MultiEM(config).match(common.generate(name, seed, "tiny"))
    first, _ = match()
    reference = common.tuple_digest(first.tuples)
    problems = common.tuple_problems(first.tuples, dataset)
    outcome.record(not problems, "; ".join(problems))
    report = evaluate(first, dataset)
    started = time.perf_counter()

    record = {
        "dataset": name,
        "profile": profile,
        "rows": sum(len(table) for table in dataset.tables.values()),
        "digest": reference,
        "predicted_tuples": len(first.tuples),
        "setup_samples_s": setup,
        "probe_runtime": probe_reports,
        "runtime": runtime,
    }
    if not trace:
        samples = []
        while len(samples) < MIN_REPS or time.perf_counter() - started < seconds:
            samples.append(checked_match())
        match_s, publish_s, fresh_s = (list(column) for column in zip(*samples))
        record.update(match_samples_s=match_s, publish_samples_s=publish_s)
        values = {
            "setup_s": (common.median(setup), "s"),
            "match_s": (common.median(match_s), "s"),
            "tuple_f1": (report.f1, "%"),
            "pair_f1": (report.pair_f1, "%"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "query_p50_ms": (common.median(m * 1e3 for m in match_s), "ms"),
            "query_tail_ms": (max(match_s) * 1e3, "ms"),
            "publish_s": (common.median(publish_s), "s"),
            "fresh_s": (common.median(fresh_s), "s"),
        }
        return {"outcome": outcome, "values": values, "record": record}

    tracer = spans.Tracer()
    untraced, traced, samples = [], [], []
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - started < seconds:
        untraced.append(checked_match()[0])
        tracer.reset()
        spans.install_layer_wrappers(tracer)
        try:
            traced.append(checked_match()[0])
        finally:
            tracer.uninstall()
        spans.annotate_levels(tracer.spans)
        samples.append(spans.match_layer_metrics(tracer.spans))
    leftover = spans.Tracer.leftover_wrappers()
    outcome.record(not leftover, f"wrappers left installed: {leftover}")
    values = spans.median_metrics(samples)
    values["trace.overhead_pct"] = 100.0 * (common.median(traced) / common.median(untraced) - 1.0)
    tracer.write_chrome_trace(trace_path)
    record.update(
        untraced_samples_s=untraced,
        traced_samples_s=traced,
        trace_file=trace_path,
        layer_samples=samples,
    )
    return {"outcome": outcome, "layer_values": values, "record": record}
