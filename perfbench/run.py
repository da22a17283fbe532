"""The repository's benchmark: one command, three workloads.

Run from the checkout root::

    python3 perfbench/run.py --workload match-music200 --seed 0 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``match-music200`` / ``match-person`` — ``MultiEM.match`` at the ``bench``
  profile with the paper's default config (see ``matchload.py``);
* ``serve-fold`` — open-loop ``/query`` reads against ``repro.cli serve``
  while a fold is published into the served chain (see ``serveload.py``).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is a separate
run that wraps each layer's public callables and prints every per-layer
metric (``spans.LAYER_METRICS``), writing the span tree next to the result
record under ``perfbench/.out/``. Every run checks its outputs and counts
failed operations; the last stdout line is the JSON result, and the lines
before it carry the machine/runtime fingerprint and the output digest.

Every workload reports every end-to-end metric. The serving metrics
(``query_*``, ``publish_s``, ``fresh_s``) on a match workload, and the
matching metrics (``match_s``, ``*_f1``, ``peak_rss_mb``) on ``serve-fold``,
measure that workload's nearest equivalent — see each module's docstring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("match-music200", "match-person", "serve-fold")
END_TO_END = (
    "setup_s", "match_s", "tuple_f1", "pair_f1", "peak_rss_mb",
    "query_p50_ms", "query_tail_ms", "publish_s", "fresh_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args, src: str, out_dir: str) -> dict:
    """Run one workload; returns the result document (last stdout line)."""
    import fingerprint
    import spans

    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        options = dict(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                       work_dir=work_dir, trace_path=trace_path, src=src)
        if args.workload == "serve-fold":
            import serveload

            run = serveload.run(**options)
        else:
            import matchload

            run = matchload.run(args.workload, **options)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcome = run["outcome"]
    if args.trace:
        metrics = spans.layer_result(run["layer_values"])
    else:
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in run["values"].items()}
        missing = [name for name in END_TO_END if name not in metrics]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
    bad = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    for name in bad:
        outcome.record(False, f"metric {name} is not finite")
        metrics[name]["value"] = 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint.machine(),
        **run["record"],
        "problems": outcome.problems,
        "metrics": metrics,
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"fingerprint": {**record["machine"], **record["runtime"]}}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "digest": record.get("digest"), "record": path}))
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:28s} {metric['value']:14.4f} {metric['unit']:5s} "
                  f"moves: {spans.LAYER_METRICS[name][2]}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(HERE, ".out")
    # Temporary files (the native kernel's compiler included) stay in the checkout.
    os.environ["TMPDIR"] = os.path.join(out_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    result = run_workload(args, src, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
