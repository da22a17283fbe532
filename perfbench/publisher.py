"""Fold publisher for ``serve-fold``: a separate process, like a real writer.

Started once per run; it regenerates the workload's dataset from the seed,
finishes its own lazy set-up, and prints ``{"ready": ...}``. Each stdin line
``{"base": BASE, "delta": DELTA}`` then publishes one fold into the served
chain — ``load_matcher(BASE)`` → ``add_table(held-out source)`` →
``save(DELTA, mode="delta")`` — and answers with one JSON line: the timings,
the monotonic instant the delta landed, the payload digest, the fold's F1,
and (with ``--trace 1``) the spans of the publish.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import fingerprint
import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    fingerprint.ready()
    import repro.store as store
    import serveload
    from repro import evaluate

    dataset, _, fold_table = serveload.split_dataset(args.seed, args.profile)
    tracer = spans.Tracer()
    if args.trace:
        spans.install_layer_wrappers(tracer)
    print(json.dumps({"ready": os.getpid()}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        tracer.reset()
        started = time.perf_counter()
        # Looked up per call, so the layer wrapper around it is the one run.
        matcher = store.load_matcher(command["base"])
        loaded = time.perf_counter()
        result = matcher.add_table(fold_table)
        added = time.perf_counter()
        digests = matcher.save(command["delta"], mode="delta")
        landed = time.monotonic()
        saved = time.perf_counter()
        matcher.close()
        report = evaluate(result, dataset)
        reply = {
            "publish_s": saved - started,
            "load_s": loaded - started,
            "add_table_s": added - loaded,
            "save_s": saved - added,
            "landed": landed,
            "payload": digests["payload"],
            "tuple_f1": report.f1,
            "pair_f1": report.pair_f1,
        }
        if args.trace:
            reply["spans"] = [span.as_dict() for span in tracer.spans]
        print(json.dumps(reply), flush=True)
    tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
