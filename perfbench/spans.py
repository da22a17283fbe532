"""In-memory spans around calls into ``repro``'s public layer functions.

The benchmark does not trace inside ``src/``: it wraps the public callables
each layer exposes (module functions and class methods), records one span
per call — name, start, end, parent — and derives the per-layer metrics from
the span tree when the run ends. :meth:`Tracer.wrap` patches every
``repro.*`` module that holds a reference to a wrapped function (``from x
import f`` copies the binding), and :meth:`Tracer.uninstall` puts every
original back; :meth:`Tracer.leftover_wrappers` proves it did.

``LAYER_METRICS`` fixes the per-layer names: unit, direction,
and which end-to-end metric on which workload the layer should move.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

#: name -> (unit, better, what it should move). ``BENCHMARK.json``'s
#: ``per_layer`` list is generated from (and tested against) this table.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "select.s": ("s", "lower", "match_s on match-music200; ~0 on match-person"),
    "represent.fit_s": ("s", "lower", "match_s on match-music200"),
    "represent.encode_s": ("s", "lower", "match_s on match-music200; publish_s on serve-fold"),
    "represent.rows": ("count", "lower", "work count behind represent.encode_s"),
    "merge.s": ("s", "lower", "match_s on both match workloads"),
    "merge.union_s": ("s", "lower", "match_s on both match workloads"),
    "merge.levels": ("count", "lower", "work count behind merge.s"),
    "merge.matched_pairs": ("count", "higher", "tuple_f1/pair_f1 on both match workloads"),
    "ann.mutual_s": ("s", "lower", "match_s on both match workloads"),
    "ann.mutual.self_s": ("s", "lower", "match_s on both (filter, intersect, pair distances)"),
    "ann.pairs": ("count", "higher", "tuple_f1/pair_f1 on both match workloads"),
    "ann.cache.fingerprint_s": ("s", "lower", "query_p50_ms on serve-fold; ~5% of match_s on match-music200"),
    "ann.cache.fingerprint_mb": ("MB", "lower", "work count behind ann.cache.fingerprint_s"),
    "ann.cache.hits": ("count", "higher", "match_s on both match workloads"),
    "ann.cache.misses": ("count", "lower", "match_s on both match workloads"),
    "ann.brute.build_s": ("s", "lower", "match_s on match-music200; small on match-person"),
    "ann.brute.gemm_s": ("s", "lower", "match_s on match-music200; small on match-person"),
    "ann.brute.select_s": ("s", "lower", "match_s on match-music200; small on match-person"),
    "ann.brute.rows": ("count", "lower", "work count behind ann.brute.build_s"),
    "ann.hnsw.build_s": ("s", "lower", "match_s on match-person; fresh_s and query_tail_ms on serve-fold"),
    "ann.hnsw.query_s": ("s", "lower", "match_s on match-person; zero on match-music200"),
    "ann.hnsw.builds": ("count", "lower", "work count behind ann.hnsw.build_s"),
    "ann.hnsw.rows": ("count", "lower", "work count behind ann.hnsw.build_s"),
    "prune.s": ("s", "lower", "~3% of match_s on both match workloads"),
    "prune.items_in": ("count", "lower", "work count behind prune.s"),
    "prune.items_out": ("count", "higher", "predicted tuples; tuple_f1 on both match workloads"),
    "incremental.add_table_s": ("s", "lower", "publish_s on serve-fold"),
    "store.save_delta_s": ("s", "lower", "publish_s on serve-fold"),
    "store.delta_mb": ("MB", "lower", "publish_s on serve-fold"),
    "store.load_s": ("s", "lower", "publish_s and fresh_s on serve-fold"),
    "store.first_query_s": ("s", "lower", "fresh_s and query_tail_ms on serve-fold"),
    "query.encode_ms": ("ms", "lower", "query_p50_ms on serve-fold"),
    "query.index_ms": ("ms", "lower", "query_p50_ms on serve-fold"),
    "query.search_ms": ("ms", "lower", "query_p50_ms on serve-fold"),
    "serve.batches": ("count", "lower", "query_p50_ms on serve-fold"),
    "serve.texts_per_batch": ("count", "higher", "query_p50_ms and query_tail_ms on serve-fold"),
    "serve.reloads": ("count", "lower", "fresh_s and query_tail_ms on serve-fold"),
    "serve.rejected": ("count", "lower", "failed operations on serve-fold"),
    "serve.worker_retries": ("count", "lower", "query_tail_ms on serve-fold"),
    "serve.server_p50_ms": ("ms", "lower", "query_p50_ms on serve-fold"),
    "gen.late_ms": ("ms", "lower", "load-generator health; inflates every serve-fold latency"),
    "trace.overhead_pct": ("%", "lower", "traced vs untraced median of the same operation"),
    "trace.accounted_pct": ("%", "higher", "share of the timed operation covered by layer spans"),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: int | None, name: str, start: int) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Span recorder plus the patch table of installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name, time.perf_counter_ns())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def reset(self) -> None:
        self.spans = []

    # ------------------------------------------------------------- wrappers
    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``owner`` is a class (the method is patched on it) or a module (the
        function is patched in every loaded ``repro`` module bound to it).
        ``before(args, kwargs)`` runs ahead of the call and its value reaches
        ``after(args, kwargs, result, before_value)``, which returns the
        span's attributes.
        """
        original = vars(owner)[attr]
        call = original.__func__ if isinstance(original, classmethod) else original
        tracer = self

        @functools.wraps(call)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            span = tracer.open(name)
            try:
                result = call(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result, pre))
            return result

        wrapper.__perfbench_span__ = name
        replacement = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                module
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                and vars(module).get(attr) is original
            ]
        for target in targets:
            setattr(target, attr, replacement)
            self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Every benchmark wrapper still bound in a loaded ``repro`` module or
        one of its classes; empty once :meth:`uninstall` has run."""
        found = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__perfbench_span__"):
                    found.append(f"{module_name}.{attr}")
                elif isinstance(value, type) and value.__module__ == module_name:
                    found.extend(
                        f"{module_name}.{attr}.{name}"
                        for name, member in vars(value).items()
                        if hasattr(getattr(member, "__func__", member), "__perfbench_span__")
                    )
        return found

    # -------------------------------------------------------------- export
    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto) of every recorded span;
        each event's args carry its id, parent, self time and attributes."""
        selfs = self_seconds(self.spans)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": span.attrs.get("pid", 0),
                "tid": 0,
                "args": {"id": span.id, "parent": span.parent, "self_s": selfs[span.id], **span.attrs},
            }
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public callables (imports ``repro`` lazily)."""
    import repro.ann.brute_force as brute_force
    import repro.ann.cache as cache
    import repro.ann.engine as engine
    import repro.ann.hnsw as hnsw
    import repro.ann.mutual as mutual
    import repro.core.attribute_selection as attribute_selection
    import repro.core.incremental as incremental
    import repro.core.merging as merging
    import repro.core.pipeline as pipeline
    import repro.core.pruning as pruning
    import repro.core.representation as representation
    import repro.store.session as session
    from repro.ann.distances import PreparedVectors

    def rows_of(position: int):
        return lambda args, kwargs, result, pre: {"rows": int(len(args[position]))}

    def cache_before(args, kwargs):
        stats = args[0].stats
        return stats.exact_hits + stats.prefix_hits, stats.misses

    def cache_after(args, kwargs, result, pre):
        stats = args[0].stats
        return {
            "hits": stats.exact_hits + stats.prefix_hits - pre[0],
            "misses": stats.misses - pre[1],
        }

    def delta_after(args, kwargs, result, pre):
        return {"bytes": os.path.getsize(os.fspath(args[1]))}

    wrap = tracer.wrap
    wrap(pipeline.MultiEM, "match", "match")
    wrap(attribute_selection, "select_attributes", "select")
    wrap(representation.EntityRepresenter, "fit", "represent.fit")
    wrap(representation.EntityRepresenter, "encode_dataset", "represent.encode")
    wrap(representation.EntityRepresenter, "encode_table", "represent.encode", after=rows_of(1))
    wrap(representation.EntityRepresenter, "encode_texts", "represent.encode", after=rows_of(1))
    wrap(
        merging,
        "hierarchical_merge_tables",
        "merge",
        after=lambda a, k, result, pre: {
            "tables": len(a[0]),
            "levels": result[1].levels,
            "matched_pairs": int(sum(result[1].matched_pairs_per_level)),
        },
    )
    wrap(
        merging,
        "merge_item_tables",
        "merge.pair",
        after=lambda a, k, result, pre: {
            "left_rows": len(a[0]), "right_rows": len(a[1]), "matched": int(result[1]),
        },
    )
    wrap(merging, "merge_tables_with_pairs", "merge.union")
    wrap(mutual, "mutual_top_k", "ann.mutual", after=lambda a, k, result, pre: {"pairs": len(result)})
    wrap(cache.IndexCache, "get_or_build", "ann.cache.get", before=cache_before, after=cache_after)
    wrap(
        cache,
        "fingerprint_vectors",
        "ann.cache.fingerprint",
        after=lambda a, k, result, pre: {"bytes": int(a[0].nbytes)},
    )
    wrap(brute_force.BruteForceIndex, "build", "ann.brute.build", after=rows_of(1))
    wrap(brute_force.BruteForceIndex, "extend", "ann.brute.build", after=rows_of(1))
    wrap(brute_force.BruteForceIndex, "query", "ann.brute.query")
    wrap(PreparedVectors, "block_distances", "ann.brute.gemm")
    wrap(engine, "exact_topk_blocked", "ann.brute.select")
    wrap(hnsw.HNSWIndex, "build", "ann.hnsw.build", after=rows_of(1))
    wrap(hnsw.HNSWIndex, "extend", "ann.hnsw.build", after=rows_of(1))
    wrap(hnsw.HNSWIndex, "query", "ann.hnsw.query")
    wrap(
        pruning,
        "prune_item_table",
        "prune",
        after=lambda a, k, result, pre: {"items_in": len(a[0]), "items_out": len(result)},
    )
    wrap(incremental.IncrementalMultiEM, "fit", "incremental.fit")
    wrap(incremental.IncrementalMultiEM, "add_table", "incremental.add_table")
    wrap(session, "save_session", "store.save")
    wrap(session, "save_session_delta", "store.save_delta", after=delta_after)
    wrap(session, "load_matcher", "store.load")
    wrap(session.MatchSession, "load", "store.load")
    wrap(session.MatchSession, "query_many", "query")
    wrap(session._QueryContext, "index_for", "query.index")
    wrap(engine, "query_rows", "query.search")


# ------------------------------------------------------------------ analysis
def _children(spans: list[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children = _children(spans)
    return {
        span.id: span.seconds - sum(child.seconds for child in children.get(span.id, ()))
        for span in spans
    }


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans named ``name`` with no ancestor of the same name."""
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            result.append(span)
    return result


def annotate_levels(spans: list[Span]) -> None:
    """Tag each ``merge.pair`` span under a ``merge`` span with its level.

    The hierarchy pairs ``n`` tables into ``n // 2`` merges per level (an odd
    one carries over), so the call order fixes each pair's level.
    """
    children = _children(spans)
    for merge in (span for span in spans if span.name == "merge"):
        remaining = int(merge.attrs.get("tables", 0))
        pairs = sorted(
            (child for child in children.get(merge.id, ()) if child.name == "merge.pair"),
            key=lambda child: child.start,
        )
        level, left_in_level = 1, remaining // 2
        for pair in pairs:
            while left_in_level == 0 and remaining > 1:
                remaining = remaining - remaining // 2
                level += 1
                left_in_level = remaining // 2
            pair.attrs["level"] = level
            left_in_level -= 1


def match_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced ``MultiEM.match`` (or publish) call tree."""
    selfs = self_seconds(spans)

    def total(name: str) -> float:
        return sum(span.seconds for span in _outermost(spans, name))

    def self_total(name: str) -> float:
        return sum(selfs[span.id] for span in spans if span.name == name)

    def attr_sum(name: str, key: str) -> float:
        return float(sum(span.attrs.get(key, 0) for span in spans if span.name == name))

    metrics = {
        "select.s": total("select"),
        "represent.fit_s": total("represent.fit"),
        "represent.encode_s": total("represent.encode"),
        "represent.rows": attr_sum("represent.encode", "rows"),
        "merge.s": total("merge"),
        "merge.union_s": total("merge.union"),
        "merge.levels": attr_sum("merge", "levels"),
        "merge.matched_pairs": attr_sum("merge", "matched_pairs")
        or attr_sum("merge.pair", "matched"),
        "ann.mutual_s": total("ann.mutual"),
        "ann.mutual.self_s": self_total("ann.mutual"),
        "ann.pairs": attr_sum("ann.mutual", "pairs"),
        "ann.cache.fingerprint_s": total("ann.cache.fingerprint"),
        "ann.cache.fingerprint_mb": attr_sum("ann.cache.fingerprint", "bytes") / 1e6,
        "ann.cache.hits": attr_sum("ann.cache.get", "hits"),
        "ann.cache.misses": attr_sum("ann.cache.get", "misses"),
        "ann.brute.build_s": total("ann.brute.build"),
        "ann.brute.gemm_s": total("ann.brute.gemm"),
        "ann.brute.select_s": self_total("ann.brute.select"),
        "ann.brute.rows": attr_sum("ann.brute.build", "rows"),
        "ann.hnsw.build_s": total("ann.hnsw.build"),
        "ann.hnsw.query_s": total("ann.hnsw.query"),
        "ann.hnsw.builds": float(len(_outermost(spans, "ann.hnsw.build"))),
        "ann.hnsw.rows": float(
            sum(span.attrs.get("rows", 0) for span in _outermost(spans, "ann.hnsw.build"))
        ),
        "prune.s": total("prune"),
        "prune.items_in": attr_sum("prune", "items_in"),
        "prune.items_out": attr_sum("prune", "items_out"),
        "incremental.add_table_s": total("incremental.add_table"),
        "store.save_delta_s": total("store.save_delta"),
        "store.delta_mb": attr_sum("store.save_delta", "bytes") / 1e6,
    }
    roots = [span for span in spans if span.parent is None]
    covered = sum(span.seconds - selfs[span.id] for span in roots)
    whole = sum(span.seconds for span in roots)
    if whole > 0:
        metrics["trace.accounted_pct"] = 100.0 * covered / whole
    return metrics


def query_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-call medians of the session query path, plus load/first-query times.

    ``query.steady_s`` (the median steady call) is not a layer metric; the
    caller turns it into the tracing overhead.
    """
    children = _children(spans)
    queries = sorted((s for s in spans if s.name == "query"), key=lambda s: s.start)
    loads = sorted((s for s in spans if s.name == "store.load"), key=lambda s: s.start)
    first_queries = []
    for load in loads:
        after = [q for q in queries if q.start >= load.end]
        if after:
            first_queries.append(after[0])
    first_ids = {span.id for span in first_queries}
    steady = [q for q in queries if q.id not in first_ids]

    def per_call_ms(name: str) -> float:
        values = [
            sum(child.seconds for child in children.get(q.id, ()) if child.name == name) * 1e3
            for q in steady
        ]
        return statistics.median(values) if values else 0.0

    return {
        "query.steady_s": statistics.median(q.seconds for q in steady) if steady else 0.0,
        "store.load_s": statistics.median(s.seconds for s in loads) if loads else 0.0,
        "store.first_query_s": (
            statistics.median(s.seconds for s in first_queries) if first_queries else 0.0
        ),
        "query.encode_ms": per_call_ms("represent.encode"),
        "query.index_ms": per_call_ms("query.index"),
        "query.search_ms": per_call_ms("query.search"),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over the samples that report the name."""
    names = {name for sample in samples for name in sample}
    return {
        name: statistics.median(sample[name] for sample in samples if name in sample)
        for name in sorted(names)
    }


def layer_result(values: dict[str, float]) -> dict[str, dict]:
    """Every ``LAYER_METRICS`` name with its unit; layers a workload never
    enters read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _better, _moves) in LAYER_METRICS.items()
    }
