"""The ``serve-fold`` workload: reads against ``repro.cli serve`` while a fold lands.

Inputs (untimed): music-200 at the run's seed (entity pool
``BENCH_ENTITIES``); ``IncrementalMultiEM`` is fitted on four of its five
sources and saved as a full base snapshot. The
held-out source's serialized rows, in a seeded order, are the query texts.
The expected answers for both generations come from in-process
``MatchSession.query_many`` calls: over the base (pre-fold) and over the
base with the fifth source folded in (post-fold).

Each of ``CYCLES`` cycles copies the base into a fresh chain directory and
boots ``python -m repro.cli serve DIR`` with its default workers and a fixed
20 ms reload poll. ``setup_s`` runs from the launch to the first verified
answer. Every worker then answers once, so the reads start warm. One
asyncio client sends open-loop ``/query`` requests (one text, ``k=1``) at
``RATE_QPS`` over at most ``nproc`` keep-alive connections, and times each
from its due time. After ``--seconds / (2 * CYCLES)`` of reads, a separate
publisher process (``publisher.py``) folds the fifth source into the served
chain as a delta; the server's watcher hot-reloads the workers. Reads go on
until the fold has been visible for ``SETTLE_S``.

``query_p50_ms`` is the median over the reads due before the delta landed
(steady reads, and reads beside the publish); ``query_tail_ms`` covers every
read, the reload stall included.

Every answer must equal the pre-fold or the post-fold expectation, byte for
byte. A non-200 status, a mismatch, or a fold that never becomes visible
counts as a failed operation.

The end-to-end metrics named for the match workloads measure this
workload's nearest equivalent: ``match_s`` is the fold's ``add_table`` (the
incremental match inside each publish), ``tuple_f1``/``pair_f1`` score that
fold's result against the full ground truth, and ``peak_rss_mb`` sums the
peak RSS of the server and its workers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import common
import spans

#: music-200's entity pool here. At the ``bench`` profile's 4,000, the base's
#: integrated table holds 4,129–4,236 items over seeds 0–9, just past the
#: 4,096-row ``auto`` limit; 4,400 keeps it at 4,563+ so every seed serves
#: the base and the fold from HNSW.
BENCH_ENTITIES = 4400
RATE_QPS = 40.0
CYCLES = 3
#: Fixed reload poll: at most 20 ms of the ~2 s fresh_s is polling delay.
RELOAD_POLL_S = 0.02
SETTLE_S = 1.0
VISIBLE_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 120.0
#: Texts replayed in-process per generation by the traced run.
REPLAY_QUERIES = 100


def split_dataset(seed: int, profile: str):
    """(full dataset, four-source base, held-out fifth table)."""
    dataset = common.generate("music-200", seed, profile, BENCH_ENTITIES)
    names = sorted(dataset.tables)
    base = dataset.subset(names[:-1], name=dataset.name)
    return dataset, base, dataset.tables[names[-1]]


def _answer_bodies(rows) -> list[bytes]:
    """Each text's expected ``/query`` body, as the server serializes it."""
    from repro.serve.protocol import canonical_json

    return [
        canonical_json(
            {"rows": [[[[[ref.source, ref.index] for ref in members], distance]
                       for members, distance in hits]]}
        )
        for hits in rows
    ]


def prepare(seed: int, profile: str, work_dir: str) -> dict:
    import numpy as np

    from repro import IncrementalMultiEM, paper_default_config
    from repro.data.serialization import serialize_table
    from repro.store import MatchSession, load_matcher

    dataset, base, fold = split_dataset(seed, profile)
    base_path = os.path.join(work_dir, "base.snap")
    with IncrementalMultiEM(paper_default_config(dataset.name)) as matcher:
        matcher.fit(base)
        matcher.save(base_path)
    serialized = serialize_table(fold, None, max_tokens=64)
    order = np.random.default_rng(seed).permutation(len(serialized))
    texts = [serialized[i] for i in order]
    with MatchSession.load(base_path) as session:
        pre = _answer_bodies(session.query_many(texts, k=1))
    with load_matcher(base_path) as matcher:
        matcher.add_table(fold)
        post = _answer_bodies(MatchSession(matcher).query_many(texts, k=1))
    return {
        "base_path": base_path,
        "texts": texts,
        "payloads": [json.dumps({"texts": [text], "k": 1}).encode("utf-8") for text in texts],
        "pre": pre,
        "post": post,
    }


def classify(inputs: dict, text: int, status: int, body: bytes) -> str | None:
    """``"pre"``, ``"post"``, or ``None`` for a wrong answer.

    The served query path is documented batch-composition-invariant
    (``repro.ann.engine.query_rows``), so a coalesced answer must equal the
    batched in-process one byte for byte, distances included.
    """
    if status != 200:
        return None
    if body == inputs["pre"][text]:
        return "pre"
    if body == inputs["post"][text]:
        return "post"
    return None


def mismatch(inputs: dict, text: int, status: int, body: bytes) -> str:
    """Why ``classify`` refused an answer, for the run's problem list.

    Names the case where the served tuple is the expected one but its
    distance is not bit-identical, with the gap in float32 ulp.
    """
    import numpy as np

    if status != 200:
        return f"status {status} for text {text}"
    try:
        served = json.loads(body)["rows"][0]
    except (ValueError, KeyError, IndexError, TypeError):
        return f"unreadable answer for text {text}: {body[:200]!r}"
    for generation in ("pre", "post"):
        expected = json.loads(inputs[generation][text])["rows"][0]
        if [hit[0] for hit in served] != [hit[0] for hit in expected]:
            continue
        gaps = [
            abs(int(np.float32(got[1]).view(np.int32)) - int(np.float32(want[1]).view(np.int32)))
            for got, want in zip(served, expected)
        ]
        return (f"text {text}: the {generation}-fold tuples, but distances "
                f"{[hit[1] for hit in served]} where query_many gives "
                f"{[hit[1] for hit in expected]} ({max(gaps)} float32 ulp)")
    return f"unexpected answer for text {text}: {body[:200]!r}"


# ------------------------------------------------------------------ client
class HttpConnection:
    """One keep-alive HTTP/1.1 client connection (Content-Length framing)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        try:
            self.writer.write(head.encode("latin-1") + body)
            await self.writer.drain()
            raw = await self.reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ")[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            await self.close()
            return 0, b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


# ------------------------------------------------------------------ server
def _peak_rss_mb(pid: int) -> float:
    """Summed VmHWM of ``pid`` and its direct children (the forked workers)."""
    pids = [pid]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(entry))
    total_kb = 0
    for member in pids:
        try:
            with open(f"/proc/{member}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


class Server:
    """One ``repro.cli serve`` process over a chain directory."""

    def __init__(self, chain_dir: str, src: str) -> None:
        self.chain_dir = chain_dir
        self.src = src
        self.proc: subprocess.Popen | None = None
        self.launched = 0.0

    def start(self) -> None:
        self._out = open(os.path.join(self.chain_dir, "..", "server.out"), "w", encoding="utf-8")
        self._err = open(os.path.join(self.chain_dir, "..", "server.err"), "w", encoding="utf-8")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", self.chain_dir,
             "--port", "0", "--reload-poll-s", str(RELOAD_POLL_S)],
            stdout=self._out, stderr=self._err, env=common.child_env(self.src),
        )

    async def listening(self) -> dict:
        path = self._out.name
        while time.monotonic() - self.launched < BOOT_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode} before listening")
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if '"listening"' in line:
                        return json.loads(line)
            await asyncio.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._out.close()
        self._err.close()


class Publisher:
    """The fold-publishing child process (``publisher.py``)."""

    def __init__(self, proc) -> None:
        self.proc = proc

    @classmethod
    async def start(cls, seed: int, profile: str, trace: bool, src: str) -> "Publisher":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(common.HERE, "publisher.py"),
            "--seed", str(seed), "--profile", profile, "--trace", str(int(trace)),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=common.child_env(src),
        )
        return cls(proc)

    async def _reply(self) -> dict:
        line = await self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"publisher exited with code {await self.proc.wait()}")
        return json.loads(line)

    async def ready(self) -> None:
        await self._reply()

    async def fold(self, base: str, delta: str) -> dict:
        self.proc.stdin.write((json.dumps({"base": base, "delta": delta}) + "\n").encode())
        await self.proc.stdin.drain()
        return await self._reply()

    async def close(self) -> None:
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            await asyncio.wait_for(self.proc.wait(), 30)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


# ------------------------------------------------------------------- cycle
async def _read_window(port: int, inputs: dict, outcome: common.Outcome,
                       publisher: Publisher, base: str, delta: str, steady_s: float,
                       connections: int, corrupt=None) -> dict:
    """Open-loop reads: ``steady_s`` of them, then one fold is published, and
    reading goes on until the fold has been visible for ``SETTLE_S``."""
    payloads, pre, post = (inputs[key] for key in ("payloads", "pre", "post"))
    queue: asyncio.Queue = asyncio.Queue()
    records: list[tuple[int, float, float, float, int, bytes]] = []
    state: dict = {"fold": None, "fresh_at": None, "error": None}
    start = time.monotonic() + 0.05
    fold_at = start + steady_s

    async def publish() -> None:
        await asyncio.sleep(max(0.0, fold_at - time.monotonic()))
        state["sent"] = time.monotonic()
        try:
            state["fold"] = await publisher.fold(base, delta)
        except (RuntimeError, ValueError) as exc:
            state["error"] = str(exc)

    def finished(now: float) -> bool:
        if state["fresh_at"] is not None:
            return now >= state["fresh_at"] + SETTLE_S
        if state["fold"] is not None:
            return now >= state["fold"]["landed"] + VISIBLE_TIMEOUT_S
        return state["error"] is not None or now >= fold_at + 2 * VISIBLE_TIMEOUT_S

    async def generate() -> None:
        sequence = 0
        while True:
            due = start + sequence / RATE_QPS
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if finished(due):
                break
            queue.put_nowait((sequence, due, time.monotonic()))
            sequence += 1
        for _ in range(connections):
            queue.put_nowait(None)

    async def read() -> None:
        connection = HttpConnection(port)
        try:
            while (item := await queue.get()) is not None:
                sequence, due, enqueued = item
                text = sequence % len(payloads)
                status, body = await connection.request("POST", "/query", payloads[text])
                received = time.monotonic()
                if corrupt is not None:
                    body = corrupt(sequence, body)
                records.append((text, due, enqueued, received, status, body))
                if state["fresh_at"] is None and body == post[text] and body != pre[text]:
                    state["fresh_at"] = received
        finally:
            await connection.close()

    publishing = asyncio.ensure_future(publish())
    await asyncio.gather(generate(), *(read() for _ in range(connections)))
    if not publishing.done():
        publishing.cancel()
        state["error"] = "the publisher did not answer"
    try:
        await publishing
    except asyncio.CancelledError:
        pass

    fold = state["fold"]
    latencies, late, fresh_at, answered = [], [], None, []
    landed = fold["landed"] if fold is not None else float("inf")
    steady = []
    for text, due, enqueued, received, status, body in records:
        generation = classify(inputs, text, status, body)
        if generation is None:
            outcome.record(False, mismatch(inputs, text, status, body))
        else:
            outcome.record(True)
        late.append(enqueued - due)
        if generation is not None:
            latencies.append(received - due)
            answered.append((due, received - due))
            if due < landed:
                steady.append(received - due)
        if generation == "post" and (fresh_at is None or received < fresh_at):
            fresh_at = received
    visible = fold is not None and fresh_at is not None
    outcome.record(visible, state["error"] or "the fold never became visible")
    connection = HttpConnection(port)
    status, body = await connection.request("GET", "/metrics")
    await connection.close()
    # Median latency by phase of the cycle, for the run record.
    edges = [state.get("sent"), fold and fold["landed"], fresh_at]
    phases: dict[str, list[float]] = {}
    for due, latency in answered:
        passed = sum(1 for edge in edges if edge is not None and due >= edge)
        phases.setdefault(("steady", "publishing", "reloading", "fresh")[passed], []).append(latency)
    return {
        "latencies": latencies,
        "steady": steady,
        "phase_p50_ms": {name: (statistics.median(values) * 1e3, len(values))
                         for name, values in phases.items()},
        "late": late,
        "fold": fold,
        "fresh_s": max(fresh_at - fold["landed"], 0.0) if visible else None,
        "server_metrics": json.loads(body) if status == 200 else {},
    }


async def _cycle(index: int, inputs: dict, outcome: common.Outcome,
                 publisher: Publisher, work_dir: str, steady_s: float, src: str,
                 corrupt=None) -> dict:
    chain = os.path.join(work_dir, f"chain-{index}")
    os.makedirs(chain)
    base = os.path.join(chain, "base.snap")
    shutil.copyfile(inputs["base_path"], base)
    server = Server(chain, src)
    server.start()
    try:
        info = await server.listening()
        port, workers = info["port"], int(info["workers"])
        connection = HttpConnection(port)
        setup = None
        # First verified answer, then one answer from every other worker
        # (round-robin dispatch) so each has built its query index.
        payloads = inputs["payloads"]
        for attempt in range(workers + 3):
            text = len(payloads) - 1 - attempt % len(payloads)
            status, body = await connection.request("POST", "/query", payloads[text])
            received = time.monotonic()
            ok = classify(inputs, text, status, body) == "pre"
            outcome.record(ok, f"boot answer {attempt}: status {status}")
            if ok and setup is None:
                setup = received - server.launched
                answered = 0
            elif setup is not None:
                answered += 1
            if setup is not None and answered >= workers - 1:
                break
        await connection.close()
        if setup is None:
            raise RuntimeError("server never gave a verified answer")
        connections = max(1, min(os.cpu_count() or 1, 4))
        window = await _read_window(
            port, inputs, outcome, publisher, base, os.path.join(chain, "fold.snap"),
            steady_s, connections, corrupt,
        )
        window["setup_s"] = setup
        window["peak_rss_mb"] = _peak_rss_mb(server.proc.pid)
        return window
    finally:
        server.stop()


# ------------------------------------------------------------------- trace
def _replay(inputs: dict, paths: list[str], tracer: spans.Tracer) -> list[float]:
    """Replay the read stream in-process through ``query_many``, per generation.

    Each snapshot's load and first query are traced; of the steady calls
    after it, every other one is traced and the rest are timed untraced, so
    both sides of the tracing-overhead ratio see the same conditions.
    Returns the untraced calls' seconds.
    """
    from repro.store import MatchSession

    texts = inputs["texts"][:REPLAY_QUERIES]
    untraced = []
    for path in paths:
        spans.install_layer_wrappers(tracer)
        try:
            session = MatchSession.load(path)
            session.query_many(texts[:1], k=1)
        finally:
            tracer.uninstall()
        with session:
            for index, text in enumerate(texts[1:]):
                if index % 2:
                    spans.install_layer_wrappers(tracer)
                    try:
                        session.query_many([text], k=1)
                    finally:
                        tracer.uninstall()
                else:
                    started = time.perf_counter()
                    session.query_many([text], k=1)
                    untraced.append(time.perf_counter() - started)
    return untraced


def _publisher_spans(folds: list[dict]) -> list[list[spans.Span]]:
    result = []
    for number, fold in enumerate(folds, start=1):
        offset = number * 1_000_000
        tree = []
        for raw in fold.get("spans", ()):
            span = spans.Span(raw["id"] + offset, None if raw["parent"] is None
                              else raw["parent"] + offset, raw["name"], raw["start_ns"])
            span.end = raw["end_ns"]
            span.attrs = {**raw["attrs"], "pid": number}
            tree.append(span)
        result.append(tree)
    return result


def _layer_values(inputs: dict, cycles: list[dict], delta: str, trace_path: str,
                  outcome: common.Outcome) -> dict:
    folds = [cycle["fold"] for cycle in cycles if cycle["fold"] is not None]
    fold_trees = _publisher_spans(folds)
    samples = []
    for tree, fold in zip(fold_trees, folds):
        sample = spans.match_layer_metrics(tree)
        roots = sum(span.seconds for span in tree if span.parent is None)
        sample["trace.accounted_pct"] = 100.0 * roots / fold["publish_s"]
        samples.append(sample)
    values = spans.median_metrics(samples)

    tracer = spans.Tracer()
    untraced = _replay(inputs, [inputs["base_path"], delta], tracer)
    leftover = spans.Tracer.leftover_wrappers()
    outcome.record(not leftover, f"wrappers left installed: {leftover}")
    replay = tracer.spans
    values.update(spans.query_layer_metrics(replay))
    loads = [span.seconds for tree in fold_trees for span in tree if span.name == "store.load"]
    loads += [span.seconds for span in replay if span.name == "store.load"]
    values["store.load_s"] = statistics.median(loads)
    values["trace.overhead_pct"] = 100.0 * (
        values.pop("query.steady_s") / statistics.median(untraced) - 1.0
    )

    docs = [cycle["server_metrics"] for cycle in cycles]
    batches = [doc.get("batches", 0) for doc in docs]
    texts = [sum(int(size) * count for size, count in doc.get("batch_size_hist", {}).items())
             for doc in docs]
    values.update({
        "serve.batches": statistics.median(batches),
        "serve.texts_per_batch": sum(texts) / max(sum(batches), 1),
        "serve.reloads": statistics.median(doc.get("reloads", 0) for doc in docs),
        "serve.rejected": statistics.median(
            doc.get("rejected_queue_full", 0) + doc.get("rejected_deadline", 0) for doc in docs
        ),
        "serve.worker_retries": statistics.median(doc.get("worker_retries", 0) for doc in docs),
        "serve.server_p50_ms": statistics.median(
            (doc.get("query_latency", {}).get("p50_ms") or 0.0) for doc in docs
        ),
        "gen.late_ms": common.tail([late for cycle in cycles for late in cycle["late"]])[0] * 1e3,
    })
    tracer.spans = replay + [span for tree in fold_trees for span in tree]
    tracer.write_chrome_trace(trace_path)
    return values


# --------------------------------------------------------------------- run
def run(*, seed: int, seconds: float, trace: bool, work_dir: str, trace_path: str,
        src: str, profile: str = "bench", cycles: int = CYCLES, corrupt=None) -> dict:
    """Run the workload. ``corrupt(sequence, body)``, for the harness's own
    test, may rewrite a read's response body before it is checked."""
    import fingerprint

    outcome = common.Outcome()

    async def main() -> dict:
        publisher = await Publisher.start(seed, profile, trace, src)
        try:
            runtime = fingerprint.ready()
            inputs = await asyncio.get_running_loop().run_in_executor(
                None, prepare, seed, profile, work_dir
            )
            await publisher.ready()
            results = []
            for index in range(cycles):
                results.append(await _cycle(
                    index, inputs, outcome, publisher, work_dir, seconds / (2 * cycles), src,
                    corrupt,
                ))
        finally:
            await publisher.close()
        return {"runtime": runtime, "inputs": inputs, "cycles": results}

    done = asyncio.run(main())
    cycles_done, inputs = done["cycles"], done["inputs"]
    folds = [cycle["fold"] for cycle in cycles_done if cycle["fold"] is not None]
    payloads = {fold["payload"] for fold in folds}
    outcome.record(len(payloads) == 1, f"folds published different deltas: {sorted(payloads)}")
    latencies = [value for cycle in cycles_done for value in cycle["latencies"]]
    steady = [value for cycle in cycles_done for value in cycle["steady"]]
    tail_s, tail_pct = common.tail(latencies) if latencies else (float("nan"), None)
    fresh = [cycle["fresh_s"] for cycle in cycles_done if cycle["fresh_s"] is not None]
    record = {
        "runtime": done["runtime"],
        "digest": sorted(payloads)[0] if payloads else None,
        "rate_qps": RATE_QPS,
        "cycles": len(cycles_done),
        "samples": len(latencies),
        "steady_samples": len(steady),
        "tail_percentile": tail_pct,
        "setup_samples_s": [cycle["setup_s"] for cycle in cycles_done],
        "fresh_samples_s": fresh,
        "publish_samples": [{k: fold[k] for k in ("publish_s", "load_s", "add_table_s", "save_s")}
                            for fold in folds],
        "server_metrics": [cycle["server_metrics"] for cycle in cycles_done],
        "phase_p50_ms": [cycle["phase_p50_ms"] for cycle in cycles_done],
    }
    if trace:
        delta = os.path.join(work_dir, f"chain-{len(cycles_done) - 1}", "fold.snap")
        values = _layer_values(inputs, cycles_done, delta, trace_path, outcome)
        record["trace_file"] = trace_path
        return {"outcome": outcome, "layer_values": values, "record": record}
    values = {
        "setup_s": (common.median(record["setup_samples_s"]), "s"),
        "match_s": (common.median(fold["add_table_s"] for fold in folds), "s"),
        "tuple_f1": (common.median(fold["tuple_f1"] for fold in folds), "%"),
        "pair_f1": (common.median(fold["pair_f1"] for fold in folds), "%"),
        "peak_rss_mb": (common.median(cycle["peak_rss_mb"] for cycle in cycles_done), "MB"),
        "query_p50_ms": (common.median(steady) * 1e3, "ms"),
        "query_tail_ms": (tail_s * 1e3, "ms"),
        "publish_s": (common.median(fold["publish_s"] for fold in folds), "s"),
        "fresh_s": (common.median(fresh), "s"),
    }
    return {"outcome": outcome, "values": values, "record": record}
