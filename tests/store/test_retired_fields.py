"""Snapshots that carry the retired quantized-scan / threaded-build / pool knobs.

Older snapshots record ``MergingConfig.kernel_threads`` and
``quantized_scan``, ``ParallelConfig.reuse_pool`` and ``kernel_threads``, a
``quantized_scan`` flag in every brute-force index meta, and a
``("quantized_scan", False)`` item in every index-cache params key. They must
keep loading, answer queries exactly as a current snapshot of the same
matcher does, keep their cache entries hitting, and keep pairing deltas with
their cache segments. A snapshot fitted with the quantized scan switched on
must be refused with an error that names the field.
"""

from __future__ import annotations

import os

import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.serialization import serialize_table
from repro.exceptions import StoreError
from repro.store import MatchSession, Snapshot, codecs, load_matcher, save_session
from repro.store.codecs import item_table_digest


def _insert_after(section: dict, anchor: str, extra: dict) -> dict:
    """``section`` with ``extra`` inserted right after ``anchor`` (key order kept)."""
    out: dict = {}
    for key, value in section.items():
        out[key] = value
        if key == anchor:
            out.update(extra)
    return out


def _old_params_key(params_key):
    backend, metric, items = params_key
    return (backend, metric, tuple(sorted(items + (("quantized_scan", False),))))


def _save_old_shape(matcher, path, monkeypatch, *, quantized_scan: bool = False) -> None:
    """Save ``matcher`` with the meta fields older snapshots carried."""
    config_to_meta = codecs.config_to_meta
    index_state = codecs.index_state
    cache = matcher._index_cache
    cache_snapshot = cache.snapshot

    def old_config_to_meta(config):
        meta = config_to_meta(config)
        meta["merging"] = _insert_after(
            meta["merging"],
            "index_cache_entries",
            {"kernel_threads": 1, "quantized_scan": quantized_scan},
        )
        meta["parallel"] = _insert_after(meta["parallel"], "max_workers", {"reuse_pool": True})
        meta["parallel"]["kernel_threads"] = 1
        return meta

    def old_index_state(index):
        meta, arrays = index_state(index)
        if meta["backend"] == "brute-force":
            meta = {**meta, "quantized_scan": quantized_scan}
        return meta, arrays

    with monkeypatch.context() as patch:
        patch.setattr(codecs, "config_to_meta", old_config_to_meta)
        patch.setattr(codecs, "index_state", old_index_state)
        patch.setattr(
            cache,
            "snapshot",
            lambda: [(_old_params_key(key), v, index) for key, v, index in cache_snapshot()],
        )
        save_session(matcher, path)


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-1], name=music_tiny.name)
    return base, music_tiny.tables[names[-1]]


@pytest.fixture()
def fitted(split):
    base, _ = split
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    matcher.fit(base)
    return matcher


@pytest.fixture()
def probe_texts(split):
    base, _ = split
    return serialize_table(base.table_list()[0], None, max_tokens=64)[:6]


def test_old_snapshot_loads_and_answers_like_a_current_one(
    fitted, tmp_path, monkeypatch, probe_texts
):
    # One query caches an index over the integrated table, so the saved
    # cache holds an entry the first restored query should content-hit.
    MatchSession(fitted).query_many(probe_texts[:1], k=3)
    old_path, new_path = tmp_path / "old.snap", tmp_path / "new.snap"
    _save_old_shape(fitted, old_path, monkeypatch)
    save_session(fitted, new_path)
    snapshot = Snapshot.open(old_path)
    try:
        meta = snapshot.meta
    finally:
        snapshot.close()
    assert meta["config"]["merging"]["quantized_scan"] is False
    assert meta["config"]["parallel"]["reuse_pool"] is True
    for entry in meta["cache"]["entries"]:
        assert ("quantized_scan", False) in codecs.untag_tuples(entry["params_key"])[2]
        assert entry["index"]["quantized_scan"] is False  # every side is brute force here
    with MatchSession.load(old_path) as old, MatchSession.load(new_path) as new:
        assert old.matcher.config == new.matcher.config
        stats = old.matcher._index_cache.stats
        assert (stats.exact_hits, stats.misses) == (0, 0)
        first = old.query_many(probe_texts[:1], k=3)
        assert (stats.exact_hits, stats.misses) == (1, 0), "restored entry did not content-hit"
        assert first == new.query_many(probe_texts[:1], k=3)
        assert old.query_many(probe_texts, k=3) == new.query_many(probe_texts, k=3)


def test_delta_on_an_old_base_pairs_its_cache_entries(fitted, split, tmp_path, monkeypatch):
    """A delta written on an old base is as small as one on a current base."""
    _, held_out = split
    sizes = {}
    for name in ("old", "new"):
        directory = tmp_path / name
        directory.mkdir()
        if name == "old":
            _save_old_shape(fitted, directory / "base.snap", monkeypatch)
        else:
            save_session(fitted, directory / "base.snap")
        matcher = load_matcher(directory / "base.snap")
        matcher.add_table(held_out)
        matcher.save(directory / "delta.snap", mode="delta")
        sizes[name] = os.path.getsize(directory / "delta.snap")
        digest = item_table_digest(load_matcher(directory / "delta.snap").integrated_table)
        sizes[name + "_digest"] = digest
    assert sizes["old_digest"] == sizes["new_digest"]
    assert abs(sizes["old"] - sizes["new"]) <= 64, sizes


@pytest.mark.parametrize("where", ["config", "index"])
def test_quantized_scan_true_is_refused(fitted, tmp_path, monkeypatch, where):
    path = tmp_path / "quantized.snap"
    if where == "config":
        _save_old_shape(fitted, path, monkeypatch, quantized_scan=True)
    else:
        index_state = codecs.index_state

        def quantized_index_state(index):
            meta, arrays = index_state(index)
            return {**meta, "quantized_scan": True}, arrays

        with monkeypatch.context() as patch:
            patch.setattr(codecs, "index_state", quantized_index_state)
            save_session(fitted, path)
    with pytest.raises(StoreError, match="quantized_scan"):
        load_matcher(path)
