"""Unit tests for the crash-safe artifact store."""

import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.store import ArtifactStore, CorruptArtifact, StoreMiss

KEY1 = "a" * 16
KEY2 = "b" * 16


def test_put_get_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    payload = {"findings": [1, 2, 3], "nested": {"x": (4.5, "y")}}
    store.put(KEY1, payload, meta={"stage": "extraction"})
    got, meta = store.get(KEY1)
    assert got == payload
    assert meta == {"stage": "extraction"}
    assert store.counters() == {"store_hits": 1, "store_misses": 0,
                                "store_writes": 1, "store_corrupt": 0,
                                "store_write_contended": 0,
                                "store_writes_retried": 0,
                                "store_writes_failed": 0,
                                "store_writes_skipped": 0,
                                "store_quarantine_swept": 0,
                                "store_degraded": 0}


def test_miss_raises_and_counts(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    with pytest.raises(StoreMiss):
        store.get(KEY1)
    assert store.counters()["store_misses"] == 1
    assert not store.has(KEY1)


def test_overwrite_replaces(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(KEY1, "old")
    store.put(KEY1, "new")
    payload, _ = store.get(KEY1)
    assert payload == "new"
    assert store.keys() == [KEY1]


def test_invalid_key_rejected(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    for bad in ("", "short", "UPPERCASE0000000", "../../etc/passwd",
                "g" * 16, "a" * 65):
        with pytest.raises(ValueError):
            store.put(bad, 1)


def test_truncated_blob_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    path = store.put(KEY1, list(range(100)))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])  # torn tail
    with pytest.raises(CorruptArtifact):
        store.get(KEY1)
    assert not store.has(KEY1)  # moved aside, not left to re-trip
    assert list(store.quarantine_dir.iterdir())
    assert store.counters()["store_corrupt"] == 1


def test_bitflip_blob_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    path = store.put(KEY1, b"payload-bytes-here")
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifact, match="checksum mismatch"):
        store.get(KEY1)


def test_garbage_header_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    path = store.put(KEY1, 42)
    path.write_bytes(b"\x00\x01\x02 not a header")
    with pytest.raises(CorruptArtifact):
        store.get(KEY1)


def test_foreign_key_blob_rejected(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    src = store.put(KEY1, "hello")
    # file a valid blob under the wrong key, as a botched copy would
    dst = store._path(KEY2)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(src.read_bytes())
    with pytest.raises(CorruptArtifact, match="foreign key"):
        store.get(KEY2)


def test_quarantine_names_never_collide(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    for _ in range(3):
        path = store.put(KEY1, "x")
        path.write_bytes(b"junk")
        with pytest.raises(CorruptArtifact):
            store.get(KEY1)
    assert len(list(store.quarantine_dir.iterdir())) == 3


def test_invalidate(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    assert store.invalidate(KEY1) is False
    store.put(KEY1, 1)
    assert store.invalidate(KEY1) is True
    assert not store.has(KEY1)
    with pytest.raises(StoreMiss):
        store.get(KEY1)


def test_clear_tmp_removes_stale_inflight_files(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    (store.tmp_dir / "deadbeef.orphan.tmp").write_bytes(b"partial")
    assert store.clear_tmp() == 1
    assert not list(store.tmp_dir.iterdir())


def test_no_tmp_residue_after_put(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(KEY1, list(range(1000)))
    assert not list(store.tmp_dir.iterdir())


def test_store_survives_reopen(tmp_path):
    ArtifactStore(tmp_path / "store").put(KEY1, {"k": "v"})
    reopened = ArtifactStore(tmp_path / "store")
    payload, _ = reopened.get(KEY1)
    assert payload == {"k": "v"}


def test_atomicity_no_partial_object_on_write_failure(tmp_path):
    """A payload that fails to serialize must leave nothing behind."""
    store = ArtifactStore(tmp_path / "store")
    with pytest.raises(Exception):
        store.put(KEY1, lambda: None)  # lambdas don't pickle
    assert not store.has(KEY1)
    assert not list(store.tmp_dir.iterdir())


def test_streamed_body_is_the_pickle_byte_for_byte(tmp_path):
    """Payloads are pickled straight into a spool file; the body must be
    exactly ``pickle.dumps`` at the highest protocol, including large
    numpy buffers (which protocol 5 hands to ``write`` out of frame),
    and the header must describe it."""
    rng = np.random.default_rng(3)
    payload = {
        "rows": rng.integers(0, 1 << 30, size=600_000, dtype=np.int64),
        "gates": rng.random(300_000),
        "small": np.arange(7, dtype=np.int32),
        "names": [f"net{i}" for i in range(5000)],
        "nested": {"x": (4.5, "y"), "blob": bytes(range(256)) * 1024},
    }
    store = ArtifactStore(tmp_path / "store")
    path = store.put(KEY1, payload, meta={"stage": "logic"})
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    body = raw[newline + 1:]
    assert body == pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    assert header["size"] == len(body)
    assert header["sha256"] == hashlib.sha256(body).hexdigest()
    assert header["meta"] == {"stage": "logic"}
    got, _ = store.get(KEY1)
    assert np.array_equal(got["rows"], payload["rows"])
    assert np.array_equal(got["gates"], payload["gates"])
    assert got["nested"] == payload["nested"]
    assert not list(store.tmp_dir.iterdir())
