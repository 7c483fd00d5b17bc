"""Property tests for the resumable sweep artifact store.

The store's contract is crash consistency: the only damage a SIGKILL
can inflict is a truncated final line of the last chunk (dropped and
re-evaluated on resume); anything else is corruption and must raise the
typed :class:`ArtifactError` instead of silently resuming wrong.
"""

import hashlib
import json
import os

import pytest

from repro.exceptions import ArtifactError
from repro.scenarios.store import (
    DEFAULT_CHUNK_LINES,
    MANIFEST_NAME,
    STORE_VERSION,
    ArtifactStore,
    suite_hash,
)

SUITE_PAYLOAD = {"name": "probe", "seed": 7, "topologies": [{"kind": "torus", "size": 3}]}


def make_store(path, **overrides):
    options = dict(
        suite_payload=SUITE_PAYLOAD, num_cells=8, chunk_lines=3
    )
    options.update(overrides)
    return ArtifactStore.open_or_create(str(path), **options)


def chunk_files(path):
    return sorted(name for name in os.listdir(path) if name.startswith("cells-"))


def test_round_trip_and_chunk_rollover(tmp_path):
    store = make_store(tmp_path / "store")
    for index in range(7):
        store.record_cell(index, {"cell": index, "value": index * 1.5}, pid=100 + index)
    store.close()
    # chunk_lines=3 -> 7 records roll over into three chunk files.
    assert chunk_files(tmp_path / "store") == [
        "cells-00000.jsonl",
        "cells-00001.jsonl",
        "cells-00002.jsonl",
    ]
    reopened = make_store(tmp_path / "store")
    assert reopened.completed_indices() == list(range(7))
    assert reopened.payload(3) == {"cell": 3, "value": 4.5}
    assert reopened.completed_pids()[6] == 106
    assert not reopened.is_complete()
    reopened.record_cell(7, {"cell": 7}, pid=999)
    assert reopened.is_complete()
    reopened.close()


def test_duplicate_and_out_of_range_records_raise(tmp_path):
    store = make_store(tmp_path / "store")
    store.record_cell(0, {"ok": True})
    with pytest.raises(ArtifactError, match="already has a completion record"):
        store.record_cell(0, {"ok": False})
    with pytest.raises(ArtifactError, match="outside the suite"):
        store.record_cell(8, {"ok": False})
    with pytest.raises(ArtifactError, match="outside the suite"):
        store.record_cell(-1, {"ok": False})
    # The duplicate never reached disk: a reopen still sees the original.
    store.close()
    assert make_store(tmp_path / "store").payload(0) == {"ok": True}


def test_suite_hash_mismatch_raises_typed_error(tmp_path):
    make_store(tmp_path / "store").close()
    with pytest.raises(ArtifactError, match="different sweep"):
        make_store(tmp_path / "store", suite_payload={**SUITE_PAYLOAD, "seed": 8})
    # The identical suite reopens fine.
    make_store(tmp_path / "store").close()
    assert suite_hash(SUITE_PAYLOAD) != suite_hash({**SUITE_PAYLOAD, "seed": 8})


def _version_1_manifest(backend):
    """A store manifest in the version-1 layout, whose hash also named the backend."""
    canonical = json.dumps(
        {"suite": SUITE_PAYLOAD, "backend": backend}, sort_keys=True, default=str
    )
    return {
        "artifact": "sweep-store",
        "version": 1,
        "suite_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "backend": backend,
        "num_cells": 8,
        "chunk_lines": 3,
        "suite": SUITE_PAYLOAD,
    }


def test_store_refuses_resume_of_a_dense_store(tmp_path):
    # Stores written by the former dense numpy backend summed their cells
    # in another float order, and predate the version-2 layout: resuming
    # one is refused by the version check, not mixed in.
    path = tmp_path / "store"
    path.mkdir()
    (path / MANIFEST_NAME).write_text(json.dumps(_version_1_manifest("dense")))
    with pytest.raises(ArtifactError, match="schema version 1"):
        make_store(path)
    # A store made here names no evaluation form; its hash covers the
    # suite alone, so it keeps resuming.
    store = make_store(tmp_path / "fresh")
    assert "backend" not in store.manifest
    canonical = json.dumps({"suite": SUITE_PAYLOAD}, sort_keys=True, default=str)
    assert store.manifest["suite_hash"] == suite_hash(SUITE_PAYLOAD)
    assert suite_hash(SUITE_PAYLOAD) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    store.close()
    make_store(tmp_path / "fresh").close()


def test_truncated_final_line_is_dropped_on_resume(tmp_path):
    store = make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)
    for index in range(3):
        store.record_cell(index, {"cell": index})
    store.close()
    chunk = tmp_path / "store" / "cells-00000.jsonl"
    intact_size = chunk.stat().st_size
    with open(chunk, "ab") as handle:
        handle.write(b'{"cell": 3, "pid": null, "payl')  # killed mid-write
    reopened = make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)
    # The partial record is gone from disk and from the resume view.
    assert reopened.completed_indices() == [0, 1, 2]
    assert chunk.stat().st_size == intact_size
    # Appending after recovery starts on a clean line.
    reopened.record_cell(3, {"cell": 3})
    reopened.close()
    final = make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)
    assert final.completed_indices() == [0, 1, 2, 3]


def test_mid_chunk_corruption_raises(tmp_path):
    store = make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)
    for index in range(3):
        store.record_cell(index, {"cell": index})
    store.close()
    chunk = tmp_path / "store" / "cells-00000.jsonl"
    lines = chunk.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"cell": 1, "garb\n'
    chunk.write_bytes(b"".join(lines))
    with pytest.raises(ArtifactError, match="corrupt record"):
        make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)


def test_corruption_in_non_final_chunk_raises(tmp_path):
    store = make_store(tmp_path / "store")  # chunk_lines=3
    for index in range(7):
        store.record_cell(index, {"cell": index})
    store.close()
    first = tmp_path / "store" / "cells-00000.jsonl"
    # A truncated *final* line of a non-final chunk is not crash debris.
    first.write_bytes(first.read_bytes()[:-10])
    with pytest.raises(ArtifactError, match="corrupt record"):
        make_store(tmp_path / "store")


def test_duplicate_record_on_disk_raises(tmp_path):
    store = make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)
    store.record_cell(0, {"cell": 0})
    store.close()
    chunk = tmp_path / "store" / "cells-00000.jsonl"
    with open(chunk, "ab") as handle:
        handle.write(b'{"cell": 0, "pid": null, "payload": {"cell": 0}}\n')
    with pytest.raises(ArtifactError, match="duplicate completion record"):
        make_store(tmp_path / "store", chunk_lines=DEFAULT_CHUNK_LINES)


def test_foreign_and_versioned_manifests_are_rejected(tmp_path):
    alien = tmp_path / "alien"
    alien.mkdir()
    (alien / MANIFEST_NAME).write_text(json.dumps({"artifact": "something-else"}))
    with pytest.raises(ArtifactError, match="not a sweep artifact store"):
        make_store(alien)

    future = tmp_path / "future"
    future.mkdir()
    (future / MANIFEST_NAME).write_text(
        json.dumps(
            {
                "artifact": "sweep-store",
                "version": STORE_VERSION + 1,
                "suite_hash": suite_hash(SUITE_PAYLOAD),
            }
        )
    )
    with pytest.raises(ArtifactError, match="schema version"):
        make_store(future)

    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        make_store(broken)

    with pytest.raises(ArtifactError, match="missing manifest"):
        ArtifactStore.open_existing(str(tmp_path / "nowhere"))


def test_payloads_are_json_normalized_like_the_final_artifact(tmp_path):
    store = make_store(tmp_path / "store")
    store.record_cell(0, {"tuple": (1, 2), "inf": float("inf"), "nan": float("nan")})
    # The in-memory view after a write equals what a reopen reads: the
    # JSON round trip that the final SuiteResult serialization applies.
    assert store.payload(0) == {"tuple": [1, 2], "inf": None, "nan": None}
    store.close()
    assert make_store(tmp_path / "store").payload(0) == {
        "tuple": [1, 2],
        "inf": None,
        "nan": None,
    }


def test_open_existing_reads_without_validation(tmp_path):
    store = make_store(tmp_path / "store")
    store.record_cell(2, {"cell": 2})
    store.close()
    inspected = ArtifactStore.open_existing(str(tmp_path / "store"))
    assert inspected.completed_indices() == [2]
    assert inspected.num_cells == 8
    assert 2 in inspected and len(inspected) == 1
