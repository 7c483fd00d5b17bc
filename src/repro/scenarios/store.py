"""Resumable on-disk artifact store for scenario sweeps.

An :class:`ArtifactStore` is an append-only directory the sweep runner
streams per-cell results into, so a killed 10k-cell sweep resumes
instead of rerunning:

``manifest.json``
    Written atomically (temp file + ``os.replace``) when the store is
    created.  Records the store schema version, the suite manifest, the
    compiled backend (``sparse``), the cell count, and — the resume key —
    a SHA-256 content hash of the suite and that backend.  Opening a
    store whose hash does not match the suite resuming it raises a typed
    :class:`~repro.exceptions.ArtifactError` instead of silently mixing
    artifacts from different sweeps.  A store written by the former
    dense numpy backend hashes differently (its cells were summed in
    another float order) and is refused the same way.

``cells-00000.jsonl``, ``cells-00001.jsonl``, …
    Chunked completion records, one JSON object per line:
    ``{"cell": <index>, "pid": <worker pid>, "payload": {...}}``.  Each
    record is written as a single ``write()`` + ``flush()``, so the only
    damage a ``SIGKILL`` can inflict is a truncated *final* line of the
    *last* chunk — which the store detects on open, truncates away, and
    re-evaluates (one cell of lost work, never a corrupt artifact).  A
    short or unparsable line anywhere else is genuine corruption and
    raises :class:`~repro.exceptions.ArtifactError`.

Records are serialized through :func:`repro.utils.serialization.dumps`
— exactly the writer the final ``SuiteResult`` JSON uses — so payloads
round-tripping through the store (non-finite floats to ``null``,
tuples to lists) re-serialize byte-identically to the direct in-memory
path, preserving the bit-identical-for-any-worker-count guarantee
across kills and resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional

from repro.exceptions import ArtifactError
from repro.utils.serialization import dumps as _json_dumps

#: Store schema version, bumped on any incompatible layout change.
STORE_VERSION = 1

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Completion records per chunk file before rolling over.
DEFAULT_CHUNK_LINES = 512

_CHUNK_PREFIX = "cells-"
_CHUNK_SUFFIX = ".jsonl"

#: The compiled backend every sweep evaluates with, recorded in (and
#: hashed into) the manifest.
_BACKEND = "sparse"


def suite_hash(suite_payload: Mapping[str, Any]) -> str:
    """SHA-256 content hash keying a store to one suite in this environment.

    Computed over the sorted-key canonical JSON of the suite manifest
    plus the compiled backend the sweep evaluates with, so any change to
    the grid, the schemes, seeds or snapshot counts — or a store written
    under another backend — produces a different store identity.
    """
    canonical = json.dumps(
        {"suite": suite_payload, "backend": _BACKEND},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _chunk_name(index: int) -> str:
    return f"{_CHUNK_PREFIX}{index:05d}{_CHUNK_SUFFIX}"


def _chunk_index(name: str) -> int:
    return int(name[len(_CHUNK_PREFIX):-len(_CHUNK_SUFFIX)])


class ArtifactStore:
    """Append-only, chunked, resumable per-cell result store (see module doc).

    Use :meth:`open_or_create`; the constructor is internal plumbing.
    The store is **single-writer**: the sweep parent records completions
    (workers only compute), which is what makes flush-per-line crash
    consistency sufficient.
    """

    def __init__(self, path: str, manifest: Dict[str, Any]) -> None:
        self.path = path
        self.manifest = manifest
        self._records: Dict[int, Dict[str, Any]] = {}
        self._pids: Dict[int, Optional[int]] = {}
        self._handle = None
        self._current_chunk = 0
        self._current_lines = 0
        self._load_chunks()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open_or_create(
        cls,
        path: str,
        suite_payload: Mapping[str, Any],
        num_cells: int,
        chunk_lines: int = DEFAULT_CHUNK_LINES,
    ) -> "ArtifactStore":
        """Open the store at ``path``, creating it when absent.

        An existing store must carry the exact :func:`suite_hash` of
        ``suite_payload`` — resuming a different sweep into it, or the
        same sweep stored under another compiled backend, raises
        :class:`ArtifactError`.
        """
        manifest_path = os.path.join(path, MANIFEST_NAME)
        expected = suite_hash(suite_payload)
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                try:
                    manifest = json.load(handle)
                except json.JSONDecodeError as error:
                    raise ArtifactError(
                        f"store manifest {manifest_path} is not valid JSON: {error}"
                    ) from error
            if manifest.get("artifact") != "sweep-store":
                raise ArtifactError(
                    f"{manifest_path} is not a sweep artifact store manifest"
                )
            if manifest.get("version") != STORE_VERSION:
                raise ArtifactError(
                    f"store {path} has schema version {manifest.get('version')!r}; "
                    f"this build reads version {STORE_VERSION}"
                )
            found = manifest.get("suite_hash")
            if found != expected:
                raise ArtifactError(
                    f"store {path} belongs to a different sweep: its suite hash is "
                    f"{found}, the resuming suite/backend hashes to {expected}"
                )
            return cls(path, manifest)
        os.makedirs(path, exist_ok=True)
        manifest = {
            "artifact": "sweep-store",
            "version": STORE_VERSION,
            "suite_hash": expected,
            "backend": _BACKEND,
            "num_cells": int(num_cells),
            "chunk_lines": int(chunk_lines),
            "suite": json.loads(_json_dumps(dict(suite_payload), indent=None)),
        }
        temp_path = manifest_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(_json_dumps(manifest))
        os.replace(temp_path, manifest_path)  # atomic: never a half manifest
        return cls(path, manifest)

    @classmethod
    def open_existing(cls, path: str) -> "ArtifactStore":
        """Open a store without a suite to validate against (inspection)."""
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise ArtifactError(f"no sweep artifact store at {path} (missing manifest)")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as error:
                raise ArtifactError(
                    f"store manifest {manifest_path} is not valid JSON: {error}"
                ) from error
        return cls(path, manifest)

    # ------------------------------------------------------------------ #
    # Chunk recovery
    # ------------------------------------------------------------------ #
    def _chunk_files(self) -> List[str]:
        names = [
            name
            for name in os.listdir(self.path)
            if name.startswith(_CHUNK_PREFIX) and name.endswith(_CHUNK_SUFFIX)
        ]
        return sorted(names, key=_chunk_index)

    def _load_chunks(self) -> None:
        chunks = self._chunk_files()
        for position, name in enumerate(chunks):
            chunk_path = os.path.join(self.path, name)
            is_last = position == len(chunks) - 1
            lines = 0
            with open(chunk_path, "rb") as handle:
                data = handle.read()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                complete = newline >= 0
                raw = data[offset: newline if complete else len(data)]
                record = None
                if complete:
                    try:
                        record = json.loads(raw.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        record = None
                if record is None:
                    at_end = (newline if complete else len(data)) >= len(data) - 1
                    if is_last and at_end:
                        # The signature of a killed writer: drop the
                        # partial final line so appends start clean.
                        with open(chunk_path, "r+b") as handle:
                            handle.truncate(offset)
                        break
                    raise ArtifactError(
                        f"corrupt record in {chunk_path} at byte {offset}: not a "
                        "crash-truncated final line, refusing to resume"
                    )
                self._ingest(record, chunk_path, offset)
                lines += 1
                offset = newline + 1
            if is_last:
                self._current_chunk = _chunk_index(name)
                self._current_lines = lines
        if not chunks:
            self._current_chunk = 0
            self._current_lines = 0

    def _ingest(self, record: Mapping[str, Any], chunk_path: str, offset: int) -> None:
        try:
            index = int(record["cell"])
            payload = record["payload"]
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactError(
                f"malformed completion record in {chunk_path} at byte {offset}: {error}"
            ) from error
        if index in self._records:
            raise ArtifactError(
                f"duplicate completion record for cell {index} in {chunk_path}"
            )
        num_cells = self.manifest.get("num_cells")
        if num_cells is not None and not (0 <= index < int(num_cells)):
            raise ArtifactError(
                f"completion record for cell {index} outside the suite's "
                f"{num_cells} cells in {chunk_path}"
            )
        self._records[index] = payload
        pid = record.get("pid")
        self._pids[index] = int(pid) if pid is not None else None

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        return int(self.manifest.get("num_cells", 0))

    def completed_indices(self) -> List[int]:
        """Indices of cells with a completion record, ascending."""
        return sorted(self._records)

    def completed_payloads(self) -> Dict[int, Dict[str, Any]]:
        """``cell index -> payload`` for every completed cell (a copy)."""
        return dict(self._records)

    def payload(self, index: int) -> Dict[str, Any]:
        """The recorded payload of one completed cell."""
        try:
            return self._records[index]
        except KeyError as error:
            raise ArtifactError(f"cell {index} has no completion record") from error

    def completed_pids(self) -> Dict[int, Optional[int]]:
        """``cell index -> recording worker pid`` (a copy)."""
        return dict(self._pids)

    def is_complete(self) -> bool:
        return len(self._records) == self.num_cells

    def __contains__(self, index: int) -> bool:
        return index in self._records

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def record_cell(
        self, index: int, payload: Mapping[str, Any], pid: Optional[int] = None
    ) -> None:
        """Append one completion record (single write + flush; duplicates raise)."""
        if index in self._records:
            raise ArtifactError(f"cell {index} already has a completion record")
        if not (0 <= index < self.num_cells):
            raise ArtifactError(
                f"cell index {index} outside the suite's {self.num_cells} cells"
            )
        chunk_lines = int(self.manifest.get("chunk_lines", DEFAULT_CHUNK_LINES))
        if self._handle is not None and self._current_lines >= chunk_lines:
            self._handle.close()
            self._handle = None
            self._current_chunk += 1
            self._current_lines = 0
        if self._handle is None:
            chunk_path = os.path.join(self.path, _chunk_name(self._current_chunk))
            self._handle = open(chunk_path, "ab")
        record = {"cell": int(index), "pid": pid, "payload": payload}
        line = _json_dumps(record, indent=None) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        self._current_lines += 1
        # Keep the in-memory view identical to what a re-open would read:
        # the JSON round trip normalizes tuples to lists and non-finite
        # floats to null, exactly like the final artifact serialization.
        self._records[index] = json.loads(line)["payload"]
        self._pids[index] = int(pid) if pid is not None else None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ArtifactStore(path={self.path!r}, completed={len(self._records)}/"
            f"{self.num_cells})"
        )


__all__ = [
    "ArtifactStore",
    "suite_hash",
    "STORE_VERSION",
    "MANIFEST_NAME",
    "DEFAULT_CHUNK_LINES",
]
