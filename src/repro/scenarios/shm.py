"""Shared-memory array transport for the sweep executor.

The shared executor compiles every topology's routing operators **once**
in the parent, copies the backing arrays into one
:class:`multiprocessing.shared_memory.SharedMemory` segment per
topology, and hands workers only a small picklable *descriptor*
(segment name + per-array offset/shape/dtype).  Workers reconstruct
zero-copy read-only :func:`numpy.frombuffer` views — no recompilation,
no per-worker copies of the operators.

Lifecycle contract
------------------

* The **parent** owns every segment: it creates them before spawning
  the pool and close+unlinks them in a ``finally`` once the sweep ends,
  so a normally-terminating sweep leaks nothing.
* **Workers** attach by name with :mod:`multiprocessing.resource_tracker`
  registration suppressed — attaching would otherwise register a
  would-be owner, making every worker exit unlink the parent's segment
  (and race the other workers in the shared tracker daemon).  Attached
  handles are kept in a module-level registry so the views stay valid
  for the worker's lifetime.
* Segment names embed the owning pid (``repro_shm_<pid>_<seq>``), so
  debris from a SIGKILLed parent is identifiable:
  :func:`cleanup_stale_segments` removes segments whose owner is dead,
  and :func:`live_segments` (:func:`owned_segments`: one process tree's)
  let tests and the bench assert that a finished sweep left none behind.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

#: Name prefix for every segment this module creates.
SEGMENT_PREFIX = "repro_shm_"

#: Where POSIX shared memory appears on Linux (absent elsewhere; the
#: stale-segment helpers degrade to no-ops then).
_SHM_DIR = "/dev/shm"

#: Per-array alignment inside a segment (cache-line friendly).
_ALIGN = 64

_sequence = itertools.count()

#: Worker-side registry: segment name -> attached SharedMemory handle.
#: Keeps the mapped buffer alive as long as any view built from it.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def publish_arrays(
    arrays: Mapping[str, np.ndarray],
) -> Tuple[shared_memory.SharedMemory, Dict[str, Any]]:
    """Copy ``arrays`` into one fresh segment; return ``(segment, descriptor)``.

    The descriptor is a small picklable dict (segment name plus
    per-array layout) suitable for pool initargs; the caller must keep
    the returned segment handle and ``close()`` + ``unlink()`` it when
    the consumers are done.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    offset = 0
    contiguous: Dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        contiguous[name] = array
        entries[name] = {
            "offset": offset,
            "shape": list(array.shape),
            "dtype": array.dtype.str,
        }
        offset = _aligned(offset + array.nbytes)
    segment = shared_memory.SharedMemory(
        create=True,
        size=max(offset, 1),
        name=f"{SEGMENT_PREFIX}{os.getpid()}_{next(_sequence)}",
    )
    for name, array in contiguous.items():
        entry = entries[name]
        view = np.frombuffer(
            segment.buf, dtype=array.dtype, count=array.size, offset=entry["offset"]
        ).reshape(array.shape)
        view[...] = array
    return segment, {"segment": segment.name, "entries": entries}


def attach_arrays(descriptor: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Zero-copy read-only views over a published segment (worker side).

    Safe to call repeatedly with the same descriptor: the segment is
    mapped once per process and cached in :data:`_ATTACHED`.
    """
    name = descriptor["segment"]
    segment = _ATTACHED.get(name)
    if segment is None:
        # Attaching would register this process as a would-be owner with
        # the resource tracker, which (a) would unlink the parent's
        # segment at worker exit and (b) races across workers — the
        # tracker daemon is shared, its cache is a set, and the second
        # worker's unregister of the same name raises in the daemon.
        # Suppress registration entirely for the attach: the parent owns
        # the segment and its tracker entry.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        _ATTACHED[name] = segment
    arrays: Dict[str, np.ndarray] = {}
    for array_name, entry in descriptor["entries"].items():
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(
            segment.buf, dtype=dtype, count=count, offset=entry["offset"]
        ).reshape(shape)
        view.flags.writeable = False
        arrays[array_name] = view
    return arrays


def release_parent_segments(segments) -> None:
    """Close + unlink parent-owned segments, ignoring already-gone ones."""
    for segment in segments:
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _owner_pid(segment_name: str) -> int:
    """Owning pid embedded in a segment name, or -1 if unparsable."""
    remainder = segment_name[len(SEGMENT_PREFIX):]
    pid_text = remainder.split("_", 1)[0]
    try:
        return int(pid_text)
    except ValueError:
        return -1


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def live_segments() -> List[str]:
    """Names of every currently-present ``repro_shm_*`` segment."""
    if not os.path.isdir(_SHM_DIR):
        return []
    return sorted(
        name for name in os.listdir(_SHM_DIR) if name.startswith(SEGMENT_PREFIX)
    )


def owned_segments(root_pid: int) -> List[str]:
    """Present segments owned by ``root_pid`` or a live descendant, not another process tree."""
    owned = []
    for name in live_segments():
        pid = _owner_pid(name)
        while pid > 0 and pid != root_pid:  # walk up the parents /proc reports
            try:  # "pid (comm) state ppid ...": comm may hold spaces and parens
                with open(f"/proc/{pid}/stat") as stat:
                    pid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                pid = -1
        if pid == root_pid:
            owned.append(name)
    return owned


def cleanup_stale_segments() -> List[str]:
    """Unlink segments whose owning process is dead; return their names.

    The recovery path after a SIGKILLed sweep parent: the kernel keeps
    POSIX shared memory alive past process death, so resume (and the
    test suite's leak finalizer) sweep the debris of previous owners
    while never touching segments of live sweeps.
    """
    removed: List[str] = []
    for name in live_segments():
        if _pid_alive(_owner_pid(name)):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:
            continue
        removed.append(name)
    return removed


__all__ = [
    "SEGMENT_PREFIX",
    "publish_arrays",
    "attach_arrays",
    "release_parent_segments",
    "live_segments",
    "owned_segments",
    "cleanup_stale_segments",
]
