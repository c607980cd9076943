"""Pluggable queue storage backends: the seam under :class:`JobQueue`.

The claim-by-rename protocol (:mod:`repro.cluster.queue`) is really two
layers: the *scheduling* logic (attempt budgets, fences, retry_after,
dead-lettering) and a tiny set of *storage* primitives it drives — list the
items of a state, read/write one item, atomically move an item between
states, refresh or read its heartbeat.  This module extracts the storage
half behind :class:`QueueBackend` so non-POSIX stores can slot in without
touching a line of scheduler logic:

* :class:`FilesystemQueueBackend` — the historical on-disk layout: one
  ``<run_dir>/queue/<state>/<item>.json`` file per item, ``os.rename`` for
  moves, the file's mtime as the heartbeat.
* :class:`KVQueueBackend` — the same contract over a minimal blob-store
  interface (:class:`BlobStore`: get / put-if-absent / list /
  delete-with-precondition), the shape S3-style object stores offer.
  Blobs have no usable mtime, so the heartbeat timestamp rides *inside*
  the stored document (``{"hb": ts, "payload": {...}}``); moves commit by
  deleting the source blob, with the put-if-absent on the destination
  deciding races.  :class:`LocalDirBlobStore` is the reference store (one
  file per key) so the backend is testable without any cloud dependency.

Backends register by name through :func:`register_queue_backend` — the same
registry idiom as :func:`repro.runtime.executors.register_executor` — and a
run records its backend in the manifest, so every participant (coordinator,
spawned daemons, external workers, ``verify``/``repair``) resolves the same
one from nothing but the run directory.

Move semantics: ``move(src, dst, item_id)`` returns ``False`` when this
caller *lost the race* — another process moved the item first.  Exactly one
concurrent mover wins; the scheduler layer builds every exactly-once
guarantee on that.  A move starts a fresh heartbeat as part of the same
atomic step, so an item is never visible as leased with the stale heartbeat
of the time it was queued.
"""

from __future__ import annotations

import abc
import itertools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Union

from repro.utils.serialization import atomic_write_bytes, atomic_write_json

__all__ = [
    "QueueBackend",
    "FilesystemQueueBackend",
    "BlobStore",
    "LocalDirBlobStore",
    "KVQueueBackend",
    "QUEUE_BACKENDS",
    "DEFAULT_QUEUE_BACKEND",
    "register_queue_backend",
    "resolve_queue_backend",
    "queue_backend_names",
    "manifest_queue_backend",
]

#: The backend a run uses when its manifest names none: the historical
#: POSIX rename/lease protocol.
DEFAULT_QUEUE_BACKEND = "filesystem"

#: Directory the ``kv`` backend's reference blob store lives under.
KV_DIRNAME = "kv"


class QueueBackend(abc.ABC):
    """Storage primitives one :class:`~repro.cluster.queue.JobQueue` needs.

    Implementations must make ``write`` atomic (readers see the old
    document, nothing, or the new one — never a partial), ``move`` decide
    races with exactly one winner, and ``mtime``/``touch`` carry the lease
    heartbeat with at least second granularity.
    """

    #: Registry name (``"filesystem"``, ``"kv"``, ...); recorded in run
    #: manifests and surfaced by ``cluster status``.
    name = "abstract"

    @abc.abstractmethod
    def ensure_layout(self) -> None:
        """Create whatever containers the states need (idempotent)."""

    @abc.abstractmethod
    def list_ids(self, state: str) -> List[str]:
        """Sorted item ids currently in ``state``."""

    @abc.abstractmethod
    def exists(self, state: str, item_id: str) -> bool:
        """Whether ``item_id`` currently has a document in ``state``."""

    @abc.abstractmethod
    def read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        """The item's payload, or ``None`` if absent or undecodable."""

    @abc.abstractmethod
    def write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        """Atomically create-or-replace the item; restarts its heartbeat."""

    @abc.abstractmethod
    def move(self, src: str, dst: str, item_id: str) -> bool:
        """Atomically transition the item; ``False`` = lost the race.

        The item arrives in ``dst`` with a fresh heartbeat, as part of the
        same atomic step: a claim's lease must be live the moment the item is
        visible as leased, or a concurrent expiry scan can take it back
        before the claimant's rewrite.
        """

    @abc.abstractmethod
    def touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        """Refresh the heartbeat (to ``ts`` or now); ``False`` if gone."""

    @abc.abstractmethod
    def mtime(self, state: str, item_id: str) -> Optional[float]:
        """The item's last heartbeat timestamp, or ``None`` if gone."""

    @abc.abstractmethod
    def remove(self, state: str, item_id: str) -> bool:
        """Delete the item's document; ``False`` if already gone."""


class FilesystemQueueBackend(QueueBackend):
    """The historical POSIX protocol: one file per item, rename to move.

    Layout and byte format are identical to the pre-seam
    :class:`~repro.cluster.queue.JobQueue` — a run directory written by an
    old fleet is claimable by a new one and vice versa.
    """

    name = "filesystem"

    def __init__(self, run_dir: str):
        self.run_dir = os.path.abspath(run_dir)
        self.queue_dir = os.path.join(self.run_dir, "queue")

    def _path(self, state: str, item_id: str) -> str:
        return os.path.join(self.queue_dir, state, item_id + ".json")

    def ensure_layout(self) -> None:
        from repro.cluster.queue import STATES

        for state in STATES:
            os.makedirs(os.path.join(self.queue_dir, state), exist_ok=True)

    def list_ids(self, state: str) -> List[str]:
        directory = os.path.join(self.queue_dir, state)
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".json")] for name in names if name.endswith(".json")
        )

    def exists(self, state: str, item_id: str) -> bool:
        return os.path.exists(self._path(state, item_id))

    def read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        try:
            with open(self._path(state, item_id), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        # Atomic replace; the fresh file's mtime doubles as the heartbeat.
        atomic_write_json(self._path(state, item_id), payload)

    def move(self, src: str, dst: str, item_id: str) -> bool:
        source = self._path(src, item_id)
        try:
            os.utime(source)  # the rename keeps the fresh mtime
            os.rename(source, self._path(dst, item_id))
        except (FileNotFoundError, PermissionError):
            # Lost the rename race (or a racing network filesystem); the
            # False return *is* the signal the scheduler acts on.
            return False
        return True

    def touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        path = self._path(state, item_id)
        try:
            if ts is None:
                os.utime(path)
            else:
                os.utime(path, (ts, ts))
        except FileNotFoundError:
            return False
        return True

    def mtime(self, state: str, item_id: str) -> Optional[float]:
        try:
            return os.stat(self._path(state, item_id)).st_mtime
        except OSError:
            return None

    def remove(self, state: str, item_id: str) -> bool:
        try:
            os.unlink(self._path(state, item_id))
        except FileNotFoundError:
            return False
        return True


class BlobStore(abc.ABC):
    """A minimal S3-shaped blob interface the ``kv`` backend builds on.

    Four operations, two with preconditions: ``put(if_absent=True)`` must
    atomically create-with-content and report whether *this* caller created
    the blob, and ``delete`` must report whether *this* caller removed it —
    those two booleans are what turn a dumb object store into a queue that
    decides races with exactly one winner.
    """

    @abc.abstractmethod
    def get(self, key: str) -> Optional[bytes]:
        """The blob's bytes, or ``None`` if absent."""

    @abc.abstractmethod
    def put(self, key: str, data: bytes, if_absent: bool = False) -> bool:
        """Store ``data`` under ``key``.

        ``if_absent=False`` overwrites unconditionally and returns ``True``.
        ``if_absent=True`` succeeds only when the key did not exist; a
        ``False`` return means another writer created it first (and this
        call wrote nothing).  Readers never observe partial blobs either
        way.
        """

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; ``False`` when it was already gone."""

    @abc.abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """Sorted keys starting with ``prefix``."""


class LocalDirBlobStore(BlobStore):
    """Reference :class:`BlobStore`: one file per key under a root dir.

    Exists so the ``kv`` backend is testable (and usable on one host)
    without any cloud dependency; a real S3 adapter implements the same
    four methods with conditional puts/deletes and drops in unchanged.
    """

    _tmp_counter = itertools.count()

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    def _path(self, key: str) -> str:
        if not key or key.startswith(("/", "\\")) or ".." in key.split("/"):
            raise ValueError(f"invalid blob key: {key!r}")
        return os.path.join(self.root, *key.split("/"))

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None

    def put(self, key: str, data: bytes, if_absent: bool = False) -> bool:
        path = self._path(key)
        if not if_absent:
            atomic_write_bytes(path, data)
            return True
        # Atomic create-with-content: write a complete private sibling,
        # then hard-link it into place — link fails (EEXIST) iff the key
        # already exists, and a winner's blob is never observable partial.
        tmp = f"{path}.tmp-{os.getpid()}-{next(self._tmp_counter)}~"
        atomic_write_bytes(tmp, data)
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                os.unlink(tmp)
            # repro: ignore[REP008] best-effort tmp cleanup; the link (or
            # its FileExistsError) already decided the put.
            except OSError:
                pass
        return True

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except (FileNotFoundError, NotADirectoryError):
            return False
        return True

    def list(self, prefix: str = "") -> List[str]:
        keys: List[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            rel = os.path.relpath(dirpath, self.root)
            parts = [] if rel == "." else rel.split(os.sep)
            for name in filenames:
                if name.endswith("~") or name.startswith(".tmp-"):
                    continue  # in-flight temporaries are not keys
                key = "/".join(parts + [name])
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)


class KVQueueBackend(QueueBackend):
    """The queue contract over a :class:`BlobStore`.

    One blob per item, keyed ``<prefix><state>/<item>.json``, holding
    ``{"hb": <heartbeat ts>, "payload": <item payload>}``.  Blob stores
    expose no trustworthy mtime, so the heartbeat travels inside the
    document; ``touch`` rewrites it in place.

    A move copies the source blob, with a fresh heartbeat, to the
    destination with ``if_absent`` (losing that put = another mover already
    placed it), then *commits* by deleting the source; a failed delete means
    a concurrent mover committed first, so the copy is rolled back.  The item may transiently appear in
    two states between put and delete — counts are snapshots here, as they
    are under concurrent renames — but exactly one mover ever returns
    ``True``.
    """

    name = "kv"

    def __init__(self, store: BlobStore, prefix: str = "queue/"):
        self.store = store
        self.prefix = prefix

    def _key(self, state: str, item_id: str) -> str:
        return f"{self.prefix}{state}/{item_id}.json"

    @staticmethod
    def _encode(doc: Dict[str, object]) -> bytes:
        return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")

    def _document(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        blob = self.store.get(self._key(state, item_id))
        return None if blob is None else self._decode(blob)

    @staticmethod
    def _decode(blob: bytes) -> Optional[Dict[str, object]]:
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def ensure_layout(self) -> None:
        pass  # blob namespaces need no pre-created containers

    def list_ids(self, state: str) -> List[str]:
        prefix = f"{self.prefix}{state}/"
        ids = []
        for key in self.store.list(prefix):
            name = key[len(prefix):]
            if name.endswith(".json") and "/" not in name:
                ids.append(name[: -len(".json")])
        return sorted(ids)

    def exists(self, state: str, item_id: str) -> bool:
        return self.store.get(self._key(state, item_id)) is not None

    def read(self, state: str, item_id: str) -> Optional[Dict[str, object]]:
        doc = self._document(state, item_id)
        if doc is None:
            return None
        payload = doc.get("payload")
        return payload if isinstance(payload, dict) else None

    def write(self, state: str, item_id: str, payload: Dict[str, object]) -> None:
        doc = {"hb": time.time(), "payload": payload}
        self.store.put(self._key(state, item_id), self._encode(doc))

    def move(self, src: str, dst: str, item_id: str) -> bool:
        src_key = self._key(src, item_id)
        blob = self.store.get(src_key)
        if blob is None:
            return False
        # Stamp the heartbeat into the copy the put-if-absent places.  A
        # separate read-modify-write touch of the source could bring back an
        # item a concurrent mover already took.
        doc = self._decode(blob)
        if doc is not None:
            doc["hb"] = time.time()
            blob = self._encode(doc)
        if not self.store.put(self._key(dst, item_id), blob, if_absent=True):
            return False  # another mover already placed the destination
        if not self.store.delete(src_key):
            # A concurrent mover committed (deleted the source) first; undo
            # our copy so the item lands in exactly one state.
            self.store.delete(self._key(dst, item_id))
            return False
        return True

    def touch(self, state: str, item_id: str, ts: Optional[float] = None) -> bool:
        doc = self._document(state, item_id)
        if doc is None:
            return False
        doc["hb"] = time.time() if ts is None else float(ts)
        self.store.put(self._key(state, item_id), self._encode(doc))
        return True

    def mtime(self, state: str, item_id: str) -> Optional[float]:
        doc = self._document(state, item_id)
        if doc is None:
            return None
        try:
            return float(doc.get("hb"))
        except (TypeError, ValueError):
            return None

    def remove(self, state: str, item_id: str) -> bool:
        return self.store.delete(self._key(state, item_id))


# -- registry -----------------------------------------------------------------

#: ``{name: factory(run_dir) -> QueueBackend}`` — the queue twin of
#: :data:`repro.runtime.executors.EXECUTORS`.
QUEUE_BACKENDS: Dict[str, Callable[[str], QueueBackend]] = {}


def register_queue_backend(
    name: str, factory: Callable[[str], QueueBackend]
) -> None:
    """Register ``factory`` under ``name`` (later registrations win)."""
    QUEUE_BACKENDS[name] = factory


def queue_backend_names() -> List[str]:
    return sorted(QUEUE_BACKENDS)


def manifest_queue_backend(run_dir: str) -> str:
    """The backend name the run directory's manifest records.

    Falls back to :data:`DEFAULT_QUEUE_BACKEND` before the first submission
    (or on an unreadable manifest) so a fresh :class:`JobQueue` against an
    empty directory behaves exactly as it always has.  Read directly rather
    than through :func:`repro.cluster.broker.read_manifest` to keep this
    module import-light (the broker imports the queue, which imports us).
    """
    path = os.path.join(os.path.abspath(run_dir), "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return DEFAULT_QUEUE_BACKEND
    name = manifest.get("queue_backend") if isinstance(manifest, dict) else None
    if isinstance(name, str) and name:
        return name
    return DEFAULT_QUEUE_BACKEND


def resolve_queue_backend(
    backend: Union[str, QueueBackend, None], run_dir: str
) -> QueueBackend:
    """Resolve ``backend`` for ``run_dir``.

    ``None`` consults the run manifest (so workers, the verifier and the
    merger need only the run directory); a string looks up the registry; an
    instance passes through untouched.
    """
    if backend is None:
        backend = manifest_queue_backend(run_dir)
    if isinstance(backend, str):
        try:
            factory = QUEUE_BACKENDS[backend]
        except KeyError:
            known = ", ".join(queue_backend_names()) or "<none>"
            raise ValueError(
                f"unknown queue backend {backend!r}; registered: {known}"
            ) from None
        return factory(run_dir)
    if isinstance(backend, QueueBackend):
        return backend
    raise TypeError(
        f"backend must be a name, a QueueBackend or None, got {type(backend)!r}"
    )


register_queue_backend("filesystem", FilesystemQueueBackend)
register_queue_backend(
    "kv",
    lambda run_dir: KVQueueBackend(
        LocalDirBlobStore(os.path.join(os.path.abspath(run_dir), KV_DIRNAME))
    ),
)
