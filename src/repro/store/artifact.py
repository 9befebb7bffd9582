"""Crash-safe on-disk artifact store.

The paper's CBV flow ran continuously for months over a whole chip; a
run at that scale must survive a SIGKILL, an OOM, or a machine reboot
without redoing finished work.  :class:`ArtifactStore` is the durable
half of that discipline: a flat, content-checksummed blob store whose
writes are atomic, so the store on disk is *always* a set of complete,
verified checkpoints -- never a torn one.

Write path (``put``):

1. claim the key's lock file with ``O_CREAT | O_EXCL`` (see below);
2. stream the pickled payload into an anonymous spool file, computing
   its SHA-256 and size on the way (the payload is never held in
   memory as one serialized blob);
3. write header + spooled payload to a temporary file in the store's
   own ``tmp/`` directory (same filesystem as the final home);
4. ``flush`` + ``fsync`` the file, then ``os.replace`` it into place
   (atomic on POSIX and NTFS), then best-effort ``fsync`` the directory.

A crash before the rename leaves only a stale temp file (cleaned up
lazily); a crash after leaves a fully durable blob.  There is no state
in between.

Concurrent writers (a :mod:`repro.fleet` worker pool sharing one store)
are serialized per key by a lock file next to the blob: one writer wins
the ``O_EXCL`` claim, the others count a ``write_contended`` and either
wait for the winner (skipping their own write once the winner's blob
lands -- keys fingerprint the payload's inputs, so two writers racing on
one key are writing interchangeable checkpoints) or break the lock when
its owner is provably dead (pid gone) or -- for owners that cannot be
confirmed either way -- when the identical lock file has been observed
for ``lock_stale_s`` seconds of this process's *monotonic* clock.
A provably live owner's lock is never broken, and wall-clock skew
cannot age a lock (staleness never reads ``time.time()`` deltas).
Two workers checkpointing the same stage therefore never interleave,
and a SIGKILLed writer can never wedge the key it was holding.

Read path (``get``) trusts nothing: the header must parse, the declared
payload length must match, the SHA-256 must match, and the payload must
deserialize.  Any failure *quarantines* the blob (moved aside into
``quarantine/`` for post-mortem, never deleted) and raises
:class:`CorruptArtifact`; the caller degrades to recomputation.  A
missing key raises :class:`StoreMiss`.

Blob format: one JSON header line (schema, key, sha256, size, caller
metadata) terminated by ``\\n``, then the raw payload bytes.  Payloads
are pickles of this repo's own dataclasses -- the store is a private
cache directory, not an interchange format; do not point it at
untrusted data.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
import time
from pathlib import Path

#: Bump when the blob envelope changes incompatibly.
STORE_FORMAT = "repro-store-v1"

_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")


class StoreError(Exception):
    """Base class for artifact-store failures."""


class StoreMiss(StoreError):
    """No blob exists under the requested key."""


class CorruptArtifact(StoreError):
    """A blob existed but failed verification; it has been quarantined."""


class StoreWriteError(StoreError):
    """A ``put`` failed after bounded retries; nothing was persisted.

    The blob under the key (if any) is the previous, still-verified
    write -- the failed attempt never replaced it.  When the underlying
    fault was ENOSPC the store has also entered degraded mode (see
    :attr:`ArtifactStore.degraded`).
    """


class _DigestWriter:
    """File-like ``write`` target that forwards to ``fh`` while keeping
    the SHA-256 and byte count of everything written.

    Pickle protocol 5 passes large contiguous buffers (numpy arrays) to
    ``write`` as :class:`pickle.PickleBuffer`, which has no ``len()``;
    the byte count therefore reads the buffer's ``nbytes``.
    """

    def __init__(self, fh) -> None:
        self.fh = fh
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        self.sha256.update(data)
        self.fh.write(data)
        n = memoryview(data).nbytes
        self.size += n
        return n


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (makes the rename itself durable)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """Content-checksummed blob store with atomic writes.

    Parameters
    ----------
    root:
        Directory to hold the store (created if absent).  Layout:
        ``objects/<key[:2]>/<key>.ckpt`` blobs, ``quarantine/`` for
        blobs that failed verification, ``tmp/`` for in-flight writes.

    ``lock_timeout_s`` bounds how long a contended ``put`` waits for the
    key's current writer before giving up (skipping its now-duplicate
    write); ``lock_stale_s`` is how long a lock whose owner cannot be
    confirmed alive must be observed unchanged (on this process's
    monotonic clock) before it is broken.  A provably dead owner's lock
    is broken immediately; a provably live owner's never.

    Write faults degrade in two stages.  An ``OSError`` from the locked
    write path (full disk, I/O error, overloaded NFS) is retried up to
    ``write_retries`` times with exponential backoff starting at
    ``write_backoff_s``; a put that still fails raises
    :class:`StoreWriteError`.  When the final fault was **ENOSPC** the
    store additionally flips :attr:`degraded` and stays there: every
    later ``put`` is skipped (returns ``None``, counted as
    ``writes_skipped``) instead of hammering a full disk, while reads
    keep serving the checkpoints that already landed.  Callers decide
    what degraded means for them -- the campaign layer keeps running
    un-checkpointed (see :class:`repro.store.checkpoint.CheckpointWriter`).

    Quarantined blobs are kept for post-mortem but not forever: the
    quarantine directory is swept after each new quarantine down to the
    newest ``quarantine_keep`` entries, so a store fed repeated
    corruption (a flaky disk, a chaos schedule) cannot grow without
    bound.

    Counters (``hits`` / ``misses`` / ``writes`` / ``corrupt`` /
    ``write_contended`` / ``writes_retried`` / ``writes_failed`` /
    ``writes_skipped`` / ``quarantine_swept``) are exposed through
    :meth:`counters` in the shape :func:`repro.perf.collect_counters`
    merges into campaign metrics.
    """

    def __init__(self, root: str | os.PathLike, *,
                 lock_timeout_s: float = 10.0,
                 lock_stale_s: float = 30.0,
                 write_retries: int = 2,
                 write_backoff_s: float = 0.05,
                 quarantine_keep: int = 64) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.tmp_dir = self.root / "tmp"
        for d in (self.objects, self.quarantine_dir, self.tmp_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.lock_timeout_s = lock_timeout_s
        self.lock_stale_s = lock_stale_s
        self.write_retries = write_retries
        self.write_backoff_s = write_backoff_s
        self.quarantine_keep = quarantine_keep
        #: Sticky ENOSPC flag: once a put exhausts its retries on a full
        #: disk, later puts are skipped instead of attempted.
        self.degraded = False
        #: Monotonic observation of contended locks whose owner cannot
        #: be confirmed alive: lock path -> (stat signature, first seen).
        #: See :meth:`_lock_is_stale`.
        self._lock_watch: dict[str, tuple[tuple, float]] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.write_contended = 0
        self.writes_retried = 0
        self.writes_failed = 0
        self.writes_skipped = 0
        self.quarantine_swept = 0

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise ValueError(f"invalid store key {key!r}")
        return self.objects / key[:2] / f"{key}.ckpt"

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> list[str]:
        """Every stored key (sorted)."""
        return sorted(p.stem for p in self.objects.glob("*/*.ckpt"))

    # -- write ---------------------------------------------------------------

    def _lock_path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.lock"

    def _try_claim(self, lock: Path) -> bool:
        """One O_EXCL shot at the key's write lock."""
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Unlockable filesystem: degrade to the pre-lock behaviour
            # (atomic last-writer-wins) rather than refuse durability.
            return True
        # "t" is diagnostic only (post-mortems of quarantined stores);
        # staleness decisions never read it -- wall clocks skew.
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "t": time.time()}, fh)
        self._lock_watch.pop(str(lock), None)
        return True

    def _lock_is_stale(self, lock: Path) -> bool:
        """True when the lock's owner is provably dead or provably idle.

        The decision deliberately uses no wall-clock arithmetic: a lock
        payload's ``"t"`` field (or the file's mtime) compared against
        ``time.time()`` can mis-age a *live* writer's lock by exactly the
        host's clock skew -- and a payload missing ``"t"`` must not read
        as written-at-epoch-0.  Instead:

        * an owner pid that is provably **alive** keeps the lock, full
          stop;
        * an owner pid that is provably **dead** forfeits it immediately;
        * an unknowable owner (payload unreadable or mid-write, pid
          absent, or not signalable from here) forfeits it only after
          this process has *observed the identical lock file* for
          ``lock_stale_s`` seconds of its own monotonic clock.  The
          observation window resets whenever the lock's stat signature
          changes, so an actively re-claimed lock is never broken.
        """
        ident = str(lock)
        try:
            st = lock.stat()
        except OSError:
            self._lock_watch.pop(ident, None)
            return False  # vanished: owner released it normally
        signature = (st.st_ino, st.st_mtime_ns, st.st_size)
        pid = None
        try:
            data = json.loads(lock.read_text(encoding="utf-8"))
            pid = data.get("pid")
        except (OSError, ValueError):
            pass  # unreadable or mid-write claim: owner unknowable
        if isinstance(pid, int):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # same-host owner is provably gone
            except (PermissionError, OSError):
                pass  # exists but not ours to signal: unknowable
            else:
                return False  # owner alive: never break a live lock
        watched = self._lock_watch.get(ident)
        now = time.monotonic()
        if watched is None or watched[0] != signature:
            self._lock_watch[ident] = (signature, now)
            return False
        return now - watched[1] > self.lock_stale_s

    def _claim_write_lock(self, key: str, path: Path) -> bool:
        """Serialize writers of one key; False means skip the write.

        The loser of a race waits for the winner: once the winner's
        blob has landed (lock released, blob present) this writer's
        payload is a duplicate checkpoint of the same fingerprinted
        inputs and is skipped.  A lock whose owner died is broken and
        re-claimed, so a crashed writer never wedges its key.
        """
        lock = self._lock_path(key)
        if self._try_claim(lock):
            return True
        self.write_contended += 1
        deadline = time.monotonic() + self.lock_timeout_s
        while time.monotonic() < deadline:
            if self._lock_is_stale(lock):
                try:
                    os.unlink(lock)
                except OSError:
                    pass
            if self._try_claim(lock):
                return True
            if not lock.exists() and path.exists():
                return False  # the contending writer finished this key
            time.sleep(0.005)
        # Owner alive but slow; its complete write will land.  Never
        # interleave with it -- drop this duplicate on the floor.
        return False

    def _release_write_lock(self, key: str) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def put(self, key: str, payload, meta: dict | None = None) -> Path | None:
        """Atomically persist ``payload`` under ``key`` (overwrites).

        Returns the blob path, or ``None`` when the write was skipped:
        a concurrent writer of the same key made it a duplicate (see
        :meth:`_claim_write_lock`) or the store is in ENOSPC
        :attr:`degraded` mode.  Raises :class:`StoreWriteError` when
        the write faulted and ``write_retries`` backoff attempts did
        not rescue it.
        """
        path = self._path(key)
        if self.degraded:
            self.writes_skipped += 1
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        if not self._claim_write_lock(key, path):
            return None
        try:
            return self._put_with_retries(key, payload, meta, path)
        finally:
            self._release_write_lock(key)

    def _put_with_retries(self, key: str, payload, meta: dict | None,
                          path: Path) -> Path:
        """Bounded retry-with-backoff around the locked write.

        Only ``OSError`` is retried -- transient disk faults come back
        as those; a payload that cannot pickle is the caller's bug and
        propagates unchanged on the first attempt.
        """
        attempt = 0
        while True:
            try:
                return self._put_locked(key, payload, meta, path)
            except OSError as exc:
                attempt += 1
                if attempt > self.write_retries:
                    self.writes_failed += 1
                    if exc.errno == errno.ENOSPC:
                        self.degraded = True
                    raise StoreWriteError(
                        f"{key}: write failed after {attempt} attempt(s): "
                        f"{exc}") from exc
                self.writes_retried += 1
                time.sleep(self.write_backoff_s * (2 ** (attempt - 1)))

    def _put_locked(self, key: str, payload, meta: dict | None,
                    path: Path) -> Path:
        # The header carries the payload's digest and size, so the
        # pickle is streamed into an anonymous spool first, hashing on
        # the way, instead of materializing it as one bytes object.
        with tempfile.TemporaryFile(dir=self.tmp_dir) as spool:
            sink = _DigestWriter(spool)
            pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
            spool.seek(0)
            header = {
                "format": STORE_FORMAT,
                "key": key,
                "sha256": sink.sha256.hexdigest(),
                "size": sink.size,
                "meta": dict(meta or {}),
            }
            head = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            fd, tmp_name = tempfile.mkstemp(prefix=f"{key[:8]}.",
                                            suffix=".tmp", dir=self.tmp_dir)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(head)
                    shutil.copyfileobj(spool, fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        _fsync_dir(path.parent)
        self.writes += 1
        return path

    # -- read ----------------------------------------------------------------

    def get(self, key: str):
        """Load ``(payload, meta)``; verify before trusting.

        Raises :class:`StoreMiss` when absent and :class:`CorruptArtifact`
        (after quarantining the blob) when any verification step fails.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            raise StoreMiss(f"no artifact stored under {key}") from None
        try:
            payload, meta = self._decode(key, raw)
        except CorruptArtifact as exc:
            self._quarantine(path)
            self.corrupt += 1
            raise exc
        self.hits += 1
        return payload, meta

    def _decode(self, key: str, raw: bytes):
        newline = raw.find(b"\n")
        if newline < 0:
            raise CorruptArtifact(f"{key}: no header line (truncated blob)")
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptArtifact(f"{key}: unreadable header: {exc}") from None
        if header.get("format") != STORE_FORMAT:
            raise CorruptArtifact(
                f"{key}: unknown blob format {header.get('format')!r}")
        if header.get("key") != key:
            raise CorruptArtifact(
                f"{key}: blob filed under foreign key {header.get('key')!r}")
        blob = raw[newline + 1:]
        if len(blob) != header.get("size"):
            raise CorruptArtifact(
                f"{key}: payload is {len(blob)} bytes, header promised "
                f"{header.get('size')} (truncated or padded)")
        digest = hashlib.sha256(blob).hexdigest()
        if digest != header.get("sha256"):
            raise CorruptArtifact(f"{key}: checksum mismatch "
                                  f"({digest[:12]} != declared "
                                  f"{str(header.get('sha256'))[:12]})")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 -- any unpickle fault
            raise CorruptArtifact(
                f"{key}: payload failed to deserialize: "
                f"{type(exc).__name__}: {exc}") from None
        return payload, header.get("meta", {})

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str, reason: str = "") -> bool:
        """Quarantine ``key``'s blob (e.g. semantically wrong payload).

        Returns True when a blob existed.  The counter treats this as a
        corruption, since the caller is declaring the entry unusable.
        """
        path = self._path(key)
        if not path.exists():
            return False
        self._quarantine(path)
        self.corrupt += 1
        return True

    def _quarantine(self, path: Path) -> None:
        """Move a bad blob aside (kept for post-mortem, bounded in size)."""
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._sweep_quarantine()

    def _sweep_quarantine(self) -> None:
        """Drop the oldest quarantined blobs past ``quarantine_keep``.

        Repeated corruption (flaky disk, chaos schedule) must not grow
        the quarantine without bound; the newest entries -- the ones a
        post-mortem actually wants -- survive.
        """
        try:
            entries = [p for p in self.quarantine_dir.iterdir() if p.is_file()]
        except OSError:
            return
        if len(entries) <= self.quarantine_keep:
            return

        def age(p: Path) -> tuple:
            try:
                return (p.stat().st_mtime_ns, p.name)
            except OSError:
                return (0, p.name)

        entries.sort(key=age)
        for p in entries[: len(entries) - self.quarantine_keep]:
            try:
                p.unlink()
                self.quarantine_swept += 1
            except OSError:
                pass

    def delete(self, key: str) -> bool:
        path = self._path(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        return True

    def clear_tmp(self) -> int:
        """Remove stale in-flight files left by crashed writers."""
        removed = 0
        for p in self.tmp_dir.glob("*.tmp"):
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """One stat() sweep over the store's on-disk footprint.

        Returns ``{"entries", "total_bytes", "quarantine_depth",
        "degraded"}`` -- what a capacity dashboard (or the service
        status endpoint) needs to answer "how big is this store and is
        it healthy".  Unlike :meth:`counters` (this handle's history),
        the numbers describe the *directory*, so every process sharing
        the store reports the same figures.
        """
        entries = 0
        total_bytes = 0
        for p in self.objects.glob("*/*.ckpt"):
            try:
                total_bytes += p.stat().st_size
            except OSError:
                continue
            entries += 1
        try:
            quarantine_depth = sum(
                1 for p in self.quarantine_dir.iterdir() if p.is_file())
        except OSError:
            quarantine_depth = 0
        return {
            "entries": entries,
            "total_bytes": total_bytes,
            "quarantine_depth": quarantine_depth,
            "degraded": bool(self.degraded),
        }

    def counters(self) -> dict[str, int]:
        return {
            "store_hits": self.hits,
            "store_misses": self.misses,
            "store_writes": self.writes,
            "store_corrupt": self.corrupt,
            "store_write_contended": self.write_contended,
            "store_writes_retried": self.writes_retried,
            "store_writes_failed": self.writes_failed,
            "store_writes_skipped": self.writes_skipped,
            "store_quarantine_swept": self.quarantine_swept,
            "store_degraded": int(self.degraded),
        }
