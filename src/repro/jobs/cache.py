"""Content-addressed, schema-versioned on-disk result cache.

Layout::

    <root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json

Each entry is a strict-JSON document ``{"schema", "key", "spec",
"result"}`` — the spec is stored alongside the result so entries are
self-describing (``repro``-independent tools can inspect what a hash
means).  The schema version appears both in the directory name and
inside the file: entries written by an older (or newer) encoding are
simply never found, so stale results self-invalidate without any
migration logic.

Corruption is treated as a miss, never an error: a truncated file, a
garbage byte, or a schema/key mismatch makes :meth:`ResultCache.get`
return ``None`` and the caller recomputes.  An I/O error is not
corruption: an entry that cannot be read is a miss that stays in place.
The corrupt file is *quarantined* — moved aside into
``<root>/quarantine/`` (outside the versioned lookup tree, so it can
never be read again), counted in ``repro_jobs_cache_quarantined_total``
— rather than silently deleted, so a chaos run or an operator can audit
exactly what the store refused to serve.  Writes are atomic (temp file +
``os.replace``) so a crashed writer can leave at worst a stray temp
file, never a half-written entry under the final name.

Both the read and write paths carry fault-injection hooks
(``cache.read``, ``cache.write`` — see :mod:`repro.faults`): injected
I/O errors flow through the same ``except OSError`` handling as real
ones, and injected torn/corrupt payloads must be caught by the same
validation that guards against real disk rot.

Two lookup flavors exist because two callers with different contracts
share the store.  :meth:`ResultCache.get` is the *batch* path: it may
repair the store (deleting corrupt entries) and therefore takes the
write lock when it does.  :meth:`ResultCache.get_or_none` is the
*serving* hit path: strictly read-only — no lock, no deletion, no
state mutation of any kind — so concurrent readers (the server's event
loop vs. its worker threads) never contend on a pure lookup.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import threading
from pathlib import Path

from repro.faults import hooks as fault_hooks
from repro.jobs.spec import SCHEMA_VERSION
from repro.obs.registry import default_registry

#: Subdirectory (under the cache root) corrupt entries are moved into.
QUARANTINE_DIRNAME = "quarantine"


def default_cache_dir() -> Path:
    """The cache root used when no ``--cache-dir`` is given.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Key -> serialized-result store under one root directory."""

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = Path(root) if root is not None else default_cache_dir()
        # Serializes mutations (put, corrupt-entry deletion) between
        # threads sharing one cache object; pure lookups never take it.
        self._write_lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to (whether or not it exists)."""
        return self._root / f"v{SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the stored result dict, or ``None`` on miss/corruption.

        This is the batch path: a corrupt entry is quarantined (under
        the write lock) so the recomputed result can replace it cleanly
        and the bad bytes can never be re-read.
        """
        path = self.path_for(key)
        try:
            result = self._read(key, path)
        except OSError:
            return None
        if result is None:
            with self._write_lock:
                self._quarantine(path)
        return result

    def get_or_none(self, key: str) -> dict | None:
        """:meth:`get` that never mutates anything, the serving fast path:
        a corrupt entry is left for :meth:`get` or :meth:`put` to repair."""
        try:
            return self._read(key, self.path_for(key))
        except OSError:
            return None

    def put(self, key: str, spec: dict, result: dict) -> None:
        """Atomically store a result (spec kept for self-description)."""
        path = self.path_for(key)
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "spec": spec,
            "result": result,
        }
        fault_hooks.maybe_raise("cache.write", key=key)
        with self._write_lock:
            temp_file = functools.partial(
                tempfile.mkstemp, dir=path.parent, prefix=f".{key[:8]}-",
                suffix=".tmp")
            try:
                fd, tmp_name = temp_file()
            except FileNotFoundError:  # first write to the shard, or gone
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = temp_file()
            try:
                with os.fdopen(fd, "wb") as handle:
                    # dumps() is the C encoder; dump() streams through
                    # the pure-Python iterencode for the same bytes.
                    handle.write(json.dumps(payload, sort_keys=True).encode())
                os.replace(tmp_name, path)
            except BaseException:
                self._discard(Path(tmp_name))
                raise

    @staticmethod
    def _read(key: str, path: Path) -> dict | None:
        """The result stored at ``path``, or ``None`` if its bytes do not
        decode or validate as one — the only corruption.  An entry that
        cannot be read (absent: one failed open) raises ``OSError``."""
        fault_hooks.maybe_raise("cache.read", key=key)
        data = path.read_bytes()
        try:
            payload = json.loads(fault_hooks.corrupt_text(
                "cache.read", data.decode("utf-8"), key=key))
        except ValueError:
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != SCHEMA_VERSION
                or payload.get("key") != key
                or not isinstance(payload.get("result"), dict)):
            return None
        return payload["result"]

    def __len__(self) -> int:
        """Number of entries currently stored (current schema only)."""
        version_dir = self._root / f"v{SCHEMA_VERSION}"
        if not version_dir.is_dir():
            return 0
        return sum(1 for _ in version_dir.glob("*/*.json"))

    # -- quarantine ----------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where refused entries land (outside the lookup tree)."""
        return self._root / QUARANTINE_DIRNAME

    def quarantined_count(self) -> int:
        """How many corrupt entries this store has moved aside."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.glob("*.json*"))

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it can never be re-read.

        The destination name keeps the original file name (a numeric
        suffix disambiguates repeat offenders), the move is a rename —
        atomic on one filesystem — and any failure falls back to plain
        deletion: a corrupt entry must leave the lookup tree either way.
        """
        dest = self.quarantine_dir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            self._discard(path)
            return
        default_registry().counter(
            "repro_jobs_cache_quarantined_total",
            "Corrupt result-cache entries moved aside, never re-read."
        ).inc()

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
