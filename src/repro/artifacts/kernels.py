"""Kernel cache: compiled shared objects as artifact-store entries.

The compiled-kernel backend (:mod:`repro.nn.cjit`) treats its ``.so``
files exactly like the model zoo treats checkpoints: each entry lives
under a cache directory next to a ``kernels.json`` manifest recording the
source SHA-256, the compiler version tag, the platform tag and the content
hash of the shared object.  A warm run looks an entry up by key — SHA-256
of (platform, compiler, build target, source) — verifies the object's
content hash, and skips the compiler entirely; a corrupted or stale entry
is evicted and recompiled, never loaded.  The cache holds at most
:data:`KERNEL_CACHE_MAX_BYTES` of objects: a hit refreshes an object's
mtime, and storing past the cap evicts the least recently used ones.

The cache is per user, never per working directory, because compiled
kernels are the default array backend wherever a C compiler works: it is
``$REPRO_KERNEL_CACHE`` when set, else ``~/.cache/repro/kernels``, else a
private per-user directory under :func:`tempfile.gettempdir`.  One cold
process compiles a kernel; every later process on the host loads it.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.artifacts.store import file_sha256

__all__ = ["KERNEL_CACHE_ENV", "KERNEL_MANIFEST_FILENAME",
           "KERNEL_CACHE_VERSION", "KERNEL_CACHE_MAX_BYTES",
           "default_kernel_cache_dir", "KernelCache"]

#: Environment override for the cache location.
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Manifest file name inside the cache directory.
KERNEL_MANIFEST_FILENAME = "kernels.json"

#: Manifest format version; newer formats reset the cache (it is only a
#: cache — resetting costs one recompile, never correctness).
KERNEL_CACHE_VERSION = 1

#: Object bytes the cache keeps before evicting the least recently used:
#: about 2,000 kernels of 16 KB.  Conv kernels are compiled per plane shape,
#: so without a bound the cache grows with every array size trained at.
KERNEL_CACHE_MAX_BYTES = 32 * 2 ** 20


def default_kernel_cache_dir() -> Path:
    """The per-user kernel cache directory.

    ``$REPRO_KERNEL_CACHE`` when set, used as given; else
    ``~/.cache/repro/kernels`` when it exists or can be created and is
    writable; else :func:`_user_temp_dir`.  A directory that turns out
    unusable is reported by the first compile into it, not here.
    """
    override = os.environ.get(KERNEL_CACHE_ENV)
    if override:
        return Path(override).expanduser()
    try:
        home = Path.home() / ".cache" / "repro" / "kernels"
        home.mkdir(parents=True, exist_ok=True)
        if os.access(home, os.W_OK):
            return home
    except (OSError, RuntimeError):  # no home directory, or not writable
        pass
    return _user_temp_dir()


def _user_temp_dir() -> Path:
    """``repro-kernels-<uid>`` under the temp directory, if private.

    The temp directory is shared, and a cache entry is code this process
    will load, so a directory there is used only when this user owns it
    and no one else can write to it.  Anything else (planted by another
    user, a symlink, group- or world-writable) is passed over for a fresh
    private :func:`tempfile.mkdtemp` directory.
    """
    uid = os.getuid() if hasattr(os, "getuid") else None
    suffix = f"-{uid}" if uid is not None else ""
    path = Path(tempfile.gettempdir()) / f"repro-kernels{suffix}"
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        info = path.lstat()
    except OSError:
        return path
    if uid is None or (stat.S_ISDIR(info.st_mode) and info.st_uid == uid
                       and not info.st_mode & 0o022):
        return path
    return Path(tempfile.mkdtemp(prefix="repro-kernels-"))


class KernelCache:
    """On-disk store of compiled kernel objects with hash verification.

    Lookup semantics mirror :func:`repro.artifacts.store.verify_checkpoint`:
    an entry only counts as a hit when its manifest record exists *and* the
    shared object's SHA-256 matches the recorded one.  Anything else —
    missing file, flipped bytes, a manifest written by a different format —
    is a miss that evicts the stale entry.  All writes are atomic
    (temp file + rename), so concurrent processes can share a cache
    directory; a lost manifest update merely costs a recompile.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None \
            else default_kernel_cache_dir()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Manifest I/O
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.directory / KERNEL_MANIFEST_FILENAME

    def entries(self) -> dict[str, dict[str, Any]]:
        """The manifest's entry table (empty on a fresh or damaged cache)."""
        try:
            data = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(data, Mapping) \
                or data.get("format_version") != KERNEL_CACHE_VERSION:
            return {}
        entries = data.get("entries")
        return dict(entries) if isinstance(entries, Mapping) else {}

    def _write_entries(self, entries: dict[str, dict[str, Any]]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"format_version": KERNEL_CACHE_VERSION,
                              "entries": entries}, indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".json")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, self.manifest_path)

    # ------------------------------------------------------------------ #
    # Entry lifecycle
    # ------------------------------------------------------------------ #
    def object_path(self, key: str) -> Path:
        return self.directory / f"{key}.so"

    def lookup(self, key: str, *, source_sha256: str) -> Path | None:
        """A verified ``.so`` path for ``key``, or ``None`` on a miss.

        Verification covers three failure modes: the manifest entry is
        missing (cold), the entry is *stale* (its recorded source hash no
        longer matches the rendered source), or the object is *corrupted*
        (missing file / content-hash mismatch).  Stale and corrupted
        entries are evicted so the caller recompiles into a clean slot.
        """
        entry = self.entries().get(key)
        path = self.object_path(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.get("source_sha256") != source_sha256:
            self.evict(key)
            self.misses += 1
            return None
        if not path.is_file() or file_sha256(path) != entry.get("so_sha256"):
            self.evict(key)
            self.misses += 1
            return None
        try:
            os.utime(path)  # the mtime orders eviction: least recent first
        except OSError:
            pass
        self.hits += 1
        return path

    def store(self, key: str, so_path: str | os.PathLike, *,
              source_sha256: str, symbol: str, compiler: str,
              platform: str) -> Path:
        """Record a freshly compiled object under ``key``.

        ``so_path`` is expected to already live at :meth:`object_path`
        (the compiler writes it there atomically); this records its
        content hash and provenance in the manifest.  When the recorded
        objects then pass :data:`KERNEL_CACHE_MAX_BYTES`, the least
        recently used other entries are evicted until they fit.
        """
        path = Path(so_path)
        entries = self.entries()
        entries[key] = {
            "symbol": symbol,
            "source_sha256": source_sha256,
            "so_sha256": file_sha256(path),
            "size": path.stat().st_size,
            "compiler": compiler,
            "platform": platform,
        }
        self._trim(entries, keep=key)
        self._write_entries(entries)
        return path

    def _trim(self, entries: dict[str, dict[str, Any]], keep: str) -> None:
        """Drop the least recently used entries but ``keep`` (oldest object
        mtime first, a missing object first of all) and their objects,
        until the recorded sizes fit :data:`KERNEL_CACHE_MAX_BYTES`."""
        total = sum(entry.get("size", 0) for entry in entries.values())
        if total <= KERNEL_CACHE_MAX_BYTES:
            return

        def last_used(key: str) -> float:
            try:
                return self.object_path(key).stat().st_mtime
            except OSError:
                return float("-inf")

        for old in sorted((key for key in entries if key != keep),
                          key=last_used):
            if total <= KERNEL_CACHE_MAX_BYTES:
                break
            total -= entries.pop(old).get("size", 0)
            try:
                os.unlink(self.object_path(old))
            except OSError:
                pass

    def evict(self, key: str) -> None:
        """Drop an entry and its object file (missing pieces are fine)."""
        entries = self.entries()
        if key in entries:
            del entries[key]
            self._write_entries(entries)
        try:
            os.unlink(self.object_path(key))
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        entries = self.entries()
        return {
            "entries": len(entries),
            "bytes": int(sum(entry.get("size", 0)
                             for entry in entries.values())),
            "hits": int(self.hits),
            "misses": int(self.misses),
        }
