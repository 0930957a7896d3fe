"""C-compiler detection, JIT compilation and ``dlopen`` for rendered kernels.

The runtime half of the tinygrad-style split (``runtime/ops_clang.py``):
detect a system C compiler once per process, compile each rendered source
to a position-independent shared object with ``-O3 -fPIC -shared
-ffp-contract=off``, and load it via :class:`ctypes.CDLL`.  Compilation
failures surface as :class:`KernelCompileError` with the compiler's stderr
attached — a poisoned kernel never degrades silently into the NumPy path.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = ["CompilerInfo", "KernelCompileError", "find_compiler",
           "platform_tag", "compile_source", "load_library", "CFLAGS"]

#: Compilers probed in order; the first one present wins.
COMPILER_CANDIDATES = ("cc", "clang", "gcc")

#: Compile flags.  ``-ffp-contract=off`` is load-bearing: FMA contraction
#: would change one rounding in the Adam update and break its
#: bit-identity with the NumPy backend.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Seconds before a wedged compiler invocation is killed.
COMPILE_TIMEOUT = 60.0


class KernelCompileError(RuntimeError):
    """A rendered kernel failed to compile or load.

    Carries the compiler's ``stderr`` (and the offending source) so the
    failure is diagnosable from the exception alone.
    """

    def __init__(self, message: str, *, stderr: str = "",
                 source: str | None = None):
        detail = message
        if stderr.strip():
            detail += "\ncompiler stderr:\n" + stderr.strip()
        super().__init__(detail)
        self.stderr = stderr
        self.source = source


@dataclass(frozen=True)
class CompilerInfo:
    """A usable system C compiler: executable path + version banner."""

    path: str
    version: str

    @property
    def tag(self) -> str:
        """Cache-key component: sanitized version banner."""
        return re.sub(r"[^A-Za-z0-9.+-]+", "_", self.version.strip())


@functools.lru_cache(maxsize=None)
def find_compiler() -> CompilerInfo | None:
    """The first working C compiler on PATH, or ``None``.

    Detection runs once per process (memoized): a candidate counts as
    working when ``--version`` executes and reports something.
    """
    for name in COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            result = subprocess.run([path, "--version"], capture_output=True,
                                    text=True, timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            continue
        banner = (result.stdout or result.stderr).splitlines()
        if result.returncode == 0 and banner:
            return CompilerInfo(path=path, version=banner[0].strip())
    return None


def platform_tag() -> str:
    """Cache-key component tying a shared object to OS + architecture."""
    return f"{sys.platform}-{platform.machine()}"


def compile_source(source: str, output: str | os.PathLike,
                   compiler: CompilerInfo) -> Path:
    """Compile one rendered C translation unit into ``output`` (a ``.so``).

    The object is written atomically (temp file + rename) so a concurrent
    process never observes a half-written library.  Raises
    :class:`KernelCompileError` on any compiler failure, with stderr
    attached.
    """
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=output.parent)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        command = [compiler.path, *CFLAGS, "-o", tmp_so, tmp_c, "-lm"]
        try:
            result = subprocess.run(command, capture_output=True, text=True,
                                    timeout=COMPILE_TIMEOUT)
        except subprocess.TimeoutExpired as error:
            raise KernelCompileError(
                f"compiler timed out after {COMPILE_TIMEOUT:.0f}s: "
                f"{' '.join(command)}", source=source) from error
        except OSError as error:
            raise KernelCompileError(
                f"cannot invoke compiler {compiler.path}: {error}",
                source=source) from error
        if result.returncode != 0 or not os.path.exists(tmp_so):
            raise KernelCompileError(
                f"kernel compilation failed (exit {result.returncode}): "
                f"{' '.join(command)}",
                stderr=result.stderr, source=source)
        os.replace(tmp_so, output)
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return output


def load_library(path: str | os.PathLike) -> ctypes.CDLL:
    """``dlopen`` a compiled kernel library.

    ``dlopen`` deduplicates by pathname, so loading a recompiled object at
    a reused cache path would hand back the stale handle of whatever was
    first mapped there — and fault in ``dlsym`` if the original file was
    truncated or rewritten underneath it.  Each load therefore maps a
    private snapshot: the verified object bytes are copied to a uniquely
    named temporary file beside the cache entry, ``dlopen``ed, and
    unlinked (the mapping survives the unlink on POSIX).

    Raises :class:`KernelCompileError` when the object cannot be loaded —
    callers treat that like a corrupted cache entry and recompile.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise KernelCompileError(
            f"cannot read compiled kernel {path}: {error}") from error
    fd, snapshot = tempfile.mkstemp(suffix=".so", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        try:
            return ctypes.CDLL(snapshot)
        except OSError as error:
            raise KernelCompileError(
                f"cannot dlopen compiled kernel {path}: {error}") from error
    finally:
        try:
            os.unlink(snapshot)
        except OSError:
            pass
