"""C-compiler detection, JIT compilation and ``dlopen`` for rendered kernels.

The runtime half of the tinygrad-style split (``runtime/ops_clang.py``):
detect a system C compiler once per process, compile each rendered source
to a position-independent shared object with ``-O3 -fPIC -shared
-ffp-contract=off``, plus ``-march=native`` when the compiler accepts it,
and load it via :class:`ctypes.CDLL`.  Which flags apply, and the
instruction set they resolve to on this host, is the :class:`BuildTarget`
that :func:`build_target` probes once per process.  Compilation failures
surface as :class:`KernelCompileError` with the compiler's stderr
attached — a poisoned kernel never degrades silently into the NumPy path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = ["BuildTarget", "CompilerInfo", "KernelCompileError",
           "build_target", "find_compiler", "platform_tag", "compile_source",
           "load_library", "CFLAGS", "NATIVE_FLAG"]

#: Compilers probed in order; the first one present wins.
COMPILER_CANDIDATES = ("cc", "clang", "gcc")

#: Compile flags.  ``-ffp-contract=off`` is load-bearing: FMA contraction
#: would change one rounding in the Adam update and break its
#: bit-identity with the NumPy backend.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Added to :data:`CFLAGS` when the compiler accepts it, so every kernel is
#: built for the host CPU; the LDPC kernel's lane count follows the vector
#: width it enables.
NATIVE_FLAG = "-march=native"

#: Predefined macros naming a vector instruction set, widest first.
_ISA_MACROS = (("__AVX512F__", "avx512f"), ("__AVX2__", "avx2"),
               ("__AVX__", "avx"), ("__SSE2__", "sse2"),
               ("__ARM_NEON", "neon"))

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


@dataclass(frozen=True)
class BuildTarget:
    """What the kernels are compiled for: the compile flags and the
    instruction set they resolve to on this host."""

    flags: tuple[str, ...]
    #: The widest vector instruction set the compiler predefines under
    #: ``flags`` (``"generic"`` when it names none).
    isa: str
    #: SHA-256 of the compiler's predefined macros under ``flags``: the
    #: resolved target, every instruction-set extension included.
    macros_sha256: str

    @property
    def tag(self) -> str:
        """Cache-key component: the flags and the resolved target."""
        return f"{' '.join(self.flags)} {self.isa} {self.macros_sha256}"

    def describe(self) -> str:
        """One line for reports: the instruction set and the flags."""
        return f"{self.isa} ({' '.join(self.flags)})"


def _predefined_macros(compiler: CompilerInfo,
                       flags: tuple[str, ...]) -> str | None:
    """The compiler's sorted predefined macros under ``flags``, or ``None``
    when it rejects them."""
    command = [compiler.path, *flags, "-dM", "-E", "-x", "c", os.devnull]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=COMPILE_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return "\n".join(sorted(result.stdout.splitlines()))


@functools.lru_cache(maxsize=None)
def build_target(compiler: CompilerInfo) -> BuildTarget:
    """The target every kernel of ``compiler`` is built for.

    Probed once per process (memoized): the compiler preprocesses an empty
    file with :data:`CFLAGS` plus :data:`NATIVE_FLAG`, and with
    :data:`CFLAGS` alone when it rejects that.  A compiler that rejects
    both keeps :data:`CFLAGS`, and its first compile reports why.
    """
    for flags in ((*CFLAGS, NATIVE_FLAG), CFLAGS):
        macros = _predefined_macros(compiler, flags)
        if macros is not None:
            break
    macros = macros or ""
    defined = set(re.findall(r"^#define (\w+)", macros, re.M))
    isa = next((name for macro, name in _ISA_MACROS if macro in defined),
               "generic")
    return BuildTarget(flags=flags, isa=isa,
                       macros_sha256=hashlib.sha256(macros.encode())
                       .hexdigest())


def platform_tag() -> str:
    """Cache-key component tying a shared object to OS + architecture."""
    return f"{sys.platform}-{platform.machine()}"


def compile_source(source: str, output: str | os.PathLike,
                   compiler: CompilerInfo) -> Path:
    """Compile one rendered C translation unit into ``output`` (a ``.so``)
    with the flags of :func:`build_target`.

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
        command = [compiler.path, *build_target(compiler).flags, "-o",
                   tmp_so, tmp_c, "-lm"]
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
