"""Compiled C-kernel backend for :mod:`repro.nn`: codegen → cc JIT → dlopen.

The package splits the tinygrad runtime pattern into three layers:

* :mod:`repro.nn.cjit.render` — emit one small C translation unit per
  (kernel, shape constants, dtype): the conv lowering is compiled per
  window and plane shape, and the plane count is the only runtime extent;
* :mod:`repro.nn.cjit.compiler` — detect ``cc``/``clang``/``gcc``, compile
  with ``-O3 -fPIC -shared -ffp-contract=off``, plus ``-march=native`` when
  the compiler accepts it (:func:`build_target`), ``dlopen`` via ctypes;
* :mod:`repro.nn.cjit.backend` — :class:`CJitBackend`, registered as
  ``"cjit"`` in the :mod:`repro.nn.backend` registry, with per-op NumPy
  fallback and a per-user on-disk kernel cache
  (:class:`repro.artifacts.kernels.KernelCache`) so warm runs never invoke
  the compiler.

It is the process default wherever :func:`find_compiler` finds a compiler
(:func:`default_backend`); ``use_backend("numpy")`` opts out, and
``use_backend("cjit")`` builds one that raises on a failing compile::

    from repro.nn import backend
    backend.get_backend().name     # "cjit" with a C compiler, else "numpy"
    with backend.use_backend("numpy"):
        ...        # conv/activation/Adam/LDPC kernels run the NumPy versions

``python -m repro.nn`` reports the default, the compiler, the build target
and the cache, and ``--warm`` pre-compiles the standard kernel set: every
kernel the tiny, small and paper model presets train and sample with.
"""

from repro.nn.backend import register_backend
from repro.nn.cjit.backend import (
    CJitBackend,
    default_backend,
    kernel_cache_key,
)
from repro.nn.cjit.compiler import (
    BuildTarget,
    CompilerInfo,
    KernelCompileError,
    build_target,
    find_compiler,
    platform_tag,
)
from repro.nn.cjit.render import (
    KernelSpec,
    render_kernel,
    standard_kernel_specs,
)

__all__ = [
    "BuildTarget",
    "CJitBackend",
    "CompilerInfo",
    "KernelCompileError",
    "KernelSpec",
    "build_target",
    "cjit_available",
    "default_backend",
    "find_compiler",
    "kernel_cache_key",
    "platform_tag",
    "render_kernel",
    "standard_kernel_specs",
]

register_backend(CJitBackend.name, CJitBackend)


def cjit_available() -> bool:
    """Whether a C compiler is present (compiled kernels vs pure fallback)."""
    return find_compiler() is not None
