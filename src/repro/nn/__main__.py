"""``python -m repro.nn [--warm] [--cache-dir DIR]``: list the registered
array backends, the process default, the C compiler ``cjit`` found, the
target it builds kernels for and the kernel cache (entries and bytes);
``--warm`` pre-compiles the standard kernel set into it.
"""

from __future__ import annotations

import argparse

from repro.artifacts.kernels import (KERNEL_CACHE_MAX_BYTES,
                                    default_kernel_cache_dir)
from repro.nn import backend, cjit
from repro.obs.metrics import backend_registry


def main(argv: list[str] | None = None) -> int:
    """Print the report; exit 1 when ``--warm`` finds no C compiler."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.nn",
        description="Inspect the array-kernel backend registry and manage "
                    "the compiled-kernel (cjit) cache.")
    parser.add_argument("--warm", action="store_true",
                        help="pre-compile the standard cjit kernel set into "
                             "the kernel cache")
    parser.add_argument("--cache-dir", default=None,
                        help="kernel cache directory (default: "
                             "$REPRO_KERNEL_CACHE, else "
                             "~/.cache/repro/kernels, else a per-user "
                             "temporary directory)")
    args = parser.parse_args(argv)

    registry = backend.BACKEND_REGISTRY
    default = backend.get_backend().name
    print("registered array backends:")
    for name in sorted(registry):
        marker = " (default)" if name == default else ""
        print(f"  {name}: {registry[name].__name__}{marker}")
    print(f"default array backend: {default}")

    cache_dir = args.cache_dir or default_kernel_cache_dir()
    print(f"kernel cache: {cache_dir}")
    compiler = cjit.find_compiler()
    if compiler is None:
        print("cjit compiler: none found (cc/clang/gcc) — the default is "
              "the NumPy kernels")
        if args.warm:
            print("cannot --warm without a C compiler")
            return 1
        return 0
    print(f"cjit compiler: {compiler.path} ({compiler.version})")
    print(f"cjit target: {cjit.build_target(compiler).describe()}")

    kernels = backend.build_backend("cjit", cache_dir=cache_dir)
    count = kernels.warm() if args.warm else 0
    gauges = {name: int(metric["value"]) for name, metric
              in backend_registry(kernels).snapshot().items()}
    if args.warm:
        print(f"warmed {count} kernels ({gauges['nn.cjit.compiled']} "
              f"compiled, {gauges['nn.cjit.cache.hits']} already cached)")
    print(f"cached kernels: {gauges['nn.cjit.cache.entries']}, "
          f"{gauges['nn.cjit.cache.bytes']:,} bytes (least recently used "
          f"evicted past {KERNEL_CACHE_MAX_BYTES:,})")
    if not args.warm:
        print("use --warm to pre-compile the standard kernel set")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
