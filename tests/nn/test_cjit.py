"""Tests for the compiled C-kernel backend (:mod:`repro.nn.cjit`).

The conformance battery (compiled kernels vs the NumPy kernels) lives in
``test_backend_dtypes.py`` next to the other backends; this file covers the
machinery itself — the renderer, compiler detection, the on-disk kernel
cache (hits skip the compiler, corrupted/stale objects recompile, poisoned
compiles surface a typed error), the no-compiler fallback, and the
``python -m repro.nn`` CLI.
"""

from __future__ import annotations

import ctypes
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import kernels as kernels_mod
from repro.artifacts.kernels import (
    KERNEL_CACHE_ENV,
    KERNEL_MANIFEST_FILENAME,
    KernelCache,
    default_kernel_cache_dir,
)
from repro.nn.__main__ import main
from repro.nn.backend import BACKEND_REGISTRY, NumpyBackend
from repro.ecc import LDPCCode
from repro.nn.cjit import (
    BuildTarget,
    CJitBackend,
    CompilerInfo,
    KernelCompileError,
    build_target,
    cjit_available,
    find_compiler,
    kernel_cache_key,
    platform_tag,
    render_kernel,
    standard_kernel_specs,
)
from repro.nn.cjit import backend as cjit_backend_mod
from repro.nn.cjit import compiler as compiler_mod
from repro.nn.cjit.compiler import CFLAGS, NATIVE_FLAG, compile_source
from repro.nn.cjit.render import (
    SUPPORTED_DTYPES,
    conv_spec,
    elementwise_spec,
    update_spec,
)

needs_compiler = pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH")

#: LDPC lanes per instruction set: the double-vector width (2 otherwise).
LANES = {"avx512f": 8, "avx2": 4, "avx": 4}


class TestRenderer:
    def test_symbol_encodes_specialization(self):
        spec = conv_spec("im2col", "float32", 4, 2, 1, 16, 16)
        assert spec.symbol == "im2col_f32_k4_s2_p1_h16_w16"
        assert conv_spec("col2im", "float64", 3, 1, 1, 5, 7).symbol \
            == "col2im_f64_k3_s1_p1_h5_w7"

    def test_source_is_deterministic_and_contains_symbol(self):
        spec = update_spec("adam_update", "float64")
        first = render_kernel(spec)
        assert render_kernel(spec) == first
        assert spec.symbol in first

    def test_window_constants_are_baked_in(self):
        """Window and plane shape are literals; the plane count is the
        only runtime extent."""
        for op in ("im2col", "col2im"):
            spec = conv_spec(op, "float64", 5, 3, 2, 9, 7)
            source = render_kernel(spec)
            signature = re.search(rf"int {spec.symbol}\(([^)]*)\)", source)
            arguments = [part.strip()
                         for part in signature.group(1).split(",")]
            assert [part for part in arguments if "*" not in part] \
                == ["i64 planes"]
            assert spec.argtypes[2:] == (ctypes.c_int64,)
            # 3x3 windows a plane, a (3*2 + 5)^2 = 121-element padded
            # plane, 9*7 = 63 elements and 5*5*3*3 = 225 columns a plane.
            for constant in ("121", "* 63", "* 225", "< 3;", "< 5;"):
                assert constant in source, (op, constant)

    def test_plane_smaller_than_the_window_has_no_spec(self):
        with pytest.raises(ValueError, match="empty output"):
            conv_spec("im2col", "float32", 4, 2, 1, 1, 1)

    def test_unknown_op_rejected(self):
        from repro.nn.cjit.render import KernelSpec
        with pytest.raises(ValueError, match="unknown kernel op"):
            render_kernel(KernelSpec(op="fft", dtype="float32"))

    def test_unsupported_dtype_rejected(self):
        from repro.nn.cjit.render import KernelSpec
        with pytest.raises(ValueError, match="dtype"):
            render_kernel(KernelSpec(op="im2col", dtype="float16"))

    def test_standard_set_covers_both_dtypes(self):
        specs = standard_kernel_specs()
        symbols = {spec.symbol for spec in specs}
        assert len(symbols) == len(specs)
        for dtype_suffix in ("f32", "f64"):
            assert any(f"im2col_{dtype_suffix}" in s for s in symbols)
            assert any(f"adam_update_{dtype_suffix}" in s for s in symbols)

    def test_cache_key_depends_on_every_component(self):
        base = kernel_cache_key("src", "cc-1", "linux-x86_64", "t1")
        assert kernel_cache_key("src2", "cc-1", "linux-x86_64", "t1") != base
        assert kernel_cache_key("src", "cc-2", "linux-x86_64", "t1") != base
        assert kernel_cache_key("src", "cc-1", "linux-arm64", "t1") != base
        assert kernel_cache_key("src", "cc-1", "linux-x86_64", "t2") != base

    def test_cache_key_changes_with_the_flags_and_the_target(self):
        """``-march=native`` builds for whatever CPU the host has, so the
        key covers the flags and what they resolve to: the instruction
        set and every predefined macro."""
        native = BuildTarget(flags=(*CFLAGS, NATIVE_FLAG), isa="avx512f",
                             macros_sha256="a" * 64)
        targets = (native, replace(native, flags=CFLAGS),
                   replace(native, isa="avx2"),
                   replace(native, macros_sha256="b" * 64))
        keys = {kernel_cache_key("src", "cc-1", "linux-x86_64", target.tag)
                for target in targets}
        assert len(keys) == len(targets)


class TestKernelCacheStore:
    """Manifest + verification semantics, no compiler required."""

    def _fake_object(self, cache, key, payload=b"\x7fELF fake"):
        cache.directory.mkdir(parents=True, exist_ok=True)
        path = cache.object_path(key)
        path.write_bytes(payload)
        return path

    def test_lookup_on_fresh_cache_misses(self, tmp_path):
        cache = KernelCache(tmp_path)
        assert cache.lookup("deadbeef", source_sha256="s") is None
        assert cache.stats()["misses"] == 1

    def test_store_then_lookup_hits(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = self._fake_object(cache, "k1")
        cache.store("k1", path, source_sha256="s", symbol="sym",
                    compiler="cc-12", platform="linux-x86_64")
        assert cache.lookup("k1", source_sha256="s") == path
        assert cache.stats() == {"entries": 1, "bytes": path.stat().st_size,
                                 "hits": 1, "misses": 0}

    def test_stale_source_hash_evicts(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = self._fake_object(cache, "k1")
        cache.store("k1", path, source_sha256="old", symbol="sym",
                    compiler="cc", platform="p")
        assert cache.lookup("k1", source_sha256="new") is None
        assert not path.exists()
        assert cache.entries() == {}

    def test_corrupted_object_evicts(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = self._fake_object(cache, "k1")
        cache.store("k1", path, source_sha256="s", symbol="sym",
                    compiler="cc", platform="p")
        path.write_bytes(b"flipped bytes")
        assert cache.lookup("k1", source_sha256="s") is None
        assert cache.entries() == {}

    def test_missing_object_evicts(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = self._fake_object(cache, "k1")
        cache.store("k1", path, source_sha256="s", symbol="sym",
                    compiler="cc", platform="p")
        path.unlink()
        assert cache.lookup("k1", source_sha256="s") is None

    def _store(self, cache, key, size, last_used):
        """Record a ``size``-byte fake object last used at ``last_used``."""
        path = self._fake_object(cache, key, b"x" * size)
        os.utime(path, (last_used, last_used))
        cache.store(key, path, source_sha256="s", symbol=key, compiler="cc",
                    platform="p")
        return path

    def test_store_past_the_cap_evicts_the_least_recently_used(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels_mod, "KERNEL_CACHE_MAX_BYTES", 250)
        cache = KernelCache(tmp_path)
        for age, key in enumerate(("k1", "k2")):
            self._store(cache, key, 100, 1000 + age)
        assert set(cache.entries()) == {"k1", "k2"}
        self._store(cache, "k3", 100, 1002)
        assert set(cache.entries()) == {"k2", "k3"}
        assert not cache.object_path("k1").exists()
        assert cache.stats()["bytes"] == 200

    def test_a_hit_refreshes_the_object(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels_mod, "KERNEL_CACHE_MAX_BYTES", 250)
        cache = KernelCache(tmp_path)
        for age, key in enumerate(("k1", "k2")):
            self._store(cache, key, 100, 1000 + age)
        assert cache.lookup("k1", source_sha256="s") is not None
        assert cache.object_path("k1").stat().st_mtime > 1001
        self._store(cache, "k3", 100, 1002)
        assert set(cache.entries()) == {"k1", "k3"}

    def test_eviction_keeps_the_new_object(self, tmp_path, monkeypatch):
        """An object larger than the cap stays: it is about to be loaded."""
        monkeypatch.setattr(kernels_mod, "KERNEL_CACHE_MAX_BYTES", 50)
        cache = KernelCache(tmp_path)
        self._store(cache, "k1", 100, 1000)
        self._store(cache, "k2", 100, 1001)
        assert set(cache.entries()) == {"k2"}
        assert cache.lookup("k2", source_sha256="s") is not None

    def test_damaged_manifest_is_an_empty_cache(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = self._fake_object(cache, "k1")
        cache.store("k1", path, source_sha256="s", symbol="sym",
                    compiler="cc", platform="p")
        (tmp_path / KERNEL_MANIFEST_FILENAME).write_text("{not json")
        assert cache.entries() == {}
        assert cache.lookup("k1", source_sha256="s") is None

    def test_foreign_format_version_is_an_empty_cache(self, tmp_path):
        cache = KernelCache(tmp_path)
        (tmp_path).mkdir(exist_ok=True)
        (tmp_path / KERNEL_MANIFEST_FILENAME).write_text(
            '{"format_version": 999, "entries": {"k1": {}}}')
        assert cache.entries() == {}

    def test_default_directory_is_per_user(self, monkeypatch, tmp_path):
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kc"))
        assert default_kernel_cache_dir() == tmp_path / "kc"
        monkeypatch.delenv(KERNEL_CACHE_ENV)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert default_kernel_cache_dir() \
            == tmp_path / "home" / ".cache" / "repro" / "kernels"
        assert (tmp_path / "home" / ".cache" / "repro" / "kernels").is_dir()

    def test_unusable_home_falls_back_to_private_temp_dir(self, monkeypatch,
                                                         tmp_path):
        monkeypatch.delenv(KERNEL_CACHE_ENV)
        (tmp_path / "home").write_text("a file, so ~/.cache cannot exist")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        directory = default_kernel_cache_dir()
        assert directory.parent == tmp_path / "tmp"
        assert directory.name.startswith("repro-kernels")
        assert default_kernel_cache_dir() == directory  # stable per user
        if hasattr(os, "getuid"):
            assert directory.stat().st_mode & 0o077 == 0

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX owners")
    def test_shared_temp_dir_others_can_write_is_not_trusted(self,
                                                            monkeypatch,
                                                            tmp_path):
        monkeypatch.delenv(KERNEL_CACHE_ENV)
        (tmp_path / "home").write_text("")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        planted = tmp_path / f"repro-kernels-{os.getuid()}"
        planted.mkdir()
        planted.chmod(0o777)
        directory = default_kernel_cache_dir()
        assert directory != planted
        assert directory.parent == tmp_path
        assert directory.stat().st_mode & 0o077 == 0


@needs_compiler
class TestCompileAndCache:
    def test_find_compiler_reports_version_tag(self):
        info = find_compiler()
        assert info is not None
        assert info.tag and " " not in info.tag
        assert platform_tag().startswith("linux") or platform_tag()

    def test_cache_hit_skips_the_compiler(self, tmp_path, monkeypatch):
        first = CJitBackend(cache_dir=tmp_path)
        x = np.linspace(-1, 1, 32, dtype=np.float32)
        first.leaky_relu(x, 0.2)
        assert first.compiled == 1

        def exploding_compile(*args, **kwargs):  # pragma: no cover
            raise AssertionError("cache hit must not invoke the compiler")

        monkeypatch.setattr(cjit_backend_mod, "compile_source",
                            exploding_compile)
        second = CJitBackend(cache_dir=tmp_path)
        got = second.leaky_relu(x, 0.2)
        np.testing.assert_array_equal(got, NumpyBackend().leaky_relu(x, 0.2))
        assert second.compiled == 0
        assert second.cache.hits == 1

    def test_corrupted_object_is_recompiled(self, tmp_path):
        first = CJitBackend(cache_dir=tmp_path)
        x = np.linspace(-1, 1, 16, dtype=np.float64)
        first.leaky_relu(x, 0.1)
        [key] = first.cache.entries()
        first.cache.object_path(key).write_bytes(b"not an object")
        second = CJitBackend(cache_dir=tmp_path)
        got = second.leaky_relu(x, 0.1)
        np.testing.assert_array_equal(got, NumpyBackend().leaky_relu(x, 0.1))
        assert second.compiled == 1  # recompiled, not loaded corrupt

    def test_stale_source_is_recompiled(self, tmp_path):
        backend = CJitBackend(cache_dir=tmp_path)
        x = np.ones(8, dtype=np.float32)
        backend.leaky_relu(x, 0.2)
        [key] = backend.cache.entries()
        entries = backend.cache.entries()
        entries[key]["source_sha256"] = "0" * 64
        backend.cache._write_entries(entries)
        second = CJitBackend(cache_dir=tmp_path)
        second.leaky_relu(x, 0.2)
        assert second.compiled == 1

    def test_poisoned_compile_raises_typed_error_with_stderr(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setattr(cjit_backend_mod, "render_kernel",
                            lambda spec: "this is not C;")
        backend = CJitBackend(cache_dir=tmp_path)
        with pytest.raises(KernelCompileError) as excinfo:
            backend.leaky_relu(np.ones(4, dtype=np.float32), 0.2)
        assert excinfo.value.stderr
        assert "error" in str(excinfo.value).lower()

    def test_col2im_rejects_columns_of_another_shape(self, cjit_backend):
        cols = np.zeros((1, 16, 3), dtype=np.float32)  # a 4x4 grid needs 4
        with pytest.raises(ValueError, match="do not match"):
            cjit_backend.col2im(cols, (1, 1, 4, 4), 4, 2, 1)

    def test_compile_source_attaches_stderr(self, tmp_path):
        with pytest.raises(KernelCompileError) as excinfo:
            compile_source("int broken(void) { return }",
                           tmp_path / "broken.so", find_compiler())
        assert excinfo.value.stderr
        assert excinfo.value.source.startswith("int broken")

    def test_warm_compiles_standard_set_once(self, tmp_path):
        backend = CJitBackend(cache_dir=tmp_path)
        count = backend.warm(dtypes=("float32",))
        assert count == len(standard_kernel_specs(("float32",)))
        assert backend.compiled == count
        again = CJitBackend(cache_dir=tmp_path)
        assert again.warm(dtypes=("float32",)) == count
        assert again.compiled == 0


@pytest.fixture
def no_native_compiler(tmp_path) -> CompilerInfo:
    """The host compiler behind a wrapper that rejects ``-march=native``,
    as a compiler without the flag does."""
    real = find_compiler()
    wrapper = tmp_path / "cc-without-native"
    wrapper.write_text(f"""#!/bin/sh
for arg in "$@"; do
    if [ "$arg" = "{NATIVE_FLAG}" ]; then
        echo "error: unsupported option '$arg'" >&2
        exit 1
    fi
done
exec "{real.path}" "$@"
""")
    wrapper.chmod(0o755)
    return CompilerInfo(path=str(wrapper),
                        version=f"{real.version} without {NATIVE_FLAG}")


@needs_compiler
class TestBuildTarget:
    def test_probe_runs_once_per_process(self, monkeypatch):
        probes = []
        probe = compiler_mod._predefined_macros

        def counting_probe(compiler, flags):
            probes.append(flags)
            return probe(compiler, flags)

        monkeypatch.setattr(compiler_mod, "_predefined_macros",
                            counting_probe)
        host = find_compiler()
        fresh = replace(host, version=host.version + " (probe test)")
        target = build_target(fresh)
        assert build_target(fresh) is target
        assert probes[0] == (*CFLAGS, NATIVE_FLAG)
        assert len(probes) == (1 if target.flags == probes[0] else 2)
        assert target.flags[:len(CFLAGS)] == CFLAGS
        assert len(target.macros_sha256) == 64

    def test_ldpc_lanes_follow_the_vector_width(self, cjit_backend):
        target = build_target(cjit_backend.compiler)
        assert cjit_backend.ldpc_lanes() == LANES.get(target.isa, 2)

    @pytest.mark.skipif(os.name != "posix", reason="a /bin/sh wrapper")
    def test_a_compiler_rejecting_march_native_builds_the_baseline(
            self, tmp_path, no_native_compiler):
        """The probe falls back to the baseline flags, and the kernels
        built with them still match the NumPy ones bit for bit."""
        target = build_target(no_native_compiler)
        assert target.flags == CFLAGS
        backend = CJitBackend(cache_dir=tmp_path / "kernels")
        backend.compiler = no_native_compiler
        assert backend.ldpc_lanes() == LANES.get(target.isa, 2)
        reference = NumpyBackend()
        code = LDPCCode.regular(96, rng=np.random.default_rng(0))
        indexes = (code._check_edges, code._check_variables,
                   code._variable_edges)
        rng = np.random.default_rng(1)
        for batch in range(1, 2 * backend.ldpc_lanes() + 2):
            codewords = code.encode_batch(rng.integers(0, 2,
                                                       size=(batch, code.k)))
            llrs = 2.0 * (1.0 - 2.0 * codewords
                          + rng.normal(0.0, 0.9, codewords.shape)) / 0.81
            for got, want in zip(backend.ldpc_min_sum(llrs, *indexes, 30, 0.8),
                                 reference.ldpc_min_sum(llrs, *indexes, 30,
                                                        0.8)):
                np.testing.assert_array_equal(got, want)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(backend.im2col(x, 4, 2, 1),
                                      reference.im2col(x, 4, 2, 1))
        np.testing.assert_array_equal(backend.leaky_relu(x, 0.2),
                                      reference.leaky_relu(x, 0.2))
        start, grad = rng.standard_normal((2, 193))
        updated = []
        for kernels in (backend, reference):
            param, m, v = start.copy(), np.zeros(193), np.zeros(193)
            kernels.adam_update(param, grad, m, v, 1e-3, 0.5, 0.999, 1e-8,
                                0.5, 0.001)
            updated.append((param, m, v))
        for got, want in zip(*updated):
            np.testing.assert_array_equal(got, want)
        assert backend.compiled == 4 and backend.fallbacks == 0


class TestFallback:
    def test_no_compiler_falls_back_to_numpy(self, tmp_path):
        backend = CJitBackend(cache_dir=tmp_path)
        backend.compiler = None  # simulate a host without cc/clang/gcc
        assert not backend.available()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        cols = backend.im2col(x, 3, 1, 1)
        np.testing.assert_array_equal(cols,
                                      NumpyBackend().im2col(x, 3, 1, 1))
        assert backend.fallbacks >= 1
        assert backend.compiled == 0

    def test_no_compiler_warm_raises(self, tmp_path):
        backend = CJitBackend(cache_dir=tmp_path)
        backend.compiler = None
        with pytest.raises(RuntimeError, match="no C compiler"):
            backend.warm()

    def test_unsupported_dtype_falls_back_per_op(self, cjit_backend):
        x = np.arange(12, dtype=np.int64).reshape(1, 3, 2, 2)
        before = cjit_backend.fallbacks
        cols = cjit_backend.im2col(x.astype(np.float16), 2, 1, 0)
        np.testing.assert_array_equal(
            cols, NumpyBackend().im2col(x.astype(np.float16), 2, 1, 0))
        assert cjit_backend.fallbacks == before + 1


class TestRegistryAndCLI:
    def test_cjit_is_registered(self):
        assert "cjit" in BACKEND_REGISTRY
        assert BACKEND_REGISTRY["cjit"] is CJitBackend

    def test_cli_lists_backends_and_compiler(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path))
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "reference" in out and "cjit" in out
        assert f"kernel cache: {tmp_path}" in out
        if cjit_available():
            assert "cjit compiler:" in out
            assert "default array backend: cjit" in out
            target = build_target(find_compiler())
            assert f"cjit target: {target.describe()}" in out
            assert "cached kernels: 0, 0 bytes" in out
        else:
            assert "none found" in out
            assert "default array backend: numpy" in out

    @needs_compiler
    def test_cli_warm_precompiles_then_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["--warm", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "warmed" in first
        assert main(["--warm", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "0 compiled" in second

    def test_cli_warm_without_compiler_fails(self, capsys, monkeypatch):
        import repro.nn.cjit as cjit_pkg
        monkeypatch.setattr(cjit_pkg, "find_compiler", lambda: None)
        assert main(["--warm"]) == 1
        assert "cannot --warm" in capsys.readouterr().out

    def test_module_runs_with_a_clean_stderr(self, tmp_path):
        """``python -m repro.nn`` exits 0 and lists the backends without a
        word on stderr: no runpy warning about a module imported twice."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src),
                   **{KERNEL_CACHE_ENV: str(tmp_path)})
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.nn"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "registered array backends:" in done.stdout
        for name in ("numpy", "reference", "cjit"):
            assert f"  {name}: " in done.stdout
