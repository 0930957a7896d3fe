"""Suite-wide fixtures."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

#: One throwaway kernel cache for the whole run, set before any array
#: backend resolves: the default backend compiles into it, and spawned
#: fleet and pool workers inherit it, so a test run writes no kernel into
#: the repository tree or the home directory.
_KERNEL_CACHE = tempfile.mkdtemp(prefix="repro-test-kernels-")
os.environ["REPRO_KERNEL_CACHE"] = _KERNEL_CACHE


def pytest_unconfigure(config):
    shutil.rmtree(_KERNEL_CACHE, ignore_errors=True)


@pytest.fixture(scope="session")
def cjit_backend():
    """One explicitly built compiled-kernel backend for the whole session.

    Session-scoped so every test shares the in-process kernel memo, and it
    uses the run's kernel cache, so each distinct kernel compiles at most
    once per test run.  On hosts without a C compiler the instance still
    constructs; tests that need compiled kernels skip via
    ``cjit_available()``.
    """
    from repro.nn.cjit import CJitBackend

    return CJitBackend()
