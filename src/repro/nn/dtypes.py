"""Floating-point precision policy for the NumPy deep-learning framework.

The engine supports two working precisions:

* ``float64`` — the historical default of the repository; raw ``Tensor``
  arithmetic (and therefore every numerical-gradient test) keeps running in
  double precision unless a caller opts out.
* ``float32`` — the training/inference precision.  The conditional
  generative models are built under :func:`default_dtype` with the dtype of
  their :class:`~repro.core.config.ModelConfig` (``"float32"`` unless
  overridden), which halves memory bandwidth and roughly doubles BLAS
  throughput on the conv-lowered matmuls.

The policy is deliberately simple:

* array data and gradients keep the dtype of the tensors they flow through
  (ops never silently upcast to float64);
* scalar *reductions* where round-off compounds — loss values — accumulate
  in float64 regardless of the array dtype.

The default is scoped, never set globally: :func:`default_dtype` changes it
for one ``with`` block on the calling thread and restores it on exit.  The
state is per thread, like :func:`repro.nn.use_backend` and
:func:`repro.nn.no_grad`, so threads that read one channel concurrently
(each building its own tensors) never see another thread's precision.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "resolve_dtype",
    "get_default_dtype",
    "default_dtype",
]

#: Accepted dtype names.  Only the two working precisions are valid:
#: integer or half/extended floats have no kernels in this engine.
_SUPPORTED: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}


def resolve_dtype(spec) -> np.dtype:
    """Normalise a dtype spec (string, ``np.dtype`` or scalar type).

    Raises ``ValueError`` for anything other than float32/float64.
    """
    if isinstance(spec, str):
        key = spec.lower()
        if key not in _SUPPORTED:
            raise ValueError(f"unsupported dtype {spec!r}; expected one of "
                             f"{sorted(_SUPPORTED)}")
        return _SUPPORTED[key]
    dtype = np.dtype(spec)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; the engine runs in "
                         "float32 or float64 only")
    return dtype


class _DtypeState(threading.local):
    def __init__(self):
        self.default = np.dtype(np.float64)


_STATE = _DtypeState()


def get_default_dtype() -> np.dtype:
    """The dtype new tensors, parameters and buffers are created with."""
    return _STATE.default


@contextlib.contextmanager
def default_dtype(spec):
    """Context manager scoping the default creation dtype.

    >>> with default_dtype("float32"):
    ...     model = build_model("cvae_gan", config)   # float32 parameters
    """
    previous = _STATE.default
    _STATE.default = resolve_dtype(spec)
    try:
        yield _STATE.default
    finally:
        _STATE.default = previous
