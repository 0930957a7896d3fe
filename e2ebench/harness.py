"""Measurement plumbing shared by the workloads: the speed-scaled clock,
operation tallies, percentiles, weight digests, the host record and process
memory."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

#: Duration of one calibration measurement (the median of three kernel
#: runs) on an otherwise idle core of the reference host, a 2-vCPU Xeon
#: virtual machine.  Speed-scaled times are in seconds at this speed.
REFERENCE_KERNEL_S = 1.5e-3
_KERNEL_LOOP = 20000
_KERNEL_EXPS = 48
_KERNEL_VECTOR = np.linspace(-4.0, 4.0, 16384, dtype=np.float32)


def calibration_kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds.

    Interpreter arithmetic plus numpy elementwise ``exp`` on a
    cache-resident vector, like the interpreter- and cache-bound work of
    the workloads: nothing the library can speed up or slow down (no BLAS,
    no ``repro`` code), so its duration moves only with the host's speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(_KERNEL_LOOP):
        total += i * i
    for _ in range(_KERNEL_EXPS):
        np.exp(_KERNEL_VECTOR)
    return time.perf_counter() - start


class SpeedClock:
    """Wall time scaled to the reference host's speed.

    On a shared host the throughput of a core drifts by tens of percent
    within seconds, as neighbours load it; a raw timing mostly measures
    that drift.  :meth:`tick` times the calibration kernel between pieces
    of work, and :meth:`scaled` charges each instant of an interval at the
    speed interpolated between the ticks around it::

        scaled = integral of REFERENCE_KERNEL_S / kernel_s(t) dt

    so a change to the program moves a scaled time as it moves the raw
    one, while a slower host moves the kernel with the work and cancels.
    Intervals are read on :meth:`now`, the work clock, which stops while a
    tick runs, so calibration never counts as work.  An inert clock
    (``calibrate=False``, the traced run's) never ticks and scales nothing.
    """

    #: Work seconds between unforced ticks: the host's speed moves within
    #: a second, and a tick costs about 5 ms.
    min_interval = 0.1

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.paused = 0.0
        #: Work-clock time of each tick, and the reference-to-measured
        #: kernel duration ratio it found (1 / the host's slowdown).
        self.times: list[float] = []
        self.factors: list[float] = []

    def now(self) -> float:
        """Work-clock seconds (``perf_counter`` minus calibration time)."""
        return time.perf_counter() - self.paused

    def tick(self, force: bool = False) -> None:
        """Measure the host's speed, unless the last tick was less than
        ``min_interval`` work seconds ago and ``force`` is false."""
        if not self.calibrate or (not force and self.times and
                                  self.now() - self.times[-1]
                                  < self.min_interval):
            return
        start = time.perf_counter()
        kernel = sorted(calibration_kernel() for _ in range(3))[1]
        self.times.append(start - self.paused)
        self.factors.append(REFERENCE_KERNEL_S / kernel)
        self.paused += time.perf_counter() - start

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work-clock interval
        ``[start, end]`` (its raw length on an inert clock)."""
        if end <= start:
            return 0.0
        if not self.times:
            return end - start
        low = bisect.bisect_right(self.times, start)
        high = bisect.bisect_left(self.times, end)
        points = np.array([start, *self.times[low:high], end])
        speeds = np.interp(points, self.times, self.factors)
        return float(np.sum(0.5 * (speeds[1:] + speeds[:-1])
                            * np.diff(points)))


#: Environment knobs that change what is measured.  The benchmark never sets
#: them; it records whatever the caller's environment holds.
RECORDED_ENV_PREFIXES = ("REPRO_",)
RECORDED_ENV_NAMES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Ops:
    """Counts operations attempted and failed.

    An operation is a workload stage or a correctness check.  A stage that
    raises and a check that does not hold each count as one failed
    operation; the failure is printed to stderr with its traceback.  The
    run's ``clock`` ticks as each stage starts and ends.
    """

    def __init__(self, clock: SpeedClock) -> None:
        self.attempted = 0
        self.failed = 0
        self.clock = clock

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    @contextmanager
    def stage(self, name: str):
        """Run one stage; an exception is counted and re-raised."""
        self.attempted += 1
        self.clock.tick(force=True)
        try:
            yield
        except Exception:
            self._fail(f"stage {name} raised:\n{traceback.format_exc()}")
            raise
        self.clock.tick(force=True)

    def check(self, name: str, condition: bool, detail: str = "") -> None:
        """Record one correctness check."""
        self.attempted += 1
        if not condition:
            self._fail(f"check {name} does not hold {detail}".rstrip())


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def digest_arrays(arrays) -> str:
    """SHA-256 over the bytes of ``arrays`` (order-sensitive)."""
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str((array.dtype.str, array.shape)).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def model_digest(model) -> str:
    """Digest of a module's trained weights and buffers."""
    state = model.state_dict()
    return digest_arrays(state[key] for key in sorted(state))


def _live_children() -> list[int]:
    """Pids of this process's running children (Linux ``/proc``)."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we looked
            continue
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def _high_water_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Largest resident set so far among this process, its running
    children (the fleet workers) and its reaped children, in MiB."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    peaks += [_high_water_kib(pid) for pid in _live_children()]
    return max(peaks) / 1024.0  # Linux reports KiB


def blas_info() -> dict:
    """The BLAS numpy was built against, as numpy reports it."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as error:  # numpy's config layout is version-specific
        return {"name": "unknown", "error": repr(error)}


def host_record() -> dict:
    """Everything that makes figures from two runs comparable or not.

    Series recorded under different hosts or configurations must never be
    compared: a change in core count, BLAS threading, array backend, lazy
    default or dtype moves every timing.
    """
    from repro.core import ModelConfig
    from repro.nn.backend import get_backend
    from repro.nn.lazy import lazy_default

    env = {name: value for name, value in sorted(os.environ.items())
           if name.startswith(RECORDED_ENV_PREFIXES)
           or name in RECORDED_ENV_NAMES}
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS")},
        "c_compiler": next((found for found in
                            (shutil.which(name)
                             for name in ("cc", "gcc", "clang"))
                            if found), None),
        "array_backend": get_backend().name,
        "lazy_default": bool(lazy_default()),
        "dtype": ModelConfig().dtype,
        "env": env,
    }
