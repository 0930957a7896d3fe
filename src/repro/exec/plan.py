"""Monte-Carlo plans and deterministic shard specifications.

Every quantitative result in this repository is a Monte-Carlo sweep: draw
random blocks (or codewords, or latent samples), push them through a channel
backend, and aggregate statistics.  A :class:`MonteCarloPlan` captures such a
sweep as data — a picklable *task* applied to a sequence of *units*, a seed,
and a shared *context* — so the same plan can run serially or across worker
processes with **bit-identical** results.

Determinism is anchored per *unit*, not per shard: unit ``i`` always draws
from ``np.random.SeedSequence(seed, spawn_key=(i,))`` no matter which shard
(or worker process) executes it, and reducers consume the per-unit results in
unit order.  Changing the executor or the worker count therefore never
changes the numbers — only the wall-clock time.
"""

from __future__ import annotations

import os
import pickle
import threading
import uuid
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = ["MonteCarloPlan", "ShardSpec", "ShardResult", "ChannelRef",
           "stable_seed"]


def stable_seed(*components: Any) -> tuple[int, ...]:
    """Deterministic :class:`numpy.random.SeedSequence` entropy from values.

    Non-negative integers pass through unchanged; everything else is hashed
    with CRC-32 of its ``repr``, which — unlike Python's salted ``hash`` — is
    stable across interpreter runs and worker processes.  Use this to derive
    a plan seed from a condition tuple such as ``(seed, pe_cycles, metric)``.
    """
    entropy = []
    for component in components:
        if isinstance(component, (int, np.integer)) and component >= 0:
            entropy.append(int(component))
        else:
            entropy.append(zlib.crc32(repr(component).encode()))
    return tuple(entropy)


#: Channels cold-started from :class:`ChannelRef`\ s, keyed by
#: ``(ref key, thread id)``.  Every shard a worker process runs executes on
#: one thread (a pool worker's, or a remote worker's shard thread), so a
#: checkpoint loads once per worker instead of once per shard; the thread
#: key keeps concurrent callers in one process from sharing one stateful
#: channel.  A capped LRU: when a long-lived parent cycles many checkpoints,
#: the least recently used resolutions are dropped (the next use simply
#: reloads) instead of pinning every model ever resolved for the life of
#: the process.  Accesses refresh recency, so an entry in active use is not
#: evicted by a burst of other resolutions.
_RESOLVED_CHANNELS: "OrderedDict[tuple, Any]" = OrderedDict()
_RESOLVE_LOCK = threading.Lock()
_RESOLVE_CACHE_MAX = 64


def _freeze_option(value: Any) -> str:
    """A stable identity string for one :class:`ChannelRef` kwarg.

    ``repr`` alone would truncate large arrays (two refs differing only in
    the summarized middle would collide and serve the wrong memoized
    channel), so arrays are identified by shape/dtype plus a content
    checksum.
    """
    if isinstance(value, np.ndarray):
        return (f"ndarray(shape={value.shape}, dtype={value.dtype}, "
                f"crc32={zlib.crc32(np.ascontiguousarray(value).tobytes())})")
    return repr(value)


class ChannelRef:
    """A cheaply-picklable checkpoint reference standing in for a channel.

    Put one in a plan's ``context`` instead of a live backend and every
    shard — serial, process pool or remote fleet — resolves it to a
    channel via ``build_channel(name, checkpoint=path)`` at run time
    (:mod:`repro.artifacts`).  The wire then carries a registry name and a
    path instead of megabytes of pickled model state, and workers cold-start
    from the on-disk zoo, raising the zoo's typed errors
    (:class:`repro.artifacts.CheckpointError` family) when the checkpoint is
    corrupt rather than computing garbage tallies.

    Resolution is memoized per ``(reference, thread)``: a pool or fleet
    worker running many shards loads the checkpoint once, while concurrent
    threads never share one stateful backend.  The memo is a
    small bounded cache — and it means a checkpoint rewritten *at the same
    path mid-process* may be served stale; write new checkpoints to new
    directories (the zoo convention) to re-resolve.
    """

    def __init__(self, name: str, checkpoint: str | os.PathLike, **kwargs):
        self.name = str(name)
        self.checkpoint = os.fspath(checkpoint)
        self.kwargs = kwargs
        self._key: tuple | None = None

    @classmethod
    def from_checkpoint(cls, checkpoint: str | os.PathLike,
                        **kwargs) -> "ChannelRef":
        """Reference a checkpoint by path alone (registry name from its
        manifest)."""
        from repro.artifacts.registry_io import checkpoint_registry_name

        return cls(checkpoint_registry_name(checkpoint), checkpoint, **kwargs)

    def key(self) -> tuple:
        """Identity of the referenced build (name, path, frozen kwargs).

        Computed once — freezing checksums array-valued kwargs, and the key
        is consulted on every resolve.
        """
        if self._key is None:
            options = tuple(sorted((name, _freeze_option(value))
                                   for name, value in self.kwargs.items()))
            self._key = (self.name, self.checkpoint, options)
        return self._key

    def resolve(self):
        """The live backend, built from the checkpoint on this thread's
        first use."""
        key = (self.key(), threading.get_ident())
        with _RESOLVE_LOCK:
            channel = _RESOLVED_CHANNELS.get(key)
            if channel is not None:
                _RESOLVED_CHANNELS.move_to_end(key)
                return channel
        from repro.channel.registry import build_channel

        channel = build_channel(self.name, checkpoint=self.checkpoint,
                                **self.kwargs)
        with _RESOLVE_LOCK:
            channel = _RESOLVED_CHANNELS.setdefault(key, channel)
            _RESOLVED_CHANNELS.move_to_end(key)
            while len(_RESOLVED_CHANNELS) > _RESOLVE_CACHE_MAX:
                _RESOLVED_CHANNELS.popitem(last=False)
        return channel

    def __repr__(self) -> str:
        options = "".join(f", {name}={value!r}"
                          for name, value in self.kwargs.items())
        return (f"ChannelRef({self.name!r}, "
                f"checkpoint={self.checkpoint!r}{options})")


#: The plan context this process last received, as ``(token, context)``.
#: Every chunk cut from one run carries the context pickled once under one
#: token; a worker that already holds that token reuses its copy instead of
#: unpickling the bytes again.  Only the latest run's context is kept.
_received_context: tuple[str, Mapping[str, Any]] | None = None


def _receive_context(token: str, payload: bytes) -> Mapping[str, Any]:
    """Unpickle a shipped context, or return this process's copy of it."""
    global _received_context
    received = _received_context
    if received is None or received[0] != token:
        received = (token, pickle.loads(payload))
        _received_context = received
    return received[1]


class _ContextShipment:
    """One plan context, pickled once for every chunk of one cut.

    A pool or fleet pickles each chunk it dispatches; without this, a live
    model in the context would be pickled into every chunk and unpickled
    again by every one.  The shipment pickles the context on first use (a
    serial run never does) and stands in for it in each chunk's pickle, so
    a worker unpickles the context once per run and keeps that copy for
    the run's later chunks.
    """

    def __init__(self, context: Mapping[str, Any]):
        self.context = context
        self._lock = threading.Lock()
        self._wire: tuple[str, bytes] | None = None

    def __reduce__(self):
        with self._lock:
            if self._wire is None:
                self._wire = (uuid.uuid4().hex,
                              pickle.dumps(self.context,
                                           protocol=pickle.HIGHEST_PROTOCOL))
        return _receive_context, self._wire


@dataclass
class ShardResult:
    """Per-unit results (in unit order) of one shard, and nothing of its
    context: cache entries a worker computed stay in the worker."""

    index: int
    start: int
    results: list
    #: Observability envelope (worker-side spans + metrics snapshots) set by
    #: :meth:`ShardSpec.run` when the spec carries a trace context and runs
    #: outside the tracing process; merged into the parent by the engine.
    #: ``None`` on untraced or same-process runs.
    obs: dict[str, Any] | None = None


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous slice of a plan's units, runnable in any process.

    The spec is self-contained and picklable: it carries the task, the shared
    context, the plan seed and the global index of its first unit, so a
    worker process reconstructs every unit's generator exactly as the serial
    path would.

    The specs of one cut share their context: each pickles it as the bytes
    the cut pickled once, and a worker process unpickles those on its first
    spec of the cut and hands the same copy to the rest.  Context state such
    as condition caches therefore carries over between a worker's chunks of
    one run, as it does between the units of a serial run; it never travels
    back to the parent.
    """

    index: int
    start: int
    units: tuple
    task: Callable[..., Any]
    seed: tuple[int, ...]
    context: Mapping[str, Any]
    #: Trace context (:class:`repro.obs.context.TraceContext`) stamped by the
    #: engine when tracing is enabled; ``None`` otherwise.  Tiny and
    #: picklable, so it rides the remote transport with the spec.
    trace: Any = None
    #: The context pickled once for every chunk of the same cut (set by
    #: :meth:`MonteCarloPlan.chunks` / :meth:`MonteCarloPlan.shards`).
    shipment: Any = field(default=None, repr=False, compare=False)

    def __reduce__(self):
        # A spec whose context was replaced after the cut pickles it plainly.
        context = self.context
        if self.shipment is not None and self.shipment.context is context:
            context = self.shipment
        return (ShardSpec, (self.index, self.start, self.units, self.task,
                            self.seed, context, self.trace))

    def unit_rng(self, offset: int) -> np.random.Generator:
        """The generator of the unit at ``offset`` within this shard."""
        sequence = np.random.SeedSequence(
            self.seed, spawn_key=(self.start + offset,))
        return np.random.default_rng(sequence)

    def resolved_context(self) -> Mapping[str, Any]:
        """The context with every :class:`ChannelRef` replaced by its live
        backend (cold-started from the on-disk zoo on first use)."""
        if not any(isinstance(value, ChannelRef)
                   for value in self.context.values()):
            return self.context
        return {key: value.resolve() if isinstance(value, ChannelRef)
                else value
                for key, value in self.context.items()}

    def run(self) -> ShardResult:
        """Execute the units of this shard in order.

        When the spec carries a trace context the run is wrapped in an
        ``exec.shard`` span; in a foreign process the span/metric records
        come back in ``ShardResult.obs`` (see :mod:`repro.obs.context`).
        """
        if self.trace is None:
            return self._run()
        from repro.obs.context import observe_shard

        with observe_shard(self) as obs_box:
            result = self._run()
        if obs_box.envelope is not None:
            result.obs = obs_box.envelope
        return result

    def _run(self) -> ShardResult:
        context = self.resolved_context()
        results = [self.task(unit, self.unit_rng(offset), **context)
                   for offset, unit in enumerate(self.units)]
        return ShardResult(index=self.index, start=self.start,
                           results=results)


@dataclass(frozen=True)
class MonteCarloPlan:
    """A Monte-Carlo sweep described as data.

    Parameters
    ----------
    task:
        A picklable callable ``task(unit, rng, **context) -> result``.  It
        must draw all randomness from the passed generator — that is what
        makes sharded execution bit-identical to serial.
    units:
        One entry per Monte-Carlo unit (block index, codeword group,
        ``(pe, block)`` pair, ...).  Units are independent by construction.
    seed:
        :class:`numpy.random.SeedSequence` entropy (an int or a tuple of
        ints, e.g. from :func:`stable_seed`).
    context:
        Keyword arguments shared by every task call (channel backends, code
        objects, parameters).  A pool or fleet pickles it once per run;
        each chunk carries those bytes, and each worker unpickles them once
        and keeps its copy for the run.  A :class:`ChannelRef` value ships
        as a checkpoint path instead and is cold-started from the on-disk
        model zoo on the executing worker — the cheap way to move channels
        to process pools and remote fleets.
    """

    task: Callable[..., Any]
    units: tuple
    seed: int | tuple[int, ...] = 0
    context: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not callable(self.task):
            raise TypeError("task must be callable")
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValueError("a plan needs at least one unit")

    @property
    def num_units(self) -> int:
        return len(self.units)

    def unit_rng(self, index: int) -> np.random.Generator:
        """The generator unit ``index`` receives under any sharding."""
        if not 0 <= index < self.num_units:
            raise IndexError(f"unit index {index} out of range")
        sequence = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return np.random.default_rng(sequence)

    def shards(self, num_shards: int = 1) -> list[ShardSpec]:
        """Split the units into at most ``num_shards`` contiguous shards.

        The split is deterministic and balanced (shard sizes differ by at
        most one unit); because randomness is anchored per unit, the shard
        count is a pure throughput knob.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        num_shards = min(num_shards, self.num_units)
        return self._cut(np.linspace(0, self.num_units,
                                     num_shards + 1).astype(int))

    def chunks(self, workers: int) -> list[ShardSpec]:
        """Guided self-scheduling chunks for ``workers`` pulling in order.

        Each chunk takes ``ceil(remaining units / (2 * workers))`` of the
        units left after the chunks before it, so sizes never increase and
        the chunks cover the units contiguously.  This is guided
        self-scheduling (Polychronopoulos & Kuck, *IEEE TC* 1987; OpenMP
        ``schedule(guided)``) with the half-share chunk of factoring
        (Hummel, Schonberg & Flynn, *CACM* 1992): a plain guided first chunk
        is a whole worker's share, so a worker that pulls it and runs slower
        than the rest sets the finish time; half shares leave later chunks
        for the faster workers.  Large early chunks keep dispatches few; the
        small late ones let workers that pull the next chunk as they go idle
        even out their finish times.  One worker gets one chunk.
        """
        if workers < 1:
            raise ValueError("workers must be positive")
        if workers == 1:
            return self._cut([0, self.num_units])
        bounds = [0]
        while bounds[-1] < self.num_units:
            remaining = self.num_units - bounds[-1]
            bounds.append(bounds[-1] + -(-remaining // (2 * workers)))
        return self._cut(bounds)

    def _cut(self, bounds: Sequence[int]) -> list[ShardSpec]:
        """One spec per ``[bounds[i], bounds[i + 1])`` slice of the units."""
        shipment = _ContextShipment(self.context)
        return [ShardSpec(index=index, start=int(lo),
                          units=self.units[lo:hi], task=self.task,
                          seed=self.seed, context=self.context,
                          shipment=shipment)
                for index, (lo, hi) in enumerate(zip(bounds[:-1],
                                                     bounds[1:]))]
