"""End-to-end ECC evaluation over a flash channel model.

These helpers close the loop the paper motivates: a channel model (simulator
or trained generative network) supplies realistic read voltages, and the ECC
evaluation answers the questions a controller architect asks of it — what
correction strength does a BCH code need at a given P/E count, and how much
does soft-decision LDPC decoding gain from the model's soft voltages?

Every helper takes the channel through the unified protocol
(:mod:`repro.channel`): pass a registered backend name or a
:class:`~repro.channel.ChannelModel`.  The physics comes from the channel
too: raw errors are counted by a hard read at the channel's own read
thresholds (the midpoints of ``channel.params``' level means), and the
LDPC campaign's density table spans ``channel.params``' voltage window.

The campaigns run on the sharded Monte-Carlo engine (:mod:`repro.exec`):
codewords are evaluated in groups — each group programmed as one stacked
array so the codeword bits see realistic wordline/bitline neighbours — with
one :class:`~repro.exec.ShardSpec` per worker.  Randomness is anchored per
group, so ``executor="process", workers=4`` returns bit-identical results to
the serial path for the same seed.  Each group is encoded and decoded as
one batch (``encode_batch``, then :meth:`repro.ecc.BCHCode.decode_batch` or
:meth:`repro.ecc.LDPCCode.decode_min_sum_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import ChannelModel, resolve_channel
from repro.ecc.bch import BCHCode
from repro.ecc.ldpc import LDPCCode
from repro.ecc.llr import LevelDensityTable, densities_from_channel, page_llrs
from repro.exec import MonteCarloPlan, RecordReducer, run_plan, stable_seed
from repro.flash.cell import LOWER_PAGE, levels_to_pages
from repro.flash.pages import program_pages
from repro.flash.thresholds import default_read_thresholds, hard_read

__all__ = [
    "CodewordChannelResult",
    "evaluate_bch_over_channel",
    "evaluate_ldpc_over_channel",
    "required_bch_capability",
]


@dataclass
class CodewordChannelResult:
    """Frame/bit error statistics of one code over one channel condition."""

    pe_cycles: float
    codewords: int
    raw_bit_error_rate: float
    frame_error_rate: float
    post_correction_bit_error_rate: float
    #: Per-codeword ``(raw_errors, frame_failed, residual_errors)`` records,
    #: shape ``(codewords, 3)``; the unit-ordered output of the campaign plan
    #: (identical for any executor/worker count at a fixed seed).
    frame_records: np.ndarray | None = None


def _transmit_lower_page(unit, rng: np.random.Generator, code,
                         channel: ChannelModel, pe_cycles: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Program one group of random codewords into lower-page bits, read
    soft voltages back and hard-read them at the channel's own thresholds.

    Each codeword occupies one row of a stacked array whose middle/upper
    pages carry random (scrambled) data, so the codeword bits see realistic
    neighbour levels and ICI.  Returns ``(codewords, voltages, received)``,
    each of shape ``(unit, n)``.
    """
    messages = rng.integers(0, 2, size=(int(unit), code.k))
    codewords = code.encode_batch(messages)
    middle = rng.integers(0, 2, size=codewords.shape)
    upper = rng.integers(0, 2, size=codewords.shape)
    levels = program_pages(codewords, middle, upper)
    voltages = channel.read_voltages(levels, pe_cycles, rng=rng)
    hard_levels = hard_read(voltages, default_read_thresholds(channel.params))
    return codewords, voltages, levels_to_pages(hard_levels)[..., LOWER_PAGE]


def _group_records(codewords: np.ndarray, received: np.ndarray,
                   decoded: list) -> np.ndarray:
    """Per-codeword ``(raw_errors, frame_failed, residual_errors)`` rows."""
    records = np.zeros((len(codewords), 3), dtype=np.int64)
    records[:, 0] = np.count_nonzero(received != codewords, axis=1)
    for index, result in enumerate(decoded):
        failed = (not result.success) or \
            not np.array_equal(result.codeword, codewords[index])
        if failed:
            records[index, 1] = 1
            records[index, 2] = int(np.count_nonzero(
                result.codeword != codewords[index]))
    return records


def _bch_group_task(unit, rng, *, code, channel, pe_cycles):
    """One codeword group of a hard-decision BCH campaign."""
    codewords, _, received = _transmit_lower_page(unit, rng, code, channel,
                                                  pe_cycles)
    return _group_records(codewords, received, code.decode_batch(received))


def _ldpc_group_task(unit, rng, *, code, channel, pe_cycles,
                     density_table, max_iterations):
    """One codeword group of a soft-decision LDPC campaign."""
    codewords, voltages, received = _transmit_lower_page(
        unit, rng, code, channel, pe_cycles)
    llrs = page_llrs(voltages, LOWER_PAGE, density_table)
    decoded = code.decode_min_sum_batch(llrs, max_iterations=max_iterations)
    return _group_records(codewords, received, decoded)


def _codeword_groups(num_codewords: int, group_size: int) -> tuple[int, ...]:
    """Split a campaign into codeword-group units of at most ``group_size``.

    The grouping depends only on the campaign parameters — never on the
    executor or worker count — so it is part of the deterministic plan.
    """
    if num_codewords < 1:
        raise ValueError("num_codewords must be positive")
    if group_size < 1:
        raise ValueError("group_size must be positive")
    full, rest = divmod(num_codewords, group_size)
    return (group_size,) * full + ((rest,) if rest else ())


def _resolve_campaign(channel, rng, seed) -> tuple[ChannelModel, object, int]:
    """The live backend, the plan context's channel and the root seed (when
    not given, drawn from ``rng`` or the backend's generator).

    A :class:`~repro.exec.ChannelRef` stays a ref in the plan context, so
    pool and fleet workers cold-start the backend from its checkpoint; any
    other spelling is resolved once, so the seed draw, the density table
    and serial tasks share it.
    """
    from repro.exec import ChannelRef

    live = resolve_channel(channel)
    if seed is None:
        seed = (rng if rng is not None else live.rng).integers(0, 2 ** 31)
    return live, channel if isinstance(channel, ChannelRef) else live, \
        int(seed)


def _run_campaign(task, code, channel, pe_cycles: float,
                  units: tuple[int, ...], seed: int, executor, workers,
                  **task_options) -> CodewordChannelResult:
    plan = MonteCarloPlan(
        task=task,
        units=units,
        seed=stable_seed(seed, float(pe_cycles)),
        context=dict(code=code, channel=channel,
                     pe_cycles=float(pe_cycles), **task_options))
    records = run_plan(plan, reducer=RecordReducer(stack=True),
                       executor=executor, workers=workers)
    num_codewords = sum(units)
    total_bits = num_codewords * code.n
    return CodewordChannelResult(
        pe_cycles=float(pe_cycles), codewords=num_codewords,
        raw_bit_error_rate=int(records[:, 0].sum()) / total_bits,
        frame_error_rate=int(records[:, 1].sum()) / num_codewords,
        post_correction_bit_error_rate=int(records[:, 2].sum()) / total_bits,
        frame_records=records)


def evaluate_bch_over_channel(code: BCHCode, channel, pe_cycles: float,
                              num_codewords: int = 20,
                              rng: np.random.Generator | None = None,
                              executor=None, workers: int | None = None,
                              group_size: int = 8,
                              seed: int | None = None
                              ) -> CodewordChannelResult:
    """Hard-decision BCH performance over a channel model.

    ``channel`` is any registered backend name or channel model — the
    simulator, a trained generative network and the fitted baselines all
    qualify (see :func:`repro.channel.resolve_channel`) — or a
    :class:`repro.exec.ChannelRef`, in which case process/remote workers
    cold-start the backend from its on-disk checkpoint instead of
    unpickling a live model.  ``executor`` /
    ``workers`` select the execution backend
    (:func:`repro.exec.build_executor`); ``seed`` anchors the campaign
    randomness explicitly (when omitted it is drawn from ``rng`` or the
    channel's generator).  Results are bit-identical for any executor at a
    fixed seed.  Received words are hard reads at the channel's own read
    thresholds.
    """
    units = _codeword_groups(num_codewords, group_size)
    _, channel, seed = _resolve_campaign(channel, rng, seed)
    return _run_campaign(_bch_group_task, code, channel, pe_cycles, units,
                         seed, executor, workers)


def evaluate_ldpc_over_channel(code: LDPCCode, channel, pe_cycles: float,
                               density_table: LevelDensityTable | None = None,
                               num_codewords: int = 20,
                               max_iterations: int = 30,
                               rng: np.random.Generator | None = None,
                               executor=None, workers: int | None = None,
                               group_size: int = 8,
                               seed: int | None = None
                               ) -> CodewordChannelResult:
    """Soft-decision (min-sum) LDPC performance over a channel model.

    The LLRs are computed from ``density_table`` — typically estimated from
    data regenerated by the generative channel model — which is exactly the
    soft-information workflow the paper's modelling approach enables.  When
    omitted, :func:`repro.ecc.densities_from_channel` estimates it from
    blocks derived from the campaign seed, and the backend's condition
    cache serves it to later campaigns with the same P/E count and seed, so
    a by-name channel run is reproducible end to end.  The table is built
    here, in the parent, and every shard gets it through the plan context.
    ``executor`` / ``workers`` / ``seed`` behave as in
    :func:`evaluate_bch_over_channel`.
    """
    units = _codeword_groups(num_codewords, group_size)
    live, channel, seed = _resolve_campaign(channel, rng, seed)
    if density_table is None:
        # A channel built by name draws OS entropy, so blocks from its own
        # generator would make two same-seed campaigns disagree.
        generator = np.random.default_rng(np.random.SeedSequence(
            stable_seed(seed, float(pe_cycles), "density")))
        density_table = live.cache.get_or_compute(
            ("density-seeded", float(pe_cycles), seed),
            lambda: densities_from_channel(live, pe_cycles, rng=generator))
    return _run_campaign(_ldpc_group_task, code, channel, pe_cycles, units,
                         seed, executor, workers,
                         density_table=density_table,
                         max_iterations=max_iterations)


def required_bch_capability(raw_bit_error_rate: float, codeword_length: int,
                            target_frame_error_rate: float = 1e-3,
                            max_t: int = 64) -> int:
    """Smallest ``t`` meeting a frame-error-rate target for i.i.d. bit errors.

    The frame error rate of a ``t``-error-correcting code of length ``n``
    under independent bit errors with probability ``p`` is
    ``P(#errors > t)`` for a Binomial(n, p) count; the function returns the
    smallest ``t`` whose tail probability is below the target.  This is the
    standard first-order dimensioning rule a controller architect applies to
    the RBER the channel model predicts.
    """
    if not 0 <= raw_bit_error_rate < 1:
        raise ValueError("raw_bit_error_rate must lie in [0, 1)")
    if codeword_length < 1:
        raise ValueError("codeword_length must be positive")
    if not 0 < target_frame_error_rate < 1:
        raise ValueError("target_frame_error_rate must lie in (0, 1)")
    from scipy.stats import binom

    for t in range(max_t + 1):
        tail = binom.sf(t, codeword_length, raw_bit_error_rate)
        if tail <= target_frame_error_rate:
            return t
    raise ValueError("no t within max_t meets the target; "
                     "increase max_t or shorten the codeword")
