"""End-to-end ECC evaluation over a flash channel model.

These helpers close the loop the paper motivates: a channel model (simulator
or trained generative network) supplies realistic read voltages, and the ECC
evaluation answers the questions a controller architect asks of it — what
correction strength does a BCH code need at a given P/E count, and how much
does soft-decision LDPC decoding gain from the model's soft voltages?

Every helper takes the channel through the unified protocol
(:mod:`repro.channel`): pass a registered backend name or a
:class:`~repro.channel.ChannelModel`.

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
from repro.ecc.llr import LevelDensityTable, page_llrs
from repro.exec import MonteCarloPlan, RecordReducer, run_plan, stable_seed
from repro.flash.cell import LOWER_PAGE, levels_to_pages
from repro.flash.pages import program_pages
from repro.flash.params import FlashParameters
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

    @property
    def frames_failed(self) -> int:
        return int(round(self.frame_error_rate * self.codewords))


def _transmit_lower_page(channel: ChannelModel, messages: np.ndarray, code,
                         pe_cycles: float, rng: np.random.Generator,
                         params: FlashParameters | None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Program codewords into lower-page bits and read soft voltages back.

    Each codeword occupies one row of a stacked array whose middle/upper
    pages carry random (scrambled) data, so the codeword bits see realistic
    neighbour levels and ICI.  Returns ``(codewords, voltages)`` where both
    have shape ``(num_codewords, n)``.
    """
    codewords = code.encode_batch(messages)
    middle = rng.integers(0, 2, size=codewords.shape)
    upper = rng.integers(0, 2, size=codewords.shape)
    levels = program_pages(codewords, middle, upper)
    voltages = channel.read_voltages(levels, pe_cycles, rng=rng)
    return codewords, voltages


def _received_lower_page(voltages: np.ndarray,
                         params: FlashParameters | None) -> np.ndarray:
    thresholds = default_read_thresholds(params)
    hard_levels = hard_read(voltages, thresholds)
    return levels_to_pages(hard_levels)[..., LOWER_PAGE]


def _group_records(codewords: np.ndarray, decoded: list) -> np.ndarray:
    """Per-codeword ``(raw_errors, frame_failed, residual_errors)`` rows."""
    records = np.zeros((len(codewords), 3), dtype=np.int64)
    for index, result in enumerate(decoded):
        failed = (not result.success) or \
            not np.array_equal(result.codeword, codewords[index])
        if failed:
            records[index, 1] = 1
            records[index, 2] = int(np.count_nonzero(
                result.codeword != codewords[index]))
    return records


def _bch_group_task(unit, rng, *, code, channel, pe_cycles, params):
    """One codeword group of a hard-decision BCH campaign."""
    count = int(unit)
    messages = rng.integers(0, 2, size=(count, code.k))
    codewords, voltages = _transmit_lower_page(channel, messages, code,
                                               pe_cycles, rng, params)
    received = _received_lower_page(voltages, params)
    records = _group_records(codewords, code.decode_batch(received))
    records[:, 0] = np.count_nonzero(received != codewords, axis=1)
    return records


def _ldpc_group_task(unit, rng, *, code, channel, pe_cycles, params,
                     density_table, max_iterations):
    """One codeword group of a soft-decision LDPC campaign."""
    count = int(unit)
    messages = rng.integers(0, 2, size=(count, code.k))
    codewords, voltages = _transmit_lower_page(channel, messages, code,
                                               pe_cycles, rng, params)
    received = _received_lower_page(voltages, params)
    llrs = page_llrs(voltages, LOWER_PAGE, density_table)
    decoded = code.decode_min_sum_batch(llrs, max_iterations=max_iterations)
    records = _group_records(codewords, decoded)
    records[:, 0] = np.count_nonzero(received != codewords, axis=1)
    return records


def _codeword_groups(num_codewords: int, group_size: int) -> tuple[int, ...]:
    """Split a campaign into codeword-group units of at most ``group_size``.

    The grouping depends only on the campaign parameters — never on the
    executor or worker count — so it is part of the deterministic plan.
    """
    if group_size < 1:
        raise ValueError("group_size must be positive")
    full, rest = divmod(num_codewords, group_size)
    return (group_size,) * full + ((rest,) if rest else ())


def _campaign_seed(channel: ChannelModel, rng, seed) -> int:
    """The campaign's root seed (drawn from a generator when not given)."""
    if seed is not None:
        return int(seed)
    generator = rng if rng is not None else channel.rng
    return int(generator.integers(0, 2 ** 31))


def _seeded_density_table(channel: ChannelModel, pe_cycles: float, seed: int,
                          params: FlashParameters | None) -> LevelDensityTable:
    """Density table whose estimation blocks derive from the campaign seed.

    :meth:`ChannelModel.density_table` draws its estimation blocks from the
    backend's own generator, which is OS-entropy for channels built by
    registry name — that would make two same-seed campaigns disagree.
    Anchoring the table to the seed keeps the whole campaign reproducible;
    the table is still served from the channel's condition cache (keyed by
    condition *and* seed) on repeated queries.
    """
    from repro.ecc.llr import densities_from_samples

    table_params = params if params is not None else channel.params

    def compute():
        generator = np.random.default_rng(np.random.SeedSequence(
            stable_seed(seed, float(pe_cycles), "density")))
        program, voltages = channel.paired_blocks(4, pe_cycles, rng=generator)
        return densities_from_samples(program, voltages, num_bins=128,
                                      params=table_params)

    if params is not None and params != channel.params:
        # Caller-specified parameters disagree with the backend's: build the
        # table under the caller's voltage window (uncached, as before).
        return compute()
    return channel.cache.get_or_compute(
        ("density-seeded", float(pe_cycles), int(seed)), compute)


def _run_campaign(task, code, channel, pe_cycles: float, num_codewords: int,
                  rng, params, executor, workers, group_size, seed,
                  extra_context: dict) -> CodewordChannelResult:
    if num_codewords < 1:
        raise ValueError("num_codewords must be positive")
    # A ChannelRef stays a ref inside the plan context — shards pickled to
    # process pools or remote fleets then carry a checkpoint path, and each
    # worker cold-starts the backend from the on-disk zoo — while the
    # parent-side bookkeeping (seed draw) uses the resolved live backend
    # (memoized per thread, so this never double-builds).
    from repro.exec import ChannelRef

    live = resolve_channel(channel)
    context_channel = channel if isinstance(channel, ChannelRef) else live
    seed = _campaign_seed(live, rng, seed)
    plan = MonteCarloPlan(
        task=task,
        units=_codeword_groups(num_codewords, group_size),
        seed=stable_seed(seed, float(pe_cycles)),
        context=dict(code=code, channel=context_channel,
                     pe_cycles=float(pe_cycles),
                     params=params, **extra_context))
    records = run_plan(plan, reducer=RecordReducer(stack=True),
                       executor=executor, workers=workers)
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
                              params: FlashParameters | None = None,
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
    fixed seed.
    """
    return _run_campaign(_bch_group_task, code, channel, pe_cycles,
                         num_codewords, rng, params, executor, workers,
                         group_size, seed, extra_context={})


def evaluate_ldpc_over_channel(code: LDPCCode, channel, pe_cycles: float,
                               density_table: LevelDensityTable | None = None,
                               num_codewords: int = 20,
                               max_iterations: int = 30,
                               rng: np.random.Generator | None = None,
                               params: FlashParameters | None = None,
                               executor=None, workers: int | None = None,
                               group_size: int = 8,
                               seed: int | None = None
                               ) -> CodewordChannelResult:
    """Soft-decision (min-sum) LDPC performance over a channel model.

    The LLRs are computed from ``density_table`` — typically estimated from
    data regenerated by the generative channel model — which is exactly the
    soft-information workflow the paper's modelling approach enables.  When
    omitted, the table is estimated from blocks derived from the campaign
    seed (served from the backend's per-condition LRU cache on repeated
    queries), so a by-name channel run is reproducible end to end.
    ``executor`` / ``workers`` / ``seed`` behave as in
    :func:`evaluate_bch_over_channel`.
    """
    from repro.exec import ChannelRef

    live = resolve_channel(channel)
    seed = _campaign_seed(live, rng, seed)
    if density_table is None:
        density_table = _seeded_density_table(live, pe_cycles, seed,
                                              params)
    # The density table is computed here, in the parent, and every shard
    # gets it through the plan context.  Only a ChannelRef keeps its
    # original spelling (so the plan context ships a checkpoint path and
    # workers cold-start from the zoo); every other spelling passes the
    # backend resolved above, so the seed draw, the density table and the
    # serial task calls all hit one instance.
    campaign_channel = channel if isinstance(channel, ChannelRef) else live
    return _run_campaign(_ldpc_group_task, code, campaign_channel, pe_cycles,
                         num_codewords, rng, params, executor, workers,
                         group_size, seed,
                         extra_context=dict(density_table=density_table,
                                            max_iterations=max_iterations))


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
