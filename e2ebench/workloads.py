"""The benchmark's workloads.

Each workload builds its inputs from the run seed alone and runs the
library through its public API, with the shipped defaults: numpy array
backend, lazy graph on, float32 models, no environment knobs set.

``campaign_quick``
    The quick-scale reproduction campaign in one serial process: dataset,
    cVAE-GAN training, fidelity against the simulator, Figs. 2/4/5/6, then
    BCH and LDPC frame error rates over the simulator and the generative
    channel.
``fer_fleet``
    The ECC campaign of ``campaign_quick`` (same codes, P/E points and
    codeword groups, more codewords) on a 2-worker spawned-localhost
    ``RemoteExecutor``, one sweep over the P/E points per unit; the
    generative channel is
    trained and saved to the model zoo during set-up and shipped to the
    workers as a ``ChannelRef``.  Its training and sampling figures come
    from that set-up.

A workload has ``setup(seed, ops, work_dir)``, which returns a fingerprint
that same-seed set-ups must reproduce, ``unit(index, ops)``, one timed piece
of work returning a :class:`Measure`, ``verify(measure, ops)``, the untimed
checks of a unit's outputs, and ``close()``.  Timed pieces are read on
``ops.clock`` and tick it between pieces of work (see
:class:`e2ebench.harness.SpeedClock`).
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.channel import save_channel
from repro.core import Trainer
from repro.ecc import (BCHCode, LDPCCode, evaluate_bch_over_channel,
                       evaluate_ldpc_over_channel)
from repro.eval import distribution_distance
from repro.eval.ici_analysis import ici_error_profile
from repro.exec import ChannelRef, RemoteExecutor, stable_seed
from repro.experiments import (PAPER_PE_CYCLES, ExperimentSetup, run_fig2,
                               run_fig4, run_fig5, run_fig6)
from repro.flash import NUM_LEVELS
from repro.flash.errors import level_error_rate

from e2ebench.harness import Ops, SpeedClock, model_digest

#: P/E read points of every stage (the paper's).
PE_POINTS = PAPER_PE_CYCLES
#: P/E point of the Fig. 6 ICI-pattern comparison.
ICI_PE = 7000
#: The paper's latent samples per program-level array.
SAMPLES_PER_ARRAY = 10
#: Simulator cells read per P/E point for the fidelity reference: enough
#: that the simulator's level error rate at 4k P/E (~0.5%) rests on ~2600
#: errors, so the LER ratio is not dominated by reference noise.
REFERENCE_CELLS = 524288

#: Codes and grouping shared by every ECC stage, so ``frames_per_s`` of
#: ``campaign_quick`` (serial) and ``fer_fleet`` (2 workers) compare.
BCH_PARAMS = {"m": 6, "t": 4}
LDPC_PARAMS = {"n": 252, "column_weight": 3, "row_weight": 6}
LDPC_CODE_SEED = 1
GROUP_SIZE = 8


@dataclass
class Codes:
    bch: BCHCode
    ldpc: LDPCCode


def derive_seed(*components) -> int:
    """A campaign seed mixed from the run seed and labels."""
    state = np.random.SeedSequence(stable_seed(*components)).generate_state(1)
    return int(state[0] % 2 ** 31)


def build_codes() -> Codes:
    return Codes(BCHCode(**BCH_PARAMS),
                 LDPCCode.regular(**LDPC_PARAMS,
                                  rng=np.random.default_rng(LDPC_CODE_SEED)))


@dataclass
class Measure:
    """What one unit (or set-up) measured; units add up field by field.

    Timings are ``(start, end)`` intervals on the run's work clock, scaled
    to reference seconds once the run is over, when the calibration ticks
    on both sides of every interval are known.
    """

    train: list = field(default_factory=list)
    train_arrays: int = 0
    steps: list = field(default_factory=list)
    sample: list = field(default_factory=list)
    sample_cells: int = 0
    ecc: list = field(default_factory=list)
    frames: int = 0
    #: ``voltage_tvd``, ``ler_fold``, ``ici_tvd`` of the unit's channel.
    quality: dict | None = None
    #: Values same-seed repetitions must reproduce exactly.
    fingerprint: tuple = ()
    #: ``(channel label, code name, P/E, campaign seed, result)`` per
    #: ECC campaign, for the untimed checks.
    ecc_results: list = field(default_factory=list)

    def add(self, other: "Measure") -> None:
        self.train += other.train
        self.train_arrays += other.train_arrays
        self.steps += other.steps
        self.sample += other.sample
        self.sample_cells += other.sample_cells
        self.ecc += other.ecc
        self.frames += other.frames


@contextmanager
def step_timer(intervals: list, clock: SpeedClock):
    """Record the interval of every ``Trainer.train_step`` call made inside
    the block, ticking ``clock`` between steps."""
    original = vars(Trainer)["train_step"]

    def timed(self, *args, **kwargs):
        clock.tick()
        start = clock.now()
        try:
            return original(self, *args, **kwargs)
        finally:
            intervals.append((start, clock.now()))

    Trainer.train_step = timed
    try:
        yield intervals
    finally:
        Trainer.train_step = original


# --------------------------------------------------------------------------
# Shared stages
# --------------------------------------------------------------------------

def _in_window(voltages: np.ndarray, params) -> bool:
    return bool(np.all(np.isfinite(voltages))
                and voltages.min() >= params.voltage_min
                and voltages.max() <= params.voltage_max)


def ici_tvd(measured: dict, modeled: dict) -> float:
    """Total variation distance between two ICI error-pattern profiles,
    averaged over the wordline and bitline directions."""
    distances = []
    for direction in measured:
        p, q = measured[direction], modeled[direction]
        patterns = {key for key in (*p, *q) if not key.startswith("__")}
        distances.append(0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0))
                                   for key in patterns))
    return float(np.mean(distances))


@dataclass
class Fidelity:
    quality: dict
    level_error_rates: dict
    sample: list
    sample_cells: int
    in_window: bool


def fidelity(generative, simulator, programs: dict, rng,
             clock: SpeedClock) -> Fidelity:
    """The generative channel against the simulator on the same programs.

    At each P/E point the generative channel reads every program array
    :data:`SAMPLES_PER_ARRAY` times in one batched ``read_repeated`` call
    (the timed sampling, an interval on ``clock``) and the simulator reads
    fresh random arrays of
    the same size, :data:`REFERENCE_CELLS` cells in all, as the reference.
    ``voltage_tvd`` is the per-level total variation distance averaged over
    levels and P/E points, ``ler_fold`` the worst ratio between the two
    level error rates, and ``ici_tvd`` the distance between the ICI
    error-pattern profiles at :data:`ICI_PE`.
    """
    params = simulator.params
    sample, cells = [], 0
    distances, folds, rates = [], [], {}
    in_window = True
    ici = None
    for pe, program in sorted(programs.items()):
        clock.tick(force=True)
        start = clock.now()
        generated = generative.read_repeated(program, pe, SAMPLES_PER_ARRAY,
                                             rng=rng)
        sample.append((start, clock.now()))
        clock.tick(force=True)
        cells += generated.size
        generated_program = np.tile(program, (SAMPLES_PER_ARRAY, 1, 1))
        generated = generated.reshape(generated_program.shape)
        reference_program = rng.integers(
            0, NUM_LEVELS, size=(REFERENCE_CELLS // program[0].size,
                                 *program.shape[1:]))
        reference = simulator.read_voltages(reference_program, pe, rng=rng)
        in_window &= (_in_window(generated, params)
                      and _in_window(reference, params))
        for level in range(NUM_LEVELS):
            distances.append(distribution_distance(
                reference[reference_program == level],
                generated[generated_program == level]))
        simulated = level_error_rate(reference_program, reference,
                                     params=params)
        modeled = level_error_rate(generated_program, generated,
                                   params=params)
        rates[pe] = (simulated, modeled)
        folds.append(max(modeled / simulated, simulated / modeled)
                     if simulated > 0 and modeled > 0 else float("inf"))
        if pe == ICI_PE:
            ici = ici_tvd(ici_error_profile(reference_program, reference,
                                            params=params),
                          ici_error_profile(generated_program, generated,
                                            params=params))
    quality = {"voltage_tvd": float(np.mean(distances)),
               "ler_fold": float(max(folds)), "ici_tvd": ici}
    return Fidelity(quality, rates, sample, cells, in_window)


def ecc_sweep(codes: Codes, channels: dict, codewords: dict, seed: int,
              clock: SpeedClock, pe_points=PE_POINTS,
              executor="serial") -> Measure:
    """BCH then LDPC over every channel at every P/E point (timed).

    ``clock`` ticks before every campaign, when a fleet's workers are idle.
    """
    measure = Measure()
    start = clock.now()
    for pe in pe_points:
        for label, channel in channels.items():
            campaign_seed = derive_seed(seed, label, pe)
            clock.tick(force=True)
            bch = evaluate_bch_over_channel(
                codes.bch, channel, pe, num_codewords=codewords["bch"],
                group_size=GROUP_SIZE, seed=campaign_seed, executor=executor)
            clock.tick(force=True)
            ldpc = evaluate_ldpc_over_channel(
                codes.ldpc, channel, pe, num_codewords=codewords["ldpc"],
                group_size=GROUP_SIZE, seed=campaign_seed, executor=executor)
            measure.ecc_results += [(label, "bch", pe, campaign_seed, bch),
                                    (label, "ldpc", pe, campaign_seed, ldpc)]
            measure.frames += bch.codewords + ldpc.codewords
    measure.ecc.append((start, clock.now()))
    return measure


def check_ecc(measure: Measure, ops: Ops) -> None:
    for label, code, pe, _, result in measure.ecc_results:
        rates = (result.frame_error_rate, result.raw_bit_error_rate,
                 result.post_correction_bit_error_rate)
        ops.check(f"{code} over {label} at {pe}: FER and BER in [0, 1]",
                  all(0.0 <= rate <= 1.0 for rate in rates), str(rates))
        ops.check(f"{code} over {label} at {pe}: one record per codeword",
                  result.frame_records.shape == (result.codewords, 3))


def check_fidelity(result: Fidelity, ops: Ops) -> None:
    ops.check("sampled voltages finite and inside the voltage window",
              result.in_window)
    ops.check("level error rates in [0, 1]",
              all(0.0 <= rate <= 1.0 for pair in result.level_error_rates
                  .values() for rate in pair), str(result.level_error_rates))
    ops.check("fidelity metrics finite and positive",
              all(np.isfinite(value) and value > 0
                  for value in result.quality.values()),
              str(result.quality))


def _train_quick(setup: ExperimentSetup, ops: Ops, measure: Measure):
    with ops.stage("dataset"):
        dataset = setup.dataset()
    with ops.stage("train"), step_timer(measure.steps, ops.clock):
        start = ops.clock.now()
        generative = setup.train_generative_model("cvae_gan")
        measure.train.append((start, ops.clock.now()))
    measure.train_arrays += len(dataset) * setup.training_epochs
    return dataset, generative


def _add_fidelity(measure: Measure, result: Fidelity) -> None:
    measure.sample += result.sample
    measure.sample_cells += result.sample_cells
    measure.quality = dict(result.quality)


# --------------------------------------------------------------------------
# campaign_quick
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSize:
    epochs: int = 6
    arrays_per_pe: int = 150
    #: Also sets the sampling volume: the run has one unit, and its
    #: ``sample_cells_per_s`` averages over these reads.
    eval_blocks: int = 16
    fig2_blocks: int = 30
    fig5_iterations: int = 200
    fig6_measured_blocks: int = 120
    #: LDPC decoding over the trained channel costs more the worse the
    #: model's seed-dependent FER; the BCH frames, whose cost does not
    #: depend on it, keep that from dominating ``frames_per_s``.  About 6 s
    #: of decoding, so ``frames_per_s`` averages over many speed ticks.
    codewords: tuple = (("bch", 512), ("ldpc", 256))


#: The miniature campaign of the warm-up: every stage, tiny sizes.
WARMUP_SIZE = CampaignSize(epochs=1, arrays_per_pe=8, eval_blocks=2,
                           fig2_blocks=12, fig5_iterations=10,
                           fig6_measured_blocks=4,
                           codewords=(("bch", 8), ("ldpc", 8)))


def run_campaign(seed: int, size: CampaignSize, codes: Codes,
                 ops: Ops) -> Measure:
    """The quick-scale campaign from a fresh ``ExperimentSetup``."""
    measure = Measure()
    setup = ExperimentSetup(scale="quick", seed=seed,
                            arrays_per_pe=size.arrays_per_pe,
                            training_epochs=size.epochs)
    dataset, generative = _train_quick(setup, ops, measure)
    with ops.stage("fidelity"):
        evaluation = {pe: setup.evaluation_arrays(pe,
                                                  num_blocks=size.eval_blocks)
                      for pe in PE_POINTS}
        result = fidelity(generative, setup.channel,
                          {pe: program
                           for pe, (program, _) in evaluation.items()},
                          setup.spawn_rng("bench:fidelity"), ops.clock)
    _add_fidelity(measure, result)
    check_fidelity(result, ops)
    with ops.stage("fig2"):
        fig2 = run_fig2(setup.channel, blocks_per_pe=size.fig2_blocks,
                        rng=setup.spawn_rng("bench:fig2"))
    ops.check("fig2 level error rates in [0, 1]",
              all(0.0 <= rate <= 1.0
                  for rate in fig2.level_error_rates.values()))
    with ops.stage("fig4"):
        run_fig4(evaluation, generative, bins=120)
    with ops.stage("fig5"):
        fig5 = run_fig5(dataset, evaluation, generative_model=generative,
                        params=setup.params,
                        baseline_iterations=size.fig5_iterations,
                        rng=setup.spawn_rng("bench:fig5"))
    ops.check("fig5 totals finite",
              all(np.isfinite(value) for totals in fig5.totals().values()
                  for value in totals.values()))
    with ops.stage("fig6"):
        program, voltages = evaluation[ICI_PE]
        measured_program, measured_voltages = setup.channel.paired_blocks(
            size.fig6_measured_blocks, ICI_PE,
            rng=setup.spawn_rng("bench:fig6"))
        fig6 = run_fig6(program, voltages, generative, pe_cycles=ICI_PE,
                        params=setup.params,
                        measured_program=measured_program,
                        measured_voltages=measured_voltages)
    measure.quality["ici_tvd"] = ici_tvd(fig6.measured, fig6.modeled)
    with ops.stage("ecc"):
        ecc = ecc_sweep(codes, {"simulator": setup.channel,
                                "generative": generative},
                        dict(size.codewords), seed, ops.clock)
    measure.ecc, measure.frames = ecc.ecc, ecc.frames
    measure.ecc_results = ecc.ecc_results
    measure.fingerprint = (
        model_digest(generative.model),
        tuple(sorted(measure.quality.items())),
        tuple(result.frame_error_rate for *_, result in ecc.ecc_results))
    return measure


class CampaignQuick:
    name = "campaign_quick"
    size = CampaignSize()

    def setup(self, seed: int, ops: Ops, work_dir) -> tuple:
        self.seed = seed
        self.codes = build_codes()
        warmup = run_campaign(seed, WARMUP_SIZE, self.codes, ops)
        return warmup.fingerprint

    def unit(self, index: int, ops: Ops) -> Measure:
        # Every unit is the same-seed campaign, so units double as a
        # determinism check (same weights digest, same fidelity figures).
        return run_campaign(self.seed, self.size, self.codes, ops)

    def verify(self, measure: Measure, ops: Ops) -> None:
        check_ecc(measure, ops)

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# fer_fleet
# --------------------------------------------------------------------------

class FerFleet:
    name = "fer_fleet"
    workers = 2
    #: A small training run: the fleet, not the model, is under test here.
    train_epochs = 1
    arrays_per_pe = 64
    eval_blocks = 8
    #: LDPC campaigns over the generative channel run ~1.3 s per worker
    #: shard, past the scheduler's default ``straggler_wait`` of 1 s, so the
    #: fleet's speculation, dedup and drain paths do real work every unit.
    #: Their drain tails vary from unit to unit, so units are kept small
    #: enough that several fit in a run and ``wall_s`` is their median.
    codewords = {"bch": 64, "ldpc": 512}
    #: Leading codeword groups re-run serially to check the fleet's records.
    prefix_groups = 2

    def setup(self, seed: int, ops: Ops, work_dir) -> tuple:
        self.seed = seed
        self.codes = build_codes()
        self.executor = None
        setup = ExperimentSetup(scale="quick", seed=seed,
                                arrays_per_pe=self.arrays_per_pe,
                                training_epochs=self.train_epochs)
        self.simulator = setup.channel
        self.setup_measure = Measure()
        _, generative = _train_quick(setup, ops, self.setup_measure)
        with ops.stage("fidelity"):
            programs = {pe: setup.evaluation_arrays(
                pe, num_blocks=self.eval_blocks)[0] for pe in PE_POINTS}
            result = fidelity(generative, setup.channel, programs,
                              setup.spawn_rng("bench:fidelity"), ops.clock)
        _add_fidelity(self.setup_measure, result)
        check_fidelity(result, ops)
        with ops.stage("save checkpoint"):
            checkpoint = work_dir / "zoo" / "generative"
            shutil.rmtree(checkpoint, ignore_errors=True)
            save_channel(generative, checkpoint)
            self.channel = ChannelRef.from_checkpoint(checkpoint)
        with ops.stage("restore checkpoint"):
            probe = programs[ICI_PE][:2]
            restored = self.channel.resolve().read_voltages(
                probe, ICI_PE, rng=np.random.default_rng(seed))
            original = generative.read_voltages(
                probe, ICI_PE, rng=np.random.default_rng(seed))
        ops.check("restored checkpoint samples bit-identically",
                  np.array_equal(restored, original))
        with ops.stage("fleet start"):
            self.executor = RemoteExecutor(workers=self.workers)
            # Spawn and handshake the fleet and cold-start the zoo channel
            # in the workers outside the timed sweeps.
            for channel in (self.simulator, self.channel):
                evaluate_ldpc_over_channel(
                    self.codes.ldpc, channel, PE_POINTS[0],
                    num_codewords=4 * GROUP_SIZE, group_size=GROUP_SIZE,
                    seed=seed, executor=self.executor)
        return (model_digest(generative.model),
                tuple(sorted(result.quality.items())))

    def unit(self, index: int, ops: Ops) -> Measure:
        """BCH and LDPC over both channels at every P/E point, so every
        unit does the same mix of work as ``campaign_quick``'s ECC stage."""
        # Start from cold parent-side caches, so a repeated unit index (the
        # traced run repeats unit 0) does the same work as the first time.
        self.simulator.cache.clear()
        self.channel.resolve().cache.clear()
        with ops.stage("ecc"):
            return ecc_sweep(self.codes, {"simulator": self.simulator,
                                          "generative": self.channel},
                             self.codewords,
                             derive_seed(self.seed, "ecc", index), ops.clock,
                             executor=self.executor)

    def verify(self, measure: Measure, ops: Ops) -> None:
        check_ecc(measure, ops)
        prefix = self.prefix_groups * GROUP_SIZE
        channels = {"simulator": self.simulator, "generative": self.channel}
        for label, code, pe, campaign_seed, result in measure.ecc_results:
            evaluate = (evaluate_bch_over_channel if code == "bch"
                        else evaluate_ldpc_over_channel)
            serial = evaluate(getattr(self.codes, code), channels[label], pe,
                              num_codewords=prefix, group_size=GROUP_SIZE,
                              seed=campaign_seed, executor="serial")
            ops.check(f"fleet {code} over {label} at {pe} matches serial "
                      f"on the first {prefix} codewords",
                      np.array_equal(result.frame_records[:prefix],
                                     serial.frame_records))

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


WORKLOADS = {workload.name: workload
             for workload in (CampaignQuick, FerFleet)}
