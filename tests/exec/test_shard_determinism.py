"""Sharded execution must be bit-identical to serial for a fixed seed.

These are the acceptance tests of the execution engine: the real consumers
— an LDPC frame-error campaign, a time-aware constrained-code schedule and
the Fig. 2 sweep — are run serially, with a 2-worker pool and with a
4-worker pool, and every array they produce must match exactly.  The LDPC
campaign also runs on a 2-worker localhost fleet.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import build_channel
from repro.coding import TimeAwareCodeSelector, constraint_tradeoff_curve
from repro.ecc import LDPCCode, evaluate_ldpc_over_channel
from repro.experiments import run_fig2
from repro.flash import BlockGeometry

EXECUTIONS = (("serial", None), ("process", 2), ("process", 4))


@pytest.fixture(scope="module")
def channel():
    return build_channel("simulator", geometry=BlockGeometry(16, 16),
                         rng=np.random.default_rng(0))


class TestLDPCCampaignDeterminism:
    @pytest.fixture(scope="class")
    def results(self, channel):
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(1))
        return [evaluate_ldpc_over_channel(
                    code, channel, 10000, num_codewords=8, group_size=2,
                    seed=123, executor=executor, workers=workers)
                for executor, workers in EXECUTIONS + (("remote", 2),)]

    def test_frame_records_identical(self, results):
        serial, *others = results
        for other in others:
            np.testing.assert_array_equal(serial.frame_records,
                                          other.frame_records)

    def test_rates_identical(self, results):
        serial, *others = results
        for other in others:
            assert other.raw_bit_error_rate == serial.raw_bit_error_rate
            assert other.frame_error_rate == serial.frame_error_rate
            assert other.post_correction_bit_error_rate \
                == serial.post_correction_bit_error_rate

    def test_by_name_channel_reproducible_for_fixed_seed(self):
        """Two same-seed campaigns over a registry-name channel must agree.

        The LLR density table is estimated from blocks derived from the
        campaign seed, not from the freshly built channel's OS-entropy
        generator — otherwise each run would decode against a different
        table.
        """
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(2))
        runs = [evaluate_ldpc_over_channel(code, "simulator", 12000,
                                           num_codewords=8, group_size=4,
                                           seed=31)
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0].frame_records,
                                      runs[1].frame_records)


class TestSelectorScheduleDeterminism:
    @pytest.fixture(scope="class")
    def schedules(self, channel):
        schedules = []
        for executor, workers in EXECUTIONS:
            selector = TimeAwareCodeSelector(
                channel, error_rate_target=5e-3, high_levels=(7, 6, 5),
                num_blocks=4, seed=77, executor=executor, workers=workers)
            schedules.append(selector.schedule((4000, 7000, 10000)))
        return schedules

    def test_error_rate_arrays_identical(self, schedules):
        serial, two, four = schedules
        reference = np.array([point.error_rate for point in serial])
        for other in (two, four):
            np.testing.assert_array_equal(
                np.array([point.error_rate for point in other]), reference)

    def test_selected_constraints_identical(self, schedules):
        serial, two, four = schedules
        reference = [point.high_level for point in serial]
        assert [point.high_level for point in two] == reference
        assert [point.high_level for point in four] == reference


class TestTradeoffCurveDeterminism:
    def test_points_identical_across_executors(self, channel):
        curves = [constraint_tradeoff_curve(
                      channel, 10000, high_levels=(6, 5), num_blocks=4,
                      seed=5, executor=executor, workers=workers)
                  for executor, workers in EXECUTIONS]
        reference = np.array([point.error_rate for point in curves[0]])
        for curve in curves[1:]:
            np.testing.assert_array_equal(
                np.array([point.error_rate for point in curve]), reference)


class TestFig2Determinism:
    def test_pattern_counts_identical_across_executors(self):
        results = []
        for executor, workers in EXECUTIONS:
            # A fresh, identically-seeded channel per run: the driver draws
            # its root seed from the channel's generator.
            channel = build_channel("simulator",
                                    geometry=BlockGeometry(32, 32),
                                    rng=np.random.default_rng(3))
            results.append(run_fig2(channel, blocks_per_pe=20,
                                    executor=executor, workers=workers))
        reference = results[0]
        for other in results[1:]:
            assert other.level_error_rates == reference.level_error_rates
            assert other.raw_pattern_counts == reference.raw_pattern_counts
